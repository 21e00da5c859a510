"""Command-line behaviour: commands, formats, exit codes, round-trips."""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_PD
from pdneg import cli, entropy, errors
from pdneg.cli import CHUNK_RECORDS, main

EXAMPLE_LINE = " ".join(str(v) for v in EXAMPLE_PD)


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_input(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestNegate:
    def test_yager_on_the_example(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, out, _ = run(capsys, "negate", "yager", "--input", path)
        assert code == 0
        document = json.loads(out)
        (result,) = document["results"]
        assert result["label"] == "pd1"
        assert result["output"] == pytest.approx([0.25, 0.225, 0.2, 0.175, 0.15], abs=1e-12)
        assert result["entropy_delta"] == pytest.approx(0.09375, abs=1e-12)

    def test_boundary_form_resolves_against_each_distribution(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, out, _ = run(capsys, "negate", "linear:n1=0.1", "--input", path)
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["output"] == pytest.approx([0.225, 0.2125, 0.2, 0.1875, 0.175], abs=1e-12)

    def test_uniform_on_any_length_five_input(self, capsys, tmp_path):
        path = write_input(tmp_path, "0.5 0.2 0.1 0.1 0.1")
        code, out, _ = run(capsys, "negate", "uniform", "--input", path)
        assert code == 0
        assert json.loads(out)["results"][0]["output"] == [0.2] * 5

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "negate", "yager", stdin=EXAMPLE_LINE, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["results"][0]["label"] == "pd1"

    def test_json_input_document_keeps_labels(self, capsys, tmp_path):
        document = {"distributions": [
            {"label": "high", "values": [0.1, 0.9]},
            {"label": "low", "values": [0.9, 0.1]},
        ]}
        path = write_input(tmp_path, json.dumps(document), "input.json")
        code, out, _ = run(capsys, "negate", "yager", "--input", path)
        assert code == 0
        labels = [result["label"] for result in json.loads(out)["results"]]
        assert labels == ["high", "low"]

    def test_mix_of_one_yager_is_byte_identical_to_yager(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        outputs = {}
        for negator in ("yager", "mix:[1.0*yager]"):
            for fmt in ("json", "csv"):
                _, out, _ = run(capsys, "negate", negator, "--input", path, "--format", fmt)
                outputs.setdefault(fmt, []).append(out)
        assert outputs["json"][0] == outputs["json"][1]
        assert outputs["csv"][0] == outputs["csv"][1]

    def test_csv_and_json_round_trip_to_identical_values(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE + "\n0.5 0.5\n")
        _, json_out, _ = run(capsys, "negate", "tsallis:k=2", "--input", path)
        _, csv_out, _ = run(capsys, "negate", "tsallis:k=2", "--input", path, "--format", "csv")
        by_label = {result["label"]: result for result in json.loads(json_out)["results"]}
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert rows
        for row in rows:
            result = by_label[row["label"]]
            index = int(row["index"]) - 1
            assert float(row["input"]) == result["input"][index]
            assert float(row["output"]) == result["output"][index]
            assert float(row["entropy_delta"]) == result["entropy_delta"]

    def test_pretty_rounds_to_six_significant_digits(self, capsys, tmp_path):
        path = write_input(tmp_path, "0.3333333333333333 0.3333333333333333 0.3333333333333334")
        _, out, _ = run(capsys, "negate", "yager", "--input", path, "--pretty")
        assert "0.33333333333333337" not in out
        assert "0.333333" in out

    def test_malformed_descriptor_exits_2(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, _, err = run(capsys, "negate", "yagr", "--input", path)
        assert code == 2
        assert "position" in err

    def test_invalid_distribution_exits_2(self, capsys, tmp_path):
        path = write_input(tmp_path, "0.6 0.6")
        code, _, err = run(capsys, "negate", "yager", "--input", path)
        assert code == 2
        assert "pd1" in err

    def test_duplicate_labels_exit_2(self, capsys, tmp_path):
        document = {"distributions": [
            {"label": "p", "values": [0.5, 0.5]},
            {"label": "p", "values": [0.4, 0.6]},
        ]}
        path = write_input(tmp_path, json.dumps(document), "input.json")
        code, _, err = run(capsys, "negate", "yager", "--input", path)
        assert code == 2
        assert "unique" in err


class TestCheck:
    def test_yager_passes_and_is_the_alpha_zero_line(self, capsys):
        code, out, _ = run(capsys, "check", "yager", "--n", "5")
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        assert document["linearity"]["is_linear"] is True
        assert document["linearity"]["alpha_estimate"] == 0.0
        names = [entry["check_name"] for entry in document["checks"]]
        assert names == ["fixed-point", "functional-equation", "boundary-range", "independence-probe"]

    def test_tsallis_skips_pointwise_checks_and_fails_the_probe(self, capsys):
        code, out, _ = run(capsys, "check", "tsallis:k=2", "--n", "5")
        assert code == 1
        document = json.loads(out)
        assert document["passed"] is False
        skipped = {entry["check_name"] for entry in document["checks"] if entry["skipped"]}
        assert skipped == {"functional-equation", "boundary-range", "linearity"}
        probe = next(e for e in document["checks"] if e["check_name"] == "independence-probe")
        assert probe["passed"] is False
        assert probe["violations"]

    def test_linear_alpha_is_recovered(self, capsys):
        code, out, _ = run(capsys, "check", "linear:alpha=0.5", "--n", "5")
        assert code == 0
        document = json.loads(out)
        assert document["linearity"]["alpha_estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_boundary_form_needs_the_length_flag(self, capsys):
        code, out, _ = run(capsys, "check", "linear:n1=0.1", "--n", "5")
        assert code == 0
        assert json.loads(out)["negator"] == "linear:alpha=0.5"

    def test_default_runs_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", "tsallis:k=2", "--n", "4")
        _, second, _ = run(capsys, "check", "tsallis:k=2", "--n", "4")
        assert first == second

    def test_csv_format_summarises_each_check(self, capsys):
        code, out, _ = run(capsys, "check", "yager", "--n", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        names = [row["check_name"] for row in rows]
        assert "fixed-point" in names and "linearity" in names

    def test_identity_is_checkable_and_passes(self, capsys):
        code, out, _ = run(capsys, "check", "identity", "--n", "3")
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        skipped = {entry["check_name"] for entry in document["checks"] if entry["skipped"]}
        assert skipped == {"boundary-range", "linearity"}


    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tolerance):
        code, out, err = run(capsys, "check", "tsallis:k=2", "--n", "5", f"--tol={tolerance}")
        assert code == 2
        assert out == ""
        assert "--tol must be a finite number >= 0" in err

    def test_zero_tolerance_runs_the_checks(self, capsys):
        code, out, _ = run(capsys, "check", "yager", "--n", "5", "--tol", "0")
        assert code == 0
        assert json.loads(out)["checks"][0]["tolerance"] == 0.0

    @pytest.mark.parametrize("grid", ["1", "-5"])
    @pytest.mark.parametrize("negator", ["tsallis:k=2", "rootsum", "identity"])
    def test_grid_below_two_exits_2_for_every_descriptor(self, capsys, negator, grid):
        code, out, err = run(capsys, "check", negator, "--n", "5", f"--grid={grid}")
        assert code == 2
        assert out == ""
        assert "--grid must be at least 2" in err

    def test_linearity_needs_a_grid_of_three(self, capsys):
        code, out, err = run(capsys, "check", "yager", "--n", "5", "--grid", "2")
        assert code == 2
        assert out == ""
        assert "grid_size must be at least 3" in err

    def test_input_is_refused_since_check_reads_none(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "yager", "--n", "5", "--input", "x"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --input x" in captured.err


class TestIterate:
    def test_yager_trace(self, capsys, tmp_path):
        path = write_input(tmp_path, "1 0 0")
        code, out, _ = run(capsys, "iterate", "yager", "--steps", "2", "--input", path)
        assert code == 0
        trace = json.loads(out)["results"][0]["trace"]
        assert [step["values"] for step in trace] == [
            [1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.25, 0.25],
        ]

    def test_zero_steps_emits_only_the_input(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, out, _ = run(capsys, "iterate", "yager", "--steps", "0", "--input", path)
        assert code == 0
        trace = json.loads(out)["results"][0]["trace"]
        assert len(trace) == 1
        assert trace[0]["values"] == list(EXAMPLE_PD)

    def test_non_negator_exits_3(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, _, err = run(capsys, "iterate", "identity", "--steps", "2", "--input", path)
        assert code == 3
        assert "negator" in err

    def test_csv_round_trips(self, capsys, tmp_path):
        path = write_input(tmp_path, "1 0 0")
        _, json_out, _ = run(capsys, "iterate", "yager", "--steps", "2", "--input", path)
        _, csv_out, _ = run(capsys, "iterate", "yager", "--steps", "2", "--input", path, "--format", "csv")
        trace = json.loads(json_out)["results"][0]["trace"]
        for row in csv.DictReader(io.StringIO(csv_out)):
            step = trace[int(row["step"])]
            assert float(row["value"]) == step["values"][int(row["index"]) - 1]
            assert float(row["entropy"]) == step["entropy"]
            assert float(row["distance_to_uniform"]) == step["distance_to_uniform"]


class TestDescriptorPerLength:
    MIXED_LENGTHS = "0.2 0.2 0.2 0.2 0.2\n0.5 0.3 0.2\n0.1 0.2 0.3 0.4 0.0\n0.1 0.1 0.8\n0.4 0.3 0.2 0.1\n"

    @pytest.mark.parametrize("argv", [["negate", "yager"], ["iterate", "yager", "--steps", "1"]])
    def test_descriptor_is_parsed_once_per_distinct_length(self, capsys, tmp_path, monkeypatch, argv):
        from pdneg.negators import parse_descriptor

        lengths = []

        def counted(spec, n=None):
            lengths.append(n)
            return parse_descriptor(spec, n=n)

        monkeypatch.setattr("pdneg.cli.parse_descriptor", counted)
        path = write_input(tmp_path, self.MIXED_LENGTHS)
        code, _, _ = run(capsys, *argv, "--input", path)
        assert code == 0
        assert lengths == [5, 3, 4]

    @pytest.mark.parametrize("argv", [["negate", "linear:n1=0.1"], ["iterate", "linear:n1=0.1", "--steps", "2"]])
    def test_boundary_form_resolves_against_each_length(self, capsys, tmp_path, argv):
        path = write_input(tmp_path, self.MIXED_LENGTHS)
        _, out, _ = run(capsys, *argv, "--input", path)
        together = json.loads(out)["results"]
        for line, result in zip(self.MIXED_LENGTHS.splitlines(), together):
            _, alone, _ = run(capsys, *argv, "--input", write_input(tmp_path, line, "alone.txt"))
            assert {**json.loads(alone)["results"][0], "label": result["label"]} == result

    def test_first_length_the_boundary_form_rejects_exits_2(self, capsys, tmp_path):
        # N(1) = 0.3 is admissible for n = 3 only: the length-4 line is the first to fail.
        path = write_input(tmp_path, "0.5 0.3 0.2\n0.1 0.1 0.8\n0.4 0.3 0.2 0.1\n0.2 0.2 0.2 0.2 0.2\n")
        code, out, err = run(capsys, "negate", "linear:n1=0.3", "--input", path)
        assert (code, out) == (2, "")
        assert err == "pdneg: N(1) = 0.3 outside the admissible interval [0, 1/4] = [0.0, 0.25]\n"


class TestSweepAlpha:
    def test_three_alphas_reproduce_the_example_family(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, out, _ = run(capsys, "sweep-alpha", "--alphas", "3", "--input", path)
        assert code == 0
        document = json.loads(out)
        assert document["alphas"] == [0.0, 0.5, 1.0]
        by_alpha = {result["alpha"]: result["output"] for result in document["results"]}
        assert by_alpha[0.0] == pytest.approx([0.25, 0.225, 0.2, 0.175, 0.15], abs=1e-12)
        assert by_alpha[0.5] == pytest.approx([0.225, 0.2125, 0.2, 0.1875, 0.175], abs=1e-12)
        assert by_alpha[1.0] == [0.2] * 5

    def test_alpha_zero_row_matches_negate_yager(self, capsys, tmp_path):
        path = write_input(tmp_path, "0.4 0.35 0.25")
        _, sweep_out, _ = run(capsys, "sweep-alpha", "--alphas", "2", "--input", path)
        _, negate_out, _ = run(capsys, "negate", "yager", "--input", path)
        sweep_row = json.loads(sweep_out)["results"][0]
        negate_row = json.loads(negate_out)["results"][0]
        assert sweep_row["alpha"] == 0.0
        assert sweep_row["output"] == negate_row["output"]

    def test_entropy_is_monotone_in_alpha(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE + "\n0.8 0.1 0.1\n")
        code, out, _ = run(capsys, "sweep-alpha", "--alphas", "11", "--input", path)
        assert code == 0
        by_label: dict[str, list[tuple[float, float]]] = {}
        for result in json.loads(out)["results"]:
            by_label.setdefault(result["label"], []).append(
                (result["alpha"], result["output_entropy"])
            )
        for series in by_label.values():
            series.sort()
            entropies = [h for _, h in series]
            assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_input_entropy_is_computed_once_per_distribution(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(dist):
            calls.append(dist)
            return entropy(dist)

        monkeypatch.setattr("pdneg.cli.entropy", counted)
        path = write_input(tmp_path, EXAMPLE_LINE + "\n0.8 0.1 0.1\n")
        code, _, _ = run(capsys, "sweep-alpha", "--alphas", "3", "--input", path)
        assert code == 0
        assert len(calls) == 2 + 3 * 2

    def test_length_flag_validates_inputs(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, _, err = run(capsys, "sweep-alpha", "--alphas", "3", "--n", "4", "--input", path)
        assert code == 2
        assert "length" in err

    def test_too_few_alphas_exit_2(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, _, _ = run(capsys, "sweep-alpha", "--alphas", "1", "--input", path)
        assert code == 2

    def test_csv_round_trips(self, capsys, tmp_path):
        path = write_input(tmp_path, "0.4 0.35 0.25")
        _, json_out, _ = run(capsys, "sweep-alpha", "--alphas", "4", "--input", path)
        _, csv_out, _ = run(capsys, "sweep-alpha", "--alphas", "4", "--input", path, "--format", "csv")
        by_alpha = {result["alpha"]: result for result in json.loads(json_out)["results"]}
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == 4 * 3
        for row in rows:
            result = by_alpha[float(row["alpha"])]
            assert float(row["output"]) == result["output"][int(row["index"]) - 1]
            assert float(row["output_entropy"]) == result["output_entropy"]


class TestEntropyCommand:
    def test_reports_the_entropy_of_each_distribution(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE + "\n0.2 0.2 0.2 0.2 0.2\n")
        code, out, _ = run(capsys, "entropy", "--input", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0]["entropy"] == pytest.approx(0.70, abs=1e-12)
        assert results[1]["entropy"] == 0.8

    def test_blank_lines_are_skipped_without_a_gap_in_the_labels(self, capsys, tmp_path):
        path = write_input(tmp_path, "\n" + EXAMPLE_LINE + "\n   \n\t\n0.2 0.2 0.2 0.2 0.2\n\n")
        code, out, _ = run(capsys, "entropy", "--input", path)
        assert code == 0
        assert [result["label"] for result in json.loads(out)["results"]] == ["pd1", "pd2"]

    def test_csv_round_trips(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        _, json_out, _ = run(capsys, "entropy", "--input", path)
        _, csv_out, _ = run(capsys, "entropy", "--input", path, "--format", "csv")
        (row,) = list(csv.DictReader(io.StringIO(csv_out)))
        assert float(row["entropy"]) == json.loads(json_out)["results"][0]["entropy"]


class TestPreflight:
    """Every failure that input or flags can cause is found before the first
    byte of a report, even when only the last distribution causes it."""

    @pytest.mark.parametrize(
        "argv,lines,code",
        [
            # N(1) = 0.2 is admissible up to n = 5.
            (["negate", "linear:n1=0.2"], ["0.5 0.3 0.2", "0.2 0.2 0.2 0.2 0.2"], 2),
            # 200000 steps stay within the component-evaluation cap up to n = 5.
            (["iterate", "yager", "--steps", "200000"], ["0.5 0.3 0.2"], 2),
            (["iterate", "rootsum"], ["0.5 0.3 0.2", "0.2 0.2 0.2 0.2 0.2"], 3),
            (["sweep-alpha", "--n", "2"], ["0.5 0.5", "0.9 0.1"], 2),
        ],
        ids=["negate-boundary-form", "iterate-cap", "iterate-non-negator", "sweep-alpha-length"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_failing_last_distribution_leaves_stdout_empty(self, capsys, tmp_path, argv, lines, code, fmt):
        path = write_input(tmp_path, "\n".join(lines + ["0.1 0.1 0.1 0.1 0.1 0.1 0.1 0.3"]) + "\n")
        got, out, err = run(capsys, *argv, "--format", fmt, "--input", path)
        assert (got, out) == (code, "")
        assert err.startswith("pdneg: ")


class TestChunkBoundaries:
    """JSON reports longer than one chunk of records are still one json.dumps."""

    # Three chunks and one record; two labels JSON escapes sit on either
    # side of the first chunk boundary.
    COUNT = 3 * CHUNK_RECORDS + 1

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        from pdneg.analysis import sample_distributions

        labels = [f"d{i}" for i in range(self.COUNT)]
        labels[CHUNK_RECORDS - 1], labels[CHUNK_RECORDS] = "café", 'q"uote'
        distributions = [{"label": label, "values": list(dist.values)}
                         for label, dist in zip(labels, sample_distributions(3, self.COUNT, seed=4))]
        path = tmp_path_factory.mktemp("chunks") / "input.json"
        path.write_text(json.dumps({"distributions": distributions}))
        return str(path)

    @pytest.mark.parametrize(
        "argv,records",
        [
            (["negate", "yager"], COUNT),
            (["iterate", "yager", "--steps", "1"], COUNT),
            (["sweep-alpha", "--alphas", "2"], 2 * COUNT),
            (["entropy"], COUNT),
        ],
    )
    @pytest.mark.parametrize("pretty", [False, True])
    def test_the_report_is_one_json_document(self, capsys, path, argv, records, pretty):
        code, out, _ = run(capsys, *argv, "--input", path, *(["--pretty"] if pretty else []))
        assert code == 0
        document = json.loads(out)
        # out == json.dumps(...) + "\n", line by line, so that a failure reports quickly.
        assert out.split("\n") == (json.dumps(document, indent=2 if pretty else None) + "\n").split("\n")
        assert len(document["results"]) == records
        labels = [result["label"] for result in document["results"]]
        assert labels[CHUNK_RECORDS - 1:CHUNK_RECORDS + 1] == ["café", 'q"uote']


class TestReportMemory:
    """A report holds its parsed input and one chunk of records at a time, so
    its peak is about that of reading the input, whatever the report's size."""

    @staticmethod
    def peak(argv, path, warm_up):
        """Traced peak of a run on `path`, after a run on `warm_up` has done any one-off setup.

        A full collection first empties the interpreter's free lists, whose
        reused objects tracemalloc would not count, so the peak does not
        depend on what ran before.
        """
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main([*argv, "--input", warm_up]) == 0
            gc.collect()
            tracemalloc.start()
            try:
                assert main([*argv, "--input", path]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        from pdneg.analysis import sample_distributions

        distributions = [{"label": f"d{i}", "values": list(dist.values)}
                         for i, dist in enumerate(sample_distributions(5, 2000, seed=3))]
        directory = tmp_path_factory.mktemp("memory")
        (directory / "input.json").write_text(json.dumps({"distributions": distributions}))
        (directory / "warm-up.json").write_text(json.dumps({"distributions": distributions[:1]}))
        return str(directory / "input.json"), str(directory / "warm-up.json")

    @pytest.fixture(scope="class")
    def reading(self, paths):
        return self.peak(["entropy"], *paths)

    # While it decodes, the reader holds the text, one array of the values
    # and a token per entry, never an entry's dict, list or floats.
    def test_the_entropy_report_peaks_within_four_times_the_document(self, paths, reading):
        assert reading <= 4 * os.path.getsize(paths[0])

    @pytest.mark.parametrize("argv", [["negate", "yager"], ["iterate", "yager", "--steps", "3"],
                                      ["sweep-alpha", "--alphas", "11"]])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_report_peaks_near_the_entropy_report(self, paths, reading, argv, fmt):
        assert self.peak([*argv, "--format", fmt], *paths) <= 1.5 * reading


class TestTextReportMemory(TestReportMemory):
    """The same bounds on the same distributions written as text lines: the
    text reader holds the text, then its lines while it stores their values."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        from pdneg.analysis import sample_distributions

        lines = [" ".join(map(repr, dist.values)) + "\n" for dist in sample_distributions(5, 2000, seed=3)]
        directory = tmp_path_factory.mktemp("memory-text")
        (directory / "input.txt").write_text("".join(lines))
        (directory / "warm-up.txt").write_text(lines[0])
        return str(directory / "input.txt"), str(directory / "warm-up.txt")


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "yager", "--n", str(10**12)],
            ["check", "yager", "--n", "5", "--grid", str(10**12)],
            ["sweep-alpha", "--alphas", str(10**12)],
        ],
    )
    def test_size_flags_beyond_the_cap_exit_2_before_allocating(self, capsys, tmp_path, argv):
        if argv[0] == "sweep-alpha":
            argv = [*argv, "--input", write_input(tmp_path, EXAMPLE_LINE)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the 1000000 cap" in err


class TestInputDocument:
    @pytest.mark.parametrize(
        "distributions,named",
        [
            ([1], "entry #1"),
            ([{"label": "a", "values": [0.5, 0.5]}, "b"], "entry #2"),
            ([{"label": 3, "values": [0.5, 0.5]}], "entry #1"),
            ([{"label": "a", "values": [None, 1]}], "'a': value #1 is null"),
            ([{"label": "a", "values": [True, False]}], "'a': value #1 is true"),
            ([{"label": "a", "values": [1, False]}], "'a': value #2 is false"),
            ([{"label": "a", "values": ["0.5", "0.5"]}], "'a': value #1 is \"0.5\""),
            ([{"label": "a", "values": [[0.5], 0.5]}], "'a': value #1 is [0.5]"),
            ([{"label": "a", "values": [10**400, 0]}], "'a': component 1 = inf"),
            ([{"label": "a", "values": 0.5}], "'a' needs a 'values' list"),
            ([{"label": "a"}], "'a' needs a 'values' list"),
            # The first faulty entry in document order is the one named.
            ([{"label": "a", "values": [0.6, 0.6]}, {"label": "a", "values": [0.5, 0.5]}],
             "'a': components sum to 1.2"),
        ],
    )
    def test_malformed_entries_exit_2_naming_the_entry(self, capsys, tmp_path, distributions, named):
        path = write_input(tmp_path, json.dumps({"distributions": distributions}), "input.json")
        code, out, err = run(capsys, "entropy", "--input", path)
        assert code == 2
        assert out == ""
        assert named in err
        assert "Traceback" not in err

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path):
        depth = 100_000
        path = write_input(tmp_path, '{"distributions": ' + "[" * depth + "]" * depth + "}", "input.json")
        code, out, err = run(capsys, "entropy", "--input", path)
        assert code == 2
        assert out == ""
        assert "nests too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("opening,middle,closing", [
        ('{"a": ', "1", "}"),
        ('[{"label": "a", "values": [0.5, ', "0.5", "]}]"),
    ], ids=["objects", "entry-values"])
    def test_deeply_nested_objects_and_values_exit_2(self, capsys, tmp_path, opening, middle, closing):
        depth = 50_000
        text = '{"distributions": ' + opening * depth + middle + closing * depth + "}"
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, text, "input.json"))
        assert (code, out) == (2, "")
        assert err == "pdneg: input document nests too deeply\n"

    # The document is decoded whole before any entry is checked.
    @pytest.mark.parametrize("faulty", [
        '{"label": "a", "values": [0.6, 0.6]}',
        '{"label": "a", "values": [0.5, "x"]}',
        '{"values": [0.5, 0.5]}',
        "7",
    ])
    def test_a_syntax_error_beats_an_earlier_faulty_entry(self, capsys, tmp_path, faulty):
        text = '{"distributions": [' + faulty + ', {"label": "b", "values": [0.5, 0.5]]}'
        with pytest.raises(json.JSONDecodeError) as excinfo:
            json.loads(text)
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, text, "input.json"))
        assert (code, out, err) == (2, "", f"pdneg: {excinfo.value}\n")

    @pytest.mark.parametrize("first", ['[{"label": "b", "values": [1, 0]}]', '[{"label": "a", "values": [2, 0]}]', "7"])
    def test_the_last_of_repeated_distributions_keys_is_read(self, capsys, tmp_path, first):
        text = '{"distributions": ' + first + ', "distributions": [{"label": "a", "values": [0.5, 0.5]}]}'
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, text, "input.json"))
        assert (code, err) == (0, "")
        assert out == '{"command": "entropy", "results": [{"label": "a", "n": 2, "entropy": 0.5}]}\n'

    # An object shaped like an entry is rendered as written wherever it is not one.
    @pytest.mark.parametrize("distributions,message", [
        ('[{"label": "a", "values": [{"label": "x", "values": [0.5, 0.5]}, 0.5]}]',
         'distribution \'a\': value #1 is {"label": "x", "values": [0.5, 0.5]}, expected a number'),
        ('[{"label": "a", "values": [0.5, {"label": "x", "values": [1, -0], "w": 2}]}]',
         'distribution \'a\': value #2 is {"label": "x", "values": [1.0, -0.0], "w": 2.0}, expected a number'),
        ('[{"label": "a", "values": [0.5, [{"label": "x", "values": [0.6, 0.6]}]]}]',
         'distribution \'a\': value #2 is [{"label": "x", "values": [0.6, 0.6]}], expected a number'),
        ('[{"label": "a", "values": [1, 0]}, [{"values": [0.5, 0.5], "label": "x"}]]',
         'distribution entry #2 is [{"values": [0.5, 0.5], "label": "x"}], expected an object'),
        ('[[{"label": "x", "label": "y", "values": [0.5, 0.5]}, {"label": "z", "values": [1e999, 0]}]]',
         'distribution entry #1 is [{"label": "y", "values": [0.5, 0.5]}, {"label": "z", "values": [Infinity, 0.0]}], '
         'expected an object'),
    ])
    def test_a_nested_entry_shaped_object_is_rendered_as_written(self, capsys, tmp_path, distributions, message):
        text = '{"distributions": ' + distributions + "}"
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, text, "input.json"))
        assert (code, out, err) == (2, "", f"pdneg: {message}\n")

    @pytest.mark.parametrize("document,expected", [
        ('{"label": "x", "values": [0.5, 0.5]}', None),
        ('{"label": "x", "values": [0.6, 0.6], "distributions": [{"label": "a", "values": [1, 0]}]}', "a"),
        ('{"meta": {"label": "a", "values": [0.5, 0.5]}, "distributions": [{"label": "b", "values": [1, 0]}], '
         '"more": [{"label": "c", "values": [0.25, 0.75]}]}', "b"),
        ('{"distributions": [{"label": "a", "values": [1, 0], "note": {"label": "a", "values": [0.5, 0.5]}}, '
         '{"values": [0, 1], "label": "b", "n": 2}]}', "a b"),
    ])
    def test_entry_shaped_objects_elsewhere_are_not_entries(self, capsys, tmp_path, document, expected):
        code, out, err = run(capsys, "entropy", "--format", "csv", "--input", write_input(tmp_path, document))
        if expected is None:
            assert (code, out, err) == (2, "", "pdneg: input document needs a non-empty 'distributions' list\n")
        else:
            assert (code, err) == (0, "")
            assert [row.split(",")[0] for row in out.splitlines()[1:]] == expected.split()
            assert all(row.endswith(",2,0") for row in out.splitlines()[1:])

    # The hook stores the canonical entries (and the object under "meta") as it decodes
    # them; the reader stores b and d as it reads them, so the store is out of document order.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_entries_stored_out_of_order_are_reported_in_document_order(self, capsys, tmp_path, fmt):
        inputs = {"a": [0.5, 0.5], "b": [0.25, 0.75], "c": [0.125, 0.875], "d": [1.0, 0.0], "e": [0.375, 0.625]}
        entries = [
            {"label": "a", "values": inputs["a"]},
            {"values": inputs["b"], "label": "b"},
            {"label": "c", "values": inputs["c"]},
            {"label": "d", "values": inputs["d"], "note": "extra"},
            {"label": "e", "values": inputs["e"]},
        ]
        document = {"meta": {"label": "m", "values": [0.0, 1.0]}, "distributions": entries}
        path = write_input(tmp_path, json.dumps(document), "input.json")
        code, out, err = run(capsys, "negate", "yager", "--format", fmt, "--input", path)
        assert (code, err) == (0, "")
        if fmt == "json":
            reported = [(result["label"], result["input"]) for result in json.loads(out)["results"]]
        else:
            reported = []
            for row in csv.DictReader(io.StringIO(out)):
                if row["index"] == "1":
                    reported.append((row["label"], []))
                reported[-1][1].append(float(row["input"]))
        assert reported == list(inputs.items())

    # The store holds a, c, b (c is stored as decoded, b when read), so the lengths
    # in store order are 2, 5, 4; a command's refusal must meet them as written.
    @pytest.mark.parametrize("argv,message", [
        (["sweep-alpha", "--n", "2"], "pdneg: distribution 'b' has length 4, expected --n 2\n"),
        (["negate", "linear:n1=0.3"], "pdneg: N(1) = 0.3 outside the admissible interval [0, 1/4] = [0.0, 0.25]\n"),
    ], ids=["sweep-alpha-length", "negate-boundary-form"])
    def test_lengths_follow_document_order_when_the_store_does_not(self, capsys, tmp_path, argv, message):
        entries = [{"label": "a", "values": [0.5, 0.5]}, {"values": [0.25] * 4, "label": "b"},
                   {"label": "c", "values": [0.2] * 5}]
        path = write_input(tmp_path, json.dumps({"distributions": entries}), "input.json")
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out, err) == (2, "", message)

    # str.splitlines ends a line at each of these; iterating a file's lines does not.
    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028", "\r", "\r\n"])
    def test_text_lines_end_where_splitlines_ends_them(self, capsys, tmp_path, separator):
        path = tmp_path / "input.txt"
        path.write_bytes(f"0.5 0.5{separator}0.25, 0.75\n\n1 0{separator}".encode("utf-8"))
        code, out, err = run(capsys, "entropy", "--format", "csv", "--input", str(path))
        assert (code, err) == (0, "")
        assert out == "label,n,entropy\npd1,2,0.5\npd2,2,0.375\npd3,2,0\n"

    def test_integer_values_are_numbers(self, capsys, tmp_path):
        path = write_input(tmp_path, json.dumps({"distributions": [{"label": "a", "values": [1, 0]}]}))
        code, out, _ = run(capsys, "entropy", "--input", path)
        assert code == 0
        assert json.loads(out)["results"][0]["entropy"] == 0.0

    def test_a_text_token_that_is_no_number_names_its_label(self, capsys, tmp_path):
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, "0.5 0.5\n0.5 x\n"))
        assert (code, out) == (2, "")
        assert err == "pdneg: distribution 'pd2': could not convert string to float: 'x'\n"

    @pytest.mark.parametrize("text", [
        json.dumps({"distributions": [{"label": "a", "values": [0.5, 0.5]}, {"label": "b", "values": [1, 0]}]}),
        "0.5 0.5\n0.25, 0.75\n",
    ], ids=["json", "text"])
    def test_a_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected = run(capsys, "entropy", "--input", str(plain))
        assert expected[0] == 0
        assert run(capsys, "entropy", "--input", str(marked)) == expected

    def test_an_input_file_is_utf_8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"distributions": [{"label": "caf\xc3\xa9", "values": [0.5, 0.5]}]}')
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        done = subprocess.run([sys.executable, "-m", "pdneg", "entropy", "--input", str(path)],
                              capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert b'"label": "caf\\u00e9"' in done.stdout

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_an_input_that_cannot_be_opened_exits_2_with_opens_error(self, capsys, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(OSError) as excinfo:
            open(path, encoding="utf-8")
        code, out, err = run(capsys, "entropy", "--input", path)
        assert (code, out, err) == (2, "", f"pdneg: {excinfo.value}\n")



class TestLabelEncoding:
    # A lone surrogate has no UTF-8 form, so no report could print the label.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_label_that_is_not_valid_unicode_exits_2_before_any_output(self, capsys, tmp_path, fmt):
        distributions = [{"label": "a", "values": [1, 0]}, {"label": "\ud800", "values": [1, 0]}]
        path = write_input(tmp_path, json.dumps({"distributions": distributions}), "input.json")
        code, out, err = run(capsys, "negate", "yager", "--format", fmt, "--input", path)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["pdneg: distribution entry #2: label '\\ud800' is not valid Unicode"]

    # CSV writes a label as it is, so under --format csv it must hold no bare
    # carriage return (csv.writer before Python 3.13 leaves one unquoted and the
    # row splits) and must encode to stdout's encoding.  JSON escapes to ASCII.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_carriage_return_in_a_label_exits_2_under_csv_only(self, capsys, tmp_path, fmt):
        distributions = [{"label": "a", "values": [0.5, 0.5]}, {"label": "a\rb", "values": [0.5, 0.5]}]
        path = write_input(tmp_path, json.dumps({"distributions": distributions}), "input.json")
        code, out, err = run(capsys, "entropy", "--format", fmt, "--input", path)
        if fmt == "csv":
            assert code == 2
            assert out == ""
            assert err.splitlines() == [
                "pdneg: distribution entry #2: label 'a\\rb' holds a carriage return, which CSV cannot write"
            ]
        else:
            assert code == 0
            assert json.loads(out)["results"][1]["label"] == "a\rb"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_label_an_ascii_stdout_cannot_encode_exits_2_under_csv_only(self, capsys, tmp_path, monkeypatch, fmt):
        distributions = [{"label": "a", "values": [0.5, 0.5]}, {"label": "\u00e9", "values": [0.5, 0.5]}]
        path = write_input(tmp_path, json.dumps({"distributions": distributions}), "input.json")
        raw = io.BytesIO()
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="ascii", newline=""))
        code = main(["entropy", "--format", fmt, "--input", path])
        sys.stdout.flush()
        err = capsys.readouterr().err
        if fmt == "csv":
            assert code == 2
            assert raw.getvalue() == b""
            assert err.splitlines() == [
                "pdneg: distribution entry #2: label '\u00e9' cannot be written in stdout's encoding ascii"
            ]
        else:
            assert code == 0
            assert json.loads(raw.getvalue())["results"][1]["label"] == "\u00e9"


# Every error class the package raises; the bare base class is never raised.
RAISED_ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.NegationError) and cls is not errors.NegationError
]


class TestExitCodes:
    @pytest.mark.parametrize("error", RAISED_ERRORS, ids=[cls.__name__ for cls in RAISED_ERRORS])
    def test_exit_code_follows_the_error_hierarchy(self, capsys, tmp_path, monkeypatch, error):
        def fail(dist):
            raise error("injected")

        monkeypatch.setattr("pdneg.cli.entropy", fail)
        code, out, err = run(capsys, "entropy", "--input", write_input(tmp_path, EXAMPLE_LINE))
        usage = issubclass(error, ValueError) or error is errors.ComponentIndexError
        assert code == (2 if usage else 3)
        assert out == ""
        assert err == "pdneg: injected\n"


def parsed(parse, argv):
    """vars() of parse(argv)'s Namespace, or the SystemExit code with what
    was written to stdout and stderr, with the help text 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def parsed_by_the_full_parser(argv):
    return parsed(lambda argv: cli._build_parser().parse_args(argv), argv)


COMMAND_NAMES = ["negate", "check", "iterate", "sweep-alpha", "entropy"]
ARGUMENTS = st.sampled_from([
    *COMMAND_NAMES, "bogus", "yager", "linear:n1=0.1", "-", "--", "-h", "--help", "--he", "--bogus", "--x=y",
    "--format", "--form", "--format=csv", "--form=xml", "json", "csv", "xml", "--pretty", "--pre",
    "--input", "--inp=x.json", "x.json", "--n", "--n=5", "5", "-3", "abc", "--grid", "--grid=11", "11",
    "--tol", "nan", "1e-9", "--seed", "--steps", "--st=2", "--alphas", "--al", "3",
    "--n=-3", "--seed=-1", "--input=-", "--input=a=b", "--pretty=1", "--format=", "", "-1.5",
])


class TestParsing:
    """main parses argv exactly as the full parser's parse_args does: the same
    Namespace, or the same exit code, help, usage and error text."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(ARGUMENTS, max_size=7),
                     st.builds(lambda name, rest: [name, *rest], st.sampled_from(COMMAND_NAMES),
                               st.lists(ARGUMENTS, max_size=6))))
    def test_main_parses_drawn_argv_as_the_full_parser_does(self, argv):
        assert parsed(cli._parse, argv) == parsed_by_the_full_parser(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], *([name, "-h"] for name in COMMAND_NAMES),
        ["check", "yager", "--n", "5", "--input", "x"], ["check", "yager", "--n", "abc"],
        ["negate", "--", "yager"], ["-h", "negate"], ["entropy", "--input"], ["--", "negate", "yager"],
        ["check", "yager", "--n", "5"], ["sweep-alpha", "--form", "csv", "--al", "3", "--n=4"],
        ["check", "yager"], ["check", "negate"], ["negate", "yager", "--n", "5"], ["entropy", "--pretty", "--pretty"],
        ["negate", "--input", "", "yager"], ["sweep-alpha", "--n"], ["iterate", "yager", "--steps", "-2"],
    ])
    def test_main_parses_as_the_full_parser_does(self, argv):
        assert parsed(cli._parse, argv) == parsed_by_the_full_parser(argv)

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of each argparse.ArgumentParser constructed while the test runs."""
        progs = []
        construct = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            construct(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return progs

    def test_a_well_formed_command_line_builds_no_parser(self, capsys, tmp_path, built):
        assert main(["entropy", "--input", write_input(tmp_path, EXAMPLE_LINE)]) == 0
        assert built == []

    def test_an_abbreviated_option_builds_the_commands_parser_alone(self, capsys, tmp_path, built):
        assert main(["entropy", "--inp", write_input(tmp_path, EXAMPLE_LINE)]) == 0
        assert built == ["pdneg entropy"]

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"]])
    def test_help_and_an_unknown_command_build_the_full_parser(self, capsys, built, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == ["pdneg", *(f"pdneg {name}" for name in COMMAND_NAMES)]


class TestModuleEntryPoints:
    # The installed `pdneg` command is the [project.scripts] entry of pyproject.toml.
    @pytest.mark.parametrize("argv,expected", [(["check", "yager", "--n", "5"], 0),
                                               (["check", "tsallis:k=2", "--n", "5"], 1)])
    def test_the_console_script_exits_with_mains_code(self, capsys, monkeypatch, argv, expected):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pdneg"].partition(":")
        console_main = getattr(importlib.import_module(module), name)
        code, out, err = run(capsys, *argv)
        monkeypatch.setattr("sys.argv", ["pdneg", *argv])
        with pytest.raises(SystemExit) as excinfo:
            console_main()
        assert code == excinfo.value.code == expected
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("module", ["pdneg", "pdneg.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", module, "entropy"], input=EXAMPLE_LINE,
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["results"][0]["entropy"] == pytest.approx(0.70, abs=1e-12)
        usage = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True, env=env, timeout=60)
        assert usage.returncode == 2

    def test_a_closed_stdout_pipe_exits_3_with_one_error_line(self, tmp_path):
        path = write_input(tmp_path, f"{EXAMPLE_LINE}\n" * 5000)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        child = subprocess.Popen([sys.executable, "-m", "pdneg", "negate", "yager", "--format", "csv", "--input", path],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            assert child.stdout.readline().startswith("label,")
            child.stdout.close()  # the report is far larger than the pipe holds, so a later write fails
            err = child.stderr.read()
        finally:
            child.wait(timeout=60)
        assert child.returncode == 3
        assert err == "pdneg: [Errno 32] Broken pipe\n"  # so no Traceback and no "Exception ignored"


class TestStartup:
    def test_starting_the_cli_loads_no_module_it_has_no_need_of(self):
        tests = Path(__file__).resolve().parent
        done = subprocess.run([sys.executable, "-I", str(tests / "startup_modules.py"), str(tests.parent / "src")],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "pdneg.cli" in done.stdout.split()

    def test_a_successful_run_loads_no_argparse(self, tmp_path):
        code = (
            "import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from pdneg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['check', 'yager', '--n', '5', '--grid', '11']), main(['entropy', '--input', sys.argv[2]])]\n"
            "print(codes, [name for name in ('argparse', 'gettext', 'locale') if name in sys.modules])\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    main(['check', '-h'])\n"
            "print('argparse' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-I", "-c", code, src, write_input(tmp_path, EXAMPLE_LINE)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[0, 0] []\nTrue\n"
