"""Command-line behaviour: commands, formats, exit codes, round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import EXAMPLE_PD
from pdneg import entropy, errors
from pdneg.cli import main

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

    def test_csv_round_trips(self, capsys, tmp_path):
        path = write_input(tmp_path, EXAMPLE_LINE)
        _, json_out, _ = run(capsys, "entropy", "--input", path)
        _, csv_out, _ = run(capsys, "entropy", "--input", path, "--format", "csv")
        (row,) = list(csv.DictReader(io.StringIO(csv_out)))
        assert float(row["entropy"]) == json.loads(json_out)["results"][0]["entropy"]


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
        path = write_input(tmp_path, EXAMPLE_LINE)
        code, out, err = run(capsys, *argv, "--input", path)
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

    def test_integer_values_are_numbers(self, capsys, tmp_path):
        path = write_input(tmp_path, json.dumps({"distributions": [{"label": "a", "values": [1, 0]}]}))
        code, out, _ = run(capsys, "entropy", "--input", path)
        assert code == 0
        assert json.loads(out)["results"][0]["entropy"] == 0.0


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


class TestModuleEntryPoints:
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
