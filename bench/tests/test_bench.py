"""Tests of the benchmark itself: verification, tracing and seeding.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys

import pytest

import run
import tracing
import verify
import workloads


def _output(request) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = request.call()
    return result, out.getvalue()


def _check(request, result, text: str) -> None:
    request.check(result, io.StringIO(text))


@pytest.fixture
def document(tmp_path):
    return workloads._document(tmp_path, "doc", random.Random(7), 12, as_json=True)


@pytest.mark.parametrize("command", ["tsallis:k=2.0", "entropy", "iterate", "sweep-alpha"])
def test_verifier_accepts_correct_json_and_rejects_a_perturbed_value(document, command):
    request = workloads.batch_command(command, document, "json")
    code, stdout = _output(request)
    _check(request, code, stdout)

    payload = json.loads(stdout)
    result = payload["results"][3]
    key = {"entropy": "entropy", "iterate": "trace"}.get(command, "output")
    if key == "trace":
        result["trace"][2]["values"][1] += 1e-9
    elif key == "entropy":
        result["entropy"] += 1e-9
    else:
        result["output"][1] += 1e-9
    with pytest.raises(verify.Mismatch):
        _check(request, code, json.dumps(payload))


def test_verifier_rejects_a_perturbed_csv_cell_and_a_missing_row(document):
    request = workloads.batch_command("yager", document, "csv")
    code, stdout = _output(request)
    _check(request, code, stdout)

    rows = list(csv.reader(io.StringIO(stdout)))
    rows[5][3] = repr(float(rows[5][3]) + 1e-9)
    perturbed = io.StringIO()
    csv.writer(perturbed, lineterminator="\n").writerows(rows)
    with pytest.raises(verify.Mismatch):
        _check(request, code, perturbed.getvalue())
    with pytest.raises(verify.Mismatch):
        _check(request, code, stdout.rsplit("\n", 2)[0] + "\n")


def test_verifier_rejects_a_wrong_exit_code(document):
    request = workloads.batch_command("entropy", document, "json")
    code, stdout = _output(request)
    with pytest.raises(verify.Mismatch):
        _check(request, 3, stdout)


@pytest.mark.parametrize("spec, code", [(("yager",), 0), (("tsallis", 2.0), 1)])
def test_check_requests_expect_the_theory_verdict(spec, code):
    request = workloads._check_request(spec, 5, 1001, 3, "json")
    result, stdout = _output(request)
    assert result == code
    _check(request, result, stdout)
    with pytest.raises(verify.Mismatch):
        _check(request, 1 - code, stdout)
    flipped = json.loads(stdout)
    flipped["passed"] = not flipped["passed"]
    with pytest.raises(verify.Mismatch):
        _check(request, code, json.dumps(flipped))


def test_a_crash_counts_as_a_failed_request(tmp_path):
    def crash():
        raise AttributeError("boom")

    request = workloads.Request("crash", (), crash, lambda result, stdout: None)
    elapsed, problem = run.execute(request, tmp_path / "stdout")
    assert problem is not None and "AttributeError" in problem


def test_an_output_is_verified_again_unless_it_repeats_a_verified_one(tmp_path):
    printed = iter(["ok", "ok", "wrong", "ok"])
    checks = []

    def call():
        print(next(printed))
        return 0

    def check(code, stdout):
        checks.append(code)
        if stdout.read() != "ok\n":
            raise verify.Mismatch("wrong output")

    request = workloads.Request("print", (), call, check)
    verified = {}
    problems = [run.execute(request, tmp_path / "stdout", verified)[1] for _ in range(4)]
    assert problems[0] is None and problems[1] is None and problems[3] is None
    assert "wrong output" in problems[2]
    assert len(checks) == 2


def test_request_times_are_scaled_by_the_reference_around_them():
    nominal = run.NOMINAL_REFERENCE_S
    references = [nominal, nominal, 3 * nominal]
    timed = [(0, 1.0, 0), (1, 2.0, 0), (0, 4.0, 1)]
    samples = run.scale_to_nominal(timed, references, 2)
    assert samples == [[1.0, 2.0], [2.0]]


def test_latency_metrics_are_percentiles_of_per_request_medians():
    samples = [[0.001 * (i + 1), 0.001 * (i + 1), 1.0] for i in range(12)]
    metrics, note = run.summarise(samples, "wide-pd", completed=1.0)
    assert metrics["latency_p50_ms"] == (pytest.approx(6.0), "ms")
    assert metrics["latency_tail_ms"] == (pytest.approx(9.0), "ms")
    assert metrics["requests_per_s"] == (pytest.approx(12 / 0.078), "1/s")
    assert "3 requests (9 samples) beyond" in note


def _bindings():
    return {(name, key): value
            for name in tracing.MODULES
            for key, value in vars(sys.modules[name]).items() if callable(value)}


def test_traced_run_removes_every_wrapper(tmp_path, document):
    before = _bindings()
    cycle = [workloads.batch_command("iterate", document, "json"),
             workloads._check_request(("linear", 0.3), 5, 101, 1, "csv")]
    metrics = run.run_traced(run.Run(cycle, tmp_path), 0.0, tmp_path / "spans.jsonl.gz")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert metrics["cli.main.calls"] == (2.0, "count")
    assert metrics["analysis.iterate_negation.calls"] == (float(len(document[1])), "count")
    assert metrics["analysis.linearity_test.calls"] == (1.0, "count")
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_tracer_wraps_every_binding_of_a_function():
    import pdneg.analysis
    import pdneg.cli
    import pdneg.negators

    original = pdneg.negators.apply_transformation
    with tracing.Tracer():
        wrapped = pdneg.negators.apply_transformation
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert pdneg.cli.apply_transformation is wrapped
        assert pdneg.analysis.apply_transformation is wrapped
    assert pdneg.negators.apply_transformation is original


def test_self_time_subtracts_direct_children():
    spans = [
        (0, 0, -1, "cli.main", 0.0, 10.0, None),
        (0, 1, 0, "negators.apply_transformation", 1.0, 7.0, ("tsallis", 1000)),
        (0, 2, 1, "negators.evaluate", 2.0, 3.0, None),
        (0, 3, 1, "negators.evaluate", 4.0, 6.0, None),
    ]
    stats = tracing.LayerStats()
    stats.add(spans)
    metrics = stats.metrics(passes=1)
    assert metrics["cli.main.self_s"] == (4.0, "s")
    assert metrics["negators.apply_transformation.self_s"] == (3.0, "s")
    assert metrics["negators.evaluate.self_s"] == (3.0, "s")
    assert metrics["negators.apply.tsallis.total_s"] == (6.0, "s")
    assert metrics["negators.evaluate.per_component"] == (2 / 1000, "ratio")


def test_scaling_is_the_median_ratio_of_call_pairs():
    spans = []
    for index, (n, duration) in enumerate([(1000, 1.0), (2000, 4.0), (1000, 1.0), (2000, 2.0), (1000, 2.0), (2000, 10.0)]):
        spans.append((0, index, -1, "negators.apply_transformation", 0.0, duration, ("rootsum", n)))
    stats = tracing.LayerStats()
    stats.add(spans)
    metrics = stats.metrics(passes=1)
    assert metrics["negators.apply.rootsum.scaling"] == (4.0, "ratio")
    assert metrics["negators.apply.tsallis.scaling"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_new_seed_changes_inputs_but_not_the_mix_or_sizes(tmp_path, workload):
    for name in ("one", "two", "again"):
        (tmp_path / name).mkdir()
    one = workloads.build(workload, 1, tmp_path / "one")
    two = workloads.build(workload, 2, tmp_path / "two")
    assert [(r.label, r.shape) for r in one] == [(r.label, r.shape) for r in two]
    assert [r.data for r in one] != [r.data for r in two]
    again = workloads.build(workload, 1, tmp_path / "again")
    assert [r.data for r in again] == [r.data for r in one]


def test_percentile_is_nearest_rank_with_the_count_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert run.percentile(samples, 95.0) == (190.0, 10)
    assert run.percentile(samples, 50.0) == (100.0, 100)
