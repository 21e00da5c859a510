"""Benchmark of the pdneg CLI and library, one workload per run.

    python3 bench/run.py --workload batch-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: pdneg is imported from ``src/`` of
that checkout and nowhere else.  One closed-loop client with no threads runs
the workload's request cycle in this process, whole cycles at a time, until
``--seconds`` of request time have passed and at least three cycles have run.
Each request's stdout goes to a file under ``bench/work/`` and is verified
against independent references outside the timed region.  Request times are
scaled to a nominal machine speed measured with a fixed reference load.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each request
untraced and then traced and reports per-layer metrics from the spans.  The
last line of stdout is one JSON object; the lines before it print each
metric with its unit.  Metric definitions are in ``LAYERS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import LayerStats, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters started to measure setup_s (the median is reported).
SETUP_SAMPLES = 11
#: Passes over the cycle in every untraced run, however long they take, so
#: that each request's median latency is taken over at least this many samples.
MIN_PASSES = 3
#: Percentile of the per-request median latencies reported as latency_tail_ms,
#: per workload: the highest with at least three requests beyond it.
TAIL_PERCENTILE = {"batch-small": 90.0, "wide-pd": 75.0, "diagnostics": 88.0}
#: Passes in every traced run: at least two call pairs per family and size
#: for the scaling ratios.
MIN_TRACED_PASSES = 2
#: Time that one reference_work() call takes at the nominal speed to which
#: request times are scaled: about its time on a 2-vCPU Xeon VM with a quiet host.
NOMINAL_REFERENCE_S = 0.022
#: Request time between two timings of reference_work().
REFERENCE_INTERVAL_S = 0.5
#: No new request starts after this much wall time, whatever --seconds says.
DEADLINE_S = 150.0
#: Problems printed per run.
SHOWN_PROBLEMS = 5

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pdneg.cli
pdneg.cli._build_parser()
elapsed = time.perf_counter() - start
if not pdneg.cli.__file__.startswith(sys.argv[1]):
    sys.exit("pdneg was not imported from " + sys.argv[1])
print(repr(elapsed))
"""


def import_pdneg() -> None:
    """Import pdneg from this checkout's src/, or exit non-zero."""
    if not (SRC / "pdneg" / "__init__.py").is_file():
        sys.exit(f"bench: no pdneg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdneg

    if Path(pdneg.__file__).resolve().parent != SRC / "pdneg":
        sys.exit(f"bench: pdneg was imported from {pdneg.__file__}, not {SRC}")


def setup_command() -> list[str]:
    """A fresh interpreter that prints how long importing pdneg.cli and building its parser took."""
    return [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]


def measure_setup(command: list[str]) -> float:
    done = subprocess.run(command, check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout)


_REFERENCE_VALUES = [i / 997.0 for i in range(500)]


def reference_work() -> float:
    """A fixed pure-Python load like pdneg's: fsum over generators, dict lookups, a JSON round trip."""
    values = _REFERENCE_VALUES
    total = 0.0
    for _ in range(60):
        total += math.fsum(math.sqrt(min(max(c, 0.0), 1.0)) for c in values)
        total += math.fsum(min(max(c, 0.0), 1.0) ** 2.0 for c in values)
        images = {c: (1.0 - c) / (len(values) - 1.0) for c in values}
        total += math.fsum(images[c] for c in values)
    records = [{"label": str(i), "values": values[i:i + 5]} for i in range(0, len(values), 5)]
    for _ in range(3):
        total += len(json.loads(json.dumps(records)))
    return total


def measure_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def execute(request, stdout_path: Path, verified: dict | None = None):
    """Run one request; return (seconds, problem or None).

    The request's stdout goes to ``stdout_path``, as a real invocation's
    would go to a file, so the benchmark holds no copy of it in memory.
    ``verified`` maps ``id(request)`` to the exit code and digest of an
    output of that CLI request that passed verification; an output equal
    to it byte for byte, with the same exit code, is not verified again.
    """
    # Each pdneg invocation starts with no garbage of earlier ones.
    gc.collect()
    err = io.StringIO()
    with stdout_path.open("w+") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                result = request.call()
                out.flush()
            except (Exception, SystemExit) as exc:  # a crash fails the request, not the run
                elapsed = perf_counter() - start
                return elapsed, f"raised {''.join(traceback.format_exception_only(exc)).strip()}"
            elapsed = perf_counter() - start
        if "Traceback" in err.getvalue():
            return elapsed, "traceback on stderr"
        outcome = None
        if verified is not None and isinstance(result, int):
            with stdout_path.open("rb") as written:
                outcome = (result, hashlib.file_digest(written, "blake2b").digest())
            if verified.get(id(request)) == outcome:
                return elapsed, None
        out.seek(0)
        try:
            request.check(result, out)
        except Exception as exc:  # any error while verifying fails the request
            return elapsed, f"{type(exc).__name__}: {exc}"
    if outcome is not None:
        verified[id(request)] = outcome
    return elapsed, None


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count of samples beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """Counts and problems of one benchmark run."""

    def __init__(self, cycle, workdir: Path):
        self.cycle = cycle
        self.stdout_path = workdir / "stdout"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict = {}
        self.started = perf_counter()

    def one(self, request) -> tuple[float, bool]:
        elapsed, problem = execute(request, self.stdout_path, self.verified)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < SHOWN_PROBLEMS:
                self.problems.append(f"{request.label} {request.shape}: {problem}")
        return elapsed, problem is None

    def expired(self) -> bool:
        return perf_counter() - self.started > DEADLINE_S


def scale_to_nominal(timed: list[tuple[int, float, int]], references: list[float], size: int) -> list[list[float]]:
    """Request times scaled to the nominal speed, as ``samples[i][p]``: request i's time in pass p.

    ``timed`` holds (position in the cycle, seconds, index in ``references``
    of the reference time taken last before the request).  Each time is
    scaled by NOMINAL_REFERENCE_S over the mean of that reference time and
    the next one, taken after the request.
    """
    samples: list[list[float]] = [[] for _ in range(size)]
    for number, elapsed, before in timed:
        reference = (references[before] + references[before + 1]) / 2.0
        samples[number].append(elapsed * NOMINAL_REFERENCE_S / reference)
    return samples


def summarise(samples: list[list[float]], workload: str, completed: float) -> tuple[dict, str]:
    """Latency metrics from ``samples[i][p]``, request i's time in pass p.

    Each request's latency is its median over the run's passes, so a slow
    spell of the machine that covers fewer than half of the passes does not
    move it; p50 and the tail are nearest-rank percentiles over the cycle's
    requests, each weighted once.  requests_per_s is ``completed``, the
    share of requests that did not fail, of one pass over the cycle at those
    medians.
    """
    medians = sorted(statistics.median(times) for times in samples)
    passes = min(len(times) for times in samples)
    p50, _ = percentile(medians, 50.0)
    q = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(medians, q)
    note = (f"latency_tail_ms is p{q:g} of {len(medians)} per-request medians, with {beyond} requests "
            f"({beyond * passes} samples) beyond it")
    metrics = {
        "requests_per_s": (completed * len(medians) / sum(medians), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
    }
    return metrics, note


def run_untraced(run: Run, workload: str, seconds: float) -> dict:
    # A shared host has slow spells, from seconds to minutes long, in which
    # all pure-Python code runs up to twice as slowly.  reference_work() is
    # timed every REFERENCE_INTERVAL_S of request time, and right after each
    # setup_s sample, and request and setup times are scaled by it
    # (scale_to_nominal), so that they read at one nominal speed of the machine.
    # setup_s samples are spread over the run, between requests, so that a
    # short burst of load on the machine cannot move all of them at once.
    command = setup_command()
    measure_setup(command)  # writes the bytecode caches
    references = [measure_reference()]
    timed = []  # (position in the cycle, seconds, index of the reference before it)
    setup_timed = []  # the same for setup_s samples, at position 0

    def sample_setup() -> None:
        setup_timed.append((0, measure_setup(command), len(references) - 1))
        references.append(measure_reference())

    busy = since_reference = 0.0
    passes = 0
    while True:
        for number, request in enumerate(run.cycle):
            if len(setup_timed) < SETUP_SAMPLES and busy >= len(setup_timed) * seconds / SETUP_SAMPLES:
                sample_setup()
                since_reference = 0.0
            if since_reference >= REFERENCE_INTERVAL_S:
                references.append(measure_reference())
                since_reference = 0.0
            elapsed, _ = run.one(request)
            timed.append((number, elapsed, len(references) - 1))
            busy += elapsed
            since_reference += elapsed
        passes += 1
        if (busy >= seconds and passes >= MIN_PASSES) or run.expired():
            break
    references.append(measure_reference())
    while len(setup_timed) < SETUP_SAMPLES:
        sample_setup()
    samples = scale_to_nominal(timed, references, len(run.cycle))
    latency, note = summarise(samples, workload, 1.0 - run.failed / run.attempted)
    print(f"# {passes} passes over {len(run.cycle)} requests in {busy:.1f} s of request time; {note}")
    print(f"# reference_work took {statistics.median(references) * 1e3:.2f} ms (median of {len(references)}; "
          f"{min(references) * 1e3:.2f}-{max(references) * 1e3:.2f}); nominal {NOMINAL_REFERENCE_S * 1e3:g} ms")
    return {
        "setup_s": (statistics.median(scale_to_nominal(setup_timed, references, 1)[0]), "s"),
        **latency,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    # Each request runs untraced and then traced, back to back, so that
    # trace.overhead compares the two under the same load on the machine.
    tracer = Tracer()
    stats = LayerStats()
    kept: list = []
    untraced = traced = 0.0
    passes = 0
    while True:
        for number, request in enumerate(run.cycle):
            untraced += run.one(request)[0]
            with tracer:
                tracer.request = passes * len(run.cycle) + number
                traced += run.one(request)[0]
            spans = tracer.drain()
            stats.add(spans)
            if passes == 0:
                kept.extend(spans)
        passes += 1
        if (untraced + traced >= seconds and passes >= MIN_TRACED_PASSES) or run.expired():
            break
    spans_path.parent.mkdir(exist_ok=True)
    with gzip.open(spans_path, "wt", compresslevel=1) as handle:
        for span in kept:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    print(f"# {passes} passes over {len(run.cycle)} requests, each run untraced and traced; "
          f"{len(kept)} spans of the first pass written to {spans_path}")
    metrics = stats.metrics(passes)
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_pdneg()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(workloads.build(args.workload, args.seed, workdir), workdir)
        # A real pdneg process does not hold the benchmark's inputs, so keep
        # them out of the garbage collector's reach.
        gc.collect()
        gc.freeze()
        if args.trace:
            spans_path = BENCH / "out" / f"spans-{args.workload}.jsonl.gz"
            metrics = run_traced(run, args.seconds, spans_path)
        else:
            metrics = run_untraced(run, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(f"# failed_share {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
