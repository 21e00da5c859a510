"""The benchmark's workloads: seeded inputs and a fixed cycle of requests.

A workload is a list of :class:`Request` run in order, again and again, by
one closed-loop client.  The seed chooses the probability values (and the
``check --seed``); the commands, formats, document sizes and distribution
lengths are fixed by position, so every seed sends the same mix at the same
sizes.  Why each workload exists is recorded in ``LAYERS.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TextIO

import pdneg.analysis as analysis
import pdneg.cli as cli
import pdneg.core as core
import pdneg.negators as negators

import verify

@dataclass(frozen=True)
class Request:
    """One request: ``call`` runs it, ``check`` verifies its outcome.

    ``check(result, stdout)`` raises :class:`verify.Mismatch` on a wrong
    outcome; ``result`` is the exit code for a CLI request and the returned
    object for a library request, and ``stdout`` is a text stream holding
    what the request printed.  ``label`` names the request's place in
    the mix and ``shape`` its sizes; both are independent of the seed.
    ``data`` is the request's generated input, which the seed chooses.
    """

    label: str
    shape: tuple
    call: Callable[[], object]
    check: Callable[[object, TextIO], None]
    data: tuple = ()


def _cli(argv: list[str]) -> Callable[[], int]:
    # cli.main is looked up per call so the tracer's wrapper is used when installed.
    return lambda: cli.main(argv)


def _expect_code(code: int, want: int) -> None:
    if code != want:
        raise verify.Mismatch(f"exit code {code!r}, expected {want}")


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

#: Lengths of successive distributions in a batch document: 3..8, mostly 5.
BATCH_LENGTHS = (5, 5, 3, 5, 8, 5, 5, 4, 5, 6, 5, 5, 7, 5)
#: Every 10th distribution from offset 2 has a tie, from 5 a zero, from 8 is a point mass.
TIE, ZERO, POINT = 2, 5, 8


def batch_distribution(rng: random.Random, index: int) -> tuple[float, ...]:
    n = BATCH_LENGTHS[index % len(BATCH_LENGTHS)]
    kind = index % 10
    if kind == POINT:
        hot = rng.randrange(n)
        return tuple(1.0 if i == hot else 0.0 for i in range(n))
    draws = [rng.expovariate(1.0) for _ in range(n)]
    if kind == TIE:
        draws[rng.randrange(1, n)] = draws[0]
    elif kind == ZERO:
        draws[rng.randrange(n)] = 0.0
    total = sum(draws)
    return tuple(d / total for d in draws)


def write_document(path: Path, labelled: list[tuple[str, tuple[float, ...]]], as_json: bool) -> None:
    """Write a JSON document, or a text document with alternating separators."""
    if as_json:
        entries = [{"label": label, "values": list(values)} for label, values in labelled]
        path.write_text(json.dumps({"distributions": entries}))
    else:
        lines = [(" " if i % 2 else ", ").join(repr(v) for v in values) for i, (_, values) in enumerate(labelled)]
        path.write_text("\n".join(lines) + "\n")


def _document(workdir: Path, name: str, rng: random.Random, count: int, as_json: bool):
    values = [batch_distribution(rng, i) for i in range(count)]
    if as_json:
        labelled = [(f"{name}-{i}", v) for i, v in enumerate(values)]
    else:
        labelled = [(f"pd{i + 1}", v) for i, v in enumerate(values)]
    path = workdir / f"{name}.{'json' if as_json else 'txt'}"
    write_document(path, labelled, as_json)
    return str(path), labelled


# ---------------------------------------------------------------------------
# batch-small
# ---------------------------------------------------------------------------

#: Distributions per small document (a few hundred each).
SMALL_DOCUMENTS = (240, 310, 280, 360, 220, 400, 330, 260)
#: Distributions per large document.
LARGE_DOCUMENT = 10_000
#: ``negate`` descriptors; N(1) = 0.1 is admissible at every batch length (1/8 >= 0.1).
BATCH_NEGATORS = (
    ("yager",),
    ("tsallis", 2.0),
    ("linear_n1", 0.1),
    ("mix", ((0.5, ("yager",)), (0.5, ("tsallis", 2.0)))),
)
ITERATE_STEPS = 3
SWEEP_ALPHAS = 11


def _report_request(argv, fmt, expected, label, labelled) -> Request:
    def check(code, stdout):
        _expect_code(code, 0)
        verify.report_output(stdout, fmt, expected)

    shape = (len(labelled), tuple(sorted({len(values) for _, values in labelled})))
    return Request(label, shape, _cli(argv + ["--format", fmt]), check,
                   tuple(values for _, values in labelled))


def batch_command(command: str, document, fmt: str) -> Request:
    """``command`` (a negate descriptor, entropy, iterate or sweep-alpha) on one document."""
    path, labelled = document
    io_args = ["--input", path]
    if command == "entropy":
        return _report_request(["entropy"] + io_args, fmt, verify.entropy_report(labelled),
                               f"entropy {fmt}", labelled)
    if command == "iterate":
        argv = ["iterate", "yager", "--steps", str(ITERATE_STEPS)] + io_args
        return _report_request(argv, fmt, verify.iterate_report(("yager",), labelled, ITERATE_STEPS),
                               f"iterate {fmt}", labelled)
    if command == "sweep-alpha":
        argv = ["sweep-alpha", "--alphas", str(SWEEP_ALPHAS)] + io_args
        return _report_request(argv, fmt, verify.sweep_report(labelled, SWEEP_ALPHAS),
                               f"sweep-alpha {fmt}", labelled)
    spec = next(spec for spec in BATCH_NEGATORS if verify.spec_text(spec) == command)
    return _report_request(["negate", command] + io_args, fmt, verify.negate_report(spec, labelled),
                           f"negate {command} {fmt}", labelled)


def batch_small(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    small = [_document(workdir, f"small{i}", rng, count, as_json=i % 2 == 0)
             for i, count in enumerate(SMALL_DOCUMENTS)]
    large_json = _document(workdir, "large-json", rng, LARGE_DOCUMENT, as_json=True)
    large_text = _document(workdir, "large-text", rng, LARGE_DOCUMENT, as_json=False)
    commands = [verify.spec_text(spec) for spec in BATCH_NEGATORS] + ["entropy", "iterate", "sweep-alpha"]
    requests = []
    for slot in range(2 * len(commands)):
        command = commands[slot % len(commands)]
        for fmt in ("json", "csv"):
            requests.append(batch_command(command, small[len(requests) % len(small)], fmt))
    requests.append(batch_command("entropy", large_json, "json"))
    requests.append(batch_command("yager", large_text, "csv"))
    return requests


# ---------------------------------------------------------------------------
# wide-pd
# ---------------------------------------------------------------------------

WIDE_SIZES = (1000, 2000)
#: pd-dependent descriptors (Tsallis at k = 2 and, in the mixture, k = 3), each
#: run at both sizes; yager and linear:alpha=0.5 are the linear controls.
WIDE_NEGATORS = (
    ("tsallis", 2.0),
    ("rootsum",),
    ("mix", ((0.5, ("yager",)), (0.5, ("tsallis", 3.0)))),
    ("yager",),
    ("linear", 0.5),
)


def decreasing(p: float) -> float:
    """The generator of the library requests: decreasing on [0, 1], positive below 1."""
    return (1.0 - p) * (1.0 - p)


def _generator_request(dist) -> Request:
    want = verify.reference(("generator", decreasing), dist.values)

    def check(result, stdout):
        verify.match(list(result.values), want, "from_generator")

    return Request("from_generator", (len(dist),), lambda: negators.from_generator(decreasing, dist, "decreasing"),
                   check, (dist.values,))


def wide_pd(seed: int, workdir: Path) -> list[Request]:
    # Each descriptor runs at both sizes back to back, so that the scaling
    # ratios compare calls made under the same load on the machine.
    documents = []
    for n in WIDE_SIZES:
        dist = analysis.sample_distributions(n, 1, seed)[0]
        path = workdir / f"wide{n}.json"
        labelled = [(f"wide{n}", dist.values)]
        write_document(path, labelled, as_json=True)
        documents.append((dist, str(path), labelled))
    requests = []
    for spec in WIDE_NEGATORS:
        text = verify.spec_text(spec)
        for _, path, labelled in documents:
            requests.append(_report_request(["negate", text, "--input", path], "json",
                                            verify.negate_report(spec, labelled), f"negate {text}", labelled))
    requests.extend(_generator_request(dist) for dist, _, _ in documents)
    return requests


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

#: Grid sizes swept at each checked length.
CHECK_GRIDS = {5: (1001,), 1000: (1001, 10001)}
PAIR_SIZES = (1000, 2000)


def check_negators(n: int):
    """Descriptors checked at length n: the linear family first, then pd-dependent ones."""
    n1 = 0.4 / n
    n0 = 1.0 / n + 0.3 * (1.0 / (n - 1) - 1.0 / n)
    return (
        ("yager",),
        ("uniform",),
        ("linear", 0.3),
        ("linear_n1", n1),
        ("linear_n0", n0),
        ("mix", ((0.3, ("linear", 0.2)), (0.7, ("yager",)))),
        ("tsallis", 2.0),
        ("rootsum",),
        ("mix", ((0.5, ("yager",)), (0.5, ("tsallis", 2.0)))),
    )


def _check_request(spec, n: int, grid: int, seed: int, fmt: str) -> Request:
    text = verify.spec_text(spec)
    argv = ["check", text, "--n", str(n), "--grid", str(grid), "--seed", str(seed), "--format", fmt]

    def check(code, stdout):
        _expect_code(code, 0 if verify.is_linear(spec) else 1)
        verify.check_output(stdout, fmt, spec, n, grid, seed)

    return Request(f"check {spec[0]} {fmt}", (n, grid), _cli(argv), check, (seed,))


def _pair_request(dist, spec) -> Request:
    image = core.Distribution(tuple(verify.reference(spec, dist.values)))

    def check(report, stdout):
        if not report.passed or report.violations:
            raise verify.Mismatch(f"negation-pair reported {len(report.violations)} violations, expected none")

    return Request(f"check_negation_pair {spec[0]}", (len(dist),),
                   lambda: analysis.check_negation_pair(dist, image), check, (dist.values,))


def diagnostics(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for n, grids in CHECK_GRIDS.items():
        for grid in grids:
            for spec in check_negators(n):
                # Only the linear family sweeps the grid; pd-dependent
                # descriptors are checked once per length.
                if verify.is_linear(spec) or grid == grids[0]:
                    fmt = "json" if len(requests) % 2 == 0 else "csv"
                    requests.append(_check_request(spec, n, grid, rng.randrange(2**31), fmt))
    for n, spec in zip(PAIR_SIZES, (("yager",), ("tsallis", 2.0))):
        requests.append(_pair_request(analysis.sample_distributions(n, 1, rng.randrange(2**31))[0], spec))
    return requests


WORKLOADS = {"batch-small": batch_small, "wide-pd": wide_pd, "diagnostics": diagnostics}


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """The request cycle of ``workload``; input documents are written to ``workdir``."""
    return WORKLOADS[workload](seed, workdir)
