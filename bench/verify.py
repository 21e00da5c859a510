"""Independent references for pdneg's outputs, in plain standard-library Python.

Nothing here imports pdneg: every expected value comes from the closed forms
of the paper, so a fault in the package cannot hide in its own reference.

A negator is described by a tuple:

``("uniform",)``, ``("yager",)``, ``("linear", alpha)``,
``("linear_n1", N(1))``, ``("linear_n0", N(0))``, ``("tsallis", k)``,
``("rootsum",)``, ``("generator", fn)`` and
``("mix", ((w1, spec1), (w2, spec2), ...))``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, TextIO

#: Absolute tolerance on values, entropies and distances (as in tests/).
TOL = 1e-12
#: Absolute tolerance on a recovered linear alpha (as in tests/).
ALPHA_TOL = 1e-9

LINEAR_KINDS = ("uniform", "yager", "linear", "linear_n1", "linear_n0")


class Mismatch(Exception):
    """An output differs from its reference."""


# ---------------------------------------------------------------------------
# Descriptors: text form and reference values
# ---------------------------------------------------------------------------

def spec_text(spec) -> str:
    """The CLI descriptor for ``spec``."""
    kind = spec[0]
    if kind in ("uniform", "yager", "rootsum"):
        return kind
    if kind == "linear":
        return f"linear:alpha={spec[1]!r}"
    if kind == "linear_n1":
        return f"linear:n1={spec[1]!r}"
    if kind == "linear_n0":
        return f"linear:n0={spec[1]!r}"
    if kind == "tsallis":
        return f"tsallis:k={spec[1]!r}"
    if kind == "mix":
        return "mix:[" + ",".join(f"{w!r}*{spec_text(inner)}" for w, inner in spec[1]) + "]"
    raise ValueError(f"no text form for {kind}")


def is_linear(spec) -> bool:
    """True for the linear family: uniform, Yager, linear and mixtures of them."""
    if spec[0] == "mix":
        return all(is_linear(inner) for _, inner in spec[1])
    return spec[0] in LINEAR_KINDS


def alpha_of(spec, n: int) -> float:
    """The alpha of a linear-family spec at length n."""
    kind = spec[0]
    if kind == "uniform":
        return 1.0
    if kind == "yager":
        return 0.0
    if kind == "linear":
        return spec[1]
    if kind == "linear_n1":
        return n * spec[1]
    if kind == "linear_n0":
        return n * (1.0 - (n - 1) * spec[1])
    if kind == "mix":
        return math.fsum(w * alpha_of(inner, n) for w, inner in spec[1])
    raise ValueError(f"{kind} is not in the linear family")


def reference(spec, values) -> list[float]:
    """The image of a distribution under ``spec``."""
    n = len(values)
    kind = spec[0]
    if kind in LINEAR_KINDS:
        alpha = alpha_of(spec, n)
        return [alpha / n + (1.0 - alpha) * (1.0 - p) / (n - 1) for p in values]
    if kind == "tsallis":
        k = spec[1]
        powers = [p ** k for p in values]
        normaliser = n - math.fsum(powers)
        return [(1.0 - x) / normaliser for x in powers]
    if kind == "rootsum":
        roots = [math.sqrt(p) for p in values]
        total = math.fsum(roots)
        return [r / total for r in roots]
    if kind == "generator":
        weights = [spec[1](p) for p in values]
        total = math.fsum(weights)
        return [w / total for w in weights]
    if kind == "mix":
        images = [(w, reference(inner, values)) for w, inner in spec[1]]
        return [math.fsum(w * image[i] for w, image in images) for i in range(n)]
    raise ValueError(f"unknown spec {kind}")


def entropy(values) -> float:
    return math.fsum(p - p * p for p in values)


def distance_to_uniform(values) -> float:
    u = 1.0 / len(values)
    return max(abs(v - u) for v in values)


# ---------------------------------------------------------------------------
# Expected reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """What a report command should print.

    ``results`` and ``rows`` build the expected JSON results and CSV rows one
    at a time, so verifying a large report holds no second copy of it.
    """

    head: dict
    results: Callable[[], Iterator[dict]]
    header: list[str]
    rows: Callable[[], Iterator[list]]


def _images(spec, labelled):
    for label, values in labelled:
        image = reference(spec, values)
        yield label, values, image, entropy(values), entropy(image)


def negate_report(spec, labelled) -> Expected:
    def results():
        for label, values, image, before, after in _images(spec, labelled):
            yield {"label": label, "n": len(values), "input": list(values), "output": image,
                   "input_entropy": before, "output_entropy": after, "entropy_delta": after - before}

    def rows():
        for label, values, image, before, after in _images(spec, labelled):
            for index, (p, q) in enumerate(zip(values, image), start=1):
                yield [label, index, p, q, before, after, after - before]

    header = ["label", "index", "input", "output", "input_entropy", "output_entropy", "entropy_delta"]
    return Expected({"command": "negate"}, results, header, rows)


def entropy_report(labelled) -> Expected:
    def results():
        for label, values in labelled:
            yield {"label": label, "n": len(values), "entropy": entropy(values)}

    def rows():
        for label, values in labelled:
            yield [label, len(values), entropy(values)]

    return Expected({"command": "entropy"}, results, ["label", "n", "entropy"], rows)


def _traces(spec, labelled, steps):
    for label, values in labelled:
        trace = [list(values)]
        for _ in range(steps):
            trace.append(reference(spec, trace[-1]))
        yield label, [(current, distance_to_uniform(current), entropy(current)) for current in trace]


def iterate_report(spec, labelled, steps: int) -> Expected:
    def results():
        for label, trace in _traces(spec, labelled, steps):
            entries = [{"step": step, "values": current, "distance_to_uniform": distance, "entropy": h}
                       for step, (current, distance, h) in enumerate(trace)]
            yield {"label": label, "n": len(trace[0][0]), "trace": entries}

    def rows():
        for label, trace in _traces(spec, labelled, steps):
            for step, (current, distance, h) in enumerate(trace):
                for index, value in enumerate(current, start=1):
                    yield [label, step, index, value, distance, h]

    header = ["label", "step", "index", "value", "distance_to_uniform", "entropy"]
    return Expected({"command": "iterate"}, results, header, rows)


def sweep_report(labelled, count: int) -> Expected:
    alphas = [i / (count - 1) for i in range(count)]

    def images():
        for alpha in alphas:
            for item in _images(("linear", alpha), labelled):
                yield (alpha, *item)

    def results():
        for alpha, label, _, image, before, after in images():
            yield {"alpha": alpha, "label": label, "output": image,
                   "input_entropy": before, "output_entropy": after, "entropy_delta": after - before}

    def rows():
        for alpha, label, _, image, before, after in images():
            for index, value in enumerate(image, start=1):
                yield [alpha, label, index, value, before, after, after - before]

    header = ["alpha", "label", "index", "output", "input_entropy", "output_entropy", "entropy_delta"]
    return Expected({"command": "sweep-alpha", "alphas": alphas}, results, header, rows)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _close(got, want, where: str) -> None:
    if not (isinstance(got, (int, float)) and not isinstance(got, bool)) or abs(got - want) > TOL:
        raise Mismatch(f"{where}: got {got!r}, expected {want!r} within {TOL}")


def match(got, want, where: str = "$") -> None:
    """Require ``got`` to contain ``want``: equal keys and lengths, floats within TOL.

    Keys of ``got`` that ``want`` does not name are allowed, so a report may
    gain fields without failing verification.
    """
    if isinstance(want, float):
        _close(got, want, where)
    elif isinstance(want, dict):
        if not isinstance(got, dict):
            raise Mismatch(f"{where}: expected an object, got {type(got).__name__}")
        for key, value in want.items():
            if key not in got:
                raise Mismatch(f"{where}: missing key {key!r}")
            match(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise Mismatch(f"{where}: expected a list of {len(want)}, got {got!r:.80}")
        for index, (g, w) in enumerate(zip(got, want)):
            match(g, w, f"{where}[{index}]")
    elif got != want or type(got) is not type(want):
        raise Mismatch(f"{where}: got {got!r}, expected {want!r}")


def _cell(text: str, want, where: str) -> None:
    if isinstance(want, bool):
        ok = text == str(want).lower()
    elif want is None:
        ok = text == ""
    elif isinstance(want, int):
        ok = text == str(want)
    elif isinstance(want, float):
        try:
            value = float(text)
        except ValueError:
            raise Mismatch(f"{where}: {text!r} is not a number") from None
        _close(value, want, where)
        return
    else:
        ok = text == want
    if not ok:
        raise Mismatch(f"{where}: got {text!r}, expected {want!r}")


def match_csv(stream: TextIO, header: list[str], rows: Iterable[list]) -> None:
    """Require the CSV on ``stream`` to hold exactly ``header`` and ``rows`` (floats within TOL)."""
    reader = csv.reader(stream)
    got_header = next(reader, None)
    if got_header != header:
        raise Mismatch(f"csv header {got_header!r}, expected {header!r}")
    for number, (got, want) in enumerate(zip_longest(reader, rows), start=1):
        if got is None or want is None:
            raise Mismatch(f"csv row {number}: {'missing' if got is None else 'unexpected'}")
        if len(got) != len(want):
            raise Mismatch(f"csv row {number}: {len(got)} cells, expected {len(want)}")
        for column, (cell, value) in enumerate(zip(got, want)):
            _cell(cell, value, f"csv row {number} {header[column]}")


def _json(stream: TextIO):
    try:
        return json.load(stream)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None


def report_output(stream: TextIO, fmt: str, expected: Expected) -> None:
    """Compare a report command's output, read from ``stream``, with what it should print."""
    if fmt == "csv":
        match_csv(stream, expected.header, expected.rows())
        return
    document = _json(stream)
    match(document, expected.head)
    results = document.get("results")
    if not isinstance(results, list):
        raise Mismatch("$.results: missing or not a list")
    for index, (got, want) in enumerate(zip_longest(results, expected.results())):
        if got is None or want is None:
            raise Mismatch(f"$.results[{index}]: {'missing' if got is None else 'unexpected'}")
        match(got, want, f"$.results[{index}]")


def check_output(stream: TextIO, fmt: str, spec, n: int, grid: int, seed: int) -> None:
    """Compare a ``check`` report with the verdicts the theory predicts.

    Linear-family descriptors pass every check and the linearity test
    recovers their alpha; pd-dependent ones keep the uniform fixed point but
    fail the independence probe, so the whole check fails.
    """
    linear = is_linear(spec)
    expected = {"fixed-point": True, "independence-probe": linear}
    if linear:
        expected.update({"functional-equation": True, "boundary-range": True})
    if fmt == "csv":
        table = list(csv.reader(stream))
        if not table or table[0][:3] != ["check_name", "skipped", "passed"]:
            raise Mismatch(f"check csv header {table[:1]!r}")
        verdicts = {row[0]: row[2] for row in table[1:] if row[1] == "false"}
        for name, passed in expected.items():
            if verdicts.get(name) != str(passed).lower():
                raise Mismatch(f"check {name}: got {verdicts.get(name)!r}, expected {passed}")
        if linear and verdicts.get("linearity") != "true":
            raise Mismatch(f"linearity: got {verdicts.get('linearity')!r}, expected true")
        return
    document = _json(stream)
    match(document, {"command": "check", "n": n, "grid_size": grid, "seed": seed, "passed": linear})
    verdicts = {entry["check_name"]: entry["passed"] for entry in document["checks"] if not entry["skipped"]}
    for name, passed in expected.items():
        if verdicts.get(name) is not passed:
            raise Mismatch(f"check {name}: got {verdicts.get(name)!r}, expected {passed}")
    if linear:
        verdict = document["linearity"]
        if not (verdict and verdict["is_linear"]):
            raise Mismatch(f"linearity verdict {verdict!r}, expected linear")
        if abs(verdict["alpha_estimate"] - alpha_of(spec, n)) > ALPHA_TOL:
            raise Mismatch(f"alpha_estimate {verdict['alpha_estimate']!r}, expected {alpha_of(spec, n)!r}")
