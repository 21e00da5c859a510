"""Command-line front end.

Commands: negate, check, iterate, sweep-alpha, entropy.  Distributions come
from --input (default stdin) either as a JSON document

    {"distributions": [{"label": "pd1", "values": [0, 0.1, 0.2, 0.3, 0.4]}]}

or as bare text, one whitespace/comma-separated distribution per line with
labels auto-generated as pd1, pd2, ...  JSON labels must be non-empty,
unique strings that encode as UTF-8 (for CSV also to stdout's encoding, and
with no carriage return).  Reports go to stdout as JSON or CSV
with full-precision numbers (--pretty rounds to 6 significant digits).  CSV
columns are the JSON record fields, with per-component lists unrolled one row
per component and numbered by `index`.  Each record is rendered as one string:
its scalars are formatted once (text quoted by csv.writer) and repeated on
each of its rows, and the numbers of a row are one %-format, so a label is
never read as a format.  check writes one row per check.  negate and
iterate parse the descriptor once per distinct distribution length.
check's --tol must be finite and >= 0, its --grid at least 2.

Exit status: 0 success, 1 a check failed (report still emitted), 2 usage,
parse or validation failure (errors derived from ValueError, a component
index out of range, OSError), 3 any other pdneg error (descriptor application).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Iterable, Iterator
from functools import cache
from pathlib import Path
from types import SimpleNamespace

from .analysis import (
    CHECK_TOLERANCE,
    DEFAULT_GRID_SIZE,
    MAX_COMPONENT_EVALUATIONS,
    boundary_range_check,
    contexts_containing,
    fixed_point_check,
    functional_equation_check,
    independence_probe,
    iterate_negation,
    linearity_test,
)
from .core import Distribution, entropy, validate_distribution
from .errors import (
    ArgumentError,
    ComponentIndexError,
    IndependenceRequired,
    LengthMismatch,
    NegationError,
    NegatorRequired,
)
from .negators import apply_transformation, linear_from_alpha, parse_descriptor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_APPLICATION = 3

_PROBE_CONTEXTS = 8
_PROBE_VALUE = 0.5


# ---------------------------------------------------------------------------
# Input / output plumbing
# ---------------------------------------------------------------------------

def _read_input(args) -> list[tuple[str, Distribution]]:
    """The labelled distributions of --input (or stdin), each validated.

    CSV writes labels as they are, so under --format csv a label must also
    hold no carriage return (csv.writer before Python 3.13 leaves it
    unquoted, which splits the row) and must encode to stdout's encoding (a
    stdout without one, such as io.StringIO, takes any text).  JSON escapes
    every label to ASCII.
    """
    text = sys.stdin.read() if args.input in (None, "-") else Path(args.input).read_text()
    csv_encoding = (getattr(sys.stdout, "encoding", None) or "utf-8") if args.format == "csv" else None
    if text.lstrip().startswith("{"):
        # Integers are read as floats (beyond float range as inf, like 1e999),
        # so a value is a number exactly when its type is float: not bool,
        # null, a string or a container.
        try:
            document = json.loads(text, parse_int=float)
        except RecursionError:
            raise ValueError("input document nests too deeply") from None
        entries = document.get("distributions")
        if not isinstance(entries, list) or not entries:
            raise ValueError("input document needs a non-empty 'distributions' list")
        labelled = []
        for index, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict):
                raise ValueError(f"distribution entry #{index} is {json.dumps(entry)}, expected an object")
            label = entry.get("label")
            values = entry.get("values")
            if not isinstance(label, str) or not label:
                raise ValueError(f"distribution entry #{index} needs a non-empty string 'label'")
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"distribution entry #{index}: label {label!r} is not valid Unicode") from None
            if csv_encoding is not None:
                if "\r" in label:
                    raise ValueError(f"distribution entry #{index}: label {label!r} holds a carriage return, "
                                     "which CSV cannot write")
                try:
                    label.encode(csv_encoding)
                except UnicodeEncodeError:
                    raise ValueError(f"distribution entry #{index}: label {label!r} cannot be written "
                                     f"in stdout's encoding {csv_encoding}") from None
            if not isinstance(values, list):
                raise ValueError(f"distribution {label!r} needs a 'values' list")
            if not all(type(v) is float for v in values):
                position, value = next((i, v) for i, v in enumerate(values, start=1) if type(v) is not float)
                raise ValueError(f"distribution {label!r}: value #{position} is {json.dumps(value)}, expected a number")
            labelled.append((label, values))
    else:
        labelled = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            values = [float(token) for token in line.replace(",", " ").split()]
            labelled.append((f"pd{len(labelled) + 1}", values))
        if not labelled:
            raise ValueError("no distributions found on input")
    labels = [label for label, _ in labelled]
    if len(set(labels)) != len(labels):
        raise ValueError("distribution labels must be unique")
    distributions = []
    for label, values in labelled:
        try:
            distributions.append((label, validate_distribution(values)))
        except NegationError as exc:
            raise type(exc)(f"distribution {label!r}: {exc}") from exc
    return distributions


def _rounded(node):
    if isinstance(node, bool):
        return node
    if isinstance(node, float):
        return float(f"{node:.6g}")
    if isinstance(node, dict):
        return {key: _rounded(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(value) for value in node]
    return node


def _csv_text(header: list[str], records: Iterable[dict], pretty: bool) -> Iterator[str]:
    """CSV text of report records, one string per record, as the module
    docstring describes; non-empty per-component lists of floats follow `index`."""
    number = "%.6g" if pretty else "%.17g"
    # writerow returns what its file's write returns: here the row's text.
    quoted = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def cell(value) -> str:
        if isinstance(value, float):
            return number % value
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None or value == "" else quoted((value,))[:-1]

    yield ",".join(map(cell, header)) + "\n"
    for record in records:
        fields = [record.get(name) for name in header]
        lists = [field for field in fields if isinstance(field, list)]
        if not lists:
            yield ",".join(map(cell, fields)) + "\n"
            continue
        start = header.index("index")
        head = "".join([cell(field) + "," for field in fields[:start]])
        tail = "".join(["," + cell(field) for field in fields[start + 1 + len(lists):]]) + "\n"
        row = ",".join(["%d"] + [number] * len(lists))
        yield head + (tail + head).join(map(row.__mod__, zip(range(1, len(lists[0]) + 1), *lists))) + tail


def _emit(args, payload: dict, header: list[str], records: Iterable[dict]) -> None:
    """Print the payload as JSON, or the records as CSV rows under the header
    (records are only read for CSV)."""
    if args.format == "csv":
        sys.stdout.writelines(_csv_text(header, records, args.pretty))
    else:
        document = _rounded(payload) if args.pretty else payload
        print(json.dumps(document, indent=2 if args.pretty else None))


def _negation(descriptor, dist: Distribution, input_entropy: float) -> dict:
    """The output of one negation and the entropy it moved."""
    negated = apply_transformation(descriptor, dist)
    output_entropy = entropy(negated)
    return {
        "output": list(negated.values),
        "input_entropy": input_entropy,
        "output_entropy": output_entropy,
        "entropy_delta": output_entropy - input_entropy,
    }


def _check_size(flag: str, value: int, *, at_least: int | None = None) -> None:
    if at_least is not None and value < at_least:
        raise ArgumentError(f"{flag} must be at least {at_least}, got {value}")
    if value > MAX_COMPONENT_EVALUATIONS:
        raise ArgumentError(f"{flag} {value} exceeds the {MAX_COMPONENT_EVALUATIONS} cap")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_negate(args) -> int:
    descriptor = cache(lambda n: parse_descriptor(args.negator, n=n))  # parsed once per distinct length
    results = [
        {"label": label, "n": len(dist), "input": list(dist.values),
         **_negation(descriptor(len(dist)), dist, entropy(dist))}
        for label, dist in _read_input(args)
    ]
    header = ["label", "index", "input", "output", "input_entropy", "output_entropy", "entropy_delta"]
    _emit(args, {"command": "negate", "results": results}, header, results)
    return EXIT_OK


def cmd_check(args) -> int:
    _check_size("--n", args.n)
    _check_size("--grid", args.grid, at_least=2)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ArgumentError(f"--tol must be a finite number >= 0, got {args.tol}")
    descriptor = parse_descriptor(args.negator, n=args.n)
    entries = []
    verdict = None
    # Built per call from the module's current names, so a patched check is the one that runs.
    for name, check in (("fixed-point", fixed_point_check), ("functional-equation", functional_equation_check),
                        ("boundary-range", boundary_range_check), ("linearity", linearity_test)):
        try:
            result = check(descriptor, args.n, grid_size=args.grid, tolerance=args.tol)
        except (IndependenceRequired, NegatorRequired) as exc:  # the descriptor lacks a claim the check presumes
            entries.append({"skipped": True, "check_name": name, "reason": f"descriptor {exc.refusal}"})
            continue
        if name == "linearity":
            verdict = result
        else:
            entries.append({"skipped": False, **result.to_dict()})
    contexts = contexts_containing(_PROBE_VALUE, args.n, _PROBE_CONTEXTS, args.seed)
    probe = independence_probe(descriptor, _PROBE_VALUE, contexts, tolerance=args.tol, seed=args.seed)
    entries.append({"skipped": False, **probe.to_dict()})

    passed = all(entry["skipped"] or entry["passed"] for entry in entries)
    payload = {
        "command": "check",
        "negator": descriptor.spec_string(),
        "n": args.n,
        "grid_size": args.grid,
        "seed": args.seed,
        "passed": passed,
        "checks": entries,
        "linearity": None if verdict is None else verdict.to_dict(),
    }

    def records():
        for entry in entries:
            if entry["skipped"]:
                yield entry
            else:
                magnitudes = [violation["magnitude"] for violation in entry["violations"]]
                yield {**entry, "violations": len(magnitudes), "max_magnitude": max(magnitudes, default=0.0)}
        if verdict is not None:
            yield {"check_name": "linearity", "skipped": False, "passed": verdict.is_linear,
                   "grid_size": args.grid, "tolerance": args.tol, "max_magnitude": verdict.max_residual}

    header = ["check_name", "skipped", "passed", "reason", "grid_size", "tolerance", "violations", "max_magnitude"]
    _emit(args, payload, header, records())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_iterate(args) -> int:
    descriptor = cache(lambda n: parse_descriptor(args.negator, n=n))  # parsed once per distinct length
    results = []
    for label, dist in _read_input(args):
        trace = iterate_negation(descriptor(len(dist)), dist, args.steps)
        steps = [
            {"step": step, "values": list(d.values), "distance_to_uniform": distance, "entropy": h}
            for step, (d, distance, h) in enumerate(zip(trace.steps, trace.distances_to_uniform, trace.entropies))
        ]
        results.append({"label": label, "n": len(dist), "trace": steps})
    header = ["label", "step", "index", "value", "distance_to_uniform", "entropy"]
    step_records = ({"label": result["label"], "value": step["values"], **step}
                    for result in results for step in result["trace"])
    _emit(args, {"command": "iterate", "results": results}, header, step_records)
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    _check_size("--alphas", args.alphas, at_least=2)
    distributions = _read_input(args)
    if args.n is not None:
        for label, dist in distributions:
            if len(dist) != args.n:
                raise LengthMismatch(f"distribution {label!r} has length {len(dist)}, expected --n {args.n}")
    input_entropies = [entropy(dist) for _, dist in distributions]
    alphas = [i / (args.alphas - 1) for i in range(args.alphas)]
    results = [
        {"alpha": alpha, "label": label, **_negation(descriptor, dist, h)}
        for alpha, descriptor in zip(alphas, map(linear_from_alpha, alphas))
        for (label, dist), h in zip(distributions, input_entropies)
    ]
    header = ["alpha", "label", "index", "output", "input_entropy", "output_entropy", "entropy_delta"]
    payload = {"command": "sweep-alpha", "alphas": alphas, "results": results}
    _emit(args, payload, header, results)
    return EXIT_OK


def cmd_entropy(args) -> int:
    results = [
        {"label": label, "n": len(dist), "entropy": entropy(dist)}
        for label, dist in _read_input(args)
    ]
    header = ["label", "n", "entropy"]
    _emit(args, {"command": "entropy", "results": results}, header, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdneg",
        description="Construct, apply and analyse negations of finite probability distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_options = argparse.ArgumentParser(add_help=False)
    io_options.add_argument("--input", default=None, metavar="PATH",
                            help="input document (default: stdin)")
    io_options.add_argument("--format", choices=("json", "csv"), default="json")
    io_options.add_argument("--pretty", action="store_true",
                            help="round numbers to 6 significant digits")

    negate = sub.add_parser("negate", parents=[io_options],
                            help="apply a negator to each input distribution")
    negate.add_argument("negator", help="descriptor, e.g. yager or linear:n1=0.1")
    negate.set_defaults(handler=cmd_negate)

    check = sub.add_parser("check", parents=[io_options],
                           help="run the applicable property checks for a descriptor")
    check.add_argument("negator")
    check.add_argument("--n", type=int, required=True, help="distribution length to check at")
    check.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, help="grid resolution over [0, 1]")
    check.add_argument("--tol", type=float, default=CHECK_TOLERANCE, help="check tolerance (finite, >= 0)")
    check.add_argument("--seed", type=int, default=0, help="seed for the randomized probe contexts")
    check.set_defaults(handler=cmd_check)

    iterate = sub.add_parser("iterate", parents=[io_options],
                             help="emit the trace of repeated negation")
    iterate.add_argument("negator")
    iterate.add_argument("--steps", type=int, default=10)
    iterate.set_defaults(handler=cmd_iterate)

    sweep = sub.add_parser("sweep-alpha", parents=[io_options],
                           help="apply every linear negator on an alpha grid")
    sweep.add_argument("--alphas", type=int, default=11, help="number of alpha grid points (>= 2)")
    sweep.add_argument("--n", type=int, default=None,
                       help="require every input distribution to have this length")
    sweep.set_defaults(handler=cmd_sweep_alpha)

    entropy_cmd = sub.add_parser("entropy", parents=[io_options],
                                 help="report the entropy of each input distribution")
    entropy_cmd.set_defaults(handler=cmd_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ComponentIndexError, OSError) as exc:
        print(f"pdneg: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NegationError as exc:
        print(f"pdneg: {exc}", file=sys.stderr)
        return EXIT_APPLICATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
