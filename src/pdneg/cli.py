"""Command-line front end.

Commands: negate, check, iterate, sweep-alpha, entropy.  All five take
--format and --pretty; check reads no input and takes no --input.  The other
four read their distributions from --input (a UTF-8 file, a leading
byte-order mark skipped; default stdin, in the interpreter's encoding)
either as a JSON document

    {"distributions": [{"label": "pd1", "values": [0, 0.1, 0.2, 0.3, 0.4]}]}

or as bare text, one whitespace/comma-separated distribution per line with
labels auto-generated as pd1, pd2, ... (lines end where str.splitlines ends
them).  JSON labels must be non-empty, unique strings that encode as UTF-8
(for CSV also to stdout's encoding, and with no carriage return).  An input
error names the first faulty entry in document order; a JSON syntax error
anywhere comes first, and of a repeated "distributions" key the last
counts.  Reports go to stdout as JSON or CSV with full-precision numbers
(--pretty rounds to 6 significant digits).  CSV columns are the JSON record
fields, with per-component lists unrolled one row per component and
numbered by `index`.  Each record is rendered as one string: its scalars
are formatted once and repeated on each of its rows, and the numbers of a
row are one %-format.  After a report's first five records, each renders
through the layout compiled once for its shape (keys in order, value
types): a %-template for the scalars before `index` and one for those
after, into which text, quoted by csv.writer, goes as a %s argument, so a
label is never read as a format.  check writes one row per check, at most
five.  negate and iterate parse the descriptor once per distinct
distribution length.  check only renders analysis.audit, the one plan of
which checks run, with what probe, and what counts as passing.  Its --tol
must be finite and >= 0, its --grid at least 2, and at least 3 when the
linearity check applies (to a negator claiming pd-independence); both are
refused before the grid is swept.

Every command first runs a preflight over the whole input: it reads and
validates every distribution, resolves the descriptor for every distinct
length, and runs the refusals of iterate (a non-negator, --steps < 0 or over
the component-evaluation cap) and sweep-alpha (--n).  Then it yields its
report records, and one writer builds and renders them CHUNK_RECORDS at a
time: JSON is the bytes of one json.dumps of the report, made of one
json.dumps of the report around a placeholder for its records plus one per
chunk, and CSV is one string per record.  An iterate JSON record is a whole
trace, so iterate's JSON chunks hold CHUNK_RECORDS // (--steps + 1) records
(at least one), about as many distributions as a CSV chunk.  So a report
holds the input and one chunk of records, never the whole report.  The
input is held as one array('d') of every value and an array of where each
stored distribution starts and ends, with the labels and, in `order`, each
one's index in that store, both in document order; each record rebuilds its
Distribution from these without checking it again.  A JSON entry written
{"label": ..., "values": [...]} is stored as soon as it is decoded and left
in the document as a token of its label and index; any other entry is
stored when read, so the store need not be in document order.  The first
chunk is built before anything is written; after it, only a kernel's
InternalConsistencyError (a negation off the simplex) or a failed write to
stdout (such as a closed pipe) can stop a report partway, leaving what was
written so far on stdout.

main reads a well-formed command line from _COMMANDS itself, so a successful
run never imports argparse: each string starting with "-" is one of the
command's long options (as --option=value too, but for --pretty), each value
is given, starts with no "-" and passes its type and choices, every required
option is given, and one string is left for each positional.  Otherwise the
argparse parser of that command alone parses the rest, printing its help and
errors as the full parser would; with no command first, or an argument left
over, the full parser parses them all, for pdneg's own help and usage errors.

Exit status: 0 success, 1 a check failed (report still emitted), 2 usage,
parse or validation failure (errors derived from ValueError, a component
index out of range, an input that cannot be opened or read), 3 any other
pdneg error (descriptor application) or a failed write to stdout.  An error
is one stderr line, whose message is cut in the middle past _MESSAGE_CAP.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace

from .analysis import (CHECK_TOLERANCE, DEFAULT_GRID_SIZE, MAX_COMPONENT_EVALUATIONS, audit, iterate_negation,
                       require_iteration)
from .core import DEFAULT_TOLERANCE, Distribution, _check_simplex, _checked_distribution, entropy
from .errors import ArgumentError, ComponentIndexError, LengthMismatch, NegationError
from .negators import apply_transformation, linear_from_alpha, parse_descriptor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_APPLICATION = 3

#: Records a report builds before it renders them (one json.dumps call each
#: chunk); turns of a few dozen records run as fast as building the whole report.
CHUNK_RECORDS = 64
#: Stands in for the records in the json.dumps of the text around them; no other
#: field renders to its JSON, "\u0000records", as labels live only in records.
_RECORDS = "\0records"
_RECORDS_JSON = json.dumps(_RECORDS)
#: Records a CSV report renders cell by cell before it renders each record
#: through its shape's layout.  A check report holds at most five records, most
#: of a shape that occurs once, so it renders them as it would without layouts.
_CELL_BY_CELL = 5
#: Longest error message printed whole; a longer one prints its first 300
#: characters, which name the entry, and its last 95, which give the reason.
_MESSAGE_CAP = 400


# ---------------------------------------------------------------------------
# Input / output plumbing
# ---------------------------------------------------------------------------

class _Entry:
    """What the JSON reader's object hook leaves in the document for an entry
    written as {"label": <non-empty string>, "values": [<numbers>]}, with
    exactly those keys in that order, whose values are a distribution: the
    label, and the index of the values in the input's store.  Every other
    object stays as decoded.
    """

    __slots__ = ("label", "index")

    def __init__(self, label: str, index: int) -> None:
        self.label, self.index = label, index


class _Input:
    """The validated input distributions: their values end to end in one
    array('d'), where each starts and ends in `ends` (which starts at 0), and
    in document order their labels and, in `order`, their indices in the store."""

    __slots__ = ("labels", "order", "values", "ends")

    def __init__(self) -> None:
        from array import array  # here, not at module level: starting the CLI need not load it

        self.labels: list[str] = []
        self.order, self.values, self.ends = array("q"), array("d"), array("q", (0,))

    def store(self, floats: list[float]) -> int:
        """Check the floats as a distribution, append them to the values and return their index."""
        _check_simplex(floats, DEFAULT_TOLERANCE)
        self.values.fromlist(floats)
        self.ends.append(len(self.values))
        return len(self.ends) - 2

    def stored(self, index: int):
        """The values of the index-th distribution stored, as an array."""
        return self.values[self.ends[index]:self.ends[index + 1]]

    def lengths(self) -> Iterator[int]:
        """The length of each distribution, in document order."""
        ends = self.ends
        return (ends[index + 1] - ends[index] for index in self.order)

    def __iter__(self) -> Iterator[tuple[str, Distribution]]:
        """Each label with its distribution, rebuilt from the store without a second check."""
        for label, index in zip(self.labels, self.order):
            yield label, _checked_distribution(tuple(self.stored(index).tolist()))


def _read_input(args) -> _Input:
    """The labelled distributions of --input (or stdin), each validated once.

    An error names the first faulty entry in document order.  CSV writes
    labels as they are, so under --format csv a label must also hold no
    carriage return (csv.writer before Python 3.13 leaves it unquoted, which
    splits the row) and must encode to stdout's encoding (a stdout without
    one, such as io.StringIO, takes any text).  JSON escapes labels to ASCII.

    JSON is decoded by one json.loads whose object hook stores each entry
    written as the module docstring says and leaves its token (see _Entry).
    The entries are then read in order, storing any other well-formed one,
    and each one's store index is appended to `order`: the store itself need
    not be in document order, as every reader goes through `order`.
    """
    try:
        if args.input in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8-sig") as document:
                text = document.read()
    except OSError as exc:  # an input that cannot be opened or read is a usage error
        raise ValueError(str(exc)) from exc
    csv_encoding = (getattr(sys.stdout, "encoding", None) or "utf-8") if args.format == "csv" else None
    read = _Input()

    if not text.lstrip().startswith("{"):
        lines = text.splitlines()
        del text  # the lines hold the input now
        for line in lines:
            if line.strip():
                label = f"pd{len(read.labels) + 1}"
                try:
                    read.order.append(read.store([float(token) for token in line.replace(",", " ").split()]))
                except ValueError as exc:  # a token that is no number, or a validation error
                    raise type(exc)(f"distribution {label!r}: {exc}") from exc
                read.labels.append(label)
        if not read.labels:
            raise ValueError("no distributions found on input")
        return read

    # Integers are read as floats (beyond float range as inf, like 1e999),
    # so a value is a number exactly when its type is float: not bool,
    # null, a string or a container.
    def entry(obj: dict):
        label, floats = obj.get("label"), obj.get("values")
        if not (type(label) is str and label and type(floats) is list and len(obj) == 2
                and next(iter(obj)) == "label"):
            return obj
        for value in floats:
            if type(value) is not float:
                return obj
        try:
            return _Entry(label, read.store(floats))
        except ValueError:  # the walk checks the values again if the object is an entry
            return obj

    def written(decoded: _Entry) -> dict:
        """json.dumps' default: the object an _Entry stands for, as written."""
        return {"label": decoded.label, "values": read.stored(decoded.index).tolist()}

    try:
        document = json.loads(text, parse_int=float, object_hook=entry)
    except RecursionError:
        raise ValueError("input document nests too deeply") from None
    del text  # the document holds the input now
    entries = document.get("distributions") if type(document) is dict else None
    if not isinstance(entries, list) or not entries:
        raise ValueError("input document needs a non-empty 'distributions' list")
    seen: set[str] = set()
    for number, decoded in enumerate(entries, start=1):
        if type(decoded) is _Entry:
            label, index = decoded.label, decoded.index
        elif not isinstance(decoded, dict):
            raise ValueError(f"distribution entry #{number} is {json.dumps(decoded, default=written)}, "
                             "expected an object")
        else:
            label = decoded.get("label")
            if not isinstance(label, str) or not label:
                raise ValueError(f"distribution entry #{number} needs a non-empty string 'label'")
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"distribution entry #{number}: label {label!r} is not valid Unicode") from None
        if csv_encoding is not None:
            if "\r" in label:
                raise ValueError(f"distribution entry #{number}: label {label!r} holds a carriage return, "
                                 "which CSV cannot write")
            try:
                label.encode(csv_encoding)
            except UnicodeEncodeError:
                raise ValueError(f"distribution entry #{number}: label {label!r} cannot be written "
                                 f"in stdout's encoding {csv_encoding}") from None
        if type(decoded) is not _Entry:  # a dict with a well-formed label: its values are checked here
            values = decoded.get("values")
            if not isinstance(values, list):
                raise ValueError(f"distribution {label!r} needs a 'values' list")
            for position, value in enumerate(values, start=1):
                if type(value) is not float:
                    raise ValueError(f"distribution {label!r}: value #{position} is "
                                     f"{json.dumps(value, default=written)}, expected a number")
        if label in seen:
            raise ValueError(f"distribution label {label!r} repeats; labels must be unique")
        seen.add(label)
        if type(decoded) is not _Entry:
            try:
                index = read.store(values)
            except ValueError as exc:
                raise type(exc)(f"distribution {label!r}: {exc}") from exc
        read.order.append(index)
        read.labels.append(label)
    return read


def _rounded(node):
    if isinstance(node, float):
        return float(f"{node:.6g}")
    if isinstance(node, dict):
        return {key: _rounded(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_rounded(value) for value in node]
    return node


def _csv_text(header: list[str], records: Iterable[dict], pretty: bool) -> Iterator[str]:
    """CSV text of report records, one string per record, as the module
    docstring describes; non-empty per-component lists of floats follow `index`.

    The first _CELL_BY_CELL records are rendered cell by cell.  Each later
    record renders through the layout of its shape, its keys in order and the
    type of each value (see `layout`), compiled when the shape first comes.
    """
    number = "%.6g" if pretty else "%.17g"
    # writerow returns what its file's write returns: here the row's text.
    quoted = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def cell(value) -> str:
        if isinstance(value, float):
            return number % value
        if type(value) is int:  # digits and a sign, which csv never quotes
            return str(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None or value == "" else quoted((value,))[:-1]

    def layout(fields: list) -> tuple:
        """How to render the records shaped like one whose fields, in header
        order, are `fields`:
        - a getter of the tuple of its fields that are not None: those before
          `index` (all of them, if it has no list), its lists, those after them;
        - the positions in that tuple of the cells cell() renders, which are
          all but floats and ints;
        - the %-template of the cells before `index` (of the whole line, if it
          has no list), in which None is an empty cell;
        - where its lists are in the tuple (None if it has none);
        - the %-template of the cells after its lists, and the row template.
        """
        lists = [name for name, field in zip(header, fields) if isinstance(field, list)]
        start = header.index("index") if lists else len(header)
        names, texts = [], []

        def specs(part: range) -> list[str]:
            """The %-spec of each cell in `part`; `names` gets its fields that are not None next."""
            found = []
            for at in part:
                kind = type(fields[at])
                if fields[at] is None:
                    found.append("")
                    continue
                if kind is not float and kind is not int:
                    texts.append(len(names))
                found.append(number if kind is float else "%d" if kind is int else "%s")
                names.append(header[at])
            return found

        head = specs(range(start))
        lists_at = slice(len(names), len(names) + len(lists))
        names += lists
        tail = specs(range(start + 1 + len(lists), len(header)))
        get = itemgetter(*names) if len(names) > 1 else lambda record: tuple(map(record.__getitem__, names))
        if not lists:
            return get, texts, ",".join(head) + "\n", None, "", ""
        return (get, texts, "".join([spec + "," for spec in head]), lists_at,
                "".join(["," + spec for spec in tail]) + "\n", ",".join(["%d"] + [number] * len(lists)))

    yield ",".join(map(cell, header)) + "\n"
    layouts: dict[tuple, tuple] = {}  # each shape's layout, for this report only
    for count, record in enumerate(records):
        if count >= _CELL_BY_CELL:
            shape = (*record, *map(type, record.values()))
            found = layouts.get(shape)
            if found is None:
                found = layouts[shape] = layout([record.get(name) for name in header])
            get, texts, head, lists_at, tail, row = found
            values = get(record)
            if texts:
                values = list(values)
                for text in texts:
                    values[text] = cell(values[text])
                values = tuple(values)
            if lists_at is None:
                yield head % values
                continue
            head, lists, tail = head % values[:lists_at.start], values[lists_at], tail % values[lists_at.stop:]
        else:
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


def _chunks(records: Iterable[dict], size: int) -> Iterator[list[dict]]:
    """The records, built `size` at a time."""
    records = iter(records)
    return iter(lambda: list(islice(records, size)), [])


def _json_text(payload: dict, pretty: bool, size: int) -> Iterator[str]:
    """The text print(json.dumps(payload)) writes, in pieces: the text before
    the records, the records chunk by chunk, and the text after them.

    The records are the payload's one iterator-valued field, written as the
    (never empty) list it yields; the text around them is one json.dumps,
    split at _RECORDS.  --pretty rounds every number as _rounded does and
    indents by 2, so each chunk's items move one level in, to the depth of
    a top-level field's items.  The records are built `size` at a time.
    """
    key, records = next(field for field in payload.items() if isinstance(field[1], Iterator))
    around = {**payload, key: [_RECORDS]}
    if pretty:
        around, records = _rounded(around), map(_rounded, records)
    indent = 2 if pretty else None
    head, _, tail = json.dumps(around, indent=indent).partition(_RECORDS_JSON)
    yield head
    separator = ""
    for chunk in _chunks(records, size):
        items = json.dumps(chunk, indent=indent)[1:-1]
        if pretty:
            items = items.strip().replace("\n", "\n  ")
        yield separator + items
        separator = ",\n    " if pretty else ", "
    yield tail + "\n"


def _emit(args, payload: dict, header: list[str], rows: Iterable[dict], size: int = CHUNK_RECORDS) -> None:
    """Write the payload as JSON (see _json_text) with its records built
    `size` at a time, or the rows as CSV under the header, built CHUNK_RECORDS
    at a time; only the chosen format's records are read.

    The first chunk of records is built before anything is written, so a
    failure there leaves stdout empty.
    """
    if args.format == "csv":
        pieces = _csv_text(header, chain.from_iterable(_chunks(rows, CHUNK_RECORDS)), args.pretty)
    else:
        pieces = _json_text(payload, args.pretty, size)
    sys.stdout.write(next(pieces) + next(pieces, ""))
    sys.stdout.writelines(pieces)


def _negation(descriptor, dist: Distribution, input_entropy: float, record: dict) -> dict:
    """`record` with the output of one negation and the entropy it moved added, in place."""
    negated = apply_transformation(descriptor, dist)
    output_entropy = entropy(negated)
    record["output"] = list(negated.values)
    record["input_entropy"] = input_entropy
    record["output_entropy"] = output_entropy
    record["entropy_delta"] = output_entropy - input_entropy
    return record


def _check_size(flag: str, value: int, *, at_least: int | None = None) -> None:
    if at_least is not None and value < at_least:
        raise ArgumentError(f"{flag} must be at least {at_least}, got {value}")
    if value > MAX_COMPONENT_EVALUATIONS:
        raise ArgumentError(f"{flag} {value} exceeds the {MAX_COMPONENT_EVALUATIONS} cap")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _lengths(distributions: _Input) -> Iterable[int]:
    """The distinct distribution lengths, in order of first appearance."""
    return dict.fromkeys(distributions.lengths())


def cmd_negate(args) -> int:
    distributions = _read_input(args)
    descriptors = {n: parse_descriptor(args.negator, n=n) for n in _lengths(distributions)}
    results = (
        _negation(descriptors[len(dist)], dist, entropy(dist),
                  {"label": label, "n": len(dist), "input": list(dist.values)})
        for label, dist in distributions
    )
    header = ["label", "index", "input", "output", "input_entropy", "output_entropy", "entropy_delta"]
    _emit(args, {"command": "negate", "results": results}, header, results)
    return EXIT_OK


def cmd_check(args) -> int:
    _check_size("--n", args.n)
    _check_size("--grid", args.grid, at_least=2)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ArgumentError(f"--tol must be a finite number >= 0, got {args.tol}")
    descriptor = parse_descriptor(args.negator, n=args.n)
    found = audit(descriptor, args.n, args.grid, args.tol, args.seed)
    results = dict(found.results)
    verdict = None if isinstance(results["linearity"], NegationError) else results.pop("linearity")
    entries = (
        # A refusal is a claim the check presumes missing; the linearity verdict has a field of its own.
        {"skipped": True, "check_name": name, "reason": f"descriptor {result.refusal}"}
        if isinstance(result, NegationError) else {"skipped": False, **result.to_dict()}
        for name, result in results.items()
    )
    payload = {
        "command": "check",
        "negator": descriptor.spec_string(),
        "n": args.n,
        "grid_size": args.grid,
        "seed": args.seed,
        "passed": found.passed,
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
    return EXIT_OK if found.passed else EXIT_CHECK_FAILED


def _trace(descriptor, dist: Distribution, steps: int) -> list[dict]:
    trace = iterate_negation(descriptor, dist, steps)
    return [
        {"step": step, "values": list(d.values), "distance_to_uniform": distance, "entropy": h}
        for step, (d, distance, h) in enumerate(zip(trace.steps, trace.distances_to_uniform, trace.entropies))
    ]


def cmd_iterate(args) -> int:
    distributions = _read_input(args)
    descriptors = {}
    for n in _lengths(distributions):  # each length's refusal in the order the distributions meet it
        descriptors[n] = parse_descriptor(args.negator, n=n)
        require_iteration(descriptors[n], n, args.steps)
    results = (
        {"label": label, "n": len(dist), "trace": _trace(descriptors[len(dist)], dist, args.steps)}
        for label, dist in distributions
    )
    header = ["label", "step", "index", "value", "distance_to_uniform", "entropy"]
    rows = ({"label": result["label"], "step": step["step"], "value": step["values"],
             "distance_to_uniform": step["distance_to_uniform"], "entropy": step["entropy"]}
            for result in results for step in result["trace"])
    # A JSON record holds a whole trace, so a chunk of them holds about CHUNK_RECORDS distributions.
    _emit(args, {"command": "iterate", "results": results}, header, rows, max(1, CHUNK_RECORDS // (args.steps + 1)))
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    _check_size("--alphas", args.alphas, at_least=2)
    distributions = _read_input(args)
    if args.n is not None:
        for label, n in zip(distributions.labels, distributions.lengths()):
            if n != args.n:
                raise LengthMismatch(f"distribution {label!r} has length {n}, expected --n {args.n}")
    input_entropies = [entropy(dist) for _, dist in distributions]
    alphas = [i / (args.alphas - 1) for i in range(args.alphas)]
    results = (
        _negation(descriptor, dist, h, {"alpha": alpha, "label": label})
        for alpha, descriptor in zip(alphas, map(linear_from_alpha, alphas))
        for (label, dist), h in zip(distributions, input_entropies)
    )
    header = ["alpha", "label", "index", "output", "input_entropy", "output_entropy", "entropy_delta"]
    payload = {"command": "sweep-alpha", "alphas": alphas, "results": results}
    _emit(args, payload, header, results)
    return EXIT_OK


def cmd_entropy(args) -> int:
    results = (
        {"label": label, "n": len(dist), "entropy": entropy(dist)}
        for label, dist in _read_input(args)
    )
    header = ["label", "n", "entropy"]
    _emit(args, {"command": "entropy", "results": results}, header, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

#: --format and --pretty, which every command takes, and --input, which all but check take.
_OUTPUT = (("--format", {"choices": ("json", "csv"), "default": "json"}),
           ("--pretty", {"action": "store_true", "help": "round numbers to 6 significant digits"}))
_INPUT = ("--input", {"default": None, "metavar": "PATH", "help": "input document (default: stdin)"})

#: Each command's help, handler and arguments, each its flag or name and add_argument's keywords, in parser order.
_COMMANDS = {
    "negate": ("apply a negator to each input distribution", cmd_negate,
               (*_OUTPUT, _INPUT, ("negator", {"help": "descriptor, e.g. yager or linear:n1=0.1"}))),
    "check": ("run the applicable property checks for a descriptor", cmd_check, (
        *_OUTPUT, ("negator", {}),
        ("--n", {"type": int, "required": True, "help": "distribution length to check at"}),
        ("--grid", {"type": int, "default": DEFAULT_GRID_SIZE, "help": "grid resolution over [0, 1]"}),
        ("--tol", {"type": float, "default": CHECK_TOLERANCE, "help": "check tolerance (finite, >= 0)"}),
        ("--seed", {"type": int, "default": 0, "help": "seed for the randomized probe contexts"}))),
    "iterate": ("emit the trace of repeated negation", cmd_iterate,
                (*_OUTPUT, _INPUT, ("negator", {}), ("--steps", {"type": int, "default": 10}))),
    "sweep-alpha": ("apply every linear negator on an alpha grid", cmd_sweep_alpha, (
        *_OUTPUT, _INPUT,
        ("--alphas", {"type": int, "default": 11, "help": "number of alpha grid points (>= 2)"}),
        ("--n", {"type": int, "default": None, "help": "require every input distribution to have this length"}))),
    "entropy": ("report the entropy of each input distribution", cmd_entropy, (*_OUTPUT, _INPUT)),
}


def _command_parser(name: str, parser=None):
    """`parser` given the arguments and defaults of the command `name`; by
    default a new argparse.ArgumentParser of that command alone."""
    import argparse  # here, not at module level: a well-formed command line is read without it

    if parser is None:
        parser = argparse.ArgumentParser(prog=f"pdneg {name}")
    _, handler, arguments = _COMMANDS[name]
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(handler=handler, command=name)
    return parser


def _build_parser():
    """The argparse parser of every command, which prints pdneg's help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pdneg",
        description="Construct, apply and analyse negations of finite probability distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, *_) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=summary))
    return parser


def _read_argv(name: str, argv: list[str]) -> SimpleNamespace | None:
    """argv, the arguments after the command `name`, read as the module docstring
    says from its arguments in _COMMANDS, each a store_true flag or taking one
    value; None where the command's parser might read argv otherwise or refuse it."""
    _, handler, arguments = _COMMANDS[name]
    options, pairs, positionals, strings = dict(arguments), [], [], iter(argv)
    flags = {flag for flag, keywords in arguments if keywords.get("action") == "store_true"}
    names = [flag for flag, _ in arguments if not flag.startswith("-")]
    for string in strings:
        flag, equals, value = string.partition("=")
        if not string.startswith("-"):
            positionals.append(string)
        elif flag not in options or equals and flag in flags:
            return None
        else:  # a missing value reads as one starting with "-"
            pairs.append((flag, True if flag in flags else value if equals else next(strings, "-")))
    if len(positionals) != len(names):
        return None
    values = {}
    for flag, value in [*zip(names, positionals), *pairs]:  # each value is checked, as the parser checks them all
        if value is not True:
            if value.startswith("-"):
                return None
            try:
                value = options[flag].get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if value not in options[flag].get("choices", (value,)):
                return None
        values[flag] = value
    for flag, keywords in arguments:
        if flag not in values and keywords.get("required"):
            return None
        values.setdefault(flag, keywords.get("default", False if flag in flags else None))
    return SimpleNamespace(handler=handler, command=name,
                           **{flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()})


def _parse(argv: list[str] | None):
    """argv (default sys.argv[1:]) parsed as the module docstring says; exits on -h or a usage error."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _read_argv(argv[0], argv[1:])
        if args is not None:
            return args
        args, left = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not left:
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, ComponentIndexError) as exc:
        error, code = exc, EXIT_USAGE
    except (NegationError, OSError) as exc:  # an OSError here is a failed write to stdout
        error, code = exc, EXIT_APPLICATION
    message = str(error)
    if len(message) > _MESSAGE_CAP:
        message = f"{message[:300]} ... {message[-95:]}"
    print(f"pdneg: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported the failed write; what is left in the buffer goes nowhere
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_main()
