"""Fuzzing main(): any input on stdin ends in a report or a one-line error.

Arbitrary text, arbitrary JSON trees, and documents of the right shape with
arbitrary labels and values go to negate, iterate, sweep-alpha and entropy
in JSON and CSV.  Whatever the input, the exit code is 0, 2 or 3 and no
traceback is printed; a failure writes `pdneg: ...` to stderr and nothing to
stdout, and a CSV report parses into rows as wide as its header.  Arbitrary
descriptor text, and mixtures nested up to 600 deep, go to negate and to
check, whose exit code may also be 1.  Seeded byte-level mutations of the
golden documents, deep nesting, invalid UTF-8 and huge faulty entries go to
main in a child interpreter, at Python's default recursion limit; each error
there is one line whose message, however long the input, is at most 400
characters.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_PD, simplexes
from test_cli_golden import DOCUMENT, FORMAT_LIKE_DOCUMENT, QUOTED_DOCUMENT, run

COMMANDS = [
    ["negate", "yager"],
    ["negate", "tsallis:k=2"],
    ["negate", "linear:n1=0.1"],
    ["iterate", "yager", "--steps", "2"],
    ["sweep-alpha", "--alphas", "3"],
    ["entropy"],
]
FORMATS = ["json", "csv"]

strings = st.text(max_size=8)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([0, 1, 0.5, 1e308, -0.0, 10**309]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, strings)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["distributions", "label", "values", "x"]) | strings,
                        children, max_size=4),
    ),
    max_leaves=20,
)
entries = st.one_of(
    trees,
    st.fixed_dictionaries({
        "label": scalars,
        "values": st.one_of(st.lists(numbers | scalars, max_size=6), trees),
    }),
)
# Valid distributions under arbitrary labels, so that reports are written too.
labelled = st.lists(st.tuples(strings.filter(bool), simplexes(max_n=6)),
                    min_size=1, max_size=4, unique_by=lambda entry: entry[0])
documents = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="0123456789.,;- \n\teE+naif", max_size=60),
    trees.map(json.dumps),
    st.lists(entries, max_size=4).map(lambda e: json.dumps({"distributions": e})),
    labelled.map(lambda pairs: json.dumps({"distributions": [
        {"label": label, "values": list(dist.values)} for label, dist in pairs]})),
    labelled.map(lambda pairs: "\n".join(" ".join(map(repr, dist.values)) for _, dist in pairs)),
)

descriptors = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="mixyagerunfotsl:k=[]*,.0123456789", max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(document=documents, command=st.sampled_from(COMMANDS), fmt=st.sampled_from(FORMATS))
def test_any_input_ends_in_a_report_or_one_error_line(document, command, fmt):
    code, out, err = run(command + ["--format", fmt], document)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("pdneg: ")
        assert out == ""
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        assert all(len(row) == len(header) for row in rows)


def assert_report_or_one_error_line(descriptor, check):
    # "--" ends the options, so a descriptor that starts with "-" stays one.
    argv = ["check", "--n", "3", "--grid", "5", "--", descriptor] if check else ["negate", "--", descriptor]
    code, out, err = run(argv, "0.7 0.2 0.1")
    assert code in ((0, 1, 2, 3) if check else (0, 2, 3))
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("pdneg: ") and err.count("\n") == 1
        assert out == ""


@settings(max_examples=200, deadline=None)
@given(descriptor=descriptors, check=st.booleans())
def test_any_descriptor_ends_in_a_report_or_one_error_line(descriptor, check):
    assert_report_or_one_error_line(descriptor, check)


# Outside hypothesis, which raises the recursion limit while a test runs.
@pytest.mark.parametrize("check", [False, True], ids=["negate", "check"])
def test_nested_mixtures_end_in_a_report_or_one_error_line(check):
    for depth in range(601):
        assert_report_or_one_error_line("mix:[1*" * depth + "yager" + "]" * depth, check)


# Runs main over each argv of the JSON list on stdin, printing per argv its
# exit code (or the exception that escaped main), whether stdout stayed empty
# and what went to stderr.  A child has Python's default recursion limit,
# which hypothesis raises while a test runs.
CHILD = """
import contextlib, io, json, sys
from pdneg.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"{type(exc).__name__} escaped main: {exc}"[:200]
    print(json.dumps([code, out.getvalue() == "", err.getvalue()]))
"""
# The longest error line main prints: "pdneg: ", a message of at most 400
# characters, and the newline.
ERROR_LINE_CAP = len("pdneg: ") + 400 + 1
EXAMPLE_LINE = " ".join(map(str, EXAMPLE_PD)) + "\n"


def mutants(rng: random.Random, text: str, count: int):
    """`count` copies of the text's UTF-8 bytes, each with one to three bit
    flips, byte inserts, byte deletes or truncations."""
    for _ in range(count):
        data = bytearray(text.encode())
        for _ in range(rng.randint(1, 3)):
            at, edit = rng.randrange(len(data) + 1), rng.randrange(4)
            if edit == 0 and at < len(data):
                data[at] ^= 1 << rng.randrange(8)
            elif edit == 1:
                data.insert(at, rng.randrange(256))
            elif edit == 2:
                del data[at:at + 1]
            else:
                del data[at:]
        yield bytes(data)


def test_mutated_inputs_at_the_default_recursion_limit_end_in_a_report_or_one_error_line(tmp_path):
    rng = random.Random(21)
    inputs = [mutant for text in (DOCUMENT, QUOTED_DOCUMENT, FORMAT_LIKE_DOCUMENT, EXAMPLE_LINE)
              for mutant in mutants(rng, text, 49)]
    inputs += [b"[" * 50_000, b'{"distributions": ' + b"[" * 50_000, b"\xff\xfe0.5 0.5\n",
               DOCUMENT.encode().replace(b"tie", b"t\xc3\x28e"),
               json.dumps({"distributions": [["x"] * 20_000]}).encode(),
               json.dumps({"distributions": [{"label": "a", "values": ["x" * 50_000]}]}).encode()]
    cases = []
    for number, data in enumerate(inputs):
        path = tmp_path / f"{number}.in"
        path.write_bytes(data)
        command = rng.choice(COMMANDS) + ["--format", rng.choice(FORMATS)]
        cases.append(command + ["--input", str(path)])
    example = tmp_path / "example.in"
    example.write_text(EXAMPLE_LINE)
    cases.append(["negate", "mix:[1*" * 600 + "yager" + "]" * 600, "--input", str(example)])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(cases), capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(results) == len(cases)
    for argv, (code, out_empty, err) in zip(cases, results):
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 2:
            assert out_empty, argv
        if code in (2, 3):
            assert err.startswith("pdneg: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err[:200])
            assert len(err) <= ERROR_LINE_CAP, (argv, len(err))
