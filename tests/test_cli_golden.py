"""Byte-exact CLI output: every command in JSON and CSV, plain and --pretty.

The expected stdout of each case is a file under tests/golden/.  After a
deliberate change to the output, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import EXAMPLE_PD
from pdneg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The worked example (which has a zero), a tie and a point mass.
DOCUMENT = json.dumps({"distributions": [
    {"label": "example", "values": list(EXAMPLE_PD)},
    {"label": "tie", "values": [0.25, 0.25, 0.5]},
    {"label": "point", "values": [0.0, 1.0, 0.0]},
]})

# Labels CSV has to quote (a comma, a quote, a line break) and one with a
# leading space and non-ASCII text.
QUOTED_DOCUMENT = json.dumps({"distributions": [
    {"label": "a,b", "values": [0.5, 0.3, 0.2]},
    {"label": 'q"uote', "values": [0.1, 0.2, 0.3, 0.4]},
    {"label": "line\nbreak", "values": [1.0, 0.0]},
    {"label": " lead \u00e9", "values": [0.25, 0.25, 0.5]},
]})

# Labels that look like format strings (printf and str.format), one CSV has
# to quote for its comma and quotes, and one holding a tab: each must come
# out as written.
FORMAT_LIKE_DOCUMENT = json.dumps({"distributions": [
    {"label": "100%", "values": [0.5, 0.3, 0.2]},
    {"label": "%s%d", "values": [0.1, 0.2, 0.3, 0.4]},
    {"label": "{0}", "values": [1.0, 0.0]},
    {"label": 'a,"b"', "values": [0.25, 0.25, 0.5]},
    {"label": "tab\there", "values": [0.6, 0.4]},
]})

# (name, argv, exit code), run on DOCUMENT
COMMANDS = [
    ("negate-yager", ["negate", "yager"], 0),
    ("negate-tsallis", ["negate", "tsallis:k=2"], 0),
    ("negate-linear-n1", ["negate", "linear:n1=0.1"], 0),
    ("iterate-yager", ["iterate", "yager", "--steps", "2"], 0),
    ("sweep-alpha", ["sweep-alpha", "--alphas", "3"], 0),
    ("entropy", ["entropy"], 0),
    ("check-yager", ["check", "yager", "--n", "5"], 0),
    ("check-tsallis", ["check", "tsallis:k=2", "--n", "5"], 1),
    ("check-identity", ["check", "identity", "--n", "5"], 0),
    ("check-mix", ["check", "mix:[0.3*linear:alpha=0.2,0.7*yager]", "--n", "5"], 0),
    # The wide path: n = 1000 contexts in the probe and a 10001-point sweep.
    ("check-tsallis-n1000", ["check", "tsallis:k=2", "--n", "1000", "--grid", "10001", "--seed", "7"], 1),
    ("check-mix-n1000", ["check", "mix:[0.3*linear:alpha=0.2,0.7*yager]", "--n", "1000", "--grid", "10001"], 0),
    # The two paths a linear-family block shares: Yager's Y(p) is its N(p), and a line is N(p).
    ("check-yager-n1000", ["check", "yager", "--n", "1000", "--grid", "10001"], 0),
    ("check-linear-n1000", ["check", "linear:alpha=0.3", "--n", "1000", "--grid", "10001"], 0),
    # A pd-dependent two-component mixture: its sum in the images of a
    # distribution, in every drawn probe context and in the fixed point's N(uniform).
    ("negate-mix", ["negate", "mix:[0.5*yager,0.5*tsallis:k=2]"], 0),
    ("check-mix-tsallis", ["check", "mix:[0.5*yager,0.5*tsallis:k=2]", "--n", "5"], 1),
    ("check-mix-tsallis-n1000", ["check", "mix:[0.5*yager,0.5*tsallis:k=2]", "--n", "1000", "--seed", "7"], 1),
    # An exact balance of two equal lists, and a check that fails at tol 0 on a linear negator's
    # fixed point, balance and boundary range.
    ("check-uniform-n1000", ["check", "uniform", "--n", "1000", "--grid", "10001"], 0),
    ("check-linear-tol0", ["check", "linear:alpha=0.3", "--n", "5", "--grid", "101", "--tol", "0"], 1),
    # A tolerance above the balance's largest residual and below its residuals' norm.
    ("check-linear-tol1e-16", ["check", "linear:alpha=0.3", "--n", "5", "--grid", "101", "--tol", "1e-16"], 0),
]
# (name, argv, exit code), run on QUOTED_DOCUMENT
QUOTED_COMMANDS = [
    ("negate-yager-quoted", ["negate", "yager"], 0),
    ("iterate-yager-quoted", ["iterate", "yager", "--steps", "2"], 0),
    # Each quoted label recurs once per alpha.
    ("sweep-alpha-quoted", ["sweep-alpha", "--alphas", "3"], 0),
    # A record of three cells and no per-component list.
    ("entropy-quoted", ["entropy"], 0),
]
# (name, argv, exit code), run on FORMAT_LIKE_DOCUMENT
FORMAT_LIKE_COMMANDS = [
    ("negate-yager-format-like", ["negate", "yager"], 0),
    ("iterate-yager-format-like", ["iterate", "yager", "--steps", "2"], 0),
    ("sweep-alpha-format-like", ["sweep-alpha", "--alphas", "3"], 0),
    ("entropy-format-like", ["entropy"], 0),
]
FORMATS = [
    ("json", []),
    ("pretty.json", ["--pretty"]),
    ("csv", ["--format", "csv"]),
    ("pretty.csv", ["--format", "csv", "--pretty"]),
]
CASES = [
    (f"{name}.{suffix}", argv + flags, code, document)
    for document, commands in ((DOCUMENT, COMMANDS), (QUOTED_DOCUMENT, QUOTED_COMMANDS),
                               (FORMAT_LIKE_DOCUMENT, FORMAT_LIKE_COMMANDS))
    for name, argv, code in commands
    for suffix, flags in FORMATS
]


def run(argv: list[str], document: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("filename,argv,expected_code,document", CASES, ids=[case[0] for case in CASES])
def test_output_bytes_match_the_recording(filename, argv, expected_code, document):
    code, out, err = run(argv, document)
    assert (code, err) == (expected_code, "")
    assert out == (GOLDEN / filename).read_text(encoding="utf-8")


if __name__ == "__main__":
    for filename, argv, _, document in CASES:
        (GOLDEN / filename).write_text(run(argv, document)[1], encoding="utf-8")
