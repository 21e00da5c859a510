"""Fuzzing main(): any input on stdin ends in a report or a one-line error.

Arbitrary text, arbitrary JSON trees, and documents of the right shape with
arbitrary labels and values go to negate, iterate, sweep-alpha and entropy
in JSON and CSV.  Whatever the input, the exit code is 0, 2 or 3 and no
traceback is printed; a failure writes `pdneg: ...` to stderr and nothing to
stdout, and a CSV report parses into rows as wide as its header.
"""

from __future__ import annotations

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simplexes
from test_cli_golden import run

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
