"""The CSV renderer against the row-by-row csv.writer path it replaced.

`reference` is that path: one formatting function called per cell, lists
unrolled by `zip` with `index` numbering the rows, and every row written by
csv.writer.  `cli._csv_text` must give the same text for any records a
report can hold: arbitrary text (no carriage return, which the CLI refuses
under CSV), any float, bools, None and ints, with and without per-component
lists, plain and --pretty.  It must also give it when a report's records
share shapes, which it renders through a layout compiled once per shape.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat

from hypothesis import given, settings
from hypothesis import strategies as st

from pdneg.cli import _CELL_BY_CELL, _csv_text


def reference(header: list[str], records: list[dict], pretty: bool) -> str:
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}" if pretty else f"{value:.17g}"
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None else str(value)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        fields = [record.get(name) for name in header]
        length = next((len(field) for field in fields if isinstance(field, list)), None)
        if length is None:
            writer.writerow(map(cell, fields))
        else:
            writer.writerows(zip(*(
                map(str, range(1, length + 1)) if name == "index"
                else map(cell, field) if isinstance(field, list)
                else repeat(cell(field))
                for name, field in zip(header, fields)
            )))
    return out.getvalue()


texts = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=6)
floats = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e-310]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(min_value=-(10**30), max_value=10**30), floats, texts)


@st.composite
def reports(draw):
    """A header and records in the shape of a CLI report: scalar columns
    around an optional `index` that the non-empty per-component lists follow.
    Every report has at least two columns (csv.writer quotes a lone empty
    field)."""
    before = [f"b{i}" for i in range(draw(st.integers(1, 3)))]
    per_row = [f"l{i}" for i in range(draw(st.integers(0, 3)))]
    after = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    header = before + (["index"] + per_row if per_row else []) + after
    records = []
    for _ in range(draw(st.integers(0, 4))):
        record = {name: draw(scalars) for name in header
                  if name not in per_row and name != "index" and draw(st.booleans())}
        if per_row and draw(st.booleans()):
            length = draw(st.integers(1, 4))  # non-empty, like every distribution
            record.update({name: draw(st.lists(floats, min_size=length, max_size=length)) for name in per_row})
        records.append(record)
    return header, records


@settings(max_examples=300, deadline=None)
@given(reports(), st.booleans())
def test_the_renderer_writes_what_csv_writer_wrote(report, pretty):
    header, records = report
    assert "".join(_csv_text(header, records, pretty)) == reference(header, records, pretty)


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, min_size=1, max_size=4), st.booleans())
def test_text_cells_read_back_as_written(labels, pretty):
    header = ["label", "index", "value", "tail"]
    records = [{"label": label, "value": [0.5, 0.25], "tail": label} for label in labels]
    rows = list(csv.reader(io.StringIO("".join(_csv_text(header, records, pretty)))))
    assert rows[0] == header
    assert [(row[0], row[3]) for row in rows[1:]] == [(label, label) for label in labels for _ in range(2)]


#: Text cells that %-formats or CSV quoting could misread, and their parts.
tricky_texts = st.one_of(
    texts,
    st.lists(st.sampled_from(["%", "%s", "%%", "%d", ",", '"', "\n", " ", "a", "\u00e9"]), max_size=4).map("".join),
)
kinds = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(min_value=-(10**30), max_value=10**30),
    "float": floats,
    "text": tricky_texts,
}


@st.composite
def shaped_reports(draw):
    """A header and records drawn from one to three fixed shapes (the same
    keys in the same order, each value of the same type), in runs of up to a
    few more records than the renderer renders cell by cell before it uses
    layouts: a layout is reused, meets a new shape, and is reused again.
    The shapes take their keys in one order, and often the same keys, so
    that two of them may differ only in the types of their values."""
    before = [f"b{i}" for i in range(draw(st.integers(1, 3)))]
    per_row = [f"l{i}" for i in range(draw(st.integers(0, 3)))]
    after = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    header = before + (["index"] + per_row if per_row else []) + after
    order = draw(st.permutations(before + after + per_row))
    common = [name for name in before + after if draw(st.booleans())]
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        names = common if draw(st.booleans()) else [name for name in before + after if draw(st.booleans())]
        cells = {name: draw(st.sampled_from(sorted(kinds))) for name in names}
        lists = per_row if draw(st.booleans()) else []
        shapes.append(([key for key in order if key in cells or key in lists], cells))
    records = []
    for _ in range(draw(st.integers(1, 6))):
        keys, cells = shapes[draw(st.integers(0, len(shapes) - 1))]
        for _ in range(draw(st.integers(1, _CELL_BY_CELL + 4))):
            length = draw(st.integers(1, 4))
            records.append({key: draw(kinds[cells[key]]) if key in cells
                            else draw(st.lists(floats, min_size=length, max_size=length)) for key in keys})
    return header, records


@settings(max_examples=300, deadline=None)
@given(shaped_reports(), st.booleans())
def test_records_of_repeated_shapes_render_as_csv_writer_wrote(report, pretty):
    header, records = report
    assert "".join(_csv_text(header, records, pretty)) == reference(header, records, pretty)
