"""The CSV reader: the rows of write_csv's format, in one split pass."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import MalformedRecordError
from earstudy.attention import EAR_COLUMNS, read_segments_csv
from earstudy.output import read_csv

from oracles import read_csv_rows

COLUMNS = ("a", "b")
LINE_ENDS = ("\n", "\r\n", "\r")

# Cells as write_csv writes them: no comma, quote or line end, but any other
# character, including those that str.splitlines would also split at.
cells = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\x00'),
    max_size=6,
)
rows = st.lists(cells, min_size=1, max_size=4).map(",".join)
comments = cells.map(lambda text: "#" + text)
headers = st.tuples(
    st.sampled_from(["", " "]), st.sampled_from(["", " "]),
    st.lists(cells, max_size=2),
).map(lambda t: ",".join([f"{t[0]}a{t[1]}", f"{t[1]}b{t[0]}", *t[2]]))


@st.composite
def csv_texts(draw):
    """A header among comment lines, then rows, comments and blank rows,
    each line ended by LF, CRLF or CR, the last line possibly unended."""
    lines = draw(st.lists(comments, max_size=2)) + [draw(headers)]
    lines += draw(st.lists(st.one_of(rows, comments, st.just("")), max_size=8))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_rows_are_those_the_csv_module_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    header, expected = read_csv_rows(path)
    assert [h.strip() for h in header[:2]] == list(COLUMNS)
    assert read_csv(path, COLUMNS, list, "test") == expected


def test_a_blank_line_before_the_header_is_a_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\n\na,b\n1,2\n")
    assert read_csv_rows(path)[0] == []
    with pytest.raises(MalformedRecordError, match="expected 'a,b' header"):
        read_csv(path, COLUMNS, list, "test")


def test_line_ends_are_equivalent(tmp_path):
    text = "# meta\na,b\n1,2\n\n#c\n3,4\n"
    for end in LINE_ENDS:
        path = tmp_path / "t.csv"
        path.write_bytes(text.replace("\n", end).encode())
        assert read_csv(path, COLUMNS, list, "test") == [["1", "2"], ["3", "4"]]


def read_ear(path):
    return read_csv(path, EAR_COLUMNS, lambda row: (float(row[0]), float(row[1])), "EAR")


def test_a_quoted_cell_is_a_bad_row(tmp_path):
    """Cells are never quoted: the csv module's quoting is not undone."""
    path = tmp_path / "ear.csv"
    path.write_text('timestamp_s,ear\n0.0,0.3\n"0.5",0.3\n')
    with pytest.raises(MalformedRecordError) as info:
        read_ear(path)
    assert str(info.value) == f"""{path}: bad EAR row ['"0.5"', '0.3']"""
    path.write_text('start_s,end_s,speaker\n0.0,1.0,"chair"\n')
    with pytest.raises(MalformedRecordError, match="'\"chair\"'"):
        read_segments_csv(path, "c")
    path.write_text('"timestamp_s",ear\n0.0,0.3\n')
    with pytest.raises(MalformedRecordError, match="expected 'timestamp_s,ear' header"):
        read_ear(path)


def test_first_bad_row_is_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\nx,3\n4\n")
    with pytest.raises(MalformedRecordError) as info:
        read_csv(path, COLUMNS, lambda row: (float(row[0]), float(row[1])), "test")
    assert str(info.value) == f"{path}: bad test row ['x', '3']"


def test_a_row_cut_by_bytes_that_are_not_utf8_is_not_checked(tmp_path):
    """Only whole lines ahead of the first bad byte are checked."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff4\n")
    with pytest.raises(MalformedRecordError, match="not valid UTF-8"):
        read_csv(path, COLUMNS, lambda row: (float(row[0]), float(row[1])), "test")
    path.write_bytes(b"# meta\n\xff")
    with pytest.raises(MalformedRecordError, match="not valid UTF-8"):
        read_csv(path, COLUMNS, list, "test")
    path.write_bytes(b"x,y\n\xff")
    with pytest.raises(MalformedRecordError, match="expected 'a,b' header"):
        read_csv(path, COLUMNS, list, "test")
