import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut.core import BinaryMatrix, Partition
from hypercut.formats import (read_alist, read_partition, write_alist,
                              write_partition)


@st.composite
def any_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = draw(st.sets(st.tuples(st.integers(0, rows - 1),
                                     st.integers(0, cols - 1))))
    return BinaryMatrix(rows, cols, frozenset(entries))


def test_alist_layout(tmp_path):
    mat = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    path = tmp_path / "h.alist"
    with open(path, "w") as fh:
        write_alist(mat, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "3 2"          # n m
    assert lines[1] == "2 2"          # max col/row degree
    assert lines[2] == "1 2 1"        # column degrees
    assert lines[3] == "2 2"          # row degrees
    assert lines[4].split() == ["1", "0"]       # col 1 -> row 1, padded
    assert lines[5].split() == ["1", "2"]
    assert read_alist(path) == mat


@given(any_matrices())
@settings(max_examples=40)
def test_alist_round_trip(tmp_path_factory, mat):
    path = tmp_path_factory.mktemp("alist") / "m.alist"
    with open(path, "w") as fh:
        write_alist(mat, fh)
    assert read_alist(path) == mat


def test_alist_zero_padding_ignored(tmp_path):
    path = tmp_path / "padded.alist"
    path.write_text("2 2\n1 1\n1 1\n1 1\n1 0\n2 0\n1 0\n2 0\n")
    mat = read_alist(path)
    assert mat == BinaryMatrix.from_dense([[1, 0], [0, 1]])


@pytest.mark.parametrize("content, lineno, what", [
    ("2\n", 1, "header"),
    ("2 2\n1 1\n1 1 1\n1 1\n1\n2\n1\n2\n", 3, "column degrees"),
    ("2 2\n1 1\n1 1\n1 1\n1 2\n2\n1\n2\n", 5, "degree says"),
    ("2 2\n1 1\n1 1\n1 1\n3\n2\n1\n2\n", 5, "out of range"),
    ("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n", 7, "disagrees"),
    ("2 2\n1 1\n1 1\n1 1\n1\nx\n1\n2\n", 6, "expected integers"),
])
def test_alist_errors_carry_line_numbers(tmp_path, content, lineno, what):
    path = tmp_path / "bad.alist"
    path.write_text(content)
    with pytest.raises(ValueError, match=what) as err:
        read_alist(path)
    assert f":{lineno}:" in str(err.value)


@pytest.mark.parametrize("content, lineno, what", [
    ("2 2 2\n1 1\n1 1\n1 1\n", 1, "header must be 'n m'"),
    ("0 2\n1 1\n1\n1 1\n", 1, "dimensions must be positive"),
    ("2 2\n1\n1 1\n1 1\n", 2, "expected max column/row degrees"),
    ("2 2\n1 1\n1 1\n1\n1\n2\n1\n2\n", 4, "expected 2 row degrees, got 1"),
    ("2 2\n1 1\n2 1\n1 1\n1 2\n2\n1\n2\n", 4,
     "a degree exceeds the declared maximum"),
    ("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n", 7, "truncated neighbor lists"),
    ("2 2\n2 1\n2 0\n1 1\n1 1\n0 0\n1\n0\n", 5,
     r"duplicate entry \(row 1, column 1\)"),
    ("2 2\n1 2\n1 1\n1 0\n1\n1\n1 2\n0\n", 7,
     "row 1 lists 2 columns, degree says 1"),
])
def test_alist_section_errors_carry_path_and_line(tmp_path, content, lineno,
                                                  what):
    path = tmp_path / "bad.alist"
    path.write_text(content)
    with pytest.raises(ValueError, match=what) as err:
        read_alist(path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")


def test_partition_round_trip(tmp_path):
    p = Partition((1, 2, 1, 3, 2))
    path = tmp_path / "part.txt"
    with open(path, "w") as fh:
        write_partition(p, fh)
    assert path.read_text() == "1\n2\n1\n3\n2\n"
    back = read_partition(path)
    assert back.labels == p.labels and back.k == 3


def test_partition_k_inferred_as_max_label(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("1\n1\n2\n")
    assert read_partition(path).k == 2


def test_partition_with_empty_part_rejected(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("1\n3\n1\n")
    with pytest.raises(ValueError, match="parts must be non-empty"):
        read_partition(path)
    # explicit part count creating an empty trailing part is also rejected
    path.write_text("1\n2\n1\n")
    with pytest.raises(ValueError, match="parts must be non-empty"):
        read_partition(path, parts=3)


def test_partition_parse_errors(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("1\nzz\n")
    with pytest.raises(ValueError, match=":2:"):
        read_partition(path)
    path.write_text("0\n")
    with pytest.raises(ValueError, match="1-based"):
        read_partition(path)
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_partition(path)
