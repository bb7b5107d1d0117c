"""alist parity-check matrix files and plain-text partition files.

alist layout::

    n m
    max_col_degree max_row_degree
    <n column degrees>
    <m row degrees>
    n lines of 1-based row indices per column, zero-padded
    m lines of 1-based column indices per row, zero-padded

Zero entries are padding and are ignored on read.  The writer pads every
neighbor line to the declared maximum degree.

A partition file holds one 1-based part label per vertex per line; the part
count is inferred as the largest label.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from .core import BinaryMatrix, Partition


def _parse_ints(token_line: str, lineno: int, path) -> list[int]:
    try:
        return [int(tok) for tok in token_line.split()]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: expected integers: {exc}") from None


def read_alist(path: str | Path) -> BinaryMatrix:
    """Parse an alist file into a ``BinaryMatrix``.

    Errors carry 1-based line numbers.  Column and row sections are
    cross-checked against each other.
    """
    path = Path(path)
    raw = path.read_text().splitlines()
    lines = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    need = 4
    if len(lines) < need:
        raise ValueError(f"{path}:1: truncated alist header")

    lineno, header = lines[0]
    vals = _parse_ints(header, lineno, path)
    if len(vals) != 2:
        raise ValueError(f"{path}:{lineno}: header must be 'n m'")
    n, m = vals
    if n < 1 or m < 1:
        raise ValueError(f"{path}:{lineno}: dimensions must be positive")

    lineno, degline = lines[1]
    vals = _parse_ints(degline, lineno, path)
    if len(vals) != 2:
        raise ValueError(f"{path}:{lineno}: expected max column/row degrees")
    cmax, rmax = vals

    lineno, cdegline = lines[2]
    col_deg = _parse_ints(cdegline, lineno, path)
    if len(col_deg) != n:
        raise ValueError(f"{path}:{lineno}: expected {n} column degrees, "
                         f"got {len(col_deg)}")
    lineno, rdegline = lines[3]
    row_deg = _parse_ints(rdegline, lineno, path)
    if len(row_deg) != m:
        raise ValueError(f"{path}:{lineno}: expected {m} row degrees, "
                         f"got {len(row_deg)}")
    if max(col_deg, default=0) > cmax or max(row_deg, default=0) > rmax:
        raise ValueError(f"{path}:{lineno}: a degree exceeds the declared maximum")

    if len(lines) < 4 + n + m:
        raise ValueError(f"{path}:{lines[-1][0]}: truncated neighbor lists "
                         f"(expected {4 + n + m} non-blank lines)")

    entries: set[tuple[int, int]] = set()
    for j in range(n):
        lineno, line = lines[4 + j]
        neigh = [x for x in _parse_ints(line, lineno, path) if x != 0]
        if len(neigh) != col_deg[j]:
            raise ValueError(f"{path}:{lineno}: column {j + 1} lists "
                             f"{len(neigh)} rows, degree says {col_deg[j]}")
        for r in neigh:
            if not 1 <= r <= m:
                raise ValueError(f"{path}:{lineno}: row index {r} out of range")
            if (r - 1, j) in entries:
                raise ValueError(f"{path}:{lineno}: duplicate entry "
                                 f"(row {r}, column {j + 1})")
            entries.add((r - 1, j))

    mat = BinaryMatrix(m, n, frozenset(entries))
    row_supports = mat.transpose().column_supports()
    for i in range(m):
        lineno, line = lines[4 + n + i]
        neigh = {x for x in _parse_ints(line, lineno, path) if x != 0}
        if neigh != {c + 1 for c in row_supports[i]}:
            raise ValueError(f"{path}:{lineno}: row {i + 1} neighbor list "
                             f"disagrees with the column section")
        if len(neigh) != row_deg[i]:
            raise ValueError(f"{path}:{lineno}: row {i + 1} lists "
                             f"{len(neigh)} columns, degree says {row_deg[i]}")
    return mat


def write_alist(mat: BinaryMatrix, fh: TextIO) -> None:
    """Write ``mat`` to ``fh`` in alist format (columns first, zero-padded)."""
    cols = [sorted(r + 1 for r in sup) for sup in mat.column_supports()]
    rows = [sorted(c + 1 for c in sup)
            for sup in mat.transpose().column_supports()]
    cmax = max((len(c) for c in cols), default=0)
    rmax = max((len(r) for r in rows), default=0)

    def padded(idx: list[int], width: int) -> str:
        # at least one token so degree-0 lines stay non-blank
        return " ".join(str(x) for x in idx + [0] * (max(width, 1) - len(idx)))

    out = [f"{mat.cols} {mat.rows}",
           f"{cmax} {rmax}",
           " ".join(str(len(c)) for c in cols),
           " ".join(str(len(r)) for r in rows)]
    out += [padded(c, cmax) for c in cols]
    out += [padded(r, rmax) for r in rows]
    fh.writelines(line + "\n" for line in out)


def read_partition(path: str | Path, parts: int | None = None) -> Partition:
    """Read one 1-based part label per line; infer K as the max label.

    ``parts`` optionally forces the part count; any empty part in [1, K]
    is rejected.
    """
    path = Path(path)
    labels: list[int] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            lab = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected one integer label, "
                             f"got {line!r}") from None
        if lab < 1:
            raise ValueError(f"{path}:{lineno}: labels are 1-based, got {lab}")
        labels.append(lab)
    if not labels:
        raise ValueError(f"{path}:1: empty partition file")
    return Partition(tuple(labels), parts)


def write_partition(p: Partition, fh: TextIO) -> None:
    """Write one 1-based part label per line to ``fh``."""
    fh.writelines(f"{lab}\n" for lab in p.labels)
