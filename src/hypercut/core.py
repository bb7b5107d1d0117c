"""Sparse binary matrices, their hypergraph view, balanced partitions and cuts.

A binary m x n matrix is read as a hypergraph: row i becomes vertex u_i,
column j becomes net e_j containing the vertices of the column's support.
Partition quality is the cutsize: the number of nets touching two or more
parts.  A matrix admits a row/column permutation into K nonsingular diagonal
blocks (one per part, enabling K-way parallel back-substitution) only if some
eps-balanced K-way partition has cutsize at most n - m; the checkers here
decide per-partition feasibility exactly over GF(2) and find the minimum
cutsize of small instances exactly, by a branch-and-bound search over
balanced labelings.

Nets are stored socket-level as multisets (the configuration model produces
multigraphs); every connection test uses the support.  Partitions are
labeled: (U1, U2) and its swap are distinct objects.  Balance comparisons
are exact rational arithmetic, never floating point.

Supports and parts are vertex bitmasks: one cut test (``_cut``) and one GF(2)
eliminator (``_gf2_basis``) serve every caller, and one scan over K
(``_min_cut_scan``) serves ``max_parallel_degree`` and ``hypercut check``.
The minimum-cut search keeps its cut incrementally, as a bitmask of nets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

#: Default ceiling on the number of enumerated items (assignments K^m,
#: socket permutations xi!, ...) accepted by exhaustive routines.
DEFAULT_ENUM_CAP = 1 << 24


class CapExceeded(ValueError):
    """An exhaustive enumeration would exceed its configured cap."""


def as_ratio(value: int | float | str | Fraction) -> Fraction:
    """Read an imbalance ratio as an exact, non-negative ``Fraction``.

    A ``Fraction`` is returned as it is.  Floats go through their shortest
    decimal representation, so ``0.2`` means exactly 1/5 rather than the
    nearest binary double, and ``float(as_ratio(x)) == x`` for every finite
    float.  Strings are parsed directly (``"1/3"``, ``"0.05"``, ``"2e-2"``
    all work).  Every epsilon is read here, in the library and on the
    command line, so the errors are the same in both: ``ValueError`` for a
    non-finite float, a zero denominator (``"1/0"``) or a negative ratio,
    ``TypeError`` for any other type.
    """
    if isinstance(value, Fraction):
        eps = value
    else:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"ratio must be finite, got {value!r}")
            value = str(value)
        elif not isinstance(value, (int, str)):
            raise TypeError(f"cannot interpret {value!r} as a ratio")
        try:
            eps = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"epsilon {value!r} has a zero denominator") \
                from None
    if eps.numerator < 0:
        raise ValueError("epsilon must be non-negative")
    return eps


def _bipartition_ratio(epsilon) -> Fraction:
    """``as_ratio`` plus the bipartition bound eps < 1: at eps >= 1 a part
    of an eps-balanced bipartition may be empty.  Both the exact and the
    asymptotic layer read their eps here."""
    eps = as_ratio(epsilon)
    if eps.numerator >= eps.denominator:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    return eps


@dataclass(frozen=True)
class BinaryMatrix:
    """Sparse m x n matrix over GF(2), stored as the set of 1-entries."""

    rows: int
    cols: int
    entries: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) out of bounds for "
                                 f"{self.rows} x {self.cols} matrix")

    @classmethod
    def from_dense(cls, array) -> "BinaryMatrix":
        """Build from equal-length rows of 0/1 values (any nonzero counts as
        1): nested lists, or anything that iterates like them."""
        try:  # float() rejects an entry that is itself a sequence
            rows = [[float(x) for x in row] for row in array]
        except TypeError:
            rows = None
        if rows is None or len({len(row) for row in rows}) > 1:
            raise ValueError("dense input must be 2-dimensional")
        return cls(len(rows), len(rows[0]) if rows else 0,
                   frozenset((r, c) for r, row in enumerate(rows)
                             for c, x in enumerate(row) if x))

    @classmethod
    def from_columns(cls, column_supports: Sequence[Iterable[int]],
                     rows: int) -> "BinaryMatrix":
        entries = {(r, j) for j, sup in enumerate(column_supports) for r in sup}
        return cls(rows, len(column_supports), frozenset(entries))

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c in self.entries:
            out[r][c] = 1
        return out

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.cols, self.rows,
                            frozenset((c, r) for r, c in self.entries))

    def row_masks(self) -> list[int]:
        """Rows as integers, bit c set iff entry (row, c) is 1."""
        masks = [0] * self.rows
        for r, c in self.entries:
            masks[r] |= 1 << c
        return masks

    def column_supports(self) -> list[frozenset[int]]:
        sups: list[set[int]] = [set() for _ in range(self.cols)]
        for r, c in self.entries:
            sups[c].add(r)
        return [frozenset(s) for s in sups]


@dataclass(frozen=True)
class Hypergraph:
    """m vertices and a list of nets, each a multiset of vertex indices.

    Multiplicity is kept (socket-level view); connection and cut tests use
    the deduplicated support.
    """

    vertex_count: int
    nets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(sorted(net)) for net in self.nets)
        object.__setattr__(self, "nets", norm)
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        for j, net in enumerate(norm):
            if not net:
                raise ValueError(f"net {j} is empty; nets must be non-empty")
            if net[0] < 0 or net[-1] >= self.vertex_count:
                raise ValueError(f"net {j} references a vertex out of range")

    @property
    def net_count(self) -> int:
        return len(self.nets)

    @cached_property
    def supports(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(net) for net in self.nets)

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << v for v in sup) for sup in self.supports)


@dataclass(frozen=True)
class Partition:
    """Labeled K-way partition: one part label in [1, k] per vertex.

    Every part must be non-empty; a bipartition and its swap are distinct.
    Labels and ``k`` must be integers (``TypeError`` otherwise, never a
    truncation).
    """

    labels: tuple[int, ...]
    k: int | None = None

    def __post_init__(self):
        labels = tuple(map(operator.index, self.labels))
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("partition needs at least one vertex")
        object.__setattr__(self, "k", max(labels) if self.k is None
                           else operator.index(self.k))
        if self.k < 1:
            raise ValueError("part count must be at least 1")
        seen = set()
        for v, lab in enumerate(labels):
            if not 1 <= lab <= self.k:
                raise ValueError(f"vertex {v} has label {lab} outside [1, {self.k}]")
            seen.add(lab)
        if len(seen) != self.k:
            raise ValueError("parts must be non-empty")

    @property
    def size(self) -> int:
        return len(self.labels)

    def part_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for lab in self.labels:
            sizes[lab - 1] += 1
        return sizes

    def members(self, part: int) -> tuple[int, ...]:
        return tuple(v for v, lab in enumerate(self.labels) if lab == part)


@dataclass(frozen=True)
class EncodabilityVerdict:
    """Result of the block-diagonalization feasibility check.

    ``per_part_rank`` holds (part size, GF(2) rank of the columns connecting
    only to that part) per part.  ``feasible`` is computed, not passed: it
    holds iff the partition is balanced and every part's rank equals its
    size.  When feasible, ``row_order``/``col_order`` give a witness
    permutation pair that places one nonsingular block per part on the
    diagonal.
    """

    feasible: bool = field(init=False)
    balanced: bool
    cutsize: int
    per_part_rank: tuple[tuple[int, int], ...]
    row_order: tuple[int, ...] | None = None
    col_order: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "feasible", self.balanced and all(
            r == s for s, r in self.per_part_rank))


def hypergraph_from_matrix(mat: BinaryMatrix) -> Hypergraph:
    """Column j of ``mat`` becomes net j; row i becomes vertex i.

    Rejects empty columns (nets must be non-empty).
    """
    for j, sup in enumerate(mat.column_supports()):
        if not sup:
            raise ValueError(f"column {j} is empty; nets must be non-empty")
    return _nonempty_nets(mat)


def _nonempty_nets(mat: BinaryMatrix) -> Hypergraph:
    """Hypergraph of the non-empty columns of ``mat``.  An empty net is never
    cut, so every cutsize equals that of the whole matrix."""
    return Hypergraph(mat.rows, tuple(sup for sup in mat.column_supports()
                                      if sup))


def matrix_from_hypergraph(h: Hypergraph) -> BinaryMatrix:
    """Support-level incidence matrix: entry (i, j) = 1 iff u_i in e_j."""
    return BinaryMatrix.from_columns(h.supports, h.vertex_count)


def tanner_to_hypergraph(variable_degrees: Sequence[int],
                         check_degrees: Sequence[int],
                         edge_list: Iterable[tuple[int, int]]) -> Hypergraph:
    """Turn a Tanner (multi)graph into its hypergraph.

    Check node i becomes vertex i; variable node j becomes net j.  Parallel
    edges are kept as multiset multiplicity.  ``edge_list`` holds
    (variable, check) index pairs; per-node edge counts must match the
    declared degrees.
    """
    n = len(variable_degrees)
    m = len(check_degrees)
    nets: list[list[int]] = [[] for _ in range(n)]
    check_seen = [0] * m
    for v, c in edge_list:
        if not 0 <= v < n:
            raise ValueError(f"edge endpoint: variable {v} out of range")
        if not 0 <= c < m:
            raise ValueError(f"edge endpoint: check {c} out of range")
        nets[v].append(c)
        check_seen[c] += 1
    for j in range(n):
        if len(nets[j]) != variable_degrees[j]:
            raise ValueError(f"variable {j}: {len(nets[j])} edges but "
                             f"degree {variable_degrees[j]} declared")
    for i in range(m):
        if check_seen[i] != check_degrees[i]:
            raise ValueError(f"check {i}: {check_seen[i]} edges but "
                             f"degree {check_degrees[i]} declared")
    return Hypergraph(m, tuple(nets))


def _masks(labels: Sequence[int], parts: int) -> list[int]:
    """Bitmask of each part 1..parts of a vertex labeling."""
    masks = [0] * parts
    for v, lab in enumerate(labels):
        masks[lab - 1] |= 1 << v
    return masks


def _cut(net_masks: Sequence[int], part_masks: Sequence[int]) -> int:
    """Number of nets whose support mask lies inside no part mask.  Net masks
    must be non-zero and part masks disjoint, so no net is inside two parts."""
    cut = len(net_masks)
    for pm in part_masks:
        for mk in net_masks:
            if mk | pm == pm:
                cut -= 1
    return cut


def cutsize(h: Hypergraph, p: Partition) -> int:
    """Number of nets whose support meets at least two parts."""
    if len(p.labels) != h.vertex_count:
        raise ValueError("partition does not cover the hypergraph's vertices")
    return _cut(h.support_masks, _masks(p.labels, p.k))


def _max_part_size(m: int, k: int, epsilon) -> int:
    """Largest part size of an eps-balanced k-way partition of m vertices:
    floor((m/k)(1+eps)), exact because ``as_ratio`` reads eps."""
    return math.floor(Fraction(m, k) * (1 + as_ratio(epsilon)))


def is_balanced(p: Partition, epsilon) -> bool:
    """max part size <= (m/K)(1+eps), compared in exact rationals."""
    return max(p.part_sizes()) <= _max_part_size(p.size, p.k, epsilon)


def _gf2_basis(vectors: Iterable[int]) -> list[int]:
    """Indices of the GF(2) bitmask ``vectors`` that are independent of
    the vectors before them: a basis, picked greedily in order."""
    basis: dict[int, int] = {}
    picked: list[int] = []
    for i, v in enumerate(vectors):
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                picked.append(i)
                break
    return picked


def gf2_rank(mat: BinaryMatrix) -> int:
    """Rank over GF(2) by elimination on bitmask rows."""
    return len(_gf2_basis(mat.row_masks()))


def check_block_diagonalizable(mat: BinaryMatrix, p: Partition,
                               epsilon) -> EncodabilityVerdict:
    """Decide whether ``p`` certifies K-way block-diagonal encodability.

    For each part, the candidate diagonal block must be built from columns
    exclusive to that part (connecting to none of the others); a square
    nonsingular block of size |U_i| exists iff those columns have GF(2)
    rank |U_i|.  Feasible additionally requires the partition to be
    eps-balanced.
    """
    if len(p.labels) != mat.rows:
        raise ValueError(f"dimension mismatch: partition covers {len(p.labels)} "
                         f"vertices, matrix has {mat.rows} rows")
    balanced = is_balanced(p, epsilon)
    cols = mat.transpose().row_masks()
    parts = _masks(p.labels, p.k)
    cut = _cut([mk for mk in cols if mk], parts)

    per_part: list[tuple[int, int]] = []
    diag_cols: list[int] = []
    for pm in parts:
        # All-zero columns are neither cut nor exclusive to any part.
        exclusive = [j for j, mk in enumerate(cols)
                     if mk and not _cut((mk,), (pm,))]
        picked = [exclusive[i]
                  for i in _gf2_basis(cols[j] for j in exclusive)]
        per_part.append((pm.bit_count(), len(picked)))
        diag_cols += picked

    verdict = EncodabilityVerdict(balanced, cut, tuple(per_part))
    if not verdict.feasible:
        return verdict
    diag = set(diag_cols)
    return replace(verdict,
                   row_order=tuple(v for part in range(1, p.k + 1)
                                   for v in p.members(part)),
                   col_order=tuple(diag_cols + [j for j in range(mat.cols)
                                                if j not in diag]))


def min_cutsize_bruteforce(h: Hypergraph, parts: int, epsilon,
                           cap: int = DEFAULT_ENUM_CAP) -> tuple[int, Partition]:
    """Exact minimum cutsize over eps-balanced ``parts``-way partitions.

    A depth-first branch and bound over restricted-growth label strings
    (Knuth, TAOCP 4A, 7.2.1.5): vertices are labeled in order, labels are
    tried in increasing order, and a vertex's label is at most one more than
    the largest label before it.  A branch ends when a part would outgrow
    the balance limit, when its empty parts outnumber its unplaced vertices,
    or when the nets it already cuts reach the best cut found so far; the
    search ends at a cut of 0.  Relabeling parts changes neither balance nor
    cut, so the first minimiser in ``itertools.product`` order is its own
    restricted-growth form; that labeling is the argmin returned.

    Still exponential, so it is only usable at desk scale; ``cap`` gates the
    nominal parts^m assignments, not the labelings visited.  Raises
    ValueError before searching when no eps-balanced partition exists
    (parts * max part size < m).
    """
    m = h.vertex_count
    if parts < 1:
        raise ValueError("part count must be at least 1")
    if parts > m:
        raise ValueError(f"no partition into {parts} non-empty parts exists "
                         f"for {m} vertices")
    if parts ** m > cap:
        raise CapExceeded(f"{parts}^{m} assignments exceed cap {cap}")
    limit = _max_part_size(m, parts, epsilon)
    if parts * limit < m:
        raise ValueError(f"no {epsilon}-balanced partition into {parts} "
                         f"non-empty parts exists for {m} vertices")

    # Net j is cut once a vertex of its support takes a part other than the
    # one its first vertex opened it in.  Per vertex, as net bitmasks: the
    # nets it opens, and the nets it joins after their first vertex.
    opens = [0] * m
    joins = [0] * m
    for j, sup in enumerate(h.supports):
        first = min(sup)
        opens[first] |= 1 << j
        for v in sup - {first}:
            joins[v] |= 1 << j
    opened = [0] * (parts + 1)  # nets opened in each part
    sizes = [0] * (parts + 1)
    labels = [0] * m            # 0: not placed
    cuts = [0] * (m + 1)        # cuts[v]: nets cut by labels[:v]
    tops = [0] * (m + 1)        # tops[v]: largest label in labels[:v]
    best_cut, best = h.net_count + 1, None
    v = 0
    while v >= 0:
        lab = labels[v]
        if lab:  # take vertex v out of its part before trying the next one
            sizes[lab] -= 1
            opened[lab] ^= opens[v]
        top = tops[v]
        # When the empty parts match the unplaced vertices, v opens a part.
        lab = max(lab + 1, top + 1 if parts - top == m - v else 1)
        while lab <= top + 1 and lab <= parts:
            if sizes[lab] < limit:
                cut = cuts[v] | (joins[v] & ~opened[lab])
                if cut.bit_count() < best_cut:
                    break
            lab += 1
        else:
            labels[v] = 0
            v -= 1
            continue
        labels[v] = lab
        sizes[lab] += 1
        opened[lab] |= opens[v]
        if v + 1 < m:
            cuts[v + 1] = cut
            tops[v + 1] = max(top, lab)
            v += 1
            continue
        best_cut, best = cut.bit_count(), tuple(labels)
        if best_cut == 0:
            break
    return best_cut, Partition(best, parts)


def _min_cut_scan(mat: BinaryMatrix, epsilon, cap: int
                  ) -> Iterator[tuple[int, int | None, int]]:
    """Yield (K, min cutsize over eps-balanced K-way partitions or None if
    there is none, largest K' <= K with n - m >= min cutsize, or 1) for
    K = 1..m.  Raises ``CapExceeded`` at the first K whose K^m assignments
    exceed ``cap``, as every later K would too."""
    h = _nonempty_nets(mat)
    slack = mat.cols - mat.rows
    best = 1
    for k in range(1, mat.rows + 1):
        try:
            mincut = min_cutsize_bruteforce(h, k, epsilon, cap=cap)[0]
        except CapExceeded:  # a ValueError too, but it ends the scan
            raise
        except ValueError:
            mincut = None
        if mincut is not None and slack >= mincut:
            best = k
        yield k, mincut, best


def max_parallel_degree(mat: BinaryMatrix, epsilon,
                        cap: int = DEFAULT_ENUM_CAP) -> int:
    """Largest K with n - m >= min cutsize over eps-balanced K-way partitions.

    Returns 1 when no K >= 2 qualifies.  All K in [2, m] are scanned:
    existence of a balanced partition is not monotone in K (odd m with
    eps = 0 has no balanced bipartition but a balanced m-way partition).
    """
    return max((best for _, _, best in _min_cut_scan(mat, epsilon, cap)),
               default=1)
