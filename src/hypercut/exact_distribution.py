"""Exact finite-size cutsize distributions via generating functions.

For the regular ensemble E(n, gamma, delta), the expected number of labeled
bipartitions with cutsize s and first-part size m1 is

    avg(s, m1) = C(m, m1) * C(n, s) / C(delta*m, delta*m1)
                 * coef( p(u)^s * q(u)^(n-s), u^(delta*m1) )

with p(u) = (1+u)^gamma - 1 - u^gamma enumerating the active-socket patterns
of a cut net and q(u) = 1 + u^gamma those of an uncut one, and the value is
zero whenever s > delta*m1 or s > delta*(m - m1).

Every coefficient comes from one kernel.  ``_cut_powers`` walks the powers
p^s by one multiplication with p each, and ``_coeff`` expands q^t by the
binomial theorem, coef(p^s q^t, u^k) = sum_r C(t, r) * coef(p^s, u^(k -
gamma*r)).  A full table walks the powers once; a single cell walks them up
to its s.  Coefficients are arbitrary-precision integers.

Cell (s, m1) is the integer C(m, m1) * C(n, s) * coef over C(delta*m,
delta*m1).  A ``CutsizeTable`` holds these numerators and checks its
identities in integers; the single-cell functions take the same integers.
A reduced ``Fraction`` is built only when a cell, a sum over cells or a CSV
row is asked for; the log2 evaluator, the one float path, logs both parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import CapExceeded, _bipartition_ratio, _max_part_size
from .ensemble import EnsembleParams

_MAX_TABLE_N = 1000


def _cut_powers(gamma: int) -> Iterator[list[int]]:
    """Coefficient lists of p(u)^s for s = 0, 1, 2, ...

    Entry i of each list is the coefficient of u^i and the last entry is
    nonzero.  p has the gamma - 1 terms C(gamma, j) u^j, 0 < j < gamma (a
    degree-gamma net is cut iff 1 to gamma-1 of its sockets are active), so
    for gamma = 1 it is zero: p^0 = [1] and every later power is empty.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    terms = [(j, math.comb(gamma, j)) for j in range(1, gamma)]
    power = [1]
    while True:
        yield power
        nxt = [0] * (len(power) + gamma - 1) if terms else []
        for j, c in terms:
            for i, a in enumerate(power, j):
                nxt[i] += c * a
        power = nxt


def _cut_power(gamma: int, s: int) -> list[int]:
    """Coefficient list of p(u)^s."""
    return next(islice(_cut_powers(gamma), s, None))


def _binomial_row(t: int) -> list[int]:
    """[C(t, 0), C(t, 1), ..., C(t, t)]."""
    row = [1]
    for r in range(t):
        row.append(row[-1] * (t - r) // (r + 1))
    return row


def _coeff(power: list[int], gamma: int, row: list[int], k: int) -> int:
    """coef(p^s * q^t, u^k) from p^s = ``power`` and ``row`` = C(t, .).

    q^t = sum_r C(t, r) u^(gamma*r), so only the r with 0 <= k - gamma*r
    <= deg p^s contribute.
    """
    r_lo = max(0, -(-(k - len(power) + 1) // gamma))
    r_hi = min(len(row) - 1, k // gamma)
    return sum(row[r] * power[k - gamma * r] for r in range(r_lo, r_hi + 1))


def _numerators(params: EnsembleParams, s: int, power: list[int],
                 m1s: Iterable[int]) -> list[int]:
    """C(m, m1) * C(n, s) * coef(p^s q^(n-s), u^(delta*m1)) for m1 in ``m1s``.

    ``power`` is p^s.  Each is the numerator of avg(s, m1) over
    C(delta*m, delta*m1), and is zero outside the support.
    """
    n, m, g, d = params.n, params.m, params.gamma, params.delta
    c_ns = math.comb(n, s)
    row = _binomial_row(n - s)
    nums = []
    for m1 in m1s:
        coef = 0
        if s <= d * m1 and s <= d * (m - m1):
            coef = _coeff(power, g, row, d * m1)
        nums.append(math.comb(m, m1) * c_ns * coef if coef else 0)
    return nums


def _ratio_sum(nums: Sequence[int], dens: Sequence[int]) -> Fraction:
    """sum(a / b) as one reduced Fraction over the common denominator."""
    lcm = math.lcm(*dens)
    return Fraction(sum(a * (lcm // b) for a, b in zip(nums, dens)), lcm)


def constellation_coeff(gamma: int, s: int, n: int, k: int) -> int:
    """Coefficient of u^k in p(u)^s * q(u)^(n-s).

    Counts the ways to place k active sockets on n degree-gamma nets of
    which exactly the first s are cut.  Out-of-range k gives 0.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    if k < 0:
        return 0
    return _coeff(_cut_power(gamma, s), gamma, _binomial_row(n - s), k)


def _cells(params: EnsembleParams, s: int,
           m1s: Sequence[int]) -> tuple[list[int], list[int]]:
    """Table numerators and denominators of avg(s, m1) for m1 in ``m1s``.

    Off-grid indices raise ValueError.  Unless some cell lies on the
    support, the numerators are zeros and p^s is not walked.
    """
    n, m, d = params.n, params.m, params.delta
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}")
    for m1 in m1s:
        if not 0 <= m1 <= m:
            raise ValueError(f"need 0 <= m1 <= m, got m1={m1}")
    nums = (_numerators(params, s, _cut_power(params.gamma, s), m1s)
            if any(s <= d * min(m1, m - m1) for m1 in m1s) else [0] * len(m1s))
    return nums, [math.comb(d * m, d * m1) for m1 in m1s]


def expected_bipartitions(params: EnsembleParams, s: int, m1: int) -> Fraction:
    """Ensemble-average count of labeled bipartitions with cutsize s, |U1|=m1.

    Exact reduced rational.  Parts may be empty here (m1 in {0, m} is a
    legal index); balance filtering happens in the balanced variants.
    """
    (num,), (den,) = _cells(params, s, [m1])
    return Fraction(num, den)


def balanced_first_part_range(m: int, epsilon) -> tuple[int, int]:
    """Integer interval of |U1| allowed at imbalance eps (inclusive bounds).

    Lower bound rounds up, upper bound rounds down, so the range can be
    empty: odd m with eps = 0 admits no exactly balanced bipartition and
    yields (ceil(m/2), floor(m/2)).
    """
    hi = _max_part_size(m, 2, _bipartition_ratio(epsilon))
    return m - hi, hi


def expected_balanced_bipartitions(params: EnsembleParams, s: int,
                                   epsilon) -> Fraction:
    """Sum of ``expected_bipartitions`` over the eps-balanced |U1| range.

    Walks p^s and builds the C(n-s, .) row once for the whole range.
    """
    lo, hi = balanced_first_part_range(params.m, epsilon)
    return _ratio_sum(*_cells(params, s, range(lo, hi + 1)))


@dataclass(frozen=True, eq=False)
class CutsizeTable:
    """All exact values avg(s, m1) for s in [0, n], m1 in [0, m].

    Cell (s, m1) is ``num[s][m1] / den[m1]``: integer numerators over one
    positive denominator per m1 column, not necessarily in lowest terms.
    The accessors reduce on demand.
    """

    params: EnsembleParams
    num: Sequence[Sequence[int]]
    den: Sequence[int]

    @property
    def cells(self) -> dict[tuple[int, int], Fraction]:
        """Every cell as a reduced Fraction keyed (s, m1), built per access."""
        return {(s, m1): Fraction(a, b)
                for s, row in enumerate(self.num)
                for m1, (a, b) in enumerate(zip(row, self.den))}

    def _check_cell(self, s: int, m1: int) -> None:
        # KeyError, as the (s, m1) cell mapping gives; a negative list index
        # would silently wrap.
        if not (0 <= s <= self.params.n and 0 <= m1 <= self.params.m):
            raise KeyError((s, m1))

    def value(self, s: int, m1: int) -> Fraction:
        self._check_cell(s, m1)
        return Fraction(self.num[s][m1], self.den[m1])

    def row_sum(self, m1: int) -> Fraction:
        self._check_cell(0, m1)
        return Fraction(sum(row[m1] for row in self.num), self.den[m1])

    def total(self) -> Fraction:
        return sum(map(self.row_sum, range(self.params.m + 1)),
                   start=Fraction(0))

    def balanced_distribution(self, epsilon) -> dict[int, Fraction]:
        """Cutsize distribution of eps-balanced bipartitions, per s."""
        lo, hi = balanced_first_part_range(self.params.m, epsilon)
        dens = self.den[lo:hi + 1]
        return {s: _ratio_sum(row[lo:hi + 1], dens)
                for s, row in enumerate(self.num)}

    def __eq__(self, other) -> bool:
        """Equal iff both tables hold the same rational in every cell."""
        if not isinstance(other, CutsizeTable):
            return NotImplemented
        return self.params == other.params and all(
            x * b == y * a
            for row, orow in zip(self.num, other.num)
            for x, a, y, b in zip(row, self.den, orow, other.den))

    def validate(self) -> None:
        """Check the structural identities every exact table must satisfy.

        All in integers: non-negativity, the support s <= delta*min(m1,
        m - m1), symmetry m1 <-> m - m1 (cross-multiplied), row sums
        C(m, m1) and the total 2^m.
        """
        n, m, d = self.params.n, self.params.m, self.params.delta
        num, den = self.num, self.den
        if (len(num) != n + 1 or any(len(row) != m + 1 for row in num)
                or len(den) != m + 1 or min(den) <= 0):
            raise AssertionError("table is not (n+1) x (m+1) cells over "
                                 "m+1 positive denominators")
        for s, row in enumerate(num):
            k = -(-s // d)  # the support is k <= m1 <= m - k
            for m1, a in enumerate(row):
                if a < 0:
                    raise AssertionError(f"negative cell at {(s, m1)}")
                if a and not k <= m1 <= m - k:
                    raise AssertionError(f"support violated at {(s, m1)}")
        cols = list(zip(*num))
        for m1 in range(m + 1):
            a, b = den[m1], den[m - m1]
            if a == b and cols[m1] == cols[m - m1]:
                continue
            for s, (x, y) in enumerate(zip(cols[m1], cols[m - m1])):
                if x * b != y * a:
                    raise AssertionError(f"symmetry broken at {(s, m1)}")
        sums = [sum(col) for col in cols]
        for m1 in range(m + 1):
            if sums[m1] != math.comb(m, m1) * den[m1]:
                raise AssertionError(f"row sum at m1={m1} is not C(m, m1)")
        if sum(c // b for c, b in zip(sums, den)) != 2 ** m:
            raise AssertionError("table total is not 2^m")


def cutsize_table(params: EnsembleParams) -> CutsizeTable:
    """Exact table of avg(s, m1) for every cell; identities are verified.

    Walks the powers p^s once, builds one binomial row C(n-s, .) per s, and
    takes every cell's coefficient from them with the same kernel that
    ``constellation_coeff`` uses.  Cells stay integer numerators over
    C(delta*m, delta*m1); no Fraction is built here.

    Cost, validation included (one run each, Python 3.11 on a 2-core
    Xeon VM; time and peak RSS):

        (gamma, delta)   n = 400    n = 1000           n = 2000
        (2, 4)           0.40 s     7.0 s,  72 MiB     69 s,  333 MiB
        (3, 6)           1.20 s     34 s,  157 MiB     704 s, 985 MiB

    so ``_MAX_TABLE_N`` stops at n = 1000, where a (3, 6) table takes
    about half a minute.
    """
    if params.n > _MAX_TABLE_N:
        raise CapExceeded(f"n = {params.n} exceeds the exact-table budget "
                          f"{_MAX_TABLE_N}")
    n, m, g, d = params.n, params.m, params.gamma, params.delta
    num = [_numerators(params, s, power, range(m + 1))
           for s, power in zip(range(n + 1), _cut_powers(g))]
    den = [math.comb(d * m, d * m1) for m1 in range(m + 1)]
    table = CutsizeTable(params, num, den)
    table.validate()
    return table


def log2_expected_bipartitions(params: EnsembleParams, s: int,
                               m1: int) -> float:
    """log2 of ``expected_bipartitions`` without building the huge rational.

    The difference of the logs of the exact cell's integer numerator and
    denominator; -inf where the cell is zero.
    """
    (num,), (den,) = _cells(params, s, [m1])
    return math.log2(num) - math.log2(den) if num else float("-inf")


def table_csv_text(table: CutsizeTable, suppress_zeros: bool = False) -> str:
    """CSV rows ``s,m1,A_num,A_den`` (exact integers) under a header line."""
    lines = ["s,m1,A_num,A_den"]
    for s, row in enumerate(table.num):
        for m1, (a, b) in enumerate(zip(row, table.den)):
            if suppress_zeros and a == 0:
                continue
            g = math.gcd(a, b)
            lines.append(f"{s},{m1},{a // g},{b // g}")
    return "\n".join(lines) + "\n"


def write_table_csv(table: CutsizeTable, path: str | Path,
                    suppress_zeros: bool = False) -> int:
    """Write ``table_csv_text`` to ``path``; returns the data row count."""
    text = table_csv_text(table, suppress_zeros)
    Path(path).write_text(text)
    return text.count("\n") - 1


def balanced_csv_text(table: CutsizeTable, epsilon,
                      suppress_zeros: bool = False) -> str:
    """CSV rows ``s,B_num,B_den`` for the eps-balanced distribution."""
    dist = table.balanced_distribution(epsilon)
    lines = ["s,B_num,B_den"]
    for s in range(table.params.n + 1):
        val = dist[s]
        if suppress_zeros and val == 0:
            continue
        lines.append(f"{s},{val.numerator},{val.denominator}")
    return "\n".join(lines) + "\n"


def write_balanced_csv(table: CutsizeTable, epsilon, path: str | Path,
                       suppress_zeros: bool = False) -> int:
    """Write ``balanced_csv_text`` to ``path``; returns the data row count."""
    text = balanced_csv_text(table, epsilon, suppress_zeros)
    Path(path).write_text(text)
    return text.count("\n") - 1
