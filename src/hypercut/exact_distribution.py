"""Exact finite-size cutsize distributions via generating functions.

For the regular ensemble E(n, gamma, delta), the expected number of labeled
bipartitions with cutsize s and first-part size m1 is

    avg(s, m1) = C(m, m1) * C(n, s) / C(delta*m, delta*m1)
                 * coef( p(u)^s * q(u)^(n-s), u^(delta*m1) )

with p(u) = (1+u)^gamma - 1 - u^gamma enumerating the active-socket patterns
of a cut net and q(u) = 1 + u^gamma those of an uncut one, and the value is
zero whenever s > delta*m1 or s > delta*(m - m1).

A full table walks G_s = p^s * q^(n-s) itself, row to row.  G_0 = q^n
has C(n, r) at u^(gamma*r); dividing by q = 1 + u^gamma is exact while
s < n, and multiplying by p gives G_(s+1) = (G_s / q) * p.  Each step costs
O(gamma^2 * n) additions of big integers and small multiples of them, and no
product of two big integers.  A single cell instead builds p^s
coefficient by coefficient from the power recurrence of p/u
(``_cell_factors``) and expands q^t by the binomial theorem,
coef(p^s q^t, u^k) = sum_r C(t, r) * coef(p^s, u^(k - gamma*r)), so it does
not pay for G_0 ... G_s, and it builds only the C(t, r) that the nonzero
coefficients of p^s meet at its u^k; the two paths share no step and check
each other in the tests.  A single cell has its own budget, checked before
any of its work starts.  Coefficients are arbitrary-precision integers.

Cell (s, m1) is the integer C(m, m1) * C(n, s) * coef over C(delta*m,
delta*m1).  A ``CutsizeTable`` holds these numerators and checks its
identities in integers, one row at a time.  ``write_table_rows`` is the one
writer of the A table's CSV rows, and ``write_balanced_rows`` the one of
the B table's; like every writer in the package, each writes to an open
text handle.  ``stream_table_csv`` feeds ``write_table_rows`` the rows as
the walk makes them, through the same checks, without holding the table;
a held table passes its ``num`` and ``den``.  The single-cell functions
take the same integers.  A reduced ``Fraction`` is built only when a cell,
a sum over cells or a CSV row is asked for; the log2 evaluator, the one
float path, logs both parts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .core import CapExceeded, _bipartition_ratio, _max_part_size
from .ensemble import EnsembleParams

_MAX_TABLE_N = 1000
#: Largest xi = gamma*n of an exact table.  The kernel's work grows as
#: xi^3, and a numerator is below C(m, m1)*C(xi, delta*m1) < 2^(m + xi),
#: so at xi <= 4000 (m <= xi) every cell has at most 2409 decimal
#: digits, below the 4300-digit int-to-str limit of Python >= 3.11.
_MAX_TABLE_XI = 4000
#: Largest (n+1)*(m+1)*(m + xi) of a table held in memory: its cells
#: times the m + xi bits that bound each one.  (1000, 4, 4), at 5.0e9,
#: peaks at 399 MiB and passes; (1000, 4, 2), at 1.2e10, does not.
_MAX_TABLE_BITS = 6 * 10**9
#: Largest work of a single cell or balanced sum, in bit operations (one
#: bit times one bit of a schoolbook product, about 1e-12 s):
#: * the recurrence for p^s: (gamma-2)*s steps on numbers below
#:   2^(gamma*s), each an exact division by a one-digit integer plus
#:   gamma - 2 small multiples, at 64*(gamma+5) per bit;
#: * per cell, (gamma-2)*s//gamma + 1 products of a C(n - s, r) by a
#:   coefficient of p^s, (n - s)*gamma*s each;
#: * per cell, binomials of up to gamma*n bits, 32*(gamma*n)^2.
#: The (3, 6) cell at n = 20000, s = n/5 (4.0e11) takes about 0.26 s.  At
#: the bound the slowest single cells took 1.1-1.6 s and the slowest
#: balanced sums 1.5-2.0 s for each of gamma = 2, ..., 6, and no call
#: peaked above 29 MiB (Python 3.11 on a shared 2-core VM).
_MAX_CELL_WORK = 2 * 10**12
#: Largest n - s of a single cell: it builds the binomials C(n - s, r), of
#: up to n - s bits, that its cells read, one step of the row per r.  The
#: whole row at the bound took 0.8 s and 246 MiB.
_MAX_CELL_ROW = 50_000


def _times_p(poly: list[int], gamma: int) -> list[int]:
    """Coefficient list of poly(u) * p(u).

    p has the gamma - 1 terms C(gamma, j) u^j, 0 < j < gamma (a degree-gamma
    net is cut iff 1 to gamma-1 of its sockets are active), so for gamma = 1
    it is zero and the product is empty.
    """
    if gamma < 2:
        return []
    first = [gamma * a for a in poly]  # C(gamma, 1) = C(gamma, gamma - 1)
    out = [0, *first] + [0] * (gamma - 2)
    for j in range(2, gamma):
        c, end = math.comb(gamma, j), j + len(poly)
        term = first if j == gamma - 1 else [c * a for a in poly]
        out[j:end] = map(operator.add, out[j:end], term)
    return out


def _check_cell_budget(gamma: int, s: int, n: int, cells: int = 1) -> None:
    terms = max(0, gamma - 2) * s // gamma + 1  # r-sum products per cell
    work = (64 * (gamma + 5) * gamma * max(0, gamma - 2) * s * s
            + cells * (terms * (n - s) * gamma * s + 32 * (gamma * n) ** 2))
    if work > _MAX_CELL_WORK:
        raise CapExceeded(f"{work} bit operations for p^s and the r-sums "
                          f"and binomials of {cells} cell(s) exceed the "
                          f"single-cell budget {_MAX_CELL_WORK}")
    if n - s > _MAX_CELL_ROW:
        raise CapExceeded(f"n - s = {n - s} exceeds the single-cell budget "
                          f"{_MAX_CELL_ROW} of the C(n - s, .) row")


def _power_coeffs(gamma: int, s: int) -> Iterator[int]:
    """The coefficients a_0, ..., a_((gamma-2)*s) of f^s, where f = p/u.

    f_i = C(gamma, i + 1) and f_0 = gamma, so p^s is s zeros followed by
    these (for gamma = 1, p = 0 and there are none once s > 0).
    f*(f^s)' = s*f'*f^s gives them one at a time (J.C.P. Miller's
    recurrence for the power of a power series; Knuth, TAOCP 2, 4.7):
    a_0 = gamma^s and

        k*gamma*a_k = sum_(i=1..min(k, gamma-2)) ((s+1)*i - k) * f_i * a_(k-i),

    an exact division.  Each coefficient costs gamma - 2 small multiples of
    the ones before it, which are all that is held.
    """
    f = [math.comb(gamma, i + 1) for i in range(gamma - 1)]
    last = []  # a_(k-1), a_(k-2), ..., at most gamma - 2 of them
    for k in range((gamma - 2) * s + 1):
        a = (sum(((s + 1) * i - k) * f[i] * b
                 for i, b in enumerate(last, 1)) // (k * gamma)
             if k else gamma ** s)
        yield a
        last = [a, *last][:gamma - 2]


def _cell_factors(gamma: int, s: int, n: int,
                  ks: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """(power, r0, row) for the coefficients of u^k in p^s q^(n-s), k in
    ``ks``: row[i] = C(n - s, r0 + i) for the r that they read, and entry i
    of ``power`` is the coefficient of u^i in p(u)^s where they read it and
    0 elsewhere.

    p^s is nonzero from u^s to u^((gamma-1)*s), where ``power`` ends, so
    u^k reads only the r with s <= k - gamma*r <= (gamma-1)*s, and only
    the coefficients of u^(k - gamma*r) for those r; ``_power_coeffs`` makes
    every coefficient, and only those read are kept.  For gamma = 1,
    p^0 = [1] and every later power is empty.  A cell over its budget
    raises CapExceeded before any work.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    _check_cell_budget(gamma, s, n, len(ks))
    if gamma == 1 and s:
        return [], 0, []  # p = 0
    t = n - s
    r0 = max(0, -(-(min(ks) - (gamma - 1) * s) // gamma))
    r1 = min(t, (max(ks) - s) // gamma)
    row = [math.comb(t, r0)] if r0 <= r1 else []
    for r in range(r0, r1):
        row.append(row[-1] * (t - r) // (r + 1))
    # u^k reads a_j at j = k - s - gamma*r, r0 <= r <= r1.
    lo, hi = min(ks) - s - gamma * r1, max(ks) - s - gamma * r0
    classes = {(k - s) % gamma for k in ks}
    power = [0] * ((gamma - 1) * s + 1)
    for j, a in enumerate(_power_coeffs(gamma, s)):
        if lo <= j <= hi and j % gamma in classes:
            power[s + j] = a
    return power, r0, row


def _cut_products(n: int, gamma: int) -> Iterator[list[int]]:
    """Coefficient lists of G_s = p(u)^s * q(u)^(n-s) for s = 0, ..., n.

    Entry i is the coefficient of u^i.  G_s has degree gamma*n - s, so its
    list ends there (for gamma = 1, p = 0 and every G_s past G_0 is empty),
    and its entries below u^s are zero.  G_(s+1) is
    (G_s / q) * p, where the quotient H by q = 1 + u^gamma is the running
    difference H[k] = G[k] - H[k - gamma], exact while s < n.  It runs on
    each residue class of k mod gamma in turn, and a class that is all
    zero stays zero: for gamma = 2, G_s has only exponents of the parity
    of s, so half the classes are skipped at every step.
    """
    prod = [0] * (gamma * n + 1)
    prod[::gamma] = [math.comb(n, r) for r in range(n + 1)]  # q^n
    for _ in range(n):
        yield prod
        quot = prod[:len(prod) - gamma]
        for r in range(gamma):
            col = quot[r::gamma]
            if any(col):
                h = 0
                quot[r::gamma] = [h := g - h for g in col]
        prod = _times_p(quot, gamma)
    yield prod


def _coeff(power: list[int], gamma: int, r0: int, row: list[int],
           k: int) -> int:
    """coef(p^s * q^t, u^k) from p^s = ``power`` and row[i] = C(t, r0 + i).

    q^t = sum_r C(t, r) u^(gamma*r), so only the r with 0 <= k - gamma*r
    <= deg p^s contribute, and ``row`` must hold them.
    """
    r_lo = max(r0, -(-(k - len(power) + 1) // gamma))
    r_hi = min(r0 + len(row) - 1, k // gamma)
    return sum(row[r - r0] * power[k - gamma * r]
               for r in range(r_lo, r_hi + 1))


def _ratio_sum(dens: Sequence[int]) -> Callable[[Sequence[int]], Fraction]:
    """The map row -> sum(a / b) over the row, as one reduced Fraction.

    The common denominator of ``dens`` and its multipliers are computed once,
    for every row the map is applied to.
    """
    lcm = math.lcm(*dens)
    scale = [lcm // b for b in dens]
    return lambda row: Fraction(sum(map(operator.mul, row, scale)), lcm)


def constellation_coeff(gamma: int, s: int, n: int, k: int) -> int:
    """Coefficient of u^k in p(u)^s * q(u)^(n-s).

    Counts the ways to place k active sockets on n degree-gamma nets of
    which exactly the first s are cut.  Out-of-range k gives 0.
    """
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    if k < 0:
        return 0
    power, r0, row = _cell_factors(gamma, s, n, [k])
    return _coeff(power, gamma, r0, row, k)


def _cells(params: EnsembleParams, s: int,
           m1s: Sequence[int]) -> tuple[list[int], list[int]]:
    """Table numerators and denominators of avg(s, m1) for m1 in ``m1s``.

    The numerator is C(m, m1) * C(n, s) * coef(p^s q^(n-s), u^(delta*m1)),
    and zero off the support s <= delta*min(m1, m - m1).  Off-grid indices
    raise ValueError.  Unless some cell lies on the support, p^s is not
    built.
    """
    n, m, g, d = params.n, params.m, params.gamma, params.delta
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}")
    for m1 in m1s:
        if not 0 <= m1 <= m:
            raise ValueError(f"need 0 <= m1 <= m, got m1={m1}")
    supported = [s <= d * min(m1, m - m1) for m1 in m1s]
    nums = [0] * len(m1s)
    if any(supported):
        ks = [d * m1 for m1, on in zip(m1s, supported) if on]
        power, r0, row = _cell_factors(g, s, n, ks)
        c_ns = math.comb(n, s)
        for i, m1 in enumerate(m1s):
            coef = _coeff(power, g, r0, row, d * m1) if supported[i] else 0
            if coef:
                nums[i] = math.comb(m, m1) * c_ns * coef
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

    Builds p^s and the C(n-s, .) row once for the whole range.
    """
    lo, hi = balanced_first_part_range(params.m, epsilon)
    nums, dens = _cells(params, s, range(lo, hi + 1))
    return _ratio_sum(dens)(nums)


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
        ratio = _ratio_sum(self.den[lo:hi + 1])
        return {s: ratio(row[lo:hi + 1]) for s, row in enumerate(self.num)}

    def __eq__(self, other) -> bool:
        """Equal iff both tables hold the same rational in every cell."""
        if not isinstance(other, CutsizeTable):
            return NotImplemented
        # row[i] / den[i] == orow[i] / oden[i], cross-multiplied
        return self.params == other.params and all(
            x * b == y * a
            for row, orow in zip(self.num, other.num)
            for x, a, y, b in zip(row, self.den, orow, other.den))

    def validate(self) -> None:
        """Check the structural identities every exact table must satisfy.

        All in integers, row by row through ``_RowChecker``, the checker the
        streamed table uses: non-negativity, the support s <= delta*min(m1,
        m - m1), symmetry m1 <-> m - m1 (cross-multiplied), row sums
        C(m, m1) and the total 2^m.
        """
        n, m = self.params.n, self.params.m
        num, den = self.num, self.den
        if (len(num) != n + 1 or any(len(row) != m + 1 for row in num)
                or len(den) != m + 1 or min(den) <= 0):
            raise AssertionError("table is not (n+1) x (m+1) cells over "
                                 "m+1 positive denominators")
        checker = _RowChecker(self.params, den)
        for s, row in enumerate(num):
            checker.check(s, row)
        checker.finish()


class _RowChecker:
    """The identities of an exact table, checked one row at a time.

    ``check(s, row)`` tests row s for non-negativity, the support
    s <= delta*min(m1, m - m1) and the symmetry m1 <-> m - m1, which is
    row[m1] * den[m - m1] == row[m - m1] * den[m1], and adds the row to
    running column sums.  ``finish()`` then tests those sums against
    C(m, m1) * den[m1] and the total against 2^m.  Within a row, a negative
    or unsupported cell is reported before a broken symmetry, each at its
    lowest m1.
    """

    def __init__(self, params: EnsembleParams, den: Sequence[int]):
        self.m, self.delta, self.den = params.m, params.delta, den
        # Over mirrored denominators, such as C(delta*m, delta*m1), a row is
        # symmetric iff it reads the same backwards.
        self.mirrored = list(den) == list(den[::-1])
        self.sums = [0] * (params.m + 1)

    def check(self, s: int, row: Sequence[int]) -> None:
        m, den = self.m, self.den
        k = -(-s // self.delta)  # the support is k <= m1 <= m - k
        if min(row) < 0 or any(row[:k]) or any(row[max(0, m + 1 - k):]):
            for m1, a in enumerate(row):
                if a < 0:
                    raise AssertionError(f"negative cell at {(s, m1)}")
                if a and not k <= m1 <= m - k:
                    raise AssertionError(f"support violated at {(s, m1)}")
        if not (self.mirrored and row == row[::-1]):
            for m1 in range(m + 1):
                if row[m1] * den[m - m1] != row[m - m1] * den[m1]:
                    raise AssertionError(f"symmetry broken at {(s, m1)}")
        self.sums = list(map(operator.add, self.sums, row))

    def finish(self) -> None:
        m, den, sums = self.m, self.den, self.sums
        for m1 in range(m + 1):
            if sums[m1] != math.comb(m, m1) * den[m1]:
                raise AssertionError(f"row sum at m1={m1} is not C(m, m1)")
        if sum(c // b for c, b in zip(sums, den)) != 2 ** m:
            raise AssertionError("table total is not 2^m")


def _check_table_budget(params: EnsembleParams) -> None:
    if params.n > _MAX_TABLE_N:
        raise CapExceeded(f"n = {params.n} exceeds the exact-table budget "
                          f"{_MAX_TABLE_N}")
    if params.xi > _MAX_TABLE_XI:
        raise CapExceeded(f"xi = gamma*n = {params.xi} exceeds the "
                          f"exact-table budget {_MAX_TABLE_XI}")


def _check_table_memory(params: EnsembleParams) -> None:
    bits = (params.n + 1) * (params.m + 1) * (params.m + params.xi)
    if bits > _MAX_TABLE_BITS:
        raise CapExceeded(f"(n+1)(m+1)(m+xi) = {bits} bits exceed the "
                          f"in-memory table budget {_MAX_TABLE_BITS} bits; "
                          "stream_table_csv writes it a row at a time")


def _denominators(params: EnsembleParams) -> list[int]:
    """C(delta*m, delta*m1) for m1 = 0, ..., m."""
    dm = params.delta * params.m
    return [math.comb(dm, params.delta * m1) for m1 in range(params.m + 1)]


def _table_rows(params: EnsembleParams,
                den: Sequence[int]) -> Iterator[list[int]]:
    """Numerator rows of the exact table over ``den``, for s = 0, ..., n.

    Walks G_s = p^s * q^(n-s) from s = 0 to n (``_cut_products``) and reads
    row s as C(m, m1) * C(n, s) * G_s[delta*m1], from G_s[::delta]; the
    columns past the end of G_s are 0.  The support needs no mask, because
    G_s is zero below u^s and above u^(gamma*n - s).  Each row passes
    ``_RowChecker`` before it is yielded, and the column sums are checked
    after the last one, so a consumer that exhausts the stream has read a
    verified table.
    """
    n, m, g, d = params.n, params.m, params.gamma, params.delta
    c_m = [math.comb(m, m1) for m1 in range(m + 1)]
    checker = _RowChecker(params, den)
    for s, prod in enumerate(_cut_products(n, g)):
        c_ns = math.comb(n, s)
        row = [c_ns * a * c for c, a in zip(c_m, prod[::d])]
        row += [0] * (m + 1 - len(row))
        checker.check(s, row)
        yield row
    checker.finish()


def cutsize_table(params: EnsembleParams) -> CutsizeTable:
    """Exact table of avg(s, m1) for every cell; identities are verified.

    Collects the checked rows of ``_table_rows``: integer numerators over
    C(delta*m, delta*m1); no Fraction is built here.

    Cost, validation included (Python 3.11 on a shared 2-core Xeon VM, one
    fresh interpreter per table, range of 6 runs; time, and peak RSS at
    n = 1000):

        (gamma, delta)   n = 400         n = 1000
        (2, 4)           0.05-0.10 s     0.6-0.9 s,  56 MiB
        (3, 6)           0.16-0.25 s     2.0-3.4 s, 144 MiB
        (4, 8)           0.27-0.51 s     4.9-7.9 s, 194 MiB

    ``_MAX_TABLE_N`` stops at n = 1000 and ``_MAX_TABLE_XI`` at
    xi = gamma*n = 4000, where (1000, 4, 8) sits.  The table holds every
    cell, so its memory grows with the cube of n: the (n+1)(m+1) cells are
    integers of up to m + xi bits, and a small delta makes m large at the
    same xi.  ``_MAX_TABLE_BITS`` bounds that product, which keeps
    (1000, 4, 4) (399 MiB) and refuses (1000, 4, 2) before any work.
    ``stream_table_csv`` writes the same cells in memory that follows one
    row, which is how ``hypercut dist`` writes them, and has no such bound;
    ``write_table_rows(table.num, table.den, fh)`` writes a held table.
    """
    _check_table_budget(params)
    _check_table_memory(params)
    den = _denominators(params)
    return CutsizeTable(params, list(_table_rows(params, den)), den)


def log2_expected_bipartitions(params: EnsembleParams, s: int,
                               m1: int) -> float:
    """log2 of ``expected_bipartitions`` without building the huge rational.

    The difference of the logs of the exact cell's integer numerator and
    denominator; -inf where the cell is zero.
    """
    (num,), (den,) = _cells(params, s, [m1])
    return math.log2(num) - math.log2(den) if num else float("-inf")


def write_table_rows(rows: Iterable[Sequence[int]], den: Sequence[int],
                     fh: TextIO, suppress_zeros: bool = False) -> int:
    """Write the CSV rows ``s,m1,A_num,A_den`` of the numerator rows
    ``rows`` (s = 0, 1, ...) over the column denominators ``den`` to ``fh``
    under a header, one row at a time; returns the data row count.

    Each cell is written reduced.  A cell whose numerator and denominator
    both equal those of its mirror m - m1, already written, reuses the
    mirror's text; an exact table's rows and C(delta*m, delta*m1) columns
    are symmetric, so about half the gcds and decimal conversions are
    saved.  Any other cell is reduced on its own.
    """
    count = 0
    fh.write("s,m1,A_num,A_den\n")
    zeros = [f"{m1},0,1\n" for m1 in range(len(den))]
    for s, row in enumerate(rows):
        last = len(row) - 1
        texts = {}
        lines = []
        for m1, a in enumerate(row):
            if a == 0:
                if not suppress_zeros:
                    lines.append(zeros[m1])
                continue
            b, mirror = den[m1], last - m1
            if mirror < m1 and row[mirror] == a and den[mirror] == b:
                text = texts[mirror]
            else:
                g = math.gcd(a, b)
                text = texts[m1] = f"{a // g},{b // g}\n"
            lines.append(f"{m1},{text}")
        if lines:
            prefix = f"{s},"
            fh.write(prefix + prefix.join(lines))
            count += len(lines)
    return count


def stream_table_csv(params: EnsembleParams, fh: TextIO, epsilon=None,
                     suppress_zeros: bool = False
                     ) -> tuple[int, list[Fraction] | None]:
    """Write the A table of ``params`` to ``fh`` through
    ``write_table_rows``, one row at a time, without holding the table.

    Each row is computed, checked and written before the next; memory
    follows one row, plus the n + 1 values of the balanced column.  The
    column sums are checked after the last row, so an identity that fails
    raises AssertionError with rows already written: a caller writing to a
    file removes it.  Returns
    * the number of data rows written;
    * B(0), ..., B(n) of ``balanced_distribution(epsilon)`` when
      ``epsilon`` is given, else None (write them with
      ``write_balanced_rows``).
    """
    _check_table_budget(params)
    den = _denominators(params)
    rows = _table_rows(params, den)
    if epsilon is None:
        return write_table_rows(rows, den, fh, suppress_zeros), None
    lo, hi = balanced_first_part_range(params.m, epsilon)
    ratio, balanced = _ratio_sum(den[lo:hi + 1]), []

    def tapped():
        for row in rows:
            balanced.append(ratio(row[lo:hi + 1]))
            yield row

    return write_table_rows(tapped(), den, fh, suppress_zeros), balanced


def write_balanced_rows(values: Iterable[Fraction], fh: TextIO,
                        suppress_zeros: bool = False) -> int:
    """Write the CSV rows ``s,B_num,B_den`` of B(0), B(1), ... to ``fh``
    under a header; returns the data row count."""
    lines = [f"{s},{v.numerator},{v.denominator}\n"
             for s, v in enumerate(values) if v or not suppress_zeros]
    fh.write("s,B_num,B_den\n")
    fh.writelines(lines)
    return len(lines)
