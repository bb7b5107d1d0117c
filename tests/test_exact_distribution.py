import decimal
import hashlib
import io
import math
import random
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import exact_distribution
from hypercut.core import CapExceeded
from hypercut.ensemble import EnsembleParams, validate
from hypercut.exact_distribution import (CutsizeTable,
                                         balanced_first_part_range,
                                         constellation_coeff, cutsize_table,
                                         expected_balanced_bipartitions,
                                         expected_bipartitions,
                                         log2_expected_bipartitions,
                                         stream_table_csv,
                                         write_balanced_rows,
                                         write_table_rows)
from hypercut.oracle import exact_ensemble_average


def _a_text(table, suppress_zeros=False):
    """The A-table CSV of ``table`` as ``write_table_rows`` writes it."""
    fh = io.StringIO()
    write_table_rows(table.num, table.den, fh, suppress_zeros)
    return fh.getvalue()


# ---------------------------------------------------------------- oracles

def naive_mul(a, b):
    """Schoolbook convolution, written independently of the package."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_pow(a, e):
    out = [1]
    for _ in range(e):
        out = naive_mul(out, a)
    return out


def naive_p_q(gamma):
    """Coefficient lists of p(u) = (1+u)^gamma - 1 - u^gamma, trimmed, and
    q(u) = 1 + u^gamma."""
    p = [0] + [math.comb(gamma, j) for j in range(1, gamma)]
    while p and p[-1] == 0:
        p.pop()
    return p, [1] + [0] * (gamma - 1) + [1]


def naive_coef(gamma, s, n, k):
    p, q = naive_p_q(gamma)
    prod = naive_mul(naive_pow(p, s), naive_pow(q, n - s))
    return prod[k] if 0 <= k < len(prod) else 0


def ladder_times_p(poly, gamma):
    """poly(u) * p(u), one shifted multiple of poly per term of p, as the
    table walk multiplies (empty for gamma = 1, where p = 0)."""
    if gamma < 2:
        return []
    out = [0] * (len(poly) + gamma - 1)
    for j in range(1, gamma):
        c = math.comb(gamma, j)
        for i, a in enumerate(poly):
            out[i + j] += c * a
    return out


def ladder_power(gamma, s):
    """p(u)^s by s multiplies by p."""
    power = [1]
    for _ in range(s):
        power = ladder_times_p(power, gamma)
    return power


def ladder_cell_coeffs(gamma, s, n, ks, cells=0):
    """``_cell_coeffs`` with no band: coef(p^s q^(n-s), u^k) for k in
    ``ks`` from the whole of ``ladder_power`` and the whole row
    C(n - s, 0), ..., C(n - s, n - s)."""
    power = ladder_power(gamma, s)
    row = [math.comb(n - s, r) for r in range(n - s + 1)]
    return [sum(c * power[k - gamma * r] for r, c in enumerate(row)
                if 0 <= k - gamma * r < len(power)) for k in ks]


def same_cells(nums, dens, other_nums, other_dens):
    """Whether the table cells nums[i] / dens[i] and the single cells
    other_nums[i] / other_dens[i] hold the same numerator and denominator
    wherever the table's numerator is nonzero, and a zero numerator
    elsewhere: a zero cell is 0/C(delta*m, delta*m1) in the table and 0/1
    as a single cell."""
    return (len(nums) == len(dens) == len(other_nums) == len(other_dens)
            and min(other_dens) > 0
            and all((a, b) == (c, d) if a else c == 0 for a, b, c, d
                    in zip(nums, dens, other_nums, other_dens)))


def double_factorial(k):
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    return math.prod(range(k, 0, -2))


def gamma2_cells(n, delta):
    """Every cell A(s, m1) of E(n, 2, delta) from the pairing count.

    For gamma = 2 an instance pairs the xi = 2n sockets.  With a = delta*m1
    sockets in U1 and b = delta*(m - m1) in U2, a pairing with s cut nets
    picks s sockets on each side, matches them across in s! ways and pairs
    the rest within each side; none exists unless a - s and b - s are even
    (Bollobas, Europ. J. Combin. 9, 1988).  So

        A(s, m1) = C(m, m1) C(a, s) C(b, s) s! (a-s-1)!! (b-s-1)!! / (xi-1)!!

    and no polynomial is built.  Returns {(s, m1): Fraction}.
    """
    m = 2 * n // delta
    pairings = double_factorial(2 * n - 1)
    cells = {}
    for m1 in range(m + 1):
        a, b = delta * m1, delta * (m - m1)
        for s in range(n + 1):
            if s > min(a, b) or (a - s) % 2 or (b - s) % 2:
                cells[s, m1] = Fraction(0)
                continue
            count = (math.comb(m, m1) * math.comb(a, s) * math.comb(b, s)
                     * math.factorial(s) * double_factorial(a - s - 1)
                     * double_factorial(b - s - 1))
            cells[s, m1] = Fraction(count, pairings)
    return cells


def _ln_factorial(k):
    return math.lgamma(k + 1)


def _ln_comb(k, j):
    return _ln_factorial(k) - _ln_factorial(j) - _ln_factorial(k - j)


def _ln_pairings(k):
    """ln (2k-1)!!, the pairings of 2k sockets: (2k)! / (2^k k!)."""
    return _ln_factorial(2 * k) - k * math.log(2) - _ln_factorial(k)


def gamma2_log2_cell(n, delta, s, m1):
    """log2 of the cell A(s, m1) of ``gamma2_cells``, from the same pairing
    count written with ``math.lgamma``, so it costs O(1) at any n; -inf
    where the count is 0."""
    m = 2 * n // delta
    a, b = delta * m1, delta * (m - m1)
    if s > min(a, b) or (a - s) % 2 or (b - s) % 2:
        return float("-inf")
    ln = (_ln_comb(m, m1) + _ln_comb(a, s) + _ln_comb(b, s)
          + _ln_factorial(s) + _ln_pairings((a - s) // 2)
          + _ln_pairings((b - s) // 2) - _ln_pairings(n))
    return ln / math.log(2)


def _params(n, g, d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate(n, g, d)


# --------------------------------------------------------- coefficients

class TestConstellationCoeff:
    def test_frozen_values(self):
        assert constellation_coeff(2, 0, 4, 4) == 6   # coef((1+u^2)^4, u^4)
        assert constellation_coeff(2, 2, 4, 4) == 8   # coef(4u^2(1+u^2)^2, u^4)
        assert constellation_coeff(2, 4, 4, 4) == 16  # coef(16u^4, u^4)

    def test_out_of_range_is_zero(self):
        assert constellation_coeff(2, 0, 2, 99) == 0
        assert constellation_coeff(2, 0, 2, -1) == 0

    def test_bad_s_rejected(self):
        with pytest.raises(ValueError):
            constellation_coeff(2, 5, 4, 0)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma must be at least 1"):
            constellation_coeff(0, 0, 1, 0)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60)
    def test_matches_naive_expansion(self, gamma, data):
        n = data.draw(st.integers(0, 8))
        s = data.draw(st.integers(0, n))
        k = data.draw(st.integers(0, gamma * n + 1))
        assert constellation_coeff(gamma, s, n, k) == naive_coef(gamma, s, n, k)


class TestWalk:
    def test_products_match_naive(self):
        # Every G_s = p^s q^(n-s) of the table walk, against the schoolbook
        # product, which shares no code with it.
        for gamma in range(1, 6):
            p, q = naive_p_q(gamma)
            for n in range(11):
                walk = list(exact_distribution._cut_products(n, gamma))
                assert len(walk) == n + 1
                for s, prod in enumerate(walk):
                    want = naive_mul(naive_pow(p, s), naive_pow(q, n - s))
                    assert prod == want, (gamma, n, s)

    def test_times_p_matches_naive(self):
        # The product keeps the length len(poly) + gamma - 1 (empty for
        # gamma = 1), so the schoolbook product, which trims, is padded.
        rng = random.Random(24)
        polys = [[], [0], [0, 0, 0], [1], [5, 0, 0, 0, 7]]
        for _ in range(40):
            polys.append([rng.choice([0, 0, 0, rng.randint(-10**30, 10**30)])
                          for _ in range(rng.randint(1, 14))])
        for gamma in range(1, 7):
            p, _ = naive_p_q(gamma)
            for poly in polys:
                got = exact_distribution._times_p(poly, gamma)
                assert len(got) == (len(poly) + gamma - 1 if gamma > 1 else 0)
                want = naive_mul(poly, p)
                assert got == want + [0] * (len(got) - len(want)), (
                    gamma, poly)


class TestPowerRecurrence:
    """p^s of a single cell, from the power recurrence, against s multiplies
    by p and against closed forms."""

    @staticmethod
    def power(gamma, s):
        coeffs = list(exact_distribution._power_coeffs(gamma, s))
        return [0] * s + coeffs if coeffs else []

    def test_matches_ladder(self):
        for gamma in range(1, 8):
            for s in range(61):
                assert self.power(gamma, s) == ladder_power(gamma, s), (
                    gamma, s)
        for gamma in range(1, 5):
            for s in (97, 150, 400):
                assert self.power(gamma, s) == ladder_power(gamma, s), (
                    gamma, s)

    def test_closed_forms_at_bound_sizes(self):
        # p = 2u for gamma = 2 and p = 3u(1 + u) for gamma = 3.
        s = 100_000
        assert self.power(2, s) == [0] * s + [2 ** s]
        s = 4000
        want = [0] * s + [3 ** s]
        for j in range(s):  # 3^s C(s, j + 1) from 3^s C(s, j)
            want.append(want[-1] * (s - j) // (j + 1))
        assert self.power(3, s) == want

    @staticmethod
    def held(gamma, s, n, ks):
        """The result of ``_cell_coeffs(gamma, s, n, ks)``, and the
        binomials ``binom`` and coefficients ``power`` of f^s that it held
        when it returned, read from its frame."""
        kernel, frames = exact_distribution._cell_coeffs, []

        def spy(frame, event, arg):
            if event == "return" and frame.f_code is kernel.__code__:
                frames.append(dict(frame.f_locals))

        outer = sys.getprofile()
        sys.setprofile(spy)
        try:
            coeffs = kernel(gamma, s, n, ks)
        finally:
            sys.setprofile(outer)
        (held,) = frames
        return coeffs, held["binom"], held["power"]

    def test_cell_holds_only_what_it_reads(self):
        # p^s = u^s f^s is zero below u^s and above u^((gamma-1)*s), so
        # u^k reads the C(n - s, r) with s <= k - gamma*r <= (gamma-1)*s, at
        # most (gamma-2)*s//gamma + 1 of them, each against a_j of f^s at
        # j = k - s - gamma*r.  The kernel holds those and nothing else.
        for gamma, s, n, ks in [(2, 40, 100, [90]), (2, 7, 9, [9]),
                                (3, 30, 90, [120]), (5, 12, 60, [150]),
                                (4, 50, 60, [90]), (6, 40, 45, [200]),
                                (7, 30, 200, [300]), (1, 0, 30, [4, 9]),
                                (3, 30, 90, [100, 104, 120, 180]),
                                (4, 20, 100, [40, 300, 46])]:
            t = n - s
            spans = {k: [r for r in range(t + 1)
                         if s <= k - gamma * r <= (gamma - 1) * s]
                     for k in ks}
            assert all(len(rs) <= (gamma - 2) * s // gamma + 1
                       for rs in spans.values())
            full = list(exact_distribution._power_coeffs(gamma, s))
            coeffs, binom, power = self.held(gamma, s, n, ks)
            assert binom == {r: math.comb(t, r)
                             for rs in spans.values() for r in rs}
            assert power == {k - s - gamma * r: full[k - s - gamma * r]
                             for k, rs in spans.items() for r in rs}
            assert coeffs == ladder_cell_coeffs(gamma, s, n, ks)
        assert self.held(2, 40, 100, [90])[1] == {25: math.comb(60, 25)}
        assert self.held(3, 10, 20, [9]) == ([0], {}, {})

    def test_cells_match_ladder(self, monkeypatch):
        # Seeded values of every single-cell function, equal to those built
        # from ladder_cell_coeffs.
        rng = random.Random(29)
        calls = []
        while len(calls) < 5000:
            gamma = rng.randint(1, 7)
            delta = rng.randint(1, 8)
            n = rng.randint(1, 40)
            if gamma * n % delta:
                continue
            params = _params(n, gamma, delta)
            s = rng.randint(0, n)
            m1 = rng.randint(0, params.m)
            k = rng.randint(0, gamma * n + 1)
            calls += [(constellation_coeff, (gamma, s, n, k)),
                      (expected_bipartitions, (params, s, m1)),
                      (log2_expected_bipartitions, (params, s, m1)),
                      (expected_balanced_bipartitions, (params, s, 0)),
                      (expected_balanced_bipartitions, (params, s, "1/10"))]
        got = [f(*args) for f, args in calls]
        monkeypatch.setattr(exact_distribution, "_cell_coeffs",
                            ladder_cell_coeffs)
        want = [f(*args) for f, args in calls]
        assert got == want


# -------------------------------------------------- distribution values

class TestExpectedBipartitions:
    def test_e424_row_one(self):
        p = validate(4, 2, 4)
        assert expected_bipartitions(p, 0, 1) == Fraction(6, 35)
        assert expected_bipartitions(p, 2, 1) == Fraction(48, 35)
        assert expected_bipartitions(p, 4, 1) == Fraction(16, 35)
        assert expected_bipartitions(p, 1, 1) == 0
        assert expected_bipartitions(p, 3, 1) == 0

    def test_empty_part_corner(self):
        for p in (validate(4, 2, 4), validate(2, 3, 3), _params(5, 1, 5)):
            assert expected_bipartitions(p, 0, 0) == 1

    def test_e233_hand_counts(self):
        # m1 = 1: both nets uncut only as ({u1},{u2}) in either order, and
        # both cut whenever neither net sits inside a single vertex.
        p = validate(2, 3, 3)
        assert expected_bipartitions(p, 0, 1) == Fraction(1, 5)
        assert expected_bipartitions(p, 1, 1) == 0
        assert expected_bipartitions(p, 2, 1) == Fraction(9, 5)

    def test_row_sum_telescopes(self):
        p = validate(4, 2, 4)
        assert sum(expected_bipartitions(p, s, 1) for s in range(5)) == 2

    def test_index_validation(self):
        p = validate(4, 2, 4)
        with pytest.raises(ValueError):
            expected_bipartitions(p, -1, 0)
        with pytest.raises(ValueError):
            expected_bipartitions(p, 0, 5)


@st.composite
def table_params(draw):
    gamma = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    xi = gamma * n
    delta = draw(st.sampled_from([d for d in range(1, xi + 1) if xi % d == 0]))
    return _params(n, gamma, delta)


class TestCutsizeTable:
    @given(table_params())
    @settings(max_examples=25, deadline=None)
    def test_identities_and_cell_agreement(self, params):
        table = cutsize_table(params)  # validate() runs on construction
        assert table.total() == 2 ** params.m
        for m1 in range(params.m + 1):
            assert table.row_sum(m1) == math.comb(params.m, m1)
        for s in range(params.n + 1):
            for m1 in range(params.m + 1):
                assert table.value(s, m1) == expected_bipartitions(params, s, m1)
                assert table.value(s, m1) == table.value(s, params.m - m1)

    def test_out_of_range_cell_is_key_error(self):
        table = cutsize_table(validate(4, 2, 4))  # n = 4, m = 2
        for s, m1 in ((-1, 0), (0, -1), (5, 0), (0, 3)):
            with pytest.raises(KeyError):
                table.value(s, m1)
        for m1 in (-1, 3):
            with pytest.raises(KeyError):
                table.row_sum(m1)

    def test_never_equal_to_another_type(self):
        # __eq__ returns NotImplemented, so == falls back to identity
        table = cutsize_table(validate(4, 2, 4))
        assert (table == "x") is False
        assert table != "x"

    def test_budget_guard(self):
        with pytest.raises(CapExceeded, match="budget 1000"):
            cutsize_table(validate(1001, 2, 2))  # n = 1000 is the largest

    def test_budget_guard_counts_gamma(self):
        with pytest.raises(CapExceeded, match="xi = gamma\\*n = 16000 .* 4000"):
            cutsize_table(validate(2, 8000, 8000))
        # xi = 4000 is the largest: (1000, 4, 8) passes the check
        exact_distribution._check_table_budget(validate(1000, 4, 8))

    def test_memory_budget_counts_cells(self):
        # Same n and xi, smaller delta: more cells, each up to m + xi bits.
        # EnsembleParams, not validate, since delta < gamma would warn.
        check = exact_distribution._check_table_memory
        check(EnsembleParams(1000, 4, 8))  # 2.3e9 bits
        check(EnsembleParams(1000, 4, 4))  # 5.0e9 bits, 399 MiB measured
        budget = exact_distribution._MAX_TABLE_BITS
        for delta, bits in ((2, 1001 * 2001 * 6000), (1, 1001 * 4001 * 8000)):
            params = EnsembleParams(1000, 4, delta)
            exact_distribution._check_table_budget(params)  # n, xi pass
            with pytest.raises(CapExceeded,
                               match=f"= {bits} bits .* budget {budget} bits"):
                check(params)
            with pytest.raises(CapExceeded, match="in-memory table budget"):
                cutsize_table(params)

    @pytest.mark.parametrize("n, gamma, delta, digest", [
        (60, 2, 4,
         "df77c3da8183a34023aa24c9a6bf2d728a222aebea6a694d78dbc1a2274c3f1c"),
        (48, 3, 6,
         "355db24c559313e745268bb605c546517bf22d0aa2b69b1d399c3d72bcc63ffb"),
        (100, 4, 8,
         "8b8f0193b349bb3f1726100d4ecb9ba45d59a7de7ab1f0ec9f0db5a18333d278"),
    ])
    def test_golden_csv_digest(self, tmp_path, n, gamma, delta, digest):
        # The digest pins every digit of every cell; cells here run to
        # hundreds of digits, far beyond the n <= 10 property tests.
        out = tmp_path / "a.csv"
        table = cutsize_table(validate(n, gamma, delta))
        with open(out, "w") as fh:
            write_table_rows(table.num, table.den, fh)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, gamma, delta, digest", [
        (60, 2, 4,
         "934ab8b7e85fee6deaac2e74585f40d1ed03e8380f1d6695fb6e6aa854142475"),
        (48, 3, 6,
         "2eef7dfcfdcb34ea8a9a2014f5b57cf0502694ffa68967b83f95106984b20000"),
        (100, 4, 8,
         "b0f79f0f73401dc591b7f77537cfac1d2256a5af865c041ca9c3a61c82e83f03"),
    ])
    def test_golden_balanced_csv_digest(self, tmp_path, n, gamma, delta,
                                        digest):
        out = tmp_path / "b.csv"
        dist = cutsize_table(validate(n, gamma, delta)).balanced_distribution(
            Fraction(1, 10))
        with open(out, "w") as fh:
            write_balanced_rows(dist.values(), fh)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rows_match_single_cells_small(self):
        # The table walks G_s = p^s q^(n-s); single cells expand p^s against
        # a binomial row.  Every ensemble with gamma <= 5, n <= 12.
        for gamma in range(1, 6):
            for n in range(1, 13):
                for delta in range(1, gamma * n + 1):
                    if gamma * n % delta:
                        continue
                    params = _params(n, gamma, delta)
                    table = cutsize_table(params)
                    m1s = range(params.m + 1)
                    for s, row in enumerate(table.num):
                        assert same_cells(row, table.den,
                                          *exact_distribution._cells(
                                              params, s, m1s)), (
                            n, gamma, delta, s)

    @pytest.mark.parametrize("n, gamma, delta", [
        (300, 2, 4), (120, 3, 6), (100, 4, 8), (200, 1, 2)])
    def test_rows_match_single_cells_large(self, n, gamma, delta):
        # Whole rows at both ends of the walk and at six seeded cutsizes.
        params = validate(n, gamma, delta)
        table = cutsize_table(params)
        m1s = range(params.m + 1)
        rng = random.Random(f"{n}-{gamma}-{delta}")
        for s in [0, n, *rng.sample(range(1, n), 6)]:
            assert same_cells(table.num[s], table.den,
                              *exact_distribution._cells(params, s, m1s)), s

    @staticmethod
    def _bumped(params, *bumps):
        """The formula table with num[s][m1] += k for each (s, m1, k)."""
        table = cutsize_table(params)
        num = [list(row) for row in table.num]
        for s, m1, k in bumps:
            num[s][m1] += k
        return CutsizeTable(params, num, list(table.den))

    def test_validate_catches_corruption(self):
        params = validate(4, 2, 4)
        den = cutsize_table(params).den
        with pytest.raises(AssertionError):
            self._bumped(params, (0, 1, den[1])).validate()  # cell + 1

    def test_validate_row_sum_only(self):
        # A bump at (s, m1) and (s, m - m1) keeps support and symmetry, so
        # only the row sums see it.
        params = validate(6, 2, 3)  # m = 4
        den = cutsize_table(params).den
        table = self._bumped(params, (2, 1, den[1]), (2, 3, den[3]))
        with pytest.raises(AssertionError, match="row sum at m1=1"):
            table.validate()

    def test_validate_symmetry(self):
        params = validate(6, 2, 3)
        den = cutsize_table(params).den
        with pytest.raises(AssertionError,
                           match=r"symmetry broken at \(2, 1\)"):
            self._bumped(params, (2, 1, den[1])).validate()

    def test_validate_support(self):
        # No net can be cut when a part is empty (m1 = 0 or m), so s = 1
        # lies outside the support there.
        params = validate(4, 2, 4)
        with pytest.raises(AssertionError,
                           match=r"support violated at \(1, 0\)"):
            self._bumped(params, (1, 0, 1), (1, 2, 1)).validate()

    def test_validate_shape(self):
        params = validate(4, 2, 4)
        with pytest.raises(AssertionError, match=r"not \(n\+1\) x \(m\+1\)"):
            CutsizeTable(params, [[1]], [1]).validate()

    def test_validate_negative(self):
        params = validate(4, 2, 4)  # cell (1, 1) is zero
        with pytest.raises(AssertionError, match=r"negative cell at \(1, 1\)"):
            self._bumped(params, (1, 1, -1)).validate()

    def test_column_denominators_need_not_agree(self):
        # Column 1 of E(6, 2, 3) over 3 * C(12, 3): the same rationals, so
        # validate, the cells, the CSV and the cross-multiplied comparison
        # all see the table unchanged, and == compares values; then break it.
        params = validate(6, 2, 3)
        table = cutsize_table(params)
        num = [[a * 3 if m1 == 1 else a for m1, a in enumerate(row)]
               for row in table.num]
        den = [b * 3 if m1 == 1 else b for m1, b in enumerate(table.den)]
        scaled = CutsizeTable(params, num, den)
        scaled.validate()
        assert scaled.cells == table.cells
        assert scaled == table and table == scaled
        assert _a_text(scaled) == _a_text(table)
        num[2][1] += 1
        broken = CutsizeTable(params, num, den)
        assert broken != table
        with pytest.raises(AssertionError, match="symmetry broken"):
            broken.validate()

    def test_builds_and_validates_without_fractions(self, monkeypatch):
        def no_fraction(*args, **kwargs):
            raise RuntimeError("Fraction built")

        small = validate(4, 2, 4)
        monkeypatch.setattr(exact_distribution, "Fraction", no_fraction)
        table = cutsize_table(validate(60, 2, 4))
        table.validate()
        assert exact_ensemble_average(small) == cutsize_table(small)
        monkeypatch.undo()
        assert table.total() == 2 ** table.params.m


class TestBalanced:
    def test_range_even_odd(self):
        assert balanced_first_part_range(2, 0) == (1, 1)
        assert balanced_first_part_range(3, 0) == (2, 1)  # empty: odd m
        assert balanced_first_part_range(2, "0.999") == (1, 1)
        assert balanced_first_part_range(10, "0.2") == (4, 6)

    @given(st.integers(0, 200), st.fractions(0, 1).filter(lambda e: e < 1))
    def test_range_matches_ceil_floor(self, m, eps):
        assert balanced_first_part_range(m, eps) == (
            math.ceil(m * (1 - eps) / 2), math.floor(m * (1 + eps) / 2))

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            balanced_first_part_range(2, 1)
        with pytest.raises(ValueError):
            balanced_first_part_range(2, -0.5)

    def test_zero_denominator_rejected(self):
        p = validate(4, 2, 4)
        with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
            balanced_first_part_range(4, "1/0")
        with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
            expected_balanced_bipartitions(p, 0, "1/0")
        with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
            cutsize_table(p).balanced_distribution("1/0")

    def test_balanced_sum_equals_middle_row(self):
        p = validate(4, 2, 4)
        assert expected_balanced_bipartitions(p, 2, 0) == Fraction(48, 35)
        assert expected_balanced_bipartitions(p, 2, "0.999") == Fraction(48, 35)

    def test_odd_m_exactly_balanced_is_zero(self):
        p = _params(3, 2, 2)  # m = 3
        assert all(expected_balanced_bipartitions(p, s, 0) == 0
                   for s in range(4))

    def test_table_distribution_matches_pointwise(self):
        for n, gamma, delta, eps in ((6, 2, 3, "1/4"), (12, 3, 4, "1/2"),
                                     (20, 4, 5, "0.9")):
            p = validate(n, gamma, delta)
            dist = cutsize_table(p).balanced_distribution(eps)
            for s in range(n + 1):
                assert dist[s] == expected_balanced_bipartitions(p, s, eps)


class TestGammaTwoReference:
    """The gamma = 2 table against the closed pairing count of
    ``gamma2_cells``, at sizes where cells run to hundreds of digits, and
    single log2 cells against its lgamma form.  The largest m checked is
    100 for whole tables and 5120 for log2 cells."""

    @pytest.mark.parametrize("n, delta", [
        (6, 3), (30, 5), (99, 6), (150, 4), (200, 4)])
    def test_table_matches_pairing_count(self, n, delta):
        params = validate(n, 2, delta)
        table = cutsize_table(params)
        ref = gamma2_cells(n, delta)
        for s, row in enumerate(table.num):
            for m1, (a, b) in enumerate(zip(row, table.den)):
                assert Fraction(a, b) == ref[s, m1], (s, m1)

    @pytest.mark.parametrize("epsilon", [0, Fraction(1, 10)])
    @pytest.mark.parametrize("n, delta", [(99, 6), (150, 4), (200, 4)])
    def test_streamed_balanced_matches_pairing_count(self, n, delta, epsilon):
        params = validate(n, 2, delta)
        rows, balanced = stream_table_csv(params, io.StringIO(), epsilon)
        assert rows == (n + 1) * (params.m + 1)
        ref = gamma2_cells(n, delta)
        lo, hi = balanced_first_part_range(params.m, epsilon)
        assert balanced == [sum((ref[s, m1] for m1 in range(lo, hi + 1)),
                                start=Fraction(0))
                            for s in range(n + 1)]

    @pytest.mark.parametrize("n, delta", [
        (960, 3), (960, 4), (1920, 4), (7680, 3), (7680, 4), (20000, 4)])
    def test_log2_cells_match_lgamma_pairing_count(self, n, delta):
        # Seeded cells with s <= n/8 and m/4 <= m1 <= 3m/4, where an exact
        # cell at n = 20000 takes well under 0.1 s.  a - s and b - s share
        # a parity, so s + 1 has none of the pairings that s has.
        params = validate(n, 2, delta)
        rng = random.Random(n * delta)
        for _ in range(4):
            m1 = rng.randint(params.m // 4, 3 * params.m // 4)
            s = rng.randrange(0, n // 8, 2) + delta * m1 % 2
            ref = gamma2_log2_cell(n, delta, s, m1)
            assert math.isfinite(ref)
            got = log2_expected_bipartitions(params, s, m1)
            assert abs(got - ref) <= 1e-9, (s, m1)
            assert gamma2_log2_cell(n, delta, s + 1, m1) == float("-inf")
            assert log2_expected_bipartitions(params, s + 1, m1) \
                == float("-inf")


# The (10^6, 2, 4) cell at s = 10^5 and m1 = m/2 pays for its binomials of
# up to gamma*n bits and is refused by the work budget; the bare
# coefficient builds none, so it passes that budget and is refused by the
# row bound instead.  The coefficient at s = n = 10^9 reads no row but
# would build 2^s, and is refused by the work budget.
WORK_REFUSED = (r"^128220000000000 bit operations for p\^s, the r-sums of 1 "
                r"coefficient\(s\) and the binomials of 1 cell\(s\) exceed "
                r"the single-cell budget 2000000000000$")
POWER_REFUSED = (r"^4000000000000000000 bit operations for p\^s, the r-sums "
                 r"of 1 coefficient\(s\) and the binomials of 0 cell\(s\) "
                 r"exceed the single-cell budget 2000000000000$")
ROW_REFUSED = (r"^n - s = 900000 exceeds the single-cell budget 50000 of the "
               r"C\(n - s, \.\) row$")


class TestLog2:
    def test_frozen_value(self):
        p = validate(4, 2, 4)
        assert log2_expected_bipartitions(p, 2, 1) == pytest.approx(
            math.log2(48 / 35), abs=1e-12)

    def test_support_violation_is_minus_inf(self):
        p = validate(4, 2, 4)
        assert log2_expected_bipartitions(p, 1, 0) == float("-inf")
        assert log2_expected_bipartitions(p, 1, 1) == float("-inf")  # coef 0

    def test_corner_is_zero(self):
        p = validate(4, 2, 4)
        assert log2_expected_bipartitions(p, 0, 0) == 0.0

    @pytest.mark.parametrize("s, m1", [(0, -1), (0, 5), (9, 2)])
    def test_out_of_range_index_raises_as_exact_path(self, s, m1):
        p = validate(8, 2, 4)  # n = 8, m = 4
        messages = []
        for evaluate in (expected_bipartitions, log2_expected_bipartitions):
            with pytest.raises(ValueError, match="need 0 <=") as exc:
                evaluate(p, s, m1)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_in_range_cell_outside_support(self):
        p = validate(8, 2, 4)
        assert log2_expected_bipartitions(p, 5, 1) == float("-inf")
        assert expected_bipartitions(p, 5, 1) == 0

    def test_agreement_with_exact_path(self):
        p = _params(12, 3, 4)
        for s in range(13):
            for m1 in range(p.m + 1):
                exact = expected_bipartitions(p, s, m1)
                if exact > 0:
                    ref = math.log2(exact.numerator) - math.log2(exact.denominator)
                    got = log2_expected_bipartitions(p, s, m1)
                    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n, gamma, delta, s", [
        (2000, 2, 4, 200), (2000, 2, 4, 400),
        (1200, 3, 6, 120), (1200, 3, 6, 240)])
    def test_matches_decimal_reference(self, n, gamma, delta, s):
        # The large cells of the benchmark, at m1 = m/2.  The reference is
        # ln(num) - ln(den) of the exact cell at 50 significant digits.
        p = validate(n, gamma, delta)
        exact = expected_bipartitions(p, s, p.m // 2)
        got = Decimal(log2_expected_bipartitions(p, s, p.m // 2))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            ref = ((Decimal(exact.numerator).ln()
                    - Decimal(exact.denominator).ln()) / Decimal(2).ln())
            assert abs(got - ref) <= Decimal("2e-12")

    @pytest.mark.parametrize("case", [
        lambda p, s: (expected_bipartitions, (p, s, p.m // 2), WORK_REFUSED),
        lambda p, s: (log2_expected_bipartitions, (p, s, p.m // 2),
                      WORK_REFUSED),
        lambda p, s: (expected_balanced_bipartitions, (p, s, 0),
                      WORK_REFUSED),
        lambda p, s: (constellation_coeff, (p.gamma, s, p.n, p.xi // 2),
                      ROW_REFUSED),
        lambda p, s: (constellation_coeff, (p.gamma, p.n * 1000,
                                            p.n * 1000, p.n * 1000),
                      POWER_REFUSED)])
    def test_cell_over_budget_refused_at_once(self, case):
        # Each case is (function, arguments, refusal) at s = 10^5, or at
        # s = n = 10^9 for the last.
        evaluate, args, message = case(validate(10**6, 2, 4), 10**5)
        start = time.monotonic()
        with pytest.raises(CapExceeded, match=message):
            evaluate(*args)
        assert time.monotonic() - start < 1.0

    def test_long_row_refused_at_once(self):
        start = time.monotonic()
        with pytest.raises(CapExceeded, match=(
                r"n - s = 50001 exceeds the single-cell budget 50000 of the "
                r"C\(n - s, \.\) row")):
            constellation_coeff(2, 1, 50_002, 2)
        assert time.monotonic() - start < 1.0

    def test_balanced_sum_charged_per_cell(self):
        # One cell of (6000, 3, 6) at s = 1200 is inside the budget; the
        # 301 cells of its eps = 1/10 balanced sum are not.
        p = validate(6000, 3, 6)
        exact_distribution._check_cell_budget(3, 1200, 6000, 1, 1)
        start = time.monotonic()
        with pytest.raises(CapExceeded, match=r"of 301 cell\(s\) exceed"):
            expected_balanced_bipartitions(p, 1200, "1/10")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("gamma", [2, 3])
    @pytest.mark.parametrize("s", [2000, 4000])
    def test_reference_cells_within_budget(self, gamma, s):
        # The n = 20000 cells of (2, 4) and (3, 6) at s = n/10 and n/5 stay
        # exact references.
        exact_distribution._check_cell_budget(gamma, s, 20000, 1, 1)

    def test_wide_balanced_sum_builds_only_nonzero_cells(self):
        # Of the 3961 m1 of (8000, 2, 4) at eps = 0.99, only m1 = m/2 is on
        # the support at s = n: the sum is that one cell,
        # C(4000, 2000) * 2^8000 / C(16000, 8000).  Building every m1's
        # gamma*n-bit denominator took 11 s (Python 3.11, 2-core VM).
        start = time.monotonic()
        got = expected_balanced_bipartitions(validate(8000, 2, 4), 8000,
                                             "0.99")
        assert time.monotonic() - start < 1.0
        assert got == Fraction(math.comb(4000, 2000) * 2**8000,
                               math.comb(16000, 8000))
        assert hashlib.sha256(
            f"{got.numerator}/{got.denominator}".encode()).hexdigest() == (
            "81381cc293448e689c9c3a97ac142b0e3473fcde468b0ec08834de32880cadf7")

    def test_coefficient_not_charged_for_cell_binomials(self):
        # p = 2u for gamma = 2, so u^n reads only r = (n - s)/2.  Charged
        # for a table cell's binomials, this call was refused at 5.1e12
        # bit operations.
        start = time.monotonic()
        got = constellation_coeff(2, 150_000, 200_000, 200_000)
        assert time.monotonic() - start < 1.0
        assert got == 2**150_000 * math.comb(50_000, 25_000)


class TestCsv:
    def test_full_and_suppressed(self):
        table = cutsize_table(validate(4, 2, 4))
        full = io.StringIO()
        assert write_table_rows(table.num, table.den, full) == 15
        lines = full.getvalue().splitlines()
        assert lines[0] == "s,m1,A_num,A_den"
        assert "2,1,48,35" in lines
        sparse = io.StringIO()
        nonzero = sum(1 for v in table.cells.values() if v != 0)
        assert write_table_rows(table.num, table.den, sparse,
                                suppress_zeros=True) == nonzero

    @pytest.mark.parametrize("suppress_zeros", [False, True])
    def test_each_cell_reduced_on_its_own(self, suppress_zeros):
        # Mirrored denominators with rows that are not symmetric: a cell
        # must not take the text of its mirror unless both parts are equal.
        # The last row also breaks the mirror of the denominators.
        num = [[0, 6, 4, 6, 0], [2, 6, 7, 3, 2], [5, 0, 8, 0, 10],
               [6, 6, 3, 6, 6], [4, 3, 6, 3, 4]]
        den = [20, 8, 6, 8, 20]
        out = io.StringIO()
        rows = write_table_rows(num, den, out, suppress_zeros)
        text = out.getvalue()
        assert text.splitlines()[0] == "s,m1,A_num,A_den"
        want = {(s, m1): Fraction(a, b)
                for s, row in enumerate(num)
                for m1, (a, b) in enumerate(zip(row, den))
                if a or not suppress_zeros}
        got = {}
        for line in text.splitlines()[1:]:
            s, m1, a, b = map(int, line.split(","))
            assert math.gcd(a, b) == 1
            got[s, m1] = Fraction(a, b)
        assert got == want and rows == len(want)
        table = CutsizeTable(_params(4, 2, 2), num, [20, 8, 6, 8, 15])
        assert "4,4,4,15" in _a_text(table).splitlines()

    @staticmethod
    def _assert_matches_reference(rows, den, suppress_zeros):
        """write_table_rows against the A CSV written plainly: one Fraction
        and one line per cell."""
        lines = ["s,m1,A_num,A_den\n"]
        for s, row in enumerate(rows):
            for m1, (a, b) in enumerate(zip(row, den)):
                if a or not suppress_zeros:
                    v = Fraction(a, b)
                    lines.append(f"{s},{m1},{v.numerator},{v.denominator}\n")
        out = io.StringIO()
        count = write_table_rows(rows, den, out, suppress_zeros)
        assert (count, out.getvalue()) == (len(lines) - 1, "".join(lines))

    @pytest.mark.parametrize("suppress_zeros", [False, True])
    def test_matches_reference_writer(self, suppress_zeros):
        table = cutsize_table(validate(60, 2, 4))
        assert not any(map(any, table.num[1::2]))  # every odd-s row is zero
        self._assert_matches_reference(table.num, table.den, suppress_zeros)

    @pytest.mark.parametrize("suppress_zeros", [False, True])
    def test_den_not_mirrored_matches_reference_writer(self, suppress_zeros):
        # Symmetric rows over a den that is not a palindrome: no cell may
        # take its mirror's text, since den[m1] != den[m - m1].
        rows = [[4, 6, 3, 6, 4], [0, 9, 0, 9, 0], [10, 0, 5, 0, 10]]
        self._assert_matches_reference(rows, [20, 8, 6, 9, 15],
                                       suppress_zeros)

    @pytest.mark.parametrize("suppress_zeros", [False, True])
    def test_no_rows_writes_the_header_only(self, suppress_zeros):
        self._assert_matches_reference([], [1, 2, 1], suppress_zeros)

    def test_balanced_csv(self):
        table = cutsize_table(validate(4, 2, 4))
        out = io.StringIO()
        assert write_balanced_rows(table.balanced_distribution(0).values(),
                                   out) == 5
        lines = out.getvalue().splitlines()
        assert lines[0] == "s,B_num,B_den"
        assert "2,48,35" in lines
