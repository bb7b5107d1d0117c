import math
import random
from fractions import Fraction

import pytest

from hypercut import asymptotics
from hypercut.asymptotics import (GrowthPoint, VerdictRow,
                                  balanced_growth_rate,
                                  balanced_growth_rate_closed, binary_entropy,
                                  curve, growth_rate, inner_infimum,
                                  peak_growth, peak_sigma,
                                  typical_min_cutsize, verdict,
                                  write_curve_csv, write_verdict_csv)
from hypercut.ensemble import validate
from hypercut.exact_distribution import balanced_first_part_range


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # the balanced-rate zero of E(2,3) sits where H2 crosses 1/3
        assert binary_entropy(0.0615) == pytest.approx(0.3334, abs=1e-4)

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x),
                                                      abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


def _stationarity_residual(u, sigma, mu1, gamma):
    """Independent check of the minimizer: direct polynomial evaluation of
    |sigma*u*p'*q + (1-sigma)*u*p*q' - mu1*gamma*p*q| / (mu1*gamma*p*q)."""
    p = (1 + u) ** gamma - 1 - u ** gamma
    dp = gamma * (1 + u) ** (gamma - 1) - gamma * u ** (gamma - 1)
    q = 1 + u ** gamma
    dq = gamma * u ** (gamma - 1)
    lhs = sigma * u * dp * q + (1 - sigma) * u * p * dq
    rhs = mu1 * gamma * p * q
    return abs(lhs - rhs) / rhs


def _bisection_inner_infimum(sigma, mu1, gamma):
    """Reference: the inner solver before the fences, evaluating phi' at
    every bisection midpoint.  Same preconditions, path and messages."""
    tol, ln2 = asymptotics._SLOPE_TOL, math.log(2.0)

    def dphi(t):
        return (sigma * asymptotics._ratio_p(t, gamma)
                + (1.0 - sigma) * asymptotics._ratio_q(t, gamma)
                - mu1 * gamma) / ln2

    def phi(t):
        return (sigma * asymptotics._log2_p(t, gamma)
                + (1.0 - sigma) * asymptotics._log2_q(t, gamma)
                - mu1 * gamma * t / ln2)

    d0 = dphi(0.0)
    if abs(d0) < tol:
        return 1.0, phi(0.0)
    step = -1.0 if d0 > 0.0 else 1.0
    far = step
    while (d := dphi(far)) * step <= 0.0:
        if abs(d) < tol:
            return math.exp(far), phi(far)
        step *= 2.0
        far += step
        if abs(far) > 2.0 ** 40:
            raise RuntimeError(f"bracketing ran away: t={far}, dphi={d}")
    lo, hi = (far, 0.0) if far < 0.0 else (0.0, far)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dm = dphi(mid)
        if abs(dm) < tol:
            return math.exp(mid), phi(mid)
        if dm > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    if abs(dphi(mid)) >= tol:
        raise RuntimeError(f"stationarity refinement stalled: bracket "
                           f"[{lo}, {hi}], slope {dphi(mid)}")
    return math.exp(mid), phi(mid)


def _inner_inputs(count=2000, seed=26):
    """Seeded (sigma, mu1, gamma) with 2 <= gamma <= 12, mu1 from 1e-12 to
    1 - 1e-12 and sigma up to one ulp below gamma*min(mu1, 1-mu1): the
    corners of that range, then draws with one mu1 in ten log-uniform
    within 1/2 of 0 or 1, one sigma in ten one ulp below its top and one
    in ten log-uniform below it."""
    rng = random.Random(seed)
    edges = (1e-12, 1e-6, 0.3, 0.5, 0.7, 1.0 - 1e-6, 1.0 - 1e-12)
    inputs = []
    for gamma in (2, 3, 7, 12):
        for mu1 in edges:
            top = min(gamma * min(mu1, 1.0 - mu1), 1.0)
            for sigma in (top * 1e-12, top / 2, math.nextafter(top, 0.0)):
                inputs.append((sigma, mu1, gamma))
    while len(inputs) < count:
        gamma = rng.randint(2, 12)
        draw = rng.random()
        if draw < 0.05:
            mu1 = 10.0 ** rng.uniform(-12, math.log10(0.5))
        elif draw < 0.1:
            mu1 = 1.0 - 10.0 ** rng.uniform(-12, math.log10(0.5))
        else:
            mu1 = rng.uniform(1e-12, 1.0 - 1e-12)
        top = min(gamma * min(mu1, 1.0 - mu1), 1.0)
        draw = rng.random()
        if draw < 0.1:
            sigma = math.nextafter(top, 0.0)
        elif draw < 0.2:
            sigma = top * 10.0 ** rng.uniform(-12, 0)
        else:
            sigma = top * rng.random()
        if 0.0 < sigma < top:
            inputs.append((sigma, mu1, gamma))
    return inputs


class TestInnerInfimum:
    def test_balanced_minimizer_is_one(self):
        # at mu1 = 1/2 both log-derivative ratios equal gamma/2 at u = 1
        for gamma in (2, 3, 4, 5):
            for sigma in (0.1, 0.3, 0.49):
                u, _ = inner_infimum(sigma, 0.5, gamma)
                assert u == pytest.approx(1.0, abs=1e-9)

    def test_balanced_value_gamma_two(self):
        # p(1) = q(1) = 2, so the objective at u = 1 is exactly one bit
        _, val = inner_infimum(0.3, 0.5, 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            inner_infimum(0.0, 0.5, 2)
        with pytest.raises(ValueError):
            inner_infimum(0.8, 0.3, 2)  # sigma > gamma*min(mu1, 1-mu1) = 0.6
        with pytest.raises(ValueError):
            inner_infimum(0.1, 0.5, 1)

    # recorded at 2476290, before the two bracket expansions were merged;
    # mu1 < 1/2 brackets left of t = 0, mu1 > 1/2 right of it
    @pytest.mark.parametrize("sigma, mu1, gamma, expect", [
        (0.1, 0.3, 2, (0.6201736729462438, 0.8671646607845307)),
        (0.3, 0.2, 3, (0.4750880940548522, 1.0687188359831554)),
        (0.05, 0.1, 5, (0.6191944045057888, 0.6315380563095455)),
        (0.01, 0.002, 7, (0.12964410562367884, 0.04556610905969432)),
        (0.1, 0.7, 2, (1.612451549659186, 0.8671646607845307)),
        (0.3, 0.8, 3, (2.1048727857291727, 1.0687188359831552)),
        (0.2, 0.95, 5, (7.958436939579739, 0.6863697805880573)),
        (0.01, 0.998, 7, (7.713424341116785, 0.04556610905969549)),
    ])
    def test_golden_minimizer(self, sigma, mu1, gamma, expect):
        assert inner_infimum(sigma, mu1, gamma) == expect

    def test_evaluators_stay_in_closed_form_range(self, monkeypatch):
        # p and q have no series tails, and e^-|t| underflows past |t| ~ 745.
        # Even at these extremes (subnormal mu1, sigma one ulp below
        # gamma*min(mu1, 1-mu1), gamma up to 12) no evaluated |t| passes 600.
        seen = []
        for name in ("_log2_p", "_log2_q", "_ratio_p", "_ratio_q"):
            def traced(t, gamma, f=getattr(asymptotics, name)):
                seen.append(abs(t))
                return f(t, gamma)
            monkeypatch.setattr(asymptotics, name, traced)
        small = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-150, 1e-12)
        mu1s = (small + (0.25, 0.5, 1.0 - 1e-6, 1.0 - 1e-12)
                + (math.nextafter(1.0, 0.0),))
        for gamma in range(2, 13):
            for mu1 in mu1s:
                top = min(gamma * min(mu1, 1.0 - mu1), 1.0)
                for sigma in (5e-324, top / 2, math.nextafter(top, 0.0)):
                    _, value = inner_infimum(sigma, mu1, gamma)
                    assert math.isfinite(value)
        assert max(seen) <= 600.0

    def test_stationarity_residual(self):
        for gamma in (2, 3, 5):
            for mu1 in (0.2, 0.35, 0.5, 0.65):
                top = gamma * min(mu1, 1 - mu1)
                for frac in (0.1, 0.5, 0.9):
                    sigma = top * frac
                    u, _ = inner_infimum(sigma, mu1, gamma)
                    assert _stationarity_residual(u, sigma, mu1, gamma) < 1e-9


class TestFencedBisection:
    """The fences skip bisection midpoints whose outcome is known, so every
    result is bit for bit the plain bisection's."""

    def test_equals_plain_bisection(self, monkeypatch):
        calls = {"fenced": 0, "plain": 0}
        real = asymptotics._ratio_p
        side = "fenced"

        def counted(t, gamma):
            calls[side] += 1
            return real(t, gamma)

        monkeypatch.setattr(asymptotics, "_ratio_p", counted)
        inputs = _inner_inputs()
        assert len(inputs) >= 2000
        for args in inputs:
            side = "fenced"
            got = inner_infimum(*args)
            side = "plain"
            assert got == _bisection_inner_infimum(*args), args
        assert calls["fenced"] < calls["plain"] / 2

    def test_curve_and_root_unchanged(self, monkeypatch):
        grid = [i / 100 for i in range(101)]
        fenced = (curve((2, 5), 0.05, grid),
                  typical_min_cutsize("1/10", (2, 4)))
        monkeypatch.setattr(asymptotics, "inner_infimum",
                            _bisection_inner_infimum)
        assert fenced == (curve((2, 5), 0.05, grid),
                          typical_min_cutsize("1/10", (2, 4)))


class TestGrowthRate:
    def test_zero_cutsize_closed_form(self):
        # (1 - gamma*(delta-1)/delta) * H2(mu1), exactly
        g = growth_rate(0.0, 0.5, (2, 3))
        assert g.value == (1 - 2 * 2 / 3) * 1.0
        for mu1 in (0.0, 0.3, 1.0):
            expect = (1 - 2 * 2 / 3) * binary_entropy(mu1)
            assert growth_rate(0.0, mu1, (2, 3)).value == expect

    def test_beyond_support_is_minus_inf(self):
        assert growth_rate(0.7, 0.3, (2, 4)).value == float("-inf")
        assert growth_rate(0.5, 0.0, (2, 4)).value == float("-inf")
        assert growth_rate(0.5, 0.5, (1, 2)).value == float("-inf")

    def test_boundary_value_is_the_interior_limit(self):
        # sigma = gamma*min(mu1, 1-mu1): infimum degenerates to sigma*log2(gamma)
        gb = growth_rate(0.6, 0.3, (2, 4))
        assert gb.u_star is None
        inner = growth_rate(0.6 - 1e-9, 0.3, (2, 4))
        assert gb.value == pytest.approx(inner.value, abs=1e-6)

    def test_peak_value_balanced(self):
        g = growth_rate(0.5, 0.5, (2, 4))
        assert g.value == pytest.approx(0.5, abs=1e-12)

    def test_table_root_gamma3_delta4(self):
        assert abs(growth_rate(0.2636, 0.5, (3, 4)).value) < 1e-3

    def test_symmetric_in_part_swap(self):
        for sigma in (0.1, 0.3):
            a = growth_rate(sigma, 0.3, (3, 6)).value
            b = growth_rate(sigma, 0.7, (3, 6)).value
            assert a == pytest.approx(b, abs=1e-11)

    def test_accepts_params_record(self):
        params = validate(4, 2, 4)
        assert (growth_rate(0.3, 0.5, params).value
                == growth_rate(0.3, 0.5, (2, 4)).value)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            growth_rate(1.5, 0.5, (2, 4))
        with pytest.raises(ValueError):
            growth_rate(0.5, -0.1, (2, 4))

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            growth_rate(0.1, 0.5, (0, 4))


class TestBalancedGrowthRate:
    def test_zero_imbalance_short_circuits(self):
        for sigma in (0.0, 0.2, 0.5):
            h = balanced_growth_rate(sigma, 0.0, (3, 6))
            g = growth_rate(sigma, 0.5, (3, 6))
            assert h.value == g.value and h.mu1 == 0.0

    def test_zero_cutsize_endpoint(self):
        # max of (1 - gamma*(delta-1)/delta) * H2 over the interval sits at
        # its ends; frozen value for gamma=3, delta=6, eps=0.2
        h = balanced_growth_rate(0.0, 0.2, (3, 6))
        assert h.value == pytest.approx(-1.4564258916820028, abs=1e-12)

    def test_dominates_exactly_balanced(self):
        for eps in (0.1, 0.3, 0.6):
            for sigma in (0.05, 0.2, 0.4):
                assert (balanced_growth_rate(sigma, eps, (2, 5)).value
                        >= balanced_growth_rate(sigma, 0.0, (2, 5)).value)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            balanced_growth_rate(0.2, 1.0, (2, 4))

    # Recorded with the 201-point mu1 grid plus golden-section search that
    # the envelope-theorem solver replaced.
    @pytest.mark.parametrize("sigma, expect", [
        (0.1, -0.13012258799823118),
        (0.2, 0.12255900753427762),
        (0.3, 0.28159905645347005),
        (0.5, 0.4000000000000006),
    ])
    def test_golden_curve_points(self, sigma, expect):
        h = balanced_growth_rate(sigma, 0.05, (2, 5))
        assert h.value == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("sigma, eps, ens", [
        (0.26, 0.6, (2, 5)),  # maximum strictly inside (1/2, 0.8)
        (0.92, 0.9, (5, 21)),  # 1/2 is a local minimum; peak near 0.545
        (0.0125, 0.99, (2, 3)),  # peak between grid and support boundary
        (0.1, 0.1, (2, 4)),
        (0.4, 0.3, (3, 6)),
        (0.05, 0.9, (2, 3)),
    ])
    def test_dominates_dense_mu1_grid(self, sigma, eps, ens):
        lo, hi = (1 - eps) / 2, (1 + eps) / 2
        dense = max(growth_rate(sigma, lo + i * (hi - lo) / 2000, ens).value
                    for i in range(2001))
        assert balanced_growth_rate(sigma, eps, ens).value >= dense - 1e-9

    def test_interior_maximum(self):
        h = balanced_growth_rate(0.26, 0.6, (2, 5))
        assert h.value == pytest.approx(0.26608448084253733, abs=1e-10)
        assert h.value > growth_rate(0.26, 0.8, (2, 5)).value + 2e-4

    def test_inner_solve_budget(self, monkeypatch):
        calls = []
        real = asymptotics.inner_infimum

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "inner_infimum", counted)
        for sigma, eps, ens in ((0.26, 0.6, (2, 5)), (0.1, 0.1, (2, 4)),
                                (0.2, 0.05, (3, 6))):
            calls.clear()
            balanced_growth_rate(sigma, eps, ens)
            assert 0 < len(calls) <= 40

    @pytest.mark.parametrize("eps", ["1/100", "1/20", "1/2", "9/10"])
    @pytest.mark.parametrize("ens", [(2, 3), (3, 6), (5, 21)])
    def test_curve_equals_grid_order_maximum(self, ens, eps):
        # the candidates come (1+eps)/2 first; the returned point is still
        # the first maximum in guard-grid order, ties and u* included
        grid = [i / 200 for i in range(201)]
        for p in curve(ens, eps, grid):
            ref = _grid_order_balanced(p.sigma, float(Fraction(eps)), ens)
            assert (p.value, p.u_star) == (ref.value, ref.u_star), p.sigma

    def test_tie_goes_to_the_first_guard_point(self, monkeypatch):
        # (1+eps)/2 is evaluated first but ranks last among the guard points
        monkeypatch.setattr(asymptotics, "growth_rate",
                            lambda s, mu1, ens: GrowthPoint(s, mu1, 0.0, mu1))
        assert balanced_growth_rate(0.2, 0.5, (2, 4)).u_star == 0.5

    def test_undecidable_slope_raises_with_bracket(self, monkeypatch):
        real = asymptotics.growth_rate
        seen = []

        def nan_past_grid(sigma, mu1, ensemble):
            # exact on the guard grid and its probe, NaN in the bisection
            seen.append(mu1)
            g = real(sigma, mu1, ensemble)
            if len(seen) <= asymptotics._GUARD_POINTS + 1:
                return g
            return GrowthPoint(g.sigma, g.mu1, g.value, float("nan"))

        monkeypatch.setattr(asymptotics, "growth_rate", nan_past_grid)
        with pytest.raises(RuntimeError, match=r"bracket \[0\.\d+, 0\.\d+\]"):
            balanced_growth_rate(0.26, 0.6, (2, 5))


def _grid_order_balanced(sigma, eps, ens):
    """Reference balanced rate: the candidate loop that evaluated the guard
    grid in mu1 order, 1/2 first, and took the first maximum."""
    if eps == 0.0:
        return growth_rate(sigma, 0.5, ens)
    gamma, delta = ens
    ent_factor = gamma * (delta - 1) / delta
    hi = (1.0 + eps) / 2.0
    step = (hi - 0.5) / (asymptotics._GUARD_POINTS - 1)
    grid = ([0.5, 0.5 + step / 1000.0]
            + [0.5 + i * step
               for i in range(1, asymptotics._GUARD_POINTS - 1)] + [hi])

    def slope(p):
        if p.u_star is None or p.value == float("-inf"):
            return float("-inf")
        return (ent_factor * math.log(p.mu1 / (1.0 - p.mu1))
                - gamma * math.log(p.u_star)) / math.log(2.0)

    candidates = [growth_rate(sigma, mu, ens) for mu in grid]
    slopes = [0.0] + [slope(p) for p in candidates[1:]]
    for i in range(len(grid) - 1):
        if not slopes[i] > 0.0 > slopes[i + 1]:
            continue
        lo, up = grid[i], grid[i + 1]
        while up - lo > asymptotics._MU1_TOL:
            mid = 0.5 * (lo + up)
            p = growth_rate(sigma, mid, ens)
            candidates.append(p)
            if slope(p) > 0.0:
                lo = mid
            else:
                up = mid
    return max(candidates, key=lambda p: p.value)


class TestClosedForm:
    def test_matches_zero_cutsize_form(self):
        # at sigma = 0 the closed form reduces to 1 - gamma*(delta-1)/delta
        assert balanced_growth_rate_closed(0.0, (2, 3)) == pytest.approx(
            -1 / 3, abs=1e-15)

    def test_matches_numeric_minimization(self):
        for gamma, delta in ((2, 3), (3, 8), (5, 21)):
            top = peak_sigma(0.5, gamma)
            for i in range(1, 20):
                sigma = top * i / 20
                num = growth_rate(sigma, 0.5, (gamma, delta)).value
                clo = balanced_growth_rate_closed(sigma, (gamma, delta))
                assert num == pytest.approx(clo, abs=1e-10)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            balanced_growth_rate_closed(0.2, (1, 2))


class TestPeak:
    def test_locations(self):
        assert peak_sigma(0.5, 2) == 0.5
        assert peak_sigma(0.5, 3) == 0.75
        assert peak_sigma(0.0, 4) == 0.0

    def test_peak_value(self):
        assert peak_growth(0.5, (2, 4)) == 0.5
        assert peak_growth(0.0, (3, 6)) == 0.0

    @pytest.mark.parametrize("mu1", [-0.1, 1.5])
    def test_mu1_domain(self, mu1):
        with pytest.raises(ValueError, match=r"mu1 must lie in \[0, 1\]"):
            peak_sigma(mu1, 2)

    def test_numeric_argmax_matches(self):
        gamma, delta, mu1 = 3, 6, 0.4
        lo, hi = 1e-9, min(1.0, gamma * min(mu1, 1 - mu1)) - 1e-9
        invphi = (math.sqrt(5) - 1) / 2
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1 = growth_rate(x1, mu1, (gamma, delta)).value
        f2 = growth_rate(x2, mu1, (gamma, delta)).value
        while hi - lo > 1e-10:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = growth_rate(x2, mu1, (gamma, delta)).value
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = growth_rate(x1, mu1, (gamma, delta)).value
        argmax = 0.5 * (lo + hi)
        assert argmax == pytest.approx(peak_sigma(mu1, gamma), abs=1e-6)
        assert growth_rate(argmax, mu1, (gamma, delta)).value == pytest.approx(
            peak_growth(mu1, (gamma, delta)), abs=1e-9)


class TestTypicalMinCutsize:
    def test_frozen_table_entries(self):
        assert typical_min_cutsize(0.0, (2, 3)) == pytest.approx(0.0615,
                                                                 abs=5e-5)
        assert typical_min_cutsize(0.0, (3, 4)) == pytest.approx(0.2636,
                                                                 abs=5e-5)

    def test_is_first_crossing(self):
        root = typical_min_cutsize(0.0, (2, 5))
        for frac in (0.2, 0.5, 0.9):
            assert balanced_growth_rate(root * frac, 0.0, (2, 5)).value < 0
        assert balanced_growth_rate(root + 1e-6, 0.0, (2, 5)).value > 0

    def test_golden_balanced_thresholds(self):
        # recorded with the grid plus golden-section mu1 search that the
        # envelope-theorem solver replaced
        assert typical_min_cutsize(0.1, (2, 4)) == pytest.approx(
            0.1091265890, abs=1e-9)
        assert typical_min_cutsize(0.1, (2, 5)) == pytest.approx(
            0.1448863935, abs=1e-9)

    def test_imbalance_reduces_threshold(self):
        assert (typical_min_cutsize(0.3, (2, 4))
                <= typical_min_cutsize(0.0, (2, 4)) + 1e-12)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            typical_min_cutsize(0.0, (1, 3))
        with pytest.raises(ValueError):
            typical_min_cutsize(0.0, (2, 2))

    def test_no_sign_change_raises_with_grid(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_sign_rate",
                            lambda s, eps, ens: -1.0)
        with pytest.raises(RuntimeError, match="grid step 0.001") as info:
            typical_min_cutsize(0.0, (2, 4))
        grid = info.value.grid
        assert grid[0] == (0.001, -1.0)
        assert grid[-1] == (peak_sigma(0.5, 2), -1.0)
        assert f"{len(grid)} points" in str(info.value)

    @pytest.mark.parametrize("gamma, delta, eps", [
        (2, 3, "0"), (2, 4, "1/10"), (2, 6, "1/2"), (2, 21, "9/10"),
        (3, 4, "0"), (3, 5, "1/4"), (3, 9, "9/10"), (4, 5, "0"),
        (4, 8, "3/4"), (5, 6, "0"), (5, 10, "1/100"), (5, 21, "1/2"),
        (2, 5, "1/1000"), (2, 4, "9999/10000"), (3, 21, "9999/10000"),
        (6, 7, "0"), (6, 12, "1/1000"), (6, 20, "9999/10000"),
    ])
    def test_equals_linear_scan(self, gamma, delta, eps):
        # bit-identical to evaluating every grid point up to the first
        # positive one
        assert (typical_min_cutsize(eps, (gamma, delta))
                == _scan_min_cutsize(eps, (gamma, delta)))

    @pytest.mark.parametrize("gamma, delta, eps", [
        (2, 21, "9/10"), (3, 9, "3/4"), (5, 21, "1/2"),
    ])
    def test_rate_positive_past_monotone_prefix(self, gamma, delta, eps):
        # the binary search relies on it: every sigma past
        # peak_sigma((1+eps)/2) is the peak of an allowed mu1
        start = peak_sigma((1 + float(Fraction(eps))) / 2, gamma)
        top = peak_sigma(0.5, gamma)
        for i in range(11):
            sigma = start + (top - start) * i / 10
            assert balanced_growth_rate(sigma, eps, (gamma, delta)).value > 0

    @pytest.mark.parametrize("delta", [4, 5])
    def test_root_evaluation_budget(self, monkeypatch, delta):
        # a point-by-point scan of the grid below the root took 134 and 169
        # rate evaluations; a grid search plus a plain bisection 35 rate
        # evaluations and 315 inner solves
        calls = {"_sign_rate": 0, "inner_infimum": 0}
        for name in calls:
            real = getattr(asymptotics, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(asymptotics, name, counted)
        typical_min_cutsize("1/10", (2, delta))
        assert calls["_sign_rate"] <= 18
        assert calls["inner_infimum"] <= 80

    def test_fenced_root_equals_plain_bisection(self, monkeypatch):
        # the fences skip root bisection midpoints whose sign is known, and
        # a sign test stops at its first positive candidate; the plain side
        # evaluates the full balanced rate at every point
        calls = {"fenced": 0, "plain": 0}
        sign_rate = asymptotics._sign_rate
        side = "fenced"

        def counted(sigma, eps, ens):
            calls[side] += 1
            if side == "fenced":
                return sign_rate(sigma, eps, ens)
            return balanced_growth_rate(sigma, eps, ens).value

        monkeypatch.setattr(asymptotics, "_sign_rate", counted)
        for gamma in range(2, 7):
            for delta in (3, 5, 13, 21):
                for eps in ("0", "1/100", "1/10", "1/2", "9/10"):
                    side, start = "fenced", calls["fenced"]
                    got = typical_min_cutsize(eps, (gamma, delta))
                    assert calls["fenced"] - start <= 18, (gamma, delta, eps)
                    side = "plain"
                    with monkeypatch.context() as plain:
                        plain.setattr(asymptotics, "_fences",
                                      lambda *args: (-math.inf, math.inf))
                        assert got == typical_min_cutsize(eps, (gamma, delta))
        assert calls["fenced"] < calls["plain"] / 2


def _scan_min_cutsize(epsilon, ensemble):
    """Reference root: evaluate the sigma grid point by point up to the
    first positive balanced rate, then bisect the last step."""
    eps = Fraction(epsilon)
    top = peak_sigma(0.5, ensemble[0])

    def rate(s):
        return asymptotics.balanced_growth_rate(s, eps, ensemble).value

    prev, sigma = 0.0, asymptotics._SIGMA_STEP
    while True:
        sigma = min(sigma, top)
        if rate(sigma) > 0.0:
            break
        assert sigma < top, "no sign change"
        prev = sigma
        sigma += asymptotics._SIGMA_STEP
    lo, hi = prev, sigma
    while hi - lo > asymptotics._SIGMA_TOL:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestVerdict:
    def test_known_rows(self):
        r = verdict((2, 3))
        assert r.satisfied and r.design_rate == pytest.approx(1 / 3)
        assert not verdict((3, 4)).satisfied
        assert verdict((5, 21)).satisfied
        assert not verdict((5, 20)).satisfied

    def test_row_computes_derived_fields(self):
        for gamma, delta, beta in ((2, 3, 0.06), (3, 4, 0.3), (2, 4, 0.5)):
            r = VerdictRow(gamma, delta, beta)
            assert r.design_rate == 1.0 - gamma / delta
            assert r.margin == r.design_rate - beta
            assert r.satisfied == (r.margin >= 0)
        assert not VerdictRow(3, 4, 0.3).satisfied
        assert VerdictRow(2, 4, 0.5).satisfied  # margin exactly 0
        row = verdict((2, 3))
        assert row == VerdictRow(2, 3, row.beta_star)
        assert repr(VerdictRow(2, 4, 0.25)) == (
            "VerdictRow(gamma=2, delta=4, design_rate=0.5, beta_star=0.25, "
            "satisfied=True, margin=0.25)")


class TestCurve:
    def test_balanced_curves_peak_and_cross(self):
        grid = [i / 200 for i in range(201)]
        crossings = []
        for delta in (3, 4, 5):
            pts = curve((2, delta), 0.0, grid)
            values = [p.value for p in pts]
            peak_at = grid[values.index(max(values))]
            assert peak_at == pytest.approx(0.5, abs=1 / 200)
            assert values[0] == pytest.approx(1 - 2 * (delta - 1) / delta,
                                              abs=1e-12)
            crossings.append(next(s for s, v in zip(grid, values) if v > 0))
        assert crossings == sorted(crossings)
        assert len(set(crossings)) == len(crossings)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            curve((2, 4), 0.0, [0.5, 1.2])

    def test_csv_writers(self, tmp_path):
        pts = curve((2, 4), 0.0, [0.0, 0.5, 1.0])
        cpath = tmp_path / "curve.csv"
        with open(cpath, "w") as fh:
            write_curve_csv(pts, fh)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "sigma,h"
        assert lines[2] == "0.5,0.5"

        rows = [verdict((2, 3)), verdict((3, 4))]
        vpath = tmp_path / "verdicts.csv"
        with open(vpath, "w") as fh:
            write_verdict_csv(rows, fh)
        lines = vpath.read_text().splitlines()
        assert lines[0] == "gamma,delta,design_rate,beta_star,satisfied,margin"
        assert lines[1].startswith("2,3,0.3333333333,")
        assert ",true," in lines[1] and ",false," in lines[2]

    def test_point_record_fields(self):
        p = balanced_growth_rate(0.2, 0.0, (2, 4))
        assert isinstance(p, GrowthPoint)
        assert p.sigma == 0.2 and p.mu1 == 0.0
        assert p.u_star == pytest.approx(1.0, abs=1e-9)


class TestOneEpsilonReader:
    """The asymptotic layer reads eps exactly as the exact tables do."""

    @pytest.mark.parametrize("eps", ["1/0", -0.1, "-1/10", 1, "1e400",
                                     float("nan"), object()])
    def test_same_error_in_both_layers(self, eps):
        errors = []
        for call in (lambda: balanced_first_part_range(4, eps),
                     lambda: balanced_growth_rate(0.1, eps, (2, 5))):
            with pytest.raises((ValueError, TypeError)) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("compute", [
        lambda eps: balanced_growth_rate(0.2, eps, (2, 5)),
        lambda eps: typical_min_cutsize(eps, (2, 5)),
        lambda eps: verdict((2, 5), eps),
        lambda eps: curve((2, 5), eps, [0.0, 0.3, 0.6]),
    ], ids=["balanced_growth_rate", "typical_min_cutsize", "verdict",
            "curve"])
    def test_exact_and_float_spellings_agree(self, compute):
        results = [compute(eps) for eps in ("1/20", Fraction(1, 20), 0.05)]
        assert results[0] == results[1] == results[2]

    def test_curve_sigma_checked_by_growth_rate(self):
        with pytest.raises(ValueError,
                           match=r"sigma must lie in \[0, 1\], got 1\.2"):
            curve((2, 4), 0.1, [0.5, 1.2])


class TestIntegerDegrees:
    @pytest.mark.parametrize("call", [
        lambda: verdict((2.7, 5)),
        lambda: growth_rate(0.1, 0.5, (2.9, 5)),
        lambda: growth_rate(0.1, 0.5, (2, "5")),
    ], ids=["verdict", "growth_rate", "string_delta"])
    def test_non_integers_rejected(self, call):
        with pytest.raises(TypeError):
            call()
