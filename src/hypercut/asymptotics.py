"""Growth rates of bipartition counts and typical minimum cutsizes.

As n grows with delta*m = gamma*n, the expected number of bipartitions with
cutsize sigma*n and first-part size mu1*m behaves like 2^(n*g(sigma, mu1))
where

    g(sigma, mu1) = H2(sigma) - gamma*(delta-1)/delta * H2(mu1)
                    + inf_{u>0} [ sigma*log2 p(u) + (1-sigma)*log2 q(u)
                                  - mu1*gamma*log2 u ]

with p(u) = (1+u)^gamma - 1 - u^gamma and q(u) = 1 + u^gamma.  The balanced
rate h(sigma, eps) maximizes g over mu1 in [(1-eps)/2, (1+eps)/2].  The
typical minimum cutsize is the first sigma where the rate turns positive:
below it, balanced bipartitions of that cutsize are exponentially rare.

For fixed mu1, g is H2(sigma) plus an infimum of functions affine in sigma,
so it is concave in sigma, with its peak (gamma/delta)*H2(mu1) > 0 at
peak_sigma(mu1).  peak_sigma decreases on [1/2, 1), so h is nondecreasing
on the monotone prefix sigma <= peak_sigma((1+eps)/2), and past it every
sigma is the peak of some allowed mu1, so h is positive there.  The sign
of h is therefore monotone in sigma, and the root search binary-searches
a sigma grid for its first positive point, then bisects the last step,
fenced as the inner bisection below is.  Only the sign of h is needed,
so each test stops at the first mu1 candidate with a positive value; it
tries mu1 = (1+eps)/2 first, which holds the maximum just above the root
for gamma 2-6, delta 3-21 and eps from 1/1000 to 9999/10000.

All logarithms are base 2.  The inner infimum is smooth and convex in
t = ln u, so it is located by geometric bracketing plus bisection on the
derivative.  A few Anderson-Bjorck (modified regula falsi) probes first
fence off the t where the slope's sign is certain, and the bisection does
not evaluate a midpoint past a fence; since the slope is nondecreasing and
the fence margin is far above its rounding error, the bisection takes the
same steps and returns the same bits as one that evaluates every midpoint.
Its minimizer u* gives dg/dmu1 by the envelope theorem,

    dg/dmu1 = gamma*(delta-1)/delta * log2(mu1/(1-mu1)) - gamma*log2 u*,

so the maximization over mu1 bisects sign changes of that slope found on a
guard grid of the half interval [1/2, (1+eps)/2] (g is symmetric in
mu1 <-> 1-mu1); a stationary point satisfies
ln u* = ((delta-1)/delta)*logit(mu1).  Every routine here is deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .core import _bipartition_ratio

_LN2 = math.log(2.0)
_NEG_INF = float("-inf")

#: Evenly spaced points of the guard grid over mu1 in [1/2, (1+eps)/2].
_GUARD_POINTS = 8
#: Width of the mu1 bracket at which a slope bisection stops.  The value
#: error there is O(width^2), because the slope vanishes at the maximum.
_MU1_TOL = 1e-8
#: |phi'| in bits below which the inner minimizer counts as stationary.
_SLOPE_TOL = 1e-12
#: How far past ``_SLOPE_TOL`` a probed slope, and how far from 0 a probed
#: balanced rate, must lie to fence off a side.  Both are evaluated with a
#: rounding error of about 1e-15 bits, over 10^3 times smaller.
_FENCE_MARGIN = 8 * _SLOPE_TOL
#: Most Anderson-Bjorck probes placing the fences before the bisection
#: starts.
_PROBES = 12
#: Spacing of the sigma grid scanned for the first positive balanced rate.
_SIGMA_STEP = 1e-3
#: Width of the sigma bracket at which the root bisection stops.
_SIGMA_TOL = 1e-10


@dataclass(frozen=True)
class GrowthPoint:
    """One growth-rate sample.

    ``mu1`` is the relative first-part size for fixed-part rates and the
    imbalance eps for balanced-rate curves.  ``u_star`` is the inner
    minimizer when it is attained at finite u, else None.
    """

    sigma: float
    mu1: float
    value: float
    u_star: float | None


@dataclass(frozen=True)
class VerdictRow:
    """Design rate vs. typical minimum cutsize for one (gamma, delta).

    Built from (gamma, delta, beta_star); the rest is computed:
    ``design_rate`` = 1 - gamma/delta, ``margin`` = design_rate - beta_star,
    and ``satisfied`` iff the margin is non-negative.
    """

    gamma: int
    delta: int
    design_rate: float = field(init=False)
    beta_star: float
    satisfied: bool = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        rate = 1.0 - self.gamma / self.delta
        object.__setattr__(self, "design_rate", rate)
        object.__setattr__(self, "margin", rate - self.beta_star)
        object.__setattr__(self, "satisfied", self.margin >= 0)


def _degrees(ensemble) -> tuple[int, int]:
    if isinstance(ensemble, (tuple, list)):
        gamma, delta = ensemble
    else:
        gamma, delta = ensemble.gamma, ensemble.delta
    gamma, delta = operator.index(gamma), operator.index(delta)
    if gamma < 1 or delta < 1:
        raise ValueError("gamma and delta must be at least 1")
    return gamma, delta


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _log2_p(t: float, gamma: int) -> float:
    """log2 of p(e^t) with p(u) = (1+u)^gamma - 1 - u^gamma, gamma >= 2."""
    if t <= 0.0:
        u = math.exp(t)
        return math.log2(math.expm1(gamma * math.log1p(u)) - u ** gamma)
    w = math.exp(-t)
    inner = math.expm1(gamma * math.log1p(w)) - w ** gamma
    return gamma * t / _LN2 + math.log2(inner)


def _log2_q(t: float, gamma: int) -> float:
    """log2 of q(e^t) = log2(1 + e^(gamma*t))."""
    gt = gamma * t
    if gt <= 0.0:
        return math.log1p(math.exp(gt)) / _LN2
    return gt / _LN2 + math.log1p(math.exp(-gt)) / _LN2


def _ratio_p(t: float, gamma: int) -> float:
    """u p'(u)/p(u) at u = e^t; moves from 1 to gamma-1 as t grows."""
    if t <= 0.0:
        u = math.exp(t)
        num = gamma * u * ((1.0 + u) ** (gamma - 1) - u ** (gamma - 1))
        den = math.expm1(gamma * math.log1p(u)) - u ** gamma
        return num / den
    w = math.exp(-t)
    num = gamma * math.expm1((gamma - 1) * math.log1p(w))
    den = math.expm1(gamma * math.log1p(w)) - w ** gamma
    return num / den


def _ratio_q(t: float, gamma: int) -> float:
    """u q'(u)/q(u) = gamma / (1 + u^-gamma)."""
    gt = gamma * t
    if gt <= 0.0:
        e = math.exp(gt)
        return gamma * e / (1.0 + e)
    return gamma / (1.0 + math.exp(-gt))


def _fences(f, a: float, fa: float, b: float, fb: float,
            level: float) -> tuple[float, float]:
    """Fences on the sign change of f in [a, b], where fa <= 0 < fb.

    The sign of f must be nondecreasing in its argument.  Up to ``_PROBES``
    Anderson-Bjorck probes (regula falsi steps with the Anderson-Bjorck
    weight, BIT 13, 1973, on the end that stays put) move a and b in on
    the sign change; the first probe with |f| < ``level`` adds one probe on
    each side, 2*level/slope away, and ends the search.  Returns (neg, pos):
    the largest probed point with f <= -level and the smallest with
    f >= level, or -inf and inf where there is none.  A bisection whose
    test errs by less than ``level`` knows its outcome at a midpoint at or
    below neg (at or above pos) without evaluating it.
    """
    ga, gb, side = fa, fb, 0  # weighted fa, fb; last side moved
    for _ in range(_PROBES):
        x = b - gb * (b - a) / (gb - ga)
        if not a < x < b:
            break
        fx = f(x)
        if abs(fx) < level:
            off = 2.0 * level * (b - a) / (fb - fa)  # 2*level/slope
            for t in (x - off, x + off):
                if a < t < b:
                    if (ft := f(t)) <= -level:
                        a, fa = t, ft
                    elif ft >= level:
                        b, fb = t, ft
            break
        # An end that moves twice in a row scales the other end's weight by
        # 1 - f(new)/f(replaced), or by 1/2 where that is not positive.
        if fx < 0.0:
            if side < 0:
                w = 1.0 - fx / fa
                gb *= w if w > 0.0 else 0.5
            a, fa, ga, side = x, fx, fx, -1
        else:
            if side > 0:
                w = 1.0 - fx / fb
                ga *= w if w > 0.0 else 0.5
            b, fb, gb, side = x, fx, fx, 1
    return (a if fa <= -level else -math.inf), (b if fb >= level else math.inf)


def inner_infimum(sigma: float, mu1: float, gamma: int) -> tuple[float, float]:
    """Minimize sigma*log2 p(u) + (1-sigma)*log2 q(u) - mu1*gamma*log2 u.

    Requires 0 < sigma < gamma*min(mu1, 1-mu1) strictly, which makes the
    objective coercive in t = ln u with a unique interior stationary point
    (it is convex in t).  The point is bracketed by geometric expansion from
    t = 0 downhill and polished by bisection on the derivative until
    |phi'| < ``_SLOPE_TOL`` bits.  Returns (u_star, value in bits).

    Before the bisection, ``_fences`` places up to ``_PROBES``
    Anderson-Bjorck probes inside the last bracketing pair, plus one on
    each side of the first probe within the fence level
    tol + ``_FENCE_MARGIN``, and records two fences:
    ``neg``, the largest probed t with phi' <= -(tol + margin), and ``pos``,
    the smallest with phi' >= tol + margin.  A midpoint at or below ``neg``
    moves ``lo`` and one at or above ``pos`` moves ``hi`` without evaluating
    phi'.  The true phi' is nondecreasing in t, and the margin is over 10^3
    times the rounding error of the evaluated phi' (about 1e-15, under
    1e-14 up to gamma = 12), so an evaluation there would have given
    |phi'| >= tol with the sign implied: the path, the result and every
    error message are those of plain bisection, at about a third of its
    slope evaluations.
    """
    if gamma < 2:
        raise ValueError("inner infimum needs gamma >= 2")
    if not (0.0 < sigma < gamma * min(mu1, 1.0 - mu1)):
        raise ValueError(f"need 0 < sigma < gamma*min(mu1, 1-mu1): "
                         f"sigma={sigma}, mu1={mu1}, gamma={gamma}")

    def dphi(t: float) -> float:  # derivative of the objective, in bits
        return (sigma * _ratio_p(t, gamma) + (1.0 - sigma) * _ratio_q(t, gamma)
                - mu1 * gamma) / _LN2

    def phi(t: float) -> float:
        return (sigma * _log2_p(t, gamma) + (1.0 - sigma) * _log2_q(t, gamma)
                - mu1 * gamma * t / _LN2)

    d0 = dphi(0.0)
    if abs(d0) < _SLOPE_TOL:
        return 1.0, phi(0.0)
    # Step downhill from t = 0, doubling the step, until the slope changes
    # sign; the bracket is [far, 0] or [0, far].
    step = -1.0 if d0 > 0.0 else 1.0
    near, d_near, far = 0.0, d0, step
    while (d := dphi(far)) * step <= 0.0:
        if abs(d) < _SLOPE_TOL:
            return math.exp(far), phi(far)
        near, d_near = far, d
        step *= 2.0
        far += step
        if abs(far) > 2.0 ** 40:
            raise RuntimeError(f"bracketing ran away: t={far}, dphi={d}")
    lo, hi = (far, 0.0) if far < 0.0 else (0.0, far)
    (a, fa), (b, fb) = sorted([(near, d_near), (far, d)])
    neg, pos = _fences(dphi, a, fa, b, fb, _SLOPE_TOL + _FENCE_MARGIN)

    # dphi(lo) < 0 < dphi(hi); dphi is nondecreasing, so bisect it.  The
    # width test's right side never exceeds ``stop``, which is cheaper to
    # test first.
    stop = 1e-16 * max(1.0, abs(far))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= neg:
            lo = mid
        elif mid >= pos:
            hi = mid
        elif abs(dm := dphi(mid)) < _SLOPE_TOL:
            return math.exp(mid), phi(mid)
        elif dm > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= stop and hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    if abs(dphi(mid)) >= _SLOPE_TOL:
        raise RuntimeError(f"stationarity refinement stalled: bracket "
                           f"[{lo}, {hi}], slope {dphi(mid)}")
    return math.exp(mid), phi(mid)


def growth_rate(sigma: float, mu1: float, ensemble) -> GrowthPoint:
    """Growth rate at fixed relative cutsize sigma and part size mu1.

    Finite only for sigma <= gamma*min(mu1, 1-mu1); on that boundary the
    infimum escapes to u -> 0 or infinity but its limit value sigma*log2(gamma)
    is exact, reported with ``u_star = None``.  sigma = 0 uses the closed
    form (1 - gamma*(delta-1)/delta) * H2(mu1).
    """
    gamma, delta = _degrees(ensemble)
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if not 0.0 <= mu1 <= 1.0:
        raise ValueError(f"mu1 must lie in [0, 1], got {mu1}")
    ent_factor = gamma * (delta - 1) / delta

    if sigma == 0.0:
        value = (1.0 - ent_factor) * binary_entropy(mu1)
        u0 = (mu1 / (1.0 - mu1)) ** (1.0 / gamma) if 0.0 < mu1 < 1.0 else None
        return GrowthPoint(sigma, mu1, value, u0)

    limit = gamma * min(mu1, 1.0 - mu1)
    if gamma == 1 or sigma > limit:
        return GrowthPoint(sigma, mu1, _NEG_INF, None)
    if sigma == limit:
        value = (binary_entropy(sigma) - ent_factor * binary_entropy(mu1)
                 + sigma * math.log2(gamma))
        return GrowthPoint(sigma, mu1, value, None)

    u_star, inf_val = inner_infimum(sigma, mu1, gamma)
    value = binary_entropy(sigma) - ent_factor * binary_entropy(mu1) + inf_val
    return GrowthPoint(sigma, mu1, value, u_star)


def balanced_growth_rate(sigma: float, epsilon, ensemble) -> GrowthPoint:
    """Growth rate of eps-balanced bipartitions: max over allowed mu1.

    g is symmetric in mu1 <-> 1-mu1, so the maximum is taken over the half
    interval [1/2, (1+eps)/2].  By the envelope theorem the inner minimizer
    gives the slope at no extra cost:

        dg/dmu1 = (c*ln(mu1/(1-mu1)) - gamma*ln u*) / ln 2,
        c = gamma*(delta-1)/delta,

    so an interior maximum satisfies ln u* = ((delta-1)/delta)*logit(mu1),
    and the slope is 0 at mu1 = 1/2 by symmetry.  Unimodality in mu1 is not
    proved, so a guard grid spans the half interval: ``_GUARD_POINTS``
    evenly spaced points, ends included, plus a probe a thousandth of a step
    right of 1/2 whose slope tells whether 1/2 is a local maximum.  Every +
    to - sign change of the slope between grid neighbours is bisected to a
    ``_MU1_TOL``-wide bracket.  Every evaluated point is a candidate, so
    1/2 and (1+eps)/2 always are.  Points on or past the support boundary
    (u* = None or value -inf) keep their value and count as descending: on
    mu1 >= 1/2 they lie right of every feasible point, and u* grows without
    bound as the boundary nears.  An undecidable (NaN) slope raises
    RuntimeError naming the mu1 bracket and the guard grid.

    eps is read exactly, as the exact tables read it (a float, ``Fraction``,
    int or string such as ``"1/10"``), must lie in [0, 1), and is then
    rounded to the nearest float; a finite float comes back unchanged.
    eps = 0 short-circuits to the single point mu1 = 1/2.  The returned
    point carries the float eps in its ``mu1`` field.
    """
    epsilon = float(_bipartition_ratio(epsilon))
    found = list(_balanced_candidates(sigma, epsilon, ensemble))
    # The first maximum in guard-grid order, whose last point is the one
    # found first, (1+eps)/2.
    end = _GUARD_POINTS + 1
    found = found[1:end] + found[:1] + found[end:]
    best = max(found, key=lambda p: p.value)
    return GrowthPoint(sigma, epsilon, best.value, best.u_star)


def _balanced_candidates(sigma: float, epsilon: float, ensemble):
    """Yield the candidate points of the maximization over mu1.

    The top end (1+eps)/2 of the guard grid comes first, then the rest of
    the guard grid in order, then the points of each slope bisection.  eps
    is a float in [0, 1); eps = 0 yields the single point mu1 = 1/2.  See
    ``balanced_growth_rate`` for the grid and the bisections.
    """
    if epsilon == 0.0:
        yield growth_rate(sigma, 0.5, ensemble)
        return

    gamma, delta = _degrees(ensemble)
    ent_factor = gamma * (delta - 1) / delta
    hi = (1.0 + epsilon) / 2.0
    step = (hi - 0.5) / (_GUARD_POINTS - 1)
    grid = ([0.5, 0.5 + step / 1000.0]
            + [0.5 + i * step for i in range(1, _GUARD_POINTS - 1)] + [hi])

    def slope(p: GrowthPoint, lo: float, up: float) -> float:
        """dg/dmu1 in bits; -inf on or past the support boundary."""
        if p.u_star is None or p.value == _NEG_INF:
            return _NEG_INF
        d = (ent_factor * math.log(p.mu1 / (1.0 - p.mu1))
             - gamma * math.log(p.u_star)) / _LN2
        if math.isnan(d):
            raise RuntimeError(
                f"mu1 bisection stalled: slope undecidable at mu1={p.mu1} "
                f"in bracket [{lo}, {up}]; guard grid {grid}")
        return d

    top = growth_rate(sigma, hi, ensemble)
    yield top
    points = []
    for mu in grid[:-1]:
        points.append(growth_rate(sigma, mu, ensemble))
        yield points[-1]
    points.append(top)
    slopes = [0.0] + [slope(p, 0.5, hi) for p in points[1:]]
    for i in range(len(grid) - 1):
        if not slopes[i] > 0.0 > slopes[i + 1]:
            continue
        lo, up = grid[i], grid[i + 1]
        while up - lo > _MU1_TOL:
            mid = 0.5 * (lo + up)
            p = growth_rate(sigma, mid, ensemble)
            yield p
            if slope(p, lo, up) > 0.0:
                lo = mid
            else:
                up = mid


def _sign_rate(sigma: float, epsilon: float, ensemble) -> float:
    """The balanced rate at sigma when it is not positive, else a positive
    value at most the rate: the first candidate with a positive value.

    eps is a float in [0, 1).  The candidates are those of
    ``balanced_growth_rate``, with the same bits, so the sign is the rate's.
    """
    best = _NEG_INF
    for p in _balanced_candidates(sigma, epsilon, ensemble):
        if p.value > 0.0:
            return p.value
        best = max(best, p.value)
    return best


def balanced_growth_rate_closed(sigma: float, ensemble) -> float:
    """Closed form of the exactly balanced rate (mu1 = 1/2):

        H2(sigma) + sigma*log2(2^(gamma-1) - 1) - gamma*(delta-1)/delta + 1

    At mu1 = 1/2 the inner minimizer is u = 1 for every sigma, which
    collapses the infimum to the linear term above.  Needs gamma >= 2.
    """
    gamma, delta = _degrees(ensemble)
    if gamma < 2:
        raise ValueError("closed form needs gamma >= 2 (log of 2^(gamma-1)-1)")
    return (binary_entropy(sigma) + sigma * math.log2(2 ** (gamma - 1) - 1)
            - gamma * (delta - 1) / delta + 1.0)


def peak_sigma(mu1: float, gamma: int) -> float:
    """Relative cutsize maximizing the growth rate at fixed mu1."""
    if not 0.0 <= mu1 <= 1.0:
        raise ValueError(f"mu1 must lie in [0, 1], got {mu1}")
    return 1.0 - (1.0 - mu1) ** gamma - mu1 ** gamma


def peak_growth(mu1: float, ensemble) -> float:
    """Maximum of the growth rate over sigma: (gamma/delta) * H2(mu1)."""
    gamma, delta = _degrees(ensemble)
    return gamma / delta * binary_entropy(mu1)


def typical_min_cutsize(epsilon, ensemble) -> float:
    """Smallest relative cutsize where the balanced rate turns positive.

    Balanced bipartitions with smaller relative cutsize are exponentially
    rare.  The root is bracketed by the first positive point of a
    ``_SIGMA_STEP`` grid on (0, peak_sigma(1/2)], built by repeated
    addition of the step and clipped to its top, then bisected to a width
    of ``_SIGMA_TOL``.

    The first positive point is found by binary search, not by evaluating
    every grid point.  For fixed mu1, g is concave in sigma (entropy plus an
    infimum of affine functions of sigma) and peaks at ``peak_sigma(mu1)``
    with the value ``peak_growth(mu1)`` > 0; ``peak_sigma`` decreases on
    [1/2, 1).  So the balanced rate, a maximum of such g over
    mu1 in [1/2, (1+eps)/2], is nondecreasing on the monotone prefix
    sigma <= peak_sigma((1+eps)/2).  Past the prefix, up to the top, every
    sigma equals peak_sigma(mu1) for an allowed mu1, so the rate there is at
    least peak_growth(mu1) > 0.  The sign of the rate is thus monotone over
    the whole grid, and the bracket, and so the root, is the one a
    point-by-point scan finds.

    Each point is tested by ``_sign_rate``, which stops at the first mu1
    candidate with a positive value and so has the rate's sign.  Before the
    final bisection, ``_fences`` probes inside the bracket (the bracket's
    lower end sigma = 0 is evaluated when the first grid point is already
    positive) and fences off the sigma where the tested value is at least
    ``_FENCE_MARGIN`` from 0.  The sign is monotone and the margin is far
    above the rate's rounding error, so a midpoint past a fence is decided
    without a test: the midpoints, and so the root, are bit for bit those of
    a bisection that tests every midpoint, at about a quarter of its inner
    solves at eps > 0.

    Needs gamma >= 2, delta >= 3 (the regime where the rate starts <= 0 and
    the peak is positive, so a root exists).  A grid whose top point is not
    positive raises RuntimeError carrying the evaluated (sigma, rate) pairs
    as ``.grid``, the first grid point and the top in sigma order; its
    message counts them.  eps is read once, as ``balanced_growth_rate``
    reads it.
    """
    gamma, delta = _degrees(ensemble)
    if gamma < 2 or delta < 3:
        raise ValueError("typical minimum cutsize needs gamma >= 2, delta >= 3")
    eps = float(_bipartition_ratio(epsilon))
    top = peak_sigma(0.5, gamma)

    points: list[float] = []
    sigma = _SIGMA_STEP
    while sigma < top:
        points.append(sigma)
        sigma += _SIGMA_STEP
    points.append(top)

    grid: list[tuple[float, float]] = []

    def rate(sigma: float) -> float:
        return _sign_rate(sigma, eps, ensemble)

    def positive(i: int) -> bool:
        v = rate(points[i])
        grid.append((points[i], v))
        return v > 0.0

    if positive(0):
        first = 0
    elif not positive(len(points) - 1):
        err = RuntimeError(
            f"no sign change of balanced rate (gamma={gamma}, "
            f"delta={delta}) found on (0, {top}]; grid step "
            f"{_SIGMA_STEP}, {len(grid)} points evaluated")
        err.grid = grid
        raise err
    else:
        # rate(points[below]) <= 0 < rate(points[first])
        below, first = 0, len(points) - 1
        while first - below > 1:
            mid = (below + first) // 2
            if positive(mid):
                first = mid
            else:
                below = mid
    lo, hi = (points[first - 1] if first else 0.0), points[first]
    rates = dict(grid)
    if not first:
        rates[lo] = rate(lo)
    # rate(lo) <= 0 < rate(hi).  Fences where the rate is at least
    # ``_FENCE_MARGIN`` from 0 decide a midpoint past them unevaluated.
    neg, pos = _fences(rate, lo, rates[lo], hi, rates[hi], _FENCE_MARGIN)
    while hi - lo > _SIGMA_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= neg:
            lo = mid
        elif mid >= pos or rate(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def verdict(ensemble, epsilon=0) -> VerdictRow:
    """Necessary condition for 2-way parallel encodability, typically.

    Compares the design rate 1 - gamma/delta against the typical minimum
    cutsize: when the design rate falls short, almost every instance of the
    ensemble fails the cutsize bound and cannot be block-diagonalized into
    two parallel systems.  eps is read as ``typical_min_cutsize`` reads it.
    """
    gamma, delta = _degrees(ensemble)
    return VerdictRow(gamma, delta,
                      typical_min_cutsize(epsilon, (gamma, delta)))


def curve(ensemble, epsilon,
          sigma_grid: Iterable[float]) -> list[GrowthPoint]:
    """Balanced growth rate sampled on a sigma grid (for plotting/CSV).

    eps is read once, as ``balanced_growth_rate`` reads it; a grid value
    outside [0, 1] raises ValueError from ``growth_rate``.
    """
    eps = _bipartition_ratio(epsilon)
    return [balanced_growth_rate(float(s), eps, ensemble)
            for s in sigma_grid]


def write_curve_csv(points: Sequence[GrowthPoint], fh: TextIO) -> None:
    """Write the CSV rows ``sigma,h`` (10 significant digits) to ``fh``."""
    fh.write("sigma,h\n")
    fh.writelines(f"{p.sigma:.10g},{p.value:.10g}\n" for p in points)


def write_verdict_csv(rows: Sequence[VerdictRow], fh: TextIO) -> None:
    """Write the CSV rows of the verdict table to ``fh``."""
    fh.write("gamma,delta,design_rate,beta_star,satisfied,margin\n")
    fh.writelines(f"{r.gamma},{r.delta},{r.design_rate:.10g},"
                  f"{r.beta_star:.10g},{'true' if r.satisfied else 'false'},"
                  f"{r.margin:.10g}\n" for r in rows)
