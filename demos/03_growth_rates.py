#! /usr/bin/env python3
"""Growth rates: how bipartition counts scale as the hypergraph grows.

The expected number of bipartitions at relative cutsize sigma and relative
part size mu1 behaves like 2^(n*g(sigma, mu1)).  Where the rate is
negative such bipartitions are exponentially rare; the first sigma where
the balanced rate turns positive is the typical minimum cutsize.
"""

import os
from pathlib import Path

from hypercut import (balanced_growth_rate, balanced_growth_rate_closed,
                      curve, growth_rate, log2_expected_bipartitions,
                      peak_growth, peak_sigma, typical_min_cutsize, validate,
                      write_curve_csv)

# Output files go to $HYPERCUT_OUTDIR, or to the working directory.
OUT = Path(os.environ.get("HYPERCUT_OUTDIR", "."))
OUT.mkdir(parents=True, exist_ok=True)

# =============================================================================
# Point evaluation.  The inner infimum is solved numerically; at mu1 = 1/2
# the minimizer is always u = 1 and a closed form exists, which doubles as
# a cross-check of the numeric path.

g = growth_rate(0.3, 0.5, (2, 5))
print(f"g(0.3, 1/2) for (gamma, delta) = (2, 5): {g.value:.6f}, "
      f"inner minimizer u* = {g.u_star:.3f}")
closed = balanced_growth_rate_closed(0.3, (2, 5))
assert abs(g.value - closed) < 1e-10

# =============================================================================
# The rate peaks at sigma+ = 1 - (1-mu1)^gamma - mu1^gamma with value
# (gamma/delta) H2(mu1), and is -inf beyond sigma = gamma*min(mu1, 1-mu1).

sp = peak_sigma(0.5, 2)
print(f"peak at sigma = {sp}, value {peak_growth(0.5, (2, 5)):.4f}")
assert growth_rate(0.9, 0.3, (2, 5)).value == float("-inf")

# =============================================================================
# Balanced curves for two degree families (step 1e-3 reproduces the shapes:
# peaks at 1/2 for gamma = 2 and at 3/4 for gamma = 3, zero crossings
# moving right as delta grows).

grid = [i / 1000 for i in range(1001)]
for gamma, deltas in ((2, range(3, 8)), (3, range(4, 9))):
    for delta in deltas:
        pts = curve((gamma, delta), 0.0, grid)
        path = OUT / f"h_curve_g{gamma}_d{delta}.csv"
        with open(path, "w") as fh:
            write_curve_csv(pts, fh)
    print(f"wrote balanced-rate curves for gamma = {gamma}, "
          f"delta in {list(deltas)}")

# =============================================================================
# Typical minimum cutsizes: the root of the balanced rate.  Loosening the
# balance constraint can only lower the threshold.

for gamma, delta in ((2, 3), (3, 4), (5, 21)):
    beta0 = typical_min_cutsize(0.0, (gamma, delta))
    beta3 = typical_min_cutsize(0.3, (gamma, delta))
    print(f"(gamma, delta) = ({gamma}, {delta}): "
          f"beta*(0) = {beta0:.4f}, beta*(0.3) = {beta3:.4f}")
    assert beta3 <= beta0 + 1e-12

# =============================================================================
# Finite-size agreement: (1/n) log2 of the exact average approaches the
# rate as n grows.

sigma, limit = 0.2, growth_rate(0.2, 0.5, (2, 4)).value
print(f"limit rate g(0.2, 1/2) for (2, 4): {limit:.5f}")
for n in (40, 80, 160, 320):
    params = validate(n, 2, 4)
    finite = log2_expected_bipartitions(params, round(sigma * n),
                                        params.m // 2) / n
    print(f"  n = {n:4d}: (1/n) log2 avg = {finite:.5f} "
          f"(gap {abs(finite - limit):.5f})")

# eps > 0 widens the part-size range, so the balanced rate can only grow.
assert (balanced_growth_rate(0.2, 0.4, (2, 4)).value
        >= balanced_growth_rate(0.2, 0.0, (2, 4)).value)
