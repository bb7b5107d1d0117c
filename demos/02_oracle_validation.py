#! /usr/bin/env python3
"""Validating the counting formula against brute force.

Nothing here trusts the generating-function algebra: instances are built
explicitly from socket permutations, all 2^m vertex assignments of each
instance are enumerated, and the results are averaged.  For small socket
counts the average runs over every permutation and must match the formula
with exact rational equality.  Beyond exhaustive range, Monte Carlo
sampling brackets each cell with a standard error.
"""

import os
import time
from pathlib import Path

from hypercut import (count_bipartitions, cutsize_table,
                      exact_ensemble_average, monte_carlo_average, sample,
                      validate)
from hypercut.oracle import write_estimate_csv

# Output files go to $HYPERCUT_OUTDIR, or to the working directory.
OUT = Path(os.environ.get("HYPERCUT_OUTDIR", "."))
OUT.mkdir(parents=True, exist_ok=True)

# =============================================================================
# Per-instance counting.  One sampled instance of E(4, 2, 4); each of the
# 2^m labeled assignments lands in one (cutsize, |U1|) bin.

params = validate(4, 2, 4)
h = sample(params, seed=7)
print("sampled nets:", h.nets)
counts = count_bipartitions(h)
print("per-instance histogram:", dict(sorted(counts.items())))
assert sum(counts.values()) == 2 ** params.m

# =============================================================================
# Exhaustive ensemble average: all 8! = 40320 socket permutations.  The
# result must equal the formula table cell for cell, as exact rationals.

t0 = time.perf_counter()
avg = exact_ensemble_average(params)
formula = cutsize_table(params)
assert avg.cells == formula.cells
print(f"exhaustive average == formula for E(4,2,4) "
      f"({time.perf_counter() - t0:.2f}s, 40320 permutations)")

# A second ensemble with a different degree profile.
params2 = validate(2, 3, 3)
assert exact_ensemble_average(params2).cells == cutsize_table(params2).cells
print("exhaustive average == formula for E(2,3,3) (720 permutations)")

# =============================================================================
# Monte Carlo: cheap at any socket count that keeps 2^m enumerable.  With
# 20000 samples every cell of E(4,2,4) should sit within a few standard
# errors of the exact value.

est = monte_carlo_average(params, samples=20_000, seed=1)
print("cell (2, 1): exact", float(formula.value(2, 1)), "estimated",
      f"{est.mean[2, 1]:.4f} +- {est.stderr[2, 1]:.4f}")
worst = max(abs(est.mean[s, m1] - float(formula.value(s, m1)))
            / est.stderr[s, m1]
            for s in range(5) for m1 in range(3) if est.stderr[s, m1] > 0)
print(f"worst cell deviation: {worst:.2f} standard errors")

mc_csv = OUT / "e424_montecarlo.csv"
write_estimate_csv(est, mc_csv)
print("wrote", mc_csv)
