#! /usr/bin/env python3
"""Validating the counting formula against brute force.

Nothing here trusts the generating-function algebra: instances are built
explicitly, all 2^m vertex assignments of each instance are enumerated, and
the results are averaged.  The exhaustive average runs over every socket
permutation, walked as distinct multisets of nets (classes) weighted by
their permutation counts, and must match the formula with exact rational
equality.  Beyond exhaustive range, Monte Carlo sampling brackets each cell
with a standard error.
"""

import os
import time
from pathlib import Path

from hypercut import (count_bipartitions, cutsize_table,
                      exact_ensemble_average, instance_classes,
                      monte_carlo_average, sample, validate)
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
# Exhaustive ensemble average over all 8! = 40320 socket permutations of
# E(4,2,4).  They produce only 3 distinct multisets of nets, so the average
# counts 3 classes, each weighted by its number of permutations.  The
# result must equal the formula table cell for cell, as exact rationals.

classes = list(instance_classes(params))
print("classes of E(4,2,4) (nets, permutations):",
      [(h.nets, w) for h, w in classes])
assert sum(w for _, w in classes) == 40320

t0 = time.perf_counter()
avg = exact_ensemble_average(params)
formula = cutsize_table(params)
assert avg.cells == formula.cells
print(f"exhaustive average == formula for E(4,2,4) "
      f"({(time.perf_counter() - t0) * 1e3:.1f} ms, {len(classes)} classes)")

# A second ensemble with a different degree profile (6! = 720 permutations).
params2 = validate(2, 3, 3)
assert exact_ensemble_average(params2).cells == cutsize_table(params2).cells
print("exhaustive average == formula for E(2,3,3)")

# A larger one: 16! ~ 2.1e13 socket permutations, out of reach one by one,
# fall into 138 classes on m = 4 vertices.
params3 = validate(8, 2, 4)
t0 = time.perf_counter()
assert exact_ensemble_average(params3).cells == cutsize_table(params3).cells
print(f"exhaustive average == formula for E(8,2,4) "
      f"({(time.perf_counter() - t0) * 1e3:.1f} ms, "
      f"{sum(1 for _ in instance_classes(params3))} classes)")

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
