#! /usr/bin/env python3
"""Exact cutsize distributions of random regular hypergraph bipartitions.

The ensemble E(n, gamma, delta) has n nets of degree gamma and
m = gamma*n/delta vertices of degree delta, wired through a uniformly
random socket permutation.  For every cutsize s and first-part size m1,
the library evaluates the ensemble-average number of labeled bipartitions
as an exact rational, using arbitrary-precision generating-function
coefficients.
"""

import os
from fractions import Fraction
from pathlib import Path

from hypercut import (cutsize_table, expected_balanced_bipartitions,
                      expected_bipartitions, log2_expected_bipartitions,
                      validate, write_balanced_rows, write_table_rows)

# Output files go to $HYPERCUT_OUTDIR, or to the working directory.
OUT = Path(os.environ.get("HYPERCUT_OUTDIR", "."))
OUT.mkdir(parents=True, exist_ok=True)

# =============================================================================
# Validate parameters.  gamma*n must be divisible by delta; the constructor
# derives the vertex count m and the socket count xi.

params = validate(n=4, gamma=2, delta=4)
print(f"E(4, 2, 4): m = {params.m} vertices, xi = {params.xi} sockets")

# =============================================================================
# Single cells are exact rationals.  For this tiny ensemble the balanced
# row m1 = 1 is supported on even cutsizes only.

for s in range(5):
    print(f"  avg #bipartitions with cutsize {s}, |U1| = 1:",
          expected_bipartitions(params, s, 1))

assert expected_bipartitions(params, 2, 1) == Fraction(48, 35)
assert expected_bipartitions(params, 1, 1) == 0

# =============================================================================
# The full table carries structural identities that are verified on
# construction: each |U1| row sums to C(m, m1), the grand total is 2^m,
# and the table is symmetric under m1 <-> m - m1.

table = cutsize_table(params)
print("table total (should be 2^m = 4):", table.total())

# =============================================================================
# The balanced distribution sums rows over the |U1| range allowed by the
# imbalance ratio eps.  With eps = 0 and even m that is the single middle
# row; odd m admits no exactly balanced bipartition at all.

balanced = table.balanced_distribution(0)
print("exactly balanced distribution:", {s: str(v) for s, v in balanced.items()
                                         if v != 0})
assert balanced[2] == expected_balanced_bipartitions(params, 2, 0)

odd = validate(3, 2, 2)  # m = 3
assert all(expected_balanced_bipartitions(odd, s, 0) == 0 for s in range(4))
print("odd m at eps = 0: balanced distribution is identically zero")

# =============================================================================
# Large ensembles: the log2 evaluator avoids building astronomic rationals
# (it logs the exact cell's integer numerator and denominator).

big = validate(400, 2, 4)
rate = log2_expected_bipartitions(big, 80, big.m // 2) / big.n
print(f"E(400, 2, 4): (1/n) log2 avg at sigma = 0.2, mu1 = 1/2: {rate:.6f}")

# =============================================================================
# CSV export: exact integers as decimal strings.  Writers take an open
# text handle.

a_csv = OUT / "e424_table.csv"
b_csv = OUT / "e424_balanced.csv"
with open(a_csv, "w") as fh:
    write_table_rows(table.num, table.den, fh)
with open(b_csv, "w") as fh:
    write_balanced_rows(table.balanced_distribution(0).values(), fh)
print("wrote", a_csv, "and", b_csv)
