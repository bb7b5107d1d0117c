#! /usr/bin/env python3
"""When can parity computations be split into two parallel blocks?

Block-diagonalizing an m x n parity-check matrix into K nonsingular blocks
requires a balanced K-way partition of its hypergraph with cutsize at most
n - m.  Typically (in the random ensemble, with high probability) a
bipartition needs cutsize about beta* x n, so the design rate 1 - gamma/delta
must be at least beta* for the split to stand a chance.
"""

import os
from pathlib import Path

from hypercut import verdict
from hypercut.asymptotics import write_verdict_csv

# Output files go to $HYPERCUT_OUTDIR, or to the working directory.
OUT = Path(os.environ.get("HYPERCUT_OUTDIR", "."))
OUT.mkdir(parents=True, exist_ok=True)

# =============================================================================
# Scan the three degree families.  gamma = 2 passes everywhere; gamma = 3
# fails only at its lowest rate; gamma = 5 needs delta >= 21.

families = [(2, range(3, 9)), (3, range(4, 10)), (5, (6, 10, 15, 20, 21, 25))]

rows = []
for gamma, deltas in families:
    print(f"gamma = {gamma}")
    print("  delta  design rate   beta*(0)  2-parallel possible?")
    for delta in deltas:
        r = verdict((gamma, delta), epsilon=0.0)
        rows.append(r)
        print(f"  {delta:5d}  {r.design_rate:11.4f}  {r.beta_star:9.4f}  "
              f"{'yes' if r.satisfied else 'no':>8}  (margin {r.margin:+.4f})")

assert all(r.satisfied for r in rows if r.gamma == 2)
assert not verdict((3, 4)).satisfied
assert verdict((5, 21)).satisfied and not verdict((5, 20)).satisfied

path = OUT / "verdicts.csv"
with open(path, "w") as fh:
    write_verdict_csv(rows, fh)
print("wrote", path)
