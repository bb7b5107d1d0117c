#! /usr/bin/env python3
"""Working with concrete instances: files, partitions, feasibility.

Samples one instance, round-trips it through the alist format, evaluates a
bipartition (balance, cutsize, per-part GF(2) ranks), and brute-forces the
minimum cutsize and the largest usable parallel degree.
"""

import os
from pathlib import Path

from hypercut import (BinaryMatrix, Partition, check_block_diagonalizable,
                      cutsize, gf2_rank, hypergraph_from_matrix, is_balanced,
                      matrix_from_hypergraph, max_parallel_degree,
                      min_cutsize_bruteforce, read_alist, read_partition,
                      sample, validate, write_alist, write_partition)

# Output files go to $HYPERCUT_OUTDIR, or to the working directory.
OUT = Path(os.environ.get("HYPERCUT_OUTDIR", "."))
OUT.mkdir(parents=True, exist_ok=True)

# =============================================================================
# Sample an instance and store it as alist.  The format keeps the support
# only, which is exactly what cut and rank computations use.

params = validate(8, 2, 4)
h = sample(params, seed=11)
mat = matrix_from_hypergraph(h)
alist_path = OUT / "instance.alist"
with open(alist_path, "w") as fh:
    write_alist(mat, fh)
back = read_alist(alist_path)
assert back == mat
print(f"instance: {mat.rows} x {mat.cols}, stored and re-read from "
      f"{alist_path.name}")

# =============================================================================
# A partition is one 1-based label per vertex.  Files use the same layout.

part = Partition((1, 1, 2, 2))
part_path = OUT / "partition.txt"
with open(part_path, "w") as fh:
    write_partition(part, fh)
assert read_partition(part_path).labels == part.labels

print("balanced at eps = 0:", is_balanced(part, 0))
print("cutsize:", cutsize(h, part))

# =============================================================================
# Feasibility of a block-diagonal split along this partition: every part
# needs its exclusive columns (those touching no other part) to have full
# GF(2) rank.  A feasible verdict comes with a witness permutation pair.

v = check_block_diagonalizable(mat, part, 0)
print("per-part (size, exclusive rank):", v.per_part_rank)
print("feasible:", v.feasible)
if v.feasible:
    dense = mat.to_dense()
    perm = [[dense[r][c] for c in v.col_order] for r in v.row_order]
    top_left = [row[:2] for row in perm[:2]]
    assert gf2_rank(BinaryMatrix.from_dense(top_left)) == 2
    assert not any(any(row[:2]) for row in perm[2:])
    print("witness checks out: first diagonal block nonsingular, zeros below")

# =============================================================================
# Exhaustive search over balanced bipartitions, and the largest K for
# which the cutsize bound n - m still holds.

mincut, best = min_cutsize_bruteforce(h, 2, 0)
print(f"min cutsize over balanced bipartitions: {mincut} "
      f"(at labels {best.labels})")
print(f"necessary condition n - m >= mincut: "
      f"{mat.cols - mat.rows} >= {mincut} -> "
      f"{mat.cols - mat.rows >= mincut}")
print("max parallel degree:", max_parallel_degree(mat, 0))

# =============================================================================
# Matrices and hypergraphs convert both ways; the support survives.

assert matrix_from_hypergraph(hypergraph_from_matrix(mat)) == mat
print("matrix <-> hypergraph round trip preserves the support")
