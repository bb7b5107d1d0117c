"""Brute-force ground truth for the cutsize distribution.

Counts bipartitions of concrete instances by enumerating all 2^m labeled
vertex assignments, averages those counts over an ensemble exactly, in
rationals, and estimates the same table by Monte Carlo with standard
errors.  Both averages count each distinct multiset of nets (a class) once
and weight it: the exact average by the number of socket permutations that
produce it (``instance_classes``), the estimate by how often it was
sampled.  The exhaustive average must equal the generating-function table
cell for cell; that equality is the main correctness gate for both sides.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, TextIO

from . import core
from .core import CapExceeded, Hypergraph, _cut
# ``enumerate_all`` is unused here, but bench/selftest.py ``check_restore``
# asserts that the tracer wraps ``hypercut.oracle.enumerate_all``.
from .ensemble import (EnsembleParams, _sampled_classes,  # noqa: F401
                       enumerate_all, instance_classes)
from .exact_distribution import CutsizeTable


def count_bipartitions(h: Hypergraph) -> dict[tuple[int, int], int]:
    """Histogram (cutsize, |U1|) -> count over all 2^m labeled assignments.

    Every assignment is counted, including the two with an empty part
    (binned at |U1| = 0 and |U1| = m), so the counts always total 2^m.
    Raises ``CapExceeded`` first when 2^m exceeds ``DEFAULT_ENUM_CAP``.
    """
    m = h.vertex_count
    cap = core.DEFAULT_ENUM_CAP
    if 1 << m > cap:
        raise CapExceeded(f"2^{m} assignments exceed cap {cap}")
    masks = h.support_masks
    full = (1 << m) - 1
    counts: dict[tuple[int, int], int] = {}
    for x in range(1 << m):
        key = (_cut(masks, (x, x ^ full)), x.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


def _class_sums(classes: Iterable[tuple[Hypergraph, int]], m: int
                ) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Weighted sums of the counts and of their squares, per (cutsize, |U1|)
    cell, over ``(instance, weight)`` pairs on m vertices.

    The counts depend only on the multiset of an instance's nets, so each
    pair stands for ``weight`` instances and ``count_bipartitions`` runs
    once per pair.  ``DEFAULT_ENUM_CAP`` counts the work as it is done,
    2^m assignments per pair visited; the walk stops as soon as the total
    passes it, before that pair is counted.
    """
    cap = core.DEFAULT_ENUM_CAP
    cost = 1 << m
    visited = 0
    sums: dict[tuple[int, int], int] = {}
    sumsq: dict[tuple[int, int], int] = {}
    for h, weight in classes:
        visited += cost
        if visited > cap:
            raise CapExceeded(f"{visited} assignments visited "
                              f"(2^{m} per class) against cap {cap}")
        for key, c in count_bipartitions(h).items():
            sums[key] = sums.get(key, 0) + weight * c
            sumsq[key] = sumsq.get(key, 0) + weight * c * c
    return sums, sumsq


def exact_ensemble_average(params: EnsembleParams) -> CutsizeTable:
    """Average ``count_bipartitions`` over all xi! socket permutations.

    The walk visits each class of ``instance_classes`` once and weights its
    counts by the class's permutation count, so it never builds the xi!
    instances.  ``DEFAULT_ENUM_CAP`` bounds the assignments counted, 2^m
    per class.  Exact table on the full (s, m1) grid, integer totals over
    xi!; the structural identities are verified on construction.
    """
    totals, _ = _class_sums(instance_classes(params), params.m)
    fact = math.factorial(params.xi)
    num = [[totals.get((s, m1), 0) for m1 in range(params.m + 1)]
           for s in range(params.n + 1)]
    table = CutsizeTable(params, num, [fact] * (params.m + 1))
    table.validate()
    return table


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Per-cell sample mean and standard error of the bipartition counts."""

    params: EnsembleParams
    samples: int
    seed: int
    mean: dict[tuple[int, int], float]    # every (s, m1) cell, zero-filled
    stderr: dict[tuple[int, int], float]  # keyed like ``mean``


def monte_carlo_average(params: EnsembleParams, samples: int,
                        seed: int) -> MonteCarloEstimate:
    """Estimate the cutsize table from independent sampled instances.

    Accumulation is exact integer arithmetic; mean and standard error of
    the mean are computed at the end.  Reproducible: one RNG stream is
    seeded once and drawn sequentially.  ``DEFAULT_ENUM_CAP`` bounds 2^m
    before the first draw, then the assignments of the classes drawn.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    cap = core.DEFAULT_ENUM_CAP
    if 1 << params.m > cap:
        raise CapExceeded(f"2^{params.m} assignments exceed cap {cap}")
    classes = _sampled_classes(params, random.Random(seed), samples)
    sums, sumsq = _class_sums(((Hypergraph(params.m, nets), mult)
                               for nets, mult in classes.items()),
                              params.m)

    grid = [(s, m1) for s in range(params.n + 1)
            for m1 in range(params.m + 1)]
    mean = {key: sums.get(key, 0) / samples for key in grid}
    # N*sum(x^2) - (sum x)^2 = N*(N-1)*sample variance, exact ints.
    stderr = {key: math.sqrt(samples * sumsq.get(key, 0)
                             - sums.get(key, 0) ** 2)
              / (samples * math.sqrt(samples - 1)) if samples > 1 else 0.0
              for key in grid}
    return MonteCarloEstimate(params, samples, seed, mean, stderr)


def write_estimate_csv(est: MonteCarloEstimate, fh: TextIO) -> int:
    """Write the CSV rows ``s,m1,mean,stderr`` (floats, 10 significant
    digits) to ``fh``; returns the data row count."""
    fh.write("s,m1,mean,stderr\n")
    fh.writelines(f"{s},{m1},{mu:.10g},{est.stderr[s, m1]:.10g}\n"
                  for (s, m1), mu in est.mean.items())
    return len(est.mean)
