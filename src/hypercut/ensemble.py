"""Regular ensembles of random bipartite hypergraphs (configuration model).

An ensemble is the triple (n, gamma, delta): n nets of degree gamma and
m = gamma*n/delta vertices of degree delta.  Every net socket is joined to a
vertex socket through a uniformly random permutation of the xi = gamma*n
edge sockets, so parallel connections (multiset nets) are possible and are
kept.  All xi! socket permutations are equally likely; ``enumerate_all``
yields every one of them, duplicates included, which is what exact
averaging divides by.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass

from .core import DEFAULT_ENUM_CAP, CapExceeded, Hypergraph

#: RNG used by ``sample``: Python's Mersenne Twister (MT19937) driving a
#: Fisher-Yates shuffle, which is unbiased over permutations.
RNG_ALGORITHM = "mt19937/fisher-yates"


@dataclass(frozen=True)
class EnsembleParams:
    """Validated parameters (n, gamma, delta) with derived m and xi."""

    n: int
    gamma: int
    delta: int
    m: int
    xi: int

    def __post_init__(self):
        if min(self.n, self.gamma, self.delta) < 1:
            raise ValueError("n, gamma, delta must all be at least 1")
        if self.m * self.delta != self.gamma * self.n or self.xi != self.gamma * self.n:
            raise ValueError("inconsistent derived fields; use validate()")


def validate(n: int, gamma: int, delta: int) -> EnsembleParams:
    """Check socket balance and build the parameter record.

    gamma*n must be divisible by delta (the vertex count m must be an
    integer).  A negative design rate (delta < gamma) is legal but makes
    encodability verdicts vacuous, so it only warns.
    """
    n, gamma, delta = int(n), int(gamma), int(delta)
    if min(n, gamma, delta) < 1:
        raise ValueError("n, gamma, delta must all be at least 1")
    if (gamma * n) % delta != 0:
        raise ValueError(f"gamma*n must be divisible by delta "
                         f"(gamma*n = {gamma * n}, delta = {delta})")
    if delta < gamma:
        warnings.warn(f"design rate 1 - gamma/delta = 1 - {gamma}/{delta} is "
                      "negative; encodability verdicts are vacuous",
                      stacklevel=2)
    return EnsembleParams(n, gamma, delta, (gamma * n) // delta, gamma * n)


def _instance(params: EnsembleParams, perm) -> Hypergraph:
    # Net socket i (owned by net i // gamma, so net j is the j-th gamma-long
    # slice) joins vertex socket perm[i] (owned by vertex perm[i] // delta).
    g, d = params.gamma, params.delta
    owner = [s // d for s in perm]
    return Hypergraph(params.m, tuple(owner[i:i + g]
                                      for i in range(0, params.xi, g)))


def hypergraph_from_socket_permutation(params: EnsembleParams,
                                       perm) -> Hypergraph:
    """Instance determined by one permutation of the xi edge sockets."""
    if sorted(perm) != list(range(params.xi)):
        raise ValueError(f"not a permutation of 0..{params.xi - 1}")
    return _instance(params, perm)


def sample(params: EnsembleParams, seed: int) -> Hypergraph:
    """Draw one instance uniformly; deterministic for a fixed seed.

    The socket permutation comes from ``RNG_ALGORITHM``; record that string
    alongside the seed to make runs reproducible elsewhere.
    """
    return sample_with_rng(params, random.Random(seed))


def sample_with_rng(params: EnsembleParams, rng: random.Random) -> Hypergraph:
    """Like ``sample`` but advancing a caller-owned RNG stream."""
    perm = list(range(params.xi))
    rng.shuffle(perm)
    return _instance(params, perm)


def enumerate_all(params: EnsembleParams, cap: int = DEFAULT_ENUM_CAP):
    """Yield the instance of every socket permutation, in lexicographic order.

    Distinct permutations can produce equal hypergraphs; duplicates are
    *not* removed, so averaging a statistic over this stream and dividing
    by xi! is the exact ensemble average.
    """
    total = math.factorial(params.xi)
    if total > cap:
        raise CapExceeded(f"xi! = {params.xi}! = {total} permutations "
                          f"exceed cap {cap}")
    for perm in itertools.permutations(range(params.xi)):
        yield _instance(params, perm)
