"""Regular ensembles of random bipartite hypergraphs (configuration model).

An ensemble is the triple (n, gamma, delta): n nets of degree gamma and
m = gamma*n/delta vertices of degree delta.  Every net socket is joined to a
vertex socket through a uniformly random permutation of the xi = gamma*n
edge sockets, so parallel connections (multiset nets) are possible and are
kept.  All xi! socket permutations are equally likely.  ``enumerate_all``
yields every one of them, duplicates included.  ``instance_classes`` yields
each distinct multiset of nets once, weighted by the number of permutations
that produce it (the configuration model's count), which is what exact
averaging walks.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import warnings
from dataclasses import dataclass, field

from .core import DEFAULT_ENUM_CAP, CapExceeded, Hypergraph

#: RNG used by ``sample``: Python's Mersenne Twister (MT19937) driving a
#: Fisher-Yates shuffle, which is unbiased over permutations.
RNG_ALGORITHM = "mt19937/fisher-yates"


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters (n, gamma, delta) and the values they fix: m = gamma*n/delta
    vertices and xi = gamma*n edge sockets.

    The record checks its own inputs: n, gamma and delta must be integers
    (``TypeError`` otherwise, never a truncation), at least 1, and delta
    must divide gamma*n (m must be an integer).
    """

    n: int
    gamma: int
    delta: int
    m: int = field(init=False)
    xi: int = field(init=False)

    def __post_init__(self):
        for name in ("n", "gamma", "delta"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.n, self.gamma, self.delta) < 1:
            raise ValueError("n, gamma, delta must all be at least 1")
        xi = self.gamma * self.n
        if xi % self.delta:
            raise ValueError(f"gamma*n must be divisible by delta "
                             f"(gamma*n = {xi}, delta = {self.delta})")
        object.__setattr__(self, "m", xi // self.delta)
        object.__setattr__(self, "xi", xi)


def validate(n: int, gamma: int, delta: int) -> EnsembleParams:
    """Build the parameter record, which rejects non-integer inputs and
    checks socket balance.  A negative design rate (delta < gamma) is legal
    but makes encodability verdicts vacuous, so it only warns.
    """
    params = EnsembleParams(n, gamma, delta)
    if params.delta < params.gamma:
        warnings.warn(f"design rate 1 - gamma/delta = 1 - {params.gamma}/"
                      f"{params.delta} is negative; encodability verdicts "
                      "are vacuous", stacklevel=2)
    return params


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


def _compositions(total: int, parts: int):
    """Compositions of ``total`` into ``parts`` non-negative parts, in
    decreasing lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def instance_classes(params: EnsembleParams):
    """Yield ``(instance, weight)`` once per distinct multiset of nets.

    A net is a composition a of gamma over the m vertices (a_v sockets on
    vertex v); a class is a non-increasing sequence of n compositions in
    which every vertex is used delta times, so its nets come out sorted,
    exactly as ``tuple(sorted(h.nets))`` of any instance in it.  The weight
    is the number of socket permutations that produce the class,

        n! (gamma!)^n (delta!)^m / (prod mult! * prod_{j,v} a_jv!),

    with mult the multiplicity of each distinct net.  The weights sum to
    xi!, so a weighted average over this stream equals the average over
    ``enumerate_all``.
    """
    n, g, d, m = params.n, params.gamma, params.delta, params.m
    comps = list(_compositions(g, m))
    nets = [tuple(v for v, a in enumerate(comp) for _ in range(a))
            for comp in comps]
    # Lowest vertex of each composition; it never decreases along ``comps``,
    # and a class may only repeat a composition or move further along.
    lowest = [net[0] for net in nets]
    denom = [math.prod(map(math.factorial, comp)) for comp in comps]
    top = (math.factorial(n) * math.factorial(g) ** n
           * math.factorial(d) ** m)
    budget = [d] * m
    chosen: list[int] = []

    def walk(start: int, den: int, run: int):
        if len(chosen) == n:
            # gamma*n = delta*m sockets placed with no vertex over delta,
            # so every vertex is used exactly delta times.
            yield Hypergraph(m, tuple(nets[k] for k in chosen)), top // den
            return
        # ``need`` is the lowest vertex with budget left.  Once a candidate's
        # lowest vertex lies above it, so does every later candidate's, and
        # no net left can use ``need``: the branch is dead.
        need = next(v for v in range(m) if budget[v])
        for k in range(start, len(comps)):
            if lowest[k] > need:
                break
            comp = comps[k]
            if any(a > b for a, b in zip(comp, budget)):
                continue
            for v, a in enumerate(comp):
                budget[v] -= a
            mult = run + 1 if chosen and k == start else 1
            chosen.append(k)
            yield from walk(k, den * denom[k] * mult, mult)
            chosen.pop()
            for v, a in enumerate(comp):
                budget[v] += a

    yield from walk(0, 1, 0)
