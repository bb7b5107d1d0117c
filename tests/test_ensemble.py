import hashlib
import itertools
import math
import random
import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut.core import CapExceeded
from hypercut.ensemble import (EnsembleParams, _sampled_classes, _shuffles,
                               enumerate_all,
                               hypergraph_from_socket_permutation,
                               instance_classes, sample, sample_with_rng,
                               validate)


@st.composite
def valid_params(draw, max_edges=12):
    gamma = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_edges // gamma))
    xi = gamma * n
    divisors = [d for d in range(1, xi + 1) if xi % d == 0]
    delta = draw(st.sampled_from(divisors))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate(n, gamma, delta)


def _nets_by_formula(params, perm):
    # Net socket i (of net i // gamma) joins vertex socket perm[i] (of
    # vertex perm[i] // delta); each net is listed in sorted order.
    g, d = params.gamma, params.delta
    return tuple(
        tuple(sorted(perm[i] // d for i in range(j * g, (j + 1) * g)))
        for j in range(params.n))


class TestValidate:
    def test_derived_fields(self):
        p = validate(4, 2, 4)
        assert (p.m, p.xi) == (2, 8)
        p = validate(6, 3, 6)
        assert (p.m, p.xi) == (3, 18)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            validate(3, 2, 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            validate(0, 2, 2)

    def test_negative_design_rate_warns(self):
        with pytest.warns(UserWarning, match="design rate"):
            validate(4, 4, 2)

    def test_record_computes_derived_fields(self):
        for n, gamma, delta in ((4, 2, 4), (6, 3, 6), (9, 2, 3), (5, 4, 2)):
            p = EnsembleParams(n, gamma, delta)
            assert (p.m, p.xi) == (gamma * n // delta, gamma * n)
        assert EnsembleParams(6, 3, 6) == validate(6, 3, 6)
        assert repr(EnsembleParams(4, 2, 4)) == \
            "EnsembleParams(n=4, gamma=2, delta=4, m=2, xi=8)"

    @pytest.mark.parametrize("build, args", [
        (validate, (4.5, 2, 4)), (validate, ("4", 2, 4)),
        (validate, (4, 2.0, 4)), (EnsembleParams, (4.5, 2, 3)),
        (EnsembleParams, (4, 2, 4.0))])
    def test_non_integers_rejected(self, build, args):
        with pytest.raises(TypeError):
            build(*args)

    def test_record_rejects_indivisible(self):
        with pytest.raises(ValueError, match=re.escape(
                "gamma*n must be divisible by delta (gamma*n = 6, "
                "delta = 4)")):
            EnsembleParams(3, 2, 4)
        with pytest.raises(ValueError, match="at least 1"):
            EnsembleParams(0, 2, 2)


class TestSample:
    def test_forced_single_net(self):
        p = validate(1, 2, 2)
        assert sample(p, 0).nets == ((0, 0),)

    def test_degree_conservation(self):
        p = validate(4, 2, 4)
        for seed in range(20):
            h = sample(p, seed)
            assert all(len(net) == 2 for net in h.nets)
            degree = Counter(v for net in h.nets for v in net)
            assert all(degree[v] == 4 for v in range(p.m))

    def test_deterministic_per_seed(self):
        p = validate(6, 2, 3)
        assert sample(p, 123).nets == sample(p, 123).nets
        assert any(sample(p, 1).nets != sample(p, s).nets
                   for s in range(2, 30))

    def test_seed_to_instance_mapping_is_pinned(self):
        # The seed -> instance map that RNG_ALGORITHM promises: any change to
        # the shuffle or to how sockets become nets changes this digest.
        p = validate(8, 2, 4)
        nets = [sample(p, seed).nets for seed in range(100)]
        assert hashlib.sha256(repr(nets).encode()).hexdigest() == (
            "a1183d711d4f321ada4df04553a1c8cbd2d9d750a1325ca5c8aad729bfc09212")

    @given(valid_params(), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_socket_conservation_property(self, params, seed):
        h = sample(params, seed)
        assert h.vertex_count == params.m
        assert sum(len(net) for net in h.nets) == params.xi
        degree = Counter(v for net in h.nets for v in net)
        assert all(degree[v] == params.delta for v in range(params.m))


class TestEnumerateAll:
    def test_forced_pair(self):
        p = validate(1, 2, 2)
        graphs = list(enumerate_all(p))
        assert len(graphs) == 2
        assert all(h.nets == ((0, 0),) for h in graphs)

    def test_single_vertex_two_nets(self):
        p = validate(2, 1, 2)
        graphs = list(enumerate_all(p))
        assert len(graphs) == 2
        assert all(h.nets == ((0,), (0,)) for h in graphs)

    def test_count_is_xi_factorial(self):
        p = validate(3, 1, 3)
        assert sum(1 for _ in enumerate_all(p)) == math.factorial(3)

    def test_cap_checked_before_enumerating(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = validate(6, 2, 4)  # xi = 12, 12! far beyond the default cap
        with pytest.raises(CapExceeded):
            next(iter(enumerate_all(p)))

    def test_socket_permutation_round_trip(self):
        p = validate(2, 2, 2)
        h = hypergraph_from_socket_permutation(p, (2, 0, 3, 1))
        assert h.nets == ((0, 1), (0, 1))
        with pytest.raises(ValueError, match="permutation"):
            hypergraph_from_socket_permutation(p, (0, 0, 1, 2))

    def test_nets_match_formula_for_every_permutation(self):
        p = validate(3, 2, 3)
        for perm in itertools.permutations(range(p.xi)):
            assert (hypergraph_from_socket_permutation(p, perm).nets
                    == _nets_by_formula(p, perm))

    def test_nets_match_formula_for_random_permutations(self):
        p = validate(12, 3, 6)
        rng = random.Random(0)
        for _ in range(200):
            perm = rng.sample(range(p.xi), p.xi)
            assert (hypergraph_from_socket_permutation(p, perm).nets
                    == _nets_by_formula(p, perm))


class TestInstanceClasses:
    @pytest.mark.parametrize("n, g, d", [(2, 2, 2), (3, 2, 3), (4, 2, 4),
                                         (2, 3, 3)])
    def test_weights_equal_permutation_counts(self, n, g, d):
        p = validate(n, g, d)
        assert {h.nets: w for h, w in instance_classes(p)} == Counter(
            tuple(sorted(h.nets)) for h in enumerate_all(p))

    @pytest.mark.parametrize("n, g, d", [
        (4, 2, 4), (2, 3, 3), (3, 2, 3), (3, 1, 3), (1, 2, 2), (6, 2, 4),
        (8, 2, 4), (6, 3, 6), (10, 2, 5), (9, 2, 3), (10, 2, 4), (8, 3, 6)])
    def test_weights_sum_to_xi_factorial_once_per_class(self, n, g, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = validate(n, g, d)
        classes = list(instance_classes(p))
        assert sum(w for _, w in classes) == math.factorial(p.xi)
        assert len({h.nets for h, _ in classes}) == len(classes)
        for h, _ in classes:
            degree = Counter(v for net in h.nets for v in net)
            assert [degree[v] for v in range(p.m)] == [d] * p.m


def test_sampler_matches_uniform_permutation_law():
    """Frequencies over 1e4 seeds vs the exact law from full enumeration.

    E(4,2,4) has 8! = 40320 socket permutations collapsing onto 19 distinct
    labeled multigraphs; the chi-square statistic against the enumerated
    probabilities stays below the 1e-6 upper tail for 18 degrees of freedom
    (61.91) for this fixed seed range.
    """
    params = validate(4, 2, 4)
    law = Counter()
    total = 0
    for h in enumerate_all(params):
        law[h.nets] += 1
        total += 1
    assert total == 40320
    assert len(law) == 19

    draws = 10_000
    observed = Counter(sample(params, seed).nets for seed in range(draws))
    assert sum(observed.values()) == draws
    assert set(observed) <= set(law)

    stat = sum((observed.get(key, 0) - draws * cnt / total) ** 2
               / (draws * cnt / total) for key, cnt in law.items())
    assert stat < 61.91


@pytest.mark.parametrize("length", [0, 1, 2, 16, 17, 64, 200])
def test_shuffles_draw_as_random_shuffle(length):
    # The package's Fisher-Yates must make exactly the draws of
    # random.Random.shuffle: the same lists, copy after copy, and the same
    # stream left behind.  Lists of 0 and 1 items draw nothing.
    items = [3 * i + 1 for i in range(length)]
    for seed in range(100):
        ref, rng = random.Random(seed), random.Random(seed)
        copies = _shuffles(items, rng)
        for _ in range(3):
            want = items[:]
            ref.shuffle(want)
            assert next(copies) == want
            assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()
    assert items == [3 * i + 1 for i in range(length)]


@pytest.mark.parametrize("n, gamma, delta", [
    (8, 2, 4), (6, 3, 6), (9, 2, 3), (12, 3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sampled_classes_match_sampled_instances(n, gamma, delta, seed):
    # Socket codes are shuffled with the same draws as socket indices, so
    # the class counts equal those of the instances themselves, in the
    # order the classes first come up.  (6, 3, 6) has nets that meet a
    # vertex twice.
    params = validate(n, gamma, delta)
    rng = random.Random(seed)
    want = Counter(tuple(sorted(sample_with_rng(params, rng).nets))
                   for _ in range(500))
    got = _sampled_classes(params, random.Random(seed), 500)
    assert got == want
    assert list(got) == list(want)
