import hashlib
import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import core, ensemble, oracle
from hypercut.cli import main
from hypercut.core import CapExceeded, Hypergraph, Partition, cutsize
from hypercut.ensemble import enumerate_all, sample, sample_with_rng, validate
from hypercut.exact_distribution import cutsize_table
from hypercut.oracle import (count_bipartitions, exact_ensemble_average,
                             monte_carlo_average, write_estimate_csv)


def _count_calls(monkeypatch) -> list:
    """Record every instance ``oracle.count_bipartitions`` is called on."""
    calls = []
    original = oracle.count_bipartitions

    def counted(h, *args, **kwargs):
        calls.append(h)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(oracle, "count_bipartitions", counted)
    return calls


class TestCountBipartitions:
    def test_two_singleton_nets(self):
        h = Hypergraph(2, ((0,), (1,)))
        assert count_bipartitions(h) == {(0, 0): 1, (0, 1): 2, (0, 2): 1}

    def test_one_spanning_net(self):
        h = Hypergraph(2, ((0, 1),))
        assert count_bipartitions(h) == {(0, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_total_is_two_to_m(self):
        for h in (Hypergraph(3, ((0, 1), (1, 2))),
                  Hypergraph(4, ((0, 1, 2, 3),)),
                  Hypergraph(1, ((0, 0),))):
            assert sum(count_bipartitions(h).values()) == 2 ** h.vertex_count

    def test_row_sums_are_binomials_per_instance(self):
        # every |U1| = m1 subset lands in exactly one cutsize bin
        h = Hypergraph(4, ((0, 1), (2, 3), (1, 2)))
        counts = count_bipartitions(h)
        for m1 in range(5):
            assert sum(c for (s, mm), c in counts.items()
                       if mm == m1) == math.comb(4, m1)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 16)
        with pytest.raises(CapExceeded):
            count_bipartitions(Hypergraph(5, ((0,),)))

    @given(st.integers(1, 8).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=4),
        min_size=1, max_size=8).map(lambda nets: Hypergraph(m, nets))))
    @settings(max_examples=40, deadline=None)
    def test_matches_cutsize_over_all_labelings(self, h):
        m = h.vertex_count
        hist: dict[tuple[int, int], int] = {}
        for labels in itertools.product((1, 2), repeat=m):
            # The two one-part labelings are binned at cut 0.
            cut = cutsize(h, Partition(labels)) if len(set(labels)) == 2 else 0
            key = (cut, labels.count(1))
            hist[key] = hist.get(key, 0) + 1
        assert count_bipartitions(h) == hist


class TestExactEnsembleAverage:
    def test_forced_single_vertex(self):
        p = validate(1, 2, 2)
        table = exact_ensemble_average(p)
        assert table.value(0, 0) == 1
        assert table.value(0, 1) == 1
        assert table.total() == 2

    def test_matches_formula_small(self):
        for n, g, d in ((2, 2, 2), (2, 3, 3), (3, 2, 3), (4, 2, 4)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = validate(n, g, d)
            assert exact_ensemble_average(p).cells == cutsize_table(p).cells

    def test_matches_formula_gamma_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = validate(3, 1, 3)
        assert exact_ensemble_average(p).cells == cutsize_table(p).cells

    @pytest.mark.parametrize("n, g, d", [
        (6, 2, 4), (8, 2, 4), (6, 3, 6), (10, 2, 5), (10, 2, 4), (8, 3, 6),
        (9, 2, 3)])
    def test_matches_formula_beyond_permutation_range(self, n, g, d):
        p = validate(n, g, d)
        assert exact_ensemble_average(p).cells == cutsize_table(p).cells

    def test_cap(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = validate(6, 2, 4)  # 15 classes of 2^3 assignments
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 64)
        with pytest.raises(CapExceeded):
            exact_ensemble_average(p)

    def test_cap_counts_assignments_of_visited_classes(self, monkeypatch):
        p = validate(6, 2, 4)
        calls = _count_calls(monkeypatch)
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 15 * 8)
        exact_ensemble_average(p)
        assert len(calls) == 15
        calls.clear()
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 15 * 8 - 1)
        with pytest.raises(CapExceeded, match="120 assignments visited"):
            exact_ensemble_average(p)
        assert len(calls) == 14

    def test_cap_below_one_class_fails_before_walking(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 7)
        with pytest.raises(CapExceeded, match=(
                r"^8 assignments visited \(2\^3 per class\) against cap 7$")):
            exact_ensemble_average(validate(6, 2, 4))
        assert calls == []

    def test_average_is_rational_mean_of_instances(self):
        # One count per permutation, summed, against every cell.
        for p in (validate(2, 2, 2), validate(3, 2, 3), validate(4, 2, 4)):
            totals = {}
            graphs = 0
            for h in enumerate_all(p):
                graphs += 1
                for key, c in count_bipartitions(h).items():
                    totals[key] = totals.get(key, 0) + c
            table = exact_ensemble_average(p)
            for s in range(p.n + 1):
                for m1 in range(p.m + 1):
                    assert table.value(s, m1) == \
                        Fraction(totals.get((s, m1), 0), graphs)

    def test_counts_once_per_class(self, monkeypatch):
        p = validate(4, 2, 4)
        calls = _count_calls(monkeypatch)
        exact_ensemble_average(p)
        classes = {tuple(sorted(h.nets)) for h in enumerate_all(p)}
        assert len(calls) == len(classes) < math.factorial(p.xi)


class TestMonteCarlo:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            monte_carlo_average(validate(4, 2, 4), 0, seed=1)

    def test_cap_checked_before_sampling(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a socket list was shuffled")

        monkeypatch.setattr(ensemble, "_shuffles", draw)
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(CapExceeded, match="2\\^2 assignments exceed cap 3"):
            monte_carlo_average(validate(4, 2, 4), 5, seed=0)

    def test_cap_checked_before_any_draw(self, monkeypatch):
        def draw(*args):
            raise AssertionError("the RNG was used")

        monkeypatch.setattr(oracle.random, "Random", draw)
        monkeypatch.setattr(oracle, "_sampled_classes", draw)
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(CapExceeded, match="2\\^2 assignments exceed cap 3"):
            monte_carlo_average(validate(4, 2, 4), 5, seed=0)

    def test_deterministic(self):
        p = validate(4, 2, 4)
        a = monte_carlo_average(p, 500, seed=9)
        b = monte_carlo_average(p, 500, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_cells_keyed_like_exact_table(self):
        # zero-filled over the whole grid, in the table's (s, m1) order
        p = validate(8, 2, 4)
        est = monte_carlo_average(p, 5, seed=2)
        cells = list(cutsize_table(p).cells)
        assert list(est.mean) == list(est.stderr) == cells
        assert est.mean[p.n, 0] == 0.0 and est.stderr[p.n, 0] == 0.0

    def test_single_sample_has_zero_stderr(self):
        p = validate(4, 2, 4)
        est = monte_carlo_average(p, 1, seed=3)
        assert set(est.stderr.values()) == {0.0}
        counts = count_bipartitions(sample(p, 3))
        for (s, m1), c in counts.items():
            assert est.mean[s, m1] == c

    def test_tracks_exact_table(self):
        p = validate(4, 2, 4)
        table = cutsize_table(p)
        est = monte_carlo_average(p, 4000, seed=42)
        outside = 0
        for s in range(5):
            for m1 in range(3):
                diff = abs(est.mean[s, m1] - float(table.value(s, m1)))
                se = est.stderr[s, m1]
                if se == 0:
                    assert diff == 0
                elif diff > 4 * se:
                    outside += 1
        assert outside <= 1

    def test_constant_cells_match_exactly(self):
        # the all-in-one-part assignments always land on (0, 0) and (0, m)
        p = validate(4, 2, 4)
        est = monte_carlo_average(p, 200, seed=0)
        assert est.mean[0, 0] == 1 and est.stderr[0, 0] == 0
        assert est.mean[0, 2] == 1 and est.stderr[0, 2] == 0

    def test_equals_per_sample_accumulation(self):
        p = validate(8, 2, 4)
        rng = random.Random(7)
        sums, sumsq = {}, {}
        for _ in range(300):
            for key, c in count_bipartitions(sample_with_rng(p, rng)).items():
                sums[key] = sums.get(key, 0) + c
                sumsq[key] = sumsq.get(key, 0) + c * c
        est = monte_carlo_average(p, 300, seed=7)
        for s in range(p.n + 1):
            for m1 in range(p.m + 1):
                tot = sums.get((s, m1), 0)
                var_num = 300 * sumsq.get((s, m1), 0) - tot * tot
                assert est.mean[s, m1] == tot / 300
                assert est.stderr[s, m1] == \
                    math.sqrt(var_num) / (300 * math.sqrt(299))

    def test_counts_once_per_class(self, monkeypatch):
        p = validate(8, 2, 4)
        calls = _count_calls(monkeypatch)
        monte_carlo_average(p, 300, seed=7)
        rng = random.Random(7)
        classes = {tuple(sorted(sample_with_rng(p, rng).nets))
                   for _ in range(300)}
        assert len(calls) == len(classes) < 300
        assert {tuple(sorted(h.nets)) for h in calls} == classes

    def test_csv(self, tmp_path):
        est = monte_carlo_average(validate(4, 2, 4), 100, seed=5)
        out = tmp_path / "mc.csv"
        with open(out, "w") as fh:
            assert write_estimate_csv(est, fh) == 15
        assert out.read_text().splitlines()[0] == "s,m1,mean,stderr"

    def test_golden_csv_and_stdout_digests(self, tmp_path, capsys):
        # Recorded at the bench job's parameters before the estimate moved
        # from arrays to per-cell dicts; the bytes must not change.
        out = tmp_path / "mc.csv"
        with open(out, "w") as fh:
            write_estimate_csv(monte_carlo_average(validate(8, 2, 4), 20000,
                                                   seed=0), fh)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5ac6ab029980f936ffcfb87624e1eb03726ecf709e92688e2cbd5e8ce04a8334")
        assert main(["oracle", "-n", "8", "-g", "2", "-d", "4", "--mode",
                     "montecarlo", "--samples", "20000", "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "dcd8b62f45a7edbfe144a48c58101be487aecf43a635d20f84b279119f3ec788")
