import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import core
from hypercut.core import (BinaryMatrix, CapExceeded, EncodabilityVerdict,
                           Hypergraph, Partition, as_ratio,
                           check_block_diagonalizable, cutsize, gf2_rank, hypergraph_from_matrix, is_balanced,
                           matrix_from_hypergraph, max_parallel_degree,
                           min_cutsize_bruteforce, tanner_to_hypergraph)


@st.composite
def matrices_with_full_columns(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    supports = [draw(st.sets(st.integers(0, rows - 1), min_size=1))
                for _ in range(cols)]
    return BinaryMatrix.from_columns(supports, rows)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = draw(st.sets(st.tuples(st.integers(0, rows - 1),
                                     st.integers(0, cols - 1))))
    return BinaryMatrix(rows, cols, frozenset(entries))


@st.composite
def small_hypergraphs(draw):
    m = draw(st.integers(1, 5))
    nets = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                  max_size=4), min_size=1, max_size=5))
    return Hypergraph(m, tuple(tuple(net) for net in nets))


@st.composite
def partitions_of(draw, m):
    k = draw(st.integers(1, m))
    labels = list(range(1, k + 1)) + [draw(st.integers(1, k))
                                      for _ in range(m - k)]
    perm = draw(st.permutations(labels))
    return Partition(tuple(perm), k)


class TestBinaryMatrix:
    def test_out_of_bounds_entry_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            BinaryMatrix(2, 2, frozenset({(2, 0)}))

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BinaryMatrix(-1, 2, frozenset())

    def test_dense_round_trip(self):
        mat = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        assert mat.rows == 2 and mat.cols == 3
        assert mat.to_dense() == [[1, 1, 0], [0, 1, 1]]
        assert BinaryMatrix.from_dense(mat.to_dense()) == mat

    @pytest.mark.parametrize("dense", [[[1, 0], [1]], [1, 0], [[[1, 0]]]],
                             ids=["ragged", "one-dimensional",
                                  "three-dimensional"])
    def test_dense_rejects_non_matrix(self, dense):
        with pytest.raises(ValueError, match="2-dimensional"):
            BinaryMatrix.from_dense(dense)

    def test_dense_accepts_array(self):
        np = pytest.importorskip("numpy")
        rows = [[1, 0, 2], [0, 0, 1]]
        assert BinaryMatrix.from_dense(np.array(rows)) == \
            BinaryMatrix.from_dense(rows)

    def test_row_masks(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1], [0, 1, 0]])
        assert mat.row_masks() == [0b101, 0b010]


class TestHypergraphFromMatrix:
    def test_identity(self):
        h = hypergraph_from_matrix(BinaryMatrix.from_dense([[1, 0], [0, 1]]))
        assert h.vertex_count == 2
        assert h.nets == ((0,), (1,))

    def test_two_row_chain(self):
        h = hypergraph_from_matrix(
            BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]]))
        assert h.nets == ((0,), (0, 1), (1,))

    def test_all_ones(self):
        h = hypergraph_from_matrix(
            BinaryMatrix.from_dense([[1, 1], [1, 1], [1, 1]]))
        assert h.nets == ((0, 1, 2), (0, 1, 2))

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            hypergraph_from_matrix(BinaryMatrix.from_dense([[1, 0], [1, 0]]))

    @given(matrices_with_full_columns())
    def test_round_trip_preserves_support(self, mat):
        assert matrix_from_hypergraph(hypergraph_from_matrix(mat)) == mat


class TestTanner:
    def test_single_edge(self):
        h = tanner_to_hypergraph([1], [1], [(0, 0)])
        assert h.nets == ((0,),)

    def test_parallel_edges_keep_multiplicity(self):
        h = tanner_to_hypergraph([2], [2], [(0, 0), (0, 0)])
        assert h.nets == ((0, 0),)
        assert h.supports == (frozenset({0}),)

    def test_four_cycle(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        h = tanner_to_hypergraph([2, 2], [2, 2], edges)
        assert h.nets == ((0, 1), (0, 1))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            tanner_to_hypergraph([2], [1, 1], [(0, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tanner_to_hypergraph([1], [1], [(0, 5)])

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="variable 3 out of range"):
            tanner_to_hypergraph([1], [1], [(3, 0)])

    def test_check_degree_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match="check 0: 1 edges but degree 2 declared"):
            tanner_to_hypergraph([1], [2], [(0, 0)])


class TestHypergraph:
    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="vertex count"):
            Hypergraph(-1, ())

    def test_empty_net_rejected(self):
        with pytest.raises(ValueError, match="net 1 is empty"):
            Hypergraph(2, ((0,), ()))

    @pytest.mark.parametrize("net", [(0, 2), (-1, 0)])
    def test_vertex_out_of_range_rejected(self, net):
        with pytest.raises(ValueError,
                           match="net 0 references a vertex out of range"):
            Hypergraph(2, (net,))


class TestCutsize:
    def test_single_part_never_cuts(self):
        h = Hypergraph(3, ((0, 1), (1, 2), (0, 2)))
        assert cutsize(h, Partition((1, 1, 1))) == 0

    def test_chain_bipartition(self):
        h = Hypergraph(2, ((0,), (0, 1), (1,)))
        assert cutsize(h, Partition((1, 2))) == 1

    def test_multiset_net_uses_support(self):
        h = Hypergraph(2, ((0, 0),))
        assert cutsize(h, Partition((1, 2))) == 0

    def test_wrong_cover_rejected(self):
        h = Hypergraph(3, ((0, 1),))
        with pytest.raises(ValueError, match="cover"):
            cutsize(h, Partition((1, 2)))

    @given(st.data())
    @settings(max_examples=60)
    def test_invariance_under_label_and_vertex_relabeling(self, data):
        h = data.draw(small_hypergraphs())
        p = data.draw(partitions_of(h.vertex_count))
        base = cutsize(h, p)
        assert 0 <= base <= h.net_count

        label_perm = data.draw(st.permutations(range(1, p.k + 1)))
        relabeled = Partition(tuple(label_perm[lab - 1] for lab in p.labels),
                              p.k)
        assert cutsize(h, relabeled) == base

        vperm = data.draw(st.permutations(range(h.vertex_count)))
        h2 = Hypergraph(h.vertex_count,
                        tuple(tuple(vperm[v] for v in net) for net in h.nets))
        inv = [0] * h.vertex_count
        for old, new in enumerate(vperm):
            inv[new] = old
        p2 = Partition(tuple(p.labels[inv[v]]
                             for v in range(h.vertex_count)), p.k)
        assert cutsize(h2, p2) == base


class TestBalance:
    def test_even_split(self):
        assert is_balanced(Partition((1, 1, 2, 2)), 0)

    def test_uneven_split(self):
        assert not is_balanced(Partition((1, 1, 1, 2)), 0)

    def test_boundary_is_exact(self):
        # 3 <= (5/2)(1 + 1/5) = 3 exactly; float rounding must not flip it
        assert is_balanced(Partition((1, 1, 1, 2, 2)), 0.2)
        assert not is_balanced(Partition((1, 1, 1, 2, 2)), 0.19)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            is_balanced(Partition((1, 2)), -0.1)

    def test_as_ratio_reads_decimals_exactly(self):
        assert as_ratio(0.2) == Fraction(1, 5)
        assert as_ratio("1/3") == Fraction(1, 3)
        assert as_ratio(2) == 2

    @pytest.mark.parametrize("value, message", [
        ("1/0", "epsilon '1/0' has a zero denominator"),
        ("-1/10", "epsilon must be non-negative"),
        (Fraction(-1, 3), "epsilon must be non-negative"),
        (-1, "epsilon must be non-negative"),
        (float("inf"), "ratio must be finite, got inf"),
        (float("nan"), "ratio must be finite, got nan"),
    ])
    def test_as_ratio_rejects(self, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            as_ratio(value)

    @pytest.mark.parametrize("value", [None, [0.1], 1j])
    def test_as_ratio_rejects_other_types(self, value):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_ratio(value)

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_as_ratio_round_trips_floats(self, x):
        assert float(as_ratio(x)) == x

    @pytest.mark.parametrize("value", ["1e-4301", "1e+5000", "2E-0004301"])
    def test_as_ratio_bounds_the_decimal_exponent(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"epsilon {value!r} has a decimal exponent beyond +-4300")):
            as_ratio(value)

    def test_as_ratio_reads_the_largest_exponent_exactly(self):
        assert as_ratio("1e-4300") == Fraction(1, 10 ** 4300)

    def test_as_ratio_returns_a_fraction_as_is(self):
        eps = Fraction(1, 20)
        assert as_ratio(eps) is eps

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            is_balanced(Partition((1, 2)), "1/0")
        with pytest.raises(ValueError, match="zero denominator"):
            min_cutsize_bruteforce(Hypergraph(2, ((0, 1),)), 2, "1/0")


class TestGF2Rank:
    def test_identity(self):
        for k in (1, 2, 5):
            eye = BinaryMatrix(k, k, frozenset((i, i) for i in range(k)))
            assert gf2_rank(eye) == k

    def test_all_ones(self):
        assert gf2_rank(BinaryMatrix.from_dense([[1, 1], [1, 1]])) == 1

    def test_zero(self):
        assert gf2_rank(BinaryMatrix(3, 4, frozenset())) == 0

    @given(small_matrices())
    def test_rank_equals_transpose_rank(self, mat):
        assert gf2_rank(mat) == gf2_rank(mat.transpose())


def _assert_witness_is_block_diagonal(mat, p, v):
    """The emitted (row, col) orders must expose K nonsingular diagonal
    blocks with zeros elsewhere in the first m columns."""
    dense = mat.to_dense()
    perm = [[dense[r][c] for c in v.col_order] for r in v.row_order]
    sizes = [len(p.members(part)) for part in range(1, p.k + 1)]
    r0 = 0
    for i, size in enumerate(sizes):
        c0 = sum(sizes[:i])
        block = [row[c0:c0 + size] for row in perm[r0:r0 + size]]
        assert gf2_rank(BinaryMatrix.from_dense(block)) == size
        for j in range(p.k):
            if j != i:
                cj = sum(sizes[:j])
                assert not any(any(row[cj:cj + sizes[j]])
                               for row in perm[r0:r0 + size])
        r0 += size


class TestBlockDiagonalizable:
    def test_identity_matrix_feasible(self):
        mat = BinaryMatrix.from_dense([[1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0], [0, 0, 0, 1]])
        p = Partition((1, 1, 2, 2))
        v = check_block_diagonalizable(mat, p, 0)
        assert v.feasible and v.balanced and v.cutsize == 0
        _assert_witness_is_block_diagonal(mat, p, v)

    def test_chain_feasible(self):
        mat = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
        p = Partition((1, 2))
        v = check_block_diagonalizable(mat, p, 0)
        assert v.feasible
        assert v.per_part_rank == ((1, 1), (1, 1))
        assert v.cutsize == 1
        _assert_witness_is_block_diagonal(mat, p, v)

    def test_all_ones_infeasible(self):
        mat = BinaryMatrix.from_dense([[1, 1], [1, 1]])
        v = check_block_diagonalizable(mat, Partition((1, 2)), 0)
        assert not v.feasible
        assert v.cutsize == 2
        assert v.per_part_rank == ((1, 0), (1, 0))
        assert v.row_order is None

    def test_unbalanced_partition_infeasible(self):
        mat = BinaryMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        v = check_block_diagonalizable(mat, Partition((1, 1, 2)), 0)
        assert v.balanced is False and v.feasible is False

    def test_dimension_mismatch(self):
        mat = BinaryMatrix.from_dense([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="mismatch"):
            check_block_diagonalizable(mat, Partition((1, 2, 2)), 0)

    def test_zero_column_is_neither_cut_nor_exclusive(self):
        # Column 1 is all-zero: neither cut nor in a diagonal block, it goes
        # after the block columns in the witness order.
        mat = BinaryMatrix.from_columns(
            [{0}, set(), {0, 1}, {2, 3}, {1}, {3}, {1, 2}], 4)
        assert check_block_diagonalizable(mat, Partition((1, 1, 2, 2)), 0) \
            == EncodabilityVerdict(True, 1, ((2, 2), (2, 2)),
                                   (0, 1, 2, 3), (0, 2, 3, 5, 1, 4, 6))
        assert check_block_diagonalizable(mat, Partition((1, 2, 1, 2)), 0) \
            == EncodabilityVerdict(True, 3, ((2, 1), (2, 2)))

    def test_verdict_computes_feasibility(self):
        assert EncodabilityVerdict(True, 0, ((1, 1), (2, 2))).feasible
        assert not EncodabilityVerdict(False, 0, ((1, 1), (2, 2))).feasible
        assert not EncodabilityVerdict(True, 0, ((1, 1), (2, 1))).feasible
        assert repr(EncodabilityVerdict(True, 2, ((1, 1),))) == (
            "EncodabilityVerdict(feasible=True, balanced=True, cutsize=2, "
            "per_part_rank=((1, 1),), row_order=None, col_order=None)")

    @given(matrices_with_full_columns(), st.data())
    @settings(max_examples=60)
    def test_feasible_implies_cut_bound(self, mat, data):
        p = data.draw(partitions_of(mat.rows))
        v = check_block_diagonalizable(mat, p, 1)
        if v.feasible:
            assert mat.cols - mat.rows >= v.cutsize
            _assert_witness_is_block_diagonal(mat, p, v)


def _min_cut_by_filtered_enumeration(h, k, epsilon):
    """Independent oracle: scan every labeling in ``itertools.product``
    order, filter, and keep the first minimum.  Returns (cut, labels), or
    None when no labeling passes the filter."""
    best = None
    limit = Fraction(h.vertex_count, k) * (1 + as_ratio(epsilon))
    for labels in itertools.product(range(1, k + 1), repeat=h.vertex_count):
        sizes = [labels.count(part) for part in range(1, k + 1)]
        if min(sizes) == 0 or max(sizes) > limit:
            continue
        cut = sum(1 for sup in h.supports
                  if len({labels[v] for v in sup}) > 1)
        if best is None or cut < best[0]:
            best = (cut, labels)
    return best


class TestMinCutsizeBruteforce:
    def test_disconnected_nets(self):
        h = Hypergraph(2, ((0,), (1,)))
        cut, p = min_cutsize_bruteforce(h, 2, 0)
        assert cut == 0 and is_balanced(p, 0)

    def test_two_full_nets(self):
        h = Hypergraph(2, ((0, 1), (0, 1)))
        assert min_cutsize_bruteforce(h, 2, 0)[0] == 2

    def test_golden_argmin(self):
        # Pins the itertools.product order and the first-minimum tie-break.
        from hypercut.ensemble import sample, validate
        cut, argmin = min_cutsize_bruteforce(sample(validate(32, 2, 4), 0),
                                             2, 0)
        assert cut == 6
        assert "".join(map(str, argmin.labels)) == "1121112222112122"

    def test_matches_filtered_enumeration_on_sampled_instances(self):
        from hypercut.ensemble import sample, validate
        for name, params in (("E(4,2,4)", validate(4, 2, 4)),
                             ("E(8,2,4)", validate(8, 2, 4))):
            for seed in range(5):
                h = sample(params, seed)
                got, argmin = min_cutsize_bruteforce(h, 2, 0)
                assert (got, argmin.labels) == \
                    _min_cut_by_filtered_enumeration(h, 2, 0), name
                assert cutsize(h, argmin) == got
                assert is_balanced(argmin, 0)

    @given(st.integers(1, 8).flatmap(lambda m: st.lists(
               st.lists(st.integers(0, m - 1), min_size=1, max_size=4),
               min_size=1, max_size=8).map(lambda nets: Hypergraph(m, nets))),
           st.integers(1, 4), st.sampled_from((0, "1/3", "1/2", 1)))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_order_reference(self, h, k, eps):
        # Same cut and the same first argmin in itertools.product order,
        # or the same refusal when no balanced labeling exists.
        expected = _min_cut_by_filtered_enumeration(h, k, eps)
        if expected is None:
            m = h.vertex_count
            balanced = "" if k > m else f"{eps}-balanced "
            message = (f"no {balanced}partition into {k} non-empty parts "
                       f"exists for {m} vertices")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                min_cutsize_bruteforce(h, k, eps)
        else:
            cut, argmin = min_cutsize_bruteforce(h, k, eps)
            assert (cut, argmin.labels) == expected

    def test_no_balanced_partition_exists(self):
        h = Hypergraph(5, ((0, 1, 2, 3, 4),))
        with pytest.raises(ValueError, match="balanced"):
            min_cutsize_bruteforce(h, 2, 0)  # odd m cannot split exactly

    def test_no_balanced_partition_raises_before_enumerating(self,
                                                             monkeypatch):
        # 4 parts of at most floor(10/4) = 2 vertices cannot hold 10; the
        # search, which starts by reading the net supports, never begins
        def no_enumeration(h):
            raise AssertionError("started the search")

        ring = Hypergraph(10, tuple((i, (i + 1) % 10) for i in range(10)))
        monkeypatch.setattr(Hypergraph, "supports", property(no_enumeration))
        with pytest.raises(ValueError, match="balanced"):
            min_cutsize_bruteforce(ring, 4, 0)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError, match="part count must be at least 1"):
            min_cutsize_bruteforce(Hypergraph(2, ((0, 1),)), 0, 0)

    def test_more_parts_than_vertices(self):
        with pytest.raises(ValueError, match="non-empty"):
            min_cutsize_bruteforce(Hypergraph(2, ((0, 1),)), 3, 0)

    def test_cap(self, monkeypatch):
        h = Hypergraph(6, ((0, 1),))
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 10)
        with pytest.raises(CapExceeded):
            min_cutsize_bruteforce(h, 2, 0)

    def test_cap_is_not_re_exported(self):
        # a package-level copy would be made at import, so rebinding it
        # would change no bound; core is the one place the cap lives
        import hypercut
        assert not hasattr(hypercut, "DEFAULT_ENUM_CAP")
        assert "DEFAULT_ENUM_CAP" not in hypercut.__all__

    def test_feasibility_checked_before_cap(self, monkeypatch):
        # 3 parts of at most floor(4/3) = 1 vertex cannot hold 4, so no
        # budget stop is reported for a K the search would never run
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 1)
        with pytest.raises(ValueError, match="no 0-balanced") as info:
            min_cutsize_bruteforce(Hypergraph(4, ((0, 1),)), 3, 0)
        assert not isinstance(info.value, CapExceeded)

    def test_monotone_in_parts(self):
        h = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        cuts = [min_cutsize_bruteforce(h, k, 1)[0] for k in (1, 2, 3, 4)]
        assert cuts == sorted(cuts)

    def test_non_increasing_in_epsilon(self):
        h = Hypergraph(4, ((0, 1, 2), (2, 3), (0, 3), (1, 3)))
        cuts = [min_cutsize_bruteforce(h, 2, eps)[0]
                for eps in (0, "1/2", 1)]
        assert cuts == sorted(cuts, reverse=True)


class TestMaxParallelDegree:
    def test_identity_two(self):
        assert max_parallel_degree(
            BinaryMatrix.from_dense([[1, 0], [0, 1]]), 0) == 2

    def test_all_ones(self):
        assert max_parallel_degree(
            BinaryMatrix.from_dense([[1, 1], [1, 1]]), 0) == 1

    def test_diagonal_with_duplicate_columns(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert max_parallel_degree(mat, 0) == 2

    def test_empty_column_is_never_cut(self):
        mat = BinaryMatrix.from_columns([(0,), (), (1,)], 2)
        assert max_parallel_degree(mat, 0) == 2

    @pytest.mark.parametrize("eps", ["1/0", -0.1, "abc", float("nan"),
                                     float("inf")])
    def test_bad_epsilon_raises(self, eps):
        # read once before K = 1, not taken as "no balanced partition"
        mat = BinaryMatrix(4, 6, frozenset(
            [(i, i) for i in range(4)] + [(0, 4), (1, 4), (2, 5), (3, 5)]))
        assert max_parallel_degree(mat, 0) == 4
        with pytest.raises(ValueError) as expected:
            as_ratio(eps)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            max_parallel_degree(mat, eps)


class TestPartition:
    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Partition(())

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError, match="part count must be at least 1"):
            Partition((1,), k=0)

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="outside"):
            Partition((1, 3), 2)

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="parts must be non-empty"):
            Partition((1, 1, 3))

    @pytest.mark.parametrize("labels, k", [((1.5, 2), None),
                                           ((1, 2), 2.9),
                                           (("1", "2"), None)])
    def test_non_integers_rejected(self, labels, k):
        with pytest.raises(TypeError):
            Partition(labels, k)

    def test_sizes_and_members(self):
        p = Partition((2, 1, 2, 1, 2))
        assert p.part_sizes() == [2, 3]
        assert p.members(1) == (1, 3)
        assert p.members(2) == (0, 2, 4)
