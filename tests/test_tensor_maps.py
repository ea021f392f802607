"""Tests for the diagram-indexed linear maps over a multimatrix algebra."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from ncwreath.algebra import BasisIndex, MultiMatrixAlgebra
from ncwreath.errors import BoundError, DomainError, ShapeError, ValidationError
from ncwreath.partitions import (
    adjoint,
    catalan,
    enumerate_partitions,
    identity_partition,
    tensor,
)
from ncwreath.tensor_maps import (
    TensorMap,
    _block_entries,
    build_map,
    gram_rank,
    hom_dimension,
    map_matrix,
    verify_composition,
)

from helpers import (
    DenseModel,
    _build_map_by_definition,
    basis_position,
    build_map_einsum,
    delta_coefficient,
    gram_rank_dense,
    make_partition as P,
    mul_basis,
    random_noncrossing,
)

C4_UNIFORM = MultiMatrixAlgebra((1, 1, 1, 1), ((0.25,), (0.25,), (0.25,), (0.25,)))
M2_HALF = MultiMatrixAlgebra((2,), ((0.5, 0.5),))
M2_SKEW = MultiMatrixAlgebra((2,), ((1 / 3, 2 / 3),))
C2_UNIFORM = MultiMatrixAlgebra((1, 1), ((0.5,), (0.5,)))
C3_UNIFORM = MultiMatrixAlgebra((1, 1, 1), ((1 / 3,), (1 / 3,), (1 / 3,)))
C2_SKEW = MultiMatrixAlgebra((1, 1), ((1 / 3,), (2 / 3,)))
MIXED = MultiMatrixAlgebra((1, 1, 2), ((0.25,), (0.25,), (0.25, 0.25)))

M_DIAGRAM = P(2, 1, "u1 u2 l1")
M_STAR = P(1, 2, "u1 l1 l2")
UNIT_DIAGRAM = P(0, 1, "l1")
COUNIT_DIAGRAM = P(1, 0, "u1")


def dense_delta_coefficient(model: DenseModel, p, upper, lower) -> float:
    """Block-by-block evaluation with dense matrices instead of symbolic
    matrix-unit chains."""
    value = 1.0
    for block in p.blocks:
        ups = [upper[pt.index - 1] for pt in block if pt.side == "u"]
        downs = [lower[pt.index - 1] for pt in block if pt.side == "l"]
        up_mat = model.product_of_normalized(ups)
        down_mat = model.product_of_normalized(downs)
        value *= model.state(model.multiply(model.star(down_mat), up_mat))
    return value


class TestDeltaCoefficient:
    def test_identity_strand_is_inner_product(self):
        alg = M2_SKEW
        for x, y in itertools.product(alg.basis_indices(), repeat=2):
            got = delta_coefficient(alg, identity_partition(1), (x,), (y,))
            assert got == pytest.approx(1.0 if x == y else 0.0)

    def test_multiplication_diagram_on_lines(self):
        b1 = BasisIndex(1, 1, 1)
        got = delta_coefficient(C4_UNIFORM, M_DIAGRAM, (b1, b1), (b1,))
        assert got == pytest.approx(2.0)
        b2 = BasisIndex(2, 1, 1)
        assert delta_coefficient(C4_UNIFORM, M_DIAGRAM, (b1, b2), (b1,)) == 0.0

    def test_unit_diagram_weights(self):
        got = delta_coefficient(M2_HALF, UNIT_DIAGRAM, (), (BasisIndex(1, 1, 1),))
        assert got == pytest.approx(0.5**0.5)
        assert delta_coefficient(M2_HALF, UNIT_DIAGRAM, (), (BasisIndex(1, 1, 2),)) == 0.0

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW, MIXED])
    def test_matches_dense_model_random(self, alg):
        rng = random.Random(411)
        model = DenseModel(alg)
        basis = alg.basis_indices()
        diagrams = [
            P(3, 4, "u1 l1 l2 l3", "u2 u3", "l4"),
            P(2, 2, "u1 l1", "u2 l2"),
            P(2, 2, "u1 u2 l1 l2"),
            P(0, 3, "l1 l3", "l2"),
            P(3, 0, "u1", "u2 u3"),
        ]
        for p in diagrams:
            for _ in range(30):
                upper = tuple(rng.choice(basis) for _ in range(p.upper))
                lower = tuple(rng.choice(basis) for _ in range(p.lower))
                got = delta_coefficient(alg, p, upper, lower)
                want = dense_delta_coefficient(model, p, upper, lower)
                assert got == pytest.approx(want, abs=1e-12)


class TestBuildMap:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW, MIXED])
    def test_matches_entrywise_reference(self, alg):
        diagrams = [
            identity_partition(2),
            M_DIAGRAM,
            M_STAR,
            UNIT_DIAGRAM,
            COUNIT_DIAGRAM,
            P(2, 2, "u1 u2 l1 l2"),
            P(1, 3, "u1 l2", "l1", "l3"),
            P(3, 1, "u1 u3 l1", "u2"),
        ]
        for p in diagrams:
            fast = build_map(alg, p).matrix
            slow = _build_map_by_definition(alg, p)
            assert np.max(np.abs(fast - slow)) <= 1e-12

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF, MIXED])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_identity_diagram_gives_identity_matrix(self, alg, k):
        got = build_map(alg, identity_partition(k)).matrix
        assert np.allclose(got, np.eye(alg.dim**k))

    def test_unit_diagram_column_is_algebra_unit(self):
        got = build_map(M2_HALF, UNIT_DIAGRAM).matrix
        assert got.shape == (4, 1)
        assert got[:, 0] == pytest.approx([0.5**0.5, 0.0, 0.0, 0.5**0.5])

    def test_counit_is_unit_transpose(self):
        unit = build_map(M2_SKEW, UNIT_DIAGRAM).matrix
        counit = build_map(M2_SKEW, COUNIT_DIAGRAM).matrix
        assert np.allclose(counit, unit.T)

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF, MIXED])
    def test_multiplication_diagram_is_basis_product(self, alg):
        got = build_map(alg, M_DIAGRAM).matrix
        basis = alg.basis_indices()
        want = np.zeros_like(got)
        for cx, x in enumerate(basis):
            for cy, y in enumerate(basis):
                prod = mul_basis(alg, x, y)
                if prod is not None:
                    coef, ix = prod
                    want[basis_position(alg, ix), cx * alg.dim + cy] = coef
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_empty_diagram_is_scalar_one(self):
        got = build_map(C4_UNIFORM, P(0, 0)).matrix
        assert got.shape == (1, 1)
        assert got[0, 0] == 1.0

    def test_entry_bound_enforced(self):
        # the bound counts non-zeros: three strands over C^4 hold 4^3 of them
        match = "non-zeros of the map: 64 entries, over the bound of 63 entries"
        with pytest.raises(BoundError, match=match):
            build_map(C4_UNIFORM, identity_partition(3), max_entries=63)
        assert len(build_map(C4_UNIFORM, identity_partition(3), max_entries=64).flat) == 64

    def test_map_records_shape(self):
        t = build_map(M2_HALF, M_DIAGRAM)
        assert isinstance(t, TensorMap)
        assert t.partition == M_DIAGRAM
        assert t.matrix.shape == (4, 16)


M2_NONTRACIAL = MultiMatrixAlgebra((2,), ((0.2, 0.8),))
M2_PLUS_C = MultiMatrixAlgebra((2, 1), ((0.4, 0.4), (0.2,)))
M3_SKEW = MultiMatrixAlgebra((3,), ((0.2, 0.3, 0.5),))
ORACLE_ALGEBRAS = [M2_HALF, M2_NONTRACIAL, C4_UNIFORM, M2_PLUS_C, M3_SKEW]
C5_UNIFORM = MultiMatrixAlgebra((1,) * 5, ((0.2,),) * 5)
PERFBENCH_ALGEBRAS = [M2_HALF, M2_NONTRACIAL, C4_UNIFORM, C5_UNIFORM, M2_PLUS_C]


def expected_nonzeros(alg, p) -> int:
    """Product over the blocks of sum over matrix blocks of size ** legs."""
    count = 1
    for block in p.blocks:
        count *= sum(size ** len(block) for size in alg.block_sizes)
    return count


class TestSparseAssembly:
    """The chain-table assembly against the dense einsum assembly and the
    entry-by-entry definition."""

    @pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
    def test_every_small_diagram_matches_both_oracles(self, alg):
        # the definition costs seconds per algebra at five points (minutes
        # over M3), so it covers four points (three over M3)
        by_definition = 3 if alg.dim > 5 else 4
        for points in range(6):
            for k in range(points + 1):
                for p in enumerate_partitions(k, points - k):
                    got = build_map(alg, p).matrix
                    assert got.dtype == np.float64
                    assert np.max(np.abs(got - build_map_einsum(alg, p))) <= 1e-12
                    if points <= by_definition:
                        slow = _build_map_by_definition(alg, p)
                        assert np.max(np.abs(got - slow)) <= 1e-12
                    assert np.count_nonzero(got) == expected_nonzeros(alg, p)

    def test_random_large_diagrams_match_einsum(self):
        rng = random.Random(1407)
        algebras = [M2_HALF, M2_NONTRACIAL, C4_UNIFORM]
        for _ in range(200):
            points = rng.randint(8, 10)
            k = rng.randint(0, points)
            p = random_noncrossing(rng, k, points - k)
            alg = rng.choice(algebras)
            got = build_map(alg, p).matrix
            assert got.shape == (alg.dim ** (points - k), alg.dim**k)
            assert np.max(np.abs(got - build_map_einsum(alg, p))) <= 1e-12
            assert np.count_nonzero(got) == expected_nonzeros(alg, p)

    def test_dense_worst_case(self):
        # ten singleton blocks over C^4: every one of the 4^10 entries is set
        p = P(5, 5, *(f"u{i}" for i in range(1, 6)), *(f"l{j}" for j in range(1, 6)))
        got = build_map(C4_UNIFORM, p).matrix
        assert np.count_nonzero(got) == 4**10
        assert np.max(np.abs(got - build_map_einsum(C4_UNIFORM, p))) <= 1e-12

    def test_chain_table_is_bounded_and_read_only(self):
        assert _block_entries.cache_info().maxsize is not None
        legs, coefs = _block_entries(M2_PLUS_C, 2, 1)
        assert legs.shape == (3, 2**3 + 1)
        assert coefs.shape == (2**3 + 1,)
        assert not legs.flags.writeable and not coefs.flags.writeable

    def test_maps_do_not_share_memory(self):
        p = P(2, 1, "u1 u2 l1")
        first, second = build_map(M2_HALF, p), build_map(M2_HALF, p)
        assert not np.shares_memory(first.matrix, second.matrix)
        for q in (P(1, 0, "u1"), identity_partition(1), P(1, 1, "u1", "l1")):
            again = build_map(M2_HALF, q).matrix
            assert not np.shares_memory(build_map(M2_HALF, q).matrix, again)

    def test_mutating_a_map_leaves_later_maps_intact(self):
        p = P(2, 1, "u1 u2 l1")
        t = build_map(M2_HALF, p)
        legs, coefs = _block_entries(M2_HALF, 2, 1)
        assert not np.shares_memory(t.values, coefs)
        assert not np.shares_memory(t.flat, legs)
        view = t.matrix
        view *= 0
        assert np.count_nonzero(t.matrix) == expected_nonzeros(M2_HALF, p)
        t.values *= 0
        t.flat[:] = 0
        for q in (p, P(3, 1, "u1 u2 l1", "u3"), P(3, 2, "u1 u3 l2", "u2", "l1")):
            rebuilt = build_map(M2_HALF, q).matrix
            assert np.max(np.abs(rebuilt - build_map_einsum(M2_HALF, q))) <= 1e-12
            assert np.count_nonzero(rebuilt) == expected_nonzeros(M2_HALF, q)


def one_block(points: int, upper: int = 0):
    """The diagram whose single block holds every point."""
    tokens = [f"u{i}" for i in range(1, upper + 1)]
    tokens += [f"l{j}" for j in range(1, points - upper + 1)]
    return P(upper, points - upper, " ".join(tokens))


class TestNonZeroBounds:
    """Maps are bounded by their non-zeros and by int64 offsets, not by
    their dense size."""

    def test_twenty_points_keep_four_non_zeros(self):
        p = one_block(20, 10)
        t = build_map(C4_UNIFORM, p)
        assert t.shape == (4**10, 4**10) and 4**20 > 1 << 24
        assert t.flat.dtype == np.int64 and len(t.flat) == len(t.values) == 4
        # a chain lies in one block a of C^4: every digit of its offset is a
        ones = (4**20 - 1) // 3
        got = sorted(zip(t.flat.tolist(), t.values.tolist()))
        basis = C4_UNIFORM.basis_indices()
        want = [
            (a * ones, delta_coefficient(C4_UNIFORM, p, (x,) * 10, (x,) * 10))
            for a, x in enumerate(basis)
        ]
        assert [f for f, _ in got] == [f for f, _ in want]
        assert [v for _, v in got] == pytest.approx([v for _, v in want], abs=1e-12)

    def test_gram_of_maps_past_the_dense_bound(self):
        two_blocks = P(10, 10, " ".join(f"u{i}" for i in range(1, 11)),
                       " ".join(f"l{j}" for j in range(1, 11)))
        maps = [build_map(C4_UNIFORM, one_block(20, 10)), build_map(C4_UNIFORM, two_blocks)]
        assert len(maps[1].flat) == 16
        assert gram_rank(maps) == 2

    def test_largest_offset_that_fits_int64(self):
        t = build_map(C4_UNIFORM, one_block(31))
        assert int(t.flat.max()) == 4**31 - 1
        assert t.flat.dtype == np.int64

    @pytest.mark.parametrize("points", [32, 40])
    def test_offsets_past_int64_refused(self, points):
        with pytest.raises(BoundError, match="int64 offsets of the matrix"):
            build_map(C4_UNIFORM, one_block(points))

    def test_non_zero_bound_raises_before_allocating(self):
        # twelve singletons over C^4: 4^12 = 2^24 non-zeros, 128 MiB of offsets
        singletons = P(6, 6, *(f"u{i}" for i in range(1, 7)), *(f"l{j}" for j in range(1, 7)))
        build_map(C4_UNIFORM, P(1, 0, "u1"))  # fill the chain-table cache
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match=f"non-zeros of the map: {4**12:,} entries"):
                build_map(C4_UNIFORM, singletons, max_entries=4**12 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("points,match", [
        # one block over M2: 2^26 chains
        pytest.param(26, f"non-zeros of the map: {2**26:,} entries", id=f"26-{2**26} non-zeros"),
        # 2^24 chains of 24 legs
        pytest.param(24, f"largest chain table: {2**24:,} × 24 entries = {24 * 2**24:,} entries",
                     id=f"24-chain table would hold {24 * 2**24} entries"),
    ])
    def test_block_shapes_bound_before_any_table(self, points, match):
        _block_entries.cache_clear()  # nothing of this shape may be cached
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match=match):
                build_map(M2_HALF, one_block(points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert _block_entries.cache_info().currsize == 0

    def test_large_chain_tables_are_not_cached(self):
        # one block of 14 legs over M2: a table of 14 * 2^14 leg entries
        p = one_block(14, 7)
        _block_entries.cache_clear()
        t = build_map(M2_HALF, p)
        assert _block_entries.cache_info().currsize == 0
        assert len(t.flat) == 2**14
        small = build_map(M2_HALF, one_block(10, 5))
        assert _block_entries.cache_info().currsize == 1
        assert len(small.flat) == 2**10

    def test_dense_view_is_bounded(self):
        # 4^14 = 2^28 dense entries, 2 GiB: refused before any allocation
        t = build_map(C4_UNIFORM, one_block(14))
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match="dense matrix: 268,435,456 entries"):
                t.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        small = build_map(M2_HALF, M_DIAGRAM)
        with pytest.raises(BoundError, match="4 × 16 entries = 64 entries, over the bound of 63"):
            small.dense(63)
        assert np.array_equal(small.dense(64), small.matrix)

    def test_map_matrix_checks_the_dense_size_first(self):
        # past int64 and past the non-zero bound, the dense size is named
        for p, size in ((one_block(40), f"{4**40:,}"), (identity_partition(3), "64 × 64")):
            with pytest.raises(BoundError, match=rf"^dense matrix: {size} entries"):
                map_matrix(C4_UNIFORM, p, max_entries=63)
        assert np.array_equal(map_matrix(M2_HALF, M_DIAGRAM), build_map(M2_HALF, M_DIAGRAM).matrix)

    def test_map_matrix_over_a_one_dimensional_algebra(self):
        # its map is one entry at any size, though each table has 12 entries
        scalar = MultiMatrixAlgebra((1,), ((1.0,),))
        p = one_block(12, 6)
        with pytest.raises(BoundError, match="largest chain table: 1 × 12 entries = 12 entries"):
            build_map(scalar, p, max_entries=1)
        got = map_matrix(scalar, p, max_entries=1)
        assert got.shape == (1, 1)
        (one,) = scalar.basis_indices()
        assert got[0, 0] == pytest.approx(delta_coefficient(scalar, p, (one,) * 6, (one,) * 6))

    def test_ten_point_map_peaks_small(self):
        # 2^10 non-zeros of a 4^10-entry matrix: 8 MiB if assembled densely
        p = random_noncrossing(random.Random(12), 5, 5)
        build_map(M2_HALF, p)
        tracemalloc.start()
        try:
            t = build_map(M2_HALF, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t.flat) == expected_nonzeros(M2_HALF, p)
        assert peak < 1 << 20


class TestTensorCompatibility:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW])
    def test_tensor_is_kronecker(self, alg):
        pairs = [
            (identity_partition(1), M_DIAGRAM),
            (M_STAR, UNIT_DIAGRAM),
            (P(1, 1, "u1 l1"), P(2, 0, "u1 u2")),
        ]
        for p, q in pairs:
            whole = build_map(alg, tensor(p, q)).matrix
            parts = np.kron(build_map(alg, p).matrix, build_map(alg, q).matrix)
            assert np.max(np.abs(whole - parts)) <= 1e-12


class TestAdjointCompatibility:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF, M2_SKEW, MIXED])
    def test_adjoint_is_transpose(self, alg):
        for p in [M_DIAGRAM, UNIT_DIAGRAM, P(2, 2, "u1 l1 l2", "u2"), P(1, 3, "u1 l1 l3", "l2")]:
            direct = build_map(alg, adjoint(p)).matrix
            flipped = build_map(alg, p).matrix.T
            assert np.max(np.abs(direct - flipped)) <= 1e-12


class TestVerifyComposition:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF])
    def test_multiplication_against_its_adjoint(self, alg):
        # composing the one-block NC(1,2) and NC(2,1) diagrams encodes
        # mult . mult* = delta . identity
        assert verify_composition(alg, M_STAR, M_DIAGRAM) <= 1e-9

    def test_skew_single_block_state_composes_too(self):
        assert verify_composition(M2_SKEW, M_STAR, M_DIAGRAM) <= 1e-9

    def test_identity_composition_is_exact(self):
        assert verify_composition(C4_UNIFORM, identity_partition(2), identity_partition(2)) == 0.0

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF])
    def test_random_pairs(self, alg):
        rng = random.Random(2025)
        left = enumerate_partitions(2, 3)
        right = enumerate_partitions(3, 2)
        for _ in range(12):
            p = rng.choice(left)
            q = rng.choice(right)
            assert verify_composition(alg, p, q) <= 1e-9

    def test_non_delta_form_state_rejected(self):
        with pytest.raises(DomainError):
            verify_composition(C2_SKEW, M_STAR, M_DIAGRAM)

    def test_entry_bound_propagates(self):
        with pytest.raises(BoundError):
            verify_composition(
                C4_UNIFORM, identity_partition(3), identity_partition(3), max_entries=100
            )


class TestGramRank:
    def test_single_map_has_rank_one(self):
        assert gram_rank([build_map(C4_UNIFORM, M_DIAGRAM)]) == 1

    def test_empty_family_has_rank_zero(self):
        assert gram_rank([]) == 0

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF])
    @pytest.mark.parametrize("shape", [(2, 2), (0, 4), (1, 3), (0, 7), (3, 4)])
    def test_full_rank_on_dimension_four(self, alg, shape):
        maps = [build_map(alg, p) for p in enumerate_partitions(*shape)]
        assert gram_rank(maps) == catalan(sum(shape)) == len(maps)

    def test_rank_drops_below_dimension_four(self):
        # Over C^2 and C^3 the span is cut down to the classical invariants:
        # 2^(L-1) and (3^(L-1) + 1) / 2 on L points.
        for points in range(1, 9):
            maps = [build_map(C2_UNIFORM, p) for p in enumerate_partitions(0, points)]
            assert gram_rank(maps) == 2 ** (points - 1)
            maps = [build_map(C3_UNIFORM, p) for p in enumerate_partitions(0, points)]
            assert gram_rank(maps) == (3 ** (points - 1) + 1) // 2

    def test_duplicates_do_not_raise_rank(self):
        t = build_map(M2_HALF, M_DIAGRAM)
        assert gram_rank([t, t, t]) == 1

    @pytest.mark.parametrize("alg", PERFBENCH_ALGEBRAS)
    def test_matches_dense_stack(self, alg):
        # the oracle's SVD takes 0.7 s and more a shape at 7 points over C^4 and C^5
        for points in range(8 if alg is M2_HALF else 7):
            for k in range(points + 1):
                maps = [build_map(alg, p) for p in enumerate_partitions(k, points - k)]
                assert gram_rank(maps) == gram_rank_dense(maps)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ShapeError):
            gram_rank([build_map(C4_UNIFORM, M_DIAGRAM), build_map(C4_UNIFORM, M_STAR)])

    def test_mixed_algebras_rejected(self):
        with pytest.raises(ShapeError):
            gram_rank(
                [build_map(C4_UNIFORM, M_DIAGRAM), build_map(M2_HALF, M_DIAGRAM)]
            )


class TestHomDimension:
    @pytest.mark.parametrize(
        "shape,expected",
        [((0, 0), 1), ((0, 4), 14), ((2, 2), 14), ((3, 3), 132), ((1, 0), 1)],
    )
    def test_frozen_values(self, shape, expected):
        assert hom_dimension(*shape) == expected

    def test_matches_enumeration(self):
        for k in range(4):
            for l in range(4):
                if k + l <= 6:
                    assert hom_dimension(k, l) == len(enumerate_partitions(k, l))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            hom_dimension(-1, 2)

    def test_bound_enforced(self):
        with pytest.raises(BoundError):
            hom_dimension(12, 12)
        assert hom_dimension(12, 12, max_points=30) == catalan(24)
