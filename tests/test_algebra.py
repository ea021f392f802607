"""Tests for multimatrix algebras with a weighted-trace state."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from ncwreath.algebra import BasisIndex, DeltaFactor, MultiMatrixAlgebra
from ncwreath.errors import ValidationError

from helpers import (
    DenseModel,
    all_set_partitions,
    basis_position,
    chained_lines_algebra,
    mul_basis,
)

C4_UNIFORM = MultiMatrixAlgebra((1, 1, 1, 1), ((0.25,), (0.25,), (0.25,), (0.25,)))
M2_HALF = MultiMatrixAlgebra((2,), ((0.5, 0.5),))
M2_SKEW = MultiMatrixAlgebra((2,), ((1 / 3, 2 / 3),))
C2_UNIFORM = MultiMatrixAlgebra((1, 1), ((0.5,), (0.5,)))
C2_SKEW = MultiMatrixAlgebra((1, 1), ((1 / 3,), (2 / 3,)))
MIXED = MultiMatrixAlgebra((1, 1, 2), ((0.25,), (0.25,), (0.25, 0.25)))
CHAINED = chained_lines_algebra()


class TestConstruction:
    def test_rejects_no_blocks(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((), ())

    def test_rejects_zero_size(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((0,), ((),))

    def test_rejects_row_length_mismatch(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((2,), ((1.0,),))

    def test_rejects_missing_weight_row(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((1, 1), ((1.0,),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((1, 1), ((1.0,), (0.0,)))
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((1, 1), ((1.5,), (-0.5,)))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra((1,), ((0.7,),))

    def test_coerces_to_tuples(self):
        alg = MultiMatrixAlgebra([2], [[0.5, 0.5]])
        assert alg == M2_HALF

    def test_dim(self):
        assert C4_UNIFORM.dim == 4
        assert M2_HALF.dim == 4
        assert MIXED.dim == 6
        assert MIXED.block_count == 3


class TestBasis:
    def test_canonical_order(self):
        assert MIXED.basis_indices() == [
            BasisIndex(1, 1, 1),
            BasisIndex(2, 1, 1),
            BasisIndex(3, 1, 1),
            BasisIndex(3, 1, 2),
            BasisIndex(3, 2, 1),
            BasisIndex(3, 2, 2),
        ]

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF, MIXED])
    def test_positions_match_enumeration(self, alg):
        for pos, ix in enumerate(alg.basis_indices()):
            assert basis_position(alg, ix) == pos
        assert len(alg.basis_indices()) == alg.dim


class TestMultiplication:
    def test_scalar_block_squares(self):
        # the normalized unit of a weight-1/4 line has square 2x itself
        got = mul_basis(C4_UNIFORM, BasisIndex(1, 1, 1), BasisIndex(1, 1, 1))
        assert got is not None
        coef, ix = got
        assert coef == pytest.approx(2.0)
        assert ix == BasisIndex(1, 1, 1)

    def test_matrix_units_chain(self):
        m3 = MultiMatrixAlgebra((3,), ((1 / 3, 1 / 3, 1 / 3),))
        got = mul_basis(m3, BasisIndex(1, 1, 2), BasisIndex(1, 2, 3))
        assert got is not None
        coef, ix = got
        assert coef == pytest.approx(math.sqrt(3))
        assert ix == BasisIndex(1, 1, 3)

    def test_mismatched_entries_vanish(self):
        assert mul_basis(M2_HALF, BasisIndex(1, 1, 2), BasisIndex(1, 1, 2)) is None

    def test_cross_block_vanishes(self):
        assert mul_basis(MIXED, BasisIndex(1, 1, 1), BasisIndex(2, 1, 1)) is None
        assert mul_basis(MIXED, BasisIndex(2, 1, 1), BasisIndex(3, 1, 1)) is None

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW, MIXED])
    def test_against_dense_model_all_pairs(self, alg):
        model = DenseModel(alg)
        for x, y in itertools.product(alg.basis_indices(), repeat=2):
            dense = model.product_of_normalized([x, y])
            got = mul_basis(alg, x, y)
            if got is None:
                assert all(np.allclose(m, 0.0) for m in dense)
            else:
                coef, ix = got
                expected = tuple(
                    coef * m for m in model.normalized_basis_matrix(ix)
                )
                for a, b in zip(dense, expected):
                    assert np.allclose(a, b)


class TestDeltaForm:
    def test_uniform_lines(self):
        assert C4_UNIFORM.is_delta_form() == pytest.approx(4.0)
        assert C2_UNIFORM.is_delta_form() == pytest.approx(2.0)

    def test_single_matrix_block_always_qualifies(self):
        assert M2_HALF.is_delta_form() == pytest.approx(4.0)
        assert M2_SKEW.is_delta_form() == pytest.approx(4.5)

    def test_disagreeing_blocks_do_not_qualify(self):
        assert C2_SKEW.is_delta_form() is None
        assert MIXED.is_delta_form() is None

    def test_inverse_traces(self):
        assert MIXED.block_inverse_traces() == pytest.approx((4.0, 4.0, 8.0))

    def test_block_mass(self):
        assert MIXED.block_mass(3) == pytest.approx(0.5)


def oracle_coarsest_grouping(alg: MultiMatrixAlgebra) -> set[frozenset[int]]:
    """Fewest-cells grouping of blocks whose every cell renormalizes to a
    delta-form, found by exhausting all set partitions of the block indices.
    Asserts the optimum is unique."""
    best: list[set[frozenset[int]]] = []
    for grouping in all_set_partitions(range(1, alg.block_count + 1)):
        ok = True
        for cell in grouping:
            mass = sum(alg.block_mass(a) for a in cell)
            sub = MultiMatrixAlgebra(
                tuple(alg.block_sizes[a - 1] for a in cell),
                tuple(
                    tuple(x / mass for x in alg.weights[a - 1]) for a in cell
                ),
            )
            if sub.is_delta_form() is None:
                ok = False
                break
        if ok:
            best.append({frozenset(cell) for cell in grouping})
    fewest = min(len(g) for g in best)
    winners = [g for g in best if len(g) == fewest]
    assert len(winners) == 1, "coarsest valid grouping is not unique"
    return winners[0]


class TestDecomposeByDelta:
    def test_delta_form_is_single_factor(self):
        factors = C4_UNIFORM.decompose_by_delta()
        assert len(factors) == 1
        assert factors[0].algebra == C4_UNIFORM
        assert factors[0].delta == pytest.approx(4.0)
        assert factors[0].block_indices == (1, 2, 3, 4)

    def test_two_lines_plus_matrix_block(self):
        factors = MIXED.decompose_by_delta()
        assert [f.block_indices for f in factors] == [(1, 2), (3,)]
        assert factors[0].delta == pytest.approx(2.0)
        assert factors[0].algebra == C2_UNIFORM
        assert factors[1].delta == pytest.approx(4.0)
        assert factors[1].algebra == M2_HALF

    def test_three_and_five_lines(self):
        alg = MultiMatrixAlgebra(
            (1,) * 8, tuple((1 / 6,) for _ in range(3)) + tuple((1 / 10,) for _ in range(5))
        )
        factors = alg.decompose_by_delta()
        assert [f.delta for f in factors] == pytest.approx([3.0, 5.0])
        assert factors[0].block_indices == (1, 2, 3)
        assert factors[1].block_indices == (4, 5, 6, 7, 8)

    @pytest.mark.parametrize(
        "alg",
        [
            C4_UNIFORM,
            MIXED,
            C2_SKEW,
            MultiMatrixAlgebra(
                (1, 2, 1, 1),
                ((0.2,), (0.15, 0.15), (0.1,), (0.4,)),
            ),
        ],
    )
    def test_matches_brute_force_oracle(self, alg):
        got = {frozenset(f.block_indices) for f in alg.decompose_by_delta()}
        assert got == oracle_coarsest_grouping(alg)

    @pytest.mark.parametrize("alg", [C4_UNIFORM, MIXED, C2_SKEW])
    def test_every_factor_is_delta_form(self, alg):
        for factor in alg.decompose_by_delta():
            sub_delta = factor.algebra.is_delta_form()
            assert sub_delta is not None
            assert sub_delta == pytest.approx(factor.delta)

    def test_permuting_blocks_permutes_factors(self):
        shuffled = MultiMatrixAlgebra((2, 1, 1), ((0.25, 0.25), (0.25,), (0.25,)))
        factors = shuffled.decompose_by_delta()
        assert [f.delta for f in factors] == pytest.approx([2.0, 4.0])
        assert [f.block_indices for f in factors] == [(2, 3), (1,)]

    def test_factor_masses_sum_to_one(self):
        for factor in MIXED.decompose_by_delta():
            total = sum(x for row in factor.algebra.weights for x in row)
            assert total == pytest.approx(1.0)


class TestOneTraceClassRule:
    """``is_delta_form`` and ``decompose_by_delta`` share one trace-class rule,
    also where neighbouring traces chain within the tolerance but the ends of
    the chain do not."""

    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW, MIXED, C2_SKEW, CHAINED])
    def test_delta_form_exactly_when_one_factor(self, alg):
        assert (alg.is_delta_form() is not None) == (len(alg.decompose_by_delta()) == 1)

    def test_chained_traces_form_one_class(self):
        assert CHAINED.is_delta_form() == pytest.approx(3.0)
        (factor,) = CHAINED.decompose_by_delta()
        assert factor.block_indices == (1, 2, 3)
        assert factor.algebra.is_delta_form() == pytest.approx(factor.delta)

    def test_chained_traces_match_brute_force_oracle(self):
        got = {frozenset(f.block_indices) for f in CHAINED.decompose_by_delta()}
        assert got == oracle_coarsest_grouping(CHAINED)


def _from_json(size):
    return MultiMatrixAlgebra.from_dict({"blocks": [{"size": size, "q": [0.5, 0.5]}]})


def _constructor(row):
    return lambda size: MultiMatrixAlgebra((size,), (row,))


class TestSerialization:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_SKEW, MIXED])
    def test_round_trip(self, alg):
        assert MultiMatrixAlgebra.from_dict(alg.to_dict()) == alg

    def test_payload_shape(self):
        assert M2_HALF.to_dict() == {"blocks": [{"size": 2, "q": [0.5, 0.5]}]}

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"blocks": {}},
            {"blocks": [{"size": 1}]},
            {"blocks": [{"q": [1.0]}]},
            {"blocks": [{"size": "two", "q": [0.5, 0.5]}]},
            {"blocks": [{"size": 1, "q": ["x"]}]},
        ],
    )
    def test_bad_payload_rejected(self, payload):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra.from_dict(payload)

    @pytest.mark.parametrize(
        "size,build",
        [pytest.param(size, _from_json, id=str(size)) for size in (2.7, 2.0, True, "2", None)]
        # the constructor applies the same rule: none of these is truncated
        + [
            pytest.param(2.9, _constructor((0.5, 0.5)), id="init-2.9"),
            pytest.param("2", _constructor(("0.5", "0.5")), id="init-str"),
            pytest.param(True, _constructor((1.0,)), id="init-True"),
        ],
    )
    def test_size_must_be_a_json_integer(self, size, build):
        with pytest.raises(ValidationError, match="block size must be an integer"):
            build(size)

    @pytest.mark.parametrize("q", [1.0, ("1",), (True,)])
    def test_constructor_weights_must_be_a_list_of_numbers(self, q):
        with pytest.raises(ValidationError, match="must be a (list of )?numbers?"):
            MultiMatrixAlgebra((1,), (q,))

    @pytest.mark.parametrize(
        "q,named",
        [
            ("1", "'1'"),
            ("05", "'05'"),
            (0.5, "0.5"),
            (None, "None"),
            ({"a": 1}, "{'a': 1}"),
            (["0.5", "0.5"], "'0.5'"),
            ([True], "True"),
            ([0.5, None], "None"),
            ([[1.0]], "[1.0]"),
        ],
    )
    def test_weights_must_be_a_list_of_json_numbers(self, q, named):
        size = len(q) if isinstance(q, list) else 1
        with pytest.raises(ValidationError, match="must be a (list of )?numbers?") as err:
            MultiMatrixAlgebra.from_dict({"blocks": [{"size": size, "q": q}]})
        assert named in str(err.value)

    def test_integer_weights_are_numbers(self):
        alg = MultiMatrixAlgebra.from_dict({"blocks": [{"size": 1, "q": [1]}]})
        assert alg.weights == ((1.0,),)
        assert isinstance(alg.weights[0][0], float)

    def test_huge_integer_weight_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            MultiMatrixAlgebra.from_dict({"blocks": [{"size": 1, "q": [10**400]}]})

    def test_weight_validation_still_applies(self):
        with pytest.raises(ValidationError):
            MultiMatrixAlgebra.from_dict({"blocks": [{"size": 1, "q": [2.0]}]})


class TestDeltaFactorType:
    def test_fields(self):
        factor = MIXED.decompose_by_delta()[0]
        assert isinstance(factor, DeltaFactor)
        assert factor._fields == ("algebra", "delta", "block_indices")
