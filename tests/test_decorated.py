"""Tests for group-labeled noncrossing partitions and Hom-space counting."""

from __future__ import annotations

import functools
import itertools
import tracemalloc

import pytest

from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath.decorated import (
    DecoratedPartition,
    decorated_hom_dimension,
    enumerate_decorated,
    is_admissible,
)
from ncwreath.errors import BoundError, DomainError, ShapeError, ValidationError
from ncwreath.fusion import a_rep_trivial_multiplicity
from ncwreath.groups import CyclicGroup, IntegerGroup, TableGroup
from ncwreath import partitions
from ncwreath.partitions import adjoint, catalan, compose, enumerate_partitions, tensor
from ncwreath.tensor_maps import build_map, gram_rank

from helpers import (
    dihedral_group_dict,
    is_admissible_by_definition,
    make_partition as P,
    symmetric_group_dict,
)

Z2 = CyclicGroup(2)
Z3 = CyclicGroup(3)
S3 = TableGroup.from_dict(symmetric_group_dict(3))
D4 = TableGroup.from_dict(dihedral_group_dict(4))


def label_rows(group, max_upper: int, max_points: int):
    """Every (upper, lower) pair of label rows with at most ``max_upper``
    upper labels and at most ``max_points`` labels in all."""
    elems = list(group.elements())
    for k in range(max_upper + 1):
        for l in range(max_points - k + 1):
            for upper in itertools.product(elems, repeat=k):
                for lower in itertools.product(elems, repeat=l):
                    yield upper, lower

C4_UNIFORM = MultiMatrixAlgebra((1, 1, 1, 1), ((0.25,), (0.25,), (0.25,), (0.25,)))
M2_HALF = MultiMatrixAlgebra((2,), ((0.5, 0.5),))


class TestIsAdmissible:
    def test_pair_block_needs_cancelling_labels(self):
        pair = P(0, 2, "l1 l2")
        assert is_admissible(Z2, pair, (), (1, 1))
        assert is_admissible(Z2, pair, (), (0, 0))
        assert not is_admissible(Z2, pair, (), (1, 0))
        assert not is_admissible(Z3, pair, (), (1, 1))
        assert is_admissible(Z3, pair, (), (1, 2))

    def test_identity_labels_always_admissible(self):
        for k, l in [(0, 4), (2, 2), (1, 3)]:
            for p in enumerate_partitions(k, l):
                assert is_admissible(Z3, p, (0,) * k, (0,) * l)

    def test_singletons_need_identity(self):
        two_singletons = P(0, 2, "l1", "l2")
        assert not is_admissible(Z2, two_singletons, (), (1, 1))
        assert is_admissible(Z2, two_singletons, (), (0, 0))

    def test_through_string_matches_labels(self):
        strand = P(1, 1, "u1 l1")
        assert is_admissible(Z3, strand, (2,), (2,))
        assert not is_admissible(Z3, strand, (2,), (1,))

    def test_nonabelian_order_matters(self):
        # a 2-upper/1-lower block multiplies the uppers left to right
        block = P(2, 1, "u1 u2 l1")
        swap01 = S3.parse_element("102")
        swap12 = S3.parse_element("021")
        cycle = S3.mul(swap01, swap12)
        assert is_admissible(S3, block, (swap01, swap12), (cycle,))
        other = S3.mul(swap12, swap01)
        assert other != cycle
        assert not is_admissible(S3, block, (swap01, swap12), (other,))

    def test_integer_labels_work(self):
        zz = IntegerGroup()
        p = P(1, 2, "u1 l1 l2")
        assert is_admissible(zz, p, (5,), (2, 3))
        assert not is_admissible(zz, p, (5,), (3, 3))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            is_admissible(Z2, P(1, 1, "u1 l1"), (), (1,))
        with pytest.raises(ShapeError):
            is_admissible(Z2, P(1, 1, "u1 l1"), (1,), (1, 0))

    def test_foreign_labels_rejected(self):
        with pytest.raises(DomainError):
            is_admissible(Z2, P(1, 1, "u1 l1"), (2,), (0,))


class TestEnumerateDecorated:
    @pytest.mark.parametrize("k", range(7))
    def test_identity_decorations_count_catalan(self, k):
        assert len(enumerate_decorated(Z2, (), (0,) * k)) == catalan(k)

    def test_single_nonidentity_point_is_empty(self):
        assert enumerate_decorated(Z2, (), (1,)) == []

    def test_one_strand_each_way(self):
        assert len(enumerate_decorated(Z2, (1,), (1,))) == 1
        assert len(enumerate_decorated(Z2, (0,), (0,))) == 2

    def test_pair_of_generators_has_one_diagram(self):
        got = enumerate_decorated(Z2, (), (1, 1))
        assert len(got) == 1
        assert got[0].partition == P(0, 2, "l1 l2")

    def test_order_follows_partition_enumeration(self):
        labels = (0, 0, 0)
        decorated = enumerate_decorated(Z3, (), labels)
        plain = enumerate_partitions(0, 3)
        assert [d.partition for d in decorated] == plain

    def test_every_output_is_admissible(self):
        for d in enumerate_decorated(Z3, (1,), (2, 2)):
            assert is_admissible(Z3, d.partition, d.upper_labels, d.lower_labels)

    def test_bound_respected(self):
        with pytest.raises(BoundError):
            enumerate_decorated(Z2, (), (0,) * 20)
        with pytest.raises(BoundError):
            enumerate_decorated(Z2, (), (0,) * 5, max_points=4)

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_matches_validated_filter(self, group):
        for upper, lower in label_rows(group, 4, 4):
            want = [
                DecoratedPartition(group, p, upper, lower)
                for p in enumerate_partitions(len(upper), len(lower))
                if is_admissible_by_definition(group, p, upper, lower)
            ]
            assert enumerate_decorated(group, upper, lower) == want
            assert decorated_hom_dimension(group, upper, lower) == len(want)


class TestDecoratedHomDimension:
    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_single_representation_pairs(self, group):
        e = group.identity()
        for g in group.elements():
            for h in group.elements():
                expected = int(g == h) + int(g == e and h == e)
                assert decorated_hom_dimension(group, (g,), (h,)) == expected

    def test_identity_row_catalan(self):
        for k in range(6):
            assert decorated_hom_dimension(Z3, (), (0,) * k) == catalan(k)

    def test_generator_pair(self):
        assert decorated_hom_dimension(Z2, (), (1, 1)) == 1

    def test_count_holds_no_diagram_list(self):
        # the count scans heads: its peak stays below what a list of the
        # 208,012 diagrams alone would hold
        listed = catalan(12) * (partitions._DIAGRAM_BYTES + partitions._SLOT_BYTES * 12)
        tracemalloc.start()
        try:
            assert decorated_hom_dimension(Z2, (0,) * 6, (0,) * 6) == 208_012
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < listed

    @pytest.mark.parametrize(
        "group,max_upper,max_points,cases",
        [(Z3, 2, 4, 358), (S3, 2, 4, 4657), (D4, 0, 4, 4681), (D4, 2, 3, 1745)],
        ids=["Z3", "S3-two-row", "D4-one-row", "D4-two-row"],
    )
    def test_equals_fusion_ring_trivial_multiplicity(self, group, max_upper, max_points, cases):
        # bending the upper row down (inverted, reversed) gives the one-row
        # problem that the fusion ring counts; nonabelian groups included
        seen, mismatches = 0, []
        for upper, lower in label_rows(group, max_upper, max_points):
            seen += 1
            bent = tuple(group.inv(g) for g in reversed(upper)) + lower
            if decorated_hom_dimension(group, upper, lower) != a_rep_trivial_multiplicity(
                group, bent
            ):
                mismatches.append((upper, lower))
        assert seen == cases
        assert mismatches == []


class TestFrobeniusBending:
    """Rotating the upper row down-left (reversing and inverting its labels)
    must not change the count; this holds nonabelianly for the per-block rule."""

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_counts_invariant_under_bending(self, group):
        elems = list(group.elements())[:4]
        cases = [
            ((elems[-1],), (elems[-1],)),
            ((elems[1], elems[1]), (elems[min(2, len(elems) - 1)],)),
            ((elems[1],), (elems[1], elems[0], elems[0])),
        ]
        for upper, lower in cases:
            bent = tuple(group.inv(g) for g in reversed(upper)) + tuple(lower)
            assert decorated_hom_dimension(
                group, upper, lower
            ) == decorated_hom_dimension(group, (), bent)


class TestOperationCompatibility:
    def _admissible_labelings(self, group, p):
        elems = list(group.elements())
        for upper in itertools.product(elems, repeat=p.upper):
            for lower in itertools.product(elems, repeat=p.lower):
                if is_admissible(group, p, upper, lower):
                    yield upper, lower

    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_tensor_preserves_admissibility(self, group):
        ps = enumerate_partitions(1, 1) + enumerate_partitions(0, 2)
        qs = enumerate_partitions(2, 1)
        for p, q in itertools.product(ps, qs):
            for up, lp in self._admissible_labelings(group, p):
                for uq, lq in self._admissible_labelings(group, q):
                    assert is_admissible(group, tensor(p, q), up + uq, lp + lq)

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_adjoint_preserves_admissibility(self, group):
        for p in enumerate_partitions(2, 1) + enumerate_partitions(1, 2):
            for upper, lower in self._admissible_labelings(group, p):
                assert is_admissible(group, adjoint(p), lower, upper)

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    @pytest.mark.parametrize("shape", [(1, 2, 1), (0, 2, 2), (2, 2, 0)])
    def test_compose_preserves_admissibility(self, group, shape):
        k, l, m = shape
        for p in enumerate_partitions(k, l):
            for q in enumerate_partitions(l, m):
                qp = compose(p, q).result
                for up, mid in self._admissible_labelings(group, p):
                    for mid2, low in self._admissible_labelings(group, q):
                        if mid2 != mid:
                            continue
                        assert is_admissible(group, qp, up, low)


class TestAbelianReversal:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_reversed_block_products_agree(self, group):
        def product(items):
            return functools.reduce(group.mul, items, group.identity())

        def reversed_rule(p, upper, lower):
            for block in p.blocks:
                ups = [upper[pt.index - 1] for pt in block if pt.side == "u"]
                downs = [lower[pt.index - 1] for pt in block if pt.side == "l"]
                if product(ups[::-1]) != product(downs[::-1]):
                    return False
            return True

        elems = list(group.elements())
        for p in enumerate_partitions(2, 2):
            for upper in itertools.product(elems, repeat=2):
                for lower in itertools.product(elems, repeat=2):
                    assert is_admissible(group, p, upper, lower) == reversed_rule(
                        p, upper, lower
                    )


class TestDecoratedGramRank:
    @pytest.mark.parametrize("alg", [C4_UNIFORM, M2_HALF])
    @pytest.mark.parametrize(
        "group,upper,lower",
        [
            (Z2, (1,), (1,)),
            (Z2, (0, 0), (0, 0)),
            (Z2, (1, 1), (1, 1)),
            (Z2, (), (1, 0, 1)),
            (Z3, (1,), (1, 0)),
            (Z3, (1, 2), (1, 2)),
        ],
    )
    def test_rank_equals_count(self, alg, group, upper, lower):
        decorated = enumerate_decorated(group, upper, lower)
        maps = [build_map(alg, d.partition) for d in decorated]
        assert gram_rank(maps) == len(decorated)
        assert len(decorated) == decorated_hom_dimension(group, upper, lower)


class TestDecoratedPartitionType:
    def test_construction_validates(self):
        with pytest.raises(ValidationError):
            DecoratedPartition(Z2, P(0, 1, "l1"), (), (1,))

    def test_round_trip(self):
        d = DecoratedPartition(Z3, P(1, 2, "u1 l1 l2"), (0,), (1, 2))
        assert DecoratedPartition.from_dict(Z3, d.to_dict()) == d

    def test_serialized_labels_are_names(self):
        d = DecoratedPartition(Z2, P(0, 2, "l1 l2"), (), (1, 1))
        data = d.to_dict()
        assert data["lower_labels"] == ["s", "s"]
        assert data["upper_labels"] == []
        assert data["blocks"] == [["l1", "l2"]]

    def test_from_dict_requires_label_fields(self):
        with pytest.raises(ValidationError):
            DecoratedPartition.from_dict(
                Z2, {"upper": 0, "lower": 1, "blocks": [["l1"]]}
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {"upper": 2, "lower": 0, "blocks": [["u1", "u2"]],
             "upper_labels": "ss", "lower_labels": []},
            {"upper": 0, "lower": 2, "blocks": [["l1", "l2"]],
             "upper_labels": [], "lower_labels": [1, 1]},
        ],
        ids=["string-row", "number-labels"],
    )
    def test_from_dict_labels_must_be_json_lists_of_strings(self, payload):
        # both used to be read as the admissible labels (s, s) of cyclic:2
        with pytest.raises(ValidationError, match="lists of strings"):
            DecoratedPartition.from_dict(Z2, payload)

    def test_from_dict_validates_admissibility(self):
        with pytest.raises(ValidationError):
            DecoratedPartition.from_dict(
                Z2,
                {
                    "upper": 0,
                    "lower": 1,
                    "blocks": [["l1"]],
                    "upper_labels": [],
                    "lower_labels": ["s"],
                },
            )
