from __future__ import annotations

import gc
import json
import random
import sys
import tracemalloc

import pytest

from helpers import (
    adjoint_by_points,
    brute_force_nc,
    compose_by_points,
    linear_enumeration_oracle,
    make_partition,
    tensor_by_points,
)
from ncwreath import partitions
from ncwreath.errors import BoundError, ShapeError, ValidationError
from ncwreath.partitions import (
    Partition,
    Point,
    adjoint,
    catalan,
    compose,
    enumerate_partitions,
    identity_partition,
    is_noncrossing,
    parse_point,
    tensor,
)

def _from_fields(payload):
    blocks = [[parse_point(token) for token in block] for block in payload["blocks"]]
    return Partition(payload["upper"], payload["lower"], blocks)


CATALAN_FROZEN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


P = make_partition


M_DIAGRAM = ("u1 u2 l1",)
UNIT_DIAGRAM = ("l1",)


def m_diagram() -> Partition:
    return P(2, 1, *M_DIAGRAM)


def unit_diagram() -> Partition:
    return P(0, 1, *UNIT_DIAGRAM)


class TestCatalan:
    def test_frozen_values(self):
        assert [catalan(n) for n in range(11)] == CATALAN_FROZEN

    def test_counts_match_enumeration(self):
        for k in range(8):
            assert len(enumerate_partitions(0, k)) == catalan(k)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            catalan(-1)


class TestEnumeration:
    @pytest.mark.parametrize("upper,lower", [(0, 0), (0, 4), (2, 2), (1, 3), (3, 2)])
    def test_count_is_catalan(self, upper, lower):
        assert len(enumerate_partitions(upper, lower)) == catalan(upper + lower)

    @pytest.mark.parametrize("upper,lower", [(0, 4), (2, 2), (1, 3), (3, 1), (2, 3), (0, 6)])
    def test_matches_brute_force_filter(self, upper, lower):
        listed = enumerate_partitions(upper, lower)
        assert len(set(listed)) == len(listed)
        assert set(listed) == brute_force_nc(upper, lower)

    def test_order_is_deterministic(self):
        assert enumerate_partitions(2, 3) == enumerate_partitions(2, 3)

    def test_point_bound(self):
        with pytest.raises(BoundError):
            enumerate_partitions(9, 8)
        with pytest.raises(BoundError, match=r"^NC\(9, 9\) of 477,638,700 diagrams: 18 points,"
                           r" over the bound of 16 points$"):
            enumerate_partitions(9, 9)
        assert len(enumerate_partitions(2, 2, max_points=4)) == 14
        with pytest.raises(BoundError):
            enumerate_partitions(2, 3, max_points=4)

    @pytest.mark.parametrize("upper,lower", [(35, 0), (36, 0), (18, 18), (0, 64), (1000, 0)])
    def test_list_size_bound(self, upper, lower):
        # the list's bytes are bounded by physical memory: catalan(35) = 3.1e18
        # diagrams fit under sys.maxsize = 9.2e18, the most items a list holds,
        # but at 384 bytes each not in any memory
        with pytest.raises(BoundError, match=r" bytes, over the bound of [\d,]+ bytes$"):
            enumerate_partitions(upper, lower, max_points=2000)

    def test_list_size_bound_where_memory_is_not_reported(self, monkeypatch):
        # the bound falls back to sys.maxsize bytes, past what a process can
        # address; NC(35, 0), whose count fits under sys.maxsize, is refused
        monkeypatch.setattr(partitions, "_MEMORY", sys.maxsize)
        with pytest.raises(BoundError, match=r"^list of NC\(35, 0\) diagrams: 3,116,285,494,907,"
                           r"301,262 × [\d,]+ bytes = [\d,]+ bytes,"
                           rf" over the bound of {sys.maxsize:,} bytes$"):
            enumerate_partitions(35, 0, max_points=2000)
        assert len(enumerate_partitions(3, 3)) == 132

    def test_memo_freed_without_the_cycle_collector(self):
        # the enumeration's memo (14.3 MiB predicted at 12 points) goes when
        # the list is made, not when the cyclic collector next runs; a first
        # run fills the allocator's tuple free lists, which tracemalloc counts
        del enumerate_partitions(6, 6)[:]
        gc.disable()
        tracemalloc.start()
        try:
            del enumerate_partitions(6, 6)[:]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 2 << 20

    def test_negative_rows_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_partitions(-1, 2)


class TestNoncrossingPredicate:
    def test_crossing_pair_partition(self):
        blocks = [[Point("u", 1), Point("l", 2)], [Point("u", 2), Point("l", 1)]]
        assert is_noncrossing(blocks, 2, 2) is False

    def test_horizontal_pairs_do_not_cross(self):
        blocks = [[Point("u", 1), Point("u", 2)], [Point("l", 1), Point("l", 2)]]
        assert is_noncrossing(blocks, 2, 2) is True

    def test_lower_row_interleave(self):
        blocks = [[Point("l", 1), Point("l", 3)], [Point("l", 2), Point("l", 4)]]
        assert is_noncrossing(blocks, 0, 4) is False

    def test_nested_lower_blocks(self):
        blocks = [[Point("l", 1), Point("l", 4)], [Point("l", 2), Point("l", 3)]]
        assert is_noncrossing(blocks, 0, 4) is True

    @pytest.mark.parametrize(
        "blocks",
        [
            [[Point("u", 1)]],  # missing points
            [[Point("u", 1), Point("u", 1)], [Point("u", 2), Point("l", 1)]],
            [[Point("u", 1), Point("u", 3)], [Point("u", 2), Point("l", 1)]],
            [[Point("x", 1), Point("u", 2)], [Point("u", 1), Point("l", 1)]],
            [[Point("u", 1.0), Point("u", 2)], [Point("l", 1)]],  # indices are ints
            [[Point("u", True), Point("u", 2)], [Point("l", 1)]],
        ],
    )
    def test_malformed_rejected(self, blocks):
        with pytest.raises(ValidationError):
            is_noncrossing(blocks, 2, 1)


class TestPartitionType:
    def test_canonical_form_ignores_input_order(self):
        a = P(2, 2, "u2 l2", "l1 u1")
        b = P(2, 2, "u1 l1", "u2 l2")
        assert a == b
        assert hash(a) == hash(b)
        assert a.blocks[0][0] == Point("u", 1)

    def test_crossing_blocks_rejected(self):
        with pytest.raises(ValidationError):
            P(2, 2, "u1 l2", "u2 l1")

    def test_round_trip_json(self):
        for p in enumerate_partitions(2, 2):
            payload = json.loads(json.dumps(p.to_dict()))
            assert Partition.from_dict(payload) == p

    def test_from_dict_validation(self):
        with pytest.raises(ValidationError):
            Partition.from_dict({"upper": 1, "lower": 1})
        with pytest.raises(ValidationError):
            Partition.from_dict({"upper": 1, "lower": 1, "blocks": [["u1"], ["zz"]]})
        with pytest.raises(ValidationError):
            Partition.from_dict({"upper": 1, "lower": 1, "blocks": [["u1"], ["l2"]]})


    @pytest.mark.parametrize("field", ["upper", "lower"])
    @pytest.mark.parametrize(
        "size,build",
        [pytest.param(size, Partition.from_dict, id=str(size)) for size in (1.9, 1.0, True, "1", None)]
        # the constructor applies the same rule
        + [pytest.param(size, _from_fields, id=f"init-{size}") for size in (True, 1.0)],
    )
    def test_from_dict_sizes_must_be_json_integers(self, field, size, build):
        payload = {"upper": 1, "lower": 1, "blocks": [["u1", "l1"]], field: size}
        with pytest.raises(ValidationError, match=f"'{field}' must be an integer"):
            build(payload)

    def test_hash_survives_round_trip(self):
        for p in enumerate_partitions(3, 3):
            assert hash(Partition.from_dict(p.to_dict())) == hash(p)

    @pytest.mark.parametrize("m", range(8))
    def test_equality_includes_the_shape(self, m):
        # {u1}{l1} in NC(1,1) and {u1}{u2} in NC(2,0) share the heads (0, 1).
        assert P(1, 1, "u1", "l1").heads == P(2, 0, "u1", "u2").heads
        assert P(1, 1, "u1", "l1") != P(2, 0, "u1", "u2")
        diagrams = {p for k in range(m + 1) for p in enumerate_partitions(k, m - k)}
        assert len(diagrams) == (m + 1) * catalan(m)

    def test_heads_name_each_block_by_its_first_position(self):
        assert identity_partition(2).heads == (0, 1, 1, 0)
        assert P(1, 2, "u1", "l1 l2").heads == (0, 1, 1)
        assert P(0, 4, "l1 l4", "l2 l3").heads == (0, 1, 1, 0)


class TestTensor:
    def test_shifts_second_factor(self):
        got = tensor(identity_partition(1), m_diagram())
        assert got == P(3, 2, "u1 l1", "u2 u3 l2")

    def test_empty_diagram_is_unit(self):
        empty = Partition(0, 0, ())
        p = P(2, 1, "u1 u2 l1")
        assert tensor(empty, p) == p
        assert tensor(p, empty) == p

    def test_block_count_additive(self):
        for p in enumerate_partitions(1, 2):
            for q in enumerate_partitions(2, 1):
                assert tensor(p, q).block_count == p.block_count + q.block_count

    def test_associative(self):
        ps = enumerate_partitions(1, 1)
        for p in ps:
            for q in ps:
                for r in ps:
                    assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))


class TestAdjoint:
    def test_m_diagram(self):
        assert adjoint(m_diagram()) == P(1, 2, "u1 l1 l2")

    def test_identity_fixed(self):
        assert adjoint(identity_partition(3)) == identity_partition(3)

    def test_involution(self):
        for p in enumerate_partitions(3, 2):
            assert adjoint(adjoint(p)) == p

    def test_antihomomorphism_for_tensor(self):
        for p in enumerate_partitions(1, 2):
            for q in enumerate_partitions(2, 0):
                assert adjoint(tensor(p, q)) == tensor(adjoint(p), adjoint(q))


class TestCompose:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compose(m_diagram(), m_diagram())

    def test_identity_neutral(self):
        for p in enumerate_partitions(2, 2):
            right = compose(identity_partition(2), p)
            left = compose(p, identity_partition(2))
            for got in (right, left):
                assert got.result == p
                assert got.central_blocks == 0
                assert got.cycles == 0

    def test_pair_of_pairings_makes_one_cycle(self):
        got = compose(adjoint(m_diagram()), m_diagram())
        assert got.result == identity_partition(1)
        assert got.central_blocks == 0
        assert got.cycles == 1

    def test_central_block_detected(self):
        p = P(0, 1, "l1")
        q = P(1, 0, "u1")
        got = compose(p, q)
        assert got.result == Partition(0, 0, ())
        assert got.central_blocks == 1
        assert got.cycles == 0 + 1 + 1 - 1 - 1

    def test_worked_seventeen_point_example(self):
        p = P(
            4,
            17,
            "u1 l1 l2 l3",
            "u2 l4 l5 l6 l7 l8",
            "u3 l9 l10 l11",
            "l12",
            "u4 l13 l17",
            "l14 l15 l16",
        )
        q = P(
            17,
            5,
            "u1 u2 u3 l1 l2",
            "u4 u5 l3",
            "u6 u7 u8 u9 u10 l4 l5",
            "u11",
            "u12",
            "u13 u14",
            "u15 u16 u17",
        )
        assert p.block_count == 6
        assert q.block_count == 7
        got = compose(p, q)
        assert got.result == P(4, 5, "u1 l1 l2", "u2 u3 l3 l4 l5", "u4")
        assert got.result.block_count == 3
        assert got.central_blocks == 1
        assert got.cycles == 8

    def test_adjoint_reverses_composition(self):
        for p in enumerate_partitions(2, 1):
            for q in enumerate_partitions(1, 2):
                lhs = adjoint(compose(p, q).result)
                rhs = compose(adjoint(q), adjoint(p)).result
                assert lhs == rhs


def _compose_cached(cache, p, q):
    key = (p, q)
    got = cache.get(key)
    if got is None:
        got = cache[key] = compose(p, q)
    return got


class TestCycleBookkeeping:
    def test_relation_exhaustive_small(self):
        cache: dict = {}
        shapes = [
            (k, l, m, v)
            for k in range(4)
            for l in range(4)
            for m in range(4)
            for v in range(4)
            if k + l <= 4 and l + m <= 4 and m + v <= 4
        ]
        checked = 0
        for k, l, m, v in shapes:
            for r in enumerate_partitions(l, m):
                for s in enumerate_partitions(m, v):
                    sr, _, cy_rs = _compose_cached(cache, r, s)
                    for p in enumerate_partitions(k, l):
                        rp, cb_pr, cy_pr = _compose_cached(cache, p, r)
                        res_a, cb_a, cy_a = _compose_cached(cache, p, sr)
                        res_b, cb_b, cy_b = _compose_cached(cache, rp, s)
                        assert res_a == res_b
                        assert cy_a == cy_pr + cy_b - cy_rs
                        cb_rs = _compose_cached(cache, r, s).central_blocks
                        assert cb_a + cb_rs == cb_pr + cb_b
                        checked += 1
        assert checked > 1000

    def test_relation_random_larger(self):
        rng = random.Random(2024)
        pools: dict = {}

        def pool(a, b):
            key = (a, b)
            if key not in pools:
                pools[key] = enumerate_partitions(a, b)
            return pools[key]

        for _ in range(1000):
            k, l, m, v = (rng.randint(0, 4) for _ in range(4))
            p = rng.choice(pool(k, l))
            r = rng.choice(pool(l, m))
            s = rng.choice(pool(m, v))
            sr = compose(r, s)
            rp = compose(p, r)
            res_a = compose(p, sr.result)
            res_b = compose(rp.result, s)
            assert res_a.result == res_b.result
            assert res_a.cycles == rp.cycles + res_b.cycles - sr.cycles
            assert (
                res_a.central_blocks + sr.central_blocks
                == rp.central_blocks + res_b.central_blocks
            )

    def test_central_blocks_can_shift_between_groupings(self):
        # The two ways of grouping a triple composition may distribute the
        # dropped middle-only blocks differently; only the combined count is
        # conserved.  Frozen instance: p = two singletons, r = the identity
        # strand, s = the one-block NC(1,2) diagram.
        p = P(1, 1, "u1", "l1")
        r = P(1, 1, "u1 l1")
        s = P(1, 2, "u1", "l1 l2")
        sr = compose(r, s)
        rp = compose(p, r)
        via_sr = compose(p, sr.result)
        via_rp = compose(rp.result, s)
        assert via_sr.central_blocks == 1
        assert rp.central_blocks == 0
        assert via_rp.central_blocks == 1
        assert sr.central_blocks == 0
        assert via_sr.cycles == rp.cycles + via_rp.cycles - sr.cycles

    def test_composition_associative(self):
        for p in enumerate_partitions(1, 2):
            for r in enumerate_partitions(2, 1):
                for s in enumerate_partitions(1, 1):
                    lhs = compose(p, compose(r, s).result).result
                    rhs = compose(compose(p, r).result, s).result
                    assert lhs == rhs

    def test_cycles_nonnegative_random(self):
        rng = random.Random(7)
        for _ in range(500):
            k, l, m = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 3)
            p = rng.choice(enumerate_partitions(k, l))
            q = rng.choice(enumerate_partitions(l, m))
            got = compose(p, q)
            assert got.cycles >= 0
            assert got.central_blocks >= 0


def _validated(p: Partition) -> Partition:
    return Partition(p.upper, p.lower, p.blocks)


def _pool(max_points: int) -> dict:
    return {
        (k, m - k): enumerate_partitions(k, m - k)
        for m in range(max_points + 1)
        for k in range(m + 1)
    }


class TestTrustedPath:
    """Results built without validation equal their validated rebuilds."""

    @pytest.mark.parametrize("points", range(10))
    def test_enumeration_matches_linear_oracle(self, points):
        for upper in range(points + 1):
            got = enumerate_partitions(upper, points - upper)
            want = linear_enumeration_oracle(upper, points - upper)
            assert got == want

    def test_compose_results_are_canonical(self):
        # Every composable pair whose three rows hold at most 6 points.
        pool = _pool(6)
        checked = 0
        for (a, b), ps in pool.items():
            for c in range(7 - a - b):
                for p in ps:
                    for q in pool[b, c]:
                        got = compose(p, q)
                        r = got.result
                        assert r == _validated(r)
                        blocks, central, cycles = compose_by_points(p, q)
                        assert r.blocks == blocks
                        assert got.central_blocks == central
                        assert got.cycles == cycles
                        checked += 1
        assert checked == 43371

    def test_tensor_results_are_canonical(self):
        pool = _pool(6)
        for (a, b), ps in pool.items():
            for (c, d), qs in pool.items():
                if a + b + c + d > 6:
                    continue
                for p in ps:
                    for q in qs:
                        r = tensor(p, q)
                        assert r == _validated(r)
                        assert r.blocks == tensor_by_points(p, q)

    def test_adjoint_and_identity_results_are_canonical(self):
        for diagrams in _pool(6).values():
            for p in diagrams:
                r = adjoint(p)
                assert r == _validated(r)
                assert r.blocks == adjoint_by_points(p)
        for k in range(6):
            r = identity_partition(k)
            assert r == _validated(r)

    def test_identity_negative_rejected(self):
        with pytest.raises(ValidationError):
            identity_partition(-1)
