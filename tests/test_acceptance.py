"""The acceptance gate: ten checks, one visible verdict line each.

Every test computes its verdict first, prints a single ``criterion NN:
PASS/FAIL`` line with the measured detail, and only then asserts, so the
log always carries one line per criterion. Shared matrix caches keep the
heavier map checks inside their time budgets.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import numpy as np
import pytest

from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath.decorated import decorated_hom_dimension
from ncwreath.fusion import (
    AlternatingWord,
    Word,
    WordRing,
    a_rep_trivial_multiplicity,
    dimension,
    free_product_fusion,
    fusion_product,
    involution,
    multiplicity_of_trivial,
)
from ncwreath.groups import CyclicGroup, IntegerGroup, TableGroup
from ncwreath.partitions import (
    Partition,
    adjoint,
    catalan,
    compose,
    enumerate_partitions,
    tensor,
)
from ncwreath.tensor_maps import build_map, gram_rank, verify_composition

from helpers import (
    all_set_partitions,
    basis_position,
    make_partition as P,
    mul_basis,
    symmetric_group_dict,
)

C4_UNIFORM = MultiMatrixAlgebra((1, 1, 1, 1), ((0.25,), (0.25,), (0.25,), (0.25,)))
M2_HALF = MultiMatrixAlgebra((2,), ((0.5, 0.5),))
C2_UNIFORM = MultiMatrixAlgebra((1, 1), ((0.5,), (0.5,)))

MULT_DIAGRAM = P(2, 1, "u1 u2 l1")
MULT_ADJOINT = P(1, 2, "u1 l1 l2")

CATALAN_FIRST_ELEVEN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)

Z2 = CyclicGroup(2)
Z3 = CyclicGroup(3)
ZZ = IntegerGroup()
S3 = TableGroup.from_dict(symmetric_group_dict(3))

_MAP_CACHE: dict = {}
_MATRIX_CACHE: dict = {}
_COMPOSE_CACHE: dict = {}


def cached_map(algebra: MultiMatrixAlgebra, p: Partition):
    key = (algebra, p)
    got = _MAP_CACHE.get(key)
    if got is None:
        got = _MAP_CACHE[key] = build_map(algebra, p)
    return got


def cached_matrix(algebra: MultiMatrixAlgebra, p: Partition) -> np.ndarray:
    """The dense matrix of the cached map (a map builds it afresh per access)."""
    key = (algebra, p)
    got = _MATRIX_CACHE.get(key)
    if got is None:
        got = _MATRIX_CACHE[key] = cached_map(algebra, p).matrix
    return got


def cached_compose(p: Partition, q: Partition):
    key = (p, q)
    got = _COMPOSE_CACHE.get(key)
    if got is None:
        got = _COMPOSE_CACHE[key] = compose(p, q)
    return got


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def test_criterion_01_catalan_counts():
    start = time.perf_counter()
    problems = []
    for k, expected in enumerate(CATALAN_FIRST_ELEVEN):
        if catalan(k) != expected:
            problems.append(f"catalan({k}) != {expected}")
        if len(enumerate_partitions(0, k, max_points=20)) != expected:
            problems.append(f"|NC(0,{k})| != {expected}")
        labels = (0,) * k
        if decorated_hom_dimension(Z2, (), labels, max_points=20) != expected:
            problems.append(f"hom dimension for {k} trivial labels != {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    report(
        1,
        not problems,
        problems[0] if problems else f"k=0..10 counts agree three ways in {elapsed:.2f}s",
    )


def test_criterion_02_worked_composition():
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
    got = compose(p, q)
    observed = (
        p.block_count,
        q.block_count,
        got.result.block_count,
        got.central_blocks,
        got.cycles,
    )
    report(
        2,
        observed == (6, 7, 3, 1, 8),
        f"blocks(p), blocks(q), blocks(qp), central, cycles = {observed}",
    )


def _cycle_relation_holds(p, r, s) -> bool:
    sr = cached_compose(r, s)
    rp = cached_compose(p, r)
    lhs = cached_compose(p, sr.result).cycles
    rhs = rp.cycles + cached_compose(rp.result, s).cycles - sr.cycles
    return lhs == rhs


def test_criterion_03_cycle_relation():
    checked = 0
    problems = []
    for a, b in itertools.product(range(6), repeat=2):
        if a + b > 5:
            continue
        for c in range(6 - b):
            for d in range(6 - c):
                for p in enumerate_partitions(a, b):
                    for r in enumerate_partitions(b, c):
                        for s in enumerate_partitions(c, d):
                            checked += 1
                            if not _cycle_relation_holds(p, r, s):
                                problems.append(f"fails at {p} ; {r} ; {s}")
    exhaustive = checked

    rng = random.Random(2026)
    for _ in range(1000):
        b = rng.randint(0, 4)
        c = rng.randint(0, 4)
        a = rng.randint(0, 7 - b)
        d = rng.randint(0, 7 - c)
        p = rng.choice(enumerate_partitions(a, b))
        r = rng.choice(enumerate_partitions(b, c))
        s = rng.choice(enumerate_partitions(c, d))
        checked += 1
        if not _cycle_relation_holds(p, r, s):
            problems.append(f"fails at {p} ; {r} ; {s}")
    report(
        3,
        not problems,
        problems[0]
        if problems
        else f"{exhaustive} exhaustive + 1000 random triples, all exact",
    )


def test_criterion_04_map_functoriality():
    start = time.perf_counter()
    algebras = (C4_UNIFORM, M2_HALF)
    problems = []

    worst_compose = 0.0
    pairs = 0
    for k, l, m in itertools.product(range(7), repeat=3):
        if k + l > 6 or l + m > 6 or k + m > 6:
            continue
        for algebra in algebras:
            # verify_composition's identity T_qp = δ^-cy T_q T_p, on cached maps
            delta = algebra.is_delta_form()
            for p in enumerate_partitions(k, l):
                t_p = cached_matrix(algebra, p)
                for q in enumerate_partitions(l, m):
                    qp, _, cycles = cached_compose(p, q)
                    product = (delta ** float(-cycles)) * (cached_matrix(algebra, q) @ t_p)
                    deviation = float(np.max(np.abs(cached_matrix(algebra, qp) - product)))
                    worst_compose = max(worst_compose, deviation)
                    pairs += 1
    if worst_compose > 1e-9:
        problems.append(f"composition deviation {worst_compose:.2e} > 1e-9")

    worst_tensor = 0.0
    for k, l, k2, l2 in itertools.product(range(7), repeat=4):
        if k + l + k2 + l2 > 6:
            continue
        for algebra in algebras:
            for p in enumerate_partitions(k, l):
                t_p = cached_matrix(algebra, p)
                for q in enumerate_partitions(k2, l2):
                    t_q = cached_matrix(algebra, q)
                    side_by_side = cached_matrix(algebra, tensor(p, q))
                    deviation = float(np.max(np.abs(side_by_side - np.kron(t_p, t_q))))
                    worst_tensor = max(worst_tensor, deviation)
    if worst_tensor > 1e-12:
        problems.append(f"tensor deviation {worst_tensor:.2e} > 1e-12")

    worst_adjoint = 0.0
    for k in range(7):
        for l in range(7 - k):
            for algebra in algebras:
                for p in enumerate_partitions(k, l):
                    flipped = cached_matrix(algebra, adjoint(p))
                    deviation = float(np.max(np.abs(flipped - cached_matrix(algebra, p).T)))
                    worst_adjoint = max(worst_adjoint, deviation)
    if worst_adjoint > 1e-12:
        problems.append(f"adjoint deviation {worst_adjoint:.2e} > 1e-12")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    report(
        4,
        not problems,
        problems[0]
        if problems
        else (
            f"{pairs} composable pairs ≤ {worst_compose:.1e}; tensor ≤ "
            f"{worst_tensor:.1e}; adjoint ≤ {worst_adjoint:.1e}; {elapsed:.1f}s"
        ),
    )


def _structure_matrix(algebra: MultiMatrixAlgebra) -> np.ndarray:
    basis = algebra.basis_indices()
    n = len(basis)
    out = np.zeros((n, n * n))
    for a, left in enumerate(basis):
        for b, right in enumerate(basis):
            product = mul_basis(algebra, left, right)
            if product is not None:
                coef, result = product
                out[basis_position(algebra, result), a * n + b] += coef
    return out


def test_criterion_05_multiplication_map():
    worst = 0.0
    for algebra in (C4_UNIFORM, M2_HALF):
        built = cached_map(algebra, MULT_DIAGRAM).matrix
        worst = max(worst, float(np.max(np.abs(built - _structure_matrix(algebra)))))
    report(
        5,
        worst <= 1e-12,
        f"two-to-one diagram matches multiplication structure constants, max dev {worst:.1e}",
    )


def test_criterion_06_linear_independence():
    problems = []
    shapes = [(k, points - k) for points in range(8) for k in range(points + 1)]
    for algebra in (C4_UNIFORM, M2_HALF):
        # delta = 4 is the edge of the generic range: the Gram's conditioning
        # worsens about 75x per point, so the 8-point families are the hardest
        # case. Maps are built, not cached: 7 and 8 points would stay in
        # memory for the whole test run.
        for k, l in shapes + ([(0, 8), (4, 4)] if algebra is M2_HALF else []):
            expected = catalan(k + l)
            rank = gram_rank([build_map(algebra, p) for p in enumerate_partitions(k, l)])
            if rank != expected:
                problems.append(f"rank {rank} != {expected} on NC({k},{l}), dim {algebra.dim}")
    small_maps = [build_map(C2_UNIFORM, p) for p in enumerate_partitions(0, 4)]
    small_rank = gram_rank(small_maps)
    if small_rank != 8:
        problems.append(f"two-dimensional algebra rank {small_rank} on NC(0,4), not 8")
    report(
        6,
        not problems,
        problems[0]
        if problems
        else "full rank on all NC(k,l), k+l ≤ 7, both algebras, and on NC(0,8) and"
        f" NC(4,4) over M2; dim-2 rank {small_rank} = 8",
    )


def test_criterion_07_delta_form_bookkeeping():
    problems = []
    for algebra in (C4_UNIFORM, M2_HALF):
        delta = algebra.is_delta_form()
        if delta is None or abs(delta - 4.0) > 1e-12:
            problems.append(f"delta {delta} != 4 on dim-4 algebra")
        deviation = verify_composition(algebra, MULT_ADJOINT, MULT_DIAGRAM)
        if deviation > 1e-9:
            problems.append(f"m after m* deviates by {deviation:.2e}")

    # three cells of one weight and five of another: two factors expected
    mixed = MultiMatrixAlgebra(
        (1,) * 8,
        tuple(((1 / 6,) if b < 3 else (1 / 10,)) for b in range(8)),
    )
    factors = mixed.decompose_by_delta()
    got_deltas = [round(f.delta, 9) for f in factors]
    got_groups = sorted(tuple(f.block_indices) for f in factors)
    if got_deltas != [3.0, 5.0]:
        problems.append(f"factor deltas {got_deltas} != [3.0, 5.0]")

    def cell_is_delta_form(cell: tuple) -> bool:
        mass = sum(mixed.block_mass(b) for b in cell)
        sub = MultiMatrixAlgebra(
            tuple(mixed.block_sizes[b - 1] for b in cell),
            tuple(tuple(x / mass for x in mixed.weights[b - 1]) for b in cell),
        )
        return sub.is_delta_form() is not None

    coarsest = None
    for grouping in all_set_partitions(range(1, 9)):
        cells = tuple(sorted(tuple(sorted(c)) for c in grouping))
        if all(cell_is_delta_form(c) for c in cells):
            if coarsest is None or len(cells) < len(coarsest[0]):
                coarsest = ([*cells],)
            elif len(cells) == len(coarsest[0]):
                coarsest = (*coarsest, [*cells])
    if coarsest is None or len(coarsest) != 1:
        problems.append("grouping oracle found no unique coarsest splitting")
    elif sorted(tuple(c) for c in coarsest[0]) != got_groups:
        problems.append(
            f"decomposition {got_groups} differs from oracle {coarsest[0]}"
        )
    report(
        7,
        not problems,
        problems[0]
        if problems
        else "delta = 4 twice; m·m* within 1e-9; eight-cell example splits 3|5 per oracle",
    )


def _words_up_to(group, max_len: int) -> list[Word]:
    elements = list(group.elements())
    return [
        Word(group, letters)
        for n in range(max_len + 1)
        for letters in itertools.product(elements, repeat=n)
    ]


def _random_integer_word(rng) -> Word:
    return Word(
        ZZ, tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
    )


def _expand(first: Counter, second) -> Counter:
    out: Counter = Counter()
    for w, m in first.items():
        for v, m2 in second(w).items():
            out[v] += m * m2
    return out


def test_criterion_08_fusion_ring_properties():
    start = time.perf_counter()
    problems = []
    rng = random.Random(98)

    def check_pair(x, y):
        product = fusion_product(x, y)
        if multiplicity_of_trivial(x, y) != int(y == involution(x)):
            problems.append(f"trivial multiplicity wrong for {x}, {y}")
        backward = fusion_product(involution(y), involution(x))
        if product != Counter({involution(z): m for z, m in backward.items()}):
            problems.append(f"conjugation symmetry fails for {x}, {y}")
        for n in (4, 5, 9):
            total = sum(m * dimension(z, n) for z, m in product.items())
            if total != dimension(x, n) * dimension(y, n):
                problems.append(f"dimension homomorphism fails at n={n} for {x}, {y}")

    def check_triple(x, y, z):
        left = _expand(fusion_product(x, y), lambda w: fusion_product(w, z))
        right = _expand(fusion_product(y, z), lambda w: fusion_product(x, w))
        if left != right:
            problems.append(f"associativity fails for {x}, {y}, {z}")

    pairs = triples = 0
    for group in (Z2, Z3, S3, ZZ):
        if group is ZZ:
            words = [_random_integer_word(rng) for _ in range(60)]
        else:
            words = _words_up_to(group, 3)
        unit = Word(group, ())
        for x in words:
            if fusion_product(unit, x) != Counter({x: 1}) or fusion_product(
                x, unit
            ) != Counter({x: 1}):
                problems.append(f"unit law fails for {x}")

        if group is Z2:
            pair_pool = list(itertools.product(words, repeat=2))
            triple_pool = list(itertools.product(words, repeat=3))
        else:
            pair_pool = [
                (rng.choice(words), rng.choice(words)) for _ in range(300)
            ]
            triple_pool = [
                (rng.choice(words), rng.choice(words), rng.choice(words))
                for _ in range(300)
            ]
        for x, y in pair_pool:
            check_pair(x, y)
        pairs += len(pair_pool)
        for x, y, z in triple_pool:
            check_triple(x, y, z)
        triples += len(triple_pool)

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    report(
        8,
        not problems,
        problems[0]
        if problems
        else (
            f"4 groups: unit, trivial-mult, conjugation, dimension (n=4,5,9) on "
            f"{pairs} pairs; associativity on {triples} triples; {elapsed:.1f}s"
        ),
    )


def test_criterion_09_cross_module_consistency():
    problems = []
    checked = Counter()
    for group in (Z2, Z3, S3):
        for k in range(6):
            for letters in itertools.product(group.elements(), repeat=k):
                checked[group.describe()] += 1
                ring_side = a_rep_trivial_multiplicity(group, letters)
                diagram_side = decorated_hom_dimension(group, (), letters)
                if ring_side != diagram_side:
                    problems.append(
                        f"{group.describe()} letters {letters}: "
                        f"{ring_side} != {diagram_side}"
                    )

    report(
        9,
        not problems,
        problems[0]
        if problems
        else (
            f"ring and diagram counts agree on all {sum(checked.values())} tuples "
            f"({checked[S3.describe()]} over the symmetric group S3)"
        ),
    )


def test_criterion_10_free_product_fusion():
    problems = []
    rings = (WordRing(Z2, 4), WordRing(Z2, 5))

    def alternating_words(labels: list[Word], max_entries: int) -> list[AlternatingWord]:
        out = [AlternatingWord(())]
        for length in range(1, max_entries + 1):
            for first in (0, 1):
                factors = [(first + i) % 2 for i in range(length)]
                for choice in itertools.product(labels, repeat=length):
                    out.append(
                        AlternatingWord(tuple(zip(factors, choice)))
                    )
        return out

    small = alternating_words([Word(Z2, (1,)), Word(Z2, (0,))], 3)
    wide = alternating_words(
        [Word(Z2, letters) for n in (1, 2) for letters in itertools.product((0, 1), repeat=n)],
        3,
    )

    def alt_dimension(word: AlternatingWord) -> int:
        value = 1
        for index, label in word.entries:
            value *= dimension(label, rings[index].dim)
        return value

    pair_pool = list(itertools.product(small, repeat=2))
    rng = random.Random(301)
    pair_pool += [(rng.choice(wide), rng.choice(wide)) for _ in range(200)]
    for w1, w2 in pair_pool:
        product = free_product_fusion(rings, w1, w2)
        total = sum(alt_dimension(w) * m for w, m in product.items())
        if total != alt_dimension(w1) * alt_dimension(w2):
            problems.append(f"dimension multiplicativity fails for {w1}, {w2}")

    short = [w for w in small if len(w) <= 2]
    triple_pool = list(itertools.product(short, repeat=3))
    triple_pool += [
        (rng.choice(wide), rng.choice(wide), rng.choice(wide)) for _ in range(300)
    ]
    for a, b, c in triple_pool:
        left = _expand(
            free_product_fusion(rings, a, b),
            lambda w: free_product_fusion(rings, w, c),
        )
        right = _expand(
            free_product_fusion(rings, b, c),
            lambda w: free_product_fusion(rings, a, w),
        )
        if left != right:
            problems.append(f"associativity fails for {a}, {b}, {c}")

    single = (WordRing(Z2, 4),)
    plain_words = _words_up_to(Z2, 2)
    for x, y in itertools.product(plain_words, repeat=2):
        wx = AlternatingWord(((0, x),) if len(x) else ())
        wy = AlternatingWord(((0, y),) if len(y) else ())
        expected: Counter = Counter()
        for z, m in fusion_product(x, y).items():
            expected[AlternatingWord(((0, z),) if len(z) else ())] += m
        if free_product_fusion(single, wx, wy) != expected:
            problems.append(f"single-factor case differs for {x}, {y}")

    report(
        10,
        not problems,
        problems[0]
        if problems
        else (
            f"dimension-multiplicative on {len(pair_pool)} pairs, associative on "
            f"{len(triple_pool)} triples, single-factor case exact"
        ),
    )
