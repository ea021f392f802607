"""Independent oracles shared by the test modules.

Everything here is written from the definitions, deliberately avoiding the
library's own algorithms, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
from collections import Counter

from typing import Optional, Sequence

import numpy as np

from ncwreath.algebra import BasisIndex, MultiMatrixAlgebra
from ncwreath.errors import DomainError
from ncwreath.fusion import AlternatingWord, Word, involution
from ncwreath.partitions import Partition, Point, parse_point


def make_partition(upper: int, lower: int, *blocks: str) -> Partition:
    """Shorthand: each block is a space-separated string of point tokens."""
    return Partition(
        upper, lower, tuple(tuple(parse_point(t) for t in b.split()) for b in blocks)
    )


def all_set_partitions(items):
    """Every set partition of ``items`` (a sequence), as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            yield (
                [list(b) for b in sub[:i]]
                + [[first] + list(sub[i])]
                + [list(b) for b in sub[i + 1 :]]
            )


def interleaves(a_positions, b_positions) -> bool:
    """Whether two blocks of line positions interleave (pattern ABAB/BABA)."""
    merged = sorted([(p, 0) for p in a_positions] + [(p, 1) for p in b_positions])
    changes = sum(1 for x, y in zip(merged, merged[1:]) if x[1] != y[1])
    return changes >= 3


def bent_line_position(point: Point, upper: int, lower: int) -> int:
    if point.side == "u":
        return point.index - 1
    return upper + (lower - point.index)


def noncrossing_by_pairs(blocks, upper: int, lower: int) -> bool:
    """Quadratic pairwise-interleaving test, independent of the stack scan."""
    positioned = [
        [bent_line_position(pt, upper, lower) for pt in block] for block in blocks
    ]
    for a, b in itertools.combinations(positioned, 2):
        if interleaves(a, b):
            return False
    return True


def linear_enumeration_oracle(upper: int, lower: int) -> list[Partition]:
    """NC(upper, lower) in the library's canonical order, the slow way.

    Every noncrossing set partition of the bent-line positions is generated
    by choosing the first position's block and recursing into the gaps it
    leaves; the position blocks are sorted, the partitions listed in
    lexicographic order, and each is mapped to points and passed through the
    validating constructor.
    """

    def noncrossing(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for r in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, r):
                block = (first, *chosen)
                segments = [[] for _ in block]
                for x in rest:
                    if x not in chosen:
                        segments[sum(1 for b in block if b < x) - 1].append(x)
                for combo in itertools.product(
                    *(list(noncrossing(tuple(seg))) for seg in segments)
                ):
                    yield (block,) + tuple(b for part in combo for b in part)

    def to_point(pos: int) -> Point:
        if pos < upper:
            return Point("u", pos + 1)
        return Point("l", lower - (pos - upper))

    linear = sorted(
        tuple(sorted(blocks)) for blocks in noncrossing(tuple(range(upper + lower)))
    )
    return [
        Partition(upper, lower, tuple(tuple(to_point(pos) for pos in b) for b in blocks))
        for blocks in linear
    ]


def random_noncrossing(rng, upper: int, lower: int) -> Partition:
    """A random diagram of NC(upper, lower), not uniformly distributed.

    Walks the bent line keeping a stack of open blocks: each position first
    closes a random number of the innermost open blocks, then joins the
    innermost one left or opens a new one. A closed block never grows
    again, so no two blocks interleave.
    """
    blocks: list[list[int]] = []
    stack: list[list[int]] = []
    for pos in range(upper + lower):
        while stack and rng.random() < 0.3:
            stack.pop()
        if stack and rng.random() < 0.5:
            stack[-1].append(pos)
        else:
            blocks.append([pos])
            stack.append(blocks[-1])

    def to_point(pos: int) -> Point:
        return Point("u", pos + 1) if pos < upper else Point("l", upper + lower - pos)

    return Partition(upper, lower, tuple(tuple(map(to_point, b)) for b in blocks))


def brute_force_nc(upper: int, lower: int) -> set[Partition]:
    """All of NC(upper, lower) by filtering every set partition of the points."""
    points = [Point("u", i) for i in range(1, upper + 1)] + [
        Point("l", j) for j in range(1, lower + 1)
    ]
    out = set()
    for blocks in all_set_partitions(points):
        if noncrossing_by_pairs(blocks, upper, lower):
            out.add(Partition(upper, lower, tuple(tuple(b) for b in blocks)))
    return out


def tensor_by_points(p: Partition, q: Partition) -> tuple:
    """The canonical blocks of ``tensor(p, q)``, computed on points."""
    shifted = tuple(
        tuple(
            Point(side, index + (p.upper if side == "u" else p.lower))
            for side, index in block
        )
        for block in q.blocks
    )
    # On the joint bent line q's points sit between p's upper and lower rows:
    # p's blocks that reach the upper row come first, then q's, then p's
    # lower-only blocks, each group keeping its own order.
    split = 0
    for block in p.blocks:
        if block[0].side != "u":
            break
        split += 1
    return p.blocks[:split] + shifted + p.blocks[split:]


def adjoint_by_points(p: Partition) -> tuple:
    """The canonical blocks of ``adjoint(p)``, computed on points."""
    total = p.upper + p.lower
    flipped = []
    for block in p.blocks:
        flipped.append(
            tuple(Point("u", index) for side, index in block if side == "l")
            + tuple(Point("l", index) for side, index in block if side == "u")
        )
    # Minimal bent-line position: the first upper point, else the largest
    # lower index (the lower row runs backwards).
    flipped.sort(key=lambda b: b[0].index - 1 if b[0].side == "u" else total - b[-1].index)
    return tuple(flipped)


def compose_by_points(p: Partition, q: Partition) -> tuple:
    """``(blocks, central_blocks, cycles)`` of ``compose(p, q)``, computed on
    points with a union-find over the blocks; the blocks are canonical."""
    assert p.lower == q.upper
    p_blocks, q_blocks = p.blocks, q.blocks
    # Union-find over blocks: p's blocks are nodes 0..bp-1, q's follow; the
    # middle point t joins p's block holding l_t to q's block holding u_t.
    bp = len(p_blocks)
    parent = list(range(bp + len(q_blocks)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    # A block lists its upper points, then its lower points, so each block
    # splits into an upper and a lower part by slicing.
    above = [0] * p.lower  # p's block at each middle point
    tops = []  # (node, upper part) of p's blocks that reach the upper row
    for b, block in enumerate(p_blocks):
        n = 0
        for side, index in block:
            if side == "u":
                n += 1
            else:
                above[index - 1] = b
        if n:
            tops.append((b, block[:n]))
    bottoms = []  # (node, lower part) of q's blocks that reach the lower row
    for b, block in enumerate(q_blocks, bp):
        n = 0
        for side, index in block:
            if side != "u":
                break
            n += 1
            parent[find(above[index - 1])] = find(b)
        if n < len(block):
            bottoms.append((b, block[n:]))

    # Only blocks reaching the middle row merge. Among p's, the upper parts
    # ascend in block order (a later one nested inside an earlier one could
    # not reach the middle row without crossing it); among q's, so do the
    # lower parts. Each component thus gathers its points in canonical order.
    # Components reaching the upper row are met in canonical order;
    # lower-only ones go by their largest lower index, descending.
    roots = [find(b) for b in range(len(parent))]
    components: dict[int, tuple[Point, ...]] = {}
    for b, part in tops:
        components[roots[b]] = components.get(roots[b], ()) + part
    with_upper = len(components)
    for b, part in bottoms:
        components[roots[b]] = components.get(roots[b], ()) + part
    central = len(set(roots)) - len(components)

    blocks = tuple(components.values())
    lower_only = sorted(blocks[with_upper:], key=lambda b: -b[-1].index)
    cycles = p.lower + len(blocks) + central - bp - len(q_blocks)
    return blocks[:with_upper] + tuple(lower_only), central, cycles


def is_admissible_by_definition(group, p: Partition, upper, lower) -> bool:
    """Whether each block's upper-label product equals its lower-label
    product, both taken in block order, from the blocks of points."""
    mul, identity = group.mul, group.identity()
    for block in p.blocks:
        up = down = identity
        for side, index in block:
            if side == "u":
                up = mul(up, upper[index - 1])
            else:
                down = mul(down, lower[index - 1])
        if up != down:
            return False
    return True


def basis_position(algebra: MultiMatrixAlgebra, x: BasisIndex) -> int:
    """Position of ``x`` within ``algebra.basis_indices()`` order."""
    b, i, j = x
    offset = sum(s * s for s in algebra.block_sizes[: b - 1])
    size = algebra.block_sizes[b - 1]
    return offset + (i - 1) * size + (j - 1)


def mul_basis(
    algebra: MultiMatrixAlgebra, x: BasisIndex, y: BasisIndex
) -> Optional[tuple[float, BasisIndex]]:
    """Product of two normalized basis vectors, as ``(coefficient, index)``;
    ``None`` when the product vanishes (different blocks or mismatched
    inner entries)."""
    bx, ix, jx = x
    by, iy, jy = y
    if bx != by or jx != iy:
        return None
    return (algebra.weight(bx, jx) ** -0.5, BasisIndex(bx, ix, jy))


# Markers for the empty product (the algebra unit) and the zero element in
# the symbolic arithmetic of normalized matrix units below; any other element
# is a scaled matrix unit ``(coef, block, row, col)``.
_ONE = "one"
_ZERO = "zero"


def _mul_chain(algebra: MultiMatrixAlgebra, indices: Sequence[BasisIndex]):
    """Product of normalized basis vectors as ``(coef, block, row, col)``,
    or the markers for the empty product / the zero element."""
    acc = _ONE
    for ix in indices:
        coef = algebra.weight(ix.block, ix.col) ** -0.5
        if acc == _ONE:
            acc = (coef, ix.block, ix.row, ix.col)
            continue
        c, b, i, j = acc
        if b != ix.block or j != ix.row:
            return _ZERO
        acc = (c * coef, b, i, ix.col)
    return acc


def _psi(algebra: MultiMatrixAlgebra, elem) -> float:
    if elem == _ONE:
        return 1.0
    if elem == _ZERO:
        return 0.0
    c, b, i, j = elem
    return c * algebra.weight(b, i) if i == j else 0.0


def _star(elem):
    if elem in (_ONE, _ZERO):
        return elem
    c, b, i, j = elem
    return (c, b, j, i)


def _product(elem_a, elem_b):
    if _ZERO in (elem_a, elem_b):
        return _ZERO
    if elem_a == _ONE:
        return elem_b
    if elem_b == _ONE:
        return elem_a
    ca, ba, ia, ja = elem_a
    cb, bb, ib, jb = elem_b
    if ba != bb or ja != ib:
        return _ZERO
    return (ca * cb, ba, ia, jb)


def delta_coefficient(
    algebra: MultiMatrixAlgebra,
    p: Partition,
    upper: Sequence[BasisIndex],
    lower: Sequence[BasisIndex],
) -> float:
    """Matrix entry of the map of ``p`` at one upper / lower assignment of
    normalized basis vectors: the product over blocks of the state applied to
    (lower product)* (upper product). The indices are not checked."""
    value = 1.0
    for block in p.blocks:
        ups = [upper[pt.index - 1] for pt in block if pt.side == "u"]
        downs = [lower[pt.index - 1] for pt in block if pt.side == "l"]
        factor = _psi(
            algebra,
            _product(_star(_mul_chain(algebra, downs)), _mul_chain(algebra, ups)),
        )
        value *= factor
        if value == 0.0:
            return 0.0
    return value


class DenseModel:
    """Concrete matrix model of a multimatrix algebra with its state.

    Elements are tuples of per-block complex matrices; the state is the
    weighted trace. Used to check symbolic basis arithmetic numerically.
    """

    def __init__(self, algebra: MultiMatrixAlgebra) -> None:
        self.algebra = algebra

    def unit_matrix(self, index) -> tuple[np.ndarray, ...]:
        blocks = []
        for a, size in enumerate(self.algebra.block_sizes, start=1):
            mat = np.zeros((size, size))
            if a == index.block:
                mat[index.row - 1, index.col - 1] = 1.0
            blocks.append(mat)
        return tuple(blocks)

    def normalized_basis_matrix(self, index) -> tuple[np.ndarray, ...]:
        scale = self.algebra.weight(index.block, index.col) ** -0.5
        return tuple(scale * m for m in self.unit_matrix(index))

    def one(self) -> tuple[np.ndarray, ...]:
        return tuple(np.eye(size) for size in self.algebra.block_sizes)

    @staticmethod
    def multiply(x, y):
        return tuple(a @ b for a, b in zip(x, y))

    @staticmethod
    def star(x):
        return tuple(a.conj().T for a in x)

    def state(self, x) -> float:
        total = 0.0
        for a, mat in enumerate(x, start=1):
            q = np.diag([self.algebra.weight(a, i + 1) for i in range(mat.shape[0])])
            total += np.trace(q @ mat)
        return float(total)

    def product_of_normalized(self, indices):
        out = self.one()
        for ix in indices:
            out = self.multiply(out, self.normalized_basis_matrix(ix))
        return out


def dense_block_factor(
    algebra: MultiMatrixAlgebra, n_upper: int, n_lower: int
) -> np.ndarray:
    """Dense tensor of the per-block coefficients for a block with the given
    numbers of upper and lower legs. Axes: lower legs left to right, then
    upper legs left to right, each running over the whole basis.

    Nonzero entries live on chains inside a single matrix block: consecutive
    legs share their inner matrix entry, and the state ties the two free ends
    of the upper chain to those of the lower chain.
    """
    n = algebra.dim
    u, d = n_upper, n_lower
    out = np.zeros((n,) * (d + u))
    for a, size in enumerate(algebra.block_sizes, start=1):
        q = algebra.weights[a - 1]
        inv_sqrt = [x**-0.5 for x in q]

        def pos(row: int, col: int) -> int:
            return basis_position(algebra, BasisIndex(a, row + 1, col + 1))

        if u and d:
            for xs in itertools.product(range(size), repeat=u + 1):
                c_up = 1.0
                for t in range(1, u + 1):
                    c_up *= inv_sqrt[xs[t]]
                upper_pos = tuple(pos(xs[t - 1], xs[t]) for t in range(1, u + 1))
                for mid in itertools.product(range(size), repeat=d - 1):
                    ys = (xs[0], *mid, xs[-1])
                    c_dn = 1.0
                    for t in range(1, d + 1):
                        c_dn *= inv_sqrt[ys[t]]
                    lower_pos = tuple(pos(ys[t - 1], ys[t]) for t in range(1, d + 1))
                    out[lower_pos + upper_pos] = c_up * c_dn * q[ys[-1]]
        elif u:
            for free in itertools.product(range(size), repeat=u):
                xs = (*free, free[0])
                c_up = 1.0
                for t in range(1, u + 1):
                    c_up *= inv_sqrt[xs[t]]
                out[tuple(pos(xs[t - 1], xs[t]) for t in range(1, u + 1))] = (
                    c_up * q[xs[0]]
                )
        else:
            for free in itertools.product(range(size), repeat=d):
                ys = (*free, free[0])
                c_dn = 1.0
                for t in range(1, d + 1):
                    c_dn *= inv_sqrt[ys[t]]
                out[tuple(pos(ys[t - 1], ys[t]) for t in range(1, d + 1))] = (
                    c_dn * q[ys[0]]
                )
    return out


def build_map_einsum(algebra: MultiMatrixAlgebra, p: Partition) -> np.ndarray:
    """The matrix of ``p`` as one ``numpy.einsum`` over dense per-block
    tensors, one axis per leg; no bound is checked."""
    n = algebra.dim
    k, l = p.upper, p.lower
    if not p.blocks:
        return np.ones((1, 1))
    operands = []
    for block in p.blocks:
        ups = [pt.index for pt in block if pt.side == "u"]
        downs = [pt.index for pt in block if pt.side == "l"]
        operands.append(dense_block_factor(algebra, len(ups), len(downs)))
        operands.append([j - 1 for j in downs] + [l + i - 1 for i in ups])
    tensor = np.einsum(*operands, list(range(l + k)))
    return np.array(tensor).reshape(n**l, n**k)


def _build_map_by_definition(algebra: MultiMatrixAlgebra, p: Partition) -> np.ndarray:
    """Entry-by-entry assembly straight from ``delta_coefficient``;
    quadratically slower than either assembly, so keep diagrams small."""
    basis = algebra.basis_indices()
    rows = list(itertools.product(basis, repeat=p.lower))
    cols = list(itertools.product(basis, repeat=p.upper))
    out = np.zeros((len(rows), len(cols)))
    for r, lower in enumerate(rows):
        for c, upper in enumerate(cols):
            out[r, c] = delta_coefficient(algebra, p, upper, lower)
    return out


def gram_rank_dense(maps) -> int:
    """Rank of the maps' span from their full dense matrices, stacked one
    flattened matrix per row and ranked by SVD with no Gram, so no condition
    number is squared. Columns that are zero in every map are dropped first:
    they add nothing to the rank, only to the SVD's time."""
    stacked = np.stack([t.matrix.reshape(-1) for t in maps])
    return int(np.linalg.matrix_rank(stacked[:, stacked.any(axis=0)]))


def symmetric_group_dict(n: int) -> dict:
    """Multiplication-table payload for the symmetric group on ``range(n)``.

    Elements are named by one-line notation ("120" sends 0->1, 1->2, 2->0)
    except the identity, which is named "e"; composition applies the right
    factor first: (a*b)(i) = a[b[i]].
    """
    perms = sorted(itertools.permutations(range(n)))
    names = ["e" if p == tuple(range(n)) else "".join(map(str, p)) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms
    ]
    return {"elements": names, "identity": "e", "table": table}


def cyclic_group_dict(n: int, swap: Optional[tuple[int, int]] = None) -> dict:
    """Multiplication-table payload for Z/n, elements named "e", "1", "2", ...

    ``swap=(r, c)`` (n even, r and c non-zero and below n/2) exchanges one 2x2
    intercalate: columns c and c + n/2 trade places in rows r and r + n/2. The
    result is still a Latin square with a neutral identity, and it is not
    associative.
    """
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if swap is not None:
        r, c = swap
        for row in (table[r], table[r + n // 2]):
            row[c], row[c + n // 2] = row[c + n // 2], row[c]
    return {"elements": ["e"] + [str(i) for i in range(1, n)], "identity": "e", "table": table}


def reduced_latin_squares(n: int):
    """Every n x n Latin square on ``range(n)`` whose first row and column are
    ``0..n-1`` (so 0 is a neutral identity), as lists of rows."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell: int):
        if cell == (n - 1) ** 2:
            yield [row[:] for row in table]
            return
        i, j = divmod(cell, n - 1)
        i, j = i + 1, j + 1
        for v in range(n):
            if v not in table[i][:j] and all(table[r][j] != v for r in range(i)):
                table[i][j] = v
                yield from fill(cell + 1)
        table[i][j] = None

    yield from fill(0)


def chained_lines_algebra() -> MultiMatrixAlgebra:
    """Three one-dimensional blocks with inverse-weight traces 3(1 - 0.6e-9),
    3 and 3(1 + 0.6e-9): each neighbour lies within the default relative
    tolerance of 1e-9 of the next, while the two ends are 1.2e-9 apart."""
    traces = (3 * (1 - 0.6e-9), 3.0, 3 * (1 + 0.6e-9))
    return MultiMatrixAlgebra((1, 1, 1), tuple((1 / t,) for t in traces))


def dihedral_group_dict(n: int) -> dict:
    """Multiplication-table payload for the dihedral group of order ``2n``.

    Element ``(f, k)`` is the map ``i -> (-1)^f i + k`` on ``Z/n``, named
    ``r<k>`` (a rotation) or ``t<k>`` (a reflection), with ``r0`` named "e";
    composition applies the right factor first.
    """
    elements = [(f, k) for f in (0, 1) for k in range(n)]
    names = ["e" if (f, k) == (0, 0) else f"{'rt'[f]}{k}" for f, k in elements]
    index = {x: i for i, x in enumerate(elements)}

    def compose(a, b):
        (fa, ka), (fb, kb) = a, b
        return ((fa + fb) % 2, (ka + (-1) ** fa * kb) % n)

    table = [[index[compose(a, b)] for b in elements] for a in elements]
    return {"elements": names, "identity": "e", "table": table}


def concat(x: Word, y: Word) -> Word:
    """The letters of ``x`` followed by those of ``y``."""
    if x.group != y.group:
        raise DomainError("words belong to different groups")
    return Word(x.group, x.letters + y.letters)


def fuse_words(x: Word, y: Word) -> Word:
    """Merge the last letter of ``x`` into the first of ``y`` by group
    multiplication; both words must be nonempty."""
    if x.group != y.group:
        raise DomainError("words belong to different groups")
    if not x.letters or not y.letters:
        raise DomainError("fusion needs two nonempty words")
    merged = x.group.mul(x.letters[-1], y.letters[0])
    return Word(x.group, x.letters[:-1] + (merged,) + y.letters[1:])


def fusion_product_by_definition(x: Word, y: Word) -> Counter:
    """The fusion product tried at every cut, from validated words.

    Cut ``c`` contributes when the involution of the last ``c`` letters of
    ``x`` is the first ``c`` letters of ``y``: the concatenation of the
    remainders, and their fusion when both are nonempty.
    """
    group = x.group
    out: Counter = Counter()
    for cut in range(min(len(x), len(y)) + 1):
        suffix = Word(group, x.letters[len(x) - cut :])
        if involution(suffix).letters != y.letters[:cut]:
            continue
        u = Word(group, x.letters[: len(x) - cut])
        v = Word(group, y.letters[cut:])
        out[concat(u, v)] += 1
        if u.letters and v.letters:
            out[fuse_words(u, v)] += 1
    return out


def word_dimension_from_the_right(group, letters, n: int) -> int:
    """Dimension of a word over a finite group, evaluated right to left.

    Fusing one letter into a word from the left gives
    ``dim(g) dim(s S) = dim(g s S) + dim((g s) S) + [g s = e] dim(S)``, so
    ``level[h]`` holds the dimension of the current suffix with its first
    letter replaced by ``h``, for every group element ``h``, and the suffix
    grows one letter at a time.
    """
    elements = list(group.elements())
    identity = group.identity()

    def single(h) -> int:
        return n - (1 if h == identity else 0)

    if not letters:
        return 1
    after = 1  # dim of the suffix after the next letter
    level = {h: single(h) for h in elements}
    for j in range(len(letters) - 2, -1, -1):
        nxt = letters[j + 1]
        shorter = level[nxt]  # dim of letters[j+1:]
        level = {
            h: single(h) * shorter
            - level[group.mul(h, nxt)]
            - (after if group.mul(h, nxt) == identity else 0)
            for h in elements
        }
        after = shorter
    return level[letters[0]]


def free_product_fusion_recursive(w1, w2) -> Counter:
    """Fusion of two alternating words by the recursive definition.

    Distinct boundary factors concatenate; equal boundary factors fuse their
    boundary labels inside that factor, splicing each nontrivial result and
    recursing on the truncations weighted by the trivial multiplicity. The
    recursion is one level per cancelled pair, so keep inputs short.
    """
    if not w1.entries:
        return Counter({w2: 1})
    if not w2.entries:
        return Counter({w1: 1})
    (i, a), (j, b) = w1.entries[-1], w2.entries[0]
    if i != j:
        return Counter({AlternatingWord(w1.entries + w2.entries): 1})
    out: Counter = Counter()
    combination = fusion_product_by_definition(a, b)
    for label, mult in combination.items():
        if len(label):
            out[AlternatingWord(w1.entries[:-1] + ((i, label),) + w2.entries[1:])] += mult
    trivial_mult = combination[Word(a.group, ())]
    if trivial_mult:
        inner = free_product_fusion_recursive(
            AlternatingWord(w1.entries[:-1]),
            AlternatingWord(w2.entries[1:]),
        )
        for word, mult in inner.items():
            out[word] += trivial_mult * mult
    return out
