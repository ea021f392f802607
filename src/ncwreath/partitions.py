"""Noncrossing two-row partition diagrams and their operations.

A diagram in ``NC(k, l)`` partitions ``k`` upper points ``u1..uk`` and ``l``
lower points ``l1..ll`` into blocks such that, after placing the points on a
line — upper row left to right, then the lower row bent around the right edge
(i.e. in reversed order ``ll .. l1``) — no two blocks interleave.

The module provides enumeration, the three diagram operations (tensor,
composition, adjoint), and the combinatorial bookkeeping attached to
composition: the count of removed central blocks and the cycle exponent

    cy(p, q) = l + b(qp) + cb(p, q) - b(p) - b(q)

where ``l`` is the number of identified middle points and ``b`` counts blocks.

Diagrams are validated at the edge and trusted inside. Input from outside —
the public :class:`Partition` constructor and :meth:`Partition.from_dict` —
passes one validator that checks the point cover and the noncrossing
property and puts the blocks in canonical order. Enumeration, composition,
tensor, adjoint and the identity produce diagrams that are noncrossing by
construction; they order their blocks canonically themselves and wrap them
without re-checking.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import BoundError, ShapeError, ValidationError

__all__ = [
    "DEFAULT_MAX_POINTS",
    "Point",
    "Partition",
    "CompositionResult",
    "parse_point",
    "is_noncrossing",
    "check_point_bound",
    "enumerate_partitions",
    "identity_partition",
    "tensor",
    "compose",
    "adjoint",
    "catalan",
]

#: Soft ceiling on ``k + l`` for enumeration; keeps accidental requests from
#: materializing Catalan-many diagrams beyond desk scale.
DEFAULT_MAX_POINTS = 16

_SIDES = ("u", "l")


class Point(NamedTuple):
    """A single diagram point: ``side`` is ``"u"`` or ``"l"``, ``index`` is 1-based."""

    side: str
    index: int

    @property
    def token(self) -> str:
        return f"{self.side}{self.index}"


def parse_point(token: str) -> Point:
    """Parse a point token such as ``"u3"`` or ``"l12"``."""
    if not isinstance(token, str) or len(token) < 2 or token[0] not in _SIDES:
        raise ValidationError(f"bad point token {token!r}")
    try:
        index = int(token[1:])
    except ValueError:
        raise ValidationError(f"bad point token {token!r}") from None
    if index < 1:
        raise ValidationError(f"point index must be >= 1, got {token!r}")
    return Point(token[0], index)


def _point_key(point: Point) -> tuple[int, int]:
    return (0 if point.side == "u" else 1, point.index)


def _canonical_blocks(
    blocks: Iterable[Iterable[Point]], upper: int, lower: int
) -> tuple[tuple[Point, ...], ...] | None:
    """The one validator for outside input.

    Raises :class:`ValidationError` unless ``blocks`` partition exactly the
    points of ``NC(upper, lower)``. Returns the blocks in canonical order, or
    ``None`` when two of them cross under the bent-line order.
    """
    total = upper + lower
    owner = [-1] * total  # block number at each bent-line position
    mat = []
    for b, raw in enumerate(blocks):
        block = tuple(Point(*pt) for pt in raw)
        if not block:
            raise ValidationError("empty block")
        for pt in block:
            if pt.side not in _SIDES:
                raise ValidationError(f"bad point side {pt.side!r}")
            bound = upper if pt.side == "u" else lower
            if not 1 <= pt.index <= bound:
                raise ValidationError(f"point {pt.token} out of range for NC({upper},{lower})")
            pos = pt.index - 1 if pt.side == "u" else total - pt.index
            if owner[pos] >= 0:
                raise ValidationError(f"point {pt.token} appears twice")
            owner[pos] = b
        mat.append(block)
    covered = len(owner) - owner.count(-1)
    if covered != total:
        raise ValidationError(f"blocks cover {covered} points, expected {total}")
    # Stack test along the bent line: a block may only continue while it is
    # the innermost open one. Blocks open in canonical order.
    last = [0] * len(mat)
    for pos, b in enumerate(owner):
        last[b] = pos
    opened = [False] * len(mat)
    stack: list[int] = []
    order: list[int] = []
    for pos, b in enumerate(owner):
        if not opened[b]:
            opened[b] = True
            stack.append(b)
            order.append(b)
        elif stack[-1] != b:
            return None
        if pos == last[b]:
            stack.pop()
    return tuple(tuple(sorted(mat[b], key=_point_key)) for b in order)


def is_noncrossing(blocks: Iterable[Iterable[Point]], upper: int, lower: int) -> bool:
    """Whether ``blocks`` (a partition of the points of ``NC(upper, lower)``)
    is noncrossing under the bent-line order.

    Raises :class:`ValidationError` if the blocks do not form a partition of
    exactly the declared point set.
    """
    return _canonical_blocks(blocks, upper, lower) is not None


@dataclass(frozen=True, slots=True)
class Partition:
    """An element of ``NC(upper, lower)`` in canonical form.

    Blocks are stored sorted by their minimal point in the bent-line order;
    within a block, upper points come first (by index), then lower points (by
    index). The public constructor (and :meth:`from_dict`) validates the
    partition structure and the noncrossing property and canonicalizes the
    blocks. The diagram operations of this module build their results through
    an unchecked path instead, because those results are diagrams in
    canonical form by construction.
    """

    upper: int
    lower: int
    blocks: tuple[tuple[Point, ...], ...]

    def __post_init__(self) -> None:
        if self.upper < 0 or self.lower < 0:
            raise ValidationError("row sizes must be nonnegative")
        canonical = _canonical_blocks(self.blocks, self.upper, self.lower)
        if canonical is None:
            raise ValidationError("blocks cross under the bent-line order")
        object.__setattr__(self, "blocks", canonical)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def points(self) -> int:
        return self.upper + self.lower

    def to_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "blocks": [[pt.token for pt in block] for block in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Partition":
        if not isinstance(data, dict):
            raise ValidationError("partition payload must be an object")
        try:
            upper = int(data["upper"])
            lower = int(data["lower"])
            raw_blocks = data["blocks"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"partition payload missing fields: {exc}") from None
        if not isinstance(raw_blocks, list):
            raise ValidationError("blocks must be a list of lists of point tokens")
        blocks = []
        for raw in raw_blocks:
            if not isinstance(raw, list):
                raise ValidationError("blocks must be a list of lists of point tokens")
            blocks.append(tuple(parse_point(tok) for tok in raw))
        return cls(upper, lower, tuple(blocks))

    def __str__(self) -> str:
        if not self.blocks:
            return "(empty)"
        return " | ".join(" ".join(pt.token for pt in block) for block in self.blocks)


def _trusted(upper: int, lower: int, blocks: tuple[tuple[Point, ...], ...]) -> Partition:
    """Wrap blocks that already form a canonical diagram, with no checks."""
    p = object.__new__(Partition)
    object.__setattr__(p, "upper", upper)
    object.__setattr__(p, "lower", lower)
    object.__setattr__(p, "blocks", blocks)
    return p


class CompositionResult(NamedTuple):
    """Outcome of ``compose(p, q)``: the diagram ``qp``, the number of removed
    middle-only blocks, and the cycle exponent ``cy(p, q)``."""

    result: Partition
    central_blocks: int
    cycles: int


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    if n < 0:
        raise ValidationError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def check_point_bound(upper: int, lower: int, max_points: int) -> None:
    """Raise :class:`BoundError`, stating the predicted diagram count
    ``catalan(upper + lower)``, when ``upper + lower`` exceeds ``max_points``."""
    m = upper + lower
    if m <= max_points:
        return
    if m <= 40:
        count = f"{catalan(m):,}"
    else:  # the exact count would be a wall of digits (and slow to form)
        log10 = (math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - math.log(m + 1)) / math.log(10)
        count = f"about 10^{int(log10)}"
    raise BoundError(f"{m} points ({count} diagrams) exceeds the configured bound of {max_points}")


def _noncrossing_blocks(upper: int, lower: int) -> Iterator[tuple[tuple[Point, ...], ...]]:
    """Every noncrossing partition of the bent line of ``NC(upper, lower)``,
    as canonical blocks.

    On positions ``0 .. m-1`` the partitions come in lexicographic order of
    their blocks written as increasing position tuples. The block holding the
    first position ``lo`` of an interval is grown one position at a time
    (which visits the candidate blocks in lexicographic order); the gaps it
    closes and the rest of the interval after it are independent intervals,
    whose partitions are listed once per call and combined in product order.
    The points are built once and shared by every diagram.
    """
    at = [Point("u", i + 1) for i in range(upper)] + [
        Point("l", lower - j) for j in range(lower)
    ]
    memo: dict[tuple[int, int], list] = {}

    def listed(lo: int, hi: int) -> list:
        found = memo.get((lo, hi))
        if found is None:
            found = memo[lo, hi] = list(partitions(lo, hi))
        return found

    def grow(block: tuple[int, ...], inner: list, hi: int) -> Iterator:
        # Canonical point order: upper points ascending, then lower points
        # ascending, i.e. lower positions descending.
        pts = (
            tuple(at[p] for p in block if p < upper)
            + tuple(at[p] for p in reversed(block) if p >= upper),
        )
        last = block[-1]
        rest = listed(last + 1, hi)
        for head in inner:
            front = pts + head
            for tail in rest:
                yield front + tail
        for nxt in range(last + 1, hi):
            gap = listed(last + 1, nxt)
            yield from grow(block + (nxt,), [h + g for h in inner for g in gap], hi)

    def partitions(lo: int, hi: int) -> Iterator:
        if lo == hi:
            yield ()
        else:
            yield from grow((lo,), [()], hi)

    return partitions(0, upper + lower)


def enumerate_partitions(
    upper: int, lower: int, *, max_points: int = DEFAULT_MAX_POINTS
) -> list[Partition]:
    """Every element of ``NC(upper, lower)`` in a fixed canonical order.

    The count is the Catalan number of ``upper + lower``. Raises
    :class:`BoundError` when the point total exceeds ``max_points``.
    """
    if upper < 0 or lower < 0:
        raise ValidationError("row sizes must be nonnegative")
    check_point_bound(upper, lower, max_points)
    return [_trusted(upper, lower, blocks) for blocks in _noncrossing_blocks(upper, lower)]


def identity_partition(k: int) -> Partition:
    """The identity diagram of ``NC(k, k)``: each ``u_i`` paired with ``l_i``."""
    if k < 0:
        raise ValidationError("row sizes must be nonnegative")
    return _trusted(k, k, tuple((Point("u", i), Point("l", i)) for i in range(1, k + 1)))


def tensor(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: ``q``'s points are shifted past ``p``'s."""
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
    blocks = p.blocks[:split] + shifted + p.blocks[split:]
    return _trusted(p.upper + q.upper, p.lower + q.lower, blocks)


def adjoint(p: Partition) -> Partition:
    """Reflection across the horizontal axis: rows swap, indices keep."""
    upper, total = p.lower, p.upper + p.lower
    flipped = []
    for block in p.blocks:
        flipped.append(
            tuple(Point("u", index) for side, index in block if side == "l")
            + tuple(Point("l", index) for side, index in block if side == "u")
        )
    # Minimal bent-line position: the first upper point, else the largest
    # lower index (the lower row runs backwards).
    flipped.sort(key=lambda b: b[0].index - 1 if b[0].side == "u" else total - b[-1].index)
    return _trusted(upper, p.upper, tuple(flipped))


def compose(p: Partition, q: Partition) -> CompositionResult:
    """Stack ``q`` below ``p``, identifying ``p``'s lower row with ``q``'s
    upper row, and read off the resulting diagram ``qp``.

    Middle-only connected components vanish from the diagram; their count is
    returned alongside the cycle exponent ``cy(p, q)``.
    """
    if p.lower != q.upper:
        raise ShapeError(
            f"cannot compose: p has {p.lower} lower points, q has {q.upper} upper points"
        )
    k, w = p.upper, q.lower
    # Union-find over blocks: p's blocks are nodes 0..bp-1, q's follow; the
    # middle point t joins p's block holding l_t to q's block holding u_t.
    bp = len(p.blocks)
    parent = list(range(bp + len(q.blocks)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    # A block lists its upper points, then its lower points, so each block
    # splits into an upper and a lower part by slicing.
    above = [0] * p.lower  # p's block at each middle point
    tops = []  # (node, upper part) of p's blocks that reach the upper row
    for b, block in enumerate(p.blocks):
        n = 0
        for side, index in block:
            if side == "u":
                n += 1
            else:
                above[index - 1] = b
        if n:
            tops.append((b, block[:n]))
    bottoms = []  # (node, lower part) of q's blocks that reach the lower row
    for b, block in enumerate(q.blocks, bp):
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
    result = _trusted(k, w, blocks[:with_upper] + tuple(lower_only))
    cycles = p.lower + len(blocks) + central - bp - len(q.blocks)
    return CompositionResult(result, central, cycles)
