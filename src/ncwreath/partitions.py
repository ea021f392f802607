"""Noncrossing two-row partition diagrams and their operations.

A diagram in ``NC(k, l)`` partitions ``k`` upper points ``u1..uk`` and ``l``
lower points ``l1..ll`` into blocks such that, after placing the points on a
line — upper row left to right, then the lower row bent around the right edge
(i.e. in reversed order ``ll .. l1``) — no two blocks interleave. The points
take the bent-line positions ``0 .. k+l-1`` in that order.

A diagram is stored as its *heads*: for each bent-line position, the position
of the first point of its block. The identity of ``NC(2, 2)`` (``u1 l1 |
u2 l2``) has heads ``(0, 1, 1, 0)``. Heads are canonical, so equality and
hashing are one tuple operation, and they name blocks by absolute positions,
so the heads of adjacent intervals concatenate. The ``blocks`` view lists the
points in *canonical order*: blocks by their first bent-line position, and
within a block the upper points by index, then the lower points by index.

The module provides enumeration, the three diagram operations (tensor,
composition, adjoint), and the combinatorial bookkeeping attached to
composition: the count of removed central blocks and the cycle exponent

    cy(p, q) = l + b(qp) + cb(p, q) - b(p) - b(q)

where ``l`` is the number of identified middle points and ``b`` counts blocks.

Diagrams are validated at the edge and trusted inside. The public
:class:`Partition` constructor checks the row sizes (``int``), the point cover
and the noncrossing property and computes the heads; :meth:`Partition.from_dict`
only unpacks JSON points. Enumeration and the operations compute the heads of
noncrossing diagrams directly and wrap them without re-checking.

Every enumeration passes the one cost check of :mod:`ncwreath.errors` first:
for its point count, and for the bytes of its memo and of any list in memory.

Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import ShapeError, ValidationError, _check_cost, _integer, _number

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


def _first_appearance(keys: Iterable) -> tuple[int, ...]:
    """Heads of the positions whose blocks are named by ``keys``: each key
    becomes the position where it first appears."""
    first: dict = {}
    return tuple(first.setdefault(key, pos) for pos, key in enumerate(keys))


def _heads(blocks: Iterable[Iterable[Point]], upper: int, lower: int) -> tuple[int, ...] | None:
    """The one validator for outside input.

    Raises :class:`ValidationError` unless ``blocks`` partition exactly the
    points of ``NC(upper, lower)``. Returns the heads, or ``None`` when two
    blocks cross under the bent-line order.
    """
    total = upper + lower
    owner = [-1] * total  # block number at each bent-line position
    for b, raw in enumerate(blocks):
        block = tuple(Point(*pt) for pt in raw)
        if not block:
            raise ValidationError("empty block")
        for pt in block:
            if pt.side not in _SIDES:
                raise ValidationError(f"bad point side {pt.side!r}")
            bound = upper if pt.side == "u" else lower
            if type(pt.index) is not int or not 1 <= pt.index <= bound:
                raise ValidationError(f"point {pt.token} out of range for NC({upper},{lower})")
            pos = pt.index - 1 if pt.side == "u" else total - pt.index
            if owner[pos] >= 0:
                raise ValidationError(f"point {pt.token} appears twice")
            owner[pos] = b
    covered = total - owner.count(-1)
    if covered != total:
        raise ValidationError(f"blocks cover {covered} points, expected {total}")
    heads = _first_appearance(owner)
    # Stack test along the bent line: a position may only join the innermost
    # open block, and joining a block closes every block opened after it.
    stack: list[int] = []
    for pos, head in enumerate(heads):
        if head == pos:
            stack.append(head)
            continue
        while stack and stack[-1] != head:
            stack.pop()
        if not stack:
            return None
    return heads


def is_noncrossing(blocks: Iterable[Iterable[Point]], upper: int, lower: int) -> bool:
    """Whether ``blocks`` (a partition of the points of ``NC(upper, lower)``)
    is noncrossing under the bent-line order.

    Raises :class:`ValidationError` if the blocks do not form a partition of
    exactly the declared point set.
    """
    return _heads(blocks, upper, lower) is not None


@functools.lru_cache(maxsize=64)
def _points(upper: int, lower: int) -> tuple[tuple[int, Point], ...]:
    """``(position, point)`` for the points of ``NC(upper, lower)``, upper
    points by index, then lower points by index."""
    total = upper + lower
    return tuple((i, Point("u", i + 1)) for i in range(upper)) + tuple(
        (total - j, Point("l", j)) for j in range(1, lower + 1)
    )


@functools.lru_cache(maxsize=64)
def _tokens(upper: int, lower: int) -> tuple[tuple[int, str], ...]:
    return tuple((pos, pt.token) for pos, pt in _points(upper, lower))


def _grouped(heads: tuple[int, ...], table: tuple) -> list[list]:
    """The items of a :func:`_points`-style table gathered by block, blocks in
    canonical order (a head first appears at its own position)."""
    groups: dict[int, list] = {h: [] for h in heads}
    for pos, item in table:
        groups[heads[pos]].append(item)
    return list(groups.values())


@dataclass(frozen=True, slots=True, init=False)
class Partition:
    """An element of ``NC(upper, lower)``, stored as its read-only ``heads``
    (see the module docstring).

    Equality and hashing cover ``upper``, ``lower`` and ``heads``: heads
    alone do not fix the shape (``{u1}{l1}`` in ``NC(1,1)`` and ``{u1}{u2}``
    in ``NC(2,0)`` both have heads ``(0, 1)``). ``Partition(upper, lower,
    blocks)`` and :meth:`from_dict` validate blocks of points, given in any
    order; :attr:`blocks` lists them in canonical order.
    """

    upper: int
    lower: int
    heads: tuple[int, ...]

    def __init__(self, upper: int, lower: int, blocks: Iterable[Iterable[Point]]) -> None:
        heads = _heads(blocks, _integer("'upper'", upper), _integer("'lower'", lower))
        if heads is None:
            raise ValidationError("blocks cross under the bent-line order")
        _set_upper(self, upper)
        _set_lower(self, lower)
        _set_heads(self, heads)

    @property
    def blocks(self) -> tuple[tuple[Point, ...], ...]:
        return tuple(map(tuple, _grouped(self.heads, _points(self.upper, self.lower))))

    @property
    def block_count(self) -> int:
        return len(set(self.heads))

    def to_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "blocks": _grouped(self.heads, _tokens(self.upper, self.lower)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Partition":
        if not isinstance(data, dict):
            raise ValidationError("partition payload must be an object")
        try:
            upper, lower, raw_blocks = data["upper"], data["lower"], data["blocks"]
        except KeyError as exc:
            raise ValidationError(f"partition payload missing fields: {exc}") from None
        if not isinstance(raw_blocks, list) or not all(isinstance(raw, list) for raw in raw_blocks):
            raise ValidationError("blocks must be a list of lists of point tokens")
        return cls(upper, lower, [tuple(map(parse_point, raw)) for raw in raw_blocks])

    def __str__(self) -> str:
        blocks = _grouped(self.heads, _tokens(self.upper, self.lower))
        return " | ".join(map(" ".join, blocks)) or "(empty)"


# The slots' own setters, which the frozen ``__setattr__`` does not guard.
_set_upper, _set_lower, _set_heads = (
    Partition.upper.__set__, Partition.lower.__set__, Partition.heads.__set__
)

#: A list of ``m``-point diagrams holds ``_DIAGRAM_BYTES + _SLOT_BYTES * m``
#: bytes a diagram (200 at 12 points on 64-bit CPython): the Partition, its
#: heads tuple and a list slot. The enumeration's memo adds 73 more at 12.
_SLOT_BYTES = sys.getsizeof((None,)) - sys.getsizeof(())
_DIAGRAM_BYTES = sys.getsizeof(object.__new__(Partition)) + sys.getsizeof(()) + _SLOT_BYTES

#: Bytes of physical memory, read once; where the platform does not report
#: it, ``sys.maxsize``, past what any process can address.
try:
    _MEMORY = max(os.sysconf("SC_PHYS_PAGES"), 0) * os.sysconf("SC_PAGE_SIZE") or sys.maxsize
except (AttributeError, ValueError, OSError):
    _MEMORY = sys.maxsize


def _trusted(upper: int, lower: int, heads: tuple[int, ...]) -> Partition:
    """Wrap the heads of a noncrossing diagram, with no checks."""
    p = object.__new__(Partition)
    _set_upper(p, upper)
    _set_lower(p, lower)
    _set_heads(p, heads)
    return p


class CompositionResult(NamedTuple):
    """Outcome of ``compose(p, q)``: the diagram ``qp``, the number of removed
    middle-only blocks, and the cycle exponent ``cy(p, q)``."""

    result: Partition
    central_blocks: int
    cycles: int


def catalan(n: int) -> int:
    """The n-th Catalan number. Raises :class:`ValidationError` unless ``n``
    is a non-negative ``int``."""
    return math.comb(2 * _integer("n", n), n) // (n + 1)


def _diagram_count(m: int) -> int | float:
    """``catalan(m)``, or past 40 points the log10 of its ``lgamma`` estimate:
    the exact number takes 36 s to form at a million points, and past a few
    billion points more memory than there is."""
    if m <= 40:
        return catalan(m)
    return (math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - math.log(m + 1)) / math.log(10)


def check_point_bound(upper: int, lower: int, max_points: int) -> int | float:
    """The :func:`_diagram_count` of ``NC(upper, lower)``. Raises :class:`ValidationError`
    unless the rows and ``max_points`` are non-negative ``int``s, and :class:`BoundError`,
    stating it, past ``max_points`` points."""
    m = _integer("upper", upper) + _integer("lower", lower)
    _integer("max_points", max_points)  # checked here: the cost check runs only on failure
    if m > max_points:  # the name is formed for the message only
        name = f"NC({upper}, {lower}) of {_number(_diagram_count(m))} diagrams"
        _check_cost(name, m, 1, "points", max_points)
    return _diagram_count(m)


def _noncrossing_heads(total: int) -> Iterator[tuple[int, ...]]:
    """The heads of every noncrossing partition of the positions
    ``0 .. total-1``.

    The partitions come in lexicographic order of their blocks written as
    increasing position tuples. The block holding the first position ``lo``
    of an interval is grown one position at a time (which visits the
    candidate blocks in lexicographic order); the gaps it closes and the rest
    of the interval after it are independent intervals, whose heads are
    listed once per call and concatenated in product order. For each ``n < total``
    that memo holds ``total - n`` intervals of ``catalan(n)`` tuples of ``n`` heads;
    the generator frees it when it ends or is dropped, as the closures form a cycle.
    """
    memo: dict[tuple[int, int], list] = {}

    def listed(lo: int, hi: int) -> list:
        found = memo.get((lo, hi))
        if found is None:
            found = memo[lo, hi] = list(partitions(lo, hi))
        return found

    def grow(lo: int, last: int, inner: list, hi: int) -> Iterator:
        # ``inner`` holds the heads of positions lo .. last, one entry per
        # way of filling the gaps of the block so far.
        rest = listed(last + 1, hi)
        for front in inner:
            for tail in rest:
                yield front + tail
        for nxt in range(last + 1, hi):
            gap = listed(last + 1, nxt)
            yield from grow(lo, nxt, [h + g + (lo,) for h in inner for g in gap], hi)

    def partitions(lo: int, hi: int) -> Iterator:
        if lo == hi:
            yield ()
        else:
            yield from grow(lo, lo, [(lo,)], hi)

    try:
        yield from partitions(0, total)
    finally:
        memo.clear()


def _bounded_heads(upper: int, lower: int, max_points: int, lists: bool) -> Iterator[tuple]:
    """The heads of ``NC(upper, lower)`` once the rows, the point count and the bytes the
    caller will hold are checked: the memo, and a list of every diagram when ``lists``."""
    count, m = check_point_bound(upper, lower, max_points), upper + lower
    lists |= isinstance(count, float)  # past 40 points only the list estimate, past any memory
    size = (_DIAGRAM_BYTES + _SLOT_BYTES * m) * lists
    if isinstance(count, int):  # with each diagram's share of the memo, rounded up
        memo = sum((m - n) * catalan(n) * (sys.getsizeof(()) + _SLOT_BYTES * (n + 1))
                   for n in range(m))
        size += -(-memo // count)
    name = f"{'list' if lists else 'enumeration memo'} of NC({upper}, {lower}) diagrams"
    _check_cost(name, count, size, "bytes", _MEMORY)
    return _noncrossing_heads(m)


def enumerate_partitions(
    upper: int, lower: int, *, max_points: int = DEFAULT_MAX_POINTS
) -> list[Partition]:
    """Every element of ``NC(upper, lower)`` in a fixed canonical order.

    The count is the Catalan number of ``upper + lower``. Raises
    :class:`BoundError` when the point total exceeds ``max_points``, or when
    the list and the enumeration's memo would exceed physical memory.
    """
    return [_trusted(upper, lower, h) for h in _bounded_heads(upper, lower, max_points, True)]


def identity_partition(k: int) -> Partition:
    """The identity diagram of ``NC(k, k)``: each ``u_i`` paired with ``l_i``."""
    _integer("k", k)
    return _trusted(k, k, tuple(range(k)) + tuple(reversed(range(k))))


def tensor(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: ``q``'s points are shifted past ``p``'s."""
    # On the joint bent line q's whole line sits between p's two rows, so p's
    # lower-only blocks move past q.
    k, n = p.upper, q.upper + q.lower
    heads = (
        p.heads[:k]
        + tuple(h + k for h in q.heads)
        + tuple(h + n if h >= k else h for h in p.heads[k:])
    )
    return _trusted(p.upper + q.upper, p.lower + q.lower, heads)


def adjoint(p: Partition) -> Partition:
    """Reflection across the horizontal axis: rows swap, indices keep."""
    # The reflected bent line is the original one read backwards.
    return _trusted(p.lower, p.upper, _first_appearance(p.heads[::-1]))


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
    k, l, w = p.upper, p.lower, q.lower
    # Union-find over the positions of both bent lines, q's after p's. A head
    # is the root of its block, so the heads are the initial forest.
    mid = k + l
    parent = [*p.heads, *(h + mid for h in q.heads)]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    # Middle point t is p's position mid - t and q's position t - 1.
    for t in range(1, l + 1):
        parent[find(mid - t)] = find(mid + t - 1)
    roots = sum(1 for a, b in enumerate(parent) if a == b)
    outer = itertools.chain(range(k), range(mid + l, mid + l + w))
    result = _trusted(k, w, _first_appearance(map(find, outer)))
    blocks = result.block_count
    central = roots - blocks
    cycles = l + blocks + central - p.block_count - q.block_count
    return CompositionResult(result, central, cycles)
