"""Noncrossing partitions decorated with group labels.

Every point of a diagram carries a group element; a decoration is admissible
when, within each block, the product of the upper labels (left to right)
equals the product of the lower labels (left to right), an absent side
counting as the identity. Admissible diagrams enumerate the intertwiner
spaces between tensor products of the basic representations ``a(g)``, so
counting them computes Hom-space dimensions.

Labels are checked once, when they enter (``is_admissible``, the enumeration,
``DecoratedPartition(...)`` and ``from_dict``). Counting scans the heads of
every diagram and builds none; listing wraps only the admissible heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .errors import ShapeError, ValidationError
from .groups import Group
from .partitions import DEFAULT_MAX_POINTS, Partition, _bounded_heads, _trusted

__all__ = [
    "DecoratedPartition",
    "is_admissible",
    "enumerate_decorated",
    "decorated_hom_dimension",
]


def _line(group: Group, upper: Sequence[Any], lower: Sequence[Any]) -> list:
    """The labels along the bent line: upper labels, then inverted lower
    labels from right to left."""
    return [*upper, *map(group.inv, reversed(lower))]


def _balanced(group: Group, heads: tuple[int, ...], line: Sequence[Any]) -> bool:
    """Whether every block's running product along the bent line (see
    :func:`_line`) is the identity, that is, whether its upper-label product
    equals its lower-label product; the labels are already checked."""
    mul, identity = group.mul, group.identity()
    stack: list[list] = []  # [head, running product] of each open block
    for pos, head in enumerate(heads):
        if head == pos:
            stack.append([head, line[pos]])
            continue
        top = stack[-1]
        while top[0] != head:  # every block opened after ``head`` is closed
            if top[1] != identity:
                return False
            stack.pop()
            top = stack[-1]
        top[1] = mul(top[1], line[pos])
    return all(product == identity for _, product in stack)


def is_admissible(
    group: Group,
    p: Partition,
    upper_labels: Sequence[Any],
    lower_labels: Sequence[Any],
) -> bool:
    """Whether each block's upper-label product equals its lower-label
    product; raises :class:`ShapeError` when label counts do not match the
    diagram rows."""
    if len(upper_labels) != p.upper:
        raise ShapeError(
            f"expected {p.upper} upper labels, got {len(upper_labels)}"
        )
    if len(lower_labels) != p.lower:
        raise ShapeError(
            f"expected {p.lower} lower labels, got {len(lower_labels)}"
        )
    for g in (*upper_labels, *lower_labels):
        group.check(g)
    return _balanced(group, p.heads, _line(group, upper_labels, lower_labels))


@dataclass(frozen=True)
class DecoratedPartition:
    """An admissibly labeled diagram; construction validates admissibility."""

    group: Group
    partition: Partition
    upper_labels: tuple
    lower_labels: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper_labels", tuple(self.upper_labels))
        object.__setattr__(self, "lower_labels", tuple(self.lower_labels))
        if not is_admissible(
            self.group, self.partition, self.upper_labels, self.lower_labels
        ):
            raise ValidationError(
                "decoration is not admissible: some block's upper and lower "
                "label products differ"
            )

    def to_dict(self) -> dict:
        data = self.partition.to_dict()
        data["upper_labels"] = [self.group.element_name(g) for g in self.upper_labels]
        data["lower_labels"] = [self.group.element_name(g) for g in self.lower_labels]
        return data

    def __str__(self) -> str:
        if not self.partition.blocks:
            return "(empty)"

        def tag(pt) -> str:
            labels = self.upper_labels if pt.side == "u" else self.lower_labels
            return f"{pt.token}={self.group.element_name(labels[pt.index - 1])}"

        return " | ".join(
            " ".join(tag(pt) for pt in block) for block in self.partition.blocks
        )

    @classmethod
    def from_dict(cls, group: Group, data: Any) -> "DecoratedPartition":
        if not isinstance(data, dict):
            raise ValidationError("decorated partition payload must be an object")
        rows = data.get("upper_labels"), data.get("lower_labels")
        if not all(isinstance(r, list) and all(isinstance(x, str) for x in r) for r in rows):
            raise ValidationError(
                "decorated partition payload needs 'upper_labels' and 'lower_labels'"
                " as lists of strings"
            )
        partition = Partition.from_dict(data)
        upper, lower = (tuple(map(group.parse_element, r)) for r in rows)
        return cls(group, partition, upper, lower)


def _decorated(group: Group, p: Partition, upper: tuple, lower: tuple) -> DecoratedPartition:
    """Wrap a diagram already admissible for its checked labels, with no checks."""
    d = object.__new__(DecoratedPartition)
    d.__dict__.update(group=group, partition=p, upper_labels=upper, lower_labels=lower)
    return d


def _admissible(group: Group, upper: tuple, lower: tuple, max_points: int, lists: bool) -> Iterator:
    """The heads of the diagrams admissible for checked labels, once the bounds hold."""
    line = _line(group, upper, lower)
    heads = _bounded_heads(len(upper), len(lower), max_points, lists)
    return (h for h in heads if _balanced(group, h, line))


def enumerate_decorated(
    group: Group,
    upper_labels: Sequence[Any],
    lower_labels: Sequence[Any],
    *,
    max_points: int = DEFAULT_MAX_POINTS,
) -> list[DecoratedPartition]:
    """All admissible diagrams with the given labels, in the order of the
    underlying partition enumeration."""
    upper_labels = tuple(group.check(g) for g in upper_labels)
    lower_labels = tuple(group.check(g) for g in lower_labels)
    k, l = len(upper_labels), len(lower_labels)
    return [
        _decorated(group, _trusted(k, l, h), upper_labels, lower_labels)
        for h in _admissible(group, upper_labels, lower_labels, max_points, True)
    ]


def decorated_hom_dimension(
    group: Group,
    upper_labels: Sequence[Any],
    lower_labels: Sequence[Any],
    *,
    max_points: int = DEFAULT_MAX_POINTS,
) -> int:
    """Dimension of the intertwiner space between the representation tensor
    products labeled by the rows (valid whenever the underlying algebra has
    dimension at least four)."""
    upper_labels = tuple(group.check(g) for g in upper_labels)
    lower_labels = tuple(group.check(g) for g in lower_labels)
    return sum(1 for _ in _admissible(group, upper_labels, lower_labels, max_points, False))
