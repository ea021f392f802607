"""Discrete group backends: cyclic groups, the integers, and finite groups
given by an explicit multiplication table.

Elements are plain hashable values (residues, integers, or table indices);
each backend knows how to validate, name, and parse them. Group objects are
immutable and compare structurally, so they can key caches and travel inside
word types. Each constructor checks all of its input by the JSON files' rules
(orders, indices and table entries are ``int``, never ``bool`` or ``float``;
names are strings), and :meth:`TableGroup.from_dict` only unpacks the lists.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Sequence

from .errors import DomainError, ValidationError, _integer

__all__ = [
    "Group",
    "CyclicGroup",
    "IntegerGroup",
    "TableGroup",
    "parse_group_spec",
    "parse_word_text",
]

#: Element names an error message lists before it cuts a table group short.
_NAMES_IN_ERRORS = 8


class Group(ABC):
    """Common interface over the three group backends."""

    @abstractmethod
    def identity(self) -> Any: ...

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def inv(self, a: Any) -> Any: ...

    @abstractmethod
    def check(self, a: Any) -> Any:
        """Return ``a`` if it denotes an element, else raise :class:`DomainError`."""

    @abstractmethod
    def element_name(self, a: Any) -> str: ...

    @abstractmethod
    def parse_element(self, text: str) -> Any: ...

    def elements(self) -> Sequence[Any]:
        raise DomainError(f"{self.describe()} is infinite; cannot list elements")

    @abstractmethod
    def describe(self) -> str: ...


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Z/order·Z with elements the residues ``0..order-1``.

    The identity prints as ``e`` and the generator as ``s`` (higher powers as
    ``s2``, ``s3``, ...); numeric strings are accepted on input and reduced.
    """

    order: int

    def __post_init__(self) -> None:
        _integer("cyclic group order", self.order, 1)

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.order

    def inv(self, a: int) -> int:
        return (-self.check(a)) % self.order

    def check(self, a: Any) -> int:
        if type(a) is not int or not 0 <= a < self.order:
            raise DomainError(f"{a!r} is not an element of {self.describe()}")
        return a

    def element_name(self, a: int) -> str:
        a = self.check(a)
        if a == 0:
            return "e"
        if a == 1:
            return "s"
        return f"s{a}"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text == "e":
            return 0
        if text == "s":
            return 1 % self.order
        if text.startswith("s") and text[1:].isdigit():
            return int(text[1:]) % self.order
        try:
            return int(text) % self.order
        except ValueError:
            raise ValidationError(
                f"cannot read {text!r} as an element of {self.describe()}"
            ) from None

    def elements(self) -> Sequence[int]:
        return range(self.order)

    def describe(self) -> str:
        return f"cyclic:{self.order}"


@dataclass(frozen=True)
class IntegerGroup(Group):
    """The additive group of integers."""

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.check(a) + self.check(b)

    def inv(self, a: int) -> int:
        return -self.check(a)

    def check(self, a: Any) -> int:
        if type(a) is not int:
            raise DomainError(f"{a!r} is not an integer")
        return a

    def element_name(self, a: int) -> str:
        return str(self.check(a))

    def parse_element(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError:
            raise ValidationError(f"cannot read {text!r} as an integer") from None

    def describe(self) -> str:
        return "integers"


@dataclass(frozen=True)
class TableGroup(Group):
    """A finite group presented by element names and a full multiplication
    table (``table[i][j]`` = index of ``elements[i] * elements[j]``)."""

    element_names: tuple[str, ...]
    identity_index: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        table = tuple(map(tuple, self.table))
        object.__setattr__(self, "table", table)
        n = len(self.element_names)
        if n == 0:
            raise ValidationError("group table needs at least one element")
        if any(type(name) is not str for name in self.element_names):
            raise ValidationError("group element names must be strings")
        if len(set(self.element_names)) != n:
            raise ValidationError("group element names must be distinct")
        if type(self.identity_index) is not int or not 0 <= self.identity_index < n:
            raise ValidationError("identity is not among the elements")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        for row in table:
            if set(map(type, row)) != {int}:
                entry = next(x for x in row if type(x) is not int)
                raise ValidationError(f"table entry {entry!r} is not an integer")
        indices = set(range(n))
        if any(set(line) != indices for line in (*table, *zip(*table))):
            raise ValidationError(f"table rows/columns must be permutations of 0..{n - 1}")
        e = self.identity_index
        if table[e] != tuple(range(n)) or tuple(row[e] for row in table) != table[e]:
            raise ValidationError("identity row/column is not neutral")
        self._check_associative()

    @classmethod
    def from_dict(cls, data: Any) -> "TableGroup":
        if not isinstance(data, dict) or not {"elements", "identity", "table"} <= data.keys():
            raise ValidationError("group table must be an object with elements, identity, table")
        names, identity, table = data["elements"], data["identity"], data["table"]
        if not (
            isinstance(names, list)
            and isinstance(table, list) and all(isinstance(row, list) for row in table)
        ):
            raise ValidationError(
                "group table needs 'elements' a list of strings, 'identity' a string "
                "and 'table' a list of lists"
            )
        if identity not in names:
            raise ValidationError(f"identity {identity!r} is not among the elements")
        return cls(tuple(names), names.index(identity), table)

    def _check_associative(self) -> None:
        """Light's test: the g with (x·g)·y = x·(g·y) for all x, y are closed
        under products, so checking generators suffices. Each is the smallest
        element outside the span (a subgroup) of those before, so the span at
        least doubles: at most ⌈log₂ n⌉ + 1 checks of n² products each."""
        names, table = self.element_names, self.table
        span, in_span, generators = [self.identity_index], {self.identity_index}, []
        for g in range(len(table)):
            if g in in_span:
                continue
            times_g_row = itemgetter(*table[g])  # row of x -> (x·(g·y) for each y)
            for x, row in enumerate(table):
                if times_g_row(row) != table[row[g]]:
                    y = next(y for y, z in enumerate(table[row[g]]) if z != row[table[g][y]])
                    raise ValidationError(
                        f"table is not associative at ({names[x]}, {names[g]}, {names[y]})"
                    )
            generators.append(g)
            for s in span:  # span grows while it is read: right-multiply to closure
                for h in generators:
                    if table[s][h] not in in_span:
                        in_span.add(table[s][h])
                        span.append(table[s][h])

    def to_dict(self) -> dict:
        return {
            "elements": list(self.element_names),
            "identity": self.element_names[self.identity_index],
            "table": [list(row) for row in self.table],
        }

    def identity(self) -> int:
        return self.identity_index

    def mul(self, a: int, b: int) -> int:
        return self.table[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        return self.table[self.check(a)].index(self.identity_index)

    def check(self, a: Any) -> int:
        if type(a) is not int or not 0 <= a < len(self.element_names):
            raise DomainError(f"{a!r} is not an element of {self._brief()}")
        return a

    def element_name(self, a: int) -> str:
        return self.element_names[self.check(a)]

    def parse_element(self, text: str) -> int:
        text = text.strip()
        try:
            return self.element_names.index(text)
        except ValueError:
            raise ValidationError(f"{text!r} is not an element of {self._brief()}") from None

    def elements(self) -> Sequence[int]:
        return range(len(self.element_names))

    def describe(self) -> str:
        return f"table group on {{{', '.join(self.element_names)}}}"

    def _brief(self) -> str:
        """:meth:`describe` for error text: past a few elements, the order
        and the first names only."""
        names = self.element_names
        if len(names) <= _NAMES_IN_ERRORS:
            return self.describe()
        shown = ", ".join(names[:_NAMES_IN_ERRORS])
        return f"table group of order {len(names)} on {{{shown}, ...}}"


def _load_json(path: str) -> Any:
    """The JSON document in the file at ``path``: :class:`OSError` if it cannot
    be read, :class:`ValidationError` naming ``path`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def parse_group_spec(text: str) -> Group:
    """Build a group from a spec string: ``cyclic:<s>``, ``integers``, or
    ``table:<path>`` (path to a JSON multiplication table)."""
    text = text.strip()
    if text == "integers":
        return IntegerGroup()
    if text.startswith("cyclic:"):
        try:
            order = int(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad cyclic group spec {text!r}") from None
        return CyclicGroup(order)
    if text.startswith("table:"):
        return TableGroup.from_dict(_load_json(text.split(":", 1)[1]))
    raise ValidationError(
        f"unknown group spec {text!r} (expected cyclic:<s>, integers, or table:<path>)"
    )


def parse_word_text(group: Group, text: str) -> tuple:
    """Parse a comma-separated word such as ``"s,e,s"``; ``""`` is the empty word."""
    text = text.strip()
    if not text:
        return ()
    return tuple(group.parse_element(tok) for tok in text.split(","))
