"""Discrete group backends: cyclic groups, the integers, and finite groups
given by an explicit multiplication table.

Elements are plain hashable values (residues, integers, or table indices);
each backend knows how to validate, name, and parse them. Group objects are
immutable and compare structurally, so they can key caches and travel inside
word types.
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import DomainError, ValidationError

__all__ = [
    "Group",
    "CyclicGroup",
    "IntegerGroup",
    "TableGroup",
    "parse_group_spec",
    "parse_word_text",
]


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
        if self.order < 1:
            raise ValidationError("cyclic group order must be >= 1")

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.order

    def inv(self, a: int) -> int:
        return (-self.check(a)) % self.order

    def check(self, a: Any) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
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
        if not isinstance(a, int) or isinstance(a, bool):
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


_ASSOCIATIVITY_FULL_CHECK_MAX = 24
_ASSOCIATIVITY_SAMPLES = 2000


@dataclass(frozen=True)
class TableGroup(Group):
    """A finite group presented by element names and a full multiplication
    table (``table[i][j]`` = index of ``elements[i] * elements[j]``)."""

    element_names: tuple[str, ...]
    identity_index: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        names, table = self.element_names, self.table
        n = len(names)
        if n == 0:
            raise ValidationError("group table needs at least one element")
        if len(set(names)) != n:
            raise ValidationError("group element names must be distinct")
        if isinstance(self.identity_index, bool) or not 0 <= self.identity_index < n:
            raise ValidationError("identity is not among the elements")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        for row in table:
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry < n:
                    raise ValidationError(f"table entry {entry!r} out of range")
        e = self.identity_index
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                raise ValidationError("identity row/column is not neutral")
            if sorted(table[i]) != list(range(n)) or sorted(
                row[i] for row in table
            ) != list(range(n)):
                raise ValidationError("table rows/columns must be permutations")
            if e not in table[i]:
                raise ValidationError("some element has no inverse")
        if n <= _ASSOCIATIVITY_FULL_CHECK_MAX:
            triples = (
                (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            )
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_ASSOCIATIVITY_SAMPLES)
            )
        for a, b, c in triples:
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise ValidationError(
                    f"table is not associative at "
                    f"({names[a]}, {names[b]}, {names[c]})"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "TableGroup":
        if not isinstance(data, dict):
            raise ValidationError("group table payload must be an object")
        try:
            names = tuple(str(x) for x in data["elements"])
            identity = str(data["identity"])
            table = tuple(tuple(row) for row in data["table"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"group table payload missing fields: {exc}") from None
        if identity not in names:
            raise ValidationError(f"identity {identity!r} is not among the elements")
        return cls(names, names.index(identity), table)

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
        if (
            not isinstance(a, int)
            or isinstance(a, bool)
            or not 0 <= a < len(self.element_names)
        ):
            raise DomainError(f"{a!r} is not an element of {self.describe()}")
        return a

    def element_name(self, a: int) -> str:
        return self.element_names[self.check(a)]

    def parse_element(self, text: str) -> int:
        text = text.strip()
        try:
            return self.element_names.index(text)
        except ValueError:
            raise ValidationError(
                f"{text!r} is not an element of {self.describe()}"
            ) from None

    def elements(self) -> Sequence[int]:
        return range(len(self.element_names))

    def describe(self) -> str:
        return f"table group on {{{', '.join(self.element_names)}}}"


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
        path = text.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"group table {path}: {exc}") from None
        return TableGroup.from_dict(data)
    raise ValidationError(
        f"unknown group spec {text!r} (expected cyclic:<s>, integers, or table:<path>)"
    )


def parse_word_text(group: Group, text: str) -> tuple:
    """Parse a comma-separated word such as ``"s,e,s"``; ``""`` is the empty word."""
    text = text.strip()
    if not text:
        return ()
    return tuple(group.parse_element(tok) for tok in text.split(","))
