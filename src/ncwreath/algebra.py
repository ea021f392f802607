"""Finite-dimensional multimatrix algebras carrying a faithful state.

An algebra is a direct sum of full matrix blocks; the state is a weighted
trace with strictly positive diagonal weights summing to one. The key derived
quantity per block is the inverse-weight trace: the state is a delta-form —
the multiplication map composed with its adjoint is a scalar — exactly when
that trace takes the same value on every block. In floating point, one rule
groups the traces into classes; a delta-form has one class, and the coarsest
splitting into renormalizable delta-form factors has one factor per class.
The constructor checks sizes (``int``) and weights (``int`` or ``float``) by
the JSON files' rules, never ``bool``; :meth:`from_dict` only unpacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .errors import ValidationError, _integer

__all__ = [
    "BasisIndex",
    "MultiMatrixAlgebra",
    "DeltaFactor",
    "DEFAULT_TOLERANCE",
]

DEFAULT_TOLERANCE = 1e-9


class BasisIndex(NamedTuple):
    """Matrix-unit coordinates ``e^block_{row,col}``; all fields 1-based."""

    block: int
    row: int
    col: int


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """A direct sum of matrix blocks with a weighted-trace state.

    ``block_sizes[a]`` is the side length of block ``a+1``; ``weights[a]`` its
    diagonal state weights. Weights must be strictly positive and sum to one
    across the whole algebra.
    """

    block_sizes: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        sizes = tuple(_integer("block size", size, 1) for size in self.block_sizes)
        if not sizes:
            raise ValidationError("algebra needs at least one block")
        weights = tuple(map(_weight_row, self.weights))
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(sizes):
            raise ValidationError("one weight row per block required")
        for size, row in zip(sizes, weights):
            if len(row) != size:
                raise ValidationError(
                    f"weight row of length {len(row)} for a block of size {size}"
                )
            if any(not (x > 0.0) for x in row):
                raise ValidationError("state weights must be strictly positive")
        total = sum(x for row in weights for x in row)
        if abs(total - 1.0) > DEFAULT_TOLERANCE:
            raise ValidationError(f"state weights sum to {total}, expected 1")

    # -- structure ---------------------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)

    @property
    def dim(self) -> int:
        return sum(s * s for s in self.block_sizes)

    def basis_indices(self) -> list[BasisIndex]:
        """All matrix-unit coordinates in canonical order: block, row, column."""
        out = []
        for a, size in enumerate(self.block_sizes, start=1):
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    out.append(BasisIndex(a, i, j))
        return out

    def weight(self, block: int, row: int) -> float:
        return self.weights[block - 1][row - 1]

    # -- delta-form structure ------------------------------------------------

    def block_inverse_traces(self) -> tuple[float, ...]:
        """Per block, the trace of the inverted weight matrix."""
        return tuple(sum(1.0 / x for x in row) for row in self.weights)

    def is_delta_form(self, tolerance: float = DEFAULT_TOLERANCE) -> Optional[float]:
        """The mean inverse-weight trace if all blocks fall in one trace class
        (the state is a delta-form), else ``None``."""
        traces = self.block_inverse_traces()
        if len(_trace_classes(traces, tolerance)) > 1:
            return None
        return sum(traces) / len(traces)

    def block_mass(self, block: int) -> float:
        return sum(self.weights[block - 1])

    def decompose_by_delta(
        self, tolerance: float = DEFAULT_TOLERANCE
    ) -> list["DeltaFactor"]:
        """Coarsest splitting into delta-form factors, one per trace class.

        Each class's state is renormalized to mass one, which scales every
        member trace by the class mass and yields the factor's delta. Factors
        are returned sorted by delta. The classes depend only on the traces,
        so permuting blocks permutes factors.
        """
        traces = self.block_inverse_traces()
        factors = []
        for group in _trace_classes(traces, tolerance):
            group.sort()
            mass = sum(self.block_mass(a + 1) for a in group)
            sizes = tuple(self.block_sizes[a] for a in group)
            weights = tuple(
                tuple(x / mass for x in self.weights[a]) for a in group
            )
            sub = MultiMatrixAlgebra(sizes, weights)
            delta = sum(mass * traces[a] for a in group) / len(group)
            factors.append(DeltaFactor(sub, delta, tuple(a + 1 for a in group)))
        factors.sort(key=lambda f: (f.delta, f.block_indices))
        return factors

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "blocks": [
                {"size": s, "q": list(row)}
                for s, row in zip(self.block_sizes, self.weights)
            ]
        }

    @classmethod
    def from_dict(cls, data: Any) -> "MultiMatrixAlgebra":
        if not isinstance(data, dict) or "blocks" not in data:
            raise ValidationError("algebra payload must be an object with 'blocks'")
        blocks = data["blocks"]
        if not isinstance(blocks, list):
            raise ValidationError("'blocks' must be a list")
        sizes, weights = [], []
        for entry in blocks:
            if not isinstance(entry, dict) or "size" not in entry or "q" not in entry:
                raise ValidationError("each block needs 'size' and 'q'")
            sizes.append(entry["size"])
            weights.append(entry["q"])
        return cls(tuple(sizes), tuple(weights))


def _trace_classes(traces: tuple[float, ...], tolerance: float) -> list[list[int]]:
    """0-based block indices grouped by trace: sorted by trace, each block
    joins its predecessor's class when their traces lie within ``tolerance *
    max(1, trace)``. Chaining neighbours is the one rule under which the
    coarsest splitting into delta-form factors is unique."""
    order = sorted(range(len(traces)), key=traces.__getitem__)
    classes = [[order[0]]]
    for prev, a in zip(order, order[1:]):
        if traces[a] - traces[prev] <= tolerance * max(1.0, abs(traces[a])):
            classes[-1].append(a)
        else:
            classes.append([a])
    return classes


def _weight_row(q: Any) -> tuple[float, ...]:
    """A block's weights as floats: ``q`` must be a list or tuple of numbers
    (an ``int`` or a ``float``); booleans and strings are rejected."""
    if not isinstance(q, (list, tuple)):
        raise ValidationError(f"block weights must be a list of numbers, got {q!r}")
    for x in q:
        if type(x) is not int and not isinstance(x, float):
            raise ValidationError(f"block weight must be a number, got {x!r}")
    try:
        return tuple(float(x) for x in q)
    except OverflowError:
        raise ValidationError(f"block weight out of range in {q!r}") from None


class DeltaFactor(NamedTuple):
    """One factor of the delta-form decomposition: the renormalized algebra,
    its delta value, and the 1-based indices of the member blocks."""

    algebra: MultiMatrixAlgebra
    delta: float
    block_indices: tuple[int, ...]
