"""Linear maps attached to noncrossing diagrams over a multimatrix algebra.

A diagram ``p`` in ``NC(k, l)`` induces a map from the k-th to the l-th tensor
power of the algebra. In the normalized matrix-unit basis its entries factor
over the blocks of ``p``: each block contributes the state applied to
(product of its lower basis vectors)* times (product of its upper basis
vectors), empty products meaning the algebra unit.

Matrices are real float64, rows indexed by lower multi-indices and columns
by upper multi-indices, both in row-major canonical order (block, then row,
then column within each tensor factor; first factor most significant).

The matrices are extremely sparse: a block's factor is non-zero only on
closed chains inside one matrix block of the algebra, ``sum(size ** legs)``
of them. A bounded cache holds, per algebra and block shape, the chain
table: the basis positions of every chain's legs and its coefficient.
:func:`build_map` turns each block's chains into flat matrix offsets and
takes the Cartesian product over the blocks (offsets added, coefficients
multiplied). A :class:`TensorMap` keeps only those non-zeros, in arrays it
owns; :meth:`TensorMap.dense` scatters them into a fresh dense matrix, and
:func:`map_matrix` checks that matrix's size before it builds anything.
Every size is predicted from the block shapes and passes the one cost check
of :mod:`ncwreath.errors` before anything of that size is allocated.

The headline identities, checked numerically by the test suite:

* tensor product of diagrams  ->  Kronecker product of matrices (exact);
* adjoint diagram             ->  transposed matrix (entries are real);
* composition of diagrams     ->  matrix product, up to the factor
  ``delta ** -cy(p, q)`` when the state is a delta-form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import MultiMatrixAlgebra
from .errors import DomainError, ShapeError, _check_cost
from .partitions import DEFAULT_MAX_POINTS, Partition, catalan, check_point_bound, compose

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "TensorMap",
    "build_map",
    "map_matrix",
    "verify_composition",
    "gram_rank",
    "hom_dimension",
]

#: Ceiling on the non-zeros of one map and the entries of its chain tables,
#: and on the entries of a dense matrix.
DEFAULT_MAX_ENTRIES = 1 << 24

#: Chain tables of at most this many leg entries stay cached. A map within
#: the dense bound over a two-by-two block needs at most 12 * 2**12; larger
#: tables are rebuilt on each use rather than held for the process's life.
_CACHED_TABLE_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=256)
def _block_entries(
    algebra: MultiMatrixAlgebra, n_upper: int, n_lower: int
) -> tuple[np.ndarray, np.ndarray]:
    """The non-zero coefficients of one block with the given numbers of
    upper and lower legs, as ``(legs, coefs)``.

    Non-zeros live on closed chains inside a single matrix block: consecutive
    legs share their inner matrix entry, and the state ties the two free ends
    of the upper chain to those of the lower chain. A chain is a closed walk
    through ``n_upper + n_lower`` row/column values, so a block of size ``s``
    holds ``s ** (n_upper + n_lower)`` of them. ``legs[t, c]`` is the basis
    position of leg ``t`` of chain ``c`` (lower legs left to right, then
    upper legs left to right) and ``coefs[c]`` its coefficient. Both arrays
    are read-only: they are shared by every map built from this shape.
    """
    u, d = n_upper, n_lower
    legs, coefs = [], []
    offset = 0
    for size, weights in zip(algebra.block_sizes, algebra.weights):
        q = np.array(weights)
        walk = np.indices((size,) * (u + d)).reshape(u + d, -1)
        # vertices of the upper chain (xs) and of the lower chain (ys)
        if u and d:
            xs = walk[: u + 1]
            ys = np.concatenate([walk[:1], walk[u + 1 :], walk[u : u + 1]])
        elif u:
            xs, ys = np.concatenate([walk, walk[:1]]), walk[:1]
        else:
            xs, ys = walk[:1], np.concatenate([walk, walk[:1]])
        rows = np.concatenate([ys[:-1], xs[:-1]])
        cols = np.concatenate([ys[1:], xs[1:]])
        legs.append(offset + rows * size + cols)
        # upper chain, lower chain, then the state on their shared end
        scale = q[cols] ** -0.5
        up, down = np.prod(scale[d:], axis=0), np.prod(scale[:d], axis=0)
        coefs.append(up * down * q[cols[-1]])
        offset += size * size
    legs, coefs = np.concatenate(legs, axis=1), np.concatenate(coefs)
    legs.flags.writeable = False
    coefs.flags.writeable = False
    return legs, coefs


@dataclass(eq=False)
class TensorMap:
    """The matrix of one diagram over one algebra, kept as its non-zeros:
    ``values[i]`` sits at row-major offset ``flat[i]`` of a ``shape`` matrix.
    """

    algebra: MultiMatrixAlgebra
    partition: Partition
    shape: tuple[int, int]
    flat: np.ndarray
    values: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix under the default bound; see :meth:`dense`."""
        return self.dense()

    def dense(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> np.ndarray:
        """The dense matrix, built afresh on every call. Raises
        :class:`BoundError` when it would hold more than ``max_entries`` entries."""
        rows, cols = self.shape
        _check_cost("dense matrix", rows, cols, "entries", max_entries)
        out = np.zeros(rows * cols)
        out[self.flat] = self.values
        return out.reshape(rows, cols)


@functools.lru_cache(maxsize=1024)
def _chain_count(block_sizes: tuple[int, ...], legs: int) -> int:
    """Number of chains of a block with ``legs`` legs: ``sum(size ** legs)``."""
    return sum(size**legs for size in block_sizes)


def build_map(
    algebra: MultiMatrixAlgebra,
    p: Partition,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> TensorMap:
    """Assemble the non-zeros of ``p``'s matrix from the chains of its blocks.

    Each block contributes the flat offsets ``strides . legs`` of its chains
    and their coefficients; the map's non-zeros are the Cartesian product of
    these lists over the blocks (offsets added, coefficients multiplied).

    Raises :class:`BoundError` when the map would hold more than
    ``max_entries`` non-zeros, when one of its blocks would need a chain
    table (legs times chains) of more than ``max_entries`` entries, or when
    its flat offsets would not fit in int64. All three follow from the
    diagram's block shapes and are checked before any table is built.
    """
    n = algebra.dim
    k, l = p.upper, p.lower
    rows, cols = n**l, n**k
    _check_cost("int64 offsets of the matrix", rows, cols, "entries", 1 << 63)
    # Flat index strides: lower leg j (bent-line position k + l - j) is digit
    # j - 1 from the left, upper leg i (position i - 1) digit l + i - 1. Each
    # block, in canonical order, lists its lower legs, then its upper legs.
    heads = p.heads
    strides: dict[int, tuple[list, list]] = {h: ([], []) for h in heads}
    for pos in range(k + l - 1, -1, -1):
        if pos >= k:
            strides[heads[pos]][0].append(n**pos)
        else:
            strides[heads[pos]][1].insert(0, n ** (k - 1 - pos))
    # A block of L legs has _chain_count(L) chains and a table of L times as
    # many leg entries: every size is known before any table is built.
    count, tables = 1, []
    for downs, ups in strides.values():
        legs = len(downs) + len(ups)
        chains = _chain_count(algebra.block_sizes, legs)
        count *= chains
        tables.append((legs * chains, chains, legs))
    _check_cost("non-zeros of the map", count, 1, "entries", max_entries)
    _, chains, legs = max(tables, default=(0, 0, 0))
    _check_cost("largest chain table", chains, legs, "entries", max_entries)
    parts = []
    for (downs, ups), (size, _, _) in zip(strides.values(), tables):
        table = _block_entries if size <= _CACHED_TABLE_ENTRIES else _block_entries.__wrapped__
        legs, coefs = table(algebra, len(ups), len(downs))
        parts.append((np.array(downs + ups).dot(legs), coefs))
    # Each next block goes outermost: the inner loops run over the long
    # accumulated arrays, and coefficients multiply in block order, as in the
    # entry-wise definition. The map of the empty diagram is the matrix (1).
    flat, values = parts[0] if parts else (np.zeros(1, dtype=np.int64), np.ones(1))
    values = values.copy()  # a one-block map must not alias the cached table
    for offsets, coefs in parts[1:]:
        flat = (offsets[:, None] + flat).ravel()
        values = (coefs[:, None] * values).ravel()
    return TensorMap(algebra, p, (rows, cols), flat, values)


def map_matrix(
    algebra: MultiMatrixAlgebra, p: Partition, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> np.ndarray:
    """The dense matrix of ``p``'s map, its size checked before anything is
    built. That size bounds the build too, except a chain table of ``legs``
    entries over a one-dimensional algebra: the build runs under at least the
    default bound."""
    _check_cost("dense matrix", algebra.dim**p.lower, algebra.dim**p.upper, "entries", max_entries)
    built = build_map(algebra, p, max_entries=max(max_entries, DEFAULT_MAX_ENTRIES))
    return built.dense(max_entries)


def verify_composition(
    algebra: MultiMatrixAlgebra,
    p: Partition,
    q: Partition,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> float:
    """Max absolute deviation between the map of ``qp`` and the rescaled
    product ``delta**-cy * (map of q) @ (map of p)``; needs a delta-form state.
    """
    delta = algebra.is_delta_form()
    if delta is None:
        raise DomainError("composition rescaling needs a delta-form state")
    qp, _, cycles = compose(p, q)
    m_p, m_q, m_qp = (map_matrix(algebra, x, max_entries=max_entries) for x in (p, q, qp))
    product = (delta ** float(-cycles)) * (m_q @ m_p)
    return float(np.max(np.abs(m_qp - product)))


def gram_rank(maps: Sequence[TensorMap]) -> int:
    """Rank of the span of the given maps, via the Gram matrix of pairwise
    trace inner products, ranked by numpy's rule: eigenvalues up to the
    largest times the Gram's size times machine epsilon count as zero.

    Only the union of the maps' supports enters the Gram: the maps are
    stacked as rows over those offsets alone, so the stack is bounded by the
    maps' non-zeros, not by their dense shape.
    """
    if not maps:
        return 0
    first = maps[0]
    for t in maps[1:]:
        if t.shape != first.shape or t.algebra != first.algebra:
            raise ShapeError("gram_rank needs maps of one shape over one algebra")
    support, columns = np.unique(np.concatenate([t.flat for t in maps]), return_inverse=True)
    rows = np.repeat(np.arange(len(maps)), [len(t.flat) for t in maps])
    stacked = np.zeros((len(maps), len(support)))
    stacked[rows, columns] = np.concatenate([t.values for t in maps])
    return int(np.linalg.matrix_rank(stacked @ stacked.T, hermitian=True))


def hom_dimension(
    upper: int, lower: int, *, max_points: int = DEFAULT_MAX_POINTS
) -> int:
    """Number of diagrams in ``NC(upper, lower)`` — the dimension their maps
    span over any algebra of dimension at least four. Raises :class:`ValidationError`
    unless the rows and ``max_points`` are non-negative ``int``s, and :class:`BoundError`
    past ``max_points`` points."""
    check_point_bound(upper, lower, max_points)
    return catalan(upper + lower)
