"""Exception types shared across the package.

Every error raised on purpose by this library derives from :class:`NcwreathError`,
so callers (including the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations

import math

__all__ = [
    "NcwreathError",
    "ValidationError",
    "ShapeError",
    "DomainError",
    "BoundError",
]


class NcwreathError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NcwreathError, ValueError):
    """Malformed input data: bad JSON payloads, non-partitions, crossing diagrams,
    invalid weights, broken group tables."""


class ShapeError(NcwreathError, ValueError):
    """Dimensions that must agree do not: composition row counts, label tuple
    lengths, mixed-shape map lists."""


class DomainError(NcwreathError, ValueError):
    """Arguments outside an operation's mathematical domain: mixing elements of
    different groups, fusing an empty word, dimensions below the positivity
    threshold, non-delta-form states where one is required."""


class BoundError(NcwreathError):
    """A configured resource bound (point count, matrix size) would be exceeded."""


def _number(x: int | float) -> str:
    """``x`` with its digits grouped, or its order of magnitude past 40
    digits. A float ``x`` is the log10 of a count too large to form."""
    if isinstance(x, int) and x < 10**40:
        return f"{x:,}"
    return f"about 10^{int(x if isinstance(x, float) else math.log10(x))}"


def _integer(name: str, value: int, minimum: int = 0) -> int:
    """The one rule for a size, count or bound: ``value`` if it is an exact
    ``int`` (never ``bool`` or ``float``) of at least ``minimum``, else
    :class:`ValidationError` naming ``name``."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_cost(name: str, count: int | float, size: int | float, unit: str, bound: int) -> None:
    """The one resource check: raise :class:`BoundError` when ``count`` items
    of ``size`` ``unit`` each, predicted from an input's shape, exceed
    ``bound`` ``unit``. The ``bound`` (a caller's ``max_<unit>``) is always an
    exact ``int`` under :func:`_integer`; a float ``count`` (and a float
    ``size`` beside it) is only the package's log10 estimate of a number too
    large to form. Only then is the message formed: ``<name>: <count> ×
    <size> <unit> = <total> <unit>, over the bound of <bound> <unit>``, or
    ``<name>: <count> <unit>, ...`` when ``size`` is 1."""
    _integer(f"max_{unit}", bound)
    estimate = isinstance(count, float)
    log_size = size if isinstance(size, float) else math.log10(size) if estimate else 0
    total = count + log_size if estimate else count * size
    if total > (math.log10(max(bound, 1)) if estimate else bound):
        times = "" if size == 1 else f" × {_number(size)} {unit} = {_number(total)}"
        over = f"over the bound of {_number(bound)} {unit}"
        raise BoundError(f"{name}: {_number(count)}{times} {unit}, {over}")
