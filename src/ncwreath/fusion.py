"""The fusion ring of words over a discrete group.

Irreducible representations are indexed by finite words of group elements
(letters equal to the identity are significant and never reduced; the empty
word is the trivial representation). The tensor product of two words expands
by cancelling an involuted suffix of the first against a prefix of the
second, each cancellation contributing the plain concatenation and — when
both remainders are nonempty — their fusion, which multiplies the boundary
letters.

A dimension homomorphism evaluates words against the dimension ``n`` of the
underlying algebra, and a free-product layer fuses alternating words over
several factor rings, covering states that split into several delta-form
factors.

Letters are checked once, when they enter (``Word(...)`` and
``a_rep_trivial_multiplicity``); words built from them, inverses included, are not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError, ValidationError
from .groups import Group

__all__ = [
    "Word",
    "involution",
    "fusion_product",
    "dimension",
    "multiplicity_of_trivial",
    "a_rep_trivial_multiplicity",
    "WordRing",
    "AlternatingWord",
    "free_product_fusion",
    "sorted_combination",
]

MIN_FUSION_DIM = 4


@dataclass(frozen=True)
class Word:
    """A finite sequence of group elements labeling one irreducible."""

    group: Group
    letters: tuple

    def __post_init__(self) -> None:
        letters = tuple(self.group.check(g) for g in self.letters)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def names(self) -> list[str]:
        return [self.group.element_name(g) for g in self.letters]


def _word(group: Group, letters: tuple) -> Word:
    """Wrap letters that are already elements of ``group``, with no checks."""
    w = object.__new__(Word)
    w.__dict__.update(group=group, letters=letters)
    return w


def _same_group(x: Word, y: Word) -> Group:
    if x.group != y.group:
        raise DomainError("words belong to different groups")
    return x.group


def involution(x: Word) -> Word:
    """The word of inverted letters in reversed order (the conjugate label)."""
    return _word(x.group, tuple(x.group.inv(g) for g in reversed(x.letters)))


def fusion_product(x: Word, y: Word) -> Counter:
    """Decompose the tensor product of two word representations.

    Every suffix ``t`` of ``x`` whose involution is a prefix of ``y``
    contributes the concatenation of the remainders, plus their fusion when
    both remainders are nonempty; the returned counter maps words to
    multiplicities. The cancelling cuts form an initial run: cut ``c`` also
    needs ``x[-c] y[c-1] = e``, so the scan stops at the first cut that fails.
    """
    group = _same_group(x, y)
    a, b = x.letters, y.letters
    mul, identity = group.mul, group.identity()
    out: Counter = Counter()
    for cut in range(min(len(a), len(b)) + 1):
        if cut and mul(a[len(a) - cut], b[cut - 1]) != identity:
            break
        u, v = a[: len(a) - cut], b[cut:]
        out[_word(group, u + v)] += 1
        if u and v:
            out[_word(group, u[:-1] + (mul(u[-1], v[0]),) + v[1:])] += 1
    return out


def dimension(x: Word, n: int | Fraction) -> int | Fraction:
    """Exact dimension of the word representation over an algebra of dimension
    ``n``, an ``int`` or ``Fraction`` (never a ``float``) of at least 4, where
    it is strictly positive.

    ``dim`` is the ring homomorphism with ``dim(g) = n - [g = e]`` on one
    letter, so appending a letter ``g`` to a nonempty prefix ``P`` gives

        dim(P g) = dim(P) dim(g) - dim(P[:-1] (P[-1] g)) - [P[-1] g = e] dim(P[:-1]).

    By induction on the length of ``P`` this is ``dim(P g) = A - [g = e]
    dim(P)``, where ``A = n dim(P) - A'`` and ``A'`` is the same quantity one
    letter earlier (``A' = 0`` for the empty prefix): the middle term of the
    recurrence is ``A' - [P[-1] g = e] dim(P[:-1])`` and its indicator term
    cancels the last one. Only which letters are the identity matters, and
    one pass over the word gives the dimension.
    """
    if type(n) not in (int, Fraction):
        raise ValidationError(f"n must be an int or a Fraction, got {n!r}")
    if n < MIN_FUSION_DIM:
        raise DomainError(f"word dimensions need n >= {MIN_FUSION_DIM}, got {n}")
    identity = x.group.identity()
    value, base = 1, 0
    for g in x.letters:
        base = n * value - base
        value = base - value if g == identity else base
    return value


def multiplicity_of_trivial(x: Word, y: Word) -> int:
    """Multiplicity of the trivial representation in the product of two
    words: one exactly when ``y`` is the involution of ``x``."""
    _same_group(x, y)
    return 1 if y == involution(x) else 0


def a_rep_trivial_multiplicity(group: Group, letters: Sequence[Any]) -> int:
    """Multiplicity of the trivial representation in the tensor product of
    the basic representations of the given letters.

    Each basic representation splits as the word of its letter plus, for the
    identity letter, one copy of the trivial representation; the product is
    expanded left to right. Words too long to cancel down to the empty word
    within the remaining steps are dropped early.
    """
    letters = tuple(group.check(g) for g in letters)
    empty = _word(group, ())
    state: Counter = Counter({empty: 1})
    for step, g in enumerate(letters):
        remaining = len(letters) - step - 1
        single = _word(group, (g,))
        is_identity = g == group.identity()
        next_state: Counter = Counter()
        for word, mult in state.items():
            if is_identity:
                next_state[word] += mult
            for product, extra in fusion_product(word, single).items():
                if len(product) <= remaining:
                    next_state[product] += mult * extra
        state = next_state
    return state[empty]


@dataclass(frozen=True)
class WordRing:
    """The word fusion ring attached to one algebra factor of dimension
    ``dim`` (an ``int``): one factor of a free product, named by its group."""

    group: Group
    dim: int

    def __post_init__(self) -> None:
        if type(self.dim) is not int:
            raise ValidationError(f"factor ring dimension must be an integer, got {self.dim!r}")
        if self.dim < MIN_FUSION_DIM:
            raise DomainError(
                f"factor rings need dimension >= {MIN_FUSION_DIM}, got {self.dim}"
            )


@dataclass(frozen=True)
class AlternatingWord:
    """A reduced word of a free product: pairs (factor index, nontrivial
    label), each index an ``int`` and adjacent indices distinct."""

    entries: tuple

    def __post_init__(self) -> None:
        entries = tuple((i, label) for i, label in self.entries)
        object.__setattr__(self, "entries", entries)
        for i, label in entries:
            if type(i) is not int:
                raise ValidationError(f"factor index must be an integer, got {i!r}")
            if not len(label):
                raise ValidationError("alternating words carry nontrivial labels only")
        for (i, _), (j, _) in zip(entries, entries[1:]):
            if i == j:
                raise ValidationError(f"adjacent entries share factor {i}")

    def __len__(self) -> int:
        return len(self.entries)


def _check_alternating_word(
    rings: Sequence[WordRing], w: AlternatingWord
) -> None:
    for i, label in w.entries:
        if not 0 <= i < len(rings):
            raise DomainError(f"factor index {i} out of range")
        if label.group != rings[i].group:
            raise DomainError(
                f"label group does not match factor {i}'s ring"
            )


def free_product_fusion(
    rings: Sequence[WordRing], w1: AlternatingWord, w2: AlternatingWord
) -> Counter:
    """Fuse two alternating words over the given factor rings.

    Distinct boundary factors concatenate. Equal boundary factors fuse their
    boundary labels inside that factor: each nontrivial result is spliced in,
    and the trivial one cancels the pair, so the truncated words fuse next,
    weighted by the trivial multiplicities so far. The pairs are walked from
    the boundary outwards, and each spliced word is emitted once.
    """
    rings = list(rings)
    _check_alternating_word(rings, w1)
    _check_alternating_word(rings, w2)
    out: Counter = Counter()
    left, right, weight = w1.entries, w2.entries, 1
    while left and right and left[-1][0] == right[0][0]:
        (i, a), (_, b) = left[-1], right[0]
        combination = fusion_product(a, b)
        for label, mult in combination.items():
            if len(label):
                out[AlternatingWord(left[:-1] + ((i, label),) + right[1:])] += weight * mult
        weight *= combination[_word(a.group, ())]
        if not weight:
            return out
        left, right = left[:-1], right[1:]
    out[AlternatingWord(left + right)] += weight
    return out


def _word_sort_key(x: Word):
    return (len(x.letters), x.letters)


def sorted_combination(combination: Counter) -> list[tuple[Any, int]]:
    """Deterministic listing of a fusion result: words by length then letter
    order; alternating words by length then entry order."""

    def key(item):
        label = item[0]
        if isinstance(label, Word):
            return (0, _word_sort_key(label))
        return (
            1,
            (
                len(label.entries),
                tuple((i, _word_sort_key(w)) for i, w in label.entries),
            ),
        )

    return sorted(combination.items(), key=key)
