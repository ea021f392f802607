"""Tests for the word fusion ring and its free-product layer."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ncwreath.errors import DomainError, ValidationError
from ncwreath.groups import CyclicGroup, IntegerGroup, TableGroup
from ncwreath.fusion import (
    AlternatingWord,
    Word,
    WordRing,
    a_rep_trivial_multiplicity,
    dimension,
    free_product_fusion,
    fusion_product,
    involution,
    multiplicity_of_trivial,
    sorted_combination,
)
from ncwreath.partitions import catalan

from helpers import (
    concat,
    free_product_fusion_recursive,
    fuse_words,
    fusion_product_by_definition,
    symmetric_group_dict,
    word_dimension_from_the_right,
)

Z2 = CyclicGroup(2)
Z3 = CyclicGroup(3)
ZZ = IntegerGroup()
S3 = TableGroup.from_dict(symmetric_group_dict(3))


def W(group, *letters) -> Word:
    return Word(group, letters)


def random_word(rng, group, max_len=3) -> Word:
    elems = list(range(-2, 3)) if group == ZZ else list(group.elements())
    return Word(group, tuple(rng.choice(elems) for _ in range(rng.randint(0, max_len))))


class TestWordType:
    def test_letters_validated(self):
        with pytest.raises(DomainError):
            Word(Z2, (2,))

    def test_letters_coerced_to_tuple(self):
        assert Word(Z2, [1, 0]).letters == (1, 0)

    def test_length_and_names(self):
        w = W(Z2, 1, 0, 1)
        assert len(w) == 3
        assert w.names() == ["s", "e", "s"]

    def test_identity_letters_are_not_reduced(self):
        assert W(Z2, 0) != W(Z2)
        assert len(W(Z2, 0)) == 1


class TestInvolution:
    def test_empty(self):
        assert involution(W(Z2)) == W(Z2)

    def test_mod_three(self):
        assert involution(W(Z3, 1, 2)) == W(Z3, 1, 2)
        assert involution(W(Z3, 1, 1)) == W(Z3, 2, 2)

    def test_integers(self):
        assert involution(W(ZZ, 3, -1)) == W(ZZ, 1, -3)

    @pytest.mark.parametrize("group", [Z3, S3, ZZ])
    def test_is_an_involution(self, group):
        rng = random.Random(31)
        for _ in range(40):
            x = random_word(rng, group)
            assert involution(involution(x)) == x


class TestConcatAndFuse:
    def test_concat_unit(self):
        y = W(Z2, 1, 0)
        assert concat(W(Z2), y) == y
        assert concat(y, W(Z2)) == y

    def test_concat_cross_group_rejected(self):
        with pytest.raises(DomainError):
            concat(W(Z2, 1), W(Z3, 1))

    def test_fuse_merges_boundary(self):
        assert fuse_words(W(Z2, 1), W(Z2, 1)) == W(Z2, 0)
        assert fuse_words(W(Z2, 1, 1), W(Z2, 1)) == W(Z2, 1, 0)
        assert fuse_words(W(ZZ, 2, 3), W(ZZ, 4, 5)) == W(ZZ, 2, 7, 5)

    def test_fuse_never_returns_empty(self):
        got = fuse_words(W(Z2, 1), W(Z2, 1))
        assert len(got) == 1
        assert got != W(Z2)

    def test_fuse_empty_operand_rejected(self):
        with pytest.raises(DomainError):
            fuse_words(W(Z2), W(Z2, 1))
        with pytest.raises(DomainError):
            fuse_words(W(Z2, 1), W(Z2))


class TestFusionProduct:
    def test_unit_law(self):
        y = W(Z2, 1, 0)
        assert fusion_product(W(Z2), y) == Counter({y: 1})
        assert fusion_product(y, W(Z2)) == Counter({y: 1})

    def test_generator_square(self):
        got = fusion_product(W(Z2, 1), W(Z2, 1))
        assert got == Counter({W(Z2): 1, W(Z2, 0): 1, W(Z2, 1, 1): 1})

    def test_identity_letter_square(self):
        got = fusion_product(W(Z2, 0), W(Z2, 0))
        assert got == Counter({W(Z2): 1, W(Z2, 0): 1, W(Z2, 0, 0): 1})

    def test_no_cancellation_without_matching_boundary(self):
        got = fusion_product(W(Z3, 1), W(Z3, 1))
        assert got == Counter({W(Z3, 2): 1, W(Z3, 1, 1): 1})

    def test_longer_cancellation_chain(self):
        x = W(Z2, 1, 0)
        y = W(Z2, 0, 1)
        got = fusion_product(x, y)
        # cuts of length 0, 1, and 2 all match the boundary condition
        assert got == Counter(
            {
                W(Z2, 1, 0, 0, 1): 1,
                W(Z2, 1, 0, 1): 1,
                W(Z2, 1, 1): 1,
                W(Z2, 0): 1,
                W(Z2): 1,
            }
        )

    @pytest.mark.parametrize("group", [Z2, Z3, ZZ, S3])
    def test_associative(self, group):
        rng = random.Random(17)
        for _ in range(30):
            x, y, z = (random_word(rng, group) for _ in range(3))
            left: Counter = Counter()
            for w, m in fusion_product(x, y).items():
                for v, m2 in fusion_product(w, z).items():
                    left[v] += m * m2
            right: Counter = Counter()
            for w, m in fusion_product(y, z).items():
                for v, m2 in fusion_product(x, w).items():
                    right[v] += m * m2
            assert left == right

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_conjugation_symmetry(self, group):
        rng = random.Random(23)
        for _ in range(30):
            x, y = random_word(rng, group), random_word(rng, group)
            forward = fusion_product(x, y)
            backward = fusion_product(involution(y), involution(x))
            assert forward == Counter(
                {involution(z): m for z, m in backward.items()}
            )

    def test_cross_group_rejected(self):
        with pytest.raises(DomainError):
            fusion_product(W(Z2, 1), W(Z3, 1))

    def test_trivial_entry_matches_specialization(self):
        rng = random.Random(41)
        for _ in range(40):
            x, y = random_word(rng, Z3), random_word(rng, Z3)
            assert fusion_product(x, y)[W(Z3)] == multiplicity_of_trivial(x, y)

    @pytest.mark.parametrize("group", [Z2, Z3, ZZ, S3])
    def test_matches_every_cut_definition(self, group):
        rng = random.Random(61)
        elems = list(range(-2, 3)) if group == ZZ else list(group.elements())
        for _ in range(150):
            x = random_word(rng, group, max_len=8)
            # y starts with the involution of a suffix of x, so some cuts
            # cancel; a changed letter stops the cancellation partway
            suffix = x.letters[len(x) - rng.randint(0, len(x)) :]
            head = list(involution(Word(group, suffix)).letters)
            if head and rng.random() < 0.5:
                head[rng.randrange(len(head))] = rng.choice(elems)
            tail = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            y = Word(group, tuple(head + tail))
            for a, b in ((x, y), (y, x)):
                got = fusion_product(a, b)
                want = fusion_product_by_definition(a, b)
                assert list(got.items()) == list(want.items())
                for term in got:
                    assert term == Word(term.group, term.letters)


class TestDimension:
    def test_frozen_values(self):
        assert dimension(W(Z2), 4) == 1
        assert dimension(W(Z2, 1), 4) == 4
        assert dimension(W(Z2, 0), 4) == 3
        assert dimension(W(Z2, 1, 1), 4) == 12
        assert dimension(W(Z2, 0, 0), 4) == 5

    def test_small_dimension_rejected(self):
        with pytest.raises(DomainError):
            dimension(W(Z2, 1), 3)

    @pytest.mark.parametrize("n, want", [
        (4.5, ValidationError),
        (True, ValidationError),
        (None, ValidationError),
        ("5", ValidationError),
        (Fraction(9, 2), Fraction(279, 8)),
        (3, DomainError),
    ])
    def test_n_is_an_exact_int_or_fraction_of_at_least_four(self, n, want):
        x = W(Z2, 1, 0, 1)
        if isinstance(want, type):
            with pytest.raises(want):
                dimension(x, n)
        else:
            got = dimension(x, n)
            assert (type(got), got) == (Fraction, want)
            assert got == word_dimension_from_the_right(Z2, x.letters, n)

    @pytest.mark.parametrize("group", [Z2, Z3, S3, ZZ])
    @pytest.mark.parametrize("n", [4, 5, 9, Fraction(9, 2)])
    def test_homomorphism_property(self, group, n):
        rng = random.Random(int(n * 100) + 7)
        for _ in range(25):
            x, y = random_word(rng, group), random_word(rng, group)
            total = sum(
                m * dimension(z, n) for z, m in fusion_product(x, y).items()
            )
            assert total == dimension(x, n) * dimension(y, n)

    def test_dimensions_are_positive(self):
        for letters in itertools.product(range(2), repeat=3):
            assert dimension(Word(Z2, letters), 4) >= 1

    def test_integer_letters(self):
        assert dimension(W(ZZ, 5), 6) == 6
        # 4 * 4 minus the two lower terms (e-word of length one, empty word)
        assert dimension(W(ZZ, 5, -5), 4) == 16 - 3 - 1

    def test_involution_preserves_dimension(self):
        rng = random.Random(3)
        for _ in range(30):
            x = random_word(rng, Z3)
            assert dimension(x, 5) == dimension(involution(x), 5)

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_matches_right_to_left_evaluation(self, group):
        rng = random.Random(11)
        for _ in range(40):
            x = random_word(rng, group, max_len=12)
            n = rng.choice([4, 5, 9])
            assert dimension(x, n) == word_dimension_from_the_right(group, x.letters, n)

    def test_long_word(self):
        # Far past the interpreter's recursion limit.
        rng = random.Random(3000)
        x = Word(Z2, tuple(rng.randrange(2) for _ in range(3000)))
        for n in (4, 5):
            assert dimension(x, n) == word_dimension_from_the_right(Z2, x.letters, n)

    def test_long_integer_word(self):
        # Appending the identity letter to x multiplies by n - 1 and takes
        # away dim(x) once, since the last letter of x is not the identity.
        x = Word(ZZ, tuple(range(1, 3001)))
        for n in (4, 7):
            assert dimension(Word(ZZ, x.letters + (0,)), n) == (n - 2) * dimension(x, n)
            assert dimension(x, n) == dimension(involution(x), n)


class TestMultiplicityOfTrivial:
    def test_empty_pair(self):
        assert multiplicity_of_trivial(W(Z2), W(Z2)) == 1

    def test_self_inverse_generator(self):
        assert multiplicity_of_trivial(W(Z2, 1), W(Z2, 1)) == 1

    def test_mod_three_generator(self):
        assert multiplicity_of_trivial(W(Z3, 1), W(Z3, 1)) == 0
        assert multiplicity_of_trivial(W(Z3, 1), W(Z3, 2)) == 1

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_kronecker_delta_on_involution(self, group):
        rng = random.Random(11)
        for _ in range(40):
            x, y = random_word(rng, group), random_word(rng, group)
            assert multiplicity_of_trivial(x, y) == int(y == involution(x))


def oracle_a_rep_trivial(group, letters) -> int:
    """Unpruned expansion of the product of basic representations."""
    state: Counter = Counter({Word(group, ()): 1})
    for g in letters:
        nxt: Counter = Counter()
        for word, mult in state.items():
            if g == group.identity():
                nxt[word] += mult
            for product, extra in fusion_product(word, Word(group, (g,))).items():
                nxt[product] += mult * extra
        state = nxt
    return state[Word(group, ())]


class TestARepTrivialMultiplicity:
    def test_empty_product(self):
        assert a_rep_trivial_multiplicity(Z2, ()) == 1

    def test_generator_pair(self):
        assert a_rep_trivial_multiplicity(Z2, (1, 1)) == 1

    @pytest.mark.parametrize("k", range(7))
    def test_identity_powers_are_catalan(self, k):
        assert a_rep_trivial_multiplicity(Z2, (0,) * k) == catalan(k)

    @pytest.mark.parametrize("group", [Z2, Z3, S3])
    def test_matches_unpruned_oracle(self, group):
        rng = random.Random(59)
        elems = list(group.elements())
        for _ in range(25):
            letters = tuple(rng.choice(elems) for _ in range(rng.randint(0, 4)))
            assert a_rep_trivial_multiplicity(group, letters) == oracle_a_rep_trivial(
                group, letters
            )

    def test_foreign_letters_rejected(self):
        with pytest.raises(DomainError):
            a_rep_trivial_multiplicity(Z2, (3,))


class TestWordRing:
    def test_small_dimension_rejected(self):
        with pytest.raises(DomainError):
            WordRing(Z2, 3)

    def test_dimension_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            WordRing(Z2, 4.5)


class TestAlternatingWord:
    def test_adjacent_same_factor_rejected(self):
        with pytest.raises(ValidationError):
            AlternatingWord(((0, W(Z2, 1)), (0, W(Z2, 1))))

    def test_trivial_label_rejected(self):
        with pytest.raises(ValidationError):
            AlternatingWord(((0, W(Z2)),))

    @pytest.mark.parametrize("index", [1.9, "0"])
    def test_factor_index_must_be_an_integer(self, index):
        with pytest.raises(ValidationError, match="factor index must be an integer"):
            AlternatingWord(((index, W(Z2, 1)),))

    def test_empty_is_fine(self):
        assert len(AlternatingWord(())) == 0

    def test_alternation_allowed(self):
        w = AlternatingWord(((0, W(Z2, 1)), (1, W(Z2, 1)), (0, W(Z2, 0))))
        assert len(w) == 3


class TestFreeProductFusion:
    RINGS = (WordRing(Z2, 4), WordRing(Z2, 5))

    def alt(self, *entries) -> AlternatingWord:
        return AlternatingWord(tuple(entries))

    def test_empty_operands(self):
        w = self.alt((0, W(Z2, 1)))
        assert free_product_fusion(self.RINGS, self.alt(), w) == Counter({w: 1})
        assert free_product_fusion(self.RINGS, w, self.alt()) == Counter({w: 1})

    def test_distinct_boundary_factors_concatenate(self):
        w1 = self.alt((0, W(Z2, 1)))
        w2 = self.alt((1, W(Z2, 1)))
        got = free_product_fusion(self.RINGS, w1, w2)
        assert got == Counter({self.alt((0, W(Z2, 1)), (1, W(Z2, 1))): 1})

    def test_single_factor_reduces_to_fusion_product(self):
        ring = (WordRing(Z2, 4),)
        words = [W(Z2, *ls) for n in range(3) for ls in itertools.product(range(2), repeat=n)]
        for x, y in itertools.product(words, repeat=2):
            wx = self.alt((0, x)) if len(x) else self.alt()
            wy = self.alt((0, y)) if len(y) else self.alt()
            got = free_product_fusion(ring, wx, wy)
            expected: Counter = Counter()
            for z, m in fusion_product(x, y).items():
                key = self.alt((0, z)) if len(z) else self.alt()
                expected[key] += m
            assert got == expected

    def test_boundary_cancellation_example(self):
        w1 = self.alt((0, W(Z2, 1)))
        w2 = self.alt((0, W(Z2, 1)), (1, W(Z2, 1)))
        got = free_product_fusion(self.RINGS, w1, w2)
        tail = (1, W(Z2, 1))
        assert got == Counter(
            {
                self.alt(tail): 1,
                self.alt((0, W(Z2, 0)), tail): 1,
                self.alt((0, W(Z2, 1, 1)), tail): 1,
            }
        )

    def test_associative_sampled(self):
        rng = random.Random(77)
        labels = [W(Z2, 1), W(Z2, 0), W(Z2, 1, 1), W(Z2, 1, 0)]

        def random_alt():
            length = rng.randint(0, 3)
            entries = []
            factor = rng.randint(0, 1)
            for _ in range(length):
                entries.append((factor, rng.choice(labels)))
                factor = 1 - factor
            return AlternatingWord(tuple(entries))

        def triple(first, second):
            out: Counter = Counter()
            for w, m in first.items():
                for v, m2 in second(w).items():
                    out[v] += m * m2
            return out

        for _ in range(25):
            a, b, c = random_alt(), random_alt(), random_alt()
            left = triple(
                free_product_fusion(self.RINGS, a, b),
                lambda w: free_product_fusion(self.RINGS, w, c),
            )
            right = triple(
                free_product_fusion(self.RINGS, b, c),
                lambda w: free_product_fusion(self.RINGS, a, w),
            )
            assert left == right

    def test_dimension_multiplicative(self):
        def alt_dimension(w: AlternatingWord) -> int:
            value = 1
            for i, label in w.entries:
                value *= dimension(label, self.RINGS[i].dim)
            return value

        rng = random.Random(13)
        labels = [W(Z2, 1), W(Z2, 0), W(Z2, 1, 1)]
        for _ in range(20):
            entries1 = [(i % 2, rng.choice(labels)) for i in range(rng.randint(0, 2))]
            entries2 = [(i % 2, rng.choice(labels)) for i in range(rng.randint(0, 2))]
            w1, w2 = AlternatingWord(tuple(entries1)), AlternatingWord(tuple(entries2))
            got = free_product_fusion(self.RINGS, w1, w2)
            total = sum(alt_dimension(w) * m for w, m in got.items())
            assert total == alt_dimension(w1) * alt_dimension(w2)

    def test_matches_recursive_definition_on_long_words(self):
        rings = (WordRing(Z2, 4), WordRing(Z3, 5), WordRing(S3, 6))
        rng = random.Random(1200)

        def label(factor):
            group = rings[factor].group
            elements = list(group.elements())
            letters = [rng.choice(elements) for _ in range(rng.randint(1, 2))]
            return Word(group, tuple(letters))

        def extend(entries, count):
            for _ in range(count):
                last = entries[-1][0] if entries else None
                factor = rng.choice([f for f in range(len(rings)) if f != last])
                entries.append((factor, label(factor)))
            return entries

        # the oracle re-adds every deeper level: its time grows with the
        # square of the cancelled length times the word length
        for _ in range(20):
            w1 = extend([], rng.randint(1, 200))
            cut = rng.randint(0, min(len(w1), 50))
            w2 = [(f, involution(x)) for f, x in reversed(w1[len(w1) - cut:])]
            if w2 and rng.random() < 0.5:
                at = rng.randrange(len(w2))
                w2[at] = (w2[at][0], label(w2[at][0]))
            w2 = extend(w2, rng.randint(0, 5))
            a, b = AlternatingWord(tuple(w1)), AlternatingWord(tuple(w2))
            assert free_product_fusion(rings, a, b) == free_product_fusion_recursive(a, b)

    def test_factor_index_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            free_product_fusion(self.RINGS, self.alt((2, W(Z2, 1))), self.alt())

    def test_label_group_mismatch_rejected(self):
        rings = (WordRing(Z2, 4), WordRing(Z3, 5))
        with pytest.raises(DomainError):
            free_product_fusion(rings, self.alt((1, W(Z2, 1))), self.alt())


class TestSortedCombination:
    def test_words_sorted_by_length_then_letters(self):
        comb = Counter({W(Z2, 1, 1): 1, W(Z2): 1, W(Z2, 0): 2, W(Z2, 1): 1})
        listed = sorted_combination(comb)
        assert [w.letters for w, _ in listed] == [(), (0,), (1,), (1, 1)]

    def test_alternating_words_sorted(self):
        a = AlternatingWord(((0, W(Z2, 1)),))
        b = AlternatingWord(((0, W(Z2, 1)), (1, W(Z2, 1))))
        comb = Counter({b: 1, a: 2})
        assert [w for w, _ in sorted_combination(comb)] == [a, b]
