"""Tests for the group backends: cyclic, integers, and table-defined groups."""

from __future__ import annotations

import itertools
import json

import pytest

from ncwreath.errors import DomainError, ValidationError
from ncwreath.groups import (
    CyclicGroup,
    IntegerGroup,
    TableGroup,
    parse_group_spec,
    parse_word_text,
)

from helpers import cyclic_group_dict, reduced_latin_squares, symmetric_group_dict


class TestCyclicGroup:
    @pytest.mark.parametrize("order", [1, 2, 3, 6])
    def test_axioms_exhaustive(self, order):
        g = CyclicGroup(order)
        e = g.identity()
        elems = list(g.elements())
        assert len(elems) == order
        for a in elems:
            assert g.mul(e, a) == a == g.mul(a, e)
            assert g.mul(a, g.inv(a)) == e
            for b in elems:
                for c in elems:
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_element_names(self):
        g = CyclicGroup(4)
        assert [g.element_name(a) for a in g.elements()] == ["e", "s", "s2", "s3"]

    def test_parse_round_trip(self):
        g = CyclicGroup(5)
        for a in g.elements():
            assert g.parse_element(g.element_name(a)) == a

    def test_parse_accepts_numerals_and_reduces(self):
        g = CyclicGroup(3)
        assert g.parse_element("4") == 1
        assert g.parse_element("s4") == 1
        assert g.parse_element(" e ") == 0

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValidationError):
            CyclicGroup(3).parse_element("x7")

    def test_out_of_range_element_rejected(self):
        g = CyclicGroup(3)
        with pytest.raises(DomainError):
            g.mul(0, 3)
        with pytest.raises(DomainError):
            g.inv(-1)
        with pytest.raises(DomainError):
            g.check(True)

    def test_bad_order_rejected(self):
        with pytest.raises(ValidationError):
            CyclicGroup(0)

    @pytest.mark.parametrize("order", [2.5, True])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValidationError, match="order must be an integer"):
            CyclicGroup(order)

    def test_order_one_generator_is_identity(self):
        g = CyclicGroup(1)
        assert g.parse_element("s") == 0

    def test_describe(self):
        assert CyclicGroup(2).describe() == "cyclic:2"


class TestIntegerGroup:
    def test_operations(self):
        g = IntegerGroup()
        assert g.identity() == 0
        assert g.mul(3, -5) == -2
        assert g.inv(7) == -7

    def test_parse_and_name(self):
        g = IntegerGroup()
        assert g.parse_element("-12") == -12
        assert g.element_name(-12) == "-12"
        with pytest.raises(ValidationError):
            g.parse_element("one")

    def test_elements_listing_is_refused(self):
        g = IntegerGroup()
        with pytest.raises(DomainError):
            g.elements()

    def test_non_integers_rejected(self):
        with pytest.raises(DomainError):
            IntegerGroup().check("3")


class TestTableGroup:
    def test_symmetric_group_structure(self):
        g = TableGroup.from_dict(symmetric_group_dict(3))
        assert len(g.elements()) == 6
        swap01 = g.parse_element("102")
        swap12 = g.parse_element("021")
        # applying swap12 first then swap01 is the 3-cycle 0->1->2->0
        assert g.element_name(g.mul(swap01, swap12)) == "120"
        # the other order gives the other 3-cycle: noncommutative
        assert g.element_name(g.mul(swap12, swap01)) == "201"
        for t in (swap01, swap12):
            assert g.inv(t) == t
        cyc = g.parse_element("120")
        assert g.element_name(g.inv(cyc)) == "201"

    def test_axioms_exhaustive(self):
        g = TableGroup.from_dict(symmetric_group_dict(3))
        e = g.identity()
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == e == g.mul(g.inv(a), a)
        for a, b, c in itertools.product(g.elements(), repeat=3):
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_round_trip_through_dict(self):
        data = symmetric_group_dict(3)
        g = TableGroup.from_dict(data)
        assert TableGroup.from_dict(g.to_dict()) == g

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            TableGroup(("e", "e"), 0, ((0, 1), (1, 0)))

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValidationError):
            TableGroup.from_dict(
                {"elements": ["e", "a"], "identity": "b", "table": [[0, 1], [1, 0]]}
            )

    def test_non_square_table_rejected(self):
        with pytest.raises(ValidationError):
            TableGroup(("e", "a"), 0, ((0, 1),))

    def test_non_neutral_identity_rejected(self):
        with pytest.raises(ValidationError):
            TableGroup(("e", "a"), 0, ((1, 0), (0, 1)))

    def test_non_latin_table_rejected(self):
        with pytest.raises(ValidationError):
            TableGroup(("e", "a", "b"), 0, ((0, 1, 2), (1, 1, 1), (2, 2, 2)))

    def test_non_associative_loop_rejected(self):
        # A latin square with two-sided identity and inverses that is not a
        # group: every element squares to the identity, impossible at order 5.
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError, match="associative"):
            TableGroup.from_dict(
                {"elements": ["e", "a", "b", "c", "d"], "identity": "e", "table": table}
            )

    @pytest.mark.parametrize("n,squares", [(4, 4), (5, 56), (6, 9408)])
    def test_associativity_verdict_matches_every_triple(self, n, squares):
        # every loop table of order n: accepted exactly when all n^3 triples
        # associate, whichever elements the check picks as generators
        names = tuple("e" if i == 0 else str(i) for i in range(n))
        seen = 0
        for table in reduced_latin_squares(n):
            seen += 1
            associative = all(
                table[table[a][b]][c] == table[a][table[b][c]]
                for a, b, c in itertools.product(range(n), repeat=3)
            )
            if associative:
                TableGroup(names, 0, table)
            else:
                with pytest.raises(ValidationError, match="associative"):
                    TableGroup(names, 0, table)
        assert seen == squares

    @pytest.mark.parametrize("swap", [(1, 1), (3, 7), (17, 260), (250, 499), (499, 1)])
    def test_swapped_intercalate_rejected_above_order_24(self, swap):
        # a Latin square with a neutral identity whose one defect is a
        # swapped 2x2 intercalate: no sample of triples is sure to find it
        with pytest.raises(ValidationError, match="associative"):
            TableGroup.from_dict(cyclic_group_dict(1000, swap))

    def test_large_groups_load(self):
        z1000 = TableGroup.from_dict(cyclic_group_dict(1000))
        assert z1000.mul(z1000.parse_element("999"), z1000.parse_element("2")) == 1
        s5 = TableGroup.from_dict(symmetric_group_dict(5))
        assert len(s5.elements()) == 120
        assert s5.element_name(s5.inv(s5.parse_element("12340"))) == "40123"

    def test_error_text_of_a_large_table_is_short(self):
        z1000 = TableGroup.from_dict(cyclic_group_dict(1000))
        with pytest.raises(ValidationError) as caught:
            z1000.parse_element("x9")
        text = str(caught.value)
        assert len(text) < 200
        assert text.startswith("'x9' is not an element of table group of order 1000")
        with pytest.raises(DomainError, match="^1000 is not an element of table group of order"):
            z1000.check(1000)
        assert len(z1000.describe()) > 4000

    def test_error_text_of_a_small_table_lists_every_name(self):
        s3 = TableGroup.from_dict(symmetric_group_dict(3))
        with pytest.raises(ValidationError) as caught:
            s3.parse_element("x")
        assert str(caught.value) == f"'x' is not an element of {s3.describe()}"

    def test_rows_coerced_to_tuples(self):
        g = TableGroup(("e", "s"), 0, [[0, 1], [1, 0]])
        assert g == TableGroup(("e", "s"), 0, ((0, 1), (1, 0)))
        assert hash(g) == hash(TableGroup(("e", "s"), 0, ((0, 1), (1, 0))))

    @pytest.mark.parametrize(
        "payload",
        [
            {"elements": "es", "identity": "e", "table": [[0, 1], [1, 0]]},
            {"elements": [0, 1], "identity": "0", "table": [[0, 1], [1, 0]]},
            {"elements": ["0", "1"], "identity": 0, "table": [[0, 1], [1, 0]]},
            {"elements": ["e", "s"], "identity": "e", "table": [(0, 1), "10"]},
            {"elements": ["e", "s"], "identity": "e", "table": {"0": [0, 1]}},
            {"elements": ["e", "s"], "identity": "e"},
            [["e", "s"], "e", [[0, 1], [1, 0]]],
        ],
    )
    def test_from_dict_requires_json_strings_and_lists(self, payload):
        with pytest.raises(ValidationError):
            TableGroup.from_dict(payload)

    def test_constructor_names_must_be_strings(self):
        with pytest.raises(ValidationError, match="names must be strings"):
            TableGroup((0, 1), 0, ((0, 1), (1, 0)))

    def test_boolean_entries_rejected(self):
        # True == 1, so a table of booleans would otherwise pass every axiom
        with pytest.raises(ValidationError, match="table entry True"):
            TableGroup.from_dict(
                {"elements": ["e", "s"], "identity": "e", "table": [[0, True], [True, 0]]}
            )
        with pytest.raises(ValidationError):
            TableGroup(("e", "s"), False, ((0, 1), (1, 0)))

    def test_parse_unknown_name_rejected(self):
        g = TableGroup.from_dict(symmetric_group_dict(3))
        with pytest.raises(ValidationError):
            g.parse_element("012")  # identity is named "e" in this table


class TestParseGroupSpec:
    def test_cyclic(self):
        assert parse_group_spec("cyclic:4") == CyclicGroup(4)

    def test_integers(self):
        assert parse_group_spec("integers") == IntegerGroup()

    def test_table_from_file(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(symmetric_group_dict(3)))
        g = parse_group_spec(f"table:{path}")
        assert isinstance(g, TableGroup)
        assert len(g.elements()) == 6

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            parse_group_spec(f"table:{path}")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValidationError):
            parse_group_spec("dihedral:4")

    def test_bad_cyclic_order_rejected(self):
        with pytest.raises(ValidationError):
            parse_group_spec("cyclic:x")


class TestParseWordText:
    def test_empty_word(self):
        assert parse_word_text(CyclicGroup(2), "") == ()
        assert parse_word_text(CyclicGroup(2), "   ") == ()

    def test_cyclic_word(self):
        assert parse_word_text(CyclicGroup(3), "s,e,s2") == (1, 0, 2)

    def test_integer_word(self):
        assert parse_word_text(IntegerGroup(), "4,-1,0") == (4, -1, 0)

    def test_bad_letter_rejected(self):
        with pytest.raises(ValidationError):
            parse_word_text(CyclicGroup(2), "s,q")
