"""Unit tests for repro.lang.parser (and pretty-printer round trips)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.lang import (
    Atom,
    Constant,
    Variable,
    format_program,
    parse_atom,
    parse_program,
    parse_rule,
    parse_tgd,
    parse_tgds,
)


class TestAtoms:
    def test_simple(self):
        atom = parse_atom("A(x, y)")
        assert atom == Atom("A", (Variable("x"), Variable("y")))

    def test_integer_constants(self):
        assert parse_atom("Q(3, 10)") == Atom.of("Q", 3, 10)

    def test_negative_integers(self):
        assert parse_atom("Q(-5)") == Atom.of("Q", -5)

    def test_string_constants(self):
        assert parse_atom("Name('alice')") == Atom.of("Name", "alice")

    def test_double_quoted_strings(self):
        assert parse_atom('Name("bob")') == Atom.of("Name", "bob")

    def test_zero_arity(self):
        assert parse_atom("Done()") == Atom("Done", ())

    def test_quote_and_backslash_print_escaped(self):
        assert str(Atom.of("N", "it's", "x\\")) == "N('it\\'s', 'x\\\\')"

    @given(
        st.lists(
            st.one_of(st.text(), st.text(alphabet="'\"\\ab"), st.integers()),
            max_size=4,
        )
    )
    def test_string_constants_round_trip_through_str(self, values):
        atom = Atom.of("N", *values)
        assert parse_atom(str(atom)) == atom

    def test_mixed_terms(self):
        atom = parse_atom("Q(x, y, 3, 10)")
        assert atom.args == (Variable("x"), Variable("y"), Constant(3), Constant(10))

    def test_lowercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("a(x)")

    def test_uppercase_term_rejected_with_hint(self):
        with pytest.raises(ParseError, match="uppercase"):
            parse_atom("A(X)")


class TestRules:
    def test_rule(self):
        rule = parse_rule("G(x, z) :- A(x, z).")
        assert str(rule) == "G(x, z) :- A(x, z)."

    def test_fact(self):
        rule = parse_rule("A(1, 2).")
        assert rule.is_fact

    def test_multi_atom_body(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z), A(y, w).")
        assert len(rule.body) == 3

    def test_negation_not_keyword(self):
        rule = parse_rule("P(x) :- A(x), not B(x).")
        assert not rule.body[1].positive

    def test_negation_bang(self):
        rule = parse_rule("P(x) :- A(x), !B(x).")
        assert not rule.body[1].positive

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("G(x, z) :- A(x, z)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_rule("A(1). junk")


class TestPrograms:
    def test_multiline_with_comments(self):
        program = parse_program(
            """
            % transitive closure
            G(x, z) :- A(x, z).
            # hash comments too
            G(x, z) :- G(x, y), G(y, z).
            """
        )
        assert len(program) == 2

    def test_empty_source(self):
        assert len(parse_program("")) == 0
        assert len(parse_program("  % only a comment\n")) == 0

    def test_error_has_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("G(x, z) :- A(x, z).\nG(x z) :- A(x, z).")
        assert excinfo.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("G(x, z) :- A(x, z) @ B(z).")

    def test_roundtrip_through_format(self):
        source = """
            G(x, z) :- A(x, z).
            G(x, z) :- G(x, y), G(y, z), A(y, w).
            Fact(1, 'two').
        """
        program = parse_program(source)
        assert parse_program(format_program(program)) == program


class TestTgds:
    def test_single_atom_sides(self):
        tgd = parse_tgd("G(x, z) -> A(x, w)")
        assert len(tgd.lhs) == 1 and len(tgd.rhs) == 1

    def test_ampersand_conjunction(self):
        tgd = parse_tgd("G(y, z) -> G(y, w) & C(w)")
        assert len(tgd.rhs) == 2

    def test_comma_conjunction_on_lhs(self):
        tgd = parse_tgd("G(x, y), G(y, z) -> A(y, w)")
        assert len(tgd.lhs) == 2

    def test_optional_terminating_period(self):
        tgd = parse_tgd("G(x, z) -> A(x, w).")
        assert len(tgd.lhs) == 1

    def test_parse_many(self):
        tgds = parse_tgds(
            """
            G(x, z) -> A(x, w).
            G(y, z) -> G(y, w) & C(w)
            """
        )
        assert len(tgds) == 2

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_tgd("G(x, z) A(x, w)")

    def test_tgd_str_roundtrip(self):
        tgd = parse_tgd("G(x, y), G(y, z) -> A(y, w) & C(w)")
        assert parse_tgd(str(tgd)) == tgd
