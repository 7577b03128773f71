"""The EDB fact scanner and the memoised printer against the paths they replace.

``_load_edb`` reads EDB files with :func:`repro.lang.parser.parse_facts`
and falls back to the full parser (``_parse_edb``) for diagnostics; the
two must load the same atoms and raise the same errors.  The printers
must reproduce the per-atom ``Atom.sort_key`` rendering exactly.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.cli import _load_edb, _parse_edb
from repro.errors import ReproError
from repro.lang import format_atoms, format_database, format_facts, parse_facts, parse_program, parser
from repro.lang.atoms import Atom
from repro.lang.terms import Constant, FrozenConstant, Null

BACKENDS = ("rows", "columnar")

#: One EDB per shipped example program, in the shapes the examples expect.
EXAMPLE_EDBS = {
    "ancestry.dl": "Par('ann', 'bob').\nPar('bob', 'cy').\nPar(\"cy\", 'dee'). % mixed quotes\n",
    "points_to.dl": (
        "Addr(1, 100). Addr(2, 101).\nCopy(3, 1).\nStore(3, 2).\nLoad(4, 3).\n"
    ),
    "reach_unreached.dl": "S(0).\n"
    + "".join(f"A({i}, {(7 * i + 3) % 20}).\n" for i in range(20))
    + "".join(f"Node({i}).\n" for i in range(25)),
    "same_generation.dl": "Per(1). Per(2). Per(3).\nPar(1, 2).\nPar(1, 3).\n",
    "tc.dl": "# chain\n" + " ".join(f"E({i}, {i + 1})." for i in range(-3, 6)) + "\n",
    "transitive_closure.dl": "A(1, 2).\nA(2, 3).\nA(3, 1).\n",
}


def _load_both(path, backend: str) -> tuple[Database, Database]:
    new = _load_edb(str(path), backend)
    old = _parse_edb(str(path), path.read_text(encoding="utf-8"), backend)
    return new, old


# -- loading ------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("example", sorted(EXAMPLE_EDBS))
def test_example_edbs_load_identically(tmp_path, example, backend):
    path = tmp_path / "edb.dl"
    path.write_text(EXAMPLE_EDBS[example], encoding="utf-8")
    assert parse_facts(EXAMPLE_EDBS[example]) is not None
    new, old = _load_both(path, backend)
    assert new.backend == old.backend == backend
    assert new.as_atom_set() == old.as_atom_set()
    assert len(new) == len(old) > 0


def _quoted(value: str, quote: str) -> str:
    """*value* as a string literal in *quote*, with the escapes it needs."""
    escaped = value.replace("\\", "\\\\").replace(quote, "\\" + quote)
    return quote + escaped + quote


_TEXT = st.text(alphabet="ab '\"\\%#,().\n", max_size=6)
_INTS = st.integers(min_value=-1000, max_value=1000)
_LITERALS = st.one_of(
    _INTS.map(str),
    _INTS.map(lambda n: f"{'-' if n < 0 else ''}00{abs(n)}"),  # leading zeros
    _TEXT.map(lambda v: _quoted(v, "'")),
    _TEXT.map(lambda v: _quoted(v, '"')),
    # A redundant but legal escape: \' inside double quotes.
    _TEXT.filter(lambda v: '"' not in v and "\\" not in v).map(
        lambda v: '"' + v.replace("'", "\\'") + '"'
    ),
)
#: Gaps between tokens: spaces, newlines and comments (which run to the
#: end of the line, so they always close with one).
_GAPS = st.lists(
    st.sampled_from([" ", "\n", "\t", "  ", "% note, (x).\n", "# 'quote\n", "%\n"]),
    max_size=2,
).map("".join)
#: Fixed arities keep a generated file free of arity clashes.
_PREDICATES = {"A": 2, "B": 1, "P": 0, "Edge_1": 3}


@st.composite
def fact_files(draw) -> str:
    parts = [draw(_GAPS)]
    facts = draw(st.lists(st.sampled_from(sorted(_PREDICATES)), max_size=12))
    seen: list[str] = []
    for predicate in facts:
        if seen and draw(st.booleans()):
            parts.append(draw(st.sampled_from(seen)))  # a duplicate fact
            continue
        args = [draw(_LITERALS) for _ in range(_PREDICATES[predicate])]
        text = predicate + draw(_GAPS) + "(" + draw(_GAPS)
        text += "".join(
            (draw(_GAPS) + "," + draw(_GAPS) if i else "") + arg for i, arg in enumerate(args)
        )
        text += draw(_GAPS) + ")" + draw(_GAPS) + "." + draw(_GAPS)
        seen.append(text)
        parts.append(text)
    return "".join(parts)


@pytest.fixture(scope="module")
def edb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("facts") / "edb.dl"


@settings(max_examples=150, deadline=None)
@given(source=fact_files())
def test_generated_fact_files_load_identically(edb_path, source):
    expected = {rule.head for rule in parse_program(source).rules}
    facts = parse_facts(source)
    assert facts is not None, source
    assert {Atom(p, row) for p, row in facts} == expected
    edb_path.write_text(source, encoding="utf-8")
    for backend in BACKENDS:
        new, old = _load_both(edb_path, backend)
        assert new.as_atom_set() == old.as_atom_set() == expected


def test_one_constant_object_per_distinct_literal():
    facts = parse_facts("A(1, 'x'). A(1, 'y'). B('x').")
    (_, first), (_, second), (_, third) = facts
    assert first[0] is second[0]
    assert first[1] is third[0]


def test_comment_text_is_not_scanned():
    facts = parse_facts("P(# 'q\n).\nA(1 % 'x', 9\n, 2).")
    assert facts == [("P", ()), ("A", (Constant(1), Constant(2)))]


MALFORMED = {
    "unclosed": "A(1, 2",
    "double comma": "A(1,, 2).",
    "variable": "A(x).",
    "rule": "A(1).\nG(x) :- A(x).",
    "arity clash": "A(1).\nB(2).\nA(1, 2).",
    "lowercase predicate": "a(1).",
    "missing period": "A(1) B(2).",
    "unterminated string": "A('abc).",
    "trailing number": "A(1).5",
    "int run into name": "A(1abc).",
    "unexpected character": "A(1). @",
    "uppercase term": "A(Bob).",
    "comment swallows period": "A(1) % .\n",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_reports_the_parser_error(tmp_path, name, backend):
    source = MALFORMED[name]
    path = tmp_path / "edb.dl"
    path.write_text(source, encoding="utf-8")
    with pytest.raises(ReproError) as old:
        _parse_edb(str(path), source, backend)
    with pytest.raises(ReproError) as new:
        _load_edb(str(path), backend)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


def test_diagnostic_messages_are_the_parsers(tmp_path):
    path = tmp_path / "edb.dl"
    path.write_text(MALFORMED["rule"], encoding="utf-8")
    with pytest.raises(ReproError, match="contains a non-fact rule: G\\(x\\) :- A\\(x\\)."):
        _load_edb(str(path))
    path.write_text(MALFORMED["arity clash"], encoding="utf-8")
    with pytest.raises(ReproError, match="predicate A used with arity 1 and 2"):
        _load_edb(str(path), "columnar")
    path.write_text(MALFORMED["unclosed"], encoding="utf-8")
    with pytest.raises(ReproError, match="line 1, column 7"):
        _load_edb(str(path))


def test_backtracking_is_bounded():
    # Each input is rejected only at its end.  The scanner must give up
    # after linear backtracking, not try every way of splitting a comment
    # banner into comments or a run of blanks into runs.
    rejected = [
        "%" * 200 + " " + "% " * 100 + "\nG(x) :- A(x).\n",
        "A(1).\n" + " \n\t" * 2000 + "G(x).",
        "A(" + ", ".join(["1 % one\n"] * 500) + ", x).",
        "A(1)" + " %%\n" * 1000 + "x",
    ]
    for source in rejected:
        assert parse_facts(source) is None


def test_scanner_patterns_need_no_python_3_11(capsys):
    # Possessive quantifiers and atomic groups raise re.error before
    # Python 3.11, when the parser module is imported, which would break
    # every CLI verb.  re.DEBUG prints the parsed pattern's opcodes.
    for name in ("_FACT_RE", "_ARG_RE", "_SKIP_RE", "_TOKEN_RE"):
        pattern = getattr(parser, name)
        re.compile(pattern.pattern, pattern.flags | re.DEBUG)
        opcodes = capsys.readouterr().out
        assert "POSSESSIVE_REPEAT" not in opcodes, name
        assert "ATOMIC_GROUP" not in opcodes, name


# -- printing -----------------------------------------------------------------------


def _old_format_database(db: Database) -> str:
    """The per-atom rendering the memoised printer replaced."""
    return "\n".join(
        f"{pred}: " + ", ".join(str(a) for a in sorted(db.atoms_for(pred), key=Atom.sort_key))
        for pred in sorted(db.predicates)
    )


_TERMS = st.one_of(
    st.integers(min_value=-50, max_value=50).map(Constant),
    st.text(alphabet="ab'\\ -1", max_size=3).map(Constant),
    st.integers(min_value=1, max_value=5).map(Null),
    st.sampled_from(["x", "y"]).map(FrozenConstant),
)


@st.composite
def mixed_atoms(draw) -> list[Atom]:
    arities = {"A": 2, "B": 1, "C": 0, "Zed": 3}
    return [
        Atom(pred, tuple(draw(_TERMS) for _ in range(arities[pred])))
        for pred in draw(st.lists(st.sampled_from(sorted(arities)), max_size=25))
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(atoms=mixed_atoms())
def test_printer_matches_per_atom_sort_order(backend, atoms):
    db = Database(atoms, backend=backend)
    assert format_database(db) == _old_format_database(db)
    old_lines = [str(a) for a in sorted(db.atoms(), key=Atom.sort_key)]
    assert format_facts(db) == "\n".join(old_lines)
    assert format_atoms(db.atoms()) == "{" + ", ".join(old_lines) + "}"


def test_format_atoms_keeps_arity_order_within_a_predicate():
    atoms = [Atom.of("A", 2), Atom.of("A", 1, 1), Atom.of("A"), Atom.of("A", -1)]
    assert format_atoms(atoms) == "{A(), A(-1), A(2), A(1, 1)}"
