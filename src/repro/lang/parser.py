"""Parser for Datalog programs and tuple-generating dependencies.

The concrete syntax follows the paper's conventions:

* **predicates** are identifiers beginning with an uppercase letter:
  ``G``, ``Anc``;
* **variables** are identifiers beginning with a lowercase letter or
  underscore: ``x``, ``y1``, ``w``;
* **constants** are integers (``3``, ``-10``) or quoted strings
  (``'alice'``);
* a **rule** is ``Head :- Atom, ..., Atom.`` and a **fact** is a ground
  atom followed by ``.``;
* a **negated literal** (stratified extension only) is written
  ``not Atom`` or ``!Atom``;
* a **tgd** is ``Atom, ... -> Atom & Atom`` -- commas and ``&`` are
  interchangeable conjunction separators on both sides (the paper
  writes the right-hand side with ``∧``);
* comments run from ``%`` or ``#`` to the end of the line.

Example::

    % transitive closure (paper, Example 1)
    G(x, z) :- A(x, z).
    G(x, z) :- G(x, y), G(y, z).

All entry points raise :class:`~repro.errors.ParseError` with a line and
column on malformed input -- except :func:`parse_facts`, the EDB-file
scanner.  It accepts only ground facts, reads them with one regular
expression instead of the token stream, and returns ``None`` on anything
else, so that the caller re-parses with :func:`parse_program` for the
diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import ParseError
from .atoms import Atom, Literal
from .programs import Program
from .rules import Rule
from .terms import Constant, Term, Variable

#: Token sub-patterns shared by the tokenizer and the fact scanner, so
#: both accept exactly the same integers and strings.
_INT = r"-?\d+"
_STRING = r"'(?:[^'\\]|\\.)*'" + r'|"(?:[^"\\]|\\.)*"'

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow>->)
  | (?P<implies>:-)
  | (?P<int>{_INT})
  | (?P<string>{_STRING})
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),.&!])
    """,
    re.VERBOSE,
)

# -- the ground-fact grammar of EDB files --------------------------------------
# ``Pred(term, ..., term).`` with whitespace and comments wherever the
# tokenizer allows them.  Each part can match a stretch of text in one
# way only: a comment must run to the end of its line (the lookahead),
# and neighbouring parts start with disjoint characters.  So a line the
# scanner rejects (a rule, a variable, a typo) fails after linear
# backtracking, not after trying every split of a comment banner into
# comments.  (Possessive quantifiers would say this more directly, but
# ``re`` accepts them only from Python 3.11 on.)
_SKIP = r"\s*(?:[%#][^\n]*(?![^\n])\s*)*"
_TERM = rf"(?:{_INT}|{_STRING})"
_FACT_RE = re.compile(
    rf"{_SKIP}([A-Z][A-Za-z0-9_]*){_SKIP}\("
    rf"({_SKIP}(?:{_TERM}{_SKIP}(?:,{_SKIP}{_TERM}{_SKIP})*)?)"
    rf"\){_SKIP}\."
)
#: The arguments of a matched fact: each term is a group; a comment
#: matches whole (as an empty group) so that its text is never scanned.
_ARG_RE = re.compile(rf"[%#][^\n]*|({_TERM})")
_SKIP_RE = re.compile(_SKIP)
_ESCAPE_RE = re.compile(r"\\(['\"\\])")


def unescape_string(token: str) -> str:
    """The value of a quoted string token (quotes included).

    A backslash before a quote or a backslash is dropped; any other
    backslash is kept.  The inverse of the escaping in
    :meth:`Constant.__str__ <repro.lang.terms.Constant.__str__>`.
    """
    raw = token[1:-1]
    return _ESCAPE_RE.sub(r"\1", raw) if "\\" in raw else raw


class _Constants(dict):
    """Literal text -> its :class:`Constant`, built once per distinct literal."""

    def __missing__(self, text: str) -> Constant:
        value = unescape_string(text) if text[0] in "'\"" else int(text)
        constant = self[text] = Constant(value)
        return constant


def parse_facts(source: str) -> list[tuple[str, tuple[Constant, ...]]] | None:
    """The ground facts of an EDB file as ``(predicate, row)`` pairs.

    Pairs come in source order, duplicates included; each row is a tuple
    of :class:`Constant`, one shared object per distinct literal.
    Returns ``None`` unless the whole of *source* is ground facts,
    whitespace and comments: :func:`parse_program` then reads the file and
    reports what is wrong with it.
    """
    constants = _Constants()
    row_of = constants.__getitem__
    split = _ARG_RE.findall
    facts = []
    match = _FACT_RE.match
    pos = 0
    while (fact := match(source, pos)) is not None:
        predicate, args = fact.groups()
        facts.append((predicate, tuple(map(row_of, filter(None, split(args))))))
        pos = fact.end()
    if _SKIP_RE.match(source, pos).end() != len(source):
        return None
    return facts


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class SourceSpan:
    """The 1-based source extent of one parsed rule (inclusive)."""

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParsedProgram:
    """A program plus the source span of each distinct rule.

    ``spans`` maps every rule of ``program`` to the span of its *first*
    occurrence in the source (a :class:`~repro.lang.programs.Program`
    drops duplicate rules, so later occurrences have no representative).
    """

    program: Program
    spans: Mapping[Rule, SourceSpan]


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens, skipping whitespace and comments.

    Raises :class:`ParseError` on any character outside the grammar.
    """
    line = 1
    line_start = 0
    pos = 0
    length = len(source)
    while pos < length:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, column)
        kind = match.lastgroup or ""
        text = match.group()
        if kind == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif kind != "comment":
            yield Token(kind, text, line, pos - line_start + 1)
        pos = match.end()
    yield Token("eof", "", line, pos - line_start + 1)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self.tokens = list(tokenize(source))
        self.index = 0

    # -- token plumbing ------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        return False

    # -- grammar ---------------------------------------------------------------
    def parse_term(self) -> Term:
        token = self.current
        if token.kind == "int":
            self.advance()
            return Constant(int(token.text))
        if token.kind == "string":
            self.advance()
            return Constant(unescape_string(token.text))
        if token.kind == "name":
            self.advance()
            if token.text[0].isupper():
                raise ParseError(
                    f"{token.text!r} starts uppercase (a predicate name) where a term is expected; "
                    "variables start lowercase, symbolic constants are quoted",
                    token.line,
                    token.column,
                )
            return Variable(token.text)
        raise ParseError(
            f"expected a term but found {token.text or 'end of input'!r}", token.line, token.column
        )

    def parse_atom(self) -> Atom:
        token = self.expect("name")
        if not token.text[0].isupper():
            raise ParseError(
                f"predicate names start with an uppercase letter, found {token.text!r}",
                token.line,
                token.column,
            )
        self.expect("punct", "(")
        args: list[Term] = []
        if not self.at_punct(")"):
            args.append(self.parse_term())
            while self.accept_punct(","):
                args.append(self.parse_term())
        self.expect("punct", ")")
        return Atom(token.text, tuple(args))

    def parse_literal(self) -> Literal:
        if self.current.kind == "name" and self.current.text == "not":
            self.advance()
            return Literal(self.parse_atom(), positive=False)
        if self.accept_punct("!"):
            return Literal(self.parse_atom(), positive=False)
        return Literal(self.parse_atom())

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        body: list[Literal] = []
        if self.current.kind == "implies":
            self.advance()
            body.append(self.parse_literal())
            while self.accept_punct(","):
                body.append(self.parse_literal())
        self.expect("punct", ".")
        return Rule(head, body)

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while self.current.kind != "eof":
            rules.append(self.parse_rule())
        return Program(rules)

    def parse_conjunction(self) -> list[Atom]:
        atoms = [self.parse_atom()]
        while self.accept_punct(",") or self.accept_punct("&"):
            atoms.append(self.parse_atom())
        return atoms

    def parse_tgd(self):
        from ..core.tgds import Tgd

        lhs = self.parse_conjunction()
        self.expect("arrow")
        rhs = self.parse_conjunction()
        self.accept_punct(".")
        return Tgd(tuple(lhs), tuple(rhs))

    def parse_tgds(self):
        out = []
        while self.current.kind != "eof":
            out.append(self.parse_tgd())
        return out

    def finish(self) -> None:
        token = self.current
        if token.kind != "eof":
            raise ParseError(f"trailing input {token.text!r}", token.line, token.column)


def parse_program(source: str) -> Program:
    """Parse a whole program (zero or more rules/facts)."""
    parser = _Parser(source)
    program = parser.parse_program()
    parser.finish()
    return program


def parse_program_with_spans(source: str) -> ParsedProgram:
    """Parse a program and record where each rule sits in the source.

    The extra bookkeeping is one token lookup per rule; tools that point
    at findings (``repro-datalog lint``) use this entry point, everything
    else keeps :func:`parse_program`.
    """
    parser = _Parser(source)
    rules: list[Rule] = []
    spans: list[SourceSpan] = []
    while parser.current.kind != "eof":
        start = parser.current
        rules.append(parser.parse_rule())
        end = parser.tokens[parser.index - 1]  # the terminating "." token
        spans.append(SourceSpan(start.line, start.column, end.line, end.column))
    parser.finish()
    mapping: dict[Rule, SourceSpan] = {}
    for rule, span in zip(rules, spans):
        mapping.setdefault(rule, span)
    return ParsedProgram(Program(rules), mapping)


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule or fact."""
    parser = _Parser(source)
    rule = parser.parse_rule()
    parser.finish()
    return rule


def parse_atom(source: str) -> Atom:
    """Parse exactly one atom (no trailing period)."""
    parser = _Parser(source)
    atom = parser.parse_atom()
    parser.finish()
    return atom


def parse_tgd(source: str):
    """Parse one tgd, e.g. ``G(x, z) -> A(x, w)``."""
    parser = _Parser(source)
    tgd = parser.parse_tgd()
    parser.finish()
    return tgd


def parse_tgds(source: str):
    """Parse a sequence of tgds (each optionally ``.``-terminated)."""
    parser = _Parser(source)
    tgds = parser.parse_tgds()
    parser.finish()
    return tgds
