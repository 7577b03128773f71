"""Pretty-printing helpers.

``str()`` on any AST object already produces parseable source text; this
module adds multi-line formatting, alignment, and round-trip helpers
used by the CLI, the examples, and EXPERIMENTS.md generation.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, TYPE_CHECKING

from .atoms import Atom
from .programs import Program
from .rules import Rule
from .terms import term_sort_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.tgds import Tgd
    from ..data.database import Database


def format_atom(atom: Atom) -> str:
    """Render one atom, identical to ``str(atom)``."""
    return str(atom)


def format_rule(rule: Rule, align_at: int | None = None) -> str:
    """Render one rule; optionally pad the head to *align_at* columns."""
    if not rule.body:
        return f"{rule.head}."
    head = str(rule.head)
    if align_at is not None:
        head = head.ljust(align_at)
    inner = ", ".join(str(lit) for lit in rule.body)
    return f"{head} :- {inner}."


def format_program(program: Program, align: bool = True) -> str:
    """Render a program one rule per line, heads column-aligned.

    The output is valid input for :func:`repro.lang.parser.parse_program`.
    """
    if not program.rules:
        return ""
    width = max(len(str(r.head)) for r in program.rules) if align else None
    return "\n".join(format_rule(r, width) for r in program.rules)


def format_tgd(tgd: "Tgd") -> str:
    """Render a tgd as ``LHS -> RHS`` with ``&``-joined conjunctions."""
    lhs = ", ".join(str(a) for a in tgd.lhs)
    rhs = " & ".join(str(a) for a in tgd.rhs)
    return f"{lhs} -> {rhs}"


def _fact_texts(
    relations: list[tuple[str, Collection[tuple]]], decode=None, sort: bool = True
) -> list[tuple[str, list[str]]]:
    """``(predicate, fact texts)`` for each ``(predicate, rows)`` of *relations*.

    The rows of one relation share one arity.  With *sort*, they come in
    :func:`term_sort_key` order -- :meth:`Atom.sort_key` order, the
    predicate and arity being fixed.  *decode* maps a tuple of stored
    values to Terms (a database's ``decode_row``); ``None`` means the
    values already are Terms.

    Each distinct value object is decoded, ranked and printed once, and
    the per-row work runs in C (``map``/``zip``/``join``).  The memo is
    keyed by ``id()``: hashing a Term dataclass runs Python code, and the
    rows keep every keyed object alive for the whole call.  Equal values
    held by different objects share one rank.
    """
    relations = [(predicate, list(rows)) for predicate, rows in relations]
    flat = list(chain.from_iterable(chain.from_iterable(rows for _p, rows in relations)))
    values = list(dict(zip(map(id, flat), flat)).values())
    terms = values if decode is None else decode(tuple(values))
    keys = [term_sort_key(term) for term in terms]
    rank: dict[int, int] = {}
    text: dict[int, str] = {}
    previous, current = None, -1
    for i in sorted(range(len(values)), key=keys.__getitem__):
        if keys[i] != previous:
            previous = keys[i]
            current = len(rank)
        rank[id(values[i])] = current
        text[id(values[i])] = str(terms[i])
    out = []
    for predicate, rows in relations:
        arity = len(rows[0]) if rows else 0
        if arity == 0:
            out.append((predicate, [f"{predicate}()"] * len(rows)))
            continue
        ids = list(map(id, chain.from_iterable(rows)))
        args = map(", ".join, zip(*[map(text.__getitem__, ids)] * arity))
        texts = [f"{predicate}({inner})" for inner in args]
        if sort:
            row_ranks = list(zip(*[map(rank.__getitem__, ids)] * arity))
            texts = [texts[i] for i in sorted(range(len(texts)), key=row_ranks.__getitem__)]
        out.append((predicate, texts))
    return out


def _database_texts(db: "Database", sort: bool) -> list[tuple[str, list[str]]]:
    """:func:`_fact_texts` of every predicate of *db*, by predicate name."""
    return _fact_texts([(p, db.tuples(p)) for p in sorted(db.predicates)], db.decode_row, sort)


def format_atoms(atoms: Iterable[Atom], sort: bool = True) -> str:
    """Render a set of atoms as ``{A(1,2), G(1,4), ...}``, in :meth:`Atom.sort_key` order."""
    if not sort:
        return "{" + ", ".join(str(a) for a in atoms) + "}"
    groups: dict[tuple[str, int], list[tuple]] = {}
    for atom in atoms:
        groups.setdefault((atom.predicate, atom.arity), []).append(atom.args)
    relations = [(pred, groups[pred, arity]) for pred, arity in sorted(groups)]
    return "{" + ", ".join(t for _pred, texts in _fact_texts(relations) for t in texts) + "}"


def format_database(db: "Database", sort: bool = True) -> str:
    """Render a database grouped by predicate, one predicate per line."""
    return "\n".join(f"{pred}: {', '.join(texts)}" for pred, texts in _database_texts(db, sort))


def format_facts(db: "Database") -> str:
    """Render a database one fact per line, in :meth:`Atom.sort_key` order."""
    return "\n".join(text for _pred, texts in _database_texts(db, True) for text in texts)
