"""Datalog language core: terms, atoms, rules, programs, parsing, freezing.

Quick construction helpers::

    from repro.lang import parse_program, variables, Atom

    program = parse_program('''
        G(x, z) :- A(x, z).
        G(x, z) :- G(x, y), G(y, z).
    ''')
    x, y = variables("x y")
    atom = Atom.of("A", x, 3)
"""

from __future__ import annotations

from .atoms import Atom, Literal, atoms_variables, coerce_term
from .canonical import (
    canonicalize_program,
    canonicalize_rule,
    modulo_body_order,
    programs_isomorphic,
    rules_isomorphic,
)
from .freeze import FrozenRule, freeze_atoms, freeze_rule
from .parser import (
    ParsedProgram,
    SourceSpan,
    parse_atom,
    parse_facts,
    parse_program,
    parse_program_with_spans,
    parse_rule,
    parse_tgd,
    parse_tgds,
)
from .rename import merge_disjoint, namespace, rename_predicates
from .pretty import (
    format_atom,
    format_atoms,
    format_database,
    format_facts,
    format_program,
    format_rule,
    format_tgd,
)
from .programs import Program, program_from_rules
from .serialize import (
    database_from_json,
    database_to_json,
    program_from_json,
    program_to_json,
)
from .rules import Rule
from .substitution import Substitution, match_atom, unify_atoms
from .terms import (
    Constant,
    FrozenConstant,
    GroundTerm,
    Null,
    NullFactory,
    Term,
    Variable,
    is_ground_term,
    term_sort_key,
)


def variables(names: str) -> tuple[Variable, ...]:
    """Create several variables from a whitespace-separated name string.

    >>> x, y, z = variables("x y z")
    """
    return tuple(Variable(n) for n in names.split())


def constants(*values) -> tuple[Constant, ...]:
    """Create several constants from Python ints/strings."""
    return tuple(Constant(v) for v in values)


__all__ = [
    "Atom",
    "Constant",
    "FrozenConstant",
    "FrozenRule",
    "GroundTerm",
    "Literal",
    "Null",
    "NullFactory",
    "ParsedProgram",
    "Program",
    "Rule",
    "SourceSpan",
    "Substitution",
    "Term",
    "Variable",
    "atoms_variables",
    "canonicalize_program",
    "canonicalize_rule",
    "coerce_term",
    "constants",
    "database_from_json",
    "database_to_json",
    "format_atom",
    "format_atoms",
    "format_database",
    "format_facts",
    "format_program",
    "format_rule",
    "format_tgd",
    "freeze_atoms",
    "freeze_rule",
    "is_ground_term",
    "match_atom",
    "merge_disjoint",
    "modulo_body_order",
    "namespace",
    "parse_atom",
    "parse_facts",
    "parse_program",
    "parse_program_with_spans",
    "parse_rule",
    "parse_tgd",
    "parse_tgds",
    "program_from_json",
    "programs_isomorphic",
    "program_from_rules",
    "program_to_json",
    "rename_predicates",
    "rules_isomorphic",
    "term_sort_key",
    "unify_atoms",
    "variables",
]
