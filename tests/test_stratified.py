"""Unit tests for stratified negation."""

from __future__ import annotations

import pytest

from repro import Database, Program, evaluate, evaluate_stratified, parse_program
from repro.engine.stratified import stratify
from repro.errors import StratificationError
from repro.lang import Atom


BACKENDS = ("rows", "columnar")


def facts_db(facts, backend="rows"):
    db = Database(backend=backend)
    for pred, rows in facts.items():
        for row in rows:
            db.add_fact(pred, *row)
    return db


class TestStratify:
    def test_positive_program_single_stratum(self, tc):
        strata = stratify(tc)
        assert strata.depth == 1
        assert strata.stratum_of["G"] == 0

    def test_negation_pushes_up(self):
        program = parse_program(
            """
            R(x, y) :- E(x, y).
            Un(x) :- Node(x), not R(x, x).
            """
        )
        strata = stratify(program)
        assert strata.stratum_of["R"] == 0
        assert strata.stratum_of["Un"] == 1
        assert strata.depth == 2

    def test_three_levels(self):
        program = parse_program(
            """
            P(x) :- A(x).
            Q(x) :- A(x), not P(x).
            S(x) :- A(x), not Q(x).
            """
        )
        strata = stratify(program)
        assert strata.stratum_of == {"P": 0, "Q": 1, "S": 2}

    def test_negative_cycle_rejected(self):
        program = parse_program(
            """
            P(x) :- A(x), not Q(x).
            Q(x) :- A(x), not P(x).
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_negation_into_recursion_rejected(self):
        program = parse_program(
            """
            P(x) :- A(x, y), P(y), not P(x).
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_empty_program(self):
        strata = stratify(parse_program(""))
        assert strata.depth == 0


class TestEvaluateStratified:
    def test_matches_positive_engine_on_positive_program(self, tc, ex2_edb):
        """Same model and the same work: each stratum saturates once."""
        for backend in BACKENDS:
            db = Database(backend=backend)
            db.update(ex2_edb)
            stratified = evaluate_stratified(tc, db)
            positive = evaluate(tc, db)
            assert stratified.database == positive.database
            assert stratified.stats.rule_firings == positive.stats.rule_firings
            assert stratified.stats.facts_derived == positive.stats.facts_derived

    def test_unreachable_pairs(self):
        program = parse_program(
            """
            R(x, y) :- E(x, y).
            R(x, y) :- E(x, z), R(z, y).
            Unreach(x, y) :- Node(x), Node(y), not R(x, y).
            """
        )
        db = Database.from_facts(
            {"E": [(1, 2), (2, 3)], "Node": [(1,), (2,), (3,)]}
        )
        out = evaluate_stratified(program, db).database
        assert out.count("R") == 3
        assert out.count("Unreach") == 6
        assert Atom.of("Unreach", 3, 1) in out
        assert Atom.of("Unreach", 1, 3) not in out

    def test_complement_via_negation(self):
        program = parse_program(
            """
            Big(x) :- Item(x, y), Threshold(y).
            Small(x) :- Name(x), not Big(x).
            """
        )
        db = Database.from_facts(
            {
                "Item": [("a", 10), ("b", 1)],
                "Threshold": [(10,)],
                "Name": [("a",), ("b",), ("c",)],
            }
        )
        out = evaluate_stratified(program, db).database
        expected = Database.from_facts({"Small": [("b",), ("c",)]})
        assert out.tuples("Small") == expected.tuples("Small")

    def test_recursion_above_negation(self):
        # Compute nodes not in the EDB relation Blocked, then closure
        # over them only.
        program = parse_program(
            """
            Ok(x) :- Node(x), not Blocked(x).
            R(x, y) :- E(x, y), Ok(x), Ok(y).
            R(x, y) :- R(x, z), R(z, y).
            """
        )
        db = Database.from_facts(
            {
                "E": [(1, 2), (2, 3), (3, 4)],
                "Node": [(1,), (2,), (3,), (4,)],
                "Blocked": [(3,)],
            }
        )
        out = evaluate_stratified(program, db).database
        assert Atom.of("R", 1, 3) not in out
        assert Atom.of("R", 1, 2) in out

    def test_input_not_mutated(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        db = Database.from_facts({"A": [(1,)], "B": []})
        before = len(db)
        evaluate_stratified(program, db)
        assert len(db) == before


#: ``(name, program, input facts, expected perfect model of the IDB)``:
#: a negated rule feeding a recursive rule of its own stratum, initial
#: facts for IDB predicates on both sides of a negation, and three
#: chained strata with a ground negated rule.
NEGATION_CASES = (
    (
        "negation-feeds-recursion",
        """
        Q(x) :- Mark(x).
        P(x) :- Node(x), not Q(x).
        P(y) :- P(x), E(x, y).
        """,
        {
            "Node": [(1,), (2,), (3,), (4,), (5,)],
            "Mark": [(1,), (2,), (3,)],
            "E": [(4, 1), (1, 2), (5, 5)],
        },
        {"Q": {(1,), (2,), (3,)}, "P": {(1,), (2,), (4,), (5,)}},
    ),
    (
        "initial-idb-facts",
        """
        R(x) :- S(x).
        R(y) :- R(x), E(x, y).
        U(x) :- Node(x), not R(x).
        U(y) :- U(x), F(x, y).
        """,
        {
            "S": [(1,)],
            "E": [(1, 2), (9, 10)],
            "Node": [(i,) for i in (1, 2, 3, 4, 5, 6, 9, 10, 11)],
            "F": [(7, 8), (3, 11)],
            "R": [(9,)],
            "U": [(7,)],
        },
        {
            "R": {(1,), (2,), (9,), (10,)},
            "U": {(3,), (4,), (5,), (6,), (7,), (8,), (11,)},
        },
    ),
    (
        "three-strata",
        """
        A(x) :- Base(x).
        A(y) :- A(x), E(x, y).
        B(x) :- Node(x), not A(x).
        B(y) :- B(x), F(x, y).
        C(x) :- Node(x), not B(x).
        C(9) :- not A(9).
        """,
        {
            "Base": [(1,)],
            "E": [(1, 2), (2, 3)],
            "Node": [(i,) for i in range(1, 7)],
            "F": [(4, 5), (5, 1)],
        },
        {
            "A": {(1,), (2,), (3,)},
            "B": {(1,), (4,), (5,), (6,)},
            "C": {(2,), (3,), (9,)},
        },
    ),
)


class TestStratumShapes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "source,facts,expected",
        [case[1:] for case in NEGATION_CASES],
        ids=[case[0] for case in NEGATION_CASES],
    )
    def test_perfect_model(self, source, facts, expected, backend):
        program = parse_program(source)
        out = evaluate(program, facts_db(facts, backend), engine="stratified").database
        model = {pred: set() for pred in expected}
        for atom in out.atoms():
            if atom.predicate in model:
                model[atom.predicate].add(tuple(term.value for term in atom.args))
        assert model == expected
        assert set(facts_db(facts).atoms()) <= set(out.atoms())


REACH_UNREACHED = parse_program(
    """
    Reach(x) :- S(x).
    Reach(y) :- Reach(x), A(x, y).
    Unreached(x) :- Node(x), not Reach(x).
    """
)


def reach_db(backend):
    facts = {
        "S": [(0,)],
        "A": [(i, i + 1) for i in range(12)] + [(20, 21), (21, 20)],
        "Node": [(i,) for i in range(25)],
    }
    return facts_db(facts, backend)


class TestOneRoundLoop:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negated_rule_fires_once_per_fact(self, backend):
        positive = Program([r for r in REACH_UNREACHED.rules if r.is_positive])
        stratified = evaluate(REACH_UNREACHED, reach_db(backend), engine="stratified")
        seminaive = evaluate(positive, reach_db(backend), engine="seminaive")
        unreached = stratified.database.count("Unreached")
        assert unreached == 12
        assert stratified.stats.rule_firings - seminaive.stats.rule_firings == unreached
