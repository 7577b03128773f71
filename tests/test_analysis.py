"""Unit tests for repro.analysis (dependence graphs, classification, safety)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    DependenceGraph,
    check_rule_source,
    is_initialization_rule,
    is_nonrecursive,
    profile,
    shares_initialization_rules,
)
from repro.analysis.dependence import strongly_connected_components
from repro.errors import ParseError
from repro.lang import parse_program


class TestDependenceGraph:
    def test_tc_is_recursive(self, tc):
        graph = DependenceGraph(tc)
        assert graph.is_recursive
        assert graph.recursive_predicates == {"G"}

    def test_nonrecursive_program(self):
        program = parse_program("G(x, z) :- A(x, z).")
        graph = DependenceGraph(program)
        assert not graph.is_recursive
        assert graph.recursive_predicates == frozenset()

    def test_recursive_rules(self, tc):
        graph = DependenceGraph(tc)
        recursive = graph.recursive_rules()
        assert len(recursive) == 1
        assert str(recursive[0]) == "G(x, z) :- G(x, y), G(y, z)."

    def test_mutual_recursion(self):
        program = parse_program(
            """
            P(x) :- A(x, y), Q(y).
            Q(x) :- B(x, y), P(y).
            """
        )
        graph = DependenceGraph(program)
        assert graph.recursive_predicates == {"P", "Q"}
        assert len(graph.recursive_rules()) == 2

    def test_linear_classification(self, tc, tc_linear):
        assert not DependenceGraph(tc).is_linear  # two recursive G atoms
        assert DependenceGraph(tc_linear).is_linear

    def test_condensation_order_topological(self):
        program = parse_program(
            """
            P(x) :- A(x).
            Q(x) :- P(x).
            R(x) :- Q(x), R(x).
            """
        )
        order = DependenceGraph(program).condensation_order()
        flat = [pred for component in order for pred in component]
        assert flat.index("P") < flat.index("Q") < flat.index("R")

    def test_ancestors(self):
        program = parse_program(
            """
            P(x) :- A(x).
            Q(x) :- P(x), B(x).
            R(x) :- Q(x), R(x).
            S(x) :- C(x).
            """
        )
        graph = DependenceGraph(program)
        assert graph.ancestors("R") == {"A", "B", "P", "Q"}  # itself excluded
        assert graph.ancestors("Q") == {"A", "B", "P"}
        assert graph.ancestors("A") == frozenset()
        assert graph.ancestors("Unknown") == frozenset()

    def test_negative_cycle_detection(self):
        program = parse_program(
            """
            P(x) :- A(x), not Q(x).
            Q(x) :- A(x), not P(x).
            """
        )
        assert DependenceGraph(program).has_negative_cycle()

    def test_negation_without_cycle_ok(self):
        program = parse_program(
            """
            P(x) :- A(x).
            Q(x) :- A(x), not P(x).
            """
        )
        assert not DependenceGraph(program).has_negative_cycle()


def _reachable(edges: dict[int, set[int]], start: int) -> set[int]:
    seen, frontier = {start}, [start]
    while frontier:
        for nxt in edges[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_tarjan_matches_mutual_reachability(pairs):
    edges: dict[int, set[int]] = {n: set() for n in range(8)}
    for source, target in pairs:
        edges[source].add(target)
    components = strongly_connected_components(edges, edges.__getitem__)
    reach = {n: _reachable(edges, n) for n in edges}
    expected = {frozenset(m for m in edges if n in reach[m] and m in reach[n]) for n in edges}
    assert set(components) == expected
    assert len(components) == len(expected)
    # Reverse topological: nothing reaches into an earlier component.
    position = {n: i for i, component in enumerate(components) for n in component}
    for source, target in pairs:
        assert position[target] <= position[source]


class TestProfile:
    def test_tc_profile(self, tc):
        info = profile(tc)
        assert info.rule_count == 2
        assert info.atom_count == 5
        assert info.is_recursive
        assert not info.is_linear
        assert info.initialization_rule_count == 1
        assert "recursive" in str(info)

    def test_is_nonrecursive(self, tc):
        assert not is_nonrecursive(tc)
        assert is_nonrecursive(parse_program("G(x, z) :- A(x, z)."))


class TestInitializationRules:
    def test_classification(self, tc):
        init, recursive = tc.rules
        assert is_initialization_rule(tc, init)
        assert not is_initialization_rule(tc, recursive)

    def test_shares_initialization_rules(self, tc, tc_linear):
        # Both TC variants share G(x,z) :- A(x,z).
        assert shares_initialization_rules(tc, tc_linear)

    def test_different_initialization_rules(self, tc):
        other = parse_program(
            """
            G(x, z) :- B(x, z).
            G(x, z) :- G(x, y), G(y, z).
            """
        )
        assert not shares_initialization_rules(tc, other)


class TestSafetyDiagnostics:
    def test_safe_rule_no_violations(self):
        assert check_rule_source("G(x, z) :- A(x, z).") == []

    def test_loose_head_variable(self):
        violations = check_rule_source("G(x, z) :- A(x, x).")
        assert len(violations) == 1
        assert violations[0].variable.name == "z"
        assert violations[0].location == "head"

    def test_loose_negated_variable(self):
        violations = check_rule_source("P(x) :- A(x), not B(y).")
        assert len(violations) == 1
        assert violations[0].location == "negated literal"

    def test_multiple_violations_reported(self):
        violations = check_rule_source("G(x, y, z) :- A(x, x).")
        assert {v.variable.name for v in violations} == {"y", "z"}

    def test_parse_errors_still_raise(self):
        with pytest.raises(ParseError):
            check_rule_source("G(x :- A(x).")

    def test_violation_message(self):
        violation = check_rule_source("G(x, z) :- A(x, x).")[0]
        assert "range-restricted" in str(violation)


class TestDependenceEdgeCases:
    def test_zero_ary_recursion_detected(self):
        program = parse_program("Go() :- Start().\nGo() :- Go(), Step().")
        graph = DependenceGraph(program)
        assert graph.is_recursive
        assert graph.recursive_predicates == {"Go"}
        assert not graph.has_negative_cycle()

    def test_head_negated_in_own_body(self):
        # P depends negatively on itself: a one-node negative cycle.
        program = parse_program("P(x) :- A(x), not P(x).")
        graph = DependenceGraph(program)
        assert graph.has_negative_cycle()
        assert graph.negative_cycle_predicates() == {"P"}
        assert graph.recursive_predicates == {"P"}

    def test_facts_only_program(self):
        program = parse_program("A(1, 2).\nA(2, 3).")
        graph = DependenceGraph(program)
        assert not graph.is_recursive
        assert not graph.has_negative_cycle()
        assert graph.negative_cycle_predicates() == frozenset()
        info = profile(program)
        assert info.rule_count == 2
        assert info.atom_count == 2
        assert not info.is_recursive
