"""Dependence graphs and recursion analysis (Section III).

"A program P has an associated directed graph, called the dependence
graph, that has a node for each predicate of the program, and an edge
from predicate Q to predicate R whenever predicate Q is in the body of
some rule and predicate R is in the head of that same rule."

* ``P`` is *recursive* if the graph has a cycle.
* A *predicate* is recursive if it lies on a cycle through itself.
* A *rule* is recursive if some cycle includes the head predicate and a
  body predicate of that rule -- in particular whenever the head
  predicate also occurs in the body.
* A program is *linear* if each rule's body contains at most one
  recursive predicate (the class for which the paper notes the
  undecidability results already hold).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Iterable, TypeVar

from ..lang.programs import Program
from ..lang.rules import Rule

N = TypeVar("N", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[N], successors: Callable[[N], Iterable[N]]
) -> list[frozenset[N]]:
    """Tarjan's algorithm, iterative: the SCCs in reverse topological order.

    A component is emitted only after every component reachable from it,
    so sinks come first.  *successors* is called on every node reached,
    whether or not *nodes* lists it.
    """
    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    out: list[frozenset[N]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(frozenset(component))
    return out


class DependenceGraph:
    """The paper's dependence graph, with recursion queries.

    ``edges[q][r]`` exists when ``q`` occurs in the body of a rule with
    head ``r``; its value is ``True`` if *any* inducing occurrence is
    negated, which the stratified extension uses.  Nodes and edges keep
    the program's rule order, so every traversal is deterministic.
    """

    def __init__(self, program: Program):
        self.program = program
        edges: dict[str, dict[str, bool]] = {}
        for rule in program.rules:
            head = rule.head.predicate
            edges.setdefault(head, {})
            for literal in rule.body:
                successors = edges.setdefault(literal.predicate, {})
                successors[head] = successors.get(head, False) or not literal.positive
        self.edges = edges

    @cached_property
    def _components(self) -> list[frozenset[str]]:
        """Every SCC, in reverse topological order."""
        return strongly_connected_components(self.edges, self.edges.__getitem__)

    @cached_property
    def _cyclic_components(self) -> tuple[frozenset[str], ...]:
        out = []
        for component in self._components:
            node = next(iter(component))
            if len(component) > 1 or node in self.edges[node]:
                out.append(component)
        return tuple(out)

    @cached_property
    def recursive_predicates(self) -> frozenset[str]:
        """Predicates lying on some cycle (necessarily intensional)."""
        out: set[str] = set()
        for component in self._cyclic_components:
            out.update(component)
        return frozenset(out)

    @property
    def is_recursive(self) -> bool:
        """Whether the *program* is recursive (graph has a cycle)."""
        return bool(self._cyclic_components)

    def is_recursive_rule(self, rule: Rule) -> bool:
        """Whether some cycle joins the rule's head and a body predicate."""
        head = rule.head.predicate
        for component in self._cyclic_components:
            if head in component and any(
                lit.predicate in component for lit in rule.body
            ):
                return True
        return False

    def recursive_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.program.rules if self.is_recursive_rule(r))

    @property
    def is_linear(self) -> bool:
        """At most one recursive-predicate occurrence per rule body."""
        recursive = self.recursive_predicates
        for rule in self.program.rules:
            count = sum(1 for lit in rule.body if lit.predicate in recursive)
            if count > 1:
                return False
        return True

    def condensation_order(self) -> tuple[frozenset[str], ...]:
        """SCCs in a topological order (useful for stratified planning)."""
        return tuple(reversed(self._components))

    def ancestors(self, predicate: str) -> frozenset[str]:
        """Predicates from which *predicate* is reachable (itself excluded)."""
        predecessors = self._predecessors
        seen: set[str] = set()
        frontier = [predicate]
        while frontier:
            for source in predecessors.get(frontier.pop(), ()):
                if source not in seen:
                    seen.add(source)
                    frontier.append(source)
        seen.discard(predicate)
        return frozenset(seen)

    @cached_property
    def _predecessors(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for source, targets in self.edges.items():
            for target in targets:
                out.setdefault(target, []).append(source)
        return out

    def has_negative_cycle(self) -> bool:
        """Whether any cycle contains a negative edge (unstratifiable)."""
        return bool(self.negative_cycle_predicates())

    def negative_cycle_predicates(self) -> frozenset[str]:
        """The predicates of every SCC whose cycle crosses a negative edge.

        Non-empty exactly when the program is unstratifiable; the linter
        names these predicates in its ``unstratifiable`` diagnostic.
        """
        out: set[str] = set()
        for component in self._cyclic_components:
            if any(
                negative and target in component
                for source in component
                for target, negative in self.edges[source].items()
            ):
                out.update(component)
        return frozenset(out)
