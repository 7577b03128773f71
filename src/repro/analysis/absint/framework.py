"""A monotone dataflow framework over the predicate dependence graph.

Every program-level judgment this package makes -- "predicate ``P`` is
provably empty", "this rule can never fire", "``G`` holds at most
``n²`` facts", "querying ``Sg(c, x)`` adorns ``Sg`` as ``bf``" -- is an
instance of one scheme: assign each predicate a value from an abstract
*lattice*, interpret each rule as a monotone *transfer function* from
body values to a head value, and iterate to a fixpoint.  This module is
that scheme; the concrete lattices live in the sibling modules
(:mod:`.sorts`, :mod:`.cardinality`, :mod:`.groundness`,
:mod:`.recursion`).

The fixpoint is computed SCC by SCC in the topological order of the
dependence graph's condensation (Section III of the paper):

* a non-recursive SCC needs exactly one pass over its rules, since all
  body values are already final;
* a recursive SCC is iterated until its values stabilise, with
  *widening* (:meth:`AbstractDomain.widen`) applied after
  ``widen_after`` rounds so that infinite-height domains (cardinality
  intervals) still terminate.

:class:`ProgramFacts` is the shared structural precomputation -- the
dependence graph, its SCCs, per-rule join-graph components and variable
occurrence counts -- computed once and consumed by every domain *and* by
the structural lint passes, which previously each re-derived their own
copy per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Generic, Mapping, TypeVar

from ...lang.programs import Program
from ...lang.rules import Rule
from ...lang.terms import Variable
from ...obs.metrics import metrics_registry
from ..dependence import DependenceGraph

V = TypeVar("V")

#: Rounds of plain joining inside a recursive SCC before the framework
#: switches to widening.  Small on purpose: every concrete domain here
#: either has finite height (so widening never fires) or gains nothing
#: from deeper plain iteration (intervals grow forever without it).
WIDEN_AFTER = 4

#: Hard backstop on rounds per SCC; reaching it means a domain's widen
#: is not an upper-bound operator (a bug), so we fail loudly.
MAX_ROUNDS_PER_SCC = 64


class ProgramFacts:
    """Structural facts about one program, computed once and shared.

    The lint passes and the abstract domains all need the same cheap
    structure: the dependence graph and its SCCs, which rules define
    which predicate, how a rule body partitions into variable-connected
    components, and how often each variable occurs.  Instances are
    cached per :class:`~repro.analysis.lint.LintContext` and per
    analysis run, so the graph is built once per program instead of
    once per pass.
    """

    def __init__(self, program: Program):
        self.program = program

    @cached_property
    def dependence(self) -> DependenceGraph:
        return DependenceGraph(self.program)

    @cached_property
    def scc_order(self) -> tuple[frozenset[str], ...]:
        """SCCs of the dependence graph in topological order."""
        return self.dependence.condensation_order()

    @cached_property
    def recursive_predicates(self) -> frozenset[str]:
        return self.dependence.recursive_predicates

    def is_recursive_scc(self, scc: frozenset[str]) -> bool:
        """Whether *scc* contains a cycle (size > 1 or a self-loop)."""
        if len(scc) > 1:
            return True
        (node,) = scc
        return node in self.recursive_predicates

    @cached_property
    def rules_by_head(self) -> dict[str, tuple[tuple[int, Rule], ...]]:
        """Head predicate -> ``(program index, rule)`` pairs."""
        out: dict[str, list[tuple[int, Rule]]] = {}
        for index, rule in enumerate(self.program.rules):
            out.setdefault(rule.head.predicate, []).append((index, rule))
        return {pred: tuple(pairs) for pred, pairs in out.items()}

    def reachable_from(self, goals: frozenset[str]) -> frozenset[str]:
        """Predicates from which some goal predicate is reachable.

        The reachability set of :mod:`repro.analysis.relevance`, but
        computed against the shared graph (one traversal per goal, no
        per-call graph construction).
        """
        out: set[str] = set(goals)
        for goal in goals:
            out |= self.dependence.ancestors(goal)
        return frozenset(out)

    def join_components(self, rule: Rule) -> list[set[int]]:
        """Body-literal indexes grouped by shared variables.

        Only literals that carry variables participate (ground guards
        contribute a factor of 0 or 1 to a join and are exempt).  Two
        groups mean the body is a cartesian product.  Memoised per rule.
        """
        cached = self._component_cache.get(rule)
        if cached is None:
            indexed = [
                (i, lit.atom.variable_set())
                for i, lit in enumerate(rule.body)
                if lit.atom.variable_set()
            ]
            components: list[tuple[set[int], set]] = []
            for index, variables in indexed:
                touching = [c for c in components if c[1] & variables]
                merged_indexes = {index}
                merged_vars = set(variables)
                for component in touching:
                    merged_indexes |= component[0]
                    merged_vars |= component[1]
                    components.remove(component)
                components.append((merged_indexes, merged_vars))
            cached = [indexes for indexes, _vars in components]
            self._component_cache[rule] = cached
        return cached

    @cached_property
    def _component_cache(self) -> dict[Rule, list[set[int]]]:
        return {}

    def variable_occurrences(self, rule: Rule) -> dict[Variable, int]:
        """Occurrence count of every variable in *rule* (head + body)."""
        cached = self._occurrence_cache.get(rule)
        if cached is None:
            counts: dict[Variable, int] = {}
            for var in rule.head.variables():
                counts[var] = counts.get(var, 0) + 1
            for literal in rule.body:
                for var in literal.atom.variables():
                    counts[var] = counts.get(var, 0) + 1
            cached = counts
            self._occurrence_cache[rule] = cached
        return cached

    @cached_property
    def _occurrence_cache(self) -> dict[Rule, dict[Variable, int]]:
        return {}


class AbstractDomain(Generic[V]):
    """One abstract lattice plus its per-rule transfer function.

    Subclasses define:

    * ``name`` -- the metrics/reporting identifier;
    * :meth:`bottom` -- the least value (no facts proven derivable);
    * :meth:`edb_value` -- the value of an extensional predicate, about
      whose contents nothing is known statically;
    * :meth:`join` -- least upper bound;
    * :meth:`transfer` -- the head value one rule derives from the
      current state, or ``None`` when the body is unsatisfiable under
      the abstraction (the rule contributes nothing);
    * optionally :meth:`widen` -- an upper-bound operator that forces
      convergence on infinite-height lattices (defaults to ``join``).

    Values must support ``==``; the fixpoint driver detects stability
    through equality.
    """

    name: str = ""

    def bottom(self, predicate: str, arity: int) -> V:  # pragma: no cover
        raise NotImplementedError

    def edb_value(self, predicate: str, arity: int) -> V:  # pragma: no cover
        raise NotImplementedError

    def join(self, old: V, new: V) -> V:  # pragma: no cover
        raise NotImplementedError

    def widen(self, old: V, new: V) -> V:
        return self.join(old, new)

    def transfer(
        self, rule: Rule, state: Mapping[str, V], facts: ProgramFacts
    ) -> V | None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class FixpointResult(Generic[V]):
    """The stabilised predicate assignment plus fixpoint accounting."""

    values: dict[str, V]
    iterations: int
    widenings: int

    def __getitem__(self, predicate: str) -> V:
        return self.values[predicate]


def analyze(
    program: Program,
    domain: AbstractDomain[V],
    facts: ProgramFacts | None = None,
    widen_after: int = WIDEN_AFTER,
) -> FixpointResult[V]:
    """Run *domain* to fixpoint over *program*, SCC by SCC.

    Returns the least fixpoint of the domain's transfer functions (up
    to widening) as a predicate -> value mapping covering every
    predicate of the program.  Counters are published to the metrics
    registry under ``analysis.*``.
    """
    if facts is None:
        facts = ProgramFacts(program)
    arities = program.arities
    state: dict[str, V] = {}
    for pred in program.edb_predicates:
        state[pred] = domain.edb_value(pred, arities[pred])
    for pred in program.idb_predicates:
        state[pred] = domain.bottom(pred, arities[pred])

    iterations = 0
    widenings = 0
    for scc in facts.scc_order:
        scc_rules: list[Rule] = []
        for pred in sorted(scc):
            scc_rules.extend(rule for _i, rule in facts.rules_by_head.get(pred, ()))
        if not scc_rules:
            continue  # pure-EDB SCC: nothing to compute
        recursive = facts.is_recursive_scc(scc)
        rounds = 0
        changed = True
        while changed:
            rounds += 1
            iterations += 1
            if rounds > MAX_ROUNDS_PER_SCC:
                raise RuntimeError(
                    f"abstract domain {domain.name!r} failed to converge on "
                    f"SCC {sorted(scc)} after {MAX_ROUNDS_PER_SCC} rounds "
                    "(widen is not an upper bound?)"
                )
            changed = False
            for rule in scc_rules:
                value = domain.transfer(rule, state, facts)
                if value is None:
                    continue
                head = rule.head.predicate
                joined = domain.join(state[head], value)
                if rounds > widen_after:
                    widened = domain.widen(state[head], joined)
                    if widened != joined:
                        widenings += 1
                    joined = widened
                if joined != state[head]:
                    state[head] = joined
                    changed = True
            if not recursive:
                break  # one pass is the fixpoint: body values were final
    metrics_registry().record_analysis(domain.name, iterations, widenings)
    return FixpointResult(values=state, iterations=iterations, widenings=widenings)


__all__ = [
    "AbstractDomain",
    "FixpointResult",
    "MAX_ROUNDS_PER_SCC",
    "ProgramFacts",
    "WIDEN_AFTER",
    "analyze",
]
