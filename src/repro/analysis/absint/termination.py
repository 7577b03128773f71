"""Chase-termination certificates: the fifth abstract domain.

The chase with embedded tgds (Section VIII) is only semi-decidable:
:mod:`repro.core.chase` runs under a :class:`~repro.core.chase.ChaseBudget`
and answers ``UNKNOWN`` whenever the budget trips.  This domain
classifies a program + tgd set into a hierarchy of *syntactic* classes
that certify, before a single chase round runs, either that every chase
sequence terminates or that query answering is decidable anyway:

    full-only ⊂ weakly acyclic ⊂ jointly acyclic      (chase terminates)
    sticky ⊆ weakly sticky                            (answering decidable)
    unknown                                           (no certificate)

* **full-only** -- no tgd has an existential variable; no nulls are ever
  invented, so the chase is an ordinary Datalog fixpoint.
* **weakly acyclic** (Fagin-Kolaitis-Miller-Popa) -- the *position
  graph* (ordinary edges track value propagation between predicate
  positions, special edges track null creation) has no cycle through a
  special edge.  Every chase sequence terminates, and the rank
  stratification of positions yields a sound bound on the number of
  distinct values -- :meth:`TerminationCertificate.value_bound` -- that
  :func:`repro.core.chase.certified_budget` turns into a budget large
  enough to reach saturation.
* **jointly acyclic** (Krötzsch-Rudolph) -- the existential-variable
  dependency graph over move sets ``Ω(y)`` is acyclic; strictly more
  tgd sets than weak acyclicity, same termination guarantee.
* **sticky / weakly sticky** (Calì-Gottlob-Pieris; Milani-Bertossi) --
  the marked-variable propagation proves every join value "sticks" to
  all derived atoms (sticky), or does so except at finite-rank
  positions (weakly sticky).  The chase may still diverge, but query
  answering over the infinite canonical model is decidable, so a
  budget-tripped ``UNKNOWN`` is a true "don't know" only for the
  chase, not for the theory.

The classifier exports its *evidence* -- the position graph, the
offending special-edge cycle, the marked-variable trace -- in the
``analyze`` JSON schema, and two lint passes
(``weakly-acyclic-certified``, ``nonterminating-chase-risk``) surface
the verdict next to the other static findings.

Program rules participate as full tgds (body → head): they invent no
nulls but do move values between positions, so ranks and move sets
stay sound for the alternating rules-then-tgds chase of
:func:`repro.core.chase.chase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from ...core.tgds import Tgd
from ...lang.programs import Program
from ...lang.terms import Variable

#: A predicate position ``(predicate, index)``, 1-based as in the
#: data-exchange literature: ``("A", 1)`` prints as ``A.1``.
Position = tuple[str, int]

#: Classification labels, strongest (smallest class) first.
FULL_ONLY = "full-only"
WEAKLY_ACYCLIC = "weakly-acyclic"
JOINTLY_ACYCLIC = "jointly-acyclic"
STICKY = "sticky"
WEAKLY_STICKY = "weakly-sticky"
UNKNOWN_CLASS = "unknown"

#: Labels that certify chase termination (every chase sequence finite).
TERMINATING_CLASSES = frozenset({FULL_ONLY, WEAKLY_ACYCLIC, JOINTLY_ACYCLIC})

#: Labels that certify decidable query answering without certifying a
#: finite chase.
DECIDABLE_CLASSES = TERMINATING_CLASSES | frozenset({STICKY, WEAKLY_STICKY})

#: Ceiling applied while iterating the value-bound recurrence, so a
#: certified-but-enormous bound cannot produce bignum blowups; a capped
#: bound is still *sound* (it only under-reports how far the chase may
#: safely run, never over-reports saturation).
VALUE_BOUND_CAP = 10**9


def format_position(position: Position) -> str:
    return f"{position[0]}.{position[1]}"


@dataclass(frozen=True)
class PositionEdge:
    """One position-graph edge, contributed by one dependency."""

    source: Position
    target: Position
    special: bool
    #: Human-readable origin, ``tgd[i]`` or ``rule[i]``.
    origin: str

    def describe(self) -> str:
        arrow = "-*->" if self.special else "--->"
        return f"{format_position(self.source)} {arrow} {format_position(self.target)}  ({self.origin})"

    def to_dict(self) -> dict:
        return {
            "from": format_position(self.source),
            "to": format_position(self.target),
            "special": self.special,
            "origin": self.origin,
        }


def _variable_positions(atoms: Sequence, var: Variable) -> Iterator[Position]:
    for atom in atoms:
        for index, term in enumerate(atom.args, start=1):
            if term == var:
                yield (atom.predicate, index)


def _all_positions(deps: Sequence[tuple[str, Tgd]]) -> frozenset[Position]:
    out: set[Position] = set()
    for _origin, dep in deps:
        for atom in dep.lhs + dep.rhs:
            for index in range(1, atom.arity + 1):
                out.add((atom.predicate, index))
    return frozenset(out)


class PositionGraph:
    """The Fagin et al. dependency graph over predicate positions.

    For every dependency ``φ(x̄) → ∃ȳ ψ(x̄, ȳ)`` and every universal
    variable ``x`` occurring in ``ψ``, from each lhs position ``p`` of
    ``x``:

    * an **ordinary** edge ``p → q`` to each rhs position ``q`` of ``x``
      (a value is copied);
    * a **special** edge ``p →* r`` to each rhs position ``r`` of each
      existential variable ``y`` (a fresh null's identity depends on
      the value at ``p``).
    """

    def __init__(self, deps: Sequence[tuple[str, Tgd]]):
        self.deps = tuple(deps)
        self.positions = _all_positions(self.deps)
        edges: list[PositionEdge] = []
        seen: set[tuple[Position, Position, bool]] = set()
        for origin, dep in self.deps:
            for x in sorted(dep.universal_variables, key=lambda v: v.name):
                rhs_positions = list(_variable_positions(dep.rhs, x))
                if not rhs_positions:
                    continue  # x is not propagated: no edges originate here
                lhs_positions = list(_variable_positions(dep.lhs, x))
                existential_positions = [
                    r
                    for y in sorted(dep.existential_variables, key=lambda v: v.name)
                    for r in _variable_positions(dep.rhs, y)
                ]
                for p in lhs_positions:
                    for q in rhs_positions:
                        key = (p, q, False)
                        if key not in seen:
                            seen.add(key)
                            edges.append(PositionEdge(p, q, False, origin))
                    for r in existential_positions:
                        key = (p, r, True)
                        if key not in seen:
                            seen.add(key)
                            edges.append(PositionEdge(p, r, True, origin))
        self.edges = tuple(edges)

    @cached_property
    def _adjacency(self) -> dict[Position, tuple[PositionEdge, ...]]:
        out: dict[Position, list[PositionEdge]] = {}
        for edge in self.edges:
            out.setdefault(edge.source, []).append(edge)
        return {p: tuple(es) for p, es in out.items()}

    @cached_property
    def _sccs(self) -> tuple[frozenset[Position], ...]:
        """Strongly connected components, in reverse topological order."""
        from ..dependence import strongly_connected_components

        adjacency = self._adjacency
        return tuple(
            strongly_connected_components(
                self.positions, lambda p: (e.target for e in adjacency.get(p, ()))
            )
        )

    @cached_property
    def _scc_of(self) -> dict[Position, int]:
        return {p: i for i, scc in enumerate(self._sccs) for p in scc}

    @cached_property
    def special_cycle(self) -> Optional[tuple[PositionEdge, ...]]:
        """A cycle through a special edge, as evidence; ``None`` if WA.

        The witness is one special edge whose endpoints share an SCC,
        closed into a cycle by a shortest intra-SCC path back.
        """
        scc_of = self._scc_of
        for edge in self.edges:
            if not edge.special:
                continue
            if scc_of[edge.source] != scc_of[edge.target]:
                continue
            return (edge,) + tuple(
                self._path_within_scc(edge.target, edge.source)
            )
        return None

    def _path_within_scc(self, start: Position, goal: Position) -> list[PositionEdge]:
        """Shortest edge path ``start → goal`` inside one SCC (BFS)."""
        if start == goal:
            return []
        scc = self._scc_of[start]
        frontier = [start]
        came_from: dict[Position, PositionEdge] = {}
        while frontier:
            nxt: list[Position] = []
            for node in frontier:
                for edge in self._adjacency.get(node, ()):
                    if self._scc_of.get(edge.target) != scc or edge.target in came_from:
                        continue
                    came_from[edge.target] = edge
                    if edge.target == goal:
                        path = [edge]
                        while path[0].source != start:
                            path.insert(0, came_from[path[0].source])
                        return path
                    nxt.append(edge.target)
            frontier = nxt
        return []  # pragma: no cover - SCC membership guarantees a path

    @property
    def weakly_acyclic(self) -> bool:
        return self.special_cycle is None

    @cached_property
    def ranks(self) -> dict[Position, Optional[int]]:
        """Max special edges on any path into each position.

        ``None`` means infinite: the position is reachable from a cycle
        through a special edge, so unboundedly many fresh nulls may land
        there.  Every position is finite-ranked iff the set is weakly
        acyclic; the finite ranks also power the *weakly sticky* test on
        non-WA sets (Milani-Bertossi: a repeated marked variable is
        harmless at a finite-rank position).
        """
        scc_of = self._scc_of
        infinite_sccs = {
            scc_of[e.source]
            for e in self.edges
            if e.special and scc_of[e.source] == scc_of[e.target]
        }
        # SCC condensation edges, then one monotone pass in topological
        # order (self._sccs is reverse-topological).
        order = list(range(len(self._sccs)))[::-1]
        scc_rank: dict[int, Optional[int]] = {i: 0 for i in order}
        incoming: dict[int, list[tuple[int, bool]]] = {i: [] for i in order}
        for edge in self.edges:
            s, t = scc_of[edge.source], scc_of[edge.target]
            if s != t:
                incoming[t].append((s, edge.special))
        for scc in order:
            if scc in infinite_sccs:
                scc_rank[scc] = None
                continue
            best = 0
            for source, special in incoming[scc]:
                upstream = scc_rank[source]
                if upstream is None:
                    best = None
                    break
                best = max(best, upstream + (1 if special else 0))
            scc_rank[scc] = best
        # Infinity propagates downstream of an infinite SCC.
        for scc in order:
            if scc_rank[scc] is None:
                for target, pairs in incoming.items():
                    if any(s == scc for s, _sp in pairs):
                        scc_rank[target] = None
        return {p: scc_rank[scc_of[p]] for p in self.positions}

    @property
    def max_finite_rank(self) -> int:
        finite = [r for r in self.ranks.values() if r is not None]
        return max(finite, default=0)

    def to_dict(self) -> dict:
        ranks = self.ranks
        return {
            "positions": {
                format_position(p): ranks[p]
                for p in sorted(self.positions)
            },
            "edges": [e.to_dict() for e in self.edges],
        }


# -- stickiness ---------------------------------------------------------------


@dataclass(frozen=True)
class MarkStep:
    """One step of the Calì-Gottlob-Pieris marking procedure."""

    origin: str  # dependency whose body variable was marked
    variable: str
    reason: str

    def to_dict(self) -> dict:
        return {"dependency": self.origin, "variable": self.variable, "reason": self.reason}


@dataclass(frozen=True)
class StickyViolation:
    """A marked variable joining (≥2 lhs occurrences) in one dependency."""

    origin: str
    variable: str
    occurrences: tuple[str, ...]  # formatted positions
    #: Occurrence positions of finite rank (non-empty ⇒ weakly sticky OK
    #: for this violation).
    finite_rank_occurrences: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "dependency": self.origin,
            "variable": self.variable,
            "occurrences": list(self.occurrences),
            "finite_rank_occurrences": list(self.finite_rank_occurrences),
        }


def _sticky_marking(
    deps: Sequence[tuple[str, Tgd]]
) -> tuple[frozenset[tuple[int, Variable]], tuple[MarkStep, ...]]:
    """The marked body variables, with the trace of why each was marked."""
    marked: set[tuple[int, Variable]] = set()
    trace: list[MarkStep] = []

    def mark(index: int, var: Variable, reason: str) -> bool:
        if (index, var) in marked:
            return False
        marked.add((index, var))
        trace.append(MarkStep(deps[index][0], var.name, reason))
        return True

    # Initial step: a body variable absent from some head atom loses its
    # value on that derivation path -- mark it.
    for index, (_origin, dep) in enumerate(deps):
        for var in sorted(dep.universal_variables, key=lambda v: v.name):
            for atom in dep.rhs:
                if var not in atom.variable_set():
                    mark(index, var, f"missing from head atom {atom}")
                    break
    # Propagation: a value fed into a position where some dependency
    # reads a marked variable is itself at risk of being dropped later.
    marked_lhs_positions: set[Position] = set()

    def refresh_positions() -> None:
        marked_lhs_positions.clear()
        for index, var in marked:
            marked_lhs_positions.update(_variable_positions(deps[index][1].lhs, var))

    refresh_positions()
    changed = True
    while changed:
        changed = False
        for index, (_origin, dep) in enumerate(deps):
            for var in sorted(dep.universal_variables, key=lambda v: v.name):
                if (index, var) in marked:
                    continue
                hit = next(
                    (
                        q
                        for q in _variable_positions(dep.rhs, var)
                        if q in marked_lhs_positions
                    ),
                    None,
                )
                if hit is not None:
                    mark(
                        index,
                        var,
                        f"propagates into marked position {format_position(hit)}",
                    )
                    refresh_positions()
                    changed = True
    return frozenset(marked), tuple(trace)


def _sticky_violations(
    deps: Sequence[tuple[str, Tgd]],
    marked: frozenset[tuple[int, Variable]],
    ranks: dict[Position, Optional[int]],
) -> tuple[StickyViolation, ...]:
    violations: list[StickyViolation] = []
    for index, var in sorted(marked, key=lambda iv: (iv[0], iv[1].name)):
        origin, dep = deps[index]
        occurrences = [
            (atom.predicate, pos)
            for atom in dep.lhs
            for pos, term in enumerate(atom.args, start=1)
            if term == var
        ]
        if len(occurrences) < 2:
            continue
        finite = [p for p in occurrences if ranks.get(p) is not None]
        violations.append(
            StickyViolation(
                origin=origin,
                variable=var.name,
                occurrences=tuple(format_position(p) for p in occurrences),
                finite_rank_occurrences=tuple(format_position(p) for p in finite),
            )
        )
    return tuple(violations)


# -- joint acyclicity ---------------------------------------------------------


def _joint_acyclicity(
    deps: Sequence[tuple[str, Tgd]]
) -> tuple[bool, int, Optional[tuple[str, ...]]]:
    """Krötzsch-Rudolph joint acyclicity.

    Returns ``(acyclic, depth, cycle)`` where *depth* is the longest
    path in the existential dependency graph (drives the value-bound
    recurrence) and *cycle* names the offending existential variables
    when the test fails.
    """
    existentials: list[tuple[int, Variable]] = [
        (i, y)
        for i, (_o, dep) in enumerate(deps)
        for y in sorted(dep.existential_variables, key=lambda v: v.name)
    ]
    if not existentials:
        return True, 0, None
    # Move sets Ω(y): all positions a null created for y may reach.
    omegas: dict[tuple[int, Variable], set[Position]] = {}
    for key in existentials:
        index, y = key
        omega = set(_variable_positions(deps[index][1].rhs, y))
        changed = True
        while changed:
            changed = False
            for _origin, dep in deps:
                for x in dep.universal_variables:
                    lhs_pos = set(_variable_positions(dep.lhs, x))
                    if lhs_pos and lhs_pos <= omega:
                        rhs_pos = set(_variable_positions(dep.rhs, x))
                        if not rhs_pos <= omega:
                            omega |= rhs_pos
                            changed = True
        omegas[key] = omega
    # y → z when z's dependency can consume a y-null through one of its
    # *frontier* variables (universal, exported to the head) with all
    # body occurrences inside Ω(y).  Non-frontier variables cannot
    # transport the null into new atoms, so they contribute no edge.
    edges: dict[tuple[int, Variable], set[tuple[int, Variable]]] = {
        key: set() for key in existentials
    }
    for key in existentials:
        omega = omegas[key]
        for j, (_origin, dep) in enumerate(deps):
            if not dep.existential_variables:
                continue
            depends = any(
                (lhs_pos := set(_variable_positions(dep.lhs, x)))
                and lhs_pos <= omega
                for x in dep.universal_variables
                if any(True for _ in _variable_positions(dep.rhs, x))
            )
            if depends:
                for z in dep.existential_variables:
                    edges[key].add((j, z))
    # Longest path / cycle detection by DFS with colouring.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {key: WHITE for key in existentials}
    depth: dict[tuple[int, Variable], int] = {}
    cycle_witness: list[tuple[int, Variable]] = []

    def visit(key: tuple[int, Variable], stack: list) -> Optional[int]:
        colour[key] = GREY
        stack.append(key)
        best = 0
        for succ in edges[key]:
            if colour[succ] is GREY:
                start = stack.index(succ)
                cycle_witness.extend(stack[start:])
                return None
            if colour[succ] is WHITE:
                sub = visit(succ, stack)
                if sub is None:
                    return None
                best = max(best, sub)
            else:
                best = max(best, depth[succ])
        stack.pop()
        colour[key] = BLACK
        depth[key] = best + 1
        return depth[key]

    overall = 0
    for key in existentials:
        if colour[key] is WHITE:
            result = visit(key, [])
            if result is None:
                names = tuple(
                    f"{deps[i][0]}:{v.name}" for i, v in cycle_witness
                )
                return False, 0, names
            overall = max(overall, result)
    return True, overall, None


# -- the certificate ----------------------------------------------------------


@dataclass(frozen=True)
class TerminationCertificate:
    """One program + tgd set's place in the termination hierarchy."""

    classification: str
    #: Individual membership flags (a set can be, e.g., both weakly
    #: acyclic and sticky; ``classification`` is the strongest label).
    properties: dict[str, bool]
    graph: PositionGraph
    special_cycle: Optional[tuple[PositionEdge, ...]]
    marking_trace: tuple[MarkStep, ...]
    sticky_violations: tuple[StickyViolation, ...]
    ja_cycle: Optional[tuple[str, ...]]
    #: Recurrence parameters for :meth:`value_bound`.
    total_existentials: int = 0
    max_frontier: int = 1
    bound_depth: int = 0

    @property
    def guarantees_termination(self) -> bool:
        return self.classification in TERMINATING_CLASSES

    @property
    def guarantees_decidability(self) -> bool:
        return self.classification in DECIDABLE_CLASSES

    def value_bound(self, initial_values: int) -> Optional[int]:
        """Sound cap on distinct values any chase sequence can create.

        ``None`` when the certificate does not guarantee termination.
        For a full-only set no values are invented; for weakly/jointly
        acyclic sets the rank (resp. existential-dependency depth)
        stratification gives the textbook recurrence: values feeding
        level-``i+1`` null creation all live at levels ``≤ i``.  The
        result is capped at :data:`VALUE_BOUND_CAP` -- still sound,
        since a budget built from a capped bound can only be *smaller*
        than one the true bound would allow.
        """
        if not self.guarantees_termination:
            return None
        values = max(1, initial_values)
        if self.classification == FULL_ONLY:
            return values
        frontier = max(1, self.max_frontier)
        for _level in range(max(1, self.bound_depth)):
            if values >= VALUE_BOUND_CAP:
                return VALUE_BOUND_CAP
            created = self.total_existentials * min(
                values**frontier, VALUE_BOUND_CAP
            )
            values = min(values + created, VALUE_BOUND_CAP)
        return values

    def describe(self) -> str:
        """One-line human rendering for CLI output."""
        if self.classification == FULL_ONLY:
            detail = "no existential variables; the chase is a plain fixpoint"
        elif self.classification == WEAKLY_ACYCLIC:
            detail = (
                f"position graph has no special-edge cycle "
                f"(max rank {self.graph.max_finite_rank})"
            )
        elif self.classification == JOINTLY_ACYCLIC:
            detail = "existential dependency graph is acyclic"
        elif self.classification == STICKY:
            detail = "marked-variable test passes; query answering decidable"
        elif self.classification == WEAKLY_STICKY:
            detail = (
                "repeated marked variables only at finite-rank positions; "
                "query answering decidable"
            )
        else:
            parts = []
            if self.special_cycle:
                parts.append(
                    "special-edge cycle " + " ; ".join(e.describe() for e in self.special_cycle)
                )
            bad = [v for v in self.sticky_violations if not v.finite_rank_occurrences]
            if bad:
                v = bad[0]
                parts.append(
                    f"marked variable {v.variable} joins at infinite-rank "
                    f"position(s) {', '.join(v.occurrences)} in {v.origin}"
                )
            detail = "; ".join(parts) or "no syntactic certificate applies"
        return f"{self.classification}: {detail}"

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "terminating": self.guarantees_termination,
            "decidable": self.guarantees_decidability,
            "properties": {k: self.properties[k] for k in sorted(self.properties)},
            "position_graph": self.graph.to_dict(),
            "special_cycle": (
                [e.describe() for e in self.special_cycle]
                if self.special_cycle
                else None
            ),
            "ja_cycle": list(self.ja_cycle) if self.ja_cycle else None,
            "marking_trace": [s.to_dict() for s in self.marking_trace],
            "sticky_violations": [v.to_dict() for v in self.sticky_violations],
        }


@dataclass
class TerminationAnalysis:
    """Domain wrapper mirroring the other absint analyses."""

    program: Program
    tgds: tuple[Tgd, ...]
    certificate: TerminationCertificate

    def to_dict(self) -> dict:
        payload = self.certificate.to_dict()
        payload["tgds"] = [str(t) for t in self.tgds]
        return payload


def dependencies_of(
    tgds: Sequence[Tgd], program: Program | None = None
) -> list[tuple[str, Tgd]]:
    """The combined dependency list: tgds first, then rules as full tgds.

    Facts and negative literals contribute no value flow and are
    skipped; everything else is labelled with its origin for evidence.
    """
    deps: list[tuple[str, Tgd]] = [
        (f"tgd[{i}]", tgd) for i, tgd in enumerate(tgds)
    ]
    if program is not None:
        for index, rule in enumerate(program.rules):
            body = [lit.atom for lit in rule.body if lit.positive]
            if not body:
                continue
            deps.append((f"rule[{index}]", Tgd(body, [rule.head])))
    return deps


def classify_termination(
    tgds: Sequence[Tgd],
    program: Program | None = None,
) -> TerminationAnalysis:
    """Place ``program + tgds`` in the chase-termination hierarchy.

    Purely syntactic -- no chase round runs.  Registered with the
    metrics registry as the ``termination`` domain alongside the other
    abstract-interpretation fixpoints.
    """
    from ...obs.metrics import metrics_registry

    tgds = tuple(tgds)
    deps = dependencies_of(tgds, program)
    graph = PositionGraph(deps)
    full_only = all(tgd.is_full for tgd in tgds)
    weakly_acyclic = graph.weakly_acyclic
    jointly_acyclic, ja_depth, ja_cycle = _joint_acyclicity(deps)
    marked, trace = _sticky_marking(deps)
    violations = _sticky_violations(deps, marked, graph.ranks)
    sticky = not violations
    weakly_sticky = all(v.finite_rank_occurrences for v in violations)

    if full_only:
        classification = FULL_ONLY
    elif weakly_acyclic:
        classification = WEAKLY_ACYCLIC
    elif jointly_acyclic:
        classification = JOINTLY_ACYCLIC
    elif sticky:
        classification = STICKY
    elif weakly_sticky:
        classification = WEAKLY_STICKY
    else:
        classification = UNKNOWN_CLASS

    total_existentials = sum(len(t.existential_variables) for t in tgds)
    max_frontier = max(
        (
            len(
                {
                    v
                    for v in dep.universal_variables
                    if any(True for _ in _variable_positions(dep.rhs, v))
                }
            )
            for _origin, dep in deps
            if dep.existential_variables
        ),
        default=0,
    )
    if classification == WEAKLY_ACYCLIC:
        bound_depth = graph.max_finite_rank
    elif classification == JOINTLY_ACYCLIC:
        bound_depth = ja_depth
    else:
        bound_depth = 0

    certificate = TerminationCertificate(
        classification=classification,
        properties={
            "full_only": full_only,
            "weakly_acyclic": weakly_acyclic,
            "jointly_acyclic": jointly_acyclic,
            "sticky": sticky,
            "weakly_sticky": weakly_sticky,
        },
        graph=graph,
        special_cycle=graph.special_cycle,
        marking_trace=trace,
        sticky_violations=violations,
        ja_cycle=ja_cycle,
        total_existentials=total_existentials,
        max_frontier=max_frontier,
        bound_depth=bound_depth,
    )
    metrics_registry().record_analysis("termination", len(deps), 0)
    return TerminationAnalysis(
        program=program if program is not None else Program(),
        tgds=tgds,
        certificate=certificate,
    )


__all__ = [
    "DECIDABLE_CLASSES",
    "FULL_ONLY",
    "JOINTLY_ACYCLIC",
    "MarkStep",
    "Position",
    "PositionEdge",
    "PositionGraph",
    "STICKY",
    "StickyViolation",
    "TERMINATING_CLASSES",
    "TerminationAnalysis",
    "TerminationCertificate",
    "UNKNOWN_CLASS",
    "VALUE_BOUND_CAP",
    "WEAKLY_ACYCLIC",
    "WEAKLY_STICKY",
    "classify_termination",
    "dependencies_of",
    "format_position",
]
