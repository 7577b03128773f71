"""Stratified negation.

The paper's conclusion announces that "the results on uniform
containment and minimization can be extended to Datalog programs with
stratified negation"; this module supplies the evaluation substrate for
that extension: stratification of a program with negated body literals
and stratum-by-stratum semi-naive evaluation computing the perfect
(standard) model.

A program is stratifiable iff no cycle of its dependence graph contains
a negative edge.  Strata are computed by a longest-path style fixpoint:
``stratum(head) >= stratum(body predicate)`` for positive dependencies
and strictly greater for negative ones.

Evaluation copies the input once and hands each stratum's rules, with
or without negation, to the shared round loop
:func:`~repro.engine.seminaive.saturate`.  A negated literal only names
relations of strictly lower strata, which are complete before the
stratum starts, so it is just a membership check on the working
database inside the join.  Each stratum's first delta holds only the
relations its rules read positively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..data.database import Database
from ..errors import ResourceLimitExceeded, StratificationError
from ..lang.programs import Program
from ..lang.rules import Rule
from ..resilience.governor import EvaluationStatus, ResourceGovernor
from .compile import KernelCache, cardinality_hint_provider
from .fixpoint import EvaluationResult
from .seminaive import fire_seeds, saturate
from .stats import EvaluationStats


@dataclass(frozen=True)
class Stratification:
    """An assignment of IDB predicates to strata ``0..n-1``."""

    stratum_of: dict[str, int]
    layers: tuple[frozenset[str], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def stratify(program: Program) -> Stratification:
    """Compute a stratification or raise :class:`StratificationError`."""
    idb = program.idb_predicates
    stratum = {pred: 0 for pred in idb}
    # Relaxation: at most |idb| rounds; one more means a negative cycle.
    for round_number in range(len(idb) + 1):
        changed = False
        for rule in program.rules:
            head = rule.head.predicate
            for literal in rule.body:
                pred = literal.predicate
                if pred not in idb:
                    continue
                needed = stratum[pred] + (0 if literal.positive else 1)
                if stratum[head] < needed:
                    stratum[head] = needed
                    changed = True
        if not changed:
            break
    else:
        raise StratificationError(
            "program uses negation through recursion and cannot be stratified"
        )
    if not idb:
        return Stratification({}, ())
    depth = max(stratum.values()) + 1
    layers = tuple(
        frozenset(p for p, s in stratum.items() if s == i) for i in range(depth)
    )
    return Stratification(stratum, layers)


def evaluate_stratified(
    program: Program, db: Database, governor: ResourceGovernor | None = None
) -> EvaluationResult:
    """Compute the perfect model of a stratified program over *db*.

    Each stratum is evaluated to fixpoint by one semi-naive round loop;
    negated literals consult the database computed by lower strata,
    which is complete by the time they are read.

    With a *governor*, a tripped limit returns the facts derived so far
    as a ``PARTIAL`` result with the interrupted stratum in the
    :class:`~repro.resilience.DegradationReport`.  The partial database
    is a subset of the perfect model: a rule with negation only fires
    after its negated predicates' strata completed, so interruption can
    under-derive but never mis-derive.
    """
    stratification = stratify(program)
    stats = EvaluationStats(engine="stratified")
    stats.start()
    rules = program.rules
    full = db.copy()
    kernels = KernelCache(
        rules, full, hint_provider=cardinality_hint_provider(program, full)
    )
    status = EvaluationStatus.COMPLETE
    degradation = None
    try:
        if governor is not None:
            governor.note(engine="stratified")
        for stratum_index, layer in enumerate(stratification.layers):
            if governor is not None:
                governor.note(stratum=stratum_index)
            saturate_stratum(
                rules,
                [i for i, rule in enumerate(rules) if rule.head.predicate in layer],
                full,
                stats,
                kernels,
                governor,
            )
    except ResourceLimitExceeded as error:
        status = EvaluationStatus.PARTIAL
        degradation = error.report
    stats.stop()
    return EvaluationResult(full, stats, status=status, degradation=degradation)


def saturate_stratum(
    rules: Sequence[Rule],
    rule_indices: Sequence[int],
    full: Database,
    stats: EvaluationStats,
    kernels: KernelCache,
    governor: ResourceGovernor | None = None,
) -> None:
    """Bring one stratum's rules to saturation in place on *full*.

    Every relation the rules negate must already be complete in *full*.
    The first delta holds only the relations the rules read positively
    (initial facts of the stratum's own predicates included), so no
    other relation is copied.
    """
    fire_seeds(rules, rule_indices, full, stats, governor)
    read = {
        literal.predicate
        for index in rule_indices
        for literal in rules[index].body
        if literal.positive
    }
    saturate(
        rules,
        rule_indices,
        full,
        full.restrict_to(read),
        full.empty_like(),
        stats,
        kernels,
        governor,
    )
