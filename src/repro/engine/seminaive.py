"""Semi-naive bottom-up evaluation with textbook delta splitting.

The standard differential fixpoint: a rule can only derive a genuinely
new fact if at least one of its body subgoals matches a fact derived in
the *previous* iteration (the delta).  For each rule and each body
position, a variant is evaluated in which that position is forced onto
the delta relation.

The non-delta positions follow the **textbook** discipline: with the
delta pinned at body position *i*, positions before *i* read the
pre-round snapshot ``F_{k-1}`` and positions after *i* read the full
database ``F_k = F_{k-1} ∪ Δ``.  A body instantiation whose rows touch
Δ at positions ``D`` is then derived exactly once (by the variant
pinned at ``min(D)``) instead of ``|D|`` times -- the re-derivations the
older "non-delta positions read everything" discipline produced are
what made this engine fire *more* rules than naive on multi-atom
bodies.  The suppressed duplicates are counted as
``duplicates_avoided`` in the stats.

The default execution path runs compiled :class:`~repro.engine.compile.JoinKernel`
programs (one per rule/delta-position variant, cached across rounds);
``use_compiled=False`` keeps the original
:func:`~repro.engine.joins.fire_rule` reference path for differential
testing.

In the first round the delta is the entire input database (snapshot
``F_0 = ∅``), which makes initial IDB facts (Section III's generalized
inputs) participate correctly.

The round loop itself is :func:`saturate`, the one loop every serial
engine shares: :func:`seminaive_fixpoint` runs it over a whole positive
program, :func:`~repro.engine.stratified.evaluate_stratified` once per
stratum, and the parallel engine's SCC tasks once per task.  It takes
rules with negated literals too: only positive literals get delta
variants, and a negated literal is a membership check on the full
database, which is sound when the relation it names is complete before
the loop starts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..data.database import Database
from ..errors import ResourceLimitExceeded, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.rules import Rule
from ..obs.tracer import trace
from ..resilience.governor import EvaluationStatus, ResourceGovernor
from .compile import KernelCache, cardinality_hint_provider, compile_kernel
from .fixpoint import EvaluationResult
from .joins import delta_variant_positions, fire_rule, plan_order
from .stats import EvaluationStats


def seminaive_fixpoint(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
    use_compiled: bool = True,
    resume_state=None,
) -> EvaluationResult:
    """Compute ``P(db)`` with differential iteration.

    With a *governor*, a tripped limit stops iteration and the facts
    committed to the full database so far are returned as a ``PARTIAL``
    result (a sound under-approximation of ``P(db)`` by monotonicity;
    the interrupted round's uncommitted delta is discarded).

    *use_compiled* selects the kernel path (default) or the
    ``fire_rule`` reference path; both compute the same fixpoint.

    *resume_state* (a
    :class:`~repro.resilience.checkpoint.ResumeState`-shaped object with
    ``delta`` and ``round``) re-enters the loop mid-fixpoint: *db* is
    taken as ``F_{k-1}`` verbatim (round 0 seeding is skipped -- fact
    rules already fired before the checkpoint), the delta frontier is
    the saved ``Δ_{k-1}``, and the pre-round snapshot is reconstructed
    as ``F_{k-1} − Δ_{k-1}`` (the invariant ``full = snapshot ⊎ delta``
    holds at every checkpoint site, so no third database is persisted).
    Replaying round *k* on this exact state continues the original
    fixpoint unchanged.
    """
    if not program.is_positive:
        raise UnsafeRuleError(
            "semi-naive evaluation requires a positive program; "
            "use repro.engine.stratified for programs with negation"
        )
    stats = EvaluationStats(engine="seminaive")
    stats.start()
    every_rule = range(len(program.rules))
    full = db.copy()
    status = EvaluationStatus.COMPLETE
    degradation = None
    kernels = (
        KernelCache(
            program.rules, full, hint_provider=cardinality_hint_provider(program, full)
        )
        if use_compiled
        else None
    )

    with trace("seminaive.eval", rules=len(program.rules)) as root:
        root.watch(stats)
        try:
            if governor is not None:
                governor.note(engine="seminaive")

            if resume_state is not None:
                # Mid-fixpoint re-entry from a durable checkpoint: *db*
                # is F_{k-1}, the saved delta is Δ_{k-1}; reconstruct
                # snapshot = full − delta and rejoin at round k (the
                # loop header re-increments iterations to it).
                delta = resume_state.delta.copy()
                snapshot = full.copy()
                snapshot.discard_all(delta.atoms())
                stats.iterations = resume_state.round - 1
            else:
                # Round 0: fire ground facts (empty bodies) and seed the
                # delta with the whole input, so every rule sees the
                # input as "new".  The pre-round snapshot F_0 starts
                # empty; the invariant full == snapshot ∪ delta holds at
                # the top of every round.
                delta = db.copy()
                snapshot = full.empty_like()
                stats.iterations += 1
                for atom in fire_seeds(program.rules, every_rule, full, stats):
                    delta.add(atom)

            saturate(
                program.rules, every_rule, full, delta, snapshot, stats, kernels, governor
            )
        except ResourceLimitExceeded as error:
            status = EvaluationStatus.PARTIAL
            degradation = error.report
        if root:
            root.add("index_probes", full.probe_count())
            root.add("full_scans", full.scan_count())
    stats.stop()
    return EvaluationResult(full, stats, status=status, degradation=degradation)


def fire_seeds(
    rules: Sequence[Rule],
    rule_indices: Iterable[int],
    full: Database,
    stats: EvaluationStats,
    governor: ResourceGovernor | None = None,
) -> list[Atom]:
    """Fire once the selected rules that have no positive body literal.

    Facts and ground rules such as ``P(1) :- not Q(1).`` have no delta
    variant, so :func:`saturate` never fires them; callers run this
    before the first round.  Returns the atoms it added to *full*.
    """
    added: list[Atom] = []
    for index in rule_indices:
        rule = rules[index]
        if any(lit.positive for lit in rule.body):
            continue
        heads = (
            (rule.head,)
            if rule.is_fact
            else compile_kernel(rule.head, rule.body, full).run(
                full, stats=stats, governor=governor
            )
        )
        for head in heads:
            if full.add(head):
                stats.facts_derived += 1
                added.append(head)
    return added


def saturate(
    rules: Sequence[Rule],
    rule_indices: Iterable[int],
    full: Database,
    delta: Database,
    snapshot: Database,
    stats: EvaluationStats,
    kernels: KernelCache | None = None,
    governor: ResourceGovernor | None = None,
) -> None:
    """Run semi-naive rounds of ``rules[i]`` (*rule_indices*) to saturation.

    The one round loop every serial engine shares.  It works in place:
    each round fires every delta variant of every selected non-fact
    rule, then commits the new facts to *full* and *snapshot*; it stops
    when a round derives nothing new.  On entry, *full* must equal
    ``snapshot ⊎ delta`` on every predicate a selected rule reads
    positively.  Other predicates are only probed: negated literals
    read *full*, which is sound when they name relations that are
    complete before the call (stratification guarantees this).

    *kernels* (a :class:`KernelCache` over *rules* and *full*) selects
    the compiled path; ``None`` runs the ``fire_rule`` reference path.
    A tripped *governor* raises :class:`ResourceLimitExceeded` with
    *full* holding every round committed before the trip.
    """
    #: Per rule: the body positions that need their own delta variant
    #: (symmetric redundant-atom positions collapse to the first).  Rules
    #: without a positive literal have none and are left to fire_seeds.
    variants: dict[int, tuple[int, ...]] = {}
    for index in rule_indices:
        positions = delta_variant_positions(rules[index].head, rules[index].body)
        if positions:
            variants[index] = positions
    #: (rule, delta position) -> cached join order (reference path).
    plans: dict[tuple[int, int], list[int]] = {}
    while delta:
        stats.iterations += 1
        if governor is not None:
            governor.checkpoint(full, round=stats.iterations, delta=delta)
        with trace(
            "seminaive.iteration", index=stats.iterations, delta=len(delta)
        ) as iteration:
            iteration.watch(stats)
            new_delta = full.empty_like()
            for rule_index, positions in variants.items():
                rule = rules[rule_index]
                if governor is not None:
                    governor.note(rule_index=rule_index)
                    governor.tick()
                with trace("seminaive.rule", rule=rule_index) as span:
                    span.watch(stats)
                    if kernels is not None:
                        derived = _fire_rule_compiled(
                            rule, kernels, rule_index, full, delta,
                            snapshot, stats, governor, positions,
                        )
                    else:
                        derived = _fire_rule_seminaive(
                            rule, full, delta, stats, plans,
                            rule_index, governor, positions,
                        )
                    for atom in derived:
                        if atom not in full and atom not in new_delta:
                            new_delta.add(atom)
            snapshot.update(delta)
            added = full.update(new_delta)
            stats.facts_derived += added
            if governor is not None:
                governor.add_facts(added)
            delta = new_delta


def _fire_rule_seminaive(
    rule: Rule,
    full: Database,
    delta: Database,
    stats: EvaluationStats,
    plans: dict[tuple[int, int], list[int]],
    rule_index: int,
    governor: ResourceGovernor | None,
    positions: tuple[int, ...],
) -> set[Atom]:
    """Union of the rule's delta-variants (reference path).

    Non-delta positions read the full database here, so a fact reachable
    through several delta positions is re-derived by each variant; the
    compiled path's snapshot discipline eliminates those duplicates.
    """
    derived: set[Atom] = set()
    head, body = rule.head, rule.body
    for position in positions:
        if delta.count(body[position].predicate) == 0:
            continue
        key = (rule_index, position)
        order = plans.get(key)
        if order is None:
            order = plans[key] = plan_order(
                body, full, prefer_vars=frozenset(head.variables()), first=position
            )
        derived.update(
            fire_rule(
                full,
                head,
                body,
                stats=stats,
                source_for={position: delta},
                order=order,
                governor=governor,
            )
        )
    return derived


def _fire_rule_compiled(
    rule: Rule,
    kernels: KernelCache,
    rule_index: int,
    full: Database,
    delta: Database,
    snapshot: Database,
    stats: EvaluationStats,
    governor: ResourceGovernor | None,
    positions: tuple[int, ...],
) -> set[Atom]:
    """Union of the rule's delta-variants under the textbook discipline."""
    derived: set[Atom] = set()
    for position in positions:
        if delta.count(rule.body[position].predicate) == 0:
            continue
        if not snapshot and any(lit.positive for lit in rule.body[:position]):
            # First round: the snapshot F_0 is empty, so a variant with
            # a positive body literal before the delta position cannot
            # match (negated literals read the full database instead).
            continue
        derived.update(
            kernels.kernel(rule_index, position).run(
                full,
                delta=delta,
                before=snapshot,
                stats=stats,
                governor=governor,
                count_avoided=True,
            )
        )
    return derived
