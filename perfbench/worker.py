"""Child process of the benchmark; ``run.py`` starts it, never a user.

Two modes:

``worker.py cli SPANS -- ARGS...``
    Installs the layer probes of :mod:`spans`, runs ``repro.cli.main(ARGS)``
    in this process and writes the spans to *SPANS* when it returns: the
    traced counterpart of one ``python -m repro.cli ARGS`` process.

``worker.py inproc WORKLOAD SEED SECONDS TRACE OUT``
    Sets up and runs one in-process workload (``optimize-corpus`` or
    ``maintain``) in a closed loop with one client and writes its samples
    to *OUT* as JSON.  A separate process, so that its peak RSS is the
    workload's own.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import nullcontext

import gen
import reference
import spans as spanlib
from calibrate import Calibrator

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 9

#: maintain: mainland nodes, chords, chains and chain length of the graph
#: (see ``gen.maintenance_graph``), update rounds per job, and renamings
#: of the graph (see ``gen.maintenance_workload``), one per job in turn.
#: DRed over-deletes the whole reached set on each delete batch, so a
#: round costs about as much as the mainland is large; this size keeps a
#: round near 0.05 s, and a 25 s run goes through each renaming about once.
MAINTAIN_SHAPE = (400, 800, 10, 20)
MAINTAIN_ROUNDS = 25
MAINTAIN_VARIANTS = 16

#: Reference-job runs per calibration reading (see ``calibrate.py``): a
#: corpus pass takes about 1.2 s and a maintenance round about 0.05 s.
REFERENCE_REPS = {"optimize-corpus": 3, "maintain": 1}

#: Reference-job runs per reading around one in-process set-up.
SETUP_REFERENCE_REPS = 3


def _program_size(program) -> tuple[int, int]:
    return len(program.rules), sum(len(rule.body) for rule in program.rules)


# -- optimize-corpus ----------------------------------------------------------------


class Corpus:
    def __init__(self, seed: int):
        from repro import optimize
        from repro.lang import parse_program

        self.optimize = optimize
        self.programs = []
        for planted in gen.corpus(seed):
            program = parse_program(planted.text)
            if _program_size(program) == (planted.rules, planted.body_atoms):
                raise ValueError(f"degenerate corpus program, nothing to remove:\n{planted.text}")
            self.programs.append((planted, program))
        warmed = set()
        for planted, program in self.programs:
            if planted.family not in warmed:
                warmed.add(planted.family)
                self.optimize(program)

    def job(self, deadline, latencies, outcome, recorder=None, calibrator=None):
        """One pass over the corpus: one operation, timed as a whole.

        The pass always completes, so every operation optimizes the same
        mix of program shapes.  Each program is checked, and counted as
        attempted and failed, on its own; its latency goes into the
        ``optimize_s`` samples.
        """
        extra = {"optimize_s": []}
        pass_start = time.perf_counter()
        for planted, program in self.programs:
            ok = False
            start = time.perf_counter()
            try:
                if recorder is None:
                    report = self.optimize(program)
                else:
                    with recorder.span("core.optimize") as counters:
                        report = self.optimize(program)
                    counters["atoms_removed"] = len(report.minimization.atom_removals) + sum(
                        len(r.removed_atoms) for r in report.equivalence_removals
                    )
                    counters["rules_removed"] = len(report.minimization.rule_removals)
                extra["optimize_s"].append(time.perf_counter() - start)
                ok = _program_size(report.optimized) == (planted.rules, planted.body_atoms)
            except Exception as error:  # counted as a failed operation
                print(f"optimize failed: {error!r}", file=sys.stderr)
            outcome.record(ok)
        latencies.append(time.perf_counter() - pass_start)
        if calibrator is not None:
            calibrator.record(latencies[-1])
        return extra


# -- maintain -------------------------------------------------------------------------


class Maintain:
    def __init__(self, seed: int):
        from repro import MaterializedView
        from repro.data.database import Database
        from repro.lang import parse_program
        from repro.lang.atoms import Atom
        from repro.lang.terms import Constant

        self.View = MaterializedView
        self.Atom, self.Constant = Atom, Constant
        self.program = parse_program(gen.REACHABILITY)
        self.Database = Database
        self.variants = gen.maintenance_workload(
            seed, *MAINTAIN_SHAPE, MAINTAIN_ROUNDS, reference.reach, MAINTAIN_VARIANTS
        )
        self.jobs = 0
        graph, _ = self.variants[0]
        if not self.matches(MaterializedView(self.program, self.base(graph)), graph, graph.edges):
            raise ValueError("maintain: initial view differs from the reference")

    def base(self, graph):
        """*graph* as a database: its edges as ``A`` facts and its sources as ``S``."""
        return self.Database(
            [self.edge(*e) for e in sorted(graph.edges)]
            + [self.Atom("S", (self.Constant(s),)) for s in graph.sources]
        )

    def edge(self, s: int, d: int):
        return self.Atom("A", (self.Constant(s), self.Constant(d)))

    @staticmethod
    def reached(view) -> set:
        return {row[0].value for row in view.database.tuples("R")}

    def matches(self, view, graph, edges) -> bool:
        now = gen.Graph(graph.nodes, frozenset(edges), graph.sources)
        return self.reached(view) == reference.reach(now)

    def job(self, deadline, latencies, outcome, recorder=None, calibrator=None):
        """Materialize the next renaming, then apply its rounds until *deadline*.

        One operation is one round: an ``insert_all`` batch followed by a
        ``delete_all`` batch.  After each batch the view is compared with a
        BFS of the current edge set, off the clock.
        """
        graph, rounds = self.variants[self.jobs % len(self.variants)]
        self.jobs += 1
        base = self.base(graph)
        extra = {"insert_s": [], "delete_s": []}
        span = recorder.span if recorder is not None else _no_span
        with span("incremental.materialize"):
            view = self.View(self.program, base)
        edges = set(graph.edges)
        for update in rounds:
            if time.perf_counter() >= deadline:
                break
            ok = False
            try:
                inserts = [self.edge(*e) for e in update.inserts]
                deletes = [self.edge(*e) for e in update.deletes]
                start = time.perf_counter()
                with span("incremental.insert"):
                    view.insert_all(inserts)
                inserted = time.perf_counter() - start
                edges.update(update.inserts)
                ok = self.matches(view, graph, edges)
                start = time.perf_counter()
                with span("incremental.delete") as counters:
                    stats = view.delete_all(deletes)
                deleted = time.perf_counter() - start
                edges.difference_update(update.deletes)
                ok = self.matches(view, graph, edges) and ok
                if counters is not None:
                    counters["overdeleted"] = stats.overdeleted
                    counters["rederived"] = stats.rederived
                latencies.append(inserted + deleted)
                if calibrator is not None:
                    calibrator.record(latencies[-1])
                extra["insert_s"].append(inserted)
                extra["delete_s"].append(deleted)
            except Exception as error:  # counted as a failed operation
                print(f"maintenance round failed: {error!r}", file=sys.stderr)
            outcome.record(ok)
        extra["state"] = (graph, edges)
        return extra

    def recompute_s(self, graph, edges) -> float:
        """Median wall time of a from-scratch ``evaluate`` of *edges* from *graph*'s sources."""
        from repro.engine import evaluate

        db = self.base(gen.Graph(graph.nodes, frozenset(edges), graph.sources))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            evaluate(self.program, db)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _no_span(_name):
    return nullcontext()


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


WORKLOADS = {"optimize-corpus": Corpus, "maintain": Maintain}


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    make = WORKLOADS[workload]
    setup_calibrator = None if trace else Calibrator(SETUP_REFERENCE_REPS)
    setups = []
    for _ in range(1 if trace else SETUPS):
        start = time.perf_counter()
        bench = make(seed)
        setups.append(time.perf_counter() - start)
        if setup_calibrator is not None:
            setup_calibrator.record(setups[-1])
    outcome = Outcome()
    result = {"setup_wall_s": setups}
    if setup_calibrator is not None:
        result["setup_s"] = setup_calibrator.nominal_s()
    calibrator = None if trace else Calibrator(REFERENCE_REPS[workload])
    deadline = time.perf_counter() + seconds
    if not trace:
        latencies, samples = [], {}
        while time.perf_counter() < deadline:
            extra = bench.job(deadline, latencies, outcome, calibrator=calibrator)
            for key, values in extra.items():
                if key.endswith("_s"):
                    samples.setdefault(key, []).extend(values)
        result["latencies"] = latencies
        result["samples"] = samples
        result["ratios"] = calibrator.ratios
        result["reference_s"] = calibrator.reference_s
    else:
        result.update(_traced(workload, bench, deadline, outcome))
    result["attempted"] = outcome.attempted
    result["failed"] = outcome.failed
    return result


def _traced(workload: str, bench, deadline: float, outcome) -> dict:
    """Alternate untraced and traced jobs; per-layer figures are per traced job."""
    if workload == "maintain":
        # One renaming, so that untraced and traced jobs do the same work.
        bench.variants = bench.variants[:1]
    no_deadline = float("inf")
    untraced: list[float] = []
    traced = 0.0
    recorder = spanlib.Recorder()
    batches: list[float] = []
    while not untraced or time.perf_counter() < deadline:
        start = time.perf_counter()
        plain = bench.job(no_deadline, [], outcome)
        untraced.append(time.perf_counter() - start)
        batches += plain.get("insert_s", []) + plain.get("delete_s", [])
        spanlib.install_probes(recorder)
        try:
            start = time.perf_counter()
            bench.job(no_deadline, [], outcome, recorder)
            traced += time.perf_counter() - start
        finally:
            recorder.restore()
    layers = {k: v / len(untraced) for k, v in spanlib.layer_metrics(recorder.spans).items()}
    layers["obs.trace_overhead"] = traced / sum(untraced)
    if workload == "maintain":
        # Untraced batches against re-evaluating their end state from scratch.
        # The mean, not the median: inserts and deletes are equally many and
        # an order of magnitude apart, so the median would fall between them.
        layers["incremental.recompute_ratio"] = statistics.mean(batches) / bench.recompute_s(
            *plain["state"]
        )
    return {"layers": layers, "spans": recorder.spans, "untraced_job_s": untraced}


def _cli(spans_path: str, argv: list[str]) -> int:
    recorder = spanlib.Recorder()
    spanlib.install_probes(recorder)
    import repro.cli

    try:
        code = repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)
    return code


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "cli":
        spans_path, separator, *cli_argv = rest
        if separator != "--":
            raise SystemExit("usage: worker.py cli SPANS -- ARGS...")
        return _cli(spans_path, cli_argv)
    if mode == "inproc":
        workload, seed, seconds, trace, out = rest
        result = run_inproc(workload, int(seed), float(seconds), trace == "1")
        spans = result.pop("spans", None)
        if spans is not None:
            with open(out + ".spans", "w") as handle:
                json.dump({"spans": spans}, handle)
        with open(out, "w") as handle:
            json.dump(result, handle)
        return 0
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
