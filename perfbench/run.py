"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pointsto --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client: a Datalog user runs a
batch job and waits for it):

``pointsto``
    ``repro-datalog eval`` (as ``python -m repro.cli eval``) of Andersen's
    points-to analysis over a seeded pointer program.  Join-bound.
``reach-unreached``
    ``repro-datalog eval --engine stratified`` of reachability and its
    negated complement over a seeded graph.  Parse, load and output bound.
``optimize-corpus``
    In-process ``repro.optimize`` over a seeded corpus of programs with
    planted redundancy.  Containment tests and kernel compilation.
``maintain``
    In-process ``MaterializedView`` maintenance: rounds of five inserted
    then five deleted edges under single-source reachability, on seeded
    renamings of one graph (``gen.maintenance_workload``).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; one *operation* is one ``eval`` process, one pass of
``optimize`` over the whole corpus, or one maintenance round.  The report
lines before the JSON add per-program ``optimize`` and per-batch insert
and delete latencies.

``setup_s``        median of nine set-ups (input generation, file writes,
                   reference solve, warm-up), in nominal seconds: each
                   set-up's wall time over the reference readings around
                   it, times a fixed nominal reading (``calibrate.py``)
``op_vs_ref_p50``  median over operations of the operation's wall time
                   over that of a fixed plain-Python reference job timed
                   just before and after it (``calibrate.py``), so that
                   the drift of a shared host's speed cancels
``peak_rss_mb``    peak resident memory of the process doing the work

The raw wall times (per operation, per ``optimize`` program, per insert
and delete batch, per set-up, and of the reference job) are report lines.  The run
keeps itself and its children on one CPU.

With ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics, taken from spans that ``spans.py`` records around
calls into each layer (see ``spans.LAYER_METRICS``).  Times are seconds
per traced job (one ``eval`` process, one corpus pass, or a
materialization plus 25 rounds).  A layer a workload never calls reads
0, and ``cli.import_s`` (a ``python -c "import repro.cli"`` process) is
measured for the two CLI workloads only.  ``engine.firings_per_derived``
is rule firings over facts derived; ``obs.trace_overhead`` is traced over
untraced job time.

Every output is checked against an independent solver in
``reference.py``; a wrong output or an error counts as a failed
operation.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import spans as spanlib  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from stats import describe_timing, failure_rate  # noqa: E402
from worker import SETUPS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"

#: A child still running after this long is killed (and counted failed).
CHILD_TIMEOUT_S = 120

#: pointsto: statements and variables of the pointer program.
POINTSTO_SIZE = (300, 50)

#: reach-unreached: nodes and edges of the graph.
REACH_SIZE = (2000, 20000)

END_TO_END_UNITS = {"setup_s": "s", "op_vs_ref_p50": "ratio", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: unit for name, (unit, _fn) in spanlib.LAYER_METRICS.items()},
    "engine.firings_per_derived": "ratio",
    "incremental.recompute_ratio": "ratio",
    "obs.trace_overhead": "ratio",
}


class Child:
    """One child process, timed from spawn to exit, with its own rusage."""

    def __init__(self, argv, stdout_path: Path):
        self.argv = argv
        self.stdout_path = stdout_path

    def run(self) -> "Child":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.stdout_path, "w") as out, open(self.stdout_path.with_suffix(".err"), "w") as err:
            start = time.perf_counter()
            process = subprocess.Popen(self.argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        process.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        return self

    @property
    def stdout(self) -> str:
        return self.stdout_path.read_text()

    def describe_failure(self) -> str:
        err = self.stdout_path.with_suffix(".err").read_text().strip().splitlines()
        return f"{self.argv[1:4]} exited {self.returncode}: {err[-1] if err else ''}"


# -- CLI workloads --------------------------------------------------------------------

ATOM_ARGS = re.compile(r"\(([^()]*)\)")


def parse_output(text: str, predicates) -> dict[str, set[tuple]]:
    """The ``Pred: Pred(1, 2), ...`` lines of ``eval`` output, as int tuples."""
    found: dict[str, set[tuple]] = {p: set() for p in predicates}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        if name in found:
            found[name] = {
                tuple(int(a) for a in args.split(", ")) for args in ATOM_ARGS.findall(rest)
            }
    return found


class CliWorkload:
    """Shared shape of the two ``repro-datalog eval`` workloads."""

    engine = "seminaive"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.program_path = workdir / "program.dl"
        self.edb_path = workdir / "edb.dl"
        self.workdir = workdir

    def setup(self) -> None:
        program, facts, self.expected = self.inputs()
        for predicate, rows in self.expected.items():
            if not rows:
                raise ValueError(f"degenerate input: reference {predicate} is empty")
        self.program_path.write_text(program)
        self.edb_path.write_text(gen.facts_text(facts))
        warm = Child([sys.executable, "-c", "import repro.cli"], self.workdir / "warm.out").run()
        if warm.returncode != 0:
            raise RuntimeError(warm.describe_failure())

    @property
    def derived(self) -> int:
        return sum(len(rows) for rows in self.expected.values())

    def eval_argv(self) -> list[str]:
        return ["eval", str(self.program_path), "--edb", str(self.edb_path), "--engine", self.engine]

    def untraced(self, index: int) -> Child:
        argv = [sys.executable, "-m", "repro.cli", *self.eval_argv()]
        return Child(argv, self.workdir / f"eval-{index}.out").run()

    def traced(self, index: int) -> tuple[Child, Path]:
        spans_path = self.workdir / f"spans-{index}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans_path), "--", *self.eval_argv()]
        return Child(argv, self.workdir / f"traced-{index}.out").run(), spans_path

    def correct(self, child: Child) -> bool:
        if child.returncode != 0:
            print(child.describe_failure(), file=sys.stderr)
            return False
        got = parse_output(child.stdout, self.expected)
        for predicate, rows in self.expected.items():
            if got[predicate] != rows:
                print(
                    f"{predicate}: {len(got[predicate])} facts, reference has {len(rows)}",
                    file=sys.stderr,
                )
                return False
        return True


class PointsTo(CliWorkload):
    def inputs(self):
        statements = gen.pointer_program(self.seed, *POINTSTO_SIZE)
        return gen.ANDERSEN, statements, {"Pts": reference.andersen(statements)}


class ReachUnreached(CliWorkload):
    engine = "stratified"

    def inputs(self):
        graph = gen.island_graph(self.seed, *REACH_SIZE)
        reached, unreached = reference.reach_unreached(graph)
        expected = {"Reach": {(v,) for v in reached}, "Unreached": {(v,) for v in unreached}}
        return gen.REACH_UNREACHED, gen.reach_facts(graph), expected


CLI_WORKLOADS = {"pointsto": PointsTo, "reach-unreached": ReachUnreached}
INPROC_WORKLOADS = ("optimize-corpus", "maintain")


def run_cli(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    bench = CLI_WORKLOADS[workload](seed, workdir)
    setup_calibrator = None if trace else Calibrator(in_child=True)
    setups = []
    for _ in range(1 if trace else SETUPS):
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
        if setup_calibrator is not None:
            setup_calibrator.record(setups[-1])
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    if not trace:
        calibrator = Calibrator(in_child=True)
        children = []
        while not children or time.perf_counter() < deadline:
            child = bench.untraced(len(children))
            calibrator.record(child.wall_s)
            children.append(child)
            attempted += 1
            failed += not bench.correct(child)
        walls = [c.wall_s for c in children]
        report = [
            describe_timing("eval_wall_s", walls, unit="s"),
            f"derived_per_s: {bench.derived / statistics.median(walls):.1f} "
            f"({bench.derived} derived IDB facts per median eval_wall_s)",
            describe_timing("setup_wall_s", setups, unit="s"),
            *calibration_report(calibrator),
        ]
        metrics = {
            "setup_s": setup_calibrator.nominal_s(),
            "op_vs_ref_p50": statistics.median(calibrator.ratios),
            "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "report": report}
    imports = [
        Child([sys.executable, "-c", "import repro.cli"], workdir / f"import-{i}.out").run().wall_s
        for i in range(3)
    ]
    untraced_walls, traced_walls, layer_runs = [], [], []
    while not layer_runs or time.perf_counter() < deadline:
        index = len(layer_runs)
        plain = bench.untraced(index)
        child, spans_path = bench.traced(index)
        for c in (plain, child):
            attempted += 1
            failed += not bench.correct(c)
        untraced_walls.append(plain.wall_s)
        traced_walls.append(child.wall_s)
        spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else []
        layer_runs.append(spanlib.layer_metrics(spans))
    layers = {k: statistics.mean(run[k] for run in layer_runs) for k in layer_runs[0]}
    layers["cli.import_s"] = statistics.median(imports)
    layers["obs.trace_overhead"] = sum(traced_walls) / sum(untraced_walls)
    layers["incremental.recompute_ratio"] = 0.0
    report = [describe_timing("untraced_job_s", untraced_walls, unit="s")]
    return {"metrics": layers, "attempted": attempted, "failed": failed, "report": report}


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    out = workdir / "worker.json"
    argv = [sys.executable, str(HERE / "worker.py"), "inproc", workload, str(seed), str(seconds),
            "1" if trace else "0", str(out)]
    child = Child(argv, workdir / "worker.out").run()
    if child.returncode != 0:
        raise RuntimeError(child.describe_failure())
    result = json.loads(out.read_text())
    if trace:
        layers = result["layers"]
        layers["cli.import_s"] = 0.0
        layers.setdefault("incremental.recompute_ratio", 0.0)
        report = [describe_timing("untraced_job_s", result["untraced_job_s"], unit="s")]
        return {"metrics": layers, "attempted": result["attempted"], "failed": result["failed"],
                "report": report}
    latencies = result["latencies"]
    operation = "corpus_pass_ms" if workload == "optimize-corpus" else "round_ms"
    report = [describe_timing(operation, latencies, scale=1e3)] + [
        describe_timing(key[: -len("_s")] + "_ms", values, scale=1e3)
        for key, values in result["samples"].items()
    ]
    report.append(describe_timing("setup_wall_s", result["setup_wall_s"], unit="s"))
    report.append(describe_timing("reference_ms", result["reference_s"], scale=1e3))
    report.append(describe_timing("op_vs_ref", result["ratios"], unit="x"))
    metrics = {
        "setup_s": result["setup_s"],
        "op_vs_ref_p50": statistics.median(result["ratios"]),
        "peak_rss_mb": child.rss_mb,
    }
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "report": report}


def calibration_report(calibrator: Calibrator) -> list[str]:
    return [
        describe_timing("reference_ms", calibrator.reference_s, scale=1e3),
        describe_timing("op_vs_ref", calibrator.ratios, unit="x"),
    ]


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report lines and return its result."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = run_cli if workload in CLI_WORKLOADS else run_inproc
    outcome = runner(workload, seed, seconds, trace, workdir)
    metrics = outcome["metrics"]
    if trace:
        firings, derived = metrics["engine.rule_firings"], metrics["engine.facts_derived"]
        metrics["engine.firings_per_derived"] = firings / derived if derived else 0.0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "host": host(), **result}
    (workdir / "result.json").write_text(json.dumps(record, indent=2))
    rate = failure_rate(outcome["failed"], outcome["attempted"])
    print(f"workload {workload} seed {seed}, host {json.dumps(record['host'])}")
    for line in outcome["report"]:
        print(line)
    print(f"failure_rate: {rate:g} ({outcome['failed']} of {outcome['attempted']} operations)")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*CLI_WORKLOADS, *INPROC_WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process, its children and the reference job, so
        # that an operation and the readings around it share a core.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # Every workload in turn; metric names gain a ``workload:`` prefix.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in (*CLI_WORKLOADS, *INPROC_WORKLOADS):
            one = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                {f"{workload}:{name}": value for name, value in one["metrics"].items()}
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
