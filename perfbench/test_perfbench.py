"""Unit tests for the benchmark's own arithmetic and reference solvers.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import re

import pytest

import gen
import reference
import spans as spanlib
from run import parse_output
from stats import (
    describe_timing,
    failure_rate,
    percentile,
    samples_beyond,
    self_time,
    tail_percentile,
)


# -- percentiles --------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7], 90) == 7


def test_tail_needs_ten_samples_beyond():
    # 100 samples: p90 has exactly 10 beyond, p95 only 5.
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(100, 95) == 5
    assert tail_percentile(list(range(1, 101))) == (90, 90)
    # 1000 samples: p99 has 10 beyond.
    assert tail_percentile(list(range(1, 1001))) == (99, 990)
    # 25 samples: p75 keeps 6 beyond, so only the median qualifies.
    assert tail_percentile(list(range(25))) == (50, 12)
    # Too few samples for any rung.
    assert tail_percentile(list(range(12))) is None


def test_timing_line_states_sample_count():
    line = describe_timing("op", [0.001 * i for i in range(1, 101)], scale=1e3)
    assert line == "op: p50 50.500 ms, p90 90.000 ms (10 beyond), n=100"
    assert describe_timing("wall", [2.0, 1.0, 3.0], unit="s").endswith("n=3")
    assert "p9" not in describe_timing("wall", [2.0, 1.0, 3.0], unit="s")


# -- failure rate -------------------------------------------------------------------


def test_failure_rate_is_failed_over_attempted():
    assert failure_rate(0, 480) == 0
    assert failure_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        failure_rate(0, 0)
    with pytest.raises(ValueError):
        failure_rate(5, 4)


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_recorded_spans_yield_self_time():
    recorder = spanlib.Recorder()
    recorder.spans = [
        ["engine.evaluate", 0.0, 10.0, None, {"rule_firings": 4}],
        ["compile.kernel", 1.0, 3.0, 0, {}],
        ["compile.plan", 1.5, 2.0, 1, {}],
        ["data.update", 4.0, 5.0, 0, {}],
        ["engine.evaluate", 12.0, 13.0, None, {"rule_firings": 1}],
    ]
    spans = recorder.spans
    assert spanlib.total(spans, "engine.evaluate") == 11.0
    # Only direct children are taken out: the plan span sits inside compile.
    assert spanlib.total_self(spans, "engine.evaluate") == 8.0
    assert spanlib.counter(spans, "engine.evaluate", "rule_firings") == 5
    metrics = spanlib.layer_metrics(spans)
    assert metrics["compile.s"] == 2.0 and metrics["compile.plan_s"] == 0.5
    assert metrics["engine.join_s"] == 8.0 and metrics["data.updates"] == 1


def test_wrappers_record_nesting_and_restore():
    class Target:
        @staticmethod
        def outer():
            return Target.inner() + 1

        @staticmethod
        def inner():
            return 1

        @staticmethod
        def numbers():
            yield from (1, 2)

    recorder = spanlib.Recorder()
    recorder.install(Target, "outer", "outer", count=lambda result: {"value": result})
    recorder.install(Target, "inner", "inner")
    recorder.install(Target, "numbers", "gen", generator=True)
    assert Target.outer() == 2
    assert list(Target.numbers()) == [1, 2]
    recorder.restore()
    assert [s[0] for s in recorder.spans] == ["outer", "inner", "gen", "gen", "gen"]
    assert recorder.spans[1][3] == 0 and recorder.spans[0][4] == {"value": 2}
    Target.outer()
    assert len(recorder.spans) == 5


# -- reference solvers ---------------------------------------------------------------


def test_andersen_reference_by_hand():
    # a = &o1; b = &o2; p = &a; c = *p; *p = b; d = a
    program = [
        ("Addr", 1, 101),  # a -> o1
        ("Addr", 2, 102),  # b -> o2
        ("Addr", 3, 1),  # p -> a (a is also a location)
        ("Load", 4, 3),  # c = *p
        ("Store", 3, 2),  # *p = b
        ("Copy", 5, 1),  # d = a
    ]
    # *p = b puts o2 into pts(a); c = *p then sees both of a's targets.
    assert reference.andersen(program) == {
        (1, 101),
        (1, 102),
        (2, 102),
        (3, 1),
        (4, 101),
        (4, 102),
        (5, 101),
        (5, 102),
    }


def test_reach_reference_by_hand():
    graph = gen.Graph(6, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 1)}), (0,))
    reached, unreached = reference.reach_unreached(graph)
    assert reached == {0, 1, 2}
    assert unreached == {3, 4, 5}


def test_island_is_never_reached():
    graph = gen.island_graph(seed=3, nodes=80, edges=400)
    reached, unreached = reference.reach_unreached(graph)
    assert set(range(60, 80)) <= unreached
    assert set(graph.sources) <= reached


def test_update_batches_change_the_reached_set():
    shape = gen.maintenance_graph(seed=2, mainland=30, chords=60, chains=3, chain=4)
    graph = shape.graph
    edges = set(graph.edges)
    mainland = set(range(30))
    assert reference.reach(graph) == mainland
    for update in gen.update_rounds(2, shape, 10, reference.reach):
        assert len(update.inserts) == len(update.deletes) == gen.BATCH
        edges.update(update.inserts)
        grown = reference.reach(gen.Graph(graph.nodes, frozenset(edges), graph.sources))
        edges.difference_update(update.deletes)
        after = reference.reach(gen.Graph(graph.nodes, frozenset(edges), graph.sources))
        # Each round attaches one chain of four, then detaches it again.
        assert len(grown - mainland) == 4 and after == mainland
    assert len(edges) == len(graph.edges)


def test_pointer_programs_are_renamings_of_one_program():
    one, two = gen.pointer_program(1, 60, 12), gen.pointer_program(2, 60, 12)
    assert one != two and gen.pointer_program(1, 60, 12) == one

    assert sorted(kind for kind, *_ in one) == sorted(kind for kind, *_ in two)
    # Renaming preserves how many points-to facts the analysis derives.
    assert len(reference.andersen(one)) == len(reference.andersen(two))


def test_maintenance_inputs_are_renamings_of_one_structure():
    args = (30, 60, 3, 4, 10, reference.reach, 3)
    variants = gen.maintenance_workload(1, *args)
    assert gen.maintenance_workload(1, *args) == variants
    assert len({graph.edges for graph, _ in variants + gen.maintenance_workload(2, *args)}) == 6

    def degrees(graph):
        out = [0] * graph.nodes
        for s, _ in graph.edges:
            out[s] += 1
        return sorted(out)

    for graph, rounds in variants:
        assert degrees(graph) == degrees(variants[0][0])
        assert len(reference.reach(graph)) == 30
        assert len(rounds) == 10


def test_corpus_work_is_fixed_per_seed():
    one, two = gen.corpus(1), gen.corpus(2)
    assert len(one) == sum(count for _, count in gen.CORPUS_MIX)
    assert [p.text for p in one] != [p.text for p in two]
    assert gen.corpus(1) == one
    # The seed renames variables and reorders; the shapes stay the same.
    strip = re.compile(r"\b[a-z]{2}([a-z]\w*)")

    def shapes(programs):
        return sorted((p.family, strip.sub(r"\1", p.text), p.rules, p.body_atoms) for p in programs)

    assert shapes(one) == shapes(two)


def test_output_parser():
    text = "A: A(1, 2), A(2, 3)\nReach: Reach(1), Reach(-4)\n"
    assert parse_output(text, ["Reach"]) == {"Reach": {(1,), (-4,)}}
    assert parse_output("", ["Pts"]) == {"Pts": set()}


def test_metric_lists_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == [*run.CLI_WORKLOADS, *run.INPROC_WORKLOADS]


# -- calibration ----------------------------------------------------------------------


def test_sandwich_ratio_uses_both_readings():
    from stats import sandwich_ratio

    assert sandwich_ratio(3.0, 1.0, 2.0) == 2.0
    assert sandwich_ratio(0.5, 0.25, 0.25) == 2.0
    with pytest.raises(ValueError):
        sandwich_ratio(1.0, 0.0, 1.0)


def test_calibrator_keeps_one_ratio_per_operation():
    import calibrate
    from calibrate import Calibrator

    calibrator = Calibrator(reps=1)
    for _ in range(3):
        calibrator.record(calibrator.last * 10)
    assert len(calibrator.ratios) == len(calibrator.reference_s) == 3
    assert all(ratio > 0 for ratio in calibrator.ratios)
    calibrator.ratios = [2.0, 4.0, 3.0]
    assert calibrator.nominal_s() == 3.0 * calibrate.READING_S
