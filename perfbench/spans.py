"""Spans recorded from outside the program, and the layer probes that feed them.

The traced run replaces a layer's public function at the binding its
caller uses (``module.attribute``, or the class for a method) with a
wrapper that records a span -- name, start, end, parent -- in memory.
Nothing under ``src/`` changes, and the program's own ``repro.obs``
tracer stays off.  :meth:`Recorder.dump` writes the spans out when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

from stats import self_time


class Recorder:
    """An in-memory span log with parent links."""

    def __init__(self):
        #: ``[name, start, end, parent_index, counters]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record[4]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """*fn* inside a span; ``count(result)`` adds counters to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counters:
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """A generator function whose every resumption is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def install(self, target, attribute: str, name: str, count=None, generator=False):
        """Replace ``target.attribute`` (module or class) with a recording wrapper."""
        original = getattr(target, attribute)
        wrapped = (
            self.wrap_generator(original, name)
            if generator
            else self.wrap(original, name, count)
        )
        setattr(target, attribute, wrapped)
        self._installed.append((target, attribute, original))

    def restore(self) -> None:
        while self._installed:
            target, attribute, original = self._installed.pop()
            setattr(target, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


# -- aggregation ----------------------------------------------------------------


def _children(spans) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    return children


def _inside(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def total(spans, name: str) -> float:
    """Wall time under spans named *name*, nested repeats counted once."""
    return sum(
        s[2] - s[1]
        for i, s in enumerate(spans)
        if s[0] == name and not _inside(spans, i, name)
    )


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def total_self(spans, name: str) -> float:
    """Self time of spans named *name*: each span minus its children."""
    children = _children(spans)
    return sum(
        self_time(s[1], s[2], [(spans[c][1], spans[c][2]) for c in children.get(i, ())])
        for i, s in enumerate(spans)
        if s[0] == name
    )


def counter(spans, name: str, key: str) -> float:
    return sum(s[4].get(key, 0) for s in spans if s[0] == name)


# -- probes -----------------------------------------------------------------------


def _facts(program) -> dict:
    return {"facts": sum(1 for rule in program.rules if rule.is_fact)}


def _evaluation(result) -> dict:
    stats = result.stats
    return {
        "rounds": stats.iterations,
        "rule_firings": stats.rule_firings,
        "subgoal_attempts": stats.subgoal_attempts,
        "facts_derived": stats.facts_derived,
    }


#: ``(module, attribute, span, counters)``: each probe sits at the binding
#: its caller reads, so ``compile_kernel`` is patched where ``KernelCache``
#: looks it up and ``evaluate`` once per calling module.
PROBES = (
    ("repro.cli", "parse_program", "lang.parse", _facts),
    ("repro.cli", "_load_edb", "data.load", None),
    ("repro.cli", "evaluate", "engine.evaluate", _evaluation),
    ("repro.cli", "format_database", "cli.output", None),
    ("repro.engine.stratified", "stratify", "analysis.stratify", None),
    ("repro.engine.compile", "compile_kernel", "compile.kernel", None),
    ("repro.engine.compile", "plan_order", "compile.plan", None),
    ("repro.engine.fixpoint", "evaluate", "engine.evaluate", _evaluation),
    ("repro.core.containment", "evaluate", "engine.evaluate", _evaluation),
    ("repro.core.chase", "evaluate", "engine.evaluate", _evaluation),
    ("repro.core.optimizer", "minimize_program", "core.minimize", None),
    ("repro.core.minimize", "rule_uniformly_contained_in", "core.containment", None),
    ("repro.core.optimizer", "prove_equivalence_with_constraints", "core.equivalence", None),
)

METHOD_PROBES = (
    ("repro.data.database", "Database", "copy", "data.copy"),
    ("repro.data.database", "Database", "update", "data.update"),
)


def install_probes(recorder: Recorder) -> None:
    for module, attribute, name, counters in PROBES:
        recorder.install(importlib.import_module(module), attribute, name, counters)
    recorder.install(
        importlib.import_module("repro.core.optimizer"),
        "candidate_tgds",
        "core.heuristics",
        generator=True,
    )
    for module, cls, method, name in METHOD_PROBES:
        recorder.install(getattr(importlib.import_module(module), cls), method, name)


#: Per-layer metrics: ``name -> (unit, function of the span list)``.
#: ``engine.join_s`` is what ``evaluate`` spends outside its compile,
#: storage and stratification children -- the joins of the fixpoint.
#: ``data.load_s`` is the CLI's EDB loader without its parse child: the
#: ``Database.add`` loop.
LAYER_METRICS = {
    "cli.output_s": ("s", lambda s: total(s, "cli.output")),
    "lang.parse_s": ("s", lambda s: total(s, "lang.parse")),
    "lang.facts_parsed": ("count", lambda s: counter(s, "lang.parse", "facts")),
    "data.load_s": ("s", lambda s: total_self(s, "data.load")),
    "data.copy_s": ("s", lambda s: total(s, "data.copy")),
    "data.copies": ("count", lambda s: count(s, "data.copy")),
    "data.update_s": ("s", lambda s: total(s, "data.update")),
    "data.updates": ("count", lambda s: count(s, "data.update")),
    "analysis.stratify_s": ("s", lambda s: total(s, "analysis.stratify")),
    "compile.kernels": ("count", lambda s: count(s, "compile.kernel")),
    "compile.s": ("s", lambda s: total(s, "compile.kernel")),
    "compile.plan_s": ("s", lambda s: total(s, "compile.plan")),
    "engine.eval_s": ("s", lambda s: total(s, "engine.evaluate")),
    "engine.join_s": ("s", lambda s: total_self(s, "engine.evaluate")),
    "engine.rounds": ("count", lambda s: counter(s, "engine.evaluate", "rounds")),
    "engine.rule_firings": ("count", lambda s: counter(s, "engine.evaluate", "rule_firings")),
    "engine.subgoal_attempts": (
        "count",
        lambda s: counter(s, "engine.evaluate", "subgoal_attempts"),
    ),
    "engine.facts_derived": ("count", lambda s: counter(s, "engine.evaluate", "facts_derived")),
    "incremental.materialize_s": ("s", lambda s: total(s, "incremental.materialize")),
    "incremental.insert_s": ("s", lambda s: total(s, "incremental.insert")),
    "incremental.delete_s": ("s", lambda s: total(s, "incremental.delete")),
    "incremental.overdeleted": (
        "count",
        lambda s: counter(s, "incremental.delete", "overdeleted"),
    ),
    "incremental.rederived": ("count", lambda s: counter(s, "incremental.delete", "rederived")),
    "core.minimize_s": ("s", lambda s: total(s, "core.minimize")),
    "core.containment_s": ("s", lambda s: total(s, "core.containment")),
    "core.containment_tests": ("count", lambda s: count(s, "core.containment")),
    "core.equivalence_s": ("s", lambda s: total(s, "core.equivalence")),
    "core.equivalence_attempts": ("count", lambda s: count(s, "core.equivalence")),
    "core.heuristics_s": ("s", lambda s: total(s, "core.heuristics")),
    "core.atoms_removed": ("count", lambda s: counter(s, "core.optimize", "atoms_removed")),
    "core.rules_removed": ("count", lambda s: counter(s, "core.optimize", "rules_removed")),
}


def layer_metrics(spans) -> dict[str, float]:
    return {name: fn(spans) for name, (_unit, fn) in LAYER_METRICS.items()}
