"""The benchmark's arithmetic: percentiles, failure rate and self time."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99, 95, 90, 75, 50)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def tail_percentile(values, ladder=TAIL_LADDER) -> tuple[float, float] | None:
    """``(q, value)`` for the highest ``q`` with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the lowest rung lacks them (fewer than about
    twenty samples for the median).
    """
    for q in ladder:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def describe_timing(name: str, values, scale: float = 1.0, unit: str = "ms") -> str:
    """One report line: median, the reportable tail and the sample count."""
    n = len(values)
    line = f"{name}: p50 {statistics.median(values) * scale:.3f} {unit}"
    tail = tail_percentile(values)
    if tail is not None and tail[0] != 50:
        q, value = tail
        line += f", p{q} {value * scale:.3f} {unit} ({samples_beyond(n, q)} beyond)"
    return line + f", n={n}"


def failure_rate(failed: int, attempted: int) -> float:
    """Operations that erred or gave a wrong output, over those attempted."""
    if attempted < 1:
        raise ValueError("failure rate of zero attempted operations")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def sandwich_ratio(operation_s: float, before_s: float, after_s: float) -> float:
    """An operation's time over the mean of the reference readings around it."""
    if before_s <= 0 or after_s <= 0:
        raise ValueError("reference readings must be positive")
    return operation_s / ((before_s + after_s) / 2)


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus its direct children's.

    Spans come from one stack in one thread, so a span's direct children
    never overlap and always lie inside it.
    """
    return (end - start) - sum(hi - lo for lo, hi in children)
