"""Host-speed calibration: a fixed plain-Python job timed around each operation.

On a shared host the speed of a core drifts by 1.3-1.8x over seconds to
minutes, and that drift moves every wall time the benchmark takes.  The
end-to-end timing metric is therefore the operation's wall time over the
wall time of a fixed reference job, the worklist Andersen solver of
``reference.py`` on one pointer program that no seed changes, timed on
the same core just before and just after the operation.  Both see the
same host speed, so the ratio keeps what the program under test costs
and drops most of the drift.  The raw wall times are still reported, as
lines before the result.

An operation that is a process of its own (``repro-datalog eval``) is
read against a reference job that is also a fresh process (interpreter
start-up included), which the benchmark starts as
``python3 perfbench/calibrate.py REPS``; an in-process operation is read
against the job run in the same process.

Set-up time, which must be reported in seconds, is read the same way and
converted back into seconds at a fixed nominal speed of the reference
job (:data:`READING_S`, :data:`CHILD_READING_S`): wall time over the
readings around it, times the nominal reading.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import gen
import reference
from stats import sandwich_ratio

#: The reference job's input: the pointsto workload's shape at a fixed seed.
REFERENCE_PROGRAM = (0, 300, 50)

#: Runs of the job in one child-process reading.
CHILD_REPS = 5

#: About what a reading takes on an uncontended core of a 2-core Xeon host
#: with CPython 3.11.7: one run in process, and one child process of
#: ``CHILD_REPS`` runs.  They are the units of :meth:`Calibrator.nominal_s`.
READING_S = 0.012
CHILD_READING_S = 0.15


class Calibrator:
    """Times the reference job between operations and keeps each operation's ratio.

    A reading is the median of *reps* runs of the job in this process or,
    with *in_child*, the wall time of one child process that runs it
    ``CHILD_REPS`` times.  Call :meth:`record` right after each operation.
    """

    def __init__(self, reps: int = 1, in_child: bool = False):
        self.reps = reps
        self.in_child = in_child
        self.unit_s = CHILD_READING_S if in_child else READING_S
        self.statements = gen.pointer_program(*REFERENCE_PROGRAM)
        self.ratios: list[float] = []
        self.reference_s: list[float] = []
        self.read()  # warm-up
        self.last = self.read()

    def read(self) -> float:
        if self.in_child:
            start = time.perf_counter()
            subprocess.run([sys.executable, __file__, str(CHILD_REPS)], check=True)
            return time.perf_counter() - start
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            reference.andersen(self.statements)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def record(self, operation_s: float) -> None:
        """Read the reference job again and keep *operation_s* over the two readings."""
        before, self.last = self.last, self.read()
        self.reference_s.append(self.last)
        self.ratios.append(sandwich_ratio(operation_s, before, self.last))

    def nominal_s(self) -> float:
        """The median ratio in seconds of a host running a reading in the unit time."""
        return statistics.median(self.ratios) * self.unit_s


def main(reps: int) -> None:
    statements = gen.pointer_program(*REFERENCE_PROGRAM)
    for _ in range(reps):
        reference.andersen(statements)


if __name__ == "__main__":
    main(int(sys.argv[1]))
