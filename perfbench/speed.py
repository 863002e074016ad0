"""The interpreter-speed reference the benchmark's n = 10 times are scaled to.

On a small shared VM, contention from the host slows the interpreter in
phases that last longer than one run: an unchanged `suite10` pass took 0.63 s
in one run and 0.93 s in another.  Such a phase slows a fixed pure-Python
loop about as much as it slows a pass whose time goes to Python and numpy
dispatch.  So for those workloads the benchmark times the loop before and
after every timed pass and reports each time at the speed where one loop
takes ``REFERENCE_S``: a time t, taken while the loop took k on average, is
reported as ``t * REFERENCE_S / k``.  The loop runs no library code, so a
change to the program moves the scaled time as much as the raw one.  The raw
times are kept in each run's details.

The large-n passes spend their time in large numpy operations, which the
loop does not track: scaling doubled their run-to-run spread, so their
times are not scaled (``Scale(False)``).

This module imports nothing else, so that a set-up probe can time the loop
before it imports numpy or qnbench.
"""

import time

LOOPS = 200_000
REFERENCE_S = 0.02


def loop_s() -> float:
    """Wall time of one run of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Scale:
    """Scale factors for consecutive timed intervals.

    Each interval is bracketed by two runs of the loop, and an interval's
    factor is ``REFERENCE_S`` over the mean of the two; consecutive intervals
    share the loop between them.  A disabled scale runs no loop and gives 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.loops = [loop_s()] if enabled else []

    def next(self) -> float:
        """Factor for the interval that ended just now."""
        if not self.enabled:
            return 1.0
        self.loops.append(loop_s())
        return REFERENCE_S / (0.5 * (self.loops[-2] + self.loops[-1]))
