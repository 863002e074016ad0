"""Time one cold set-up of the benchmark in a fresh interpreter.

Set-up is what every workload pays before its first solve: importing qnbench
(and numpy with it), ``suite()`` with its gradient checks, and building the
gradient-checked large-n objectives.  Prints one JSON object with the three
parts in seconds and the time of the reference loop (``speed.py``), run just
before them; ``run.py`` starts this script several times and keeps the
median.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import speed

    loop_s = speed.loop_s()
    t0 = time.perf_counter()
    import qnbench

    t1 = time.perf_counter()
    qnbench.suite()
    t2 = time.perf_counter()
    from perfbench import workloads

    t3 = time.perf_counter()
    workloads.large_n_problems()
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "suite_s": t2 - t1, "large_n_s": t4 - t3,
                      "loop_s": loop_s}))


if __name__ == "__main__":
    main()
