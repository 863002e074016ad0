#!/usr/bin/env python3
"""Benchmark of qnbench: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload suite10 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
library is imported from ``src/`` next to this directory, never from an
installed copy; without it the script exits with status 2 and prints no
result.  Each run also writes its details, with the environment and the CPU
steal time, to ``perfbench/out/``.  See README.md for the workloads.
"""

import os

# Pinned before numpy loads its BLAS; the set-up probes inherit the pins.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "solve_ms.geomean": "ms",
    "iterations": "count",
    "f_evals": "count",
    "g_evals": "count",
    "peak_mem_mb": "MB",
}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite10", "hform10", "large_n"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the solves in each timed pass; with --perturb, "
                             "also draws the start points")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed (or traced) passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="move each start point by this scale times a normal "
                             "vector drawn from the seed (default: standard starts)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnbench" / "__init__.py").is_file():
        print(f"run.py: no qnbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qnbench

    if Path(qnbench.__file__).resolve().parent != SRC / "qnbench":
        print(f"run.py: imported qnbench from {qnbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import measure, workloads

    workload = workloads.build(args.workload, args.seed, args.perturb)
    result = measure.run(workload, args.seed, args.seconds, bool(args.trace))
    tally, env = result["tally"], environment()
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in result["metrics"].items()}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "perturb": args.perturb, "environment": env,
              "cpu_steal": result["steal"], "correct": tally.correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "messages": tally.messages, "metrics": metrics, "setup": result["setup"],
              "detail": result["detail"]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    for message in tally.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"cpu steal: {json.dumps(result['steal'])}")
    if "raw_pass_s_median" in result["detail"]:
        print(f"unscaled median pass time: {result['detail']['raw_pass_s_median']:.6g} s")
    if "self_share" in result["detail"]:
        print(f"self time share: {json.dumps(result['detail']['self_share'])}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
