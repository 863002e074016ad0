"""One benchmark run: set-up, a checked warm-up pass, then timed or traced passes.

Every run attempts whole passes, and every pass attempts every solve of the
workload once, so the share of failed solves is the same in every run.  A
solve fails if it raises, ends other than ``converged``, fails a check in the
warm-up pass, or in a later pass does not repeat the warm-up pass exactly.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks, speed
from perfbench.tracer import Tracer
from perfbench.workloads import Workload, run_pass

PROBE = Path(__file__).resolve().with_name("setup_probe.py")
SETUP_REPEATS = 5
MIN_PASSES = 3


def cpu_steal_s():
    """Time the hypervisor took from this machine's CPUs since boot, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = stream.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Median of ``repeats`` cold set-ups, each in a fresh interpreter and
    scaled by the reference loop timed in that interpreter."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, str(PROBE)], capture_output=True,
                              text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    scales = [speed.REFERENCE_S / r["loop_s"] for r in runs]
    return {
        "setup_s": statistics.median(
            (r["import_s"] + r["suite_s"] + r["large_n_s"]) * k for r, k in zip(runs, scales)),
        "suite_s": statistics.median(r["suite_s"] * k for r, k in zip(runs, scales)),
        "runs": runs,
    }


def references(workload: Workload) -> dict:
    """Reference optimum per problem: the closed form of the large-n problems,
    and the ``scipy.optimize`` minimum from the same start for the suite."""
    if workload.name == "large_n":
        return {p.name: p.known_optimum for p in workload.problems}
    return {p.name: checks.scipy_reference(p.objective) for p in workload.problems}


@dataclass
class Tally:
    """Solves attempted and failed over a run, and what went wrong."""

    baseline: dict = field(default_factory=dict)  # key -> Solve of the warm-up pass
    failed_keys: set = field(default_factory=set)  # solves that failed a check
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    correct: bool = True

    def add(self, out):
        for key, solve in out.solves.items():
            self.attempted += 1
            if (key in self.failed_keys or not solve.converged
                    or solve.signature() != self.baseline[key].signature()):
                self.failed += 1

    def fail(self, key, found):
        self.failed_keys.add(key)
        self.messages += [f"{key[0]} / {key[1]}: {m}" for m in found]

    def wrong(self, message):
        self.correct = False
        self.messages.append(message)


def checked_pass(workload: Workload, refs: dict) -> Tally:
    """The warm-up pass, with every check on its outputs."""
    tally = Tally()
    objectives = {p.name: p.objective for p in workload.problems}
    configs = {(p.name, s): g.cfg for g in workload.groups for p in g.problems
               for s in g.solvers}

    def inspect(key, result):
        found = checks.check_solve(objectives[key[0]], result, configs[key], refs[key[0]])
        if found:
            tally.fail(key, found)

    out = run_pass(workload, refs, inspect=inspect)
    tally.baseline = out.solves
    for key, diagnostics in out.diagnostics.items():
        found = checks.check_psi(diagnostics, objectives[key[0]].dimension)
        if found:
            tally.fail(key, found)
    for metric, curves in out.curves.items():
        for message in checks.check_profiles(out.records, curves, metric):
            tally.wrong(message)
    tally.add(out)
    return tally


def _timed(workload, refs, rng, scale):
    """One pass: its wall time, the factor that scales it to reference speed,
    and its output."""
    gc.collect()
    start = time.perf_counter()
    out = run_pass(workload, refs, rng)
    wall = time.perf_counter() - start
    return wall, scale.next(), out


def memory_pass(workload: Workload, refs: dict, tally: Tally) -> float:
    """Peak traced allocation of one pass in MB, less what is still allocated
    when the pass has returned.

    What is left is mostly numpy's cache of small freed buffers, whose size
    differs from pass to pass by a few KB; the cyclic collector is paused so
    that the peak does not depend on when it runs.  The result is rounded to
    0.01 MB, well above the remaining jitter of about 100 bytes, so that it
    repeats exactly.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        tally.add(run_pass(workload, refs))
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return round((peak - left) / 1e6, 2)


def untraced_run(workload: Workload, refs: dict, tally: Tally, seconds: float, rng) -> tuple:
    """End-to-end metrics: a memory pass, then timed passes for ``seconds``."""
    peak_mb = memory_pass(workload, refs, tally)

    walls, scaled, solve_ms = [], [], defaultdict(list)
    scale = speed.Scale(workload.interpreter_bound)
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, k, out = _timed(workload, refs, rng, scale)
        walls.append(wall)
        scaled.append(wall * k)
        tally.add(out)
        for key, solve in out.solves.items():
            solve_ms[key].append(solve.ms * k)
    medians = [statistics.median(v) for v in solve_ms.values()]
    base = tally.baseline.values()
    metrics = {
        "pass_s": statistics.median(scaled),
        "solve_ms.geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "iterations": sum(s.iterations for s in base),
        "f_evals": sum(s.f_evals for s in base),
        "g_evals": sum(s.g_evals for s in base),
        "peak_mem_mb": peak_mb,
    }
    detail = {"raw_pass_s": walls, "scaled_pass_s": scaled, "loop_s": scale.loops,
              "raw_pass_s_median": statistics.median(walls),
              "solve_ms": {f"{p} / {s}": statistics.median(v) for (p, s), v in solve_ms.items()}}
    return metrics, detail


def traced_run(workload: Workload, refs: dict, tally: Tally, seconds: float, rng) -> tuple:
    """Per-layer metrics from traced passes, each after an untraced pass."""
    tracer = Tracer()
    traced = workload.map_objectives(tracer.objective)
    plain_walls, traced_walls, raw_traced, layers, spans = [], [], [], [], []
    scale = speed.Scale(workload.interpreter_bound)
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, k, out = _timed(workload, refs, rng, scale)
        plain_walls.append(wall * k)
        tally.add(out)
        tracer.reset()
        with tracer.installed():
            wall, k, out = _timed(traced, refs, rng, scale)
        traced_walls.append(wall * k)
        raw_traced.append(wall)
        tally.add(out)
        layer = {name: value * k if name.endswith("ms") else value
                 for name, value in tracer.layer_metrics().items()}
        for kind in ("f", "g"):
            counted = layer[f"objectives.{kind}.calls"]
            reported = sum(getattr(s, f"{kind}_evals") for s in out.solves.values())
            if counted != reported:
                tally.wrong(f"objectives.{kind}.calls = {counted}, but the solves "
                            f"report {reported} {kind}-evaluations")
        layers.append(layer)
        spans.append({name: {"calls": tracer.calls[name], "self_ms": 1e3 * s}
                      for name, s in tracer.self_s.items()})
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    plain, with_trace = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
    detail = {"scaled_pass_s": plain_walls, "scaled_traced_pass_s": traced_walls,
              "raw_traced_pass_s": raw_traced, "loop_s": scale.loops, "spans": spans,
              "self_share": _self_share(spans[-1], raw_traced[-1])}
    return metrics, detail


def _self_share(spans: dict, wall: float) -> dict:
    """Share of one traced pass spent in each layer's own work."""
    share = defaultdict(float)
    for name, span in spans.items():
        share[name.split(".")[0]] += span["self_ms"] / 1e3 / wall
    share["(untraced)"] = 1.0 - sum(share.values())
    return dict(sorted(share.items(), key=lambda kv: -kv[1]))


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``; the result with its details."""
    steal_start, clock_start = cpu_steal_s(), time.monotonic()
    phases = {}

    def phase(name, fn, *args):
        start = time.monotonic()
        value = fn(*args)
        phases[name] = time.monotonic() - start
        return value

    setup = phase("setup", measure_setup)
    refs = phase("references", references, workload)
    tally = phase("checked_pass", checked_pass, workload, refs)
    rng = np.random.default_rng(seed)
    if trace:
        metrics, detail = phase("passes", traced_run, workload, refs, tally, seconds, rng)
        metrics["suite.setup.ms"] = 1e3 * setup["suite_s"]
    else:
        metrics, detail = phase("passes", untraced_run, workload, refs, tally, seconds, rng)
        metrics["setup_s"] = setup["setup_s"]
    detail["phase_s"] = phases
    steal_end, clock_end = cpu_steal_s(), time.monotonic()
    steal = None
    if steal_start is not None and steal_end is not None:
        steal = {"steal_s": steal_end - steal_start, "wall_s": clock_end - clock_start,
                 "share": (steal_end - steal_start)
                 / ((clock_end - clock_start) * (os.cpu_count() or 1))}
    return {"tally": tally, "metrics": metrics, "detail": detail,
            "setup": setup["runs"], "steal": steal}
