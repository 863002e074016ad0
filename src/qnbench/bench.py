"""Benchmark harness: timed suite runs, the Markdown comparison table, the
results and profile CSVs, and Dolan-More performance profiles with an SVG plot.

The Dolan-More machinery follows the usual definitions: for problem p and
solver s the performance ratio is rho_{p,s} = r_{p,s} / min_s r_{p,s}, and the
profile P_s(tau) is the fraction of problems with rho_{p,s} <= tau.  Runs that
did not converge get rho = +inf and never reach any finite tau.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import sys
import time
from dataclasses import dataclass

from qnbench.objectives import _count
from qnbench.solvers import SolveResult, SolverConfig, solve_bfgs, solve_two_phase
from qnbench.suite import suite

SOLVER_FUNCS = {
    "bfgs": solve_bfgs,
    "two-phase": solve_two_phase,
}

RESULTS_CSV_FIELDS = ["problem", "solver", "n", "iterations", "median_time_ms",
                      "converged", "f_final", "grad_norm_final"]


class IncompleteRecordsError(ValueError):
    """Profile input is missing a (problem, solver) record or duplicates one."""


@dataclass(frozen=True)
class BenchmarkRecord:
    """One (problem, solver) measurement over its timed runs.

    Iteration counts and final values come from the first run (runs are
    deterministic); the time is the median over the runs.  ``error`` is
    empty unless the solver raised, in which case it holds the exception's
    type and message.
    """

    problem: str
    solver: str
    n: int
    iterations: int
    median_time_ms: float
    converged: bool
    f_final: float
    grad_norm_final: float
    error: str = ""


@dataclass(frozen=True)
class ProfileCurve:
    solver: str
    points: list[tuple[float, float]]  # (tau, P), tau >= 1, P in [0, 1]


def run_suite(problems=None, solvers=tuple(SOLVER_FUNCS),
              cfg: SolverConfig | None = None, runs: int = 5,
              results: dict | None = None) -> list[BenchmarkRecord]:
    """Execute every (problem, solver) pair ``runs`` times, sequentially.

    Timed runs stay on one worker so timings are not skewed by contention.
    Failures are recorded, never raised: a solver that raises gives a
    non-converged record whose ``error`` names the exception.  When a
    ``results`` dict is supplied it collects the first :class:`SolveResult`
    per pair under the key ``(problem_name, solver_name)``.  An unknown solver
    name, or a ``runs`` that is no int >= 1, raises ``ValueError`` before any solve.
    """
    runs, solvers = _count("runs", runs), tuple(solvers)
    if unknown := [name for name in solvers if name not in SOLVER_FUNCS]:
        raise ValueError(f"unknown solvers {unknown}; known: {sorted(SOLVER_FUNCS)}")
    problems = suite() if problems is None else list(problems)
    cfg = cfg if cfg is not None else SolverConfig()
    records = []
    for problem in problems:
        objective = problem.objective
        for solver_name in solvers:
            solver = SOLVER_FUNCS[solver_name]
            times_ms = []
            first: SolveResult | None = None
            error = ""
            for _ in range(runs):
                start = time.perf_counter()
                try:
                    result = solver(objective, objective.standard_start, cfg)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    break
                finally:
                    times_ms.append((time.perf_counter() - start) * 1e3)
                if first is None:
                    first = result
            if error:
                records.append(BenchmarkRecord(
                    problem.name, solver_name, objective.dimension,
                    cfg.max_iter, statistics.median(times_ms), False,
                    math.nan, math.nan, error))
                continue
            if results is not None:
                results[(problem.name, solver_name)] = first
            records.append(BenchmarkRecord(
                problem.name, solver_name, objective.dimension,
                first.iterations, statistics.median(times_ms), first.converged,
                first.final_f, first.final_grad_norm))
    return records


def table_fixture_records() -> list[BenchmarkRecord]:
    """Records built from the suite's reference iteration counts.

    These let the profile generator be exercised without running any solver.
    Each record's time is 1 ms per reference iteration, a positive cost that
    ``dolan_more(metric="time")`` and :func:`records_from_csv` accept.
    """
    records = []
    for problem in suite():
        for solver_name, iters in (("bfgs", problem.table_bfgs_iters),
                                   ("two-phase", problem.table_twophase_iters)):
            records.append(BenchmarkRecord(
                problem.name, solver_name, problem.objective.dimension,
                iters, float(iters), True, 0.0, 0.0))
    return records


def dolan_more(records, metric: str = "iterations") -> list[ProfileCurve]:
    """Performance-profile curves for every solver present in ``records``; a ratio
    divides by the best cost, so a converged record's time must be > 0."""
    if metric not in ("iterations", "time"):
        raise ValueError(f"metric must be 'iterations' or 'time', got {metric!r}")
    records = list(records)
    problems = list(dict.fromkeys(r.problem for r in records))
    solvers = list(dict.fromkeys(r.solver for r in records))
    by_key = {}
    for r in records:
        key = (r.problem, r.solver)
        if key in by_key:
            raise IncompleteRecordsError(f"duplicate record for {key}")
        by_key[key] = r
    for p in problems:
        for s in solvers:
            if (p, s) not in by_key:
                raise IncompleteRecordsError(f"missing record for ({p!r}, {s!r})")

    def cost(record):
        if metric == "iterations":
            return float(record.iterations)
        if not record.median_time_ms > 0.0:  # the ratio divides by the best time
            raise ValueError(f"time of converged ({record.problem!r}, {record.solver!r}) "
                             f"must be > 0, got {record.median_time_ms!r}")
        return float(record.median_time_ms)

    ratios = {s: [] for s in solvers}
    for p in problems:
        solved = [cost(by_key[(p, s)]) for s in solvers if by_key[(p, s)].converged]
        best = min(solved) if solved else math.inf
        for s in solvers:
            record = by_key[(p, s)]
            if not record.converged or not math.isfinite(best):
                ratios[s].append(math.inf)
            elif best == 0.0:
                ratios[s].append(1.0 if cost(record) == 0.0 else math.inf)
            else:
                ratios[s].append(cost(record) / best)

    taus = sorted({1.0} | {r for rs in ratios.values() for r in rs if math.isfinite(r)})
    n_p = len(problems)
    curves = []
    for s in solvers:
        points = [(tau, sum(1 for r in ratios[s] if r <= tau) / n_p) for tau in taus]
        curves.append(ProfileCurve(s, points))
    return curves


# --- text emission ----------------------------------------------------------


def emit_table(records) -> str:
    """Comparison table in Markdown, one row per problem in suite order."""
    records = list(records)
    if not records:
        print("emit_table: no records selected, emitting header only", file=sys.stderr)
    by_key = {(r.problem, r.solver): r for r in records}
    order = {p.name: i for i, p in enumerate(suite())}
    names = sorted(dict.fromkeys(r.problem for r in records),
                   key=lambda name: (order.get(name, len(order)), name))
    md = io.StringIO()
    md.write("| Sl | Function | BFGS Iterations | BFGS Time (ms) "
             "| Two-Phase Iterations | Two-Phase Time (ms) |\n")
    md.write("|---:|:---------|----------------:|---------------:"
             "|---------------------:|--------------------:|\n")
    for sl, name in enumerate(names, start=1):
        bfgs, two = by_key.get((name, "bfgs")), by_key.get((name, "two-phase"))
        md.write(f"| {sl} | {name} "
                 f"| {bfgs.iterations if bfgs else ''} "
                 f"| {f'{bfgs.median_time_ms:.3f}' if bfgs else ''} "
                 f"| {two.iterations if two else ''} "
                 f"| {f'{two.median_time_ms:.3f}' if two else ''} |\n")
    return md.getvalue()


def records_to_csv(records) -> str:
    """Results CSV: problem,solver,n,iterations,median_time_ms,converged,f_final,grad_norm_final."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULTS_CSV_FIELDS)
    for r in records:
        writer.writerow([r.problem, r.solver, r.n, r.iterations,
                         repr(float(r.median_time_ms)),
                         "true" if r.converged else "false",
                         repr(float(r.f_final)), repr(float(r.grad_norm_final))])
    return out.getvalue()


def _converged_from_csv(value):
    """``true`` or ``false``, the two values :func:`records_to_csv` writes."""
    if value not in ("true", "false"):
        raise ValueError(f"converged must be 'true' or 'false', got {value!r}")
    return value == "true"


def _cost_from_csv(raw, column, parse):
    """A profile cost: finite, and > 0 for ``median_time_ms`` (see :func:`dolan_more`)."""
    value = parse(raw[column])
    strict = column == "median_time_ms"
    if not (0 < value < math.inf or value == 0 and not strict):
        raise ValueError(f"{column} must be finite and {'>' if strict else '>='} 0, "
                         f"got {raw[column]!r}")
    return value


def records_from_csv(text: str) -> list[BenchmarkRecord]:
    """Parse a results CSV back into records; :class:`ValueError` on a malformed value."""
    reader = csv.DictReader(io.StringIO(text))
    records = []
    for raw in reader:
        records.append(BenchmarkRecord(
            raw["problem"], raw["solver"], int(raw["n"]), _cost_from_csv(raw, "iterations", int),
            _cost_from_csv(raw, "median_time_ms", float), _converged_from_csv(raw["converged"]),
            float(raw["f_final"]), float(raw["grad_norm_final"])))
    return records


def profiles_to_csv(curves) -> str:
    """Profile CSV: solver,tau,P."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["solver", "tau", "P"])
    for curve in curves:
        for tau, p in curve.points:
            writer.writerow([curve.solver, repr(float(tau)), repr(float(p))])
    return out.getvalue()


# --- SVG profile plot -------------------------------------------------------

_SVG_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SVG_W, _SVG_H = 640, 480
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 24, 52


# xml.sax.saxutils' escape and quoteattr, byte for byte: importing that module
# pulls in urllib.request, http.client, email, ssl and socket
def _escape(text):
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text):
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def profile_svg(curves) -> str:
    """Self-contained step plot of profile curves (no external assets)."""
    curves = list(curves)
    if not curves:
        raise ValueError("curves must be nonempty")
    finite_taus = [tau for c in curves for tau, _ in c.points if math.isfinite(tau)]
    tau_hi = 1.05 * max(finite_taus) if finite_taus else 1.05
    if tau_hi <= 1.0:
        tau_hi = 1.05
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def sx(tau):
        return _SVG_ML + (tau - 1.0) / (tau_hi - 1.0) * plot_w

    def sy(p):
        return _SVG_MT + (1.0 - p) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{_SVG_ML - 4}" y1="{y:.2f}" x2="{_SVG_ML}" '
                     f'y2="{y:.2f}" stroke="#444444"/>')
        parts.append(f'<text x="{_SVG_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{frac:g}</text>')
    n_ticks = 5
    for j in range(n_ticks + 1):
        tau = 1.0 + (tau_hi - 1.0) * j / n_ticks
        x = sx(tau)
        parts.append(f'<line x1="{x:.2f}" y1="{_SVG_MT + plot_h}" x2="{x:.2f}" '
                     f'y2="{_SVG_MT + plot_h + 4}" stroke="#444444"/>')
        parts.append(f'<text x="{x:.2f}" y="{_SVG_MT + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{tau:.2f}</text>')
    parts.append(f'<text x="{_SVG_ML + plot_w / 2:.2f}" y="{_SVG_H - 12}" '
                 'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 'performance ratio &#964;</text>')
    parts.append(f'<text x="16" y="{_SVG_MT + plot_h / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_SVG_MT + plot_h / 2:.2f})">P(&#964;)</text>')

    for idx, curve in enumerate(curves):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        pts = [(tau, p) for tau, p in curve.points if math.isfinite(tau)]
        pts.sort(key=lambda tp: tp[0])
        if not pts:
            continue
        d = [f"M {sx(pts[0][0]):.2f} {sy(pts[0][1]):.2f}"]
        for (tau, p), (_, p_prev) in zip(pts[1:], pts[:-1]):
            d.append(f"L {sx(tau):.2f} {sy(p_prev):.2f}")
            d.append(f"L {sx(tau):.2f} {sy(p):.2f}")
        d.append(f"L {sx(tau_hi):.2f} {sy(pts[-1][1]):.2f}")
        parts.append(f'<path class="profile-curve" data-solver={_quoteattr(curve.solver)} '
                     f'd="{" ".join(d)}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = _SVG_MT + 18 + 18 * idx
        parts.append(f'<line x1="{_SVG_ML + 10}" y1="{ly}" x2="{_SVG_ML + 34}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text class="legend-label" x="{_SVG_ML + 40}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="13">{_escape(curve.solver)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
