"""Correctness checks on the benchmark's outputs.

Every check compares against something computed apart from the solvers:
``scipy.optimize`` minima or a closed-form optimum, a re-evaluation of the
objective at each accepted step, the bound psi(B) >= n that every SPD matrix
meets, and a recomputation of the Dolan-More curves from the records.  Each
check returns a list of messages, empty when the check passes.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from qnbench.linesearch import WOLFE_SATISFIED
from qnbench.solvers import CONVERGED
from qnbench.suite import KnownOptimum

# The final f must match the reference minimum to this relative tolerance.
# At ||grad|| <= 1e-6 the solvers end within 4e-11 of the scipy minima on the
# suite, and within 1e-10 of the closed-form optima at large n.
F_RTOL = 1e-8
REFERENCE_GTOL = 1e-10


def scipy_reference(objective) -> KnownOptimum:
    """Minimum found by ``scipy.optimize`` BFGS from the objective's start."""
    from scipy.optimize import minimize

    res = minimize(objective.evaluate, objective.standard_start, jac=objective.gradient,
                   method="BFGS", options={"gtol": REFERENCE_GTOL, "maxiter": 10_000})
    grad_norm = float(np.linalg.norm(objective.gradient(res.x)))
    if not grad_norm <= 1e-6:
        raise RuntimeError(f"{objective.name}: scipy reference ends at ||grad|| = {grad_norm:.3e}")
    return KnownOptimum(np.asarray(res.x, dtype=float), float(res.fun))


def accepted_steps(result):
    """(x, p, alpha, status, x_next) for every step a line search accepted.

    A two-phase iteration accepts an intermediate step along ``p_bar`` and
    then the real step along ``p``; when the update is skipped the two are
    the same step.  ``x_next`` is the recorded next iterate for a real step
    and None for an intermediate one.
    """
    nexts = [r.x for r in result.trace[1:]] + [result.final_x]
    for record, update, x_next in zip(result.trace, result.updates, nexts):
        if update.p_bar is not None and not record.update_skipped:
            yield record.x, update.p_bar, record.alpha_bar, record.status_bar, None
        yield record.x, update.p, record.alpha, record.status, x_next


def check_steps(objective, result, wolfe) -> list[str]:
    """Re-evaluate every accepted step: Armijo always, curvature when the line
    search reported ``wolfe_satisfied``, and the step must land on the next
    recorded iterate."""
    found = []
    for k, (x, p, alpha, status, x_next) in enumerate(accepted_steps(result)):
        f_x = float(objective.evaluate(x))
        slope = float(np.dot(objective.gradient(x), p))
        x_new = x + alpha * p
        if not float(objective.evaluate(x_new)) <= f_x + wolfe.c1 * alpha * slope:
            found.append(f"step {k}: Armijo fails on re-evaluation (alpha={alpha!r})")
        if status == WOLFE_SATISFIED and not (
                float(np.dot(objective.gradient(x_new), p)) >= wolfe.c2 * slope):
            found.append(f"step {k}: reported {WOLFE_SATISFIED} but curvature fails")
        if x_next is not None and not np.array_equal(x_new, x_next):
            found.append(f"step {k}: x + alpha p is not the recorded next iterate")
    return found


def check_solve(objective, result, cfg, reference: KnownOptimum) -> list[str]:
    """All per-solve checks of one ``SolveResult`` against ``reference``."""
    if result is None:
        return ["the solver raised"]
    found = []
    if result.termination != CONVERGED:
        found.append(f"terminated {result.termination}")
    grad_norm = float(np.linalg.norm(objective.gradient(result.final_x)))
    if not grad_norm <= cfg.tol:
        found.append(f"||grad f(x_final)|| = {grad_norm:.3e} > tol {cfg.tol:g}")
    if not abs(result.final_f - reference.f) <= F_RTOL * max(1.0, abs(reference.f)):
        found.append(f"final f {result.final_f!r} is not the reference minimum {reference.f!r}")
    found += check_steps(objective, result, cfg.wolfe)
    return found


def check_psi(diagnostics, n: int) -> list[str]:
    """psi(B) = sum(lambda - ln lambda) over B's eigenvalues, so psi(B) >= n."""
    low = [v for v in diagnostics.psi_series if not v >= n * (1.0 - 1e-12)]
    return [f"psi(B) = {v!r} < n = {n}" for v in low[:3]]


def _ratio(cost, best):
    if not math.isfinite(cost):
        return math.inf
    if cost == best:
        return 1.0
    return cost / best if best > 0.0 else math.inf


def profile_points(records, metric: str) -> dict:
    """Dolan-More curves recomputed from ``records``: solver -> [(tau, P)]."""
    cost = {}
    for r in records:
        value = r.iterations if metric == "iterations" else r.median_time_ms
        cost[(r.problem, r.solver)] = float(value) if r.converged else math.inf
    problems = sorted({p for p, _ in cost})
    solvers = sorted({s for _, s in cost})
    ratios = {s: [] for s in solvers}
    for p in problems:
        best = min(cost[(p, s)] for s in solvers)
        for s in solvers:
            ratios[s].append(_ratio(cost[(p, s)], best))
    taus = sorted({1.0} | {r for rs in ratios.values() for r in rs if math.isfinite(r)})
    curves = {}
    for s in solvers:
        ordered = sorted(ratios[s])
        curves[s] = [(tau, bisect.bisect_right(ordered, tau) / len(problems)) for tau in taus]
    return curves


def check_profiles(records, curves, metric: str) -> list[str]:
    """The library's curves for ``metric`` against :func:`profile_points`."""
    expected = profile_points(records, metric)
    got = {c.solver: c.points for c in curves}
    if sorted(got) != sorted(expected):
        return [f"{metric} profile: solvers {sorted(got)} != {sorted(expected)}"]
    found = []
    for solver, points in expected.items():
        mine = got[solver]
        same = len(mine) == len(points) and all(
            math.isclose(t1, t2, rel_tol=1e-12) and p1 == p2
            for (t1, p1), (t2, p2) in zip(mine, points))
        if not same:
            found.append(f"{metric} profile of {solver} differs from the recomputation")
    return found
