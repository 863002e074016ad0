"""Convergence diagnostics computed from recorded solver runs.

Executable forms of the quantities the convergence analysis reasons about:
the operator potential ``psi(B) = trace(B) - ln det(B)``, the error-ratio
series ``||x_{k+1} - x*|| / ||x_k - x*||``, and the direction-quality
quotient ``||(B - G*) p_bar|| / ||p_bar||``.  The solvers record psi of each
operator as they go, so a run's psi series needs no matrix; the direction
quality needs B, which a run records only under
``SolverConfig(keep_operators=True)``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from qnbench.linalg import cholesky, log_determinant_spd
from qnbench.solvers import SolveResult

RATIO_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    psi_series: list[float]
    q_ratios: list[float]
    dir_quality: list[float]
    assumption2_flags: list[bool]


def psi(B) -> float:
    """trace(B) - ln det(B); positive for every SPD matrix, minimal (= n) at I."""
    B = np.asarray(B, dtype=float)
    lower = cholesky(B)
    return float(np.trace(B)) - log_determinant_spd(lower)


def superlinear_ratio_series(trace, x_star, final_x=None):
    """Ratios ||x_{k+1} - x*|| / ||x_k - x*|| along a recorded trace.

    ``final_x`` extends the trace with the terminal iterate, giving the last
    ratio.  Ratios whose denominator underflows ``RATIO_DENOM_FLOOR`` are
    dropped.
    """
    x_star = np.asarray(x_star, dtype=float)
    xs = [np.asarray(r.x, dtype=float) for r in trace]
    if final_x is not None:
        xs.append(np.asarray(final_x, dtype=float))
    errs = [float(np.linalg.norm(x - x_star)) for x in xs]
    return [
        errs[k + 1] / errs[k]
        for k in range(len(errs) - 1)
        if errs[k] > RATIO_DENOM_FLOOR
    ]


def direction_quality(B, hess_star, p_bar) -> float:
    """||(B - hess_star) p_bar|| / ||p_bar||."""
    p_bar = np.asarray(p_bar, dtype=float)
    norm_p = float(np.linalg.norm(p_bar))
    if norm_p == 0.0:
        raise ValueError("p_bar must be nonzero")
    residual = (np.asarray(B, float) - np.asarray(hess_star, float)) @ p_bar
    return float(np.linalg.norm(residual)) / norm_p


def diagnose_run(result: SolveResult, x_star, hess_star=None) -> ConvergenceDiagnostics:
    """Assemble all diagnostic series from one recorded run.

    ``psi_series`` is the recorded psi(B_0) .. psi(B_m) of the operators the
    run went through, for either solver and either mode.  ``dir_quality`` is
    only populated when the exact limiting Hessian is supplied, which for
    quadratic objectives is the constant Hessian; it reads the recorded B of
    each iteration, so it raises ``ValueError`` for a run that did not keep
    the operators.
    """
    psi_series = [u.psi for u in result.updates]
    if result.updates:
        psi_series.append(result.updates[-1].psi_next)
    q_ratios = superlinear_ratio_series(result.trace, x_star, result.final_x)
    if hess_star is not None:
        if any(u.operator is None for u in result.updates):
            raise ValueError("dir_quality needs the recorded operators; "
                             "solve with SolverConfig(keep_operators=True)")
        dir_quality = [
            direction_quality(u.operator, hess_star, u.p_bar)
            for u in result.updates
            if u.p_bar is not None
        ]
    else:
        dir_quality = []
    flags = [u.coupling < 0.0 for u in result.updates if u.coupling is not None]
    return ConvergenceDiagnostics(psi_series, q_ratios, dir_quality, flags)


def diagnostics_to_csv(diag: ConvergenceDiagnostics) -> str:
    """CSV with one row per iteration index; shorter series leave blanks."""
    out = io.StringIO()
    out.write("k,psi,q_ratio,dir_quality,assumption2_descent\n")
    rows = max(len(diag.psi_series), len(diag.q_ratios),
               len(diag.dir_quality), len(diag.assumption2_flags))

    def cell(series, k, fmt=repr):
        return fmt(series[k]) if k < len(series) else ""

    for k in range(rows):
        flag = cell(diag.assumption2_flags, k, lambda v: "true" if v else "false")
        out.write(f"{k},{cell(diag.psi_series, k)},{cell(diag.q_ratios, k)},"
                  f"{cell(diag.dir_quality, k)},{flag}\n")
    return out.getvalue()
