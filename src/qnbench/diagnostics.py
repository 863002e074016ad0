"""Convergence diagnostics computed from recorded solver runs.

Executable forms of the quantities the convergence analysis reasons about:
the operator potential ``psi(B) = trace(B) - ln det(B)``, the error-ratio
series ``||x_{k+1} - x*|| / ||x_k - x*||``, and the direction-quality
quotient ``||(B - G*) p_bar|| / ||p_bar||``.  No series needs a recorded
matrix: the solvers record psi of each operator as they go, and the direction
quality reads ``B p_bar = -g`` off each iteration's recorded gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qnbench.linalg import cholesky, log_determinant_spd
from qnbench.solvers import SolveResult, _norm

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
    dropped.  Each norm is ``solvers._norm``, bit-equal to ``np.linalg.norm``
    without its wrapper.  An ``x_star`` of another shape than the iterates'
    ``(n,)`` raises ``ValueError``, where it would broadcast.
    """
    xs = [np.asarray(r.x, dtype=float) for r in trace]
    if final_x is not None:
        xs.append(np.asarray(final_x, dtype=float))
    if not xs:
        return []
    x_star = _shaped("x_star", x_star, xs[0].shape)
    errs = [_norm(x - x_star) for x in xs]
    return [
        errs[k + 1] / errs[k]
        for k in range(len(errs) - 1)
        if errs[k] > RATIO_DENOM_FLOOR
    ]


def _shaped(name, value, shape):
    """``value`` as a float array, or ValueError unless it has ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    return value


def direction_quality(g, hess_star, p_bar) -> float:
    """||(B - hess_star) p_bar|| / ||p_bar|| of the direction p_bar = -B^{-1} g.

    ``B p_bar = -g``, so the residual is ``-g - hess_star p_bar`` and B itself
    is never needed.  A ``p_bar`` that is not a vector, or a ``g`` or
    ``hess_star`` of another shape than ``p_bar``'s ``(n,)`` and ``(n, n)``,
    raises ``ValueError``, where it would broadcast or fail inside numpy.
    """
    p_bar = np.asarray(p_bar, dtype=float)
    if p_bar.ndim != 1:
        raise ValueError(f"p_bar has shape {p_bar.shape}, expected a vector (n,)")
    n = p_bar.size
    g = _shaped("g", g, (n,))
    hess_star = _shaped("hess_star", hess_star, (n, n))
    norm_p = float(np.linalg.norm(p_bar))
    if norm_p == 0.0:
        raise ValueError("p_bar must be nonzero")
    residual = -g - hess_star @ p_bar
    return float(np.linalg.norm(residual)) / norm_p


def diagnose_run(result: SolveResult, x_star, hess_star=None) -> ConvergenceDiagnostics:
    """Assemble all diagnostic series from one recorded run.

    ``psi_series`` is psi(B_0) = n followed by the recorded ``psi_next`` of
    each update, psi(B_1) .. psi(B_m), for either solver and either mode; it
    is empty for a run with no records.  ``dir_quality`` is
    only populated when the exact limiting Hessian is supplied, which for
    quadratic objectives is the constant Hessian; it has one value per
    two-phase iteration, from the recorded g and p_bar, and none for BFGS.
    An ``x_star`` of another shape than ``(n,)``, or a ``hess_star`` of
    another than ``(n, n)``, raises ``ValueError``.
    """
    n = result.final_x.size
    if hess_star is not None:
        hess_star = _shaped("hess_star", hess_star, (n, n))
    psi_series = []
    if result.trace:
        psi_series = [float(n)] + [r.psi_next for r in result.trace]
    q_ratios = superlinear_ratio_series(result.trace, x_star, result.final_x)
    if hess_star is not None:
        dir_quality = [
            direction_quality(r.g, hess_star, r.p_bar)
            for r in result.trace
            if r.p_bar is not None
        ]
    else:
        dir_quality = []
    flags = [r.coupling < 0.0 for r in result.trace if r.coupling is not None]
    return ConvergenceDiagnostics(psi_series, q_ratios, dir_quality, flags)
