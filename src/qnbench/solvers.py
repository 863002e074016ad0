"""BFGS baseline and the two-phase quasi-Newton solver.

Both solvers run one iteration loop.  Each iteration takes a Wolfe step from x
along the current operator's direction ``p_bar = -B^{-1} g`` and updates the
operator from that step's pair ``s = x_bar - x``, ``y = grad(x_bar) - g``.
BFGS replaces the operator with its BFGS update and accepts the step.  The
two-phase method rebuilds it as the convex combination

    B_next = lam * B + (1 - lam) * B_bfgs(B, s, y)

and then takes the real step from the *original* point along
``-B_next^{-1} g`` under a second Wolfe search.  When the curvature floor
rejects the pair, the update is skipped and the first step is accepted.

The loop sees the operator through three realizations that keep H = B^{-1}
and give the direction ``-H g``, an updated copy and ``psi(B) = tr B - ln det B``:
BFGS; two-phase ``b_form`` (default), the combination in B applied to H by the
Woodbury formula and certified by H_next's Cholesky pivots; and two-phase
``h_form_literal``, the literal ``(lam H^{-1} + (1 - lam) H_bar^{-1})^{-1}``,
kept for cross-validation.  ``B p_bar = -g`` spares every product with B: the
recorded ``cos_theta = s'Bs / (||Bs|| ||s||)`` is ``-g'p_bar / (||g|| ||p_bar||)``,
and ``Bs = -alpha_bar g`` gives ``b_form``'s update and psi(B) by the trace and
determinant identities.  Records keep B only under ``keep_operators``.

A run ends ``converged``, ``max_iter``, ``line_search_exhausted``,
``spd_failure`` (no descent direction, or an update that fails its SPD
certificate) or ``non_finite`` (f or the gradient is not finite at x0).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from qnbench.linalg import (
    SPDError,
    cholesky,
    inverse_spd,
    solve_spd,  # unused here, but perfbench/tracer.py patches solvers.solve_spd
    symmetrize,
)
from qnbench.linesearch import EXHAUSTED, WolfeParams, wolfe_search

MODE_B_FORM = "b_form"
MODE_H_FORM_LITERAL = "h_form_literal"

CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_EXHAUSTED = "line_search_exhausted"
SPD_FAILURE = "spd_failure"
NON_FINITE = "non_finite"

# An update is skipped, not applied, when s'y <= UPDATE_SKIP_TOL * ||s|| * ||y||.
UPDATE_SKIP_TOL = 1e-12


class CurvatureError(ValueError):
    """The update pair violates the curvature condition s'y > 0."""


@dataclass(frozen=True)
class SolverConfig:
    """Tunable scalars shared by both solvers.

    ``lam`` only affects the two-phase method.  ``keep_operators`` makes
    every :class:`UpdateRecord` keep B before and after its update, which
    costs one n x n matrix per iteration.
    """

    lam: float = 0.5
    tol: float = 1e-6
    max_iter: int = 500
    wolfe: WolfeParams = field(default_factory=WolfeParams)
    mode: str = MODE_B_FORM
    keep_operators: bool = False

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mode not in (MODE_B_FORM, MODE_H_FORM_LITERAL):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class IterateRecord:
    """State at the start of iteration k plus the step that left it.

    ``alpha_bar``, ``cos_theta`` and ``status_bar`` are None for the BFGS
    baseline, which has no intermediate phase.
    """

    k: int
    x: np.ndarray
    f: float
    grad_norm: float
    alpha_bar: float | None
    alpha: float
    cos_theta: float | None
    update_skipped: bool
    status_bar: str | None
    status: str


@dataclass(frozen=True)
class UpdateRecord:
    """Operator update data for one iteration, kept for diagnostics.

    ``psi`` and ``psi_next`` are ``tr B - ln det B`` of the operator before and
    after the update, for every solver and mode.  ``operator`` and
    ``operator_next`` are None unless the run set ``keep_operators``; then they
    are B before and after the update; every realization keeps H = B^{-1} and
    inverts it once per operator for the records.
    ``coupling`` is ``(p - p_bar)' grad(x_bar)`` for the two-phase method
    (None for BFGS); its sign is a recorded hypothesis flag, never enforced.
    A skipped update shows in the same iteration's ``IterateRecord.update_skipped``.
    """

    s: np.ndarray
    y: np.ndarray
    p: np.ndarray
    p_bar: np.ndarray | None
    operator: np.ndarray | None
    operator_next: np.ndarray | None
    psi: float
    psi_next: float
    coupling: float | None


@dataclass(frozen=True)
class SolveResult:
    final_x: np.ndarray
    final_f: float
    final_grad_norm: float
    iterations: int
    f_evals: int
    g_evals: int
    termination: str
    trace: list[IterateRecord]
    updates: list[UpdateRecord]

    @property
    def converged(self) -> bool:
        return self.termination == CONVERGED


def _curvature(s, y):
    """s'y, or :class:`CurvatureError` at or below the floor of UPDATE_SKIP_TOL."""
    sy = float(np.dot(s, y))
    floor = UPDATE_SKIP_TOL * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
    if sy <= floor:
        raise CurvatureError(f"s'y = {sy:.3e} fails the curvature floor {floor:.3e}")
    return sy


def bfgs_update_B(B, s, y):
    """Rank-two Hessian-approximation update B - Bss'B/(s'Bs) + yy'/(y's)."""
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = _curvature(s, y)
    Bs = B @ s
    sBs = float(np.dot(s, Bs))
    if sBs <= 0.0:
        raise SPDError(f"s'Bs = {sBs:.3e} is not positive")
    return B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy


def bfgs_update_H(H, s, y):
    """Inverse-Hessian update (I - r sy')H(I - r ys') + r ss', r = 1/(y's)."""
    H = np.asarray(H, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = _curvature(s, y)
    rho = 1.0 / sy
    n = s.size
    left = np.eye(n) - rho * np.outer(s, y)
    return symmetrize(left @ H @ left.T + rho * np.outer(s, s))


def two_phase_combine(B, B_bar, lam: float):
    """Convex combination lam * B + (1 - lam) * B_bar; SPD for SPD inputs."""
    B = np.asarray(B, dtype=float)
    B_bar = np.asarray(B_bar, dtype=float)
    if B.shape != B_bar.shape:
        raise ValueError(f"dimension mismatch: {B.shape} vs {B_bar.shape}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must be in (0, 1), got {lam}")
    return lam * B + (1.0 - lam) * B_bar


def combine_H_literal(H, H_bar, lam: float):
    """Inverse of the convex combination of inverses, per the literal form."""
    H_inv = inverse_spd(H)
    H_bar_inv = inverse_spd(H_bar)
    return inverse_spd(two_phase_combine(H_inv, H_bar_inv, lam))


def _psi_step(s, y, Bs, yHy, lam):
    """Changes in tr B and ln det B under B_next = lam B + (1 - lam) B_bfgs(B, s, y).

    The update is B + U C U' with U = [Bs, y] and
    C = diag(-(1 - lam)/s'Bs, (1 - lam)/s'y), so the trace gains
    (1 - lam)(y'y/s'y - ||Bs||^2/s'Bs), and by the matrix determinant lemma
    det B gains the factor det(I + C U'HU) with H = B^{-1}, which is
    lam (1 + (1 - lam) y'Hy/s'y) + (1 - lam)^2 s'y/s'Bs: a sum of positive
    terms, so no cancellation.
    """
    sy, sBs = float(s.dot(y)), float(s.dot(Bs))
    if not sBs > 0.0:
        # s = x_bar - x is alpha_bar p_bar rounded, so s'g can lose its sign
        # when x is large against the step; psi is then unknown, not an error
        return math.nan, math.nan
    mu = 1.0 - lam
    d_trace = mu * (float(y.dot(y)) / sy - float(Bs.dot(Bs)) / sBs)
    det = mu * mu * sy / sBs
    if lam:  # BFGS (lam = 0) needs no y'Hy: the factor is s'y/s'Bs
        det += lam * (1.0 + mu * yHy / sy)
    return d_trace, math.log(det)


class _InverseBfgs:
    """BFGS on the inverse operator H: the baseline's realization.

    It carries tr B and ln det B of B = H^{-1} from B_0 = I through
    :func:`_psi_step`, so psi(B) costs no factorization.
    """

    def __init__(self, H, trace=None, log_det=0.0):
        self.matrix = H
        self.trace = float(H.shape[0]) if trace is None else trace
        self.log_det = log_det
        self.psi = self.trace - self.log_det

    @cached_property
    def operator(self):
        """B = H^{-1}, inverted once for the records of ``keep_operators``."""
        return inverse_spd(self.matrix)

    def direction(self, g):
        return -(self.matrix @ g)

    def updated(self, s, y, Bs, cfg):
        H_next = bfgs_update_H(self.matrix, s, y)
        return self._successor(H_next, s, y, Bs, 0.0)

    def _successor(self, H_next, s, y, Bs, lam, yHy=None):
        d_trace, d_log_det = _psi_step(s, y, Bs, yHy, lam)
        return type(self)(H_next, self.trace + d_trace, self.log_det + d_log_det)


class _TwoPhaseHLiteral(_InverseBfgs):
    """Two-phase combination on H through the literal double inversion."""

    def updated(self, s, y, Bs, cfg):
        H_bar = bfgs_update_H(self.matrix, s, y)
        H_next = combine_H_literal(self.matrix, H_bar, cfg.lam)
        return self._successor(H_next, s, y, Bs, cfg.lam, float(y.dot(self.matrix @ y)))


class _TwoPhaseWoodbury(_InverseBfgs):
    """Two-phase ``b_form``: the update B + U C U' of :func:`_psi_step`, on H.

    By Woodbury (Nocedal & Wright, eq. A.28), H_next = H - HU M^{-1} (HU)' with
    M = C^{-1} + U'HU = [[-lam s'Bs/(1 - lam), s'y], [s'y, s'y/(1 - lam) + y'Hy]]
    with s = H Bs = alpha_bar p_bar, not the rounded x_bar - x: s'Bs = Bs'H Bs > 0
    and psi tracks H_next.  H_next's rounding asymmetry is accepted, unsymmetrized.
    """

    def updated(self, s, y, Bs, cfg):
        _curvature(s, y)
        H, lam, mu = self.matrix, cfg.lam, 1.0 - cfg.lam
        HU = np.column_stack((H @ Bs, H @ y))
        s = HU[:, 0]
        sy, sBs, yHy = float(s.dot(y)), float(s.dot(Bs)), float(y.dot(HU[:, 1]))
        if sBs <= 0.0:
            raise SPDError(f"s'Bs = {sBs:.3e} is not positive")
        m11, m12, m22 = -lam * sBs / mu, sy, sy / mu + yHy
        M_inv = np.array([[m22, -m12], [-m12, m11]]) / (m11 * m22 - m12 * m12)
        H_next = H - (HU @ M_inv) @ HU.T
        cholesky(H_next)  # the SPD certificate: SPDError at a pivot below PIVOT_RTOL
        return self._successor(H_next, s, y, Bs, lam, yHy)


def _descends(g, p):
    """Whether g'p is finite and negative, as ``wolfe_search`` requires."""
    return -np.inf < float(np.dot(g, p)) < 0.0


def _solve(f, x0, cfg: SolverConfig, op, two_phase: bool) -> SolveResult:
    """The iteration loop of both solvers, over the operator realization ``op``."""
    x = np.array(x0, dtype=float)
    fx = float(f.evaluate(x))
    g = np.asarray(f.gradient(x), dtype=float)
    f_evals, g_evals = 1, 1
    trace: list[IterateRecord] = []
    updates: list[UpdateRecord] = []
    k = 0
    if not (np.isfinite(fx) and np.all(np.isfinite(g))):
        return SolveResult(x, fx, float(np.linalg.norm(g)), k, f_evals, g_evals,
                           NON_FINITE, trace, updates)
    while True:
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.tol:
            termination = CONVERGED
            break
        if k >= cfg.max_iter:
            termination = MAX_ITER
            break
        p_bar = op.direction(g)
        if not _descends(g, p_bar):
            termination = SPD_FAILURE
            break
        first = wolfe_search(f, x, p_bar, fx, g, cfg.wolfe)
        f_evals += first.f_evals
        g_evals += first.g_evals
        if first.status == EXHAUSTED:
            termination = LINE_SEARCH_EXHAUSTED
            break
        x_bar = x + first.alpha * p_bar
        s = x_bar - x
        y = first.grad_new - g
        try:
            # B p_bar = -g, so Bs = -alpha_bar g
            op_next, skipped = op.updated(s, y, -first.alpha * g, cfg), False
        except CurvatureError:
            op_next, skipped = op, True
        except SPDError:
            termination = SPD_FAILURE
            break
        # BFGS, and two-phase after a skipped update, accept the first step
        p, second, x_next = p_bar, first, x_bar
        if two_phase and not skipped:
            p = op_next.direction(g)
            if not _descends(g, p):
                termination = SPD_FAILURE
                break
            second = wolfe_search(f, x, p, fx, g, cfg.wolfe)
            f_evals += second.f_evals
            g_evals += second.g_evals
            if second.status == EXHAUSTED:
                termination = LINE_SEARCH_EXHAUSTED
                break
            x_next = x + second.alpha * p

        alpha_bar = status_bar = recorded_p_bar = cos_theta = coupling = None
        if two_phase:
            alpha_bar, status_bar, recorded_p_bar = first.alpha, first.status, p_bar
            cos_theta = -float(np.dot(g, p_bar)) / (grad_norm * float(np.linalg.norm(p_bar)))
            coupling = float(np.dot(p - p_bar, first.grad_new))
        trace.append(IterateRecord(k, x, fx, grad_norm, alpha_bar, second.alpha, cos_theta,
                                   skipped, status_bar, second.status))
        operator, operator_next = ((op.operator, op_next.operator) if cfg.keep_operators
                                   else (None, None))
        updates.append(UpdateRecord(s, y, p, recorded_p_bar, operator, operator_next,
                                    op.psi, op_next.psi, coupling))
        x, fx, g, op = x_next, second.f_new, second.grad_new, op_next
        k += 1
    return SolveResult(x, fx, float(np.linalg.norm(g)), k, f_evals, g_evals,
                       termination, trace, updates)


def solve_bfgs(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Standard BFGS with the inverse-Hessian update, started from H = I.

    Parameters
    ----------
    f : ObjectiveFunction
        Objective with analytic gradient (gradient-checked beforehand).
    x0 : array_like
        Starting point.
    cfg : SolverConfig, optional
        Tolerances and line-search constants; benchmark defaults when omitted.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    return _solve(f, x0, cfg, _InverseBfgs(np.eye(np.size(x0))), two_phase=False)


def solve_two_phase(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Two-phase quasi-Newton iteration (see the module docstring), from B = I.

    Parameters as in :func:`solve_bfgs`; ``cfg.mode`` chooses between
    ``b_form``, the combination in B applied to H by a Woodbury update, and
    the literal inverse form.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    form = _TwoPhaseWoodbury if cfg.mode == MODE_B_FORM else _TwoPhaseHLiteral
    return _solve(f, x0, cfg, form(np.eye(np.size(x0))), two_phase=True)


def trace_to_csv(result: SolveResult) -> str:
    """Trace as CSV: k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped.

    A terminal summary row holds the final iterate's f and gradient norm with
    the step columns empty.
    """
    out = io.StringIO()
    out.write("k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped\n")

    def fmt(value):
        return "" if value is None else repr(float(value))

    for r in result.trace:
        skipped = "true" if r.update_skipped else "false"
        out.write(f"{r.k},{fmt(r.f)},{fmt(r.grad_norm)},{fmt(r.alpha_bar)},"
                  f"{fmt(r.alpha)},{fmt(r.cos_theta)},{skipped}\n")
    out.write(f"{result.iterations},{fmt(result.final_f)},"
              f"{fmt(result.final_grad_norm)},,,,\n")
    return out.getvalue()
