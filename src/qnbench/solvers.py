"""BFGS baseline and the two-phase quasi-Newton solver.

Both solvers run one iteration loop.  Each iteration takes a Wolfe step from x
along the current operator's direction ``p_bar = -B^{-1} g`` and updates the
operator from that step's pair ``s = alpha_bar p_bar``, ``y = grad(x_bar) - g``.
BFGS replaces the operator with its BFGS update and accepts the step.  The
two-phase method rebuilds it as the convex combination

    B_next = lam * B + (1 - lam) * B_bfgs(B, s, y)

and then takes the real step from the *original* point along
``-B_next^{-1} g`` under a second Wolfe search.  When the curvature floor
rejects the pair, the update is skipped and the first step is accepted.

The loop sees the operator through three realizations that keep H = B^{-1}
and give the direction ``-H g``, an updated successor and
``psi(B) = tr B - ln det B``: BFGS; two-phase ``b_form`` (default), the
combination in B applied to H by the Woodbury formula and certified by
H_next's Cholesky pivots; and two-phase ``h_form_literal``, the literal
``(lam H^{-1} + (1 - lam) H_bar^{-1})^{-1}``, kept for cross-validation.  The
BFGS and ``b_form`` updates write over H, so an iteration holds H and one
transient n x n.  ``B p_bar = -g`` spares every product with B:
``Bs = -alpha_bar g`` gives ``b_form``'s update and psi(B) by the trace and
determinant identities.

Records keep vectors and scalars, never a matrix, and each fact once: an
iterate's x, f and g, and its step's y, p, p_bar and psi_next.  What these
repeat is derived where it is read: k is the record's index, ``||g||`` and
``cos_theta = -g'p_bar / (||g|| ||p_bar||)`` are computed by
:func:`trace_to_csv`, and psi of the operator before an update is the previous
record's ``psi_next`` (n for B_0 = I).  The step ``s`` is not kept, because it
is ``alpha_bar p_bar`` of the same iteration (``alpha p`` for BFGS), and B is
not kept, because ``B p_bar = -g`` is what the direction quality reads.

A run ends ``converged``, ``max_iter``, ``line_search_exhausted``,
``spd_failure`` (no descent direction, or an update that fails its SPD
certificate) or ``non_finite`` (f or the gradient is not finite at x0).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from qnbench.linalg import (
    SPDError,
    cholesky,
    inverse_spd,
    solve_spd,  # unused here, but perfbench/tracer.py patches solvers.solve_spd
)
from qnbench.linesearch import EXHAUSTED, WOLFE, DescentDirectionError, WolfeParams, wolfe_search

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
    """Tunable scalars shared by both solvers; ``lam`` and ``mode`` only affect
    the two-phase method.  ``wolfe`` is the line search's fixed ``WOLFE``,
    readable here but not a field."""

    lam: float = 0.5
    tol: float = 1e-6
    max_iter: int = 500
    mode: str = MODE_B_FORM
    wolfe: ClassVar[WolfeParams] = WOLFE

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mode not in _TWO_PHASE_FORMS:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class IterateRecord:
    """State at the start of an iteration plus the step that left it.

    The iteration's k is the record's index in ``SolveResult.trace``.  ``g`` is
    the gradient at ``x``.  ``alpha_bar`` and ``status_bar`` are None for the
    BFGS baseline, which has no intermediate phase.
    """

    x: np.ndarray
    f: float
    g: np.ndarray
    alpha_bar: float | None
    alpha: float
    update_skipped: bool
    status_bar: str | None
    status: str


@dataclass(frozen=True)
class UpdateRecord:
    """Operator update data for one iteration, kept for diagnostics.

    ``y = grad(x_bar) - g`` is the update's gradient difference at
    ``x_bar = x + s``; its step s is ``alpha_bar p_bar`` (``alpha p`` for
    BFGS), from the same iteration's :class:`IterateRecord`.  ``psi_next`` is
    ``tr B - ln det B`` of the operator after the update, for every solver and
    mode; psi before it is the previous record's ``psi_next``, or n for the
    first record.  ``coupling`` is
    ``(p - p_bar)' grad(x_bar)`` for the two-phase method (None for BFGS); its
    sign is a recorded hypothesis flag, never enforced.  A skipped update shows
    in the same iteration's ``IterateRecord.update_skipped``.
    """

    y: np.ndarray
    p: np.ndarray
    p_bar: np.ndarray | None
    psi_next: float
    coupling: float | None


@dataclass(frozen=True)
class SolveResult:
    final_x: np.ndarray
    final_f: float
    final_grad_norm: float
    f_evals: int
    g_evals: int
    termination: str
    trace: list[IterateRecord]
    updates: list[UpdateRecord]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def converged(self) -> bool:
        return self.termination == CONVERGED


def _norm(v):
    """||v|| of a 1-d float array, bit-equal to ``np.linalg.norm(v)``.

    ``np.linalg.norm`` computes exactly ``sqrt(v.dot(v))`` for such an array,
    and both square roots are correctly rounded, so this gives the same float
    without the wrapper's dispatch.
    """
    return math.sqrt(v.dot(v))


def _curvature(s, y):
    """s'y, or :class:`CurvatureError` at or below the floor of UPDATE_SKIP_TOL."""
    sy = float(s.dot(y))
    floor = UPDATE_SKIP_TOL * _norm(s) * _norm(y)
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
    return B - np.multiply.outer(Bs, Bs) / sBs + np.multiply.outer(y, y) / sy


def bfgs_update_H(H, s, y, out=None):
    """Inverse-Hessian update (I - r sy')H(I - r ys') + r ss', r = 1/(y's), in O(n^2).

    The product is evaluated in its own order, as two rank-one corrections:
    first the left factor, A = H - r s(Hy)', then the right factor with r ss',
    A - (r Ay - r s)s'.  That is two matrix-vector products and two outer
    products, against two n x n products for the dense form; the expanded
    three-term form costs the same but rounds differently enough to move the
    counts of the flat-tailed Hager n = 300 solve (63 to 97 BFGS iterations,
    against 65 for this order).  The output's rounding asymmetry is accepted,
    unsymmetrized: at most 1.4e-13 relative (``||A - A'||/||A||``) over the
    benchmark's BFGS solves.  ``np.multiply.outer`` forms the same products as
    ``np.outer``, without its Python wrapper.

    ``out``, as in numpy, is the float n x n array that receives A, and may be
    H itself: the update then overwrites H and holds one transient n x n, the
    rank-one term T, next to it.  A is H + T with T = -r s(Hy)', and the
    second correction is written into the same T, so every float is the one
    the pure call (``out=None``, a fresh A) gives.  The curvature check runs
    before the first write, so a pair that fails it leaves H as it was.
    """
    H = np.asarray(H, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = 1.0 / _curvature(s, y)
    T = np.multiply.outer(s, H @ y)
    T *= -rho
    A = np.add(H, T, out=out)  # (I - r sy')H
    np.multiply.outer(rho * (A @ y) - rho * s, s, out=T)
    A -= T  # ... (I - r ys') + r ss'
    return A


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
    """Change in psi(B) = tr B - ln det B under B_next = lam B + (1 - lam) B_bfgs(B, s, y).

    The update is B + U C U' with U = [Bs, y] and
    C = diag(-(1 - lam)/s'Bs, (1 - lam)/s'y), so the trace gains
    (1 - lam)(y'y/s'y - ||Bs||^2/s'Bs), and by the matrix determinant lemma
    det B gains the factor det(I + C U'HU) with H = B^{-1}, which is
    lam (1 + (1 - lam) y'Hy/s'y) + (1 - lam)^2 s'y/s'Bs: a sum of positive
    terms, so no cancellation.  The change is the trace's gain less the
    factor's logarithm.
    """
    sy, sBs = float(s.dot(y)), float(s.dot(Bs))
    if not sBs > 0.0:
        # s'Bs = -alpha^2 g'p with g'p < 0, but the sum can cancel in floating
        # point and lose its sign; psi is then unknown, not an error
        return math.nan
    mu = 1.0 - lam
    d_trace = mu * (float(y.dot(y)) / sy - float(Bs.dot(Bs)) / sBs)
    det = mu * mu * sy / sBs
    if lam:  # BFGS (lam = 0) needs no y'Hy: the factor is s'y/s'Bs
        det += lam * (1.0 + mu * yHy / sy)
    return d_trace - math.log(det)


class _InverseBfgs:
    """BFGS on the inverse operator H: the baseline's realization.

    It carries psi(B) = tr B - ln det B of B = H^{-1}, n for B_0 = I, through
    :func:`_psi_step`, so psi(B) costs no factorization.
    """

    def __init__(self, H, psi=None):
        self.matrix = H
        self.psi = float(H.shape[0]) if psi is None else psi

    def direction(self, g):
        return -(self.matrix @ g)

    def updated(self, s, y, Bs, cfg):
        """The successor, whose matrix is this one's H overwritten by its update.

        The update consumes ``self``: its matrix becomes the successor's, so an
        iteration holds H and the update's one transient n x n.  A pair that
        fails the curvature check raises before the first write, and H is intact.
        """
        H_next = bfgs_update_H(self.matrix, s, y, out=self.matrix)
        return self._successor(H_next, s, y, Bs, 0.0)

    def _successor(self, H_next, s, y, Bs, lam, yHy=None):
        return type(self)(H_next, self.psi + _psi_step(s, y, Bs, yHy, lam))


class _TwoPhaseHLiteral(_InverseBfgs):
    """Two-phase combination on H through the literal double inversion.

    It needs H next to H_bar, so its update is the pure one and leaves H as it was.
    """

    def updated(self, s, y, Bs, cfg):
        H_bar = bfgs_update_H(self.matrix, s, y)
        H_next = combine_H_literal(self.matrix, H_bar, cfg.lam)
        return self._successor(H_next, s, y, Bs, cfg.lam, float(y.dot(self.matrix @ y)))


def woodbury_update_H(H, Bs, y, lam: float, out=None):
    """Two-phase update of H = B^{-1}: the inverse of B + U C U' of :func:`_psi_step`.

    Returns ``(H_next, s, yHy)``.  By Woodbury (Nocedal & Wright, eq. A.28),
    H_next = H - HU M^{-1} (HU)' with U = [Bs, y] and
    M = C^{-1} + U'HU = [[-lam s'Bs/(1 - lam), s'y], [s'y, s'y/(1 - lam) + y'Hy]],
    where s = H Bs: s'Bs = Bs'H Bs > 0, and the psi step that takes this s and
    y'Hy tracks H_next.  The caller has checked s'y against the curvature floor.
    H_next is certified by its Cholesky pivots (:class:`SPDError` below
    PIVOT_RTOL); its rounding asymmetry is accepted, unsymmetrized.  HU is
    filled by two matrix-vector products, not one product with [Bs, y], which
    rounds differently.

    ``out``, as in numpy, is the float n x n array that receives H_next, and
    may be H itself.  The s'Bs check runs before the first write.  The
    correction T = HU M^{-1} (HU)' is dropped before the certificate, so with
    ``out=H`` the update holds H and one transient n x n at a time: T, then the
    Cholesky factor.  A failed certificate leaves H overwritten by the
    uncertified H_next.
    """
    mu = 1.0 - lam
    HU = np.empty((H.shape[0], 2))
    HU[:, 0] = H @ Bs
    HU[:, 1] = H @ y
    s = HU[:, 0]
    sy, sBs, yHy = float(s.dot(y)), float(s.dot(Bs)), float(y.dot(HU[:, 1]))
    if sBs <= 0.0:
        raise SPDError(f"s'Bs = {sBs:.3e} is not positive")
    m11, m12, m22 = -lam * sBs / mu, sy, sy / mu + yHy
    M_inv = np.array([[m22, -m12], [-m12, m11]]) / (m11 * m22 - m12 * m12)
    T = (HU @ M_inv) @ HU.T
    H_next = np.subtract(H, T, out=out)
    del T  # before the factor, or the peak is three n x n arrays
    cholesky(H_next)  # the SPD certificate
    return H_next, s, yHy


class _TwoPhaseWoodbury(_InverseBfgs):
    """Two-phase ``b_form``: :func:`woodbury_update_H` on H, with s taken from H Bs,
    the loop's alpha_bar p_bar recomputed.

    The update consumes ``self`` as :meth:`_InverseBfgs.updated` does: it
    writes H_next over this H, after the curvature and s'Bs checks, and drops
    the correction before the certificate's factor is made.
    """

    def updated(self, s, y, Bs, cfg):
        _curvature(s, y)
        H_next, s, yHy = woodbury_update_H(self.matrix, Bs, y, cfg.lam, out=self.matrix)
        return self._successor(H_next, s, y, Bs, cfg.lam, yHy)


_TWO_PHASE_FORMS = {MODE_B_FORM: _TwoPhaseWoodbury, MODE_H_FORM_LITERAL: _TwoPhaseHLiteral}


def _solve(f, x0, cfg: SolverConfig, op, two_phase: bool) -> SolveResult:
    """The iteration loop of both solvers, over the operator realization ``op``."""
    x = np.array(x0, dtype=float)
    fx = float(f.evaluate(x))
    g = np.asarray(f.gradient(x), dtype=float)
    f_evals, g_evals = 1, 1
    trace: list[IterateRecord] = []
    updates: list[UpdateRecord] = []
    if not (math.isfinite(fx) and np.isfinite(g).all()):
        return SolveResult(x, fx, _norm(g), f_evals, g_evals,
                           NON_FINITE, trace, updates)
    while True:
        if _norm(g) <= cfg.tol:
            termination = CONVERGED
            break
        if len(trace) >= cfg.max_iter:
            termination = MAX_ITER
            break
        p_bar = op.direction(g)
        try:
            first = wolfe_search(f, x, p_bar, fx, g)
            f_evals += first.f_evals
            g_evals += first.g_evals
            if first.status == EXHAUSTED:
                termination = LINE_SEARCH_EXHAUSTED
                break
            s = first.alpha * p_bar
            x_bar = x + s
            y = first.grad_new - g
            try:
                # B p_bar = -g, so Bs = -alpha_bar g
                op_next, skipped = op.updated(s, y, -first.alpha * g, cfg), False
            except CurvatureError:
                op_next, skipped = op, True
            # BFGS, and two-phase after a skipped update, accept the first step
            p, second, x_next = p_bar, first, x_bar
            if two_phase and not skipped:
                p = op_next.direction(g)
                second = wolfe_search(f, x, p, fx, g)
                f_evals += second.f_evals
                g_evals += second.g_evals
                if second.status == EXHAUSTED:
                    termination = LINE_SEARCH_EXHAUSTED
                    break
                x_next = x + second.alpha * p
        except (DescentDirectionError, SPDError):
            # g'p not finite and negative, or an update that fails its certificate
            termination = SPD_FAILURE
            break

        alpha_bar = status_bar = recorded_p_bar = coupling = None
        if two_phase:
            alpha_bar, status_bar, recorded_p_bar = first.alpha, first.status, p_bar
            coupling = float(np.dot(p - p_bar, first.grad_new))
        trace.append(IterateRecord(x, fx, g, alpha_bar, second.alpha, skipped, status_bar,
                                   second.status))
        updates.append(UpdateRecord(y, p, recorded_p_bar, op_next.psi, coupling))
        x, fx, g, op = x_next, second.f_new, second.grad_new, op_next
    return SolveResult(x, fx, _norm(g), f_evals, g_evals,
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
        ``lam``, ``tol``, ``max_iter`` and ``mode``; benchmark defaults when omitted.
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
    form = _TWO_PHASE_FORMS[cfg.mode]
    return _solve(f, x0, cfg, form(np.eye(np.size(x0))), two_phase=True)


def trace_to_csv(result: SolveResult) -> str:
    """Trace as CSV: k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped.

    k is the record's index, grad_norm is ``||g||`` of its gradient, and
    cos_theta is ``-g'p_bar / (||g|| ||p_bar||)``, the cosine between the
    phase-one direction and -g (empty for BFGS).  ``B p_bar = -g`` makes it the
    ``s'Bs / (||Bs|| ||s||)`` of the paper's analysis.  A terminal summary row
    holds the final iterate's f and gradient norm with the step columns empty.
    """
    out = io.StringIO()
    out.write("k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped\n")

    def fmt(value):
        return "" if value is None else repr(float(value))

    for k, (r, u) in enumerate(zip(result.trace, result.updates)):
        grad_norm = _norm(r.g)
        cos_theta = None
        if u.p_bar is not None:
            cos_theta = -float(np.dot(r.g, u.p_bar)) / (grad_norm * _norm(u.p_bar))
        skipped = "true" if r.update_skipped else "false"
        out.write(f"{k},{fmt(r.f)},{fmt(grad_norm)},{fmt(r.alpha_bar)},"
                  f"{fmt(r.alpha)},{fmt(cos_theta)},{skipped}\n")
    out.write(f"{result.iterations},{fmt(result.final_f)},"
              f"{fmt(result.final_grad_norm)},,,,\n")
    return out.getvalue()
