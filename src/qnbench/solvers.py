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

The loop holds H = B^{-1}, from which every direction is ``-H g``, and
``psi(B) = tr B - ln det B``, from H = I and psi = n.  A realization is one
update function, ``update(H, s, y, Bs, lam, work) -> (H_next, d_psi)``: BFGS;
two-phase ``b_form`` (default), the combination in B applied to H by the
Woodbury formula and certified by H_next's Cholesky pivots; two-phase
``h_form_literal``, the literal ``(lam H^{-1} + (1 - lam) H_bar^{-1})^{-1}``,
kept for cross-validation; and the compact realization, which holds
B = I + U C U' (every update adds two columns to U) instead of a dense H, and
certifies it by the inertia of a 2k x 2k matrix.  Each primitive writes over
the H it is given, after its checks, and returns it.  A dense solve also holds
one n x n workspace ``work``, allocated once with H, into which BFGS writes
its rank-one terms and ``b_form`` its correction and then its Cholesky
certificate, so a dense BFGS or ``b_form`` iteration holds H and the workspace
and allocates no n x n array; the compact realization takes ``work = None``.
``h_form_literal``, which needs H next to H_bar, hands ``bfgs_update_H`` a
copy of H and leaves H as it was.
``B p_bar = -g`` spares every product with B: ``Bs = -alpha_bar g`` gives
``b_form``'s update and the change in psi(B) by the trace and determinant
identities, with BFGS as lam = 0.

BFGS and ``b_form`` run the compact realization instead of the dense one when
the budget fits the dimension, ``2 max_iter <= n``: then U never holds more
than n columns, and a solve needs no n x n array and no O(n^3) certificate.
``h_form_literal`` stays dense at every n.  The two realizations represent the
same operators but round differently, so two configs that differ only in
``max_iter`` may part on a flat tail, as ``b_form`` and ``h_form_literal`` do.

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
    PIVOT_RTOL,
    SPDError,
    cholesky,
    inverse_spd,
    solve_spd,  # unused here, but perfbench/tracer.py patches solvers.solve_spd
)
from qnbench.linesearch import EXHAUSTED, WOLFE, DescentDirectionError, WolfeParams, wolfe_search

MODE_B_FORM = "b_form"
MODE_H_FORM_LITERAL = "h_form_literal"
MODES = (MODE_B_FORM, MODE_H_FORM_LITERAL)

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
        if self.mode not in MODES:
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


def bfgs_update_H(H, s, y, work):
    """Inverse-Hessian update (I - r sy')H(I - r ys') + r ss', r = 1/(y's), in O(n^2),
    written over H.

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

    H, a float n x n array, is returned overwritten.  The rank-one terms are
    written into ``work``, a float n x n array other than H, whose contents are
    never read: A = H + T with T = -r s(Hy)', then the second correction into
    the same T, so the update allocates no n x n array.  The curvature check
    runs before the first write, so a pair that fails it leaves H and ``work``
    as they were.  Pass ``H.copy()`` to keep H.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = 1.0 / _curvature(s, y)
    T = np.multiply.outer(s, H @ y, out=work)
    T *= -rho
    H += T  # (I - r sy')H
    np.multiply.outer(rho * (H @ y) - rho * s, s, out=T)
    H -= T  # ... (I - r ys') + r ss'
    return H


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
    factor's logarithm.  BFGS is lam = 0, where the lam term adds +0.0 to a
    positive sum, so any finite y'Hy (0.0 from :func:`_bfgs`) gives the same
    float.
    """
    sy, sBs = float(s.dot(y)), float(s.dot(Bs))
    if not sBs > 0.0:
        # s'Bs = -alpha^2 g'p with g'p < 0, but the sum can cancel in floating
        # point and lose its sign; psi is then unknown, not an error
        return math.nan
    mu = 1.0 - lam
    d_trace = mu * (float(y.dot(y)) / sy - float(Bs.dot(Bs)) / sBs)
    det = mu * mu * sy / sBs + lam * (1.0 + mu * yHy / sy)
    return d_trace - math.log(det)


# The update functions (see the module docstring).  Each raises CurvatureError,
# before it writes, on a pair below the curvature floor, and looks up its
# primitives by their names in this module at call time, as _realization looks
# up the update functions: perfbench/tracer.py patches those names, so binding
# one early would hide it from the traced counts.


def _bfgs(H, s, y, Bs, lam, work):
    """BFGS on H, written over H; ``lam`` is unused (BFGS is lam = 0)."""
    return bfgs_update_H(H, s, y, work), _psi_step(s, y, Bs, 0.0, 0.0)


def _b_form(H, s, y, Bs, lam, work):
    """Two-phase ``b_form``: the inverse of B + U C U' of :func:`_psi_step`,
    written over H.

    By Woodbury (Nocedal & Wright, eq. A.28), H_next = H - HU M^{-1} (HU)'
    with U = [Bs, y] and
    M = C^{-1} + U'HU = [[-lam s'Bs/(1 - lam), s'y], [s'y, s'y/(1 - lam) + y'Hy]],
    where s = H Bs, the loop's alpha_bar p_bar recomputed: s'Bs = Bs'H Bs > 0,
    and the psi step that takes this s and y'Hy tracks H_next.  HU is filled
    by two matrix-vector products, not one product with [Bs, y], which rounds
    differently.  H_next is certified by its Cholesky pivots
    (:class:`SPDError` below PIVOT_RTOL); its rounding asymmetry is accepted,
    unsymmetrized.

    The correction T = HU M^{-1} (HU)' is written into ``work``, a float
    n x n array other than H whose contents are never read, and then the
    Cholesky factor over it, so the update allocates no n x n array.  The s'y
    and s'Bs checks run before the first write, so a pair that fails one
    leaves H and ``work`` as they were.  A failed certificate leaves H
    overwritten by the uncertified H_next.
    """
    _curvature(s, y)
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
    T = np.matmul(HU @ M_inv, HU.T, out=work)
    H -= T
    cholesky(H, out=work)  # the SPD certificate, written over T
    return H, _psi_step(s, y, Bs, yHy, lam)


def _h_form_literal(H, s, y, Bs, lam, work):
    """Two-phase combination through the literal double inversion.

    It needs H next to H_bar, so its BFGS step writes over a copy, with its
    rank-one terms in ``work``, and H stays as it was.
    """
    H_next = combine_H_literal(H, bfgs_update_H(H.copy(), s, y, work), lam)
    return H_next, _psi_step(s, y, Bs, float(y.dot(H @ y)), lam)


class _CompactH:
    """H = B^{-1} of B = I + U C U', held without an n x n array.

    ``H @ v`` is ``v - U K^{-1} U'v`` with K = C^{-1} + U'U (Byrd, Nocedal &
    Schnabel 1994), in O(kn + k^2) for U's 2k columns.  ``rows`` holds U's
    columns as rows, ``c_inv`` C^{-1}'s diagonal and ``k_inv`` K^{-1}; their
    first ``m`` rows and entries are in use, and :meth:`reserve` doubles them
    when full, up to n.
    """

    def __init__(self, n):
        self.m = 0
        self.rows = np.empty((2, n))
        self.c_inv = np.empty(2)
        self.k_inv = np.empty((2, 2))

    def __matmul__(self, v):
        m = self.m
        U = self.rows[:m]
        return v - (self.k_inv[:m, :m] @ (U @ v)) @ U

    def reserve(self, extra):
        """Room for ``extra`` more columns, by doubling, but not past n: the
        solve runs compact only while U never needs more than n columns."""
        m, cap = self.m, self.c_inv.size
        if m + extra > cap:
            n = self.rows.shape[1]
            cap = max(min(2 * cap, n), m + extra)
            rows, c_inv, k_inv = np.empty((cap, n)), np.empty(cap), np.empty((cap, cap))
            rows[:m], c_inv[:m], k_inv[:m, :m] = self.rows[:m], self.c_inv[:m], self.k_inv[:m, :m]
            self.rows, self.c_inv, self.k_inv = rows, c_inv, k_inv


def _compact(H, s, y, Bs, lam, work):
    """BFGS (``lam`` 0) or two-phase ``b_form`` on a :class:`_CompactH`, written over H;
    ``work`` is unused (None), since nothing here is n x n.

    The update B + U C U' of :func:`_psi_step` appends the unit columns
    u = [Bs/||Bs||, y/||y||] to U and
    C_u^{-1} = diag(-s'Bs/(mu ||Bs||^2), s'y/(mu ||y||^2)), mu = 1 - lam, to
    C^{-1}, with s = H Bs: unit columns keep K's scale, where raw ones let the
    test below fail late on suite problems.  K^{-1} is bordered with the 2 x 2
    Schur complement S = C_u^{-1} + u'u - W'K^{-1}W, W = U'u, in O(kn + k^2).
    B is SPD exactly when K has as many negative eigenvalues as C (one per
    pair) and none zero, by Haynsworth inertia on [[I, U], [U', -C^{-1}]]; and
    In(K_next) = In(K) + In(S).  So with s'Bs > 0 and s'y > 0 the represented
    B_next is certified SPD by det S < 0; :class:`SPDError` is raised when
    det S is not below -PIVOT_RTOL (|S_00 S_11| + S_01^2), and every check
    runs before the first write.
    """
    _curvature(s, y)
    m, mu = H.m, 1.0 - lam
    U, k_inv = H.rows[:m], H.k_inv[:m, :m]
    nb, ny = _norm(Bs), _norm(y)
    u = np.stack((Bs / nb, y / ny))
    W = U @ u.T
    V = k_inv @ W
    Hu = u - V.T @ U
    s, Hy = nb * Hu[0], ny * Hu[1]
    sy, sBs, yHy = float(s.dot(y)), float(s.dot(Bs)), float(y.dot(Hy))
    if not (sBs > 0.0 and sy > 0.0):
        raise SPDError(f"s'Bs = {sBs:.3e} and s'y = {sy:.3e} must be positive")
    c_inv = (-sBs / (mu * nb * nb), sy / (mu * ny * ny))
    S = np.diag(c_inv) + u @ u.T - W.T @ V
    s00, s01, s11 = S[0, 0], 0.5 * (S[0, 1] + S[1, 0]), S[1, 1]
    det = s00 * s11 - s01 * s01
    floor = PIVOT_RTOL * (abs(s00 * s11) + s01 * s01)
    if not det < -floor:
        raise SPDError(f"Schur complement det {det:.3e} is not below {-floor:.3e}")
    S_inv = np.array([[s11, -s01], [-s01, s00]]) / det
    H.reserve(2)
    VS = V @ S_inv
    K = H.k_inv
    K[:m, :m] += VS @ V.T
    K[:m, m:m + 2] = -VS
    K[m:m + 2, :m] = -VS.T
    K[m:m + 2, m:m + 2] = S_inv
    H.rows[m:m + 2], H.c_inv[m:m + 2], H.m = u, c_inv, m + 2
    return H, _psi_step(s, y, Bs, yHy, lam)


def _realization(n, cfg: SolverConfig, two_phase: bool):
    """``(update, H_0, work)`` of a solve: :func:`_compact` on a
    :class:`_CompactH` with no workspace for BFGS and ``b_form`` when
    ``2 max_iter <= n``, so that U never has more than n columns; otherwise the
    dense update on ``np.eye(n)``, with the n x n workspace that every update
    of the solve writes into.  The update is looked up by name here, at call
    time (see the comment above :func:`_bfgs`)."""
    if 2 * cfg.max_iter <= n and (not two_phase or cfg.mode == MODE_B_FORM):
        return _compact, _CompactH(n), None
    if not two_phase:
        update = _bfgs
    elif cfg.mode == MODE_B_FORM:
        update = _b_form
    else:
        update = _h_form_literal
    return update, np.eye(n), np.empty((n, n))


def _solve(f, x0, cfg: SolverConfig | None, two_phase: bool) -> SolveResult:
    """The iteration loop of both solvers, from H = B = I and psi(I) = n."""
    cfg = cfg if cfg is not None else SolverConfig()
    lam = cfg.lam if two_phase else 0.0
    x = np.array(x0, dtype=float)
    update, H, work = _realization(x.size, cfg, two_phase)
    psi = float(x.size)
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
        p_bar = -(H @ g)
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
                H, d_psi = update(H, s, y, -first.alpha * g, lam, work)
                psi, skipped = psi + d_psi, False
            except CurvatureError:
                skipped = True  # H and psi stay as they are
            # BFGS, and two-phase after a skipped update, accept the first step
            p, second, x_next = p_bar, first, x_bar
            if two_phase and not skipped:
                p = -(H @ g)
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
        updates.append(UpdateRecord(y, p, recorded_p_bar, psi, coupling))
        x, fx, g = x_next, second.f_new, second.grad_new
    return SolveResult(x, fx, _norm(g), f_evals, g_evals,
                       termination, trace, updates)


def solve_bfgs(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Standard BFGS with the inverse-Hessian update, started from H = I; dense,
    or compact when ``2 max_iter <= n`` (see the module docstring).

    Parameters
    ----------
    f : ObjectiveFunction
        Objective with analytic gradient (gradient-checked beforehand).
    x0 : array_like
        Starting point.
    cfg : SolverConfig, optional
        ``lam``, ``tol``, ``max_iter`` and ``mode``; benchmark defaults when omitted.
    """
    return _solve(f, x0, cfg, two_phase=False)


def solve_two_phase(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Two-phase quasi-Newton iteration (see the module docstring), from B = I.

    Parameters as in :func:`solve_bfgs`; ``cfg.mode`` chooses between
    ``b_form``, the combination in B applied to H by a Woodbury update (or,
    when ``2 max_iter <= n``, to the compact B = I + U C U'), and the literal
    inverse form.
    """
    return _solve(f, x0, cfg, two_phase=True)


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
