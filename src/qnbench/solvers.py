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
``psi(B) = tr B - ln det B``, from H = I and psi = n.  A realization is an
operator object, and the loop uses two things of it: ``H @ g`` and
``d_psi = H.update(s, y, Bs, lam)``.  There are three: :class:`_DenseH`,
the combination in B applied to H by the Woodbury formula, which is
two-phase's ``b_form`` and, at lam = 0, BFGS; :class:`_LiteralH`, two-phase
``h_form_literal``, the literal ``(lam H^{-1} + (1 - lam) H_bar^{-1})^{-1}``,
kept for cross-validation; and :class:`_CompactH`, the same Woodbury update on
H = I - R' diag(1, -1, 1, -1, ...) R (every update adds a row of sign +1 and
one of sign -1 to R) instead of a dense H.  Every ``b_form`` update, dense or
compact, is certified before it writes by one test, the inertia of its 2 x 2
M.  An update writes over its operator and returns the change in psi; no
update replaces its operator.  Each operator holds only what its update
reads: a dense one H alone, a compact one R and its row count m.  A dense
``b_form`` update subtracts one transient n x n correction from H;
``h_form_literal``, a :class:`_DenseH` with its own update, replaces H with
its formula's H_next, built from new arrays.
``B p_bar = -g`` spares every product with B: ``Bs = -alpha_bar g`` gives
``b_form``'s update and the change in psi(B) by the trace and determinant
identities, with BFGS as lam = 0.  After a unit first step the update is
handed p_bar itself as s and ``-g`` as Bs, the bits of ``1.0 * p_bar`` and
``-1.0 * g`` with no scaled copy; no update writes either.

n alone picks the realization (:func:`_operator`) for the whole solve.  Every
solve below ``COMPACT_MIN_N`` is dense, whatever its budget.  From there up,
BFGS and two-phase ``b_form`` run compact to the end, so no iteration needs an
n x n array; past k = n/2 applied updates R has more rows than n, and an
iteration costs O(kn) where a dense one would cost O(n^2).
``h_form_literal`` is dense at every n.  The realizations represent the same
operators but round differently, so ``b_form`` and ``h_form_literal`` may part
on a flat tail.

Records keep vectors and scalars, never a matrix, and each fact once: an
iterate's x, f and g, and its step's p, p_bar and psi_next.  What these repeat
is derived where it is read: k is the record's index, ``||g||`` and
``cos_theta = -g'p_bar / (||g|| ||p_bar||)`` are computed by
:func:`trace_to_csv`, and psi before an update is the previous record's
``psi_next`` (n for B_0 = I).  The step ``s`` is ``alpha_bar p_bar``
(``alpha p`` for BFGS), B is read through ``B p_bar = -g``, and no reader reads
the pair's y, which a replay re-derives as ``grad(x + s) - g``, so none of the
three is kept.  A solve keeps one :class:`IterateRecord` per iteration until
its trace is read, so the bytes a record holds are what a held run costs.  The
loop copies an iteration's vectors into the rows of one array, x, g and p, and
p_bar for two-phase, and its f, psi_next and coupling into that array's last
column, so an iteration holds one ndarray header and no float object of its
own.  The step lengths, the skip flag and the statuses stay fields, not cells,
mostly shared objects (the unit step and a status string), so that
``dataclasses.replace`` can change them.

A run ends ``converged``, ``max_iter``, ``line_search_exhausted``,
``spd_failure`` (a finite slope ``g'p`` that is not negative, or an update
that fails its SPD certificate) or ``non_finite`` (f is not finite at x0, or
``||g||`` or the slope ``g'p`` is not finite at an iterate, x0 included, as
when g is not finite or overflows).  One ``np.errstate`` per solve keeps its
overflow and invalid values from escaping as warnings.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from qnbench.linalg import (
    PIVOT_RTOL,
    SPDError,
    cholesky,  # unused here, but perfbench/tracer.py patches solvers.cholesky
    inverse_spd,
    solve_spd,  # unused here, but perfbench/tracer.py patches solvers.solve_spd
)
from qnbench.linesearch import EXHAUSTED, WOLFE, DescentDirectionError, WolfeParams, wolfe_search
from qnbench.objectives import _count, _vector

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

# Every solve below this n is dense (see the module docstring).  Per iteration on
# Hager, compact against dense (best of 30 solves, max_iter = n/2, one BLAS
# thread, 2-core x86-64, numpy 2.4), two-phase costs 0.082 against 0.072 ms at
# n = 50, 0.081 against 0.079 at n = 80, 0.084 against 0.092 at n = 100 and
# 0.151 against 0.161 at n = 200, and BFGS 0.055 against 0.047, 0.054 against
# 0.054, 0.057 against 0.054 and 0.071 against 0.095 (README).
COMPACT_MIN_N = 100


class CurvatureError(ValueError):
    """The update pair violates the curvature condition s'y > 0."""


@dataclass(frozen=True)
class SolverConfig:
    """Tunable scalars shared by both solvers; ``lam`` and ``mode`` only affect
    the two-phase method.  ``mode`` is ``MODE_B_FORM``, the paper's update,
    or ``MODE_H_FORM_LITERAL``, the literal inverse form, an oracle that the
    tests and the ``hform10`` benchmark run against ``b_form``; neither the
    CLI nor the top-level package offers it.  ``wolfe`` is the line search's
    fixed ``WOLFE``, readable here but not a field.  ``lam`` and ``tol`` are
    stored as floats; a bool or a value that is not a real number raises
    ``ValueError``, as does a ``max_iter`` that is not an int >= 1.  Unlike the
    records, it has no slots: ``cli.py`` reads the defaults on the class."""

    lam: float = 0.5
    tol: float = 1e-6
    max_iter: int = 500
    mode: str = MODE_B_FORM
    wolfe: ClassVar[WolfeParams] = WOLFE

    def __post_init__(self):
        lam, tol = _real("lam", self.lam), _real("tol", self.tol)
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam!r}")
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iter", _count("max_iter", self.max_iter))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def _real(name, value) -> float:
    """``value`` as a float, or ValueError: any real number but a bool (``tol=True``
    would be a tolerance of 1)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True, slots=True)
class IterateRecord:
    """One iteration: the state at its start, its steps and its update.

    ``values`` is the iteration's float array, ``(3, n + 1)`` for BFGS and
    ``(4, n + 1)`` for two-phase: rows x, g, p and, for two-phase, p_bar, of
    which ``x``, ``g``, ``p`` and ``p_bar`` are views, and a last column of f,
    ``psi_next`` and, for two-phase, ``coupling``, read back as floats, over
    NaN.  The iteration's k is the record's index in ``SolveResult.trace``.

    g is the gradient at x, and ``x_bar = x + s`` ends the update's step
    ``s = alpha_bar p_bar`` (``alpha p`` for BFGS); the pair's
    ``y = grad(x_bar) - g`` is not kept, since a replay re-derives it.
    ``psi_next`` is ``tr B - ln det B`` of the operator after the update, for
    every solver and mode; psi before it is the previous record's ``psi_next``,
    or n for the first record.  ``coupling`` is ``(p - p_bar)' grad(x_bar)``;
    its sign is a recorded hypothesis flag, never enforced.  ``alpha_bar``,
    ``status_bar``, ``p_bar`` and ``coupling`` are None for the BFGS baseline,
    which has no intermediate phase.
    """

    values: np.ndarray
    alpha_bar: float | None
    alpha: float
    update_skipped: bool
    status_bar: str | None
    status: str

    @property
    def x(self) -> np.ndarray:
        return self.values[0, :-1]

    @property
    def g(self) -> np.ndarray:
        return self.values[1, :-1]

    @property
    def p(self) -> np.ndarray:
        return self.values[2, :-1]

    @property
    def p_bar(self) -> np.ndarray | None:
        return self.values[3, :-1] if len(self.values) == 4 else None

    @property
    def f(self) -> float:
        return float(self.values[0, -1])

    @property
    def psi_next(self) -> float:
        return float(self.values[1, -1])

    @property
    def coupling(self) -> float | None:
        return float(self.values[2, -1]) if len(self.values) == 4 else None


@dataclass(frozen=True, slots=True)
class SolveResult:
    final_x: np.ndarray
    final_f: float
    final_grad_norm: float
    f_evals: int
    g_evals: int
    termination: str
    trace: list[IterateRecord]

    @property
    def updates(self) -> list[IterateRecord]:
        """``trace`` itself, for readers that zip the two, as ``perfbench/checks.py``
        does: an iteration's update is read from its one record."""
        return self.trace

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
    """s'y and y'y, or :class:`CurvatureError` at or below the floor of UPDATE_SKIP_TOL.

    y'y is the square of the floor's ``||y||``, handed on so that the psi step
    need not dot y with itself again.
    """
    sy, yy = float(s.dot(y)), float(y.dot(y))
    floor = UPDATE_SKIP_TOL * _norm(s) * math.sqrt(yy)
    if sy <= floor:
        raise CurvatureError(f"s'y = {sy:.3e} fails the curvature floor {floor:.3e}")
    return sy, yy


def bfgs_update_B(B, s, y):
    """Rank-two Hessian-approximation update B - Bss'B/(s'Bs) + yy'/(y's)."""
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy, _ = _curvature(s, y)
    Bs = B @ s
    sBs = float(np.dot(s, Bs))
    if sBs <= 0.0:
        raise SPDError(f"s'Bs = {sBs:.3e} is not positive")
    return B - np.multiply.outer(Bs, Bs) / sBs + np.multiply.outer(y, y) / sy


def bfgs_update_H(H, s, y):
    """Inverse-Hessian update (I - r sy')H(I - r ys') + r ss', r = 1/(y's), in O(n^2):
    ``h_form_literal``'s BFGS step, as a new array, with H left as it was.

    The product is evaluated in its own order, as two rank-one corrections:
    first the left factor, A = H - r s(Hy)', then the right factor with r ss',
    A - (r Ay - r s)s'.  That is two matrix-vector products and two outer
    products, against two n x n products for the dense form.  The curvature
    check comes first.  The output's rounding asymmetry is accepted,
    unsymmetrized.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = 1.0 / _curvature(s, y)[0]
    A = H - rho * np.multiply.outer(s, H @ y)  # (I - r sy')H
    return A - np.multiply.outer(rho * (A @ y) - rho * s, s)  # ... (I - r ys') + r ss'


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


def _psi_step(sy, sBs, yHy, yy, BsBs, lam):
    """Change in psi(B) = tr B - ln det B under B_next = lam B + (1 - lam) B_bfgs(B, s, y),
    from the update's inner products s'y, s'Bs, y'Hy, y'y and ||Bs||^2.

    The update is B + U C U' with U = [Bs, y] and
    C = diag(-(1 - lam)/s'Bs, (1 - lam)/s'y), so the trace gains
    (1 - lam)(y'y/s'y - ||Bs||^2/s'Bs), and by the matrix determinant lemma
    det B gains the factor det(I + C U'HU) with H = B^{-1}, which is
    lam (1 + (1 - lam) y'Hy/s'y) + (1 - lam)^2 s'y/s'Bs: a sum of positive
    terms, so no cancellation.  The change is the trace's gain less the
    factor's logarithm.  BFGS is lam = 0, where the lam term adds +0.0 to a
    positive sum, so any finite y'Hy gives the same float.  The updates hand
    over what they have dotted already: s'y, s'Bs and y'Hy from
    :func:`_woodbury_m` and y'y from the curvature floor.
    """
    if not sBs > 0.0:
        # s'Bs = -alpha^2 g'p with g'p < 0, but the sum can cancel in floating
        # point and lose its sign; psi is then unknown, not an error
        return math.nan
    mu = 1.0 - lam
    d_trace = mu * (yy / sy - BsBs / sBs)
    det = mu * mu * sy / sBs + lam * (1.0 + mu * yHy / sy)
    return d_trace - math.log(det)


# The operators (see the module docstring).  Each update raises CurvatureError,
# before it writes, on a pair below the curvature floor, and looks up its
# primitives by name in this module at call time: perfbench/tracer.py patches
# those names, so binding one early would hide it from the traced counts.


def _woodbury_m(s, y, Bs, Hy, lam):
    """s'y, s'Bs and y'Hy, then m11 and m22 of M = C^{-1} + U'HU, whose m12 is s'y, and
    det M, from s = H Bs and Hy, once M's inertia certifies the update.

    With U = [Bs, y] and the C of :func:`_psi_step`,
    M = [[-lam s'Bs/(1 - lam), s'y], [s'y, s'y/(1 - lam) + y'Hy]] (Nocedal &
    Wright, eq. A.28).  For an SPD B, In(B) + In(-M) = In(-C^{-1}) + In(B_next)
    (Haynsworth inertia on [[B, U], [U', -C^{-1}]]), so with s'Bs > 0 and
    s'y > 0, where -C^{-1} has one eigenvalue of each sign, B_next is SPD
    exactly when det M < 0.  :class:`SPDError` is raised when s'Bs is not
    positive, and otherwise unless s'y > 0, m22 > 0 (which keeps
    :meth:`_CompactH.update`'s rows real) and det M is below
    -PIVOT_RTOL (|m11 m22| + m12^2), which also rejects an M whose products
    underflow to 0.  BFGS, lam = 0, has m11 = -0.0 and det M = -(s'y)^2.
    The update hands s'y, s'Bs and y'Hy of this same s on to :func:`_psi_step`.
    """
    sy, sBs, yHy = float(s.dot(y)), float(s.dot(Bs)), float(y.dot(Hy))
    if sBs <= 0.0:
        raise SPDError(f"s'Bs = {sBs:.3e} is not positive")
    mu = 1.0 - lam
    m11, m12, m22 = -lam * sBs / mu, sy, sy / mu + yHy
    det = m11 * m22 - m12 * m12
    floor = PIVOT_RTOL * (abs(m11 * m22) + m12 * m12)
    if not (m12 > 0.0 and m22 > 0.0 and det < -floor):
        raise SPDError(f"s'y = {m12:.3e}, m22 = {m22:.3e} and det M = {det:.3e} fail "
                       f"s'y > 0, m22 > 0 and det M < {-floor:.3e}")
    return sy, sBs, yHy, m11, m22, det


class _DenseH:
    """H = B^{-1} as the n x n array ``H``."""

    def __init__(self, H):
        self.H = H

    def __matmul__(self, v):
        return self.H @ v

    def update(self, s, y, Bs, lam):
        """Two-phase ``b_form``, or BFGS at ``lam`` 0: the inverse of B + U C U' of
        :func:`_psi_step`, written over H.

        By Woodbury, H_next = H - HU M^{-1} (HU)' with U = [Bs, y] and the M of
        :func:`_woodbury_m`, where s = H Bs, the loop's alpha_bar p_bar
        recomputed: s'Bs = Bs'H Bs > 0, and the psi step that takes this s's
        products and y'Hy tracks H_next.  HU is filled by two matrix-vector
        products, not one product with [Bs, y], which rounds differently.  M^{-1}
        is built with its entries already divided by det M.  The update is
        certified by M's inertia; H_next's rounding asymmetry is accepted,
        unsymmetrized.  The correction HU M^{-1} (HU)' is one transient n x n
        array.  Every check runs before the first write, so a pair that fails
        one leaves H as it was.
        """
        _, yy = _curvature(s, y)
        H = self.H
        HU = np.empty((H.shape[0], 2))
        HU[:, 0] = H @ Bs
        HU[:, 1] = H @ y
        sy, sBs, yHy, m11, m22, det = _woodbury_m(HU[:, 0], y, Bs, HU[:, 1], lam)
        m12_inv = -sy / det
        M_inv = np.array([[m22 / det, m12_inv], [m12_inv, m11 / det]])
        H -= (HU @ M_inv) @ HU.T
        return _psi_step(sy, sBs, yHy, yy, float(Bs.dot(Bs)), lam)


class _LiteralH(_DenseH):
    """Two-phase ``h_form_literal``, through the literal double inversion
    ``(lam H^{-1} + (1 - lam) H_bar^{-1})^{-1}`` of H and its BFGS update H_bar;
    H_next replaces H."""

    def update(self, s, y, Bs, lam):
        H = self.H
        self.H = combine_H_literal(H, bfgs_update_H(H, s, y), lam)
        return _psi_step(float(s.dot(y)), float(s.dot(Bs)), float(y.dot(H @ y)),
                         float(y.dot(y)), float(Bs.dot(Bs)), lam)


class _CompactH:
    """H = B^{-1} = I - R' diag(1, -1, 1, -1, ...) R, held without an n x n array.

    Every update appends two rows to R, the first with sign +1 and the second
    with sign -1, and ``H @ v`` costs O(kn) for R's 2k rows.  ``rows`` holds R,
    whose first ``m`` rows are in use; its odd rows are the ones with sign -1.
    A full ``rows`` grows in place by the two new rows, so it holds exactly 2k
    rows and no copy of them; no view of ``rows`` may outlive a call.
    """

    def __init__(self, n):
        self.m = 0
        self.rows = np.empty((2, n))

    def __matmul__(self, v):
        R = self.rows[:self.m]
        w = R @ v
        w[1::2] *= -1.0
        return v - w @ R

    def update(self, s, y, Bs, lam):
        """BFGS (``lam`` 0) or two-phase ``b_form``, written over the rows.

        The update is :class:`_DenseH`'s, H_next = H - HU M^{-1} (HU)' with
        HU = [s, Hy], s = H Bs, and the M of :func:`_woodbury_m`, in O(kn), under
        the same inertia certificate.  It appends the two rows of the LDL'
        factorization of M^{-1}: Hy/sqrt(m22) with sign +1 and
        sqrt(m22/(-det M)) (s - (m12/m22) Hy) with sign -1.  When R is full,
        ``rows`` grows in place (numpy's realloc) by exactly those two rows,
        after the update drops its own view of it, since numpy refuses to resize
        an array that another object references.  Every check runs before the
        first write.
        """
        _, yy = _curvature(s, y)
        m, n = self.m, self.rows.shape[1]
        R = self.rows[:m]
        HU = np.empty((2, n))
        HU[0] = Bs
        HU[1] = y
        W = HU @ R.T
        W[:, 1::2] *= -1.0
        HU -= W @ R
        s, Hy = HU
        sy, sBs, yHy, _, m22, det = _woodbury_m(s, y, Bs, Hy, lam)
        del R, W
        if m + 2 > len(self.rows):
            self.rows.resize((m + 2, n))
        self.rows[m] = Hy / math.sqrt(m22)
        self.rows[m + 1] = math.sqrt(m22 / -det) * (s - sy / m22 * Hy)
        self.m = m + 2
        return _psi_step(sy, sBs, yHy, yy, float(Bs.dot(Bs)), lam)


def _operator(n, cfg: SolverConfig, two_phase: bool):
    """H_0 = I of a solve: :class:`_LiteralH` for two-phase ``h_form_literal``,
    else :class:`_CompactH` from ``n >= COMPACT_MIN_N`` up, else :class:`_DenseH`."""
    if two_phase and cfg.mode == MODE_H_FORM_LITERAL:
        return _LiteralH(np.eye(n))
    return _CompactH(n) if n >= COMPACT_MIN_N else _DenseH(np.eye(n))


def _solve(f, x0, cfg: SolverConfig | None, two_phase: bool) -> SolveResult:
    """The iteration loop of both solvers, from H = B = I and psi(I) = n.

    Each iteration builds its next iterate once: ``x + s`` when the first step
    is accepted, as by BFGS and by two-phase after a skipped update, and
    otherwise ``x + alpha p`` from the second search, ``x + p`` at a unit
    step.  A unit first step hands p_bar and ``-g`` themselves to the update
    as s and Bs, with no copy; each is bit for bit the product it replaces.
    The point ``x_bar = x + s`` of the pair is never built for its own sake:
    the first search has evaluated the gradient there already.  One
    ``np.errstate``, from the evaluation at x0 to the return, silences
    overflow and invalid values; a non-finite gradient at x0 ends the solve
    through the ``||g||`` test.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    lam = cfg.lam if two_phase else 0.0
    x = _vector(f, np.array(x0, dtype=float), "x0")
    n = x.size
    H = _operator(n, cfg, two_phase)
    psi = float(n)
    f_evals, g_evals = 1, 1
    trace: list[IterateRecord] = []
    with np.errstate(over="ignore", invalid="ignore"):
        fx = float(f.evaluate(x))
        g = _vector(f, f.gradient(x), "gradient")
        if not math.isfinite(fx):
            return SolveResult(x, fx, _norm(g), f_evals, g_evals, NON_FINITE, trace)
        while True:
            g_norm = _norm(g)
            if g_norm <= cfg.tol:
                termination = CONVERGED
                break
            if not math.isfinite(g_norm):
                termination = NON_FINITE  # g is not finite, or ||g|| overflows
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
                # B p_bar = -g, so Bs = -alpha_bar g; a unit step hands over p_bar
                # and -g themselves, the bits of 1.0 * p_bar and -1.0 * g
                if first.alpha == 1.0:
                    s, Bs = p_bar, -g
                else:
                    s, Bs = first.alpha * p_bar, -first.alpha * g
                y = first.grad_new - g
                try:
                    psi += H.update(s, y, Bs, lam)
                    skipped = False
                except CurvatureError:
                    skipped = True  # H and psi stay as they are
                # BFGS, and two-phase after a skipped update, accept the first step
                p, second = p_bar, first
                if two_phase and not skipped:
                    p = -(H @ g)
                    second = wolfe_search(f, x, p, fx, g)
                    f_evals += second.f_evals
                    g_evals += second.g_evals
                    if second.status == EXHAUSTED:
                        termination = LINE_SEARCH_EXHAUSTED
                        break
            except DescentDirectionError as err:
                # g'p not negative, or not finite, as when g'Hg overflows
                termination = SPD_FAILURE if math.isfinite(err.slope) else NON_FINITE
                break
            except SPDError:
                termination = SPD_FAILURE  # an update that fails its certificate
                break

            alpha_bar = status_bar = None
            rows, column = (x, g, p), (fx, psi, math.nan)
            if two_phase:
                alpha_bar, status_bar = first.alpha, first.status
                coupling = float((p - p_bar).dot(first.grad_new))
                rows, column = (x, g, p, p_bar), (fx, psi, coupling, math.nan)
            values = np.empty((len(rows), n + 1))
            values[:, :n], values[:, n] = rows, column
            trace.append(IterateRecord(values, alpha_bar, second.alpha, skipped, status_bar,
                                       second.status))
            if second is first:
                x = x + s
            else:
                x = x + p if second.alpha == 1.0 else x + second.alpha * p
            fx, g = second.f_new, second.grad_new
        return SolveResult(x, fx, g_norm, f_evals, g_evals, termination, trace)


def solve_bfgs(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Standard BFGS from H = I, as the ``b_form`` update at lam = 0; compact from
    ``n >= COMPACT_MIN_N`` up, else dense (see the module docstring).

    Parameters
    ----------
    f : ObjectiveFunction
        Objective with analytic gradient (gradient-checked beforehand).
    x0 : array_like
        Starting point, of shape ``(f.dimension,)``; another shape raises
        ``ValueError`` before any evaluation, and so does a gradient of
        another shape at x0, after its evaluation.
    cfg : SolverConfig, optional
        ``tol`` and ``max_iter``; benchmark defaults when omitted.  BFGS reads
        neither ``lam`` nor ``mode``.
    """
    return _solve(f, x0, cfg, two_phase=False)


def solve_two_phase(f, x0, cfg: SolverConfig | None = None) -> SolveResult:
    """Two-phase quasi-Newton iteration (see the module docstring), from B = I.

    Parameters as in :func:`solve_bfgs`, and ``cfg.lam``, the mixing weight.
    The default ``cfg.mode``, ``b_form``, applies the combination in B to the
    compact H = I - R' diag(1, -1, ...) R from ``n >= COMPACT_MIN_N`` up, and
    otherwise to a dense H by a Woodbury update.
    ``SolverConfig(mode=qnbench.solvers.MODE_H_FORM_LITERAL)`` runs the literal
    inverse form instead, dense at every n: a cross-validation oracle, not a
    faster or more accurate solve.
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

    for k, r in enumerate(result.trace):
        g, p_bar = r.g, r.p_bar
        grad_norm = _norm(g)
        cos_theta = None
        if p_bar is not None:
            cos_theta = -float(np.dot(g, p_bar)) / (grad_norm * _norm(p_bar))
        skipped = "true" if r.update_skipped else "false"
        out.write(f"{k},{fmt(r.f)},{fmt(grad_norm)},{fmt(r.alpha_bar)},"
                  f"{fmt(r.alpha)},{fmt(cos_theta)},{skipped}\n")
    out.write(f"{result.iterations},{fmt(result.final_f)},"
              f"{fmt(result.final_grad_norm)},,,,\n")
    return out.getvalue()
