"""Dense symmetric/SPD matrix helpers for the quasi-Newton updates.

Vectors are 1-d float arrays, symmetric matrices are 2-d float arrays, and the
elementwise arithmetic (``@``, ``np.dot``, ``np.linalg.norm``, ``np.trace``)
is plain numpy.  This module owns the operations that carry an explicit SPD
contract.  The Cholesky factorization and the dense inverse are LAPACK's
under one pivot test, which certifies positive definiteness, and ``ln det``
comes from the factor.

``cholesky`` calls ``cholesky_lo``, the gufunc behind ``np.linalg.cholesky``,
directly, because only the gufunc takes ``out=``: the solvers certify every
dense ``b_form`` update into one workspace that the solve holds.  Without it,
each call would return a fresh n x n factor next to LAPACK's own malloc'd copy
of the input; freed together at the top of the heap, glibc trims both, and the
next call faults the pages back in (about 35,000 minor faults per two-phase
Hager n = 300 solve, against under 800 with the workspace).  The gufunc still
mallocs that copy, but with the factor written into a kept array the heap top
stays put.  ``scipy.linalg.lapack.dpotrf`` would also factor in place, but
importing scipy costs about 0.2 s, and the library imports only numpy.

``solve_spd`` substitutes against the factor in Python, since numpy has no
triangular solve.  No solver calls it: the solve keeps H = B^{-1} and
multiplies.  It stays because ``perfbench/tracer.py`` patches it by name in
this module and in ``qnbench.solvers``.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

# Pivots at or below PIVOT_RTOL times the largest diagonal entry count as loss
# of positive definiteness rather than round-off.
PIVOT_RTOL = 1e-14


class SPDError(ArithmeticError):
    """A matrix required to be SPD failed its Cholesky pivot test."""


def cholesky(a, out=None):
    """Lower-triangular ``L`` with ``L @ L.T == a``, or raise :class:`SPDError`.

    The factorization fails when LAPACK fails or when a pivot ``L[j, j]**2``
    is at or below ``PIVOT_RTOL * max(diag(a))``; the solvers use this as the
    signal that an updated operator stopped being positive definite.  ``L`` is
    written into ``out``, a float n x n array other than ``a``, when one is
    given, and into a new array otherwise.  The shape and finiteness checks run
    before anything is written.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # NaN propagates through min and max, and an infinity is an extreme, so
    # this is isfinite(a).all() without an n x n temporary
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("matrix entries must be finite")
    limit = PIVOT_RTOL * float(a.diagonal().max())
    # a LAPACK failure fills the factor with NaN and raises the invalid flag
    with np.errstate(all="ignore"):
        lower = _umath_linalg.cholesky_lo(a, signature="d->d", out=out)
    pivots = lower.diagonal() ** 2
    if not pivots.min() > limit:  # False for NaN too
        j = int(np.flatnonzero(~(pivots > limit))[0])
        if np.isnan(pivots[j]):
            raise SPDError("LAPACK Cholesky failed: the matrix is not positive definite")
        raise SPDError(f"pivot {pivots[j]:.3e} at column {j} is below {limit:.3e}")
    return lower


def solve_spd(lower, b):
    """Solve ``(L @ L.T) x = b`` given the Cholesky factor ``L``."""
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    n = lower.shape[0]
    if b.shape != (n,):
        raise ValueError(f"dimension mismatch: factor order {n}, rhs shape {b.shape}")
    z = np.zeros(n)
    for i in range(n):
        z[i] = (b[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (z[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x


def log_determinant_spd(lower):
    """``ln det`` of the factored matrix, computed as ``2 * sum(ln diag(L))``."""
    return 2.0 * float(np.log(np.asarray(lower, dtype=float).diagonal()).sum())


def inverse_spd(a):
    """Dense inverse of an SPD matrix, certified by :func:`cholesky` first, and
    returned as its symmetric part."""
    cholesky(a)
    inv = np.linalg.inv(a)
    return 0.5 * (inv + inv.T)
