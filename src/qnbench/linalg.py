"""Dense symmetric/SPD matrix helpers for the quasi-Newton updates.

Vectors are 1-d float arrays, symmetric matrices are 2-d float arrays, and the
elementwise arithmetic (``@``, ``np.dot``, ``np.linalg.norm``, ``np.trace``)
is plain numpy.  This module owns the operations that carry an explicit SPD
contract.  The Cholesky factorization and the dense inverse are LAPACK's
under one pivot test, which certifies positive definiteness, and ``ln det``
comes from the factor.  Neither BFGS nor ``b_form`` factors: each update
certifies itself on its 2 x 2 Woodbury M.  ``cholesky`` serves
``inverse_spd``, which the ``h_form_literal`` oracle calls, and
``diagnostics.psi``.

``solve_spd`` substitutes against the factor in Python, since numpy has no
triangular solve.  No solver calls it: the solve keeps H = B^{-1} and
multiplies.  It stays because ``perfbench/tracer.py`` patches it by name in
this module and in ``qnbench.solvers``.
"""

from __future__ import annotations

import math

import numpy as np

# Pivots at or below PIVOT_RTOL times the largest diagonal entry count as loss
# of positive definiteness rather than round-off.
PIVOT_RTOL = 1e-14


class SPDError(ArithmeticError):
    """A matrix required to be SPD failed its Cholesky pivot test."""


def cholesky(a):
    """Lower-triangular ``L`` with ``L @ L.T == a``, or raise :class:`SPDError`.

    The factorization fails when LAPACK fails or when a pivot ``L[j, j]**2``
    is at or below ``PIVOT_RTOL * max(diag(a))``, the signal that a matrix
    stopped being positive definite.  The shape and finiteness checks run
    before LAPACK is called.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # NaN propagates through min and max, and an infinity is an extreme, so
    # this is isfinite(a).all() without an n x n temporary; the ufuncs' reduce
    # is what a.min() and a.max() call, without numpy's Python-level wrappers
    if not (math.isfinite(np.minimum.reduce(a, axis=None))
            and math.isfinite(np.maximum.reduce(a, axis=None))):
        raise ValueError("matrix entries must be finite")
    limit = PIVOT_RTOL * max(a.diagonal().tolist())
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SPDError("LAPACK Cholesky failed: the matrix is not positive definite") from None
    # the diagonal as Python floats: at n = 10 numpy's per-call dispatch on a
    # 10-vector costs more than the loop
    for j, d in enumerate(lower.diagonal().tolist()):
        if not d * d > limit:
            raise SPDError(f"pivot {d * d:.3e} at column {j} is below {limit:.3e}")
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
    # in place, with the same bits as 0.5 * (inv + inv.T)
    inv += inv.T
    inv *= 0.5
    return inv
