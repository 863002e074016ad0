"""Shared helpers for the test suite."""

import numpy as np

from qnbench import ObjectiveFunction
from qnbench.linalg import inverse_spd
from qnbench.solvers import _TWO_PHASE_FORMS, _bfgs


def iterate_sequence(result):
    """All iterates x_0 .. x_m of a ``SolveResult``, including the final point."""
    return [record.x for record in result.trace] + [result.final_x]


def replay(objective, result, cfg, solver):
    """Yield ``(s, y, B, B_next)`` of each record of a run, rebuilt from its records.

    ``solver`` is ``"bfgs"`` or ``"two-phase"``, and ``cfg`` the run's config.
    The updates are replayed through the run's own update function from H = I
    and psi = n, with the step and pair formed as the solve forms them, and B
    is ``inverse_spd(H)``.  The replayed y and psi_next must equal the recorded
    ones bit for bit.
    """
    two_phase = solver == "two-phase"
    update = _TWO_PHASE_FORMS[cfg.mode] if two_phase else _bfgs
    n = np.size(result.final_x)
    H, psi = np.eye(n), float(n)
    B = inverse_spd(H)
    for r, u in zip(result.trace, result.updates):
        a, d = (r.alpha_bar, u.p_bar) if two_phase else (r.alpha, u.p)
        s = a * d
        y = np.asarray(objective.gradient(r.x + s), dtype=float) - r.g
        B_next = B
        if not r.update_skipped:
            H, d_psi = update(H, s, y, -a * r.g, cfg.lam)
            psi += d_psi
            B_next = inverse_spd(H)
        assert np.array_equal(y, u.y)
        assert psi == u.psi_next
        yield s, y, B, B_next
        B = B_next


def bfgs_update_H_dense(H, s, y):
    """The inverse BFGS update as the dense three-factor product, an O(n^3) oracle.

    ``(I - r sy') H (I - r ys') + r ss'`` with r = 1/(y's), built from ``np.eye``
    and two n x n products, the form the library's update must agree with.
    """
    rho = 1.0 / float(np.dot(s, y))
    left = np.eye(np.size(s)) - rho * np.outer(s, y)
    return left @ H @ left.T + rho * np.outer(s, s)


def make_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m.T @ m + n * np.eye(n)


def curvature_pair(rng, n):
    """Random (s, y) with s'y > 0.

    y is produced as G s for a random SPD G, the form every gradient
    difference takes across a step (y equals the average Hessian applied to
    s), so s'y = s'Gs > 0 holds by construction and the pair stays away from
    the degenerate near-orthogonal regime.
    """
    s = rng.standard_normal(n)
    return s, make_spd(rng, n) @ s


def quadratic_hessian(objective, h=1e-4):
    """Constant Hessian of a quadratic via central differences of its gradient."""
    n = objective.dimension
    hess = np.zeros((n, n))
    x0 = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess[:, i] = (objective.gradient(x0 + e) - objective.gradient(x0 - e)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


class CountingObjective:
    """Delegating wrapper that counts evaluator calls."""

    def __init__(self, objective):
        self._objective = objective
        self.name = getattr(objective, "name", "wrapped")
        self.f_calls = 0
        self.g_calls = 0

    def evaluate(self, x):
        self.f_calls += 1
        return self._objective.evaluate(x)

    def gradient(self, x):
        self.g_calls += 1
        return self._objective.gradient(x)


def sphere(n=10):
    return ObjectiveFunction(
        "sphere", n,
        lambda x: 0.5 * float(np.dot(x, x)),
        lambda x: np.asarray(x, dtype=float).copy(),
        np.ones(n),
    )


def diagonal_quadratic(diag, start):
    diag = np.asarray(diag, dtype=float)
    return ObjectiveFunction(
        "diag-quadratic", diag.size,
        lambda x: 0.5 * float(np.sum(diag * x**2)),
        lambda x: diag * x,
        np.asarray(start, dtype=float),
    )


def determinant_spd(lower):
    """Determinant of the factored matrix, ``(prod diag(L))**2``."""
    d = np.diag(np.asarray(lower, dtype=float))
    return float(np.prod(d)) ** 2


def outer_rank1_update(a, v, c):
    """Return ``a + c * outer(v, v)``; exactly symmetric for symmetric ``a``."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix {a.shape}, vector {v.shape}")
    if not np.isfinite(c):
        raise ValueError("scale must be finite")
    return a + c * np.outer(v, v)
