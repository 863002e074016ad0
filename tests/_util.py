"""Shared helpers for the test suite."""

import numpy as np

from qnbench import ObjectiveFunction
from qnbench.linalg import inverse_spd
from qnbench.objectives import FD_STEP
from qnbench.solvers import _CompactH, _operator


def iterate_sequence(result):
    """All iterates x_0 .. x_m of a ``SolveResult``, including the final point."""
    return [record.x for record in result.trace] + [result.final_x]


def replay(objective, result, cfg, solver):
    """Yield ``(s, y, B, B_next)`` of each record of a run, rebuilt from its records.

    ``solver`` is ``"bfgs"`` or ``"two-phase"``, and ``cfg`` the run's config.
    The updates are replayed through the run's own initial operator, dense or
    compact, from psi = n, with the step and pair formed as the solve forms
    them.  B is ``inverse_spd`` of a dense H; while H is compact, B is
    accumulated by :func:`b_next` from the replayed pairs, apart from H's rows.
    A compact H hands over to a dense one in its own update, as the solve's
    does.  The replayed y and psi_next must equal the recorded ones bit for bit.
    """
    two_phase = solver == "two-phase"
    n = np.size(result.final_x)
    H = _operator(n, cfg, two_phase)
    lam, psi = (cfg.lam if two_phase else 0.0), float(n)
    B = np.eye(n)
    for r in result.trace:
        a, d = (r.alpha_bar, r.p_bar) if two_phase else (r.alpha, r.p)
        s = a * d
        y = np.asarray(objective.gradient(r.x + s), dtype=float) - r.g
        B_next = B
        if not r.update_skipped:
            Bs = -a * r.g
            H, d_psi = H.update(s, y, Bs, lam)
            psi += d_psi
            B_next = b_next(B, Bs, y, lam) if isinstance(H, _CompactH) else inverse_spd(H.H)
        assert np.array_equal(y, r.y)
        assert float.hex(psi) == float.hex(r.psi_next)
        yield s, y, B, B_next
        B = B_next


def b_next(B, Bs, y, lam):
    """The operator that an update from B by the pair ``(Bs, y)`` represents, as
    a dense array: B + U C U' = lam B + (1 - lam) B_bfgs(B, s, y), with
    U = [Bs, y], C = diag(-(1 - lam)/s'Bs, (1 - lam)/s'y) and s = B^{-1} Bs.

    It reads only B and the pair, never an H, so it is an oracle for the H
    that a compact update leaves.
    """
    s = np.linalg.solve(B, Bs)
    mu = 1.0 - lam
    return B + mu * (np.outer(y, y) / s.dot(y) - np.outer(Bs, Bs) / s.dot(Bs))


def compact_from(R):
    """A compact H = I - R' diag(1, -1, 1, -1, ...) R holding a copy of the rows
    of ``R``, in (+, -) pairs, whatever H they represent."""
    H = _CompactH(np.shape(R)[1])
    H.rows = np.array(R, dtype=float)
    H.m = H.rows.shape[0]
    return H


def perturbed_quadratic_diagonal(n):
    """``(sum x)^2 / 100 + sum x_i^2 / i`` from x = 0.5, minimized at 0 (Andrei 2008)."""
    i = np.arange(1.0, n + 1.0)
    return ObjectiveFunction(f"Perturbed Quadratic Diagonal n={n}", n,
                             lambda x: float(np.sum(x)) ** 2 / 100.0 + float(np.sum(x**2 / i)),
                             lambda x: 2.0 * x / i + float(np.sum(x)) / 50.0,
                             np.full(n, 0.5))


def hager(n):
    """``sum(exp(x_i) - sqrt(i) x_i)`` from x = 1, minimized at ``log sqrt(i)`` (Andrei 2008)."""
    root_i = np.sqrt(np.arange(1.0, n + 1.0))
    return ObjectiveFunction(f"Hager n={n}", n, lambda x: float(np.sum(np.exp(x) - root_i * x)),
                             lambda x: np.exp(x) - root_i, np.ones(n))


def raydan2(n):
    """``sum(exp(x_i) - x_i)`` from x = 1, minimized at 0 (Andrei 2008)."""
    return ObjectiveFunction(f"Raydan2 n={n}", n, lambda x: float(np.sum(np.exp(x) - x)),
                             lambda x: np.exp(x) - 1.0, np.ones(n))


def bfgs_update_H_dense(H, s, y):
    """The inverse BFGS update as the dense three-factor product, an O(n^3) oracle.

    ``(I - r sy') H (I - r ys') + r ss'`` with r = 1/(y's), built from ``np.eye``
    and two n x n products, the form the library's update must agree with.
    """
    rho = 1.0 / float(np.dot(s, y))
    left = np.eye(np.size(s)) - rho * np.outer(s, y)
    return left @ H @ left.T + rho * np.outer(s, s)


def fd_gradient_fresh_steps(f, x):
    """Central differences with fresh probe points, an oracle for ``fd_gradient``.

    Each coordinate builds three new arrays, ``h e_i``, ``x + h e_i`` and
    ``x - h e_i``, the form the library's in-place probe must agree with bit
    for bit wherever x has no ``-0.0`` coordinate.
    """
    h = FD_STEP
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_plus = float(f.evaluate(x + step))
        f_minus = float(f.evaluate(x - step))
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


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


# (n, gradient shape) of a sum whose all-ones gradient has the wrong shape;
# broadcast against the length-n central differences, each would read as exact
WRONG_GRADIENT_SHAPES = [(4, (1,)), (1, ()), (3, (3, 1))]
WRONG_GRADIENT_IDS = ["short", "scalar", "column"]


def sum_with_gradient_shape(n, shape):
    """``sum(x)`` in n variables whose gradient is all ones of ``shape``."""
    return ObjectiveFunction("sum", n, lambda x: float(x.sum()), lambda x: np.ones(shape),
                             np.ones(n))


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

