"""Shared helpers for the test suite."""

import csv
import io

import numpy as np

from qnbench import ObjectiveFunction


def iterate_sequence(result):
    """All iterates x_0 .. x_m of a ``SolveResult``, including the final point."""
    return [record.x for record in result.trace] + [result.final_x]


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


def parse_table_csv(text: str):
    """Rows of the table CSV as dicts with typed iteration/time fields."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for raw in reader:
        rows.append({
            "sl": int(raw["sl"]),
            "function": raw["function"],
            "bfgs_iterations": int(raw["bfgs_iterations"]) if raw["bfgs_iterations"] else None,
            "bfgs_time_ms": float(raw["bfgs_time_ms"]) if raw["bfgs_time_ms"] else None,
            "twophase_iterations": (int(raw["twophase_iterations"])
                                    if raw["twophase_iterations"] else None),
            "twophase_time_ms": (float(raw["twophase_time_ms"])
                                 if raw["twophase_time_ms"] else None),
        })
    return rows
