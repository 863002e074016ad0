"""Differentiable objective abstraction plus finite-difference gradient checks.

Solvers consume analytic gradients only; the central-difference machinery here
exists to verify those gradients before a function is trusted anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FD_STEP = 1e-6
CHECK_TOL = 1e-5
CHECK_POINT_COUNT = 5
CHECK_POINT_SCALE = 0.1
CHECK_POINT_SEED = 20240817


@dataclass(frozen=True)
class ObjectiveFunction:
    """Named objective with analytic gradient and a standard starting point.

    ``evaluate`` and ``gradient`` must be pure and reentrant; the benchmark
    harness may call them from several runs without coordination.  Neither
    may keep or write its argument: the gradient check rewrites one probe
    array between calls to ``evaluate``, and the line search passes one
    trial point to both.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    standard_start: np.ndarray

    def __post_init__(self):
        start = _vector(self, self.standard_start, "start")
        if not np.all(np.isfinite(start)):
            raise ValueError(f"{self.name}: start must be finite")
        object.__setattr__(self, "standard_start", start)


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array, or ValueError unless it has ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    return value


def _vector(f: ObjectiveFunction, value, what: str) -> np.ndarray:
    """``value`` as a float vector of shape ``(f.dimension,)``, else ValueError."""
    return _shaped(f"{f.name}: {what}", value, (int(f.dimension),))


@dataclass(frozen=True)
class GradientCheckReport:
    """Worst relative analytic-vs-central-difference discrepancy over probes;
    it passes at or below ``CHECK_TOL``."""

    max_rel_error: float
    worst_coordinate: int
    probe_points: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= CHECK_TOL


def fd_gradient(f: ObjectiveFunction, x):
    """Central-difference gradient ``(f(x + h e_i) - f(x - h e_i)) / (2h)``
    with h = ``FD_STEP``.

    All probes are one copy of x whose coordinate i is rewritten in place,
    so ``evaluate`` gets the same array, changed between calls.  Coordinate
    i is ``x[i] +/- h``, the same float addition as ``(x +/- h e_i)[i]``,
    and every other coordinate keeps the bits of x: a ``-0.0`` stays
    ``-0.0``, where adding ``0 e_j`` would give ``+0.0``.  x is never written.
    An x of another shape than ``(f.dimension,)`` raises ``ValueError``
    before any evaluation.
    """
    h = FD_STEP
    x = _vector(f, x, "point")
    probe = x.copy()
    grad = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        probe[i] = xi + h
        f_plus = float(f.evaluate(probe))
        probe[i] = xi - h
        f_minus = float(f.evaluate(probe))
        probe[i] = xi
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError(
                f"{f.name}: non-finite evaluation probing coordinate {i}: "
                f"f(x + h e_i) = {f_plus!r}, f(x - h e_i) = {f_minus!r}"
            )
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_gradient(f: ObjectiveFunction, points: Sequence[np.ndarray]) -> GradientCheckReport:
    """Compare the analytic gradient against central differences at ``points``.

    The per-point relative error is ``||g_analytic - g_fd|| / max(1, ||g_analytic||)``;
    the report keeps the worst error and the coordinate where it occurred.  An
    analytic gradient of a shape other than ``(f.dimension,)``, or with a
    non-finite entry, raises ``ValueError``, and so does a point of another
    shape, before any evaluation.
    """
    points = [_vector(f, x, f"check point {i}") for i, x in enumerate(points)]
    if not points:
        raise ValueError("points must be nonempty")
    worst = 0.0
    worst_coord = 0
    for x in points:
        approx = fd_gradient(f, x)
        exact = _vector(f, f.gradient(x), "gradient")  # else diff would broadcast
        finite = np.isfinite(exact)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"{f.name}: non-finite analytic gradient at coordinate {i}: {float(exact[i])!r}")
        diff = exact - approx
        rel = float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(exact)))
        if rel > worst:
            worst = rel
            worst_coord = int(np.argmax(np.abs(diff)))
    return GradientCheckReport(worst, worst_coord, len(points))


def default_check_points(f: ObjectiveFunction):
    """Standard start plus ``CHECK_POINT_COUNT`` perturbations of it by
    ``CHECK_POINT_SCALE`` times standard normals seeded with ``CHECK_POINT_SEED``."""
    rng = np.random.default_rng(CHECK_POINT_SEED)
    start = f.standard_start
    points = [start]
    for _ in range(CHECK_POINT_COUNT):
        points.append(start + CHECK_POINT_SCALE * rng.standard_normal(start.size))
    return points
