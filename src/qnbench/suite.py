"""The 30 benchmark problems, each registered at dimension 10 with its standard start.

Hager, Perturbed Quadratic Diagonal and Raydan2 are private builders of n that
return ``(f, g, start)``; their n = 10 results are the registered problems, and
the tests build them at larger n.  Formulas and starting points follow the
usual unconstrained test-function collections; each function's docstring
records the exact form implemented.  Every registered problem is validated on
first access: the analytic gradient must agree with central differences at the
standard start and at five seeded perturbations of it.

Problems carry reference iteration counts for the two solvers; these are
fixtures for the profile generator, not targets the solvers must reproduce.
"""

from __future__ import annotations

import csv
import difflib
import io
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qnbench.objectives import (GradientCheckReport, ObjectiveFunction, check_gradient,
                                default_check_points)

DIMENSION = 10


class UnknownProblemError(KeyError):
    """Lookup failed; ``suggestions`` holds the nearest registered names."""

    def __init__(self, name, suggestions):
        self.name = name
        self.suggestions = list(suggestions)
        hint = f"; closest matches: {', '.join(self.suggestions)}" if self.suggestions else ""
        super().__init__(f"unknown problem {name!r}{hint}")


@dataclass(frozen=True)
class KnownOptimum:
    x: np.ndarray
    f: float


@dataclass(frozen=True)
class SuiteProblem:
    objective: ObjectiveFunction
    table_bfgs_iters: int
    table_twophase_iters: int
    known_optimum: KnownOptimum | None = None

    @property
    def name(self) -> str:
        return self.objective.name


# --- problem definitions ---------------------------------------------------
# Chained functions pair x_i with x_{i+1}; "extended" functions act on the
# disjoint pairs (x_{2i-1}, x_{2i}).  Sums call ``_sum``, which is
# ``np.add.reduce``, running sums the array's own ``.cumsum()``, and gradients
# start from ``np.zeros(x.shape)``: the arithmetic of ``np.sum``, ``np.cumsum``
# and ``np.zeros_like``, without their Python wrappers.  ``ndarray.sum`` is no
# such shortcut: it runs numpy's Python-level ``_methods._sum``, which calls
# ``np.add.reduce``, so ``_sum`` gives its floats bit for bit.  An objective
# computes a subexpression it reads more than once, such as x^2 or 2 t, a
# single time, by the same operations in the same order, so its floats are
# those of the formula written out; a power other than 2 is never rebuilt from
# x^2, which would round differently.

_sum = np.add.reduce
_IDX = np.arange(1.0, DIMENSION + 1.0)


def _almost_perturbed_quadratic(x):
    """sum i x_i^2 + (x_1 + x_n)^2 / 100."""
    return float(_sum(_IDX * x**2) + (x[0] + x[-1]) ** 2 / 100.0)


def _almost_perturbed_quadratic_grad(x):
    g = 2.0 * _IDX * x
    t = (x[0] + x[-1]) / 50.0
    g[0] += t
    g[-1] += t
    return g


def _arwhead(x):
    """sum_{i<n} ((x_i^2 + x_n^2)^2 - 4 x_i + 3)."""
    t = x[:-1] ** 2 + x[-1] ** 2
    return float(_sum(t**2 - 4.0 * x[:-1] + 3.0))


def _arwhead_grad(x):
    t = x[:-1] ** 2 + x[-1] ** 2
    g = np.zeros(x.shape)
    g[:-1] = 4.0 * t * x[:-1] - 4.0
    g[-1] = 4.0 * float(_sum(t)) * x[-1]
    return g


def _biggsb1(x):
    """(x_1 - 1)^2 + sum (x_{i+1} - x_i)^2 + (1 - x_n)^2."""
    d = x[1:] - x[:-1]
    return float((x[0] - 1.0) ** 2 + _sum(d**2) + (1.0 - x[-1]) ** 2)


def _biggsb1_grad(x):
    two_d = 2.0 * (x[1:] - x[:-1])
    g = np.zeros(x.shape)
    g[0] = 2.0 * (x[0] - 1.0)
    g[:-1] -= two_d
    g[1:] += two_d
    g[-1] += 2.0 * (x[-1] - 1.0)
    return g


def _diagonal1(x):
    """sum (exp(x_i) - i x_i)."""
    return float(_sum(np.exp(x) - _IDX * x))


def _diagonal1_grad(x):
    return np.exp(x) - _IDX


def _diagonal2(x):
    """sum (exp(x_i) - x_i / i)."""
    return float(_sum(np.exp(x) - x / _IDX))


def _diagonal2_grad(x):
    return np.exp(x) - 1.0 / _IDX


def _diagonal3(x):
    """sum (exp(x_i) - i sin(x_i))."""
    return float(_sum(np.exp(x) - _IDX * np.sin(x)))


def _diagonal3_grad(x):
    return np.exp(x) - _IDX * np.cos(x)


def _diagonal7(x):
    """sum (exp(x_i) - 2 x_i - x_i^2)."""
    return float(_sum(np.exp(x) - 2.0 * x - x**2))


def _diagonal7_grad(x):
    return np.exp(x) - 2.0 - 2.0 * x


def _diagonal9(x):
    """sum_{i<n} (exp(x_i) - i x_i) + 10000 x_n^2."""
    return float(_sum(np.exp(x[:-1]) - _IDX[:-1] * x[:-1]) + 1e4 * x[-1] ** 2)


def _diagonal9_grad(x):
    g = np.zeros(x.shape)
    g[:-1] = np.exp(x[:-1]) - _IDX[:-1]
    g[-1] = 2e4 * x[-1]
    return g


_DIXMAAN_M = DIMENSION // 3
_DIXMAAN_W = (_IDX / DIMENSION) ** 2


def _dixmaanl(x):
    """1 + sum x_i^2 (i/n)^2 + 0.26 sum x_i^2 (x_{i+1} + x_{i+1}^2)^2
    + 0.26 sum_{i<=2m} x_i^2 x_{i+m}^4 + 0.26 sum_{i<=m} x_i x_{i+2m} (i/n)^2,
    with m = n // 3."""
    m = _DIXMAAN_M
    x2 = x**2
    q = x[1:] + x2[1:]
    value = 1.0
    value += float(_sum(x2 * _DIXMAAN_W))
    value += 0.26 * float(_sum(x2[:-1] * q**2))
    value += 0.26 * float(_sum(x2[: 2 * m] * x[m: 3 * m] ** 4))
    value += 0.26 * float(_sum(x[:m] * x[2 * m: 3 * m] * _DIXMAAN_W[:m]))
    return value


def _dixmaanl_grad(x):
    m = _DIXMAAN_M
    x2 = x**2
    q = x[1:] + x2[1:]
    g = 2.0 * x * _DIXMAAN_W
    g[:-1] += 0.52 * x[:-1] * q**2
    g[1:] += 0.52 * x2[:-1] * q * (1.0 + 2.0 * x[1:])
    g[: 2 * m] += 0.52 * x[: 2 * m] * x[m: 3 * m] ** 4
    g[m: 3 * m] += 1.04 * x2[: 2 * m] * x[m: 3 * m] ** 3
    g[:m] += 0.26 * x[2 * m: 3 * m] * _DIXMAAN_W[:m]
    g[2 * m: 3 * m] += 0.26 * x[:m] * _DIXMAAN_W[:m]
    return g


def _dqdrtic_coeffs():
    c = np.zeros(DIMENSION)
    c[: DIMENSION - 2] += 1.0
    c[1: DIMENSION - 1] += 100.0
    c[2:] += 100.0
    return c


_DQDRTIC_C = _dqdrtic_coeffs()


def _dqdrtic(x):
    """sum_{i<=n-2} (x_i^2 + 100 x_{i+1}^2 + 100 x_{i+2}^2)."""
    return float(_sum(_DQDRTIC_C * x**2))


def _dqdrtic_grad(x):
    return 2.0 * _DQDRTIC_C * x


def _edensch(x):
    """16 + sum ((x_i - 2)^4 + (x_i x_{i+1} - 2 x_{i+1})^2 + (x_{i+1} + 1)^2)."""
    a, b = x[:-1], x[1:]
    r = a * b - 2.0 * b
    return float(16.0 + _sum((a - 2.0) ** 4 + r**2 + (b + 1.0) ** 2))


def _edensch_grad(x):
    a, b = x[:-1], x[1:]
    two_r, d = 2.0 * (a * b - 2.0 * b), a - 2.0
    g = np.zeros(x.shape)
    g[:-1] += 4.0 * d**3 + two_r * b
    g[1:] += two_r * d + 2.0 * (b + 1.0)
    return g


def _engval1(x):
    """sum (x_i^2 + x_{i+1}^2)^2 + sum (3 - 4 x_i) over i < n."""
    a, b = x[:-1], x[1:]
    t = a**2 + b**2
    return float(_sum(t**2) + _sum(3.0 - 4.0 * a))


def _engval1_grad(x):
    a, b = x[:-1], x[1:]
    four_t = 4.0 * (a**2 + b**2)
    g = np.zeros(x.shape)
    g[:-1] += four_t * a - 4.0
    g[1:] += four_t * b
    return g


def _extended_beale(x):
    """pairwise (1.5 - u(1 - v))^2 + (2.25 - u(1 - v^2))^2 + (2.625 - u(1 - v^3))^2."""
    u, v = x[0::2], x[1::2]
    r1 = 1.5 - u * (1.0 - v)
    r2 = 2.25 - u * (1.0 - v**2)
    r3 = 2.625 - u * (1.0 - v**3)
    return float(_sum(r1**2 + r2**2 + r3**2))


def _extended_beale_grad(x):
    u, v = x[0::2], x[1::2]
    v2, v3 = v**2, v**3
    a1, a2, a3 = 1.0 - v, 1.0 - v2, 1.0 - v3
    r1 = 1.5 - u * a1
    r2 = 2.25 - u * a2
    r3 = 2.625 - u * a3
    g = np.zeros(x.shape)
    g[0::2] = -2.0 * (r1 * a1 + r2 * a2 + r3 * a3)
    g[1::2] = 2.0 * u * (r1 + 2.0 * v * r2 + 3.0 * v2 * r3)
    return g


def _extended_denschnb(x):
    """pairwise (u - 2)^2 + (u - 2)^2 v^2 + (v + 1)^2."""
    u, v = x[0::2], x[1::2]
    return float(_sum((u - 2.0) ** 2 * (1.0 + v**2) + (v + 1.0) ** 2))


def _extended_denschnb_grad(x):
    u, v = x[0::2], x[1::2]
    d = u - 2.0
    g = np.zeros(x.shape)
    g[0::2] = 2.0 * d * (1.0 + v**2)
    g[1::2] = 2.0 * d**2 * v + 2.0 * (v + 1.0)
    return g


def _extended_freudenstein_roth(x):
    """pairwise (-13 + u + ((5 - v) v - 2) v)^2 + (-29 + u + ((v + 1) v - 14) v)^2."""
    u, v = x[0::2], x[1::2]
    r1 = -13.0 + u + ((5.0 - v) * v - 2.0) * v
    r2 = -29.0 + u + ((v + 1.0) * v - 14.0) * v
    return float(_sum(r1**2 + r2**2))


def _extended_freudenstein_roth_grad(x):
    u, v = x[0::2], x[1::2]
    r1 = -13.0 + u + ((5.0 - v) * v - 2.0) * v
    r2 = -29.0 + u + ((v + 1.0) * v - 14.0) * v
    g = np.zeros(x.shape)
    g[0::2] = 2.0 * (r1 + r2)
    three_v2 = 3.0 * v**2
    g[1::2] = 2.0 * r1 * (10.0 * v - three_v2 - 2.0) + 2.0 * r2 * (three_v2 + 2.0 * v - 14.0)
    return g


def _extended_psc1(x):
    """pairwise (u^2 + v^2 + u v)^2 + sin^2(u) + cos^2(v)."""
    u, v = x[0::2], x[1::2]
    t = u**2 + v**2 + u * v
    return float(_sum(t**2 + np.sin(u) ** 2 + np.cos(v) ** 2))


def _extended_psc1_grad(x):
    u, v = x[0::2], x[1::2]
    two_t, two_u, two_v = 2.0 * (u**2 + v**2 + u * v), 2.0 * u, 2.0 * v
    g = np.zeros(x.shape)
    g[0::2] = two_t * (two_u + v) + np.sin(two_u)
    g[1::2] = two_t * (two_v + u) - np.sin(two_v)
    return g


def _extended_tridiagonal1(x):
    """pairwise (u + v - 3)^2 + (u - v + 1)^4."""
    u, v = x[0::2], x[1::2]
    return float(_sum((u + v - 3.0) ** 2 + (u - v + 1.0) ** 4))


def _extended_tridiagonal1_grad(x):
    u, v = x[0::2], x[1::2]
    a = 2.0 * (u + v - 3.0)
    b = 4.0 * (u - v + 1.0) ** 3
    g = np.zeros(x.shape)
    g[0::2] = a + b
    g[1::2] = a - b
    return g


def _extended_tridiagonal2(x):
    """sum (x_i x_{i+1} - 1)^2 + 0.1 (x_i + 1)(x_{i+1} + 1)."""
    a, b = x[:-1], x[1:]
    r = a * b - 1.0
    return float(_sum(r**2 + 0.1 * (a + 1.0) * (b + 1.0)))


def _extended_tridiagonal2_grad(x):
    a, b = x[:-1], x[1:]
    two_r = 2.0 * (a * b - 1.0)
    g = np.zeros(x.shape)
    g[:-1] += two_r * b + 0.1 * (b + 1.0)
    g[1:] += two_r * a + 0.1 * (a + 1.0)
    return g


def _fletcher(x):
    """chained 100 (x_{i+1} - x_i + 1 - x_i^2)^2."""
    r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
    return float(100.0 * _sum(r**2))


def _fletcher_grad(x):
    r200 = 200.0 * (x[1:] - x[:-1] + 1.0 - x[:-1] ** 2)
    g = np.zeros(x.shape)
    g[:-1] += r200 * (-1.0 - 2.0 * x[:-1])
    g[1:] += r200
    return g


def _generalized_psc1(x):
    """chained (x_i^2 + x_{i+1}^2 + x_i x_{i+1})^2 + sin^2(x_i) + cos^2(x_{i+1})."""
    a, b = x[:-1], x[1:]
    t = a**2 + b**2 + a * b
    return float(_sum(t**2 + np.sin(a) ** 2 + np.cos(b) ** 2))


def _generalized_psc1_grad(x):
    a, b = x[:-1], x[1:]
    two_t, two_a, two_b = 2.0 * (a**2 + b**2 + a * b), 2.0 * a, 2.0 * b
    g = np.zeros(x.shape)
    g[:-1] += two_t * (two_a + b) + np.sin(two_a)
    g[1:] += two_t * (two_b + a) - np.sin(two_b)
    return g


def _hager(n):
    """sum (exp(x_i) - sqrt(i) x_i), from x = 1."""
    root_i = np.sqrt(np.arange(1.0, n + 1.0))
    return lambda x: float(_sum(np.exp(x) - root_i * x)), lambda x: np.exp(x) - root_i, np.ones(n)


def _himmelh(x):
    """pairwise (-3u - 2v + 2 + u^3 + v^2)."""
    u, v = x[0::2], x[1::2]
    return float(_sum(-3.0 * u - 2.0 * v + 2.0 + u**3 + v**2))


def _himmelh_grad(x):
    u, v = x[0::2], x[1::2]
    g = np.zeros(x.shape)
    g[0::2] = -3.0 + 3.0 * u**2
    g[1::2] = -2.0 + 2.0 * v
    return g


def _partial_perturbed_quadratic(x):
    """x_1^2 + sum i x_i^2 + (1/100) sum_i (x_1 + ... + x_i)^2."""
    c = x.cumsum()
    return float(x[0] ** 2 + _sum(_IDX * x**2) + _sum(c**2) / 100.0)


def _partial_perturbed_quadratic_grad(x):
    c = x.cumsum()
    tail = c[::-1].cumsum()[::-1]  # tail_j = sum_{i >= j} c_i
    g = 2.0 * _IDX * x + tail / 50.0
    g[0] += 2.0 * x[0]
    return g


def _perturbed_quadratic_diagonal(n):
    """(sum x_i)^2 / 100 + sum x_i^2 / i, from x = 0.5."""
    i = np.arange(1.0, n + 1.0)

    def f(x):
        s = float(_sum(x))
        return float(s * s / 100.0 + _sum(x**2 / i))

    return f, lambda x: 2.0 * x / i + float(_sum(x)) / 50.0, np.full(n, 0.5)


def _perturbed_tridiagonal_quadratic(x):
    """sum i x_i^2 + (1/100) sum_{1<i<n} (x_{i-1} + x_i + x_{i+1})^2."""
    t = x[:-2] + x[1:-1] + x[2:]
    return float(_sum(_IDX * x**2) + _sum(t**2) / 100.0)


def _perturbed_tridiagonal_quadratic_grad(x):
    t50 = (x[:-2] + x[1:-1] + x[2:]) / 50.0
    g = 2.0 * _IDX * x
    g[:-2] += t50
    g[1:-1] += t50
    g[2:] += t50
    return g


def _quadratic_qf1(x):
    """0.5 sum i x_i^2 - x_n."""
    return float(0.5 * _sum(_IDX * x**2) - x[-1])


def _quadratic_qf1_grad(x):
    g = _IDX * x
    g[-1] -= 1.0
    return g


def _quadratic_qf2(x):
    """0.5 sum i (x_i^2 - 1)^2 - x_n."""
    return float(0.5 * _sum(_IDX * (x**2 - 1.0) ** 2) - x[-1])


def _quadratic_qf2_grad(x):
    g = 2.0 * _IDX * x * (x**2 - 1.0)
    g[-1] -= 1.0
    return g


def _raydan1(x):
    """sum (i/10) (exp(x_i) - x_i)."""
    return float(_sum(_IDX / 10.0 * (np.exp(x) - x)))


def _raydan1_grad(x):
    return _IDX / 10.0 * (np.exp(x) - 1.0)


def _raydan2(n):
    """sum (exp(x_i) - x_i), from x = 1."""
    return lambda x: float(_sum(np.exp(x) - x)), lambda x: np.exp(x) - 1.0, np.ones(n)


_TRIDIA_I = np.arange(2.0, DIMENSION + 1.0)


def _tridia(x):
    """(x_1 - 1)^2 + sum_{i>=2} i (2 x_i - x_{i-1})^2."""
    r = 2.0 * x[1:] - x[:-1]
    return float((x[0] - 1.0) ** 2 + _sum(_TRIDIA_I * r**2))


def _tridia_grad(x):
    r = 2.0 * x[1:] - x[:-1]
    g = np.zeros(x.shape)
    g[0] = 2.0 * (x[0] - 1.0)
    g[1:] += 4.0 * _TRIDIA_I * r
    g[:-1] -= 2.0 * _TRIDIA_I * r
    return g


# --- registration ----------------------------------------------------------


def _ones(value=1.0):
    return np.full(DIMENSION, float(value))


def _pairs(u, v):
    return np.tile([float(u), float(v)], DIMENSION // 2)


def _optimum(x, fun):
    x = np.asarray(x, dtype=float)
    return KnownOptimum(x, float(fun(x)))


def _build_problems():
    i = _IDX
    defs = [
        # (name, fun, grad, start, reference bfgs iters, reference two-phase iters, optimum x)
        ("Almost Perturbed Quadratic", _almost_perturbed_quadratic,
         _almost_perturbed_quadratic_grad, _ones(0.5), 18, 15, np.zeros(DIMENSION)),
        ("ARWHEAD", _arwhead, _arwhead_grad, _ones(), 7, 7,
         np.concatenate([np.ones(DIMENSION - 1), [0.0]])),
        ("BIGGSB1", _biggsb1, _biggsb1_grad, np.zeros(DIMENSION), 12, 11, _ones()),
        ("Diagonal 1", _diagonal1, _diagonal1_grad, _ones(1.0 / DIMENSION), 17, 13,
         np.log(i)),
        ("Diagonal 2", _diagonal2, _diagonal2_grad, 1.0 / i, 23, 22, -np.log(i)),
        ("Diagonal 3", _diagonal3, _diagonal3_grad, _ones(), 19, 14, None),
        ("Diagonal 7", _diagonal7, _diagonal7_grad, _ones(), 5, 7, None),
        ("Diagonal 9", _diagonal9, _diagonal9_grad, _ones(), 22, 14,
         np.concatenate([np.log(i[:-1]), [0.0]])),
        ("DIXMAANL", _dixmaanl, _dixmaanl_grad, _ones(2.0), 12, 11, np.zeros(DIMENSION)),
        ("DQDRTIC", _dqdrtic, _dqdrtic_grad, _ones(3.0), 13, 20, np.zeros(DIMENSION)),
        ("EDENSCH", _edensch, _edensch_grad, np.zeros(DIMENSION), 23, 18, None),
        ("ENGVAL1", _engval1, _engval1_grad, _ones(2.0), 30, 25, None),
        ("Extended Beale", _extended_beale, _extended_beale_grad,
         _pairs(1.0, 0.8), 22, 20, _pairs(3.0, 0.5)),
        ("Extended DENSCHNB", _extended_denschnb, _extended_denschnb_grad,
         _ones(), 7, 7, _pairs(2.0, -1.0)),
        ("Extended Freudenstein and Roth", _extended_freudenstein_roth,
         _extended_freudenstein_roth_grad, _pairs(0.5, -2.0), 10, 9, None),
        ("Extended PSC1", _extended_psc1, _extended_psc1_grad,
         _pairs(3.0, 0.1), 13, 12, None),
        ("Extended Tridiagonal 1", _extended_tridiagonal1,
         _extended_tridiagonal1_grad, _ones(2.0), 21, 20, _pairs(1.0, 2.0)),
        ("Extended Tridiagonal 2", _extended_tridiagonal2,
         _extended_tridiagonal2_grad, _ones(), 11, 9, None),
        ("Fletcher", _fletcher, _fletcher_grad, np.zeros(DIMENSION), 28, 25, _ones()),
        ("Generalized PSC1", _generalized_psc1, _generalized_psc1_grad,
         _pairs(3.0, 0.1), 23, 14, None),
        ("Hager", *_hager(DIMENSION), 17, 8, 0.5 * np.log(i)),
        ("HIMMELH", _himmelh, _himmelh_grad, _ones(1.5), 7, 6, _ones()),
        ("Partial Perturbed Quadratic", _partial_perturbed_quadratic,
         _partial_perturbed_quadratic_grad, _ones(0.5), 16, 16, np.zeros(DIMENSION)),
        ("Perturbed Quadratic Diagonal", *_perturbed_quadratic_diagonal(DIMENSION), 10, 5,
         np.zeros(DIMENSION)),
        ("Perturbed Tridiagonal Quadratic", _perturbed_tridiagonal_quadratic,
         _perturbed_tridiagonal_quadratic_grad, _ones(0.5), 18, 14, np.zeros(DIMENSION)),
        ("Quadratic QF1", _quadratic_qf1, _quadratic_qf1_grad, _ones(), 16, 11,
         np.concatenate([np.zeros(DIMENSION - 1), [1.0 / DIMENSION]])),
        ("Quadratic QF2", _quadratic_qf2, _quadratic_qf2_grad, _ones(0.5), 23, 17, None),
        ("Raydan1", _raydan1, _raydan1_grad, _ones(), 18, 16, np.zeros(DIMENSION)),
        ("Raydan2", *_raydan2(DIMENSION), 7, 5, np.zeros(DIMENSION)),
        ("Tridia", _tridia, _tridia_grad, _ones(), 15, 16, 0.5 ** np.arange(DIMENSION)),
    ]
    problems = []
    for name, fun, grad, start, bfgs_iters, twophase_iters, best_x in defs:
        objective = ObjectiveFunction(name, DIMENSION, fun, grad, start)
        optimum = _optimum(best_x, fun) if best_x is not None else None
        problems.append(SuiteProblem(objective, bfgs_iters, twophase_iters, optimum))
    return problems


class GradientCheckError(RuntimeError):
    """A suite problem's gradient check failed, met a non-finite value or met a
    gradient of the wrong shape."""


def gradient_reports() -> list[tuple[SuiteProblem, GradientCheckReport]]:
    """Every problem with its gradient check; :class:`GradientCheckError`
    names the first problem whose check fails, meets a non-finite value or
    meets a gradient of the wrong shape."""
    checked = []
    for problem in _build_problems():
        try:
            report = check_gradient(problem.objective, default_check_points(problem.objective))
        except ValueError as err:  # its message begins with the problem's name
            raise GradientCheckError(str(err)) from err
        if not report.passed:
            raise GradientCheckError(
                f"{problem.name}: analytic gradient disagrees with central "
                f"differences (rel error {report.max_rel_error:.3e} at "
                f"coordinate {report.worst_coordinate})"
            )
        checked.append((problem, report))
    return checked


@lru_cache(maxsize=1)
def suite() -> tuple[SuiteProblem, ...]:
    """All 30 problems in table order, gradient-checked on first access."""
    return tuple(problem for problem, _ in gradient_reports())


def _canon(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


@lru_cache(maxsize=1)
def _canon_index():
    return {_canon(p.name): p for p in suite()}


def lookup(name: str) -> SuiteProblem:
    """Find a problem by name, case- and punctuation-insensitively."""
    index = _canon_index()
    key = _canon(name)
    if key in index:
        return index[key]
    near = difflib.get_close_matches(key, index.keys(), n=3, cutoff=0.5)
    suggestions = [index[k].name for k in near]
    raise UnknownProblemError(name, suggestions)


def manifest_csv() -> str:
    """Suite manifest: name,dimension,f_start,table_bfgs_iters,table_twophase_iters."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "dimension", "f_start",
                     "table_bfgs_iters", "table_twophase_iters"])
    for p in suite():
        f_start = p.objective.evaluate(p.objective.standard_start)
        writer.writerow([p.name, p.objective.dimension, repr(float(f_start)),
                         p.table_bfgs_iters, p.table_twophase_iters])
    return out.getvalue()
