"""The 30 benchmark problems, each registered at dimension 10 with its standard start.

``_build_problems(n)`` defines every problem once, for any even n >= 4; its
n = 10 result is the registered suite, and the tests build it at other n.
Formulas and starting points follow Andrei's collection of unconstrained test
functions (2008); each function's docstring records the exact form
implemented.  Every registered problem is validated on first access: the
analytic gradient must agree with central differences at the standard start
and at five seeded perturbations of it.

Problems carry reference iteration counts for the two solvers, those at
n = 10 whatever n is; these are fixtures for the profile generator, not
targets the solvers must reproduce.
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
# A formula that reads n is a builder of n: it returns ``(f, g)``, which close
# over the arrays it builds once, never once per evaluation.  The others are
# plain ``f`` and ``g`` functions.
#
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
#
# An extended gradient returns ``_extended_grad`` of its partials in
# u = x_{2i-1} and v = x_{2i}, and a chained one ``_chained_grad`` of its
# partials in x_i and x_{i+1}.  ARWHEAD, BIGGSB1, Diagonal 9 and Tridia have
# end terms that fit neither layout.

_sum = np.add.reduce


def _extended_grad(x, du, dv):
    """The gradient whose entries 0, 2, 4, ... are ``du`` and 1, 3, 5, ... ``dv``."""
    g = np.zeros(x.shape)
    g[0::2] = du
    g[1::2] = dv
    return g


def _chained_grad(x, da, db):
    """The gradient ``da`` on x_1 .. x_{n-1} plus ``db`` on x_2 .. x_n; the sum
    onto zeros gives +0.0 where a partial alone is -0.0."""
    g = np.zeros(x.shape)
    g[:-1] += da
    g[1:] += db
    return g


def _almost_perturbed_quadratic(n):
    """sum i x_i^2 + (x_1 + x_n)^2 / 100."""
    i = np.arange(1.0, n + 1.0)

    def grad(x):
        g = 2.0 * i * x
        t = (x[0] + x[-1]) / 50.0
        g[0] += t
        g[-1] += t
        return g

    return lambda x: float(_sum(i * x**2) + (x[0] + x[-1]) ** 2 / 100.0), grad


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


def _diagonal1(n):
    """sum (exp(x_i) - i x_i)."""
    i = np.arange(1.0, n + 1.0)
    return lambda x: float(_sum(np.exp(x) - i * x)), lambda x: np.exp(x) - i


def _diagonal2(n):
    """sum (exp(x_i) - x_i / i)."""
    i = np.arange(1.0, n + 1.0)
    return lambda x: float(_sum(np.exp(x) - x / i)), lambda x: np.exp(x) - 1.0 / i


def _diagonal3(n):
    """sum (exp(x_i) - i sin(x_i))."""
    i = np.arange(1.0, n + 1.0)
    return (lambda x: float(_sum(np.exp(x) - i * np.sin(x))),
            lambda x: np.exp(x) - i * np.cos(x))


def _diagonal7(x):
    """sum (exp(x_i) - 2 x_i - x_i^2)."""
    return float(_sum(np.exp(x) - 2.0 * x - x**2))


def _diagonal7_grad(x):
    return np.exp(x) - 2.0 - 2.0 * x


def _diagonal9(n):
    """sum_{i<n} (exp(x_i) - i x_i) + 10000 x_n^2."""
    i = np.arange(1.0, n)

    def grad(x):
        g = np.zeros(x.shape)
        g[:-1] = np.exp(x[:-1]) - i
        g[-1] = 2e4 * x[-1]
        return g

    return lambda x: float(_sum(np.exp(x[:-1]) - i * x[:-1]) + 1e4 * x[-1] ** 2), grad


def _dixmaanl(n):
    """1 + sum x_i^2 (i/n)^2 + 0.26 sum x_i^2 (x_{i+1} + x_{i+1}^2)^2
    + 0.26 sum_{i<=2m} x_i^2 x_{i+m}^4 + 0.26 sum_{i<=m} x_i x_{i+2m} (i/n)^2,
    with m = n // 3."""
    m = n // 3
    w = (np.arange(1.0, n + 1.0) / n) ** 2

    def f(x):
        x2 = x**2
        q = x[1:] + x2[1:]
        value = 1.0
        value += float(_sum(x2 * w))
        value += 0.26 * float(_sum(x2[:-1] * q**2))
        value += 0.26 * float(_sum(x2[: 2 * m] * x[m: 3 * m] ** 4))
        value += 0.26 * float(_sum(x[:m] * x[2 * m: 3 * m] * w[:m]))
        return value

    def grad(x):
        x2 = x**2
        q = x[1:] + x2[1:]
        g = 2.0 * x * w
        g[:-1] += 0.52 * x[:-1] * q**2
        g[1:] += 0.52 * x2[:-1] * q * (1.0 + 2.0 * x[1:])
        g[: 2 * m] += 0.52 * x[: 2 * m] * x[m: 3 * m] ** 4
        g[m: 3 * m] += 1.04 * x2[: 2 * m] * x[m: 3 * m] ** 3
        g[:m] += 0.26 * x[2 * m: 3 * m] * w[:m]
        g[2 * m: 3 * m] += 0.26 * x[:m] * w[:m]
        return g

    return f, grad


def _dqdrtic(n):
    """sum_{i<=n-2} (x_i^2 + 100 x_{i+1}^2 + 100 x_{i+2}^2)."""
    c = np.zeros(n)
    c[:-2] += 1.0
    c[1:-1] += 100.0
    c[2:] += 100.0
    return lambda x: float(_sum(c * x**2)), lambda x: 2.0 * c * x


def _edensch(x):
    """16 + sum ((x_i - 2)^4 + (x_i x_{i+1} - 2 x_{i+1})^2 + (x_{i+1} + 1)^2)."""
    a, b = x[:-1], x[1:]
    r = a * b - 2.0 * b
    return float(16.0 + _sum((a - 2.0) ** 4 + r**2 + (b + 1.0) ** 2))


def _edensch_grad(x):
    a, b = x[:-1], x[1:]
    two_r, d = 2.0 * (a * b - 2.0 * b), a - 2.0
    return _chained_grad(x, 4.0 * d**3 + two_r * b, two_r * d + 2.0 * (b + 1.0))


def _engval1(x):
    """sum (x_i^2 + x_{i+1}^2)^2 + sum (3 - 4 x_i) over i < n."""
    a, b = x[:-1], x[1:]
    t = a**2 + b**2
    return float(_sum(t**2) + _sum(3.0 - 4.0 * a))


def _engval1_grad(x):
    a, b = x[:-1], x[1:]
    four_t = 4.0 * (a**2 + b**2)
    return _chained_grad(x, four_t * a - 4.0, four_t * b)


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
    return _extended_grad(x, -2.0 * (r1 * a1 + r2 * a2 + r3 * a3),
                          2.0 * u * (r1 + 2.0 * v * r2 + 3.0 * v2 * r3))


def _extended_denschnb(x):
    """pairwise (u - 2)^2 + (u - 2)^2 v^2 + (v + 1)^2."""
    u, v = x[0::2], x[1::2]
    return float(_sum((u - 2.0) ** 2 * (1.0 + v**2) + (v + 1.0) ** 2))


def _extended_denschnb_grad(x):
    u, v = x[0::2], x[1::2]
    d = u - 2.0
    return _extended_grad(x, 2.0 * d * (1.0 + v**2), 2.0 * d**2 * v + 2.0 * (v + 1.0))


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
    three_v2 = 3.0 * v**2
    dv = 2.0 * r1 * (10.0 * v - three_v2 - 2.0) + 2.0 * r2 * (three_v2 + 2.0 * v - 14.0)
    return _extended_grad(x, 2.0 * (r1 + r2), dv)


def _extended_psc1(x):
    """pairwise (u^2 + v^2 + u v)^2 + sin^2(u) + cos^2(v)."""
    u, v = x[0::2], x[1::2]
    t = u**2 + v**2 + u * v
    return float(_sum(t**2 + np.sin(u) ** 2 + np.cos(v) ** 2))


def _extended_psc1_grad(x):
    u, v = x[0::2], x[1::2]
    two_t, two_u, two_v = 2.0 * (u**2 + v**2 + u * v), 2.0 * u, 2.0 * v
    return _extended_grad(x, two_t * (two_u + v) + np.sin(two_u),
                          two_t * (two_v + u) - np.sin(two_v))


def _extended_tridiagonal1(x):
    """pairwise (u + v - 3)^2 + (u - v + 1)^4."""
    u, v = x[0::2], x[1::2]
    return float(_sum((u + v - 3.0) ** 2 + (u - v + 1.0) ** 4))


def _extended_tridiagonal1_grad(x):
    u, v = x[0::2], x[1::2]
    a = 2.0 * (u + v - 3.0)
    b = 4.0 * (u - v + 1.0) ** 3
    return _extended_grad(x, a + b, a - b)


def _extended_tridiagonal2(x):
    """sum (x_i x_{i+1} - 1)^2 + 0.1 (x_i + 1)(x_{i+1} + 1)."""
    a, b = x[:-1], x[1:]
    r = a * b - 1.0
    return float(_sum(r**2 + 0.1 * (a + 1.0) * (b + 1.0)))


def _extended_tridiagonal2_grad(x):
    a, b = x[:-1], x[1:]
    two_r = 2.0 * (a * b - 1.0)
    return _chained_grad(x, two_r * b + 0.1 * (b + 1.0), two_r * a + 0.1 * (a + 1.0))


def _fletcher(x):
    """chained 100 (x_{i+1} - x_i + 1 - x_i^2)^2."""
    r = x[1:] - x[:-1] + 1.0 - x[:-1] ** 2
    return float(100.0 * _sum(r**2))


def _fletcher_grad(x):
    r200 = 200.0 * (x[1:] - x[:-1] + 1.0 - x[:-1] ** 2)
    return _chained_grad(x, r200 * (-1.0 - 2.0 * x[:-1]), r200)


def _generalized_psc1(x):
    """chained (x_i^2 + x_{i+1}^2 + x_i x_{i+1})^2 + sin^2(x_i) + cos^2(x_{i+1})."""
    a, b = x[:-1], x[1:]
    t = a**2 + b**2 + a * b
    return float(_sum(t**2 + np.sin(a) ** 2 + np.cos(b) ** 2))


def _generalized_psc1_grad(x):
    a, b = x[:-1], x[1:]
    two_t, two_a, two_b = 2.0 * (a**2 + b**2 + a * b), 2.0 * a, 2.0 * b
    return _chained_grad(x, two_t * (two_a + b) + np.sin(two_a),
                         two_t * (two_b + a) - np.sin(two_b))


def _hager(n):
    """sum (exp(x_i) - sqrt(i) x_i)."""
    root_i = np.sqrt(np.arange(1.0, n + 1.0))
    return lambda x: float(_sum(np.exp(x) - root_i * x)), lambda x: np.exp(x) - root_i


def _himmelh(x):
    """pairwise (-3u - 2v + 2 + u^3 + v^2)."""
    u, v = x[0::2], x[1::2]
    return float(_sum(-3.0 * u - 2.0 * v + 2.0 + u**3 + v**2))


def _himmelh_grad(x):
    u, v = x[0::2], x[1::2]
    return _extended_grad(x, -3.0 + 3.0 * u**2, -2.0 + 2.0 * v)


def _partial_perturbed_quadratic(n):
    """x_1^2 + sum i x_i^2 + (1/100) sum_i (x_1 + ... + x_i)^2."""
    i = np.arange(1.0, n + 1.0)

    def f(x):
        c = x.cumsum()
        return float(x[0] ** 2 + _sum(i * x**2) + _sum(c**2) / 100.0)

    def grad(x):
        c = x.cumsum()
        tail = c[::-1].cumsum()[::-1]  # tail_j = sum_{i >= j} c_i
        g = 2.0 * i * x + tail / 50.0
        g[0] += 2.0 * x[0]
        return g

    return f, grad


def _perturbed_quadratic_diagonal(n):
    """(sum x_i)^2 / 100 + sum x_i^2 / i."""
    i = np.arange(1.0, n + 1.0)

    def f(x):
        s = float(_sum(x))
        return float(s * s / 100.0 + _sum(x**2 / i))

    return f, lambda x: 2.0 * x / i + float(_sum(x)) / 50.0


def _perturbed_tridiagonal_quadratic(n):
    """sum i x_i^2 + (1/100) sum_{1<i<n} (x_{i-1} + x_i + x_{i+1})^2."""
    i = np.arange(1.0, n + 1.0)

    def f(x):
        t = x[:-2] + x[1:-1] + x[2:]
        return float(_sum(i * x**2) + _sum(t**2) / 100.0)

    def grad(x):
        t50 = (x[:-2] + x[1:-1] + x[2:]) / 50.0
        g = 2.0 * i * x
        g[:-2] += t50
        g[1:-1] += t50
        g[2:] += t50
        return g

    return f, grad


def _quadratic_qf1(n):
    """0.5 sum i x_i^2 - x_n."""
    i = np.arange(1.0, n + 1.0)

    def grad(x):
        g = i * x
        g[-1] -= 1.0
        return g

    return lambda x: float(0.5 * _sum(i * x**2) - x[-1]), grad


def _quadratic_qf2(n):
    """0.5 sum i (x_i^2 - 1)^2 - x_n."""
    i = np.arange(1.0, n + 1.0)

    def grad(x):
        g = 2.0 * i * x * (x**2 - 1.0)
        g[-1] -= 1.0
        return g

    return lambda x: float(0.5 * _sum(i * (x**2 - 1.0) ** 2) - x[-1]), grad


def _raydan1(n):
    """sum (i/10) (exp(x_i) - x_i)."""
    c = np.arange(1.0, n + 1.0) / 10.0
    return lambda x: float(_sum(c * (np.exp(x) - x))), lambda x: c * (np.exp(x) - 1.0)


def _raydan2(x):
    """sum (exp(x_i) - x_i)."""
    return float(_sum(np.exp(x) - x))


def _raydan2_grad(x):
    return np.exp(x) - 1.0


def _tridia(n):
    """(x_1 - 1)^2 + sum_{i>=2} i (2 x_i - x_{i-1})^2."""
    i = np.arange(2.0, n + 1.0)

    def f(x):
        r = 2.0 * x[1:] - x[:-1]
        return float((x[0] - 1.0) ** 2 + _sum(i * r**2))

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros(x.shape)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 4.0 * i * r
        g[:-1] -= 2.0 * i * r
        return g

    return f, grad


# --- registration ----------------------------------------------------------


def _build_problems(n=10):
    """The 30 problems in n variables, in table order, each from its standard
    start.  n must be even, for the extended problems' pairs, and >= 4; the
    reference counts are those at n = 10 whatever n is."""
    i = np.arange(1.0, n + 1.0)

    def full(value):
        return np.full(n, value)

    def pairs(u, v):
        return np.tile([u, v], n // 2)

    defs = [
        # (name, fun, grad, start, reference bfgs iters, reference two-phase iters, optimum x)
        ("Almost Perturbed Quadratic", *_almost_perturbed_quadratic(n), full(0.5), 18, 15,
         full(0.0)),
        ("ARWHEAD", _arwhead, _arwhead_grad, full(1.0), 7, 7, np.append(np.ones(n - 1), 0.0)),
        ("BIGGSB1", _biggsb1, _biggsb1_grad, full(0.0), 12, 11, full(1.0)),
        ("Diagonal 1", *_diagonal1(n), full(1.0 / n), 17, 13, np.log(i)),
        ("Diagonal 2", *_diagonal2(n), 1.0 / i, 23, 22, -np.log(i)),
        ("Diagonal 3", *_diagonal3(n), full(1.0), 19, 14, None),
        ("Diagonal 7", _diagonal7, _diagonal7_grad, full(1.0), 5, 7, None),
        ("Diagonal 9", *_diagonal9(n), full(1.0), 22, 14, np.append(np.log(i[:-1]), 0.0)),
        ("DIXMAANL", *_dixmaanl(n), full(2.0), 12, 11, full(0.0)),
        ("DQDRTIC", *_dqdrtic(n), full(3.0), 13, 20, full(0.0)),
        ("EDENSCH", _edensch, _edensch_grad, full(0.0), 23, 18, None),
        ("ENGVAL1", _engval1, _engval1_grad, full(2.0), 30, 25, None),
        ("Extended Beale", _extended_beale, _extended_beale_grad,
         pairs(1.0, 0.8), 22, 20, pairs(3.0, 0.5)),
        ("Extended DENSCHNB", _extended_denschnb, _extended_denschnb_grad,
         full(1.0), 7, 7, pairs(2.0, -1.0)),
        ("Extended Freudenstein and Roth", _extended_freudenstein_roth,
         _extended_freudenstein_roth_grad, pairs(0.5, -2.0), 10, 9, None),
        ("Extended PSC1", _extended_psc1, _extended_psc1_grad,
         pairs(3.0, 0.1), 13, 12, None),
        ("Extended Tridiagonal 1", _extended_tridiagonal1,
         _extended_tridiagonal1_grad, full(2.0), 21, 20, pairs(1.0, 2.0)),
        ("Extended Tridiagonal 2", _extended_tridiagonal2,
         _extended_tridiagonal2_grad, full(1.0), 11, 9, None),
        ("Fletcher", _fletcher, _fletcher_grad, full(0.0), 28, 25, full(1.0)),
        ("Generalized PSC1", _generalized_psc1, _generalized_psc1_grad,
         pairs(3.0, 0.1), 23, 14, None),
        ("Hager", *_hager(n), full(1.0), 17, 8, 0.5 * np.log(i)),
        ("HIMMELH", _himmelh, _himmelh_grad, full(1.5), 7, 6, full(1.0)),
        ("Partial Perturbed Quadratic", *_partial_perturbed_quadratic(n), full(0.5), 16, 16,
         full(0.0)),
        ("Perturbed Quadratic Diagonal", *_perturbed_quadratic_diagonal(n), full(0.5), 10, 5,
         full(0.0)),
        ("Perturbed Tridiagonal Quadratic", *_perturbed_tridiagonal_quadratic(n), full(0.5),
         18, 14, full(0.0)),
        ("Quadratic QF1", *_quadratic_qf1(n), full(1.0), 16, 11,
         np.append(np.zeros(n - 1), 1.0 / n)),
        ("Quadratic QF2", *_quadratic_qf2(n), full(0.5), 23, 17, None),
        ("Raydan1", *_raydan1(n), full(1.0), 18, 16, full(0.0)),
        ("Raydan2", _raydan2, _raydan2_grad, full(1.0), 7, 5, full(0.0)),
        ("Tridia", *_tridia(n), full(1.0), 15, 16, 0.5 ** np.arange(n)),
    ]
    problems = []
    for name, fun, grad, start, bfgs_iters, twophase_iters, best_x in defs:
        objective = ObjectiveFunction(name, n, fun, grad, start)
        try:
            optimum = None if best_x is None else KnownOptimum(best_x, float(fun(best_x)))
        except ValueError as err:
            raise ValueError(f"{name}: f at the recorded optimum: {err}") from err
        problems.append(SuiteProblem(objective, bfgs_iters, twophase_iters, optimum))
    return problems


class GradientCheckError(RuntimeError):
    """A suite problem's gradient check failed, met a non-finite value or met a
    gradient of the wrong shape, or its f raised at its recorded optimum."""


def gradient_reports() -> list[tuple[SuiteProblem, GradientCheckReport]]:
    """Every problem with its gradient check; :class:`GradientCheckError`
    names the first problem whose check fails, meets a non-finite value or
    meets a gradient of the wrong shape, or whose f raises at its recorded
    optimum."""
    checked = []
    try:
        for problem in _build_problems():
            report = check_gradient(problem.objective, default_check_points(problem.objective))
            if not report.passed:
                raise GradientCheckError(
                    f"{problem.name}: analytic gradient disagrees with central "
                    f"differences (rel error {report.max_rel_error:.3e} at "
                    f"coordinate {report.worst_coordinate})"
                )
            checked.append((problem, report))
    except ValueError as err:  # its message begins with the problem's name
        raise GradientCheckError(str(err)) from err
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
