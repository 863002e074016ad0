"""Every solve ends in a named termination and never raises.

Property tests over BFGS and both two-phase forms: separable convex
quadratics converge, linear objectives (unbounded below) run out of
iterations, objectives that are +inf everywhere but the start exhaust the
line search, a non-finite f or gradient at the start ends the solve before
the first direction, and a gradient whose norm overflows, or a finite
``||g||`` whose slope g'p = -g'Hg overflows, ends it ``non_finite``.  A finite
slope that is not negative ends it ``spd_failure``.  No overflow escapes a
solve as a RuntimeWarning, which pyproject.toml makes an error.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnbench import (
    CONVERGED,
    LINE_SEARCH_EXHAUSTED,
    MAX_ITER,
    NON_FINITE,
    SPD_FAILURE,
    ObjectiveFunction,
    SolverConfig,
    lookup,
    solve_bfgs,
    solve_two_phase,
)
from qnbench import solvers
from qnbench.solvers import MODE_B_FORM, MODE_H_FORM_LITERAL, _DenseH

SOLVERS = ("bfgs", MODE_B_FORM, MODE_H_FORM_LITERAL)
SETTINGS = settings(derandomize=True, max_examples=15, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=5)


def vectors(n, low, high):
    return st.lists(st.floats(low, high), min_size=n, max_size=n).map(np.array)


def solve(solver, objective, max_iter=500):
    if solver == "bfgs":
        return solve_bfgs(objective, objective.standard_start, SolverConfig(max_iter=max_iter))
    cfg = SolverConfig(max_iter=max_iter, mode=solver)
    return solve_two_phase(objective, objective.standard_start, cfg)


@st.composite
def quadratics(draw):
    """0.5 * sum(d * (x - c)**2) with curvatures d in [0.1, 100]."""
    n = draw(dims)
    d, c, x0 = draw(vectors(n, 0.1, 100.0)), draw(vectors(n, -10, 10)), draw(vectors(n, -10, 10))
    return ObjectiveFunction("quadratic", n,
                             lambda x: 0.5 * float(np.sum(d * (x - c) ** 2)),
                             lambda x: d * (x - c), x0)


@st.composite
def linears(draw):
    """c'x with every |c_i| in [0.5, 10]: unbounded below, gradient never small."""
    n = draw(dims)
    magnitudes = draw(vectors(n, 0.5, 10.0))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    c = signs * magnitudes
    return ObjectiveFunction("linear", n, lambda x: float(c @ x), lambda x: c.copy(),
                             draw(vectors(n, -10, 10)))


@st.composite
def infinite_walls(draw):
    """Finite only at the start, with a nonzero gradient there."""
    n = draw(dims)
    x0, g0 = draw(vectors(n, -10, 10)), draw(vectors(n, 0.5, 10.0))
    return ObjectiveFunction("wall", n,
                             lambda x: 0.0 if np.array_equal(x, x0) else np.inf,
                             lambda x: g0.copy(), x0)


def non_finite_start(n, where, bad, index):
    """sum(x**2) whose f, or one gradient entry, is ``bad``."""
    def gradient(x):
        g = 2.0 * x
        if where == "g":
            g[index % n] = bad
        return g

    return ObjectiveFunction("non-finite", n,
                             lambda x: bad if where == "f" else float(x @ x),
                             gradient, np.ones(n))


@pytest.mark.parametrize("solver", SOLVERS)
@SETTINGS
@given(objective=quadratics())
def test_convex_quadratic_converges(solver, objective):
    res = solve(solver, objective)
    assert res.termination == CONVERGED
    assert res.final_grad_norm <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS)
@SETTINGS
@given(objective=linears(), max_iter=st.integers(1, 3))
def test_unbounded_linear_hits_iteration_cap(solver, objective, max_iter):
    res = solve(solver, objective, max_iter)
    assert res.termination == MAX_ITER
    assert res.iterations == max_iter


@pytest.mark.parametrize("solver", SOLVERS)
@SETTINGS
@given(objective=infinite_walls())
def test_infinite_everywhere_but_start_exhausts_line_search(solver, objective):
    res = solve(solver, objective)
    assert res.termination == LINE_SEARCH_EXHAUSTED
    assert res.iterations == 0


@pytest.mark.parametrize("solver", SOLVERS)
@SETTINGS
@example(n=2, where="f", bad=np.nan, index=0)
@example(n=2, where="f", bad=np.inf, index=0)
@example(n=2, where="g", bad=np.nan, index=0)
@given(n=dims, where=st.sampled_from(["f", "g"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), index=st.integers(0, 4))
def test_non_finite_start_is_named(solver, n, where, bad, index):
    res = solve(solver, non_finite_start(n, where, bad, index))
    assert res.termination == NON_FINITE
    assert (res.iterations, res.f_evals, res.g_evals) == (0, 1, 1)
    assert res.trace == [] and res.updates == []


@pytest.mark.parametrize("solver", SOLVERS)
def test_overflow_at_the_start_ends_non_finite_without_a_warning(solver):
    # sum(exp(x)) from x0 = 1000 (1, 1, 1): f and every gradient entry
    # overflow to inf, which warns outside a solve.  The solve ends before
    # its first direction, and the overflow stays inside it
    objective = ObjectiveFunction("exp", 3, lambda x: float(np.exp(x).sum()), np.exp,
                                  np.full(3, 1000.0))
    with pytest.warns(RuntimeWarning, match="overflow"):
        objective.evaluate(objective.standard_start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(solver, objective)
    assert res.termination == NON_FINITE and res.final_f == math.inf
    assert (res.iterations, res.f_evals, res.g_evals) == (0, 1, 1)
    assert res.final_grad_norm == math.inf


@pytest.mark.parametrize("solver", SOLVERS)
def test_direction_without_finite_slope_ends_non_finite(solver):
    # 0.5 ||x||^2 from (1, 1), but with a gradient of -1e160 (1, 1) at x = 0:
    # the first step lands on 0, y'y overflows, so the curvature floor
    # skips the update, and the next gradient's norm overflows to inf, which
    # ends the solve before its slope g'p = -g'Hg, -inf too, is formed
    def gradient(x):
        return np.full(2, -1e160) if not np.any(x) else np.array(x, dtype=float)

    objective = ObjectiveFunction("overflowing slope", 2, lambda x: 0.5 * float(x @ x),
                                  gradient, np.ones(2))
    res = solve(solver, objective)
    assert res.termination == NON_FINITE
    assert (res.iterations, res.f_evals, res.g_evals) == (1, 2, 2)
    assert res.trace[0].update_skipped


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name, counts", [("Diagonal 7", (314, 630, 629)),
                                          ("HIMMELH", (6, 22, 13))])
def test_overflowing_gradient_norm_ends_non_finite(solver, name, counts):
    # from 10 x0 both suite problems run off towards f = -inf; every pair
    # fails the curvature floor, so the three solvers take the same steps,
    # until ||g|| overflows at a finite gradient and ends the solve
    objective = lookup(name).objective
    x0 = 10.0 * objective.standard_start
    if solver == "bfgs":
        res = solve_bfgs(objective, x0)
    else:
        res = solve_two_phase(objective, x0, SolverConfig(mode=solver))
    assert np.isfinite(objective.gradient(res.final_x)).all()
    assert res.termination == NON_FINITE and res.final_grad_norm == np.inf
    assert (res.iterations, res.f_evals, res.g_evals) == counts
    assert all(r.update_skipped for r in res.trace)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("scale, termination", [(1e290, NON_FINITE), (-1.0, SPD_FAILURE)],
                         ids=["overflowing-slope", "ascent-slope"])
def test_an_overflowing_slope_is_not_an_spd_failure(monkeypatch, solver, scale, termination):
    # 0.5 ||x||^2 from 1e10 (1, ..., 1) at n = 10, from H_0 = scale I, so
    # ||g|| = 3.16e10 is finite.  At scale 1e290, g'p = -g'Hg overflows to -inf:
    # an overflow, not an SPD failure.  At scale -1, g'p = g'g is finite and
    # positive: no descent direction, which stays an SPD failure
    monkeypatch.setattr(solvers, "_operator",
                        lambda n, cfg, two_phase: _DenseH(scale * np.eye(n)))
    objective = ObjectiveFunction("sphere", 10, lambda x: 0.5 * float(x @ x),
                                  lambda x: np.array(x, dtype=float), np.full(10, 1e10))
    res = solve(solver, objective)
    assert res.termination == termination
    assert (res.iterations, res.f_evals, res.g_evals) == (0, 1, 1)
    assert res.final_grad_norm == pytest.approx(math.sqrt(10) * 1e10)
