import warnings

import numpy as np
import pytest

from qnbench import ObjectiveFunction, lookup
from qnbench.linesearch import (
    ARMIJO_ONLY,
    EXHAUSTED,
    WOLFE,
    WOLFE_SATISFIED,
    DescentDirectionError,
    wolfe_search,
)

from _util import CountingObjective, diagonal_quadratic, sphere


class TestWolfeParams:
    def test_defaults(self):
        # WOLFE is the one configuration every search runs with
        assert (WOLFE.c1, WOLFE.c2, WOLFE.backtrack, WOLFE.max_trials) == (1e-4, 0.9, 0.5, 60)


def _scalar_objective(fun, grad):
    return ObjectiveFunction("scalar", 1, fun, grad, np.zeros(1))


class TestWolfeSearch:
    def test_unit_step_on_simple_quadratic(self):
        f = _scalar_objective(lambda x: 0.5 * x[0] ** 2, lambda x: x.copy())
        out = wolfe_search(f, np.array([1.0]), np.array([-1.0]), 0.5, np.array([1.0]))
        assert out.alpha == 1.0
        assert out.status == WOLFE_SATISFIED
        assert out.f_new == 0.0

    def test_backtracks_on_badly_scaled_quadratic(self):
        # f = 50 x^2 from x = 1 along p = -100: the first trial in the
        # halving sequence where both conditions hold is alpha = 2**-6
        # (Armijo holds iff alpha <= 0.019998, curvature iff alpha >= 0.001).
        f = _scalar_objective(lambda x: 50.0 * x[0] ** 2,
                              lambda x: np.array([100.0 * x[0]]))
        params = WOLFE
        # independent oracle over the trial sequence
        expected = None
        alpha = 1.0
        for _ in range(params.max_trials):
            x_new = 1.0 - 100.0 * alpha
            armijo = 50.0 * x_new**2 <= 50.0 + params.c1 * alpha * (-10000.0)
            curvature = 100.0 * x_new * (-100.0) >= params.c2 * (-10000.0)
            if armijo and curvature:
                expected = alpha
                break
            alpha *= params.backtrack
        assert expected == 2.0 ** -6

        out = wolfe_search(f, np.array([1.0]), np.array([-100.0]), 50.0,
                           np.array([100.0]))
        assert out.alpha == expected
        assert out.status == WOLFE_SATISFIED

    def test_non_descent_direction_rejected(self):
        f = sphere(2)
        x = np.array([1.0, 0.0])
        with pytest.raises(DescentDirectionError):
            wolfe_search(f, x, np.array([0.0, 1.0]), 0.5, f.gradient(x))  # g'p = 0

    def test_ascent_direction_rejected(self):
        f = sphere(2)
        x = np.array([1.0, 0.0])
        with pytest.raises(DescentDirectionError):
            wolfe_search(f, x, np.array([1.0, 0.0]), 0.5, f.gradient(x))

    def test_accepted_step_satisfies_both_inequalities(self):
        params = WOLFE
        for name in ("Hager", "EDENSCH", "Extended Beale"):
            obj = lookup(name).objective
            rng = np.random.default_rng(hash(name) % 2**32)
            for _ in range(5):
                x = obj.standard_start + 0.2 * rng.standard_normal(obj.dimension)
                g = obj.gradient(x)
                if np.linalg.norm(g) < 1e-10:
                    continue
                p = -g
                f_x = obj.evaluate(x)
                out = wolfe_search(obj, x, p, f_x, g)
                if out.status != WOLFE_SATISFIED:
                    continue
                slope = float(g @ p)
                f_new = obj.evaluate(x + out.alpha * p)
                g_new = obj.gradient(x + out.alpha * p)
                assert f_new <= f_x + params.c1 * out.alpha * slope
                assert float(g_new @ p) >= params.c2 * slope
                assert out.f_new == f_new
                assert np.array_equal(out.grad_new, g_new)

    def test_descent_whenever_not_exhausted(self):
        obj = lookup("Fletcher").objective
        rng = np.random.default_rng(77)
        for _ in range(10):
            x = obj.standard_start + rng.standard_normal(obj.dimension)
            g = obj.gradient(x)
            p = -g
            f_x = obj.evaluate(x)
            out = wolfe_search(obj, x, p, f_x, g)
            if out.status != EXHAUSTED:
                assert out.f_new < f_x

    def test_counters_match_evaluator_calls(self):
        counted = CountingObjective(lookup("Quadratic QF2").objective)
        x = counted._objective.standard_start
        g = counted._objective.gradient(x)
        f_x = counted._objective.evaluate(x)
        out = wolfe_search(counted, x, -g, f_x, g)
        assert out.f_evals == counted.f_calls
        assert out.g_evals == counted.g_calls

    def test_unit_step_when_exact_minimizer_at_one(self):
        # p = -g scaled so the exact minimizing step along p equals 1
        f = diagonal_quadratic([1.0, 4.0, 9.0], [1.0, 1.0, 1.0])
        x = f.standard_start
        g = f.gradient(x)
        hess_p = lambda v: np.array([1.0, 4.0, 9.0]) * v
        p = -g * (float(g @ g) / float(g @ hess_p(g)))
        counted = CountingObjective(f)
        out = wolfe_search(counted, x, p, f.evaluate(x), g)
        assert out.alpha == 1.0
        assert out.status == WOLFE_SATISFIED
        assert counted.f_calls == 1 and counted.g_calls == 1

    def test_exhausted_when_armijo_never_holds(self):
        # claimed slope is negative but f increases along p: Armijo fails at
        # every trial and no gradient is ever evaluated
        f = _scalar_objective(lambda x: float(x[0]), lambda x: np.ones(1))
        out = wolfe_search(f, np.zeros(1), np.array([1.0]), 0.0, np.array([-1.0]))
        assert out.status == EXHAUSTED
        assert out.grad_new is None
        assert out.g_evals == 0
        assert out.alpha > 0.0

    def test_armijo_only_returns_largest_passing_step(self):
        # linear descent: Armijo holds at every alpha, curvature never does
        f = _scalar_objective(lambda x: -float(x[0]), lambda x: np.array([-1.0]))
        out = wolfe_search(f, np.zeros(1), np.array([1.0]), 0.0, np.array([-1.0]))
        assert out.status == ARMIJO_ONLY
        assert out.alpha == 1.0  # first (largest) Armijo-passing trial
        assert out.f_new == -1.0

    def test_overflowing_trial_contracts_instead_of_raising(self):
        f = _scalar_objective(lambda x: float(np.exp(x[0]) - 2.0 * x[0]),
                              lambda x: np.exp(x) - 2.0)
        x = np.zeros(1)
        out = wolfe_search(f, x, np.array([2000.0]), 1.0, np.array([-1.0]))
        assert out.status == WOLFE_SATISFIED
        assert np.isfinite(out.f_new)
        assert out.alpha < 1.0

    def test_alpha_never_exceeds_one(self):
        obj = lookup("Raydan2").objective
        x = obj.standard_start
        g = obj.gradient(x)
        out = wolfe_search(obj, x, -0.01 * g, obj.evaluate(x), g)
        assert out.alpha <= 1.0


def test_second_armijo_only_trial_ends_the_search():
    # linear descent: the unit step passes Armijo and fails curvature, and so
    # does the half step, which ends the search with the unit step
    counted = CountingObjective(
        _scalar_objective(lambda x: -float(x[0]), lambda x: np.array([-1.0])))
    out = wolfe_search(counted, np.zeros(1), np.array([1.0]), 0.0, np.array([-1.0]))
    assert out.status == ARMIJO_ONLY
    assert out.alpha == 1.0
    assert (out.f_evals, out.g_evals) == (2, 2)
    assert (counted.f_calls, counted.g_calls) == (2, 2)


def test_armijo_failure_after_armijo_only_trial_keeps_searching():
    # HIMMELH from its standard start along -g: the unit step passes Armijo
    # and fails curvature, 1/2 fails Armijo, and 1/4 satisfies both
    obj = lookup("HIMMELH").objective
    x = obj.standard_start
    g = obj.gradient(x)
    counted = CountingObjective(obj)
    out = wolfe_search(counted, x, -g, obj.evaluate(x), g)
    assert out.status == WOLFE_SATISFIED
    assert out.alpha == 0.25
    assert (out.f_evals, out.g_evals) == (3, 2)
    assert (counted.f_calls, counted.g_calls) == (3, 2)


class _RecordingObjective:
    """Delegating wrapper that keeps every array it is called with."""

    def __init__(self, objective):
        self._objective = objective
        self.evaluated = []
        self.differentiated = []  # (array, whether it is the last evaluated one)

    def evaluate(self, x):
        self.evaluated.append(x)
        return self._objective.evaluate(x)

    def gradient(self, x):
        self.differentiated.append((x, x is self.evaluated[-1]))
        return self._objective.gradient(x)


@pytest.mark.parametrize("name", ["HIMMELH", "Extended Beale", "Fletcher", "Diagonal 9"])
def test_gradient_receives_the_evaluated_trial_point(name):
    # each trial point x + alpha p is built once: a trial that passes Armijo
    # has its gradient taken at the very array its value was taken at
    obj = lookup(name).objective
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = obj.standard_start + 0.5 * rng.standard_normal(obj.dimension)
        g = obj.gradient(x)
        recorded = _RecordingObjective(obj)
        out = wolfe_search(recorded, x, -g, obj.evaluate(x), g)
        assert out.f_evals == len(recorded.evaluated)
        assert out.g_evals == len(recorded.differentiated)
        assert all(same for _, same in recorded.differentiated)
        alphas = WOLFE.backtrack ** np.arange(out.f_evals)
        for alpha, trial in zip(alphas, recorded.evaluated):
            assert np.array_equal(trial, x + alpha * -g)


def test_one_errstate_covers_the_trial_values_and_gradients():
    # 0.5 x^2 from x = -1 along p = 4.  At alpha = 1 the value overflows, at
    # 1/2 Armijo fails, at 1/4 Armijo holds but the gradient is NaN, and 1/8
    # satisfies both conditions.  Neither non-finite evaluation may escape
    # the search as a RuntimeWarning.
    def fun(x):
        return float(np.exp(1000.0)) if x[0] > 1.0 else 0.5 * float(x @ x)

    def grad(x):
        return np.full(1, np.inf) - np.inf if x[0] > -0.1 else x.copy()

    f = _scalar_objective(fun, grad)
    with pytest.warns(RuntimeWarning, match="overflow"):
        fun(np.array([3.0]))
    with pytest.warns(RuntimeWarning, match="invalid"):
        grad(np.array([0.0]))
    x = np.array([-1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = wolfe_search(f, x, np.array([4.0]), fun(x), grad(x))
    assert out.status == WOLFE_SATISFIED
    assert out.alpha == 0.125
    assert (out.f_evals, out.g_evals) == (4, 2)
