import re

import numpy as np
import pytest

from qnbench import ObjectiveFunction, check_gradient, lookup, suite
from qnbench.objectives import FD_STEP, default_check_points, fd_gradient

from _util import (WRONG_GRADIENT_IDS, WRONG_GRADIENT_SHAPES, fd_gradient_fresh_steps, sphere,
                   sum_with_gradient_shape)


def _objective(name, n, fun, grad, start=None):
    start = np.zeros(n) if start is None else start
    return ObjectiveFunction(name, n, fun, grad, start)


QUADRATIC = _objective(
    "half-norm", 2,
    lambda x: 0.5 * float(np.dot(x, x)),
    lambda x: np.asarray(x, float).copy(),
)
PRODUCT = _objective(
    "product", 2,
    lambda x: float(x[0] * x[1]),
    lambda x: np.array([x[1], x[0]]),
)
CONSTANT = _objective(
    "constant", 3,
    lambda x: 4.0,
    lambda x: np.zeros(3),
)


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(QUADRATIC, np.array([1.0, 2.0]))
        assert np.allclose(g, [1.0, 2.0], atol=1e-9)

    def test_product_rule(self):
        g = fd_gradient(PRODUCT, np.array([3.0, 4.0]))
        assert np.allclose(g, [4.0, 3.0], atol=1e-8)

    def test_constant(self):
        g = fd_gradient(CONSTANT, np.array([0.3, -0.2, 5.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_non_finite_probe_raises(self):
        bad = _objective("bad", 1, lambda x: float("nan"), lambda x: np.zeros(1))
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(bad, np.zeros(1))

    @pytest.mark.parametrize("shape", [(3,), (10, 1)], ids=["short", "column"])
    def test_a_point_of_another_shape_raises_before_any_evaluation(self, shape):
        # a (3,) point would give a 3-vector of zeros, and a (10, 1) point a
        # TypeError from the probe loop
        f = lookup("Raydan2").objective
        calls = []
        counted = ObjectiveFunction(f.name, f.dimension, lambda x: calls.append(1) or f.evaluate(x),
                                    f.gradient, f.standard_start)
        with pytest.raises(ValueError, match=re.escape(f"point has shape {shape}, expected (10,)")):
            fd_gradient(counted, np.ones(shape))
        assert calls == []


class TestFdGradientProbes:
    """``fd_gradient`` rewrites one probe array in place; its values must be
    the bits of the fresh-array form, and the caller's x must not change."""

    def test_bit_identical_to_fresh_steps_on_the_suite(self):
        for problem in suite():
            for k, x in enumerate(default_check_points(problem.objective)):
                assert (fd_gradient(problem.objective, x).tobytes()
                        == fd_gradient_fresh_steps(problem.objective, x).tobytes()), (
                    problem.name, k)

    def test_bit_identical_to_fresh_steps_at_n_1000(self):
        n = 1000
        weights = np.linspace(1.0, 2.0, n)

        def evaluate(x):
            return float(np.dot(weights, np.exp(x) - x) + 0.5 * np.sum(np.diff(x) ** 2))

        # fd_gradient never calls the gradient
        chained = _objective("chained", n, evaluate, None, np.linspace(-1.0, 1.0, n))
        for k, x in enumerate(default_check_points(chained)):
            assert (fd_gradient(chained, x).tobytes()
                    == fd_gradient_fresh_steps(chained, x).tobytes()), k

    def test_probes_are_x_plus_minus_h_e_i_and_x_is_left_alone(self):
        # the -0.0 keeps its sign in the probes of the other coordinates
        x = np.array([0.3, -0.0, 2.5])
        before = x.tobytes()
        seen = []

        def recording(p):
            seen.append(p.copy())
            return float(np.sum(p ** 2))

        fd_gradient(_objective("recording", 3, recording, lambda p: 2.0 * p), x)
        assert x.tobytes() == before
        expected = []
        for i in range(x.size):
            for sign in (1.0, -1.0):
                e = x.copy()
                e[i] = x[i] + sign * FD_STEP
                expected.append(e.tobytes())
        assert [p.tobytes() for p in seen] == expected

    def test_x_is_left_alone_when_evaluate_raises_mid_probe(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.tobytes()
        calls = []

        def failing(p):
            calls.append(None)
            if len(calls) == 4:  # coordinate 1's minus probe
                raise ZeroDivisionError("mid-probe")
            return float(np.sum(p))

        with pytest.raises(ZeroDivisionError):
            fd_gradient(_objective("failing", 3, failing, np.ones_like), x)
        assert x.tobytes() == before


class TestCheckGradient:
    def test_correct_gradient_passes(self):
        report = check_gradient(QUADRATIC, [np.array([1.0, 2.0]), np.array([-3.0, 0.5])])
        assert report.max_rel_error <= 1e-7
        assert report.passed
        assert report.probe_points == 2

    def test_sign_flip_detected(self):
        flipped = _objective(
            "flipped", 2,
            QUADRATIC.evaluate,
            lambda x: -np.asarray(x, float),
        )
        report = check_gradient(flipped, [np.array([3.0, 4.0])])
        # error is 2 ||g|| / max(1, ||g||) = 2 when ||g|| >= 1
        assert report.max_rel_error == pytest.approx(2.0, rel=1e-6)
        assert not report.passed

    def test_constant_single_point(self):
        report = check_gradient(CONSTANT, [np.zeros(3)])
        assert report.max_rel_error == 0.0
        assert report.worst_coordinate == 0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            check_gradient(QUADRATIC, [])

    def test_non_finite_analytic_gradient_raises(self):
        bad = _objective("badgrad", 2, QUADRATIC.evaluate,
                         lambda x: np.array([np.inf, 0.0]))
        with pytest.raises(ValueError, match="analytic"):
            check_gradient(bad, [np.ones(2)])

    @pytest.mark.parametrize("n, shape", WRONG_GRADIENT_SHAPES, ids=WRONG_GRADIENT_IDS)
    def test_gradient_of_the_wrong_shape_raises(self, n, shape):
        # broadcasting would compare ones(shape) with the central differences
        # ones(n) and report no error at all
        with pytest.raises(ValueError, match=re.escape(
                f"sum: gradient has shape {shape}, expected ({n},)")):
            check_gradient(sum_with_gradient_shape(n, shape), [np.zeros(n)])

    @pytest.mark.parametrize("shape", [(3,), (10, 1), ()])
    def test_check_point_of_the_wrong_shape_rejected(self, shape):
        # a (3,) point was reported as a gradient of the wrong shape, and a
        # (10, 1) one failed inside the central differences
        f = lookup("Raydan2").objective
        calls = []
        counted = _objective(f.name, f.dimension, lambda x: calls.append(None) or f.evaluate(x),
                             f.gradient)
        with pytest.raises(ValueError, match=re.escape(
                f"Raydan2: check point 1 has shape {shape}, expected (10,)")):
            check_gradient(counted, [f.standard_start, np.zeros(shape)])
        assert calls == []

    def test_worst_coordinate_identified(self):
        # gradient wrong only in coordinate 1
        skew = _objective(
            "skew", 3,
            lambda x: 0.5 * float(np.dot(x, x)),
            lambda x: np.asarray(x, float) + np.array([0.0, 10.0, 0.0]),
        )
        report = check_gradient(skew, [np.array([1.0, 1.0, 1.0])])
        assert report.worst_coordinate == 1


class TestObjectiveFunction:
    def test_start_shape_validated(self):
        with pytest.raises(ValueError):
            ObjectiveFunction("wrong", 3, lambda x: 0.0, lambda x: np.zeros(3), np.ones(2))

    def test_start_must_be_finite(self):
        with pytest.raises(ValueError):
            ObjectiveFunction("inf", 2, lambda x: 0.0, lambda x: np.zeros(2),
                              np.array([1.0, np.inf]))


def test_default_check_points_deterministic():
    f = sphere(4)
    first = default_check_points(f)
    second = default_check_points(f)
    assert len(first) == 6
    assert np.array_equal(first[0], f.standard_start)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
