import math
import re

import numpy as np
import pytest

from qnbench import (
    IterateRecord,
    SolverConfig,
    diagnose_run,
    lookup,
    psi,
    solve_two_phase,
    superlinear_ratio_series,
)
from qnbench.diagnostics import direction_quality
from qnbench.solvers import MODE_B_FORM, MODE_H_FORM_LITERAL
from qnbench.linalg import SPDError

from _util import make_spd, quadratic_hessian, replay


class TestPsi:
    def test_identity(self):
        assert psi(np.eye(3)) == 3.0

    def test_diagonal(self):
        assert psi(np.diag([2.0, 2.0])) == pytest.approx(4.0 - math.log(4.0), rel=1e-12)

    def test_log_cancellation(self):
        assert psi(np.diag([math.e, 1.0])) == pytest.approx(math.e, rel=1e-12)

    def test_requires_spd(self):
        with pytest.raises(SPDError):
            psi(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_minimum_at_identity(self):
        rng = np.random.default_rng(21)
        for n in (2, 5, 10):
            for _ in range(20):
                value = psi(make_spd(rng, n))
                assert value >= n  # each eigenvalue contributes at least 1
                assert value > 0.0


def _fake_trace(points):
    # rows x, g, p, as a BFGS iteration's values, with f = 0, psi_next = n
    # and one NaN cell in the last column
    def values(x):
        n = len(x)
        return np.column_stack(((x, np.ones(n), np.zeros(n)), (0.0, n, math.nan)))

    return [IterateRecord(values(x), None, 1.0, False, None, "wolfe_satisfied")
            for x in points]


class TestSuperlinearRatios:
    def test_geometric_sequence(self):
        trace = _fake_trace([[2.0 ** -k] for k in range(8)])
        ratios = superlinear_ratio_series(trace, np.zeros(1))
        assert ratios == pytest.approx([0.5] * 7)

    def test_quadratically_convergent_sequence(self):
        points = [[2.0 ** -(2 ** k)] for k in range(6)]
        ratios = superlinear_ratio_series(_fake_trace(points), np.zeros(1))
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == 2.0 ** -16

    def test_final_iterate_extends_series(self):
        trace = _fake_trace([[1.0], [0.5]])
        short = superlinear_ratio_series(trace, np.zeros(1))
        extended = superlinear_ratio_series(trace, np.zeros(1), final_x=np.array([0.1]))
        assert len(extended) == len(short) + 1
        assert extended[-1] == pytest.approx(0.2)

    def test_underflowing_denominators_dropped(self):
        trace = _fake_trace([[1.0], [1e-14], [1e-15]])
        ratios = superlinear_ratio_series(trace, np.zeros(1))
        assert len(ratios) == 1  # only the 1.0 -> 1e-14 ratio survives

    @pytest.mark.parametrize("shape", [(1,), (5,), (10, 1)])
    def test_x_star_of_the_wrong_shape_rejected(self, shape):
        # a (1,) x_star would broadcast against every iterate and give ratios
        p = lookup("Raydan2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        with pytest.raises(ValueError, match=re.escape(
                f"x_star has shape {shape}, expected (10,)")):
            superlinear_ratio_series(res.trace, np.zeros(shape), res.final_x)

    def test_two_phase_run_on_qf1_ends_superlinearly(self):
        p = lookup("Quadratic QF1")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        ratios = superlinear_ratio_series(res.trace, p.known_optimum.x, res.final_x)
        last3 = ratios[-3:]
        assert all(b < a for a, b in zip(last3, last3[1:]))
        assert last3[-1] <= 0.1


class TestDirectionQuality:
    # each case gives the gradient g = -B p of the operator B it names

    def test_zero_when_operator_matches(self):
        hess = np.diag([2.0, 5.0])
        p = np.array([0.3, -0.4])
        assert direction_quality(-hess @ p, hess, p) == 0.0

    def test_scaled_identity(self):
        p = np.array([0.6, 0.8])  # unit vector
        assert direction_quality(-2.0 * p, np.eye(2), p) == pytest.approx(1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            direction_quality(np.zeros(2), np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("g, hess_star, p_bar, name", [
        (np.ones(10), np.eye(5), np.ones(10), "hess_star"),
        (np.ones(3), np.eye(10), np.ones(10), "g"),
        (np.ones((10, 1)), np.eye(10), np.ones(10), "g"),
        (np.ones(10), np.eye(10), np.ones((10, 1)), "p_bar"),
    ], ids=["hess_star-order-5", "g-short", "g-column", "p_bar-column"])
    def test_a_wrong_shape_is_named(self, g, hess_star, p_bar, name):
        # each would broadcast, or fail inside numpy with a message that names
        # no argument
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            direction_quality(g, hess_star, p_bar)

    def test_eventually_decreasing_on_quadratic(self):
        p = lookup("Quadratic QF1")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        hess = quadratic_hessian(p.objective)
        series = [direction_quality(r.g, hess, r.p_bar) for r in res.trace]
        assert series[-1] <= 0.5 * series[0]


class TestDiagnoseRun:
    def test_series_shapes_and_positivity(self):
        p = lookup("Tridia")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        diag = diagnose_run(res, p.known_optimum.x, quadratic_hessian(p.objective))
        assert len(diag.psi_series) == res.iterations + 1
        assert all(v > 0.0 for v in diag.psi_series)
        assert len(diag.dir_quality) == res.iterations
        assert len(diag.assumption2_flags) == res.iterations
        assert 0 < len(diag.q_ratios) <= res.iterations

    def test_direction_quality_agrees_across_modes(self):
        # both modes record g and p_bar, so the literal H form reproduces
        # b_form's series
        p = lookup("Tridia")
        hess = quadratic_hessian(p.objective)
        series = {}
        for mode in (MODE_B_FORM, MODE_H_FORM_LITERAL):
            res = solve_two_phase(p.objective, p.objective.standard_start,
                                  SolverConfig(mode=mode))
            series[mode] = diagnose_run(res, p.known_optimum.x, hess).dir_quality
        b_form, h_form = series[MODE_B_FORM], series[MODE_H_FORM_LITERAL]
        assert len(b_form) == len(h_form) > 0
        assert h_form == pytest.approx(b_form, rel=1e-8)

    def test_quartile_minimum_on_strongly_convex_quadratics(self):
        # asymptotic regime needs a tight run; the benchmark tolerance stops
        # before superlinear onset is visible on the stiffest quadratic
        cfg = SolverConfig(tol=1e-10)
        for name in ("DQDRTIC", "Quadratic QF1", "Tridia"):
            p = lookup(name)
            res = solve_two_phase(p.objective, p.objective.standard_start, cfg)
            diag = diagnose_run(res, p.known_optimum.x)
            q = diag.q_ratios
            argmin = int(np.argmin(q))
            assert argmin >= 0.75 * (len(q) - 1), name
            assert q[-1] <= 0.1, name

    @pytest.mark.parametrize("shape", [(1,), (5,), (10, 1)])
    def test_x_star_of_the_wrong_shape_rejected(self, shape):
        p = lookup("Raydan2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        with pytest.raises(ValueError, match=re.escape(
                f"x_star has shape {shape}, expected (10,)")):
            diagnose_run(res, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(5, 5), (10,), (10, 11)])
    def test_hess_star_of_the_wrong_shape_rejected(self, shape):
        p = lookup("Raydan2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        with pytest.raises(ValueError, match=re.escape(
                f"hess_star has shape {shape}, expected (10, 10)")):
            diagnose_run(res, p.known_optimum.x, np.zeros(shape))

    def test_without_hessian_no_direction_series(self):
        p = lookup("Raydan2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        diag = diagnose_run(res, p.known_optimum.x)
        assert diag.dir_quality == []

    @pytest.mark.parametrize("mode", [MODE_B_FORM, MODE_H_FORM_LITERAL])
    @pytest.mark.parametrize("name", ["Tridia", "Quadratic QF1", "DQDRTIC"])
    def test_direction_quality_is_that_of_the_replayed_operator(self, name, mode):
        # a default run keeps no operator; its g-based series matches
        # ||(B - G*) p_bar|| / ||p_bar|| with B rebuilt by the replay
        p = lookup(name)
        cfg = SolverConfig(mode=mode)
        res = solve_two_phase(p.objective, p.objective.standard_start, cfg)
        hess = quadratic_hessian(p.objective)
        dir_quality = diagnose_run(res, p.known_optimum.x, hess).dir_quality
        assert len(dir_quality) == res.iterations > 0
        steps = replay(p.objective, res, cfg, "two-phase")
        for value, r, (_, _, B, _) in zip(dir_quality, res.trace, steps):
            expected = np.linalg.norm((B - hess) @ r.p_bar) / np.linalg.norm(r.p_bar)
            assert value == pytest.approx(expected, rel=1e-12), name

    def test_psi_positive_across_every_suite_run(self, default_runs):
        # psi of an SPD operator is at least the matrix order
        for (name, solver), res in default_runs.items():
            if solver != "two-phase":
                continue
            for _, _, B, B_next in replay(lookup(name).objective, res, SolverConfig(), solver):
                assert psi(B) >= 10.0 and psi(B_next) >= 10.0, name
