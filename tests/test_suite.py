import csv
import io
import math

import numpy as np
import pytest

from qnbench import CONVERGED, UnknownProblemError, check_gradient, lookup, suite
from qnbench.objectives import default_check_points
from qnbench.suite import manifest_csv

from _util import at_n

EXPECTED_ORDER = [
    "Almost Perturbed Quadratic", "ARWHEAD", "BIGGSB1", "Diagonal 1",
    "Diagonal 2", "Diagonal 3", "Diagonal 7", "Diagonal 9", "DIXMAANL",
    "DQDRTIC", "EDENSCH", "ENGVAL1", "Extended Beale", "Extended DENSCHNB",
    "Extended Freudenstein and Roth", "Extended PSC1", "Extended Tridiagonal 1",
    "Extended Tridiagonal 2", "Fletcher", "Generalized PSC1", "Hager",
    "HIMMELH", "Partial Perturbed Quadratic", "Perturbed Quadratic Diagonal",
    "Perturbed Tridiagonal Quadratic", "Quadratic QF1", "Quadratic QF2",
    "Raydan1", "Raydan2", "Tridia",
]


class TestRegistry:
    def test_thirty_problems_in_order(self):
        assert [p.name for p in suite()] == EXPECTED_ORDER

    def test_all_dimension_ten(self):
        assert all(p.objective.dimension == 10 for p in suite())

    def test_reference_counts_positive(self):
        for p in suite():
            assert p.table_bfgs_iters >= 1
            assert p.table_twophase_iters >= 1

    def test_reference_counts_favor_two_phase_on_27_rows(self):
        # consistency anchor for the profile fixtures: 24 strict two-phase
        # wins + 3 ties, BFGS strictly better on exactly 3 rows
        rows = [(p.table_bfgs_iters, p.table_twophase_iters) for p in suite()]
        two_phase_best = sum(1 for b, t in rows if t <= b)
        bfgs_best = sum(1 for b, t in rows if b <= t)
        ties = sum(1 for b, t in rows if b == t)
        assert two_phase_best == 27
        assert bfgs_best == 6
        assert ties == 3
        bfgs_strict = {p.name for p in suite()
                       if p.table_bfgs_iters < p.table_twophase_iters}
        assert bfgs_strict == {"Diagonal 7", "DQDRTIC", "Tridia"}
        tied = {p.name for p in suite()
                if p.table_bfgs_iters == p.table_twophase_iters}
        assert tied == {"ARWHEAD", "Extended DENSCHNB", "Partial Perturbed Quadratic"}


class TestLookup:
    def test_exact_name(self):
        p = lookup("Hager")
        assert (p.table_bfgs_iters, p.table_twophase_iters) == (17, 8)

    def test_case_insensitive(self):
        p = lookup("quadratic qf1")
        assert (p.table_bfgs_iters, p.table_twophase_iters) == (16, 11)

    def test_punctuation_insensitive(self):
        assert lookup("extended-freudenstein-and-roth").name == "Extended Freudenstein and Roth"
        assert lookup("DIX MAANL").name == "DIXMAANL"

    def test_unknown_name_with_suggestions(self):
        with pytest.raises(UnknownProblemError) as err:
            lookup("QF3")
        assert isinstance(err.value.suggestions, list)


class TestValues:
    def test_arwhead_start_value(self):
        p = lookup("ARWHEAD")
        assert p.objective.evaluate(p.objective.standard_start) == 27.0

    def test_arwhead_optimum(self):
        p = lookup("ARWHEAD")
        assert p.known_optimum.f == 0.0
        expected = np.concatenate([np.ones(9), [0.0]])
        assert np.array_equal(p.known_optimum.x, expected)

    def test_raydan2_start_and_optimum(self):
        p = lookup("Raydan2")
        start_value = p.objective.evaluate(p.objective.standard_start)
        assert start_value == pytest.approx(10.0 * (math.e - 1.0), rel=1e-12)
        assert np.array_equal(p.known_optimum.x, np.zeros(10))
        assert p.known_optimum.f == pytest.approx(10.0, rel=0, abs=0)

    def test_known_optima_are_stationary(self):
        for p in suite():
            if p.known_optimum is None:
                continue
            grad = p.objective.gradient(p.known_optimum.x)
            assert np.linalg.norm(grad) <= 1e-8, p.name
            value = p.objective.evaluate(p.known_optimum.x)
            assert abs(value - p.known_optimum.f) <= 1e-10, p.name

    @pytest.mark.parametrize("n", [30, 300, 1000])
    @pytest.mark.parametrize("name, optimum", [  # closed-form (x*, f*) over i = 1 .. n
        ("Hager",
         lambda i: (0.5 * np.log(i), float(np.sum(np.sqrt(i) * (1.0 - 0.5 * np.log(i)))))),
        ("Perturbed Quadratic Diagonal", lambda i: (np.zeros(i.size), 0.0)),
        ("Raydan2", lambda i: (np.zeros(i.size), float(i.size))),
    ], ids=["hager", "pqd", "raydan2"])
    def test_any_n_optima_are_stationary(self, name, optimum, n):
        problem = at_n(name, n)
        x_star, f_star = optimum(np.arange(1.0, n + 1.0))
        assert np.linalg.norm(problem.objective.gradient(x_star)) <= 1e-8
        assert abs(problem.objective.evaluate(x_star) - f_star) <= 1e-10
        assert abs(problem.known_optimum.f - f_star) <= 1e-10

    @pytest.mark.parametrize("n", [4, 12, 100])
    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_every_problem_holds_at_other_n(self, name, n):
        # the gate that suite() applies at n = 10, and a recorded optimum
        # that is stationary
        problem = at_n(name, n)
        objective = problem.objective
        report = check_gradient(objective, default_check_points(objective))
        assert report.passed, f"rel error {report.max_rel_error:.3e}"
        if problem.known_optimum is not None:
            assert np.linalg.norm(objective.gradient(problem.known_optimum.x)) <= 1e-8


class TestGradientGate:
    def test_every_function_passes_central_difference_check(self):
        for p in suite():
            report = check_gradient(p.objective, default_check_points(p.objective))
            assert report.passed, f"{p.name}: rel error {report.max_rel_error:.3e}"
            assert report.probe_points == 6


class TestObjectiveContract:
    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_calls_neither_write_nor_keep_their_point(self, name):
        objective = lookup(name).objective
        for point in default_check_points(objective):
            x = point.copy()  # the first point is the suite's own start
            x.flags.writeable = False
            objective.evaluate(x)
            g = objective.gradient(x)
            assert x.tobytes() == point.tobytes()
            assert g.flags.writeable
            assert not np.shares_memory(g, x)


class TestConvergenceGate:
    def test_both_solvers_converge_everywhere(self, default_runs):
        for p in suite():
            for solver in ("bfgs", "two-phase"):
                res = default_runs[(p.name, solver)]
                assert res.termination == CONVERGED, f"{p.name}/{solver}"
                assert res.final_grad_norm <= 1e-6
                assert res.iterations <= 500


class TestManifest:
    def test_csv_shape_and_values(self):
        text = manifest_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 30
        assert [r["name"] for r in rows] == EXPECTED_ORDER
        arwhead = next(r for r in rows if r["name"] == "ARWHEAD")
        assert int(arwhead["dimension"]) == 10
        assert float(arwhead["f_start"]) == 27.0
        assert int(arwhead["table_bfgs_iters"]) == 7
        assert int(arwhead["table_twophase_iters"]) == 7
