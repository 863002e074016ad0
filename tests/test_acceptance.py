"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from qnbench import (
    SolverConfig,
    check_gradient,
    diagnose_run,
    lookup,
    solve_two_phase,
    suite,
)
from qnbench.bench import dolan_more, emit_table, run_suite, table_fixture_records
from qnbench.linalg import cholesky
from qnbench.linesearch import WOLFE, WOLFE_SATISFIED
from qnbench.objectives import default_check_points
from qnbench.solvers import (MODE_H_FORM_LITERAL, bfgs_update_B, bfgs_update_H,
                             two_phase_combine)

from _util import at_n, curvature_pair, iterate_sequence, make_spd, quadratic_hessian


@pytest.fixture(scope="module")
def bench_run():
    """One timed pass of the full benchmark at the published defaults."""
    collected = {}
    start = time.perf_counter()
    records = run_suite(runs=1, results=collected)
    elapsed = time.perf_counter() - start
    return records, collected, elapsed


def test_criterion_1_convergence_coverage(bench_run):
    records, _, elapsed = bench_run
    assert len(records) == 60
    for record in records:
        assert record.converged, f"{record.problem}/{record.solver} did not converge"
        assert record.grad_norm_final <= 1e-6
        assert record.iterations <= 500
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS — both solvers converged on all 30 problems "
          f"in {elapsed:.2f}s (< 10s)")


def test_criterion_2_directional_reproduction(bench_run):
    records, _, _ = bench_run
    by_key = {(r.problem, r.solver): r for r in records}
    at_most = sum(
        1 for p in suite()
        if by_key[(p.name, "two-phase")].iterations <= by_key[(p.name, "bfgs")].iterations
    )
    total = len(suite())
    print("\n" + emit_table(records))
    assert at_most >= total / 2, f"two-phase <= bfgs on only {at_most}/{total}"
    print(f"ACCEPTANCE 2: PASS — two-phase took <= BFGS iterations on "
          f"{at_most}/{total} problems (>= 50% required)")


def test_criterion_3_profile_generator_exactness():
    curves = {c.solver: c for c in dolan_more(table_fixture_records())}
    p_two = dict(curves["two-phase"].points)[1.0]
    p_bfgs = dict(curves["bfgs"].points)[1.0]
    assert p_two == 0.9
    assert p_bfgs == 0.2
    hager = lookup("Hager")
    assert hager.table_bfgs_iters / hager.table_twophase_iters == 2.125
    print("\nACCEPTANCE 3: PASS — fixture profiles give P_twophase(1)=0.9, "
          "P_bfgs(1)=0.2, Hager BFGS ratio 2.125 exactly")


def test_criterion_4_update_identity_suite():
    rng = np.random.default_rng(20240817)
    sizes = (2, 5, 10)
    start = time.perf_counter()
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        B = make_spd(rng, n)
        s, y = curvature_pair(rng, n)
        lam = rng.uniform(0.05, 0.95)

        B_bar = bfgs_update_B(B, s, y)
        assert np.linalg.norm(B_bar @ s - y) <= 1e-10 * np.linalg.norm(y)

        H = make_spd(rng, n)
        H_bar = bfgs_update_H(H, s, y)
        assert np.linalg.norm(H_bar @ y - s) <= 1e-10 * np.linalg.norm(s)

        combined = two_phase_combine(B, B_bar, lam)
        cholesky(combined)  # SPD preserved

        Bs = B @ s
        sBs = float(s @ Bs)
        sy = float(s @ y)
        trace_pred = (np.trace(B) - (1 - lam) * float(Bs @ Bs) / sBs
                      + (1 - lam) * float(y @ y) / sy)
        assert abs(np.trace(combined) - trace_pred) <= 1e-8 * abs(trace_pred)

        det_pred = np.linalg.det(B) * (
            lam
            + lam * (1 - lam) * float(y @ np.linalg.solve(B, y)) / sy
            + (1 - lam) ** 2 * sy**2 / (sBs * sy)
        )
        assert abs(np.linalg.det(combined) - det_pred) <= 1e-8 * abs(det_pred)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4: PASS — determinant/trace recurrences, secant "
          f"identities, and SPD preservation held on 1000 random triples "
          f"in {elapsed:.2f}s (< 5s)")


MODE_EQUIVALENCE_PROBLEMS = ("Quadratic QF1", "Raydan2", "Hager", "Tridia", "Diagonal 1")
# the oracle beyond the paper's n = 10, below COMPACT_MIN_N, so b_form is dense
MODE_EQUIVALENCE_SCALED = [at_n(name, n).objective
                           for name in ("Hager", "Raydan2", "Perturbed Quadratic Diagonal")
                           for n in (30, 60)]


def test_criterion_5_mode_equivalence_oracle():
    cfg_h = SolverConfig(mode=MODE_H_FORM_LITERAL)
    objectives = [lookup(name).objective for name in MODE_EQUIVALENCE_PROBLEMS]
    for objective in objectives + MODE_EQUIVALENCE_SCALED:
        name = objective.name
        res_b = solve_two_phase(objective, objective.standard_start)
        res_h = solve_two_phase(objective, objective.standard_start, cfg_h)
        assert res_b.iterations == res_h.iterations, name
        for xb, xh in zip(iterate_sequence(res_b), iterate_sequence(res_h)):
            assert np.max(np.abs(xb - xh)) <= 1e-6, name
    print(f"\nACCEPTANCE 5: PASS — b-form and literal h-form iterates agree "
          f"within 1e-6 per coordinate on {len(MODE_EQUIVALENCE_PROBLEMS)} problems at n = 10 "
          f"and {len(MODE_EQUIVALENCE_SCALED)} at n = 30 and 60")


def test_criterion_6_superlinear_diagnostics():
    # tight tolerance exposes the asymptotic regime the ratio test measures
    cfg = SolverConfig(tol=1e-10)
    for name in ("DQDRTIC", "Quadratic QF1", "Tridia"):
        problem = lookup(name)
        result = solve_two_phase(problem.objective, problem.objective.standard_start, cfg)
        hess = quadratic_hessian(problem.objective)
        diag = diagnose_run(result, problem.known_optimum.x, hess)
        assert diag.q_ratios[-1] <= 0.1, f"{name}: final ratio {diag.q_ratios[-1]:.3g}"
        assert all(v > 0.0 for v in diag.psi_series), name
        assert diag.dir_quality[-1] <= 0.5 * diag.dir_quality[0], name
    print("\nACCEPTANCE 6: PASS — final error ratio <= 0.1, psi > 0 throughout, "
          "and direction quality at least halved on the three convex quadratics")


def test_criterion_7_gradient_check_gate():
    for problem in suite():
        report = check_gradient(problem.objective, default_check_points(problem.objective))
        assert report.probe_points == 6
        assert report.passed, f"{problem.name}: {report.max_rel_error:.3e}"
    print("\nACCEPTANCE 7: PASS — all 30 functions pass the central-difference "
          "gate at the start point and 5 seeded perturbations")


def test_criterion_8_wolfe_reverification(bench_run):
    _, collected, _ = bench_run
    params = WOLFE
    checked = 0
    for (problem_name, _solver), result in collected.items():
        objective = lookup(problem_name).objective
        for record in result.trace:
            steps = []
            if record.status_bar == WOLFE_SATISFIED and record.p_bar is not None:
                steps.append((record.p_bar, record.alpha_bar))
            if record.status == WOLFE_SATISFIED and not record.update_skipped:
                steps.append((record.p, record.alpha))
            for p, alpha in steps:
                x = record.x
                f_x = objective.evaluate(x)
                g_x = objective.gradient(x)
                slope = float(g_x @ p)
                x_new = x + alpha * p
                assert objective.evaluate(x_new) <= f_x + params.c1 * alpha * slope, \
                    f"{problem_name}: Armijo violated on re-evaluation"
                assert float(objective.gradient(x_new) @ p) >= params.c2 * slope, \
                    f"{problem_name}: curvature violated on re-evaluation"
                checked += 1
    assert checked > 500  # a full bench run exercises many acceptances
    print(f"\nACCEPTANCE 8: PASS — {checked} accepted steps re-verified against "
          "both Wolfe inequalities with zero violations")
