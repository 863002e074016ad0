import tracemalloc

import numpy as np
import pytest

from qnbench import (
    CONVERGED,
    MAX_ITER,
    MODE_B_FORM,
    MODE_H_FORM_LITERAL,
    ObjectiveFunction,
    SolverConfig,
    lookup,
    psi,
    solve_bfgs,
    solve_two_phase,
    suite,
)
from qnbench.linalg import cholesky, inverse_spd
from qnbench.linesearch import wolfe_search
from qnbench.solvers import (
    CurvatureError,
    _TwoPhaseB,
    bfgs_update_B,
    bfgs_update_H,
    combine_H_literal,
    trace_to_csv,
    two_phase_combine,
)

from _util import curvature_pair, iterate_sequence, make_spd, sphere


class TestSolverConfig:
    def test_defaults_match_benchmark_constants(self):
        cfg = SolverConfig()
        assert cfg.lam == 0.5
        assert cfg.tol == 1e-6
        assert cfg.max_iter == 500
        assert (cfg.wolfe.c1, cfg.wolfe.c2, cfg.wolfe.backtrack) == (1e-4, 0.9, 0.5)
        assert cfg.mode == MODE_B_FORM

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam": 1.0}, {"tol": 0.0}, {"max_iter": 0},
        {"mode": "inverse"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestBfgsUpdateB:
    def test_noop_when_already_secant(self):
        e1 = np.array([1.0, 0.0])
        assert np.allclose(bfgs_update_B(np.eye(2), e1, e1), np.eye(2))

    def test_rank_two_terms(self):
        out = bfgs_update_B(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert np.allclose(out, np.diag([2.0, 1.0]))

    def test_curvature_violation(self):
        with pytest.raises(CurvatureError):
            bfgs_update_B(np.eye(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))

    def test_secant_and_spd_on_random_inputs(self):
        rng = np.random.default_rng(100)
        for n in (2, 5, 10):
            for _ in range(30):
                B = make_spd(rng, n)
                s, y = curvature_pair(rng, n)
                out = bfgs_update_B(B, s, y)
                assert np.array_equal(out, out.T)
                assert np.linalg.norm(out @ s - y) <= 1e-10 * max(1.0, np.linalg.norm(y))
                cholesky(out)  # SPD certification


class TestBfgsUpdateH:
    def test_noop_when_already_secant(self):
        e1 = np.array([1.0, 0.0])
        assert np.allclose(bfgs_update_H(np.eye(2), e1, e1), np.eye(2))

    def test_three_term_product(self):
        out = bfgs_update_H(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 1.0]))

    def test_curvature_violation(self):
        with pytest.raises(CurvatureError):
            bfgs_update_H(np.eye(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))

    def test_duality_with_b_update(self):
        rng = np.random.default_rng(200)
        for n in (2, 5, 10):
            H = make_spd(rng, n)
            s, y = curvature_pair(rng, n)
            product = bfgs_update_H(H, s, y) @ bfgs_update_B(inverse_spd(H), s, y)
            assert np.allclose(product, np.eye(n), atol=1e-8)

    def test_inverse_secant_on_random_inputs(self):
        rng = np.random.default_rng(300)
        for n in (2, 5, 10):
            for _ in range(30):
                H = make_spd(rng, n)
                s, y = curvature_pair(rng, n)
                out = bfgs_update_H(H, s, y)
                assert np.linalg.norm(out @ y - s) <= 1e-10 * max(1.0, np.linalg.norm(s))


class TestCombines:
    def test_convex_combination(self):
        out = two_phase_combine(np.diag([2.0, 1.0]), np.eye(2), 0.5)
        assert np.array_equal(out, np.diag([1.5, 1.0]))

    def test_idempotent_on_equal_inputs(self):
        a = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert np.allclose(two_phase_combine(a, a, 0.5), a)

    def test_scalar_case(self):
        out = two_phase_combine(np.array([[4.0]]), np.array([[8.0]]), 0.25)
        assert out[0, 0] == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            two_phase_combine(np.eye(2), np.eye(3), 0.5)

    def test_lam_bounds(self):
        with pytest.raises(ValueError):
            two_phase_combine(np.eye(2), np.eye(2), 1.0)

    def test_spd_preserved(self):
        rng = np.random.default_rng(400)
        for _ in range(20):
            combined = two_phase_combine(make_spd(rng, 6), make_spd(rng, 6), 0.5)
            cholesky(combined)

    def test_literal_identity(self):
        assert np.allclose(combine_H_literal(np.eye(3), np.eye(3), 0.5), np.eye(3))

    def test_literal_scalar_harmonic(self):
        out = combine_H_literal(np.array([[0.5]]), np.array([[0.25]]), 0.5)
        assert out[0, 0] == pytest.approx(1.0 / 3.0)

    def test_literal_agrees_with_b_form(self):
        rng = np.random.default_rng(500)
        for _ in range(10):
            H, H_bar = make_spd(rng, 5), make_spd(rng, 5)
            lam = rng.uniform(0.1, 0.9)
            literal = combine_H_literal(H, H_bar, lam)
            via_b = inverse_spd(two_phase_combine(inverse_spd(H), inverse_spd(H_bar), lam))
            assert np.max(np.abs(literal - via_b)) <= 1e-8 * np.max(np.abs(via_b))


class TestSolveBfgs:
    def test_sphere_in_one_iteration(self):
        f = sphere(10)
        res = solve_bfgs(f, f.standard_start)
        assert res.termination == CONVERGED
        assert res.iterations == 1
        assert np.array_equal(res.final_x, np.zeros(10))

    def test_hager_converges(self):
        p = lookup("Hager")
        res = solve_bfgs(p.objective, p.objective.standard_start)
        assert res.termination == CONVERGED
        assert res.final_grad_norm <= 1e-6
        # reference count is 17; exact agreement is not required
        assert res.iterations <= 500

    def test_iteration_cap_binds(self):
        p = lookup("Fletcher")
        res = solve_bfgs(p.objective, p.objective.standard_start,
                         SolverConfig(max_iter=1))
        assert res.termination == MAX_ITER
        assert res.iterations == 1

    def test_already_converged_start(self):
        f = sphere(4)
        res = solve_bfgs(f, np.zeros(4))
        assert res.termination == CONVERGED
        assert res.iterations == 0
        assert res.trace == []


class TestSolveTwoPhase:
    def test_sphere_in_one_iteration(self):
        f = sphere(10)
        res = solve_two_phase(f, f.standard_start, SolverConfig(keep_operators=True))
        assert res.termination == CONVERGED
        assert res.iterations == 1
        rec = res.trace[0]
        assert rec.alpha_bar == 1.0 and rec.alpha == 1.0
        # every update term collapses on the identity quadratic
        assert np.allclose(res.updates[0].operator_next, np.eye(10))

    def test_hager_converges(self):
        p = lookup("Hager")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        assert res.termination == CONVERGED
        assert res.final_grad_norm <= 1e-6

    def test_lambda_near_zero_matches_pure_bfgs_operator(self):
        diag = np.array([1.0, 3.0, 7.0])
        f = ObjectiveFunction("q", 3,
                              lambda x: 0.5 * float(np.sum(diag * x**2)),
                              lambda x: diag * x,
                              np.array([1.0, 1.0, 1.0]))
        res = solve_two_phase(f, f.standard_start,
                              SolverConfig(lam=1e-9, max_iter=1))
        # oracle: one iteration of the same scheme with B_next = B_bfgs exactly
        x = f.standard_start.copy()
        g = f.gradient(x)
        p_bar = -g  # B = I
        out1 = wolfe_search(f, x, p_bar, f.evaluate(x), g)
        x_bar = x + out1.alpha * p_bar
        s = x_bar - x
        y = f.gradient(x_bar) - g
        B_next = bfgs_update_B(np.eye(3), s, y)
        p = -np.linalg.solve(B_next, g)
        out2 = wolfe_search(f, x, p, f.evaluate(x), g)
        x_oracle = x + out2.alpha * p
        assert np.max(np.abs(res.final_x - x_oracle)) <= 1e-6

    def test_update_skipped_on_zero_curvature(self):
        # linear objective: y = 0 on every step, so every update is skipped
        c = np.array([1.0, 2.0])
        f = ObjectiveFunction("linear", 2,
                              lambda x: float(c @ x),
                              lambda x: c.copy(),
                              np.zeros(2))
        res = solve_two_phase(f, f.standard_start,
                              SolverConfig(max_iter=3, keep_operators=True))
        assert res.termination == MAX_ITER
        assert all(r.update_skipped for r in res.trace)
        assert all(np.array_equal(u.operator, np.eye(2)) for u in res.updates)

    def test_spd_certification_every_iteration(self):
        p = lookup("Quadratic QF2")
        res = solve_two_phase(p.objective, p.objective.standard_start,
                              SolverConfig(keep_operators=True))
        for u in res.updates:
            cholesky(u.operator_next)

    def test_secant_on_accepted_updates(self):
        p = lookup("Diagonal 3")
        res = solve_two_phase(p.objective, p.objective.standard_start,
                              SolverConfig(keep_operators=True))
        for r, u in zip(res.trace, res.updates):
            if r.update_skipped:
                continue
            B_bar = bfgs_update_B(u.operator, u.s, u.y)
            assert (np.linalg.norm(B_bar @ u.s - u.y)
                    <= 1e-8 * max(1.0, np.linalg.norm(u.y)))

    def test_trace_and_determinant_recurrences(self):
        lam = 0.5
        for name in ("Hager", "Extended Beale", "Raydan1"):
            p = lookup(name)
            res = solve_two_phase(p.objective, p.objective.standard_start,
                                  SolverConfig(lam=lam, keep_operators=True))
            for r, u in zip(res.trace, res.updates):
                if r.update_skipped:
                    continue
                B, B_next, s, y = u.operator, u.operator_next, u.s, u.y
                Bs = B @ s
                sBs = float(s @ Bs)
                sy = float(s @ y)
                trace_pred = (np.trace(B) - (1 - lam) * float(Bs @ Bs) / sBs
                              + (1 - lam) * float(y @ y) / sy)
                assert np.trace(B_next) == pytest.approx(trace_pred, rel=1e-8)
                det_pred = np.linalg.det(B) * (
                    lam
                    + lam * (1 - lam) * float(y @ np.linalg.solve(B, y)) / sy
                    + (1 - lam) ** 2 * sy**2 / (sBs * sy)
                )
                assert np.linalg.det(B_next) == pytest.approx(det_pred, rel=1e-8)

    def test_monotone_descent(self):
        for name in ("Diagonal 2", "ENGVAL1", "Extended PSC1"):
            p = lookup(name)
            res = solve_two_phase(p.objective, p.objective.standard_start)
            assert res.termination == CONVERGED
            fs = [r.f for r in res.trace] + [res.final_f]
            assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_deterministic_traces(self):
        p = lookup("Hager")
        a = solve_two_phase(p.objective, p.objective.standard_start)
        b = solve_two_phase(p.objective, p.objective.standard_start)
        assert a.iterations == b.iterations
        assert np.array_equal(a.final_x, b.final_x)
        for ra, rb in zip(a.trace, b.trace):
            assert np.array_equal(ra.x, rb.x)
            assert ra.f == rb.f and ra.alpha == rb.alpha and ra.alpha_bar == rb.alpha_bar
            assert ra.cos_theta == rb.cos_theta

    def test_mode_equivalence_smoke(self):
        p = lookup("Quadratic QF1")
        b = solve_two_phase(p.objective, p.objective.standard_start)
        h = solve_two_phase(p.objective, p.objective.standard_start,
                            SolverConfig(mode=MODE_H_FORM_LITERAL))
        assert b.iterations == h.iterations
        for xb, xh in zip(iterate_sequence(b), iterate_sequence(h)):
            assert np.max(np.abs(xb - xh)) <= 1e-6

    def test_two_line_searches_counted(self):
        # nominal path: two f and two grad evaluations per iteration, plus
        # the initial pair
        f = sphere(6)
        res = solve_two_phase(f, f.standard_start)
        assert res.iterations == 1
        assert res.f_evals == 3 and res.g_evals == 3

    def test_cos_theta_recorded(self):
        p = lookup("Tridia")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        for r in res.trace:
            assert r.cos_theta is not None
            assert -1.0 - 1e-12 <= r.cos_theta <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode", [MODE_B_FORM, MODE_H_FORM_LITERAL])
    @pytest.mark.parametrize("name", ["Tridia", "Hager", "Quadratic QF1"])
    def test_cos_theta_matches_recorded_operator(self, name, mode):
        p = lookup(name)
        res = solve_two_phase(p.objective, p.objective.standard_start,
                              SolverConfig(mode=mode, keep_operators=True))
        assert res.trace
        for r, u in zip(res.trace, res.updates):
            # both modes record B, also h_form_literal, which keeps H = B^{-1}
            Bs = u.operator @ u.s
            expected = float(u.s @ Bs) / (np.linalg.norm(Bs) * np.linalg.norm(u.s))
            assert abs(r.cos_theta - expected) <= 1e-9


class TestTraceCsv:
    def test_structure_and_roundtrip(self):
        p = lookup("Raydan2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        text = trace_to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped"
        assert len(lines) == res.iterations + 2  # header + per-iteration + summary
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == res.trace[0].f
        last = lines[-1].split(",")
        assert int(last[0]) == res.iterations
        assert float(last[2]) == res.final_grad_norm

    def test_bfgs_trace_leaves_phase_columns_empty(self):
        p = lookup("Raydan2")
        res = solve_bfgs(p.objective, p.objective.standard_start)
        lines = trace_to_csv(res).strip().split("\n")
        row = lines[1].split(",")
        assert row[3] == ""  # alpha_bar
        assert row[5] == ""  # cos_theta


def _solve_peak_bytes(solver, f, cfg):
    tracemalloc.start()
    try:
        solver(f, f.standard_start, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solver", [solve_bfgs, solve_two_phase])
def test_peak_memory_does_not_grow_with_iterations(solver):
    # an ill-conditioned quadratic that runs past 20 iterations; records keep
    # a few n-vectors per iteration, so 15 more of them stay below the one
    # n x n matrix that each iteration adds with keep_operators
    n = 200
    d = np.linspace(1.0, 1000.0, n)
    f = ObjectiveFunction("ill-conditioned quadratic", n, lambda x: 0.5 * float(d @ (x * x)),
                          lambda x: d * x, np.ones(n))
    matrix_bytes = 8 * n * n
    growth = {}
    for keep in (False, True):
        short, long = (_solve_peak_bytes(solver, f, SolverConfig(max_iter=m, keep_operators=keep))
                       for m in (5, 20))
        growth[keep] = long - short
    assert growth[False] < matrix_bytes
    assert growth[True] > 10 * matrix_bytes


def test_b_form_psi_is_psi_of_the_recorded_operator(default_runs):
    for (name, solver), res in default_runs.items():
        if solver != "two-phase":
            continue
        for u in res.updates:
            assert u.psi == psi(u.operator), name
            assert u.psi_next == psi(u.operator_next), name


def test_h_realizations_carry_psi_of_b(default_runs):
    # BFGS and h_form_literal keep H = B^{-1} and carry psi(B) by the trace and
    # determinant identities of the update; their records hold B = H^{-1}
    cfg = SolverConfig(mode=MODE_H_FORM_LITERAL, keep_operators=True)
    runs = [(name, res) for (name, solver), res in default_runs.items() if solver == "bfgs"]
    runs += [(p.name, solve_two_phase(p.objective, p.objective.standard_start, cfg))
             for p in suite()]
    for name, res in runs:
        assert res.updates, name
        for u in res.updates:
            for value, B in ((u.psi, u.operator), (u.psi_next, u.operator_next)):
                assert value == pytest.approx(psi(B), rel=1e-4), name


@pytest.mark.parametrize("lam", [0.5, 0.3, 0.9])
def test_in_place_combine_matches_two_phase_combine(lam):
    rng = np.random.default_rng(7)
    cfg = SolverConfig(lam=lam)
    for n in (2, 5, 10, 40):
        for _ in range(10):
            B = make_spd(rng, n)
            s, y = curvature_pair(rng, n)
            expected = two_phase_combine(B, bfgs_update_B(B, s, y), lam)
            got = _TwoPhaseB(B).updated(s, y, B @ s, cfg).matrix
            assert np.array_equal(got, expected)
