import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from qnbench import (
    CONVERGED,
    MAX_ITER,
    ObjectiveFunction,
    SolverConfig,
    diagnose_run,
    lookup,
    psi,
    solve_bfgs,
    solve_two_phase,
)
from qnbench import solvers
from qnbench.linalg import PIVOT_RTOL, SPDError, cholesky, inverse_spd
from qnbench.linesearch import wolfe_search
from qnbench.solvers import (
    MODE_B_FORM,
    MODE_H_FORM_LITERAL,
    CurvatureError,
    _CompactH,
    _DenseH,
    _LiteralH,
    _psi_step,
    bfgs_update_B,
    bfgs_update_H,
    combine_H_literal,
    trace_to_csv,
    two_phase_combine,
)

from _util import (
    WRONG_GRADIENT_IDS,
    WRONG_GRADIENT_SHAPES,
    at_n,
    bfgs_update_H_dense,
    b_next,
    curvature_pair,
    iterate_sequence,
    make_spd,
    replay,
    sphere,
    sum_with_gradient_shape,
)


class TestSolverConfig:
    def test_defaults_match_benchmark_constants(self):
        cfg = SolverConfig()
        assert cfg.lam == 0.5
        assert cfg.tol == 1e-6
        assert cfg.max_iter == 500
        assert (cfg.wolfe.c1, cfg.wolfe.c2, cfg.wolfe.backtrack) == (1e-4, 0.9, 0.5)
        assert cfg.mode == MODE_B_FORM

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam": 1.0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
        {"max_iter": 0}, {"max_iter": math.nan}, {"max_iter": math.inf}, {"max_iter": 2.5},
        {"max_iter": True}, {"max_iter": "10"}, {"max_iter": np.int64(0)},
        {"max_iter": np.float64(10.0)}, {"max_iter": np.True_}, {"mode": "inverse"},
        {"tol": True}, {"tol": np.True_}, {"tol": "1e-6"}, {"tol": None}, {"tol": 1e-6j},
        {"lam": "0.5"}, {"lam": None}, {"lam": 0.5j}, {"lam": np.True_},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_a_numpy_integer_budget_is_stored_as_an_int(self):
        cfg = SolverConfig(max_iter=np.int64(10))
        assert cfg.max_iter == 10 and type(cfg.max_iter) is int

    def test_settable_fields(self):
        # the line search's constants are fixed: readable as cfg.wolfe, not set
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "lam", "tol", "max_iter", "mode"]
        with pytest.raises(TypeError):
            SolverConfig(wolfe=SolverConfig.wolfe)


def test_solver_config_defaults_read_on_the_class():
    # cli.py takes its argparse defaults from the class; slots would turn these
    # into member descriptors, which is why SolverConfig is not slotted
    assert SolverConfig.lam == 0.5
    assert SolverConfig.tol == 1e-6
    assert SolverConfig.max_iter == 500


@pytest.mark.parametrize("kind", ["IterateRecord", "SolveResult", "LineSearchOutcome"])
def test_records_are_slotted(default_runs, kind):
    # a solve keeps one IterateRecord per iteration until its trace is read, so
    # each record holds its fields in slots, with no per-instance dict, and
    # stays frozen; perfbench's tests build wrong results with replace
    result = default_runs[("Raydan2", "two-phase")]
    objective = lookup("Raydan2").objective
    x = objective.standard_start
    g = objective.gradient(x)
    record = {
        "IterateRecord": result.trace[0],
        "SolveResult": result,
        "LineSearchOutcome": wolfe_search(objective, x, -g, objective.evaluate(x), g),
    }[kind]
    assert type(record).__name__ == kind
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[1].name, 0.0)
    twin = dataclasses.replace(record)
    assert twin is not record and twin == record


def test_a_record_is_rebuilt_with_other_step_lengths_and_statuses(default_runs):
    # perfbench's tests build a wrong solve by replacing the first record's
    # alpha and status, so these stay fields, not cells of the record's array
    record = default_runs[("Raydan2", "two-phase")].trace[0]
    twin = dataclasses.replace(record, alpha_bar=2.0, alpha=64.0, update_skipped=True,
                               status_bar="armijo_only", status="wolfe_satisfied")
    assert (twin.alpha_bar, twin.alpha, twin.update_skipped, twin.status_bar, twin.status) == (
        2.0, 64.0, True, "armijo_only", "wolfe_satisfied")
    assert twin.values is record.values
    assert float.hex(twin.f) == float.hex(record.f)


@pytest.mark.parametrize("n", [10, solvers.COMPACT_MIN_N], ids=["dense", "compact"])
@pytest.mark.parametrize("solver", [solve_bfgs, solve_two_phase], ids=["bfgs", "two-phase"])
def test_an_iteration_keeps_its_vectors_in_one_array(solver, n):
    # an iteration has one record, whose array has rows x, g, p and, for
    # two-phase, p_bar, with f, psi_next and the coupling in its last column;
    # each vector is a view of its row, and each scalar reads back bit for bit.
    # The pair's y is no row and no field
    f = at_n("Perturbed Quadratic Diagonal", n).objective
    result = solver(f, f.standard_start)
    two_phase = solver is solve_two_phase
    rows = 4 if two_phase else 3
    assert result.iterations > 1
    assert result.updates is result.trace
    nexts = [r.x for r in result.trace[1:]] + [result.final_x]
    # replay asserts that each record's psi_next is the replayed one, bit for
    # bit, from a y it re-derives
    steps = replay(f, result, SolverConfig(), "two-phase" if two_phase else "bfgs")
    for r, (s, _, _, _), x_next in zip(result.trace, steps, nexts, strict=True):
        values = r.values
        assert values.shape == (rows, n + 1) and values.dtype == np.float64
        assert not hasattr(r, "y")
        views = (r.x, r.g, r.p, r.p_bar)
        for row, view in enumerate(views[:rows]):
            assert view.base is values and view.ctypes.data == values[row].ctypes.data
            assert view.shape == (n,)
        assert np.array_equal(r.x + r.alpha * r.p, x_next)
        assert float.hex(r.f) == float.hex(float(f.evaluate(r.x)))
        if two_phase:
            coupling = float(np.dot(r.p - r.p_bar, f.gradient(r.x + s)))
            assert float.hex(r.coupling) == float.hex(coupling)
            assert np.isnan(values[3, n])
        else:
            assert r.p_bar is None and r.coupling is None
            assert np.isnan(values[2, n])


@pytest.mark.parametrize("solver, bound", [(solve_bfgs, 525), (solve_two_phase, 620)],
                         ids=["bfgs", "two-phase"])
def test_a_held_result_retains_few_bytes_per_iteration(solver, bound):
    # a solve keeps its records until its trace is read, so the bytes a held
    # n = 10 result retains per iteration are what the paper's 60-run suite
    # holds at once.  Generalized PSC1 retains 483 (BFGS, 99 iterations) and
    # 571 (two-phase, 130) on Python 3.11 and numpy 2.4, and the bounds allow
    # about 9 % over them.  Records that also keep y as a row read 571 and
    # 659, and two records per iteration sharing one array of the vectors,
    # with f, psi_next and the coupling as float objects, 642 and 752; the
    # bounds reject both.  The first solve warms the caches
    f = lookup("Generalized PSC1").objective
    tracemalloc.start()
    try:
        solver(f, f.standard_start)
        before = tracemalloc.get_traced_memory()[0]
        result = solver(f, f.standard_start)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / result.iterations <= bound


@pytest.mark.parametrize("shape", [(5,), (2, 5), (10, 1), ()],
                         ids=["short", "matrix", "column", "scalar"])
@pytest.mark.parametrize("solver", [solve_bfgs, solve_two_phase], ids=["bfgs", "two-phase"])
def test_an_x0_of_the_wrong_shape_is_rejected_before_any_evaluation(solver, shape):
    def never(x):
        raise AssertionError("evaluated")

    f = dataclasses.replace(lookup("Raydan2").objective, evaluate=never, gradient=never)
    with pytest.raises(ValueError, match=re.escape(f"Raydan2: x0 has shape {shape}, "
                                                   "expected (10,)")):
        solver(f, np.ones(shape))


@pytest.mark.parametrize("n, shape", WRONG_GRADIENT_SHAPES, ids=WRONG_GRADIENT_IDS)
@pytest.mark.parametrize("solver", [solve_bfgs, solve_two_phase], ids=["bfgs", "two-phase"])
def test_a_gradient_of_the_wrong_shape_at_x0_is_rejected(solver, n, shape):
    f = sum_with_gradient_shape(n, shape)
    with pytest.raises(ValueError, match=re.escape(
            f"sum: gradient has shape {shape}, expected ({n},)")):
        solver(f, f.standard_start)


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
        # the check runs first, and neither update writes H
        rng = np.random.default_rng(550)
        H = inverse_spd(make_spd(rng, 10))
        before = H.copy()
        s = rng.standard_normal(10)
        with pytest.raises(CurvatureError):
            bfgs_update_H(H, s, -s)
        with pytest.raises(CurvatureError):
            _DenseH(H).update(s, -s, s, 0.0)  # the BFGS realization
        assert np.array_equal(H, before)

    def test_duality_with_b_update(self):
        rng = np.random.default_rng(200)
        for n in (2, 5, 10):
            H = make_spd(rng, n)
            s, y = curvature_pair(rng, n)
            H_bar = bfgs_update_H(H, s, y)
            product = H_bar @ bfgs_update_B(inverse_spd(H), s, y)
            assert np.allclose(product, np.eye(n), atol=1e-8)

    def test_inverse_secant_on_random_inputs(self):
        rng = np.random.default_rng(300)
        for n in (2, 5, 10):
            for _ in range(30):
                H = make_spd(rng, n)
                s, y = curvature_pair(rng, n)
                out = bfgs_update_H(H, s, y)
                assert np.linalg.norm(out @ y - s) <= 1e-10 * max(1.0, np.linalg.norm(s))

    @pytest.mark.parametrize("n", [2, 10, 300])
    def test_agrees_with_the_dense_product(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(5):
            H = inverse_spd(make_spd(rng, n))
            s, y = curvature_pair(rng, n)
            want = bfgs_update_H_dense(H, s, y)
            before = H.copy()
            out = bfgs_update_H(H, s, y)
            assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)
            # a new array, and H is left unwritten
            assert not np.shares_memory(out, H) and np.array_equal(H, before)

    def test_asymmetry_stays_small_over_chained_updates(self):
        rng = np.random.default_rng(600)
        n = 20
        H = np.eye(n)
        for _ in range(50):
            H = bfgs_update_H(H, *curvature_pair(rng, n))
            assert np.linalg.norm(H - H.T) <= 1e-12 * np.linalg.norm(H)


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
        res = solve_two_phase(f, f.standard_start)
        assert res.termination == CONVERGED
        assert res.iterations == 1
        rec = res.trace[0]
        assert rec.alpha_bar == 1.0 and rec.alpha == 1.0
        # every update term collapses on the identity quadratic
        [(_, _, _, B_next)] = replay(f, res, SolverConfig(), "two-phase")
        assert np.allclose(B_next, np.eye(10))

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
        s = out1.alpha * p_bar
        x_bar = x + s
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
        cfg = SolverConfig(max_iter=3)
        res = solve_two_phase(f, f.standard_start, cfg)
        assert res.termination == MAX_ITER
        assert all(r.update_skipped for r in res.trace)
        assert all(np.array_equal(B, np.eye(2)) for _, _, B, _ in replay(f, res, cfg, "two-phase"))

    def test_spd_certification_every_iteration(self):
        p = lookup("Quadratic QF2")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        for _, _, _, B_next in replay(p.objective, res, SolverConfig(), "two-phase"):
            cholesky(B_next)

    def test_secant_on_accepted_updates(self):
        p = lookup("Diagonal 3")
        res = solve_two_phase(p.objective, p.objective.standard_start)
        steps = replay(p.objective, res, SolverConfig(), "two-phase")
        for r, (s, y, B, _) in zip(res.trace, steps):
            if r.update_skipped:
                continue
            B_bar = bfgs_update_B(B, s, y)
            assert (np.linalg.norm(B_bar @ s - y)
                    <= 1e-8 * max(1.0, np.linalg.norm(y)))

    def test_trace_and_determinant_recurrences(self):
        lam = 0.5
        for name in ("Hager", "Extended Beale", "Raydan1"):
            p = lookup(name)
            cfg = SolverConfig(lam=lam)
            res = solve_two_phase(p.objective, p.objective.standard_start, cfg)
            for r, (s, y, B, B_next) in zip(res.trace, replay(p.objective, res, cfg, "two-phase")):
                if r.update_skipped:
                    continue
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
        assert trace_to_csv(a) == trace_to_csv(b)

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
        cos_thetas = _csv_cos_thetas(res)
        assert len(cos_thetas) == res.iterations
        for cos_theta in cos_thetas:
            assert -1.0 - 1e-12 <= float(cos_theta) <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode", [MODE_B_FORM, MODE_H_FORM_LITERAL])
    @pytest.mark.parametrize("name", ["Tridia", "Hager", "Quadratic QF1"])
    def test_cos_theta_matches_recorded_operator(self, name, mode):
        p = lookup(name)
        cfg = SolverConfig(mode=mode)
        res = solve_two_phase(p.objective, p.objective.standard_start, cfg)
        assert res.trace
        steps = replay(p.objective, res, cfg, "two-phase")
        for cos_theta, (s, _, B, _) in zip(_csv_cos_thetas(res), steps, strict=True):
            # both modes keep H = B^{-1}; the replay inverts it
            Bs = B @ s
            expected = float(s @ Bs) / (np.linalg.norm(Bs) * np.linalg.norm(s))
            assert abs(float(cos_theta) - expected) <= 1e-9


def _csv_cos_thetas(result):
    """The cos_theta column of the trace CSV, one per iteration."""
    return [row.split(",")[5] for row in trace_to_csv(result).split("\n")[1:-2]]


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
    # a few n-vectors per iteration, so 15 more of them stay below one n x n
    # matrix
    n = 200
    d = np.linspace(1.0, 1000.0, n)
    f = ObjectiveFunction("ill-conditioned quadratic", n, lambda x: 0.5 * float(d @ (x * x)),
                          lambda x: d * x, np.ones(n))
    short, long = (_solve_peak_bytes(solver, f, SolverConfig(max_iter=m)) for m in (5, 20))
    assert long - short < 8 * n * n


@pytest.mark.parametrize("solver", [solve_bfgs, solve_two_phase], ids=["bfgs", "two-phase"])
def test_solve_working_set_is_two_matrices(monkeypatch, solver):
    # the dense updates write over the solve's own H, and an update holds one
    # transient n x n correction, so a solve holds H and the correction.  A
    # third matrix, such as a fresh factor per iteration, would put the peak near
    # 3 * 8n^2 bytes.  A threshold above n keeps the solve dense, and a
    # well-conditioned quadratic converges in 14 (BFGS) and 8 iterations, so
    # the records stay small
    n = 400
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", n + 1)
    d = np.linspace(1.0, 2.0, n)
    f = ObjectiveFunction("well-conditioned quadratic", n, lambda x: 0.5 * float(d @ (x * x)),
                          lambda x: d * x, np.ones(n))
    assert _solve_peak_bytes(solver, f, SolverConfig()) < 2.5 * 8 * n * n


def _replayed_runs(default_runs, h_form_runs):
    """(name, solver, mode, result, replay) of default-config suite runs."""
    h_form = SolverConfig(mode=MODE_H_FORM_LITERAL)
    runs = [(name, solver, SolverConfig(), res) for (name, solver), res in default_runs.items()]
    runs += [(name, "two-phase", h_form, res) for name, res in h_form_runs.items()]
    for name, solver, cfg, res in runs:
        yield name, solver, cfg.mode, res, replay(lookup(name).objective, res, cfg, solver)


def test_replay_reproduces_every_record(default_runs, h_form_runs):
    # the records keep no s and no operator; the replay rebuilds both, and it
    # asserts that its y and psi_next equal the recorded ones bit for bit
    for name, solver, mode, res, steps in _replayed_runs(default_runs, h_form_runs):
        assert len(list(steps)) == res.iterations, (name, solver, mode)


def _assert_psi_series_is_psi_of_replayed_operators(runs, rel):
    """``diagnose_run``'s psi series against psi(B_0) .. psi(B_m) of the replay."""
    for name, solver, mode, res, steps in runs:
        assert res.trace, (name, solver, mode)
        operators = [psi(B_next) for _, _, _, B_next in steps]
        B_0 = np.eye(res.final_x.size)
        series = diagnose_run(res, res.final_x).psi_series
        assert series == pytest.approx([psi(B_0)] + operators, rel=rel), (name, solver, mode)


def test_b_form_psi_is_psi_of_the_recorded_operator(default_runs):
    # b_form carries psi by the recursion, like the H realizations below: its
    # update and its psi step share one s = H Bs, so psi follows the H it
    # records
    runs = [run for run in _replayed_runs(default_runs, {}) if run[1] == "two-phase"]
    _assert_psi_series_is_psi_of_replayed_operators(runs, rel=1e-9)


def test_h_form_literal_carries_psi_of_b(h_form_runs):
    # h_form_literal keeps H = B^{-1} and carries psi(B) by the trace and
    # determinant identities of the update; the replay inverts its H.  The
    # suite's worst case is 1.6e-12 relative
    _assert_psi_series_is_psi_of_replayed_operators(_replayed_runs({}, h_form_runs), rel=1e-9)


def test_bfgs_carries_psi_of_b(default_runs):
    # BFGS is b_form at lam = 0, so its update and its psi step share one
    # s = H Bs with Bs = -alpha g, and only rounding separates psi from the
    # replayed operator's: the suite's worst case is 9.5e-12 relative, on
    # Diagonal 9
    runs = [run for run in _replayed_runs(default_runs, {}) if run[1] == "bfgs"]
    _assert_psi_series_is_psi_of_replayed_operators(runs, rel=1e-9)


@pytest.mark.parametrize("lam", [0.5, 0.3, 0.9, 0.0])
def test_woodbury_update_inverts_two_phase_combine(lam):
    # lam = 0 is BFGS, checked against the BFGS update in B itself, since
    # two_phase_combine takes lam in (0, 1) only
    rng = np.random.default_rng(7)
    for n in (2, 5, 10, 40):
        for _ in range(10):
            B = make_spd(rng, n)
            s, y = curvature_pair(rng, n)
            B_next = bfgs_update_B(B, s, y)
            if lam > 0.0:
                B_next = two_phase_combine(B, B_next, lam)
            H, Bs = np.linalg.inv(B), B @ s
            H_next = _DenseH(H.copy())
            d_psi = H_next.update(s, y, Bs, lam)
            assert np.abs(H_next.H @ B_next - np.eye(n)).max() <= 1e-13
            # its psi step takes the products of s = H Bs and y'Hy of the H it
            # was given.  It reads them from the columns of HU, whose dot
            # products round apart from these in the last bits: over the three
            # lam, 60 of the 120 cases differ, by at most 1.9e-14 relative
            HBs = H @ Bs
            want = _psi_step(float(HBs.dot(y)), float(HBs.dot(Bs)), y @ (H @ y),
                             float(y.dot(y)), float(Bs.dot(Bs)), lam)
            assert d_psi == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [2, 10, 300])
def test_woodbury_update_in_place_equals_the_update_of_a_copy(n):
    # the update writes over its H; the pure result is the call on H.copy()
    rng = np.random.default_rng(80 + n)
    for _ in range(5):
        B = make_spd(rng, n)
        s, y = curvature_pair(rng, n)
        H = inverse_spd(B)
        want = _DenseH(H.copy())
        want_psi = want.update(s, y, B @ s, 0.5)
        op = _DenseH(H)
        d_psi = op.update(s, y, B @ s, 0.5)
        assert op.H is H
        assert np.array_equal(H, want.H)
        assert d_psi == want_psi


def test_woodbury_update_checks_before_it_writes():
    rng = np.random.default_rng(90)
    B = make_spd(rng, 10)
    op = _DenseH(inverse_spd(B))
    before = op.H.copy()
    s = rng.standard_normal(10)
    with pytest.raises(CurvatureError):
        op.update(s, -s, B @ s, 0.5)
    with pytest.raises(SPDError, match="s'Bs"):
        op.update(s, B @ s, np.zeros(10), 0.5)
    assert np.array_equal(op.H, before)
    # an indefinite H = diag(-1, 1) and Bs = -e_2, y = -(3 e_1 + e_2): s = -e_2,
    # so s'Bs = 1 and s'y = 1 pass, but y'Hy = -8, and at lam = 0.5
    # M = [[-1, 1], [1, -6]] has det M = 5 >= 0.  The inertia certificate
    # fails before the first write, where a certificate of H_next would come
    # after it
    op = _DenseH(np.diag([-1.0, 1.0]))
    before = op.H.copy()
    Bs, y = np.array([0.0, -1.0]), np.array([-3.0, -1.0])
    with pytest.raises(SPDError, match="m22 = .* and det M = 5"):
        op.update(op @ Bs, y, Bs, 0.5)
    assert np.array_equal(op.H, before)


_WRITING_UPDATES = {"bfgs": lambda n: _DenseH(np.eye(n)), "b_form": lambda n: _DenseH(np.eye(n)),
                    "compact": _CompactH}


def _floats(H):
    """What an update writes: a dense H, or a compact H's rows in use."""
    return [H.H] if isinstance(H, _DenseH) else [H.rows[:H.m]]


def _same_floats(H, other):
    return all(np.array_equal(a, b) for a, b in zip(_floats(H), _floats(other), strict=True))


@pytest.mark.parametrize("name", list(_WRITING_UPDATES))
def test_updates_write_over_the_h_they_are_given(name):
    # one convention for every realization but the oracle: the update
    # overwrites the operator it was given with the floats of the same call on
    # a copy and returns the change in psi, and a pair that fails a check
    # before the write leaves H as it was
    lam = 0.0 if name == "bfgs" else 0.5
    rng = np.random.default_rng(31)
    n = 10
    H, B = _WRITING_UPDATES[name](n), np.eye(n)
    for _ in range(3):
        s, y = curvature_pair(rng, n)
        H.update(s, y, B @ s, lam)
        B = b_next(B, B @ s, y, lam)
    s, y = curvature_pair(rng, n)
    Bs = B @ s
    kept = copy.deepcopy(H)
    with pytest.raises(CurvatureError):
        H.update(s, -s, Bs, lam)
    assert _same_floats(H, kept)
    if name != "compact":  # s'y passes its floor, s'Bs = 0 does not
        with pytest.raises(SPDError, match="s'Bs"):
            H.update(s, y, np.zeros(n), lam)
        assert _same_floats(H, kept)
    want = copy.deepcopy(kept)
    want_psi = want.update(s, y, Bs, lam)
    d_psi = H.update(s, y, Bs, lam)
    assert _same_floats(H, want) and not _same_floats(H, kept)
    assert d_psi == want_psi


def test_h_form_literal_leaves_h_as_it_was():
    # the oracle is its formula: H_bar and H_next are new arrays, H_next
    # replaces H in the operator, and the operator holds H alone
    rng = np.random.default_rng(32)
    B = make_spd(rng, 10)
    H = inverse_spd(B)
    before = H.copy()
    s, y = curvature_pair(rng, 10)
    op = _LiteralH(H)
    op.update(s, y, B @ s, 0.5)
    assert np.array_equal(H, before)
    assert vars(op).keys() == {"H"}
    assert not np.shares_memory(op.H, H)


@pytest.mark.parametrize("solver, mode, max_iter, names", [
    (solve_bfgs, MODE_B_FORM, 6, set()),
    (solve_two_phase, MODE_B_FORM, 6, set()),
    (solve_two_phase, MODE_H_FORM_LITERAL, 6, {"bfgs_update_H", "combine_H_literal"}),
    (solve_bfgs, MODE_B_FORM, 5, {"_CompactH.update"}),
    (solve_two_phase, MODE_B_FORM, 5, {"_CompactH.update"}),
    (solve_two_phase, MODE_H_FORM_LITERAL, 5, {"bfgs_update_H", "combine_H_literal"}),
], ids=["bfgs", "b_form", "h_form_literal", "compact-bfgs", "compact-b_form",
        "h_form_literal-max_iter-5"])
def test_updates_look_up_their_primitives_in_the_solvers_module(monkeypatch, solver, mode,
                                                                max_iter, names):
    # the per-layer tracer patches these names in qnbench.solvers, so an update
    # that bound one of them early would drop out of the traced counts.
    # A call counts when it returns, so a pair the curvature floor skips does not.
    # At n = 10 every solve runs the dense updates, and dense BFGS and b_form
    # call none of these: _DenseH.update updates and certifies by itself,
    # through the 2 x 2 M, so no Cholesky runs.  With the threshold at 10,
    # max_iter 5 runs BFGS and b_form on the compact operator, whose update the loop finds as
    # qnbench.solvers._CompactH.update; h_form_literal stays dense
    if names == {"_CompactH.update"}:
        monkeypatch.setattr(solvers, "COMPACT_MIN_N", 10)
    owners = {"bfgs_update_H": solvers, "combine_H_literal": solvers, "cholesky": solvers,
              "_CompactH.update": solvers._CompactH}
    returned = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        attr = name.rpartition(".")[2]

        def counted(*args, _name=name, _wrapped=getattr(owner, attr), **kwargs):
            out = _wrapped(*args, **kwargs)
            returned[_name] += 1
            return out
        monkeypatch.setattr(owner, attr, counted)
    objective = lookup("Raydan2").objective
    res = solver(objective, objective.standard_start,
                 SolverConfig(max_iter=max_iter, mode=mode))
    applied = sum(not r.update_skipped for r in res.trace)
    assert applied > 0
    assert returned == {name: applied if name in names else 0 for name in returned}


@pytest.mark.parametrize("solver, mode, name", [
    (solve_bfgs, MODE_B_FORM, "_DenseH"),
    (solve_two_phase, MODE_B_FORM, "_DenseH"),
    (solve_two_phase, MODE_H_FORM_LITERAL, "_LiteralH"),
], ids=["bfgs", "b_form", "h_form_literal"])
def test_the_loop_looks_up_its_dense_update_in_the_solvers_module(monkeypatch, solver, mode,
                                                                  name):
    # as it looks up _CompactH.update: a patch on the operator's update, found
    # by its class's name in qnbench.solvers, the tracer's way of counting, sees
    # every applied update.  At n = 10 every solve runs dense; a pair the
    # curvature floor skips returns no update
    returned = []
    cls = getattr(solvers, name)
    wrapped = cls.update

    def counted(*args):
        out = wrapped(*args)
        returned.append(out)
        return out

    monkeypatch.setattr(cls, "update", counted)
    objective = lookup("Raydan2").objective
    res = solver(objective, objective.standard_start, SolverConfig(max_iter=6, mode=mode))
    applied = sum(not r.update_skipped for r in res.trace)
    assert applied > 0 and len(returned) == applied


def test_woodbury_update_survives_a_step_rounded_away():
    # the realization takes s from H Bs, not from its argument.  Far from the
    # origin a tiny step loses its descending coordinate: H couples the two,
    # p_bar = -H g climbs along e_2, and x_bar - x rounds its e_1 part to 0, so
    # s'g > 0 while g'p_bar < 0; s'Bs from H Bs stays positive
    H = np.array([[1.0, 0.9], [0.9, 1.0]])
    g = np.array([1.0, -0.5])
    alpha_bar, p_bar = 1e-9, -H @ g
    x = np.array([1e8, 0.0])
    s = (x + alpha_bar * p_bar) - x
    y = np.array([1.0, 4.0]) * s  # a quadratic's gradient difference, s'y > 0
    assert float(g @ p_bar) < 0.0 < float(g @ s)
    B = np.linalg.inv(H)
    op = _DenseH(H)
    d_psi = op.update(s, y, -alpha_bar * g, 0.5)
    assert psi(B) + d_psi == pytest.approx(psi(inverse_spd(op.H)), rel=1e-9)


def test_a_stiff_spd_update_is_accepted():
    # on 0.5 (x_1^2 + c x_2^2) from (0, 1) the first step runs along e_2, so
    # B_next = diag(1, lam + (1 - lam) c), SPD however large c is.  Its
    # certificate is M's inertia, not H_next's Cholesky pivots: H_next's second
    # pivot, about 2/c, is below PIVOT_RTOL times its largest diagonal entry 1,
    # and a pivot test would end the solve spd_failure at iteration 0
    c = 1e16
    G = np.array([1.0, c])
    f = ObjectiveFunction("stiff quadratic", 2, lambda x: 0.5 * float(G @ (x * x)),
                          lambda x: G * x, np.array([0.0, 1.0]))
    for solver, counts in ((solve_two_phase, (12, 80, 25)), (solve_bfgs, (4, 59, 5))):
        res = solver(f, f.standard_start)
        assert res.termination == CONVERGED
        assert (res.iterations, res.f_evals, res.g_evals) == counts
    s = np.array([0.0, -0.5])  # B = I, so Bs = s
    op = _DenseH(np.eye(2))
    d_psi = op.update(s, G * s, s, 0.5)
    H_next = op.H
    assert H_next[0, 0] == 1.0 and H_next[0, 1] == H_next[1, 0] == 0.0
    assert 0.0 < H_next[1, 1] < PIVOT_RTOL
    assert math.isfinite(d_psi)
