"""The compact operator ``_CompactH``, H = I - R' diag(1, -1, 1, -1, ...) R, on which BFGS
and two-phase ``b_form`` run from n = COMPACT_MIN_N up, for the whole solve,
however many rows R gains.  Below COMPACT_MIN_N every solve is dense."""

import math
import tracemalloc

import numpy as np
import pytest

from qnbench import (
    SPD_FAILURE,
    ObjectiveFunction,
    SolverConfig,
    lookup,
    psi,
    solve_bfgs,
    solve_two_phase,
)
from qnbench import solvers
from qnbench.linalg import SPDError
from qnbench.solvers import (COMPACT_MIN_N, MODE_H_FORM_LITERAL, _CompactH, _DenseH, _LiteralH,
                             _operator)

from _util import (at_n, b_next, compact_dense, compact_from, curvature_pair, iterate_sequence,
                   replay)

SOLVERS = [solve_bfgs, solve_two_phase]
SOLVER_IDS = ["bfgs", "two-phase"]


@pytest.mark.parametrize("two_phase", [False, True], ids=SOLVER_IDS)
def test_n_alone_selects_the_realization(two_phase):
    # no option and no budget rule: below COMPACT_MIN_N every solve is dense;
    # from COMPACT_MIN_N up BFGS and two-phase b_form run compact at any
    # max_iter (BFGS is lam = 0); h_form_literal is dense.  Each realization
    # holds only what its update reads: a dense one H, and a compact one m and
    # R, whose odd rows have sign -1
    n = COMPACT_MIN_N - 1
    for m in (1, n // 2, 500):
        H = _operator(n, SolverConfig(max_iter=m), two_phase)
        assert type(H) is _DenseH and np.array_equal(H.H, np.eye(n))
        assert vars(H).keys() == {"H"}
    n = COMPACT_MIN_N
    for m in (1, n // 2, n // 2 + 1, 500):
        H = _operator(n, SolverConfig(max_iter=m), two_phase)
        assert type(H) is _CompactH and H.m == 0
        assert vars(H).keys() == {"m", "rows"}
    # h_form_literal is dense at every n and budget, and the paper's n = 10 runs
    # are dense; it is a _DenseH with its own update and nothing else
    assert [k for k in vars(_LiteralH) if not k.startswith("__")] == ["update"]
    for n in (10, COMPACT_MIN_N, 2 * COMPACT_MIN_N):
        H = _operator(n, SolverConfig(max_iter=1, mode=MODE_H_FORM_LITERAL), True)
        assert type(H) is _LiteralH and np.array_equal(H.H, np.eye(n))
        assert isinstance(H, _DenseH) and vars(H).keys() == {"H"}
        assert vars(H).keys() == {"H"}
    assert type(_operator(10, SolverConfig(), two_phase)) is _DenseH


def _f_sequence(result):
    return [record.f for record in result.trace] + [result.final_f]


def test_a_shorter_budget_takes_the_first_steps_of_the_default_solve(default_runs):
    # max_iter only stops the loop: on every suite problem at n = 10, the
    # iterates of a max_iter = 5 solve are the default solve's first ones, bit for bit
    differ = []
    for (name, solver), full in default_runs.items():
        f = lookup(name).objective
        run = solve_bfgs if solver == "bfgs" else solve_two_phase
        short = run(f, f.standard_start, SolverConfig(max_iter=5))
        got, want = ([(x.tobytes(), fx) for x, fx in zip(iterate_sequence(res), _f_sequence(res))]
                     for res in (short, full))
        if short.iterations != min(5, full.iterations) or got != want[:len(got)]:
            differ.append((name, solver))
    assert len(default_runs) == 60 and differ == []


def test_dense_is_the_inverse_of_the_represented_operator():
    rng = np.random.default_rng(17)
    n = 40
    H, B = _CompactH(n), np.eye(n)
    assert np.array_equal(compact_dense(H), np.eye(n))
    for _ in range(15):
        Bs, y = curvature_pair(rng, n)
        H.update(H @ Bs, y, Bs, 0.5)
        B = b_next(B, Bs, y, 0.5)
        want = np.linalg.inv(B)
        assert np.abs(compact_dense(H) - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_a_compact_solve_stays_compact_past_n_over_2_updates(monkeypatch, solver):
    # with the threshold at n = 10, Generalized PSC1 starts compact and runs
    # past 5 applied updates, where R has more rows than n: the solve keeps the
    # _CompactH it started on, with two rows per applied update, and the
    # replay, compact too, gives psi_next to 1e-9 of psi(B_next)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 10)
    made = []
    make = solvers._operator
    monkeypatch.setattr(solvers, "_operator", lambda *args: made.append(make(*args)) or made[-1])
    f = lookup("Generalized PSC1").objective
    cfg = SolverConfig()
    res = solver(f, f.standard_start, cfg)
    assert res.converged
    applied = sum(not r.update_skipped for r in res.trace)
    [H] = made
    assert applied > 5
    assert type(H) is _CompactH and H.m == 2 * applied
    steps = list(replay(f, res, cfg, name))
    assert len(steps) == res.iterations
    want = [psi(B_next) for _, _, _, B_next in steps]
    assert [r.psi_next for r in res.trace] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("name, counts", [
    ("Perturbed Quadratic Diagonal", {"bfgs": (60, 63, 61), "two-phase": (53, 109, 107)}),
    ("Raydan2", {"bfgs": (7, 8, 8), "two-phase": (6, 13, 13)}),
], ids=["pqd", "raydan2"])
def test_compact_and_dense_paths_agree(monkeypatch, solver, name, counts):
    # both solvers start compact at n = 200 whatever the budget, so the dense
    # run raises the threshold past n
    f = at_n(name, 200).objective
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    compact = solver(f, f.standard_start, SolverConfig())
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 201)
    assert type(_operator(200, SolverConfig(), name == "two-phase")) is _DenseH
    dense = solver(f, f.standard_start, SolverConfig())
    for res in (compact, dense):
        assert res.converged
        assert (res.iterations, res.f_evals, res.g_evals) == counts[name]
    assert np.abs(compact.final_x - dense.final_x).max() <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("problem", ["Perturbed Quadratic Diagonal", "Raydan2"],
                         ids=["pqd", "raydan2"])
def test_carried_psi_is_psi_of_the_represented_operator(solver, problem):
    # the replay accumulates each B_next = B + U C U' from the replayed pair,
    # apart from the compact H, and asserts that the replayed psi_next is the
    # recorded one
    f = at_n(problem, 200).objective
    cfg = SolverConfig(max_iter=100)
    res = solver(f, f.standard_start, cfg)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    steps = list(replay(f, res, cfg, name))
    assert len(steps) == res.iterations
    want = [psi(B_next) for _, _, _, B_next in steps]
    assert [r.psi_next for r in res.trace] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
def test_h_times_v_is_the_inverse_of_the_represented_operator(lam):
    rng = np.random.default_rng(11)
    n = 50
    H, B = _CompactH(n), np.eye(n)
    for _ in range(12):  # 24 rows: R's array grows in place by two rows per update
        Bs, y = curvature_pair(rng, n)
        H.update(H @ Bs, y, Bs, lam)
        B = b_next(B, Bs, y, lam)
        for v in rng.standard_normal((3, n)):
            want = np.linalg.solve(B, v)
            assert np.linalg.norm(H @ v - want) <= 1e-10 * np.linalg.norm(want)
    assert H.m == 24 and H.rows.shape == (24, n)


def _indefinite():
    """The compact H = diag(-1, 1/2, 1, 1, 1, 1) (n = 6), the inverse of no SPD B:
    rows sqrt(2) e_1, 0, e_2/sqrt(2) and 0, so sqrt(2) e_1 and e_2/sqrt(2) have
    sign +1.  All four rows are in use, so R is full: an update would grow it."""
    R = np.zeros((4, 6))
    R[0, 0], R[2, 1] = math.sqrt(2.0), math.sqrt(0.5)
    return compact_from(R)


# Along Bs = -e_3 and y = -(a e_1 + e_3), the H above gives s = -e_3, so
# s'Bs = 1 and s'y = 1 pass, but y'Hy = 1 - a^2, and at lam = 0.5
# M = [[-1, 1], [1, 3 - a^2]] with det M = a^2 - 4.  a = 1.8 gives
# m22 = -0.24 with det M = -0.76, an M whose second row would be NaN, and a = 3
# gives m22 = -6 with det M = 5.


@pytest.mark.parametrize("case", ["m22-not-positive", "det-M-at-or-above-zero",
                                  "det-M-underflows", "m22-not-positive-with-room"])
def test_an_uncertified_m_raises_before_it_writes(case):
    # R is full in the first three cases, so a certified update would grow
    # rows in place; in the last, rows has two spare rows past m
    if case == "det-M-underflows":
        # H = I, held as two zero rows, and a pair at scale 1e-85: s'Bs, s'y
        # and m22 are near 1e-170, but m11 m22 and m12^2 underflow to 0, so
        # det M = -0.0, where the second row would divide by zero
        H = compact_from(np.zeros((2, 6)))
        Bs = 1e-85 * np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        y = 1e-85 * np.array([2.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    else:
        a = 1.8 if case.startswith("m22-not-positive") else 3.0
        H, Bs, y = _indefinite(), -np.eye(6)[2], -np.array([a, 0.0, 1.0, 0.0, 0.0, 0.0])
    if case.endswith("-with-room"):
        H.rows = np.vstack((H.rows, np.zeros((2, 6))))
    assert len(H.rows) == H.m + 2 * case.endswith("-with-room")
    rows = H.rows
    before = (H.m, rows.shape, rows.copy())
    with pytest.raises(SPDError, match="m22 = .* and det M = "):
        H.update(H @ Bs, y, Bs, 0.5)
    assert H.m == before[0] and H.rows is rows and rows.shape == before[1]
    assert np.array_equal(rows, before[2])
    # the dense b_form on the same H runs the same certificate, before it writes H
    H = _DenseH(compact_dense(H))
    kept = H.H.copy()
    with pytest.raises(SPDError, match="m22 = .* and det M = "):
        H.update(H @ Bs, y, Bs, 0.5)
    assert np.array_equal(H.H, kept)


def test_a_wrong_inertia_ends_the_solve_spd_failure(monkeypatch):
    # f = x'Gx/2 + x_3 from 0, with G = I but G_13 = G_31 = a, and the H above,
    # held compact, dense, or compact with two more rows, zero, in use; R is
    # full in both compact cases, so a certified update would grow it:
    # p_bar = -e_3 descends, the unit step is exact, and the update meets the
    # pair above, for either a and for BFGS (lam = 0, m22 = 2 - a^2) as for
    # two-phase
    def full():
        return compact_from(np.vstack((_indefinite().rows, np.zeros((2, 6)))))

    def dense():
        H = _DenseH(compact_dense(_indefinite()))
        assert np.array_equal(H.H, compact_dense(full()))
        return H

    b = np.eye(6)[2]
    for initial in (_indefinite, dense, full):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_operator", lambda n, cfg, two_phase: initial())
            for solver in SOLVERS:
                for a in (1.8, 3.0):
                    G = np.eye(6)
                    G[0, 2] = G[2, 0] = a
                    f = ObjectiveFunction("indefinite quadratic", 6,
                                          lambda x, G=G: 0.5 * float(x @ G @ x) + x[2],
                                          lambda x, G=G: G @ x + b, np.zeros(6))
                    res = solver(f, f.standard_start, SolverConfig(max_iter=2))
                    assert res.termination == SPD_FAILURE
                    assert res.iterations == 0


def test_bfgs_passes_the_inertia_test_on_every_curvature_pair(monkeypatch):
    # BFGS is lam = 0, where m11 = -0.0 and det M = -(s'y)^2 exactly, so every
    # pair with s'y > 0 passes: n/2 random pairs fill R to n rows
    seen = []
    woodbury_m = solvers._woodbury_m
    monkeypatch.setattr(solvers, "_woodbury_m", lambda *args: seen.append(woodbury_m(*args))
                        or seen[-1])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = 30
        H, B = _CompactH(n), np.eye(n)
        for _ in range(n // 2):
            s, y = curvature_pair(rng, n)
            H.update(s, y, B @ s, 0.0)
            B = b_next(B, B @ s, y, 0.0)
        assert H.m == n
    assert len(seen) == 45
    # M's m12 is s'y, the first value _woodbury_m returns
    assert all(det == -(m12 * m12) for m12, _, _, _, _, det in seen)


def test_a_compact_update_allocates_no_m_by_m_temporary():
    # an update allocates a few vectors of length n or m, and no m x m array
    # and no copy of R, so its peak over what was held before it stays below
    # 2n floats for R's two new rows plus 8n: at n = 300, over 149 updates that
    # each grow R, up to m = 296, where one m x m array is 292n floats and a
    # copy of R 296n
    rng = np.random.default_rng(19)
    n = 300
    tracemalloc.start()
    try:
        H = _CompactH(n)
        peaks = []
        for _ in range(149):
            Bs, y = curvature_pair(rng, n)
            s = H @ Bs
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            H.update(s, y, Bs, 0.5)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert H.m == 298 and H.rows.shape == (298, n)
    assert max(peaks) <= 8 * (2 * n + 8 * n)


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_compact_peak_memory_is_linear_in_k_n(solver):
    # one n x n at n = 2000 is 32 MB; the compact solve holds R (exactly 2k
    # rows, grown in place) and the records, a few n-vectors per iteration
    n = 2000
    f = at_n("Perturbed Quadratic Diagonal", n).objective
    tracemalloc.start()
    try:
        res = solver(f, f.standard_start, SolverConfig(max_iter=n // 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 8 * 8 * res.iterations * n
