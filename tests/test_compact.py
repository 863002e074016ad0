"""The compact realization B = I + U C U', which two-phase ``b_form`` starts
on from n = COMPACT_MIN_N up, and which BFGS runs there when the budget fits
the dimension (2 max_iter <= n).  Below COMPACT_MIN_N every solve is dense.  A
two-phase solve whose U would outgrow n goes dense once, from H = I - U'K^{-1}U."""

import tracemalloc

import numpy as np
import pytest

from qnbench import (
    MODE_H_FORM_LITERAL,
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
from qnbench.solvers import COMPACT_MIN_N, _b_form, _bfgs, _compact, _CompactH, _realization

from _util import (compact_from, curvature_pair, dense_B, iterate_sequence,
                   perturbed_quadratic_diagonal, raydan2, replay)

SOLVERS = [solve_bfgs, solve_two_phase]
SOLVER_IDS = ["bfgs", "two-phase"]


@pytest.mark.parametrize("two_phase", [False, True], ids=SOLVER_IDS)
def test_the_budget_selects_the_realization(two_phase):
    # no option: below COMPACT_MIN_N every budget is dense; from COMPACT_MIN_N
    # up two-phase b_form starts compact at any budget, BFGS is compact when
    # 2 max_iter <= n and dense one iteration more, and h_form_literal is dense
    dense_update = _b_form if two_phase else _bfgs
    n = COMPACT_MIN_N - 1
    for m in (1, n // 2, 500):
        update, H, work = _realization(n, SolverConfig(max_iter=m), two_phase)
        assert update is dense_update and np.array_equal(H, np.eye(n))
        assert work.shape == (n, n) and not np.shares_memory(H, work)
    n = COMPACT_MIN_N
    compact, more = (_realization(n, SolverConfig(max_iter=m), two_phase)
                     for m in (n // 2, n // 2 + 1))
    assert compact[0] is _compact and isinstance(compact[1], _CompactH) and compact[2] is None
    assert more[0] is (_compact if two_phase else _bfgs)
    # a compact H that would outgrow n hands over to the dense update on H.dense()
    update, H, work = _realization(n, SolverConfig(), two_phase, compact[1])
    assert update is dense_update and np.array_equal(H, np.eye(n)) and work.shape == (n, n)
    # h_form_literal is dense at every n and budget, and the paper's n = 10 runs are dense
    h_form = _realization(n, SolverConfig(max_iter=1, mode=MODE_H_FORM_LITERAL), True)
    assert h_form[0] is not _compact and isinstance(h_form[1], np.ndarray)
    assert _realization(10, SolverConfig(), two_phase)[0] is dense_update


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
    H = _CompactH(n)
    assert np.array_equal(H.dense(), np.eye(n))
    for _ in range(15):
        Bs, y = curvature_pair(rng, n)
        H, _ = _compact(H, H @ Bs, y, Bs, 0.5, None)
        want = np.linalg.inv(dense_B(H))
        assert np.abs(H.dense() - want).max() <= 1e-10 * np.abs(want).max()


def test_a_two_phase_solve_that_outgrows_n_goes_dense_once(monkeypatch):
    # with the threshold at n = 10, Generalized PSC1 starts compact and its
    # sixth applied update would take U past 10 columns: the solve goes dense
    # there, once, and runs b_form from then on; the replay, which goes dense
    # at the same update, gives psi_next to 1e-9 of psi(B_next)
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 10)
    returned = dict.fromkeys(("_compact", "_b_form"), 0)
    for name in returned:
        def counted(*args, _name=name, _wrapped=getattr(solvers, name)):
            out = _wrapped(*args)
            returned[_name] += 1
            return out
        monkeypatch.setattr(solvers, name, counted)
    densified = []
    dense = _CompactH.dense
    monkeypatch.setattr(_CompactH, "dense", lambda H: densified.append(H.m) or dense(H))
    f = lookup("Generalized PSC1").objective
    cfg = SolverConfig()
    res = solve_two_phase(f, f.standard_start, cfg)
    assert res.converged
    applied = sum(not r.update_skipped for r in res.trace)
    assert densified == [10]
    assert returned == {"_compact": 5, "_b_form": applied - 5} and applied > 10
    steps = list(replay(f, res, cfg, "two-phase"))
    assert len(steps) == res.iterations
    want = [psi(B_next) for _, _, _, B_next in steps]
    assert [u.psi_next for u in res.updates] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("build, counts", [
    (perturbed_quadratic_diagonal, {"bfgs": (60, 63, 61), "two-phase": (53, 109, 107)}),
    (raydan2, {"bfgs": (7, 8, 8), "two-phase": (6, 13, 13)}),
], ids=["pqd", "raydan2"])
def test_compact_and_dense_paths_agree(monkeypatch, solver, build, counts):
    # two-phase starts compact at n = 200 whatever the budget, so its dense run
    # raises the threshold past n
    f = build(200)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    compact = solver(f, f.standard_start, SolverConfig(max_iter=100))
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 201)
    assert _realization(200, SolverConfig(max_iter=101), name == "two-phase")[0] is not _compact
    dense = solver(f, f.standard_start, SolverConfig(max_iter=101))
    for res in (compact, dense):
        assert res.converged
        assert (res.iterations, res.f_evals, res.g_evals) == counts[name]
    assert np.abs(compact.final_x - dense.final_x).max() <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("build", [perturbed_quadratic_diagonal, raydan2],
                         ids=["pqd", "raydan2"])
def test_carried_psi_is_psi_of_the_represented_operator(solver, build):
    # the replay rebuilds each B_next = I + U C U' from the compact H the
    # update leaves, and asserts that the replayed psi_next is the recorded one
    f = build(200)
    cfg = SolverConfig(max_iter=100)
    res = solver(f, f.standard_start, cfg)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    steps = list(replay(f, res, cfg, name))
    assert len(steps) == res.iterations
    want = [psi(B_next) for _, _, _, B_next in steps]
    assert [u.psi_next for u in res.updates] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
def test_h_times_v_is_the_inverse_of_the_represented_operator(lam):
    rng = np.random.default_rng(11)
    n = 50
    H = _CompactH(n)
    for _ in range(12):  # 24 columns: the arrays double from 2 to 32
        Bs, y = curvature_pair(rng, n)
        s = H @ Bs
        H, _ = _compact(H, s, y, Bs, lam, None)
        B = dense_B(H)
        for v in rng.standard_normal((3, n)):
            want = np.linalg.solve(B, v)
            assert np.linalg.norm(H @ v - want) <= 1e-10 * np.linalg.norm(want)
    assert H.m == 24 and H.c_inv.size == 32


def test_the_arrays_grow_no_further_than_n():
    # the solve runs compact only while U needs at most n columns, so doubling
    # stops at n: three updates at n = 6 grow the arrays from 2 to 4 to 6, not 8
    rng = np.random.default_rng(13)
    n = 6
    H = _CompactH(n)
    for _ in range(3):
        s, y = curvature_pair(rng, n)
        H, _ = _compact(H, s, y, dense_B(H) @ s, 0.5, None)
    assert H.m == 6
    assert H.rows.shape[0] <= 6 and H.c_inv.size <= 6 and H.k_inv.shape[0] <= 6


def _wrong_inertia():
    """A compact H whose B = I - 2 e_1 e_1' + e_2 e_2' is indefinite (n = 4):
    C^{-1} = diag(-1/2, 1) and K = diag(1/2, 2), with no negative eigenvalue."""
    return compact_from(np.eye(4)[:, :2], [-0.5, 1.0])


def test_a_schur_complement_with_det_at_or_above_zero_raises():
    # H = diag(-1, 1/2, 1, 1); along Bs = -e_3 and y = -(3 e_1 + e_3),
    # s'Bs = 1 and s'y = 1 pass, but y'Hy = -8 makes
    # S = [[-1, 1/sqrt(10)], [1/sqrt(10), -3/5]] with det S = 1/2
    H = _wrong_inertia()
    before = (H.m, H.rows.copy(), H.c_inv.copy(), H.k_inv.copy())
    Bs, y = -np.eye(4)[2], -np.array([3.0, 0.0, 1.0, 0.0])
    with pytest.raises(SPDError, match="Schur complement det"):
        _compact(H, H @ Bs, y, Bs, 0.5, None)
    assert H.m == before[0]
    for got, want in zip((H.rows, H.c_inv, H.k_inv), before[1:]):
        assert np.array_equal(got, want)


def test_a_wrong_inertia_ends_the_solve_spd_failure(monkeypatch):
    # f = x'Gx/2 + x_3 from 0, with the threshold at n = 4 and the compact H
    # above: p_bar = -e_3 descends, the unit step is exact, and the update
    # meets the Schur complement above
    G = np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [3.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    b = np.eye(4)[2]
    f = ObjectiveFunction("indefinite quadratic", 4, lambda x: 0.5 * float(x @ G @ x) + x[2],
                          lambda x: G @ x + b, np.zeros(4))
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 4)
    monkeypatch.setattr(solvers, "_CompactH", lambda n: _wrong_inertia())
    res = solve_two_phase(f, f.standard_start, SolverConfig(max_iter=2))
    assert res.termination == SPD_FAILURE
    assert res.iterations == 0


def test_a_compact_update_allocates_no_m_by_m_temporary():
    # K^{-1} is updated in place in row blocks: at m = 220 columns (two-phase
    # Hager n = 300 ends at 220), with room for two more, one update allocates
    # a few n-vectors, one block of rows of K^{-1} and numpy's iteration
    # buffers for the strided add, below the m x m matrix of a whole-matrix update
    rng = np.random.default_rng(19)
    n = 300
    H = _CompactH(n)
    for _ in range(110):
        Bs, y = curvature_pair(rng, n)
        H, _ = _compact(H, H @ Bs, y, Bs, 0.5, None)
    m = H.m
    assert m >= 128 and H.c_inv.size >= m + 2
    Bs, y = curvature_pair(rng, n)
    s = H @ Bs
    tracemalloc.start()
    try:
        H, _ = _compact(H, s, y, Bs, 0.5, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m == m + 2
    assert peak < 8 * m * m


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_compact_peak_memory_is_linear_in_k_n(solver):
    # one n x n at n = 2000 is 32 MB; the compact solve holds U (2k columns,
    # doubled when full, up to n), K^{-1} and the records, a few n-vectors per iteration
    n = 2000
    f = perturbed_quadratic_diagonal(n)
    tracemalloc.start()
    try:
        res = solver(f, f.standard_start, SolverConfig(max_iter=n // 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 16 * 8 * res.iterations * n
