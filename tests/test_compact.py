"""The compact realization H = I - R' diag(sign) R, which BFGS and two-phase
``b_form`` start on from n = COMPACT_MIN_N up.  Below COMPACT_MIN_N every solve
is dense.  A compact solve whose R would outgrow n goes dense once, from H.dense()."""

import math
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
from qnbench.solvers import COMPACT_MIN_N, _b_form, _compact, _CompactH, _realization

from _util import (b_next, compact_from, curvature_pair, iterate_sequence,
                   perturbed_quadratic_diagonal, raydan2, replay)

SOLVERS = [solve_bfgs, solve_two_phase]
SOLVER_IDS = ["bfgs", "two-phase"]


@pytest.mark.parametrize("two_phase", [False, True], ids=SOLVER_IDS)
def test_n_alone_selects_the_realization(two_phase):
    # no option and no budget rule: below COMPACT_MIN_N every solve is dense;
    # from COMPACT_MIN_N up BFGS and two-phase b_form start compact at any
    # max_iter and hand over to their dense update once, _b_form (BFGS is lam = 0),
    # and h_form_literal is dense
    n = COMPACT_MIN_N - 1
    for m in (1, n // 2, 500):
        update, H, work = _realization(n, SolverConfig(max_iter=m), two_phase)
        assert update is _b_form and np.array_equal(H, np.eye(n))
        assert work.shape == (n, n) and not np.shares_memory(H, work)
    n = COMPACT_MIN_N
    for m in (1, n // 2, n // 2 + 1, 500):
        update, H, work = _realization(n, SolverConfig(max_iter=m), two_phase)
        assert update is _compact and isinstance(H, _CompactH) and work is None
    # a compact H that would outgrow n hands over to the dense update on H.dense()
    update, H, work = _realization(n, SolverConfig(), two_phase, _CompactH(n))
    assert update is _b_form and np.array_equal(H, np.eye(n)) and work.shape == (n, n)
    # h_form_literal is dense at every n and budget, and the paper's n = 10 runs are dense
    h_form = _realization(n, SolverConfig(max_iter=1, mode=MODE_H_FORM_LITERAL), True)
    assert h_form[0] is not _compact and isinstance(h_form[1], np.ndarray)
    assert _realization(10, SolverConfig(), two_phase)[0] is _b_form


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
    assert np.array_equal(H.dense(), np.eye(n))
    for _ in range(15):
        Bs, y = curvature_pair(rng, n)
        H, _ = _compact(H, H @ Bs, y, Bs, 0.5, None)
        B = b_next(B, Bs, y, 0.5)
        want = np.linalg.inv(B)
        assert np.abs(H.dense() - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_a_compact_solve_that_outgrows_n_goes_dense_once(monkeypatch, solver):
    # with the threshold at n = 10, Generalized PSC1 starts compact and its
    # sixth applied update would take R past 10 rows: the solve goes dense
    # there, once, and runs the dense update from then on; the replay, which
    # goes dense at the same update, gives psi_next to 1e-9 of psi(B_next)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 10)
    returned = dict.fromkeys(("_compact", "_b_form"), 0)
    for fn in returned:
        def counted(*args, _name=fn, _wrapped=getattr(solvers, fn)):
            out = _wrapped(*args)
            returned[_name] += 1
            return out
        monkeypatch.setattr(solvers, fn, counted)
    densified = []
    dense = _CompactH.dense
    monkeypatch.setattr(_CompactH, "dense", lambda H: densified.append(H.m) or dense(H))
    f = lookup("Generalized PSC1").objective
    cfg = SolverConfig()
    res = solver(f, f.standard_start, cfg)
    assert res.converged
    applied = sum(not r.update_skipped for r in res.trace)
    assert densified == [10]
    assert returned == {"_compact": 5, "_b_form": applied - 5} and applied > 10
    steps = list(replay(f, res, cfg, name))
    assert len(steps) == res.iterations
    want = [psi(B_next) for _, _, _, B_next in steps]
    assert [u.psi_next for u in res.updates] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("build, counts", [
    (perturbed_quadratic_diagonal, {"bfgs": (60, 63, 61), "two-phase": (53, 109, 107)}),
    (raydan2, {"bfgs": (7, 8, 8), "two-phase": (6, 13, 13)}),
], ids=["pqd", "raydan2"])
def test_compact_and_dense_paths_agree(monkeypatch, solver, build, counts):
    # both solvers start compact at n = 200 whatever the budget, so the dense
    # run raises the threshold past n
    f = build(200)
    name = "bfgs" if solver is solve_bfgs else "two-phase"
    compact = solver(f, f.standard_start, SolverConfig())
    monkeypatch.setattr(solvers, "COMPACT_MIN_N", 201)
    assert _realization(200, SolverConfig(), name == "two-phase")[0] is not _compact
    dense = solver(f, f.standard_start, SolverConfig())
    for res in (compact, dense):
        assert res.converged
        assert (res.iterations, res.f_evals, res.g_evals) == counts[name]
    assert np.abs(compact.final_x - dense.final_x).max() <= 1e-6


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("build", [perturbed_quadratic_diagonal, raydan2],
                         ids=["pqd", "raydan2"])
def test_carried_psi_is_psi_of_the_represented_operator(solver, build):
    # the replay accumulates each B_next = B + U C U' from the replayed pair,
    # apart from the compact H, and asserts that the replayed psi_next is the
    # recorded one
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
    H, B = _CompactH(n), np.eye(n)
    for _ in range(12):  # 24 rows: the arrays double from 2 to 32
        Bs, y = curvature_pair(rng, n)
        s = H @ Bs
        H, _ = _compact(H, s, y, Bs, lam, None)
        B = b_next(B, Bs, y, lam)
        for v in rng.standard_normal((3, n)):
            want = np.linalg.solve(B, v)
            assert np.linalg.norm(H @ v - want) <= 1e-10 * np.linalg.norm(want)
    assert H.m == 24 and H.rows.shape[0] == H.sign.size == 32


def test_the_arrays_grow_no_further_than_n():
    # the solve runs compact only while R needs at most n rows, so doubling
    # stops at n: three updates at n = 6 grow the arrays from 2 to 4 to 6, not 8
    rng = np.random.default_rng(13)
    n = 6
    H, B = _CompactH(n), np.eye(n)
    for _ in range(3):
        s, y = curvature_pair(rng, n)
        H, _ = _compact(H, s, y, B @ s, 0.5, None)
        B = b_next(B, B @ s, y, 0.5)
    assert H.m == 6
    assert H.rows.shape == (6, n) and H.sign.size == 6


def _indefinite():
    """The compact H = diag(-1, 1/2, 1, 1) (n = 4), the inverse of no SPD B:
    rows sqrt(2) e_1 and e_2/sqrt(2), both with sign +1."""
    return compact_from([[math.sqrt(2.0), 0.0, 0.0, 0.0], [0.0, math.sqrt(0.5), 0.0, 0.0]],
                        [1.0, 1.0])


# Along Bs = -e_3 and y = -(a e_1 + e_3), the H above gives s = -e_3, so
# s'Bs = 1 and s'y = 1 pass, but y'Hy = 1 - a^2, and at lam = 0.5
# M = [[-1, 1], [1, 3 - a^2]] with det M = a^2 - 4.  a = 1.8 gives
# m22 = -0.24 with det M = -0.76, an M whose second row would be NaN, and a = 3
# gives m22 = -6 with det M = 5.


@pytest.mark.parametrize("case", ["m22-not-positive", "det-M-at-or-above-zero",
                                  "det-M-underflows"])
def test_an_uncertified_m_raises_before_it_writes(case):
    if case == "det-M-underflows":
        # H = I, held as two zero rows, and a pair at scale 1e-85: s'Bs, s'y
        # and m22 are near 1e-170, but m11 m22 and m12^2 underflow to 0, so
        # det M = -0.0, where the second row would divide by zero
        H = compact_from(np.zeros((2, 4)), [1.0, 1.0])
        Bs, y = 1e-85 * np.array([1.0, 2.0, 0.0, 0.0]), 1e-85 * np.array([2.0, 1.0, 1.0, 0.0])
    else:
        a = 1.8 if case == "m22-not-positive" else 3.0
        H, Bs, y = _indefinite(), -np.eye(4)[2], -np.array([a, 0.0, 1.0, 0.0])
    rows, sign = H.rows, H.sign
    before = (H.m, rows.copy(), sign.copy())
    with pytest.raises(SPDError, match="m22 = .* and det M = "):
        _compact(H, H @ Bs, y, Bs, 0.5, None)
    assert H.m == before[0] and H.rows is rows and H.sign is sign
    assert np.array_equal(rows, before[1]) and np.array_equal(sign, before[2])
    # the dense b_form on the same H runs the same certificate, before it
    # writes H or its workspace
    H = H.dense()
    kept, work = H.copy(), np.full_like(H, np.nan)
    with pytest.raises(SPDError, match="m22 = .* and det M = "):
        _b_form(H, H @ Bs, y, Bs, 0.5, work)
    assert np.array_equal(H, kept) and np.isnan(work).all()


def test_a_wrong_inertia_ends_the_solve_spd_failure(monkeypatch):
    # f = x'Gx/2 + x_3 from 0, with G = I but G_13 = G_31 = a, and the H above,
    # held compact (the threshold at n = 4) or dense (its H.dense(), as a
    # compact solve hands over to _b_form): p_bar = -e_3 descends, the unit
    # step is exact, and the update meets the pair above, for either a and
    # for BFGS (lam = 0, m22 = 2 - a^2) as for two-phase
    realization = solvers._realization

    def dense_from_indefinite(n, cfg, two_phase):
        update, H, work = realization(n, cfg, two_phase, _indefinite())
        assert update is _b_form and isinstance(H, np.ndarray)
        return update, H, work

    b = np.eye(4)[2]
    for dense in (False, True):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_CompactH", lambda n: _indefinite())
            if dense:
                patch.setattr(solvers, "_realization", dense_from_indefinite)
            else:
                patch.setattr(solvers, "COMPACT_MIN_N", 4)
            for solver in SOLVERS:
                for a in (1.8, 3.0):
                    G = np.eye(4)
                    G[0, 2] = G[2, 0] = a
                    f = ObjectiveFunction("indefinite quadratic", 4,
                                          lambda x, G=G: 0.5 * float(x @ G @ x) + x[2],
                                          lambda x, G=G: G @ x + b, np.zeros(4))
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
            H, _ = _compact(H, s, y, B @ s, 0.0, None)
            B = b_next(B, B @ s, y, 0.0)
        assert H.m == n
    assert len(seen) == 45
    assert all(det == -(m12 * m12) for _, _, m12, _, det in seen)


def test_a_compact_update_allocates_no_m_by_m_temporary():
    # an update allocates a few vectors of length n or m, and the solve keeps
    # m <= n, so its peak does not grow with m past a few n: at n = 300 one
    # update peaks below 8n floats with R at 20 rows and at 296, where one
    # m x m array at m = 296 is 292n floats
    rng = np.random.default_rng(19)
    n = 300
    H = _CompactH(n)
    peaks = {}
    for k in range(149):
        Bs, y = curvature_pair(rng, n)
        if k in (10, 148):
            H.reserve(2)
            s = H @ Bs
            tracemalloc.start()
            try:
                H, _ = _compact(H, s, y, Bs, 0.5, None)
                peaks[H.m - 2] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        else:
            H, _ = _compact(H, H @ Bs, y, Bs, 0.5, None)
    assert sorted(peaks) == [20, 296]
    assert max(peaks.values()) < 8 * 8 * n


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_compact_peak_memory_is_linear_in_k_n(solver):
    # one n x n at n = 2000 is 32 MB; the compact solve holds R (2k rows,
    # doubled when full, up to n), its signs and the records, a few n-vectors
    # per iteration
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
