"""The compact realization B = I + U C U', which BFGS and two-phase ``b_form``
run when the budget fits the dimension (2 max_iter <= n)."""

import tracemalloc

import numpy as np
import pytest

from qnbench import (
    SPD_FAILURE,
    ObjectiveFunction,
    SolverConfig,
    psi,
    solve_bfgs,
    solve_two_phase,
)
from qnbench import solvers
from qnbench.linalg import SPDError
from qnbench.solvers import _compact, _CompactH, _realization

from _util import (compact_from, curvature_pair, dense_B, perturbed_quadratic_diagonal, raydan2,
                   replay)

SOLVERS = [solve_bfgs, solve_two_phase]
SOLVER_IDS = ["bfgs", "two-phase"]


@pytest.mark.parametrize("two_phase", [False, True], ids=SOLVER_IDS)
def test_the_budget_selects_the_realization(two_phase):
    # no option: at n = 200, 2 max_iter <= n is compact and one iteration more is dense
    compact, dense = (_realization(200, SolverConfig(max_iter=m), two_phase) for m in (100, 101))
    assert compact[0] is _compact and isinstance(compact[1], _CompactH)
    assert dense[0] is not _compact and isinstance(dense[1], np.ndarray)
    assert np.array_equal(dense[1], np.eye(200))


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("build, counts", [
    (perturbed_quadratic_diagonal, {"bfgs": (60, 63, 61), "two-phase": (53, 109, 107)}),
    (raydan2, {"bfgs": (7, 8, 8), "two-phase": (6, 13, 13)}),
], ids=["pqd", "raydan2"])
def test_compact_and_dense_paths_agree(solver, build, counts):
    f = build(200)
    compact, dense = (solver(f, f.standard_start, SolverConfig(max_iter=m)) for m in (100, 101))
    name = "bfgs" if solver is solve_bfgs else "two-phase"
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
        H, _ = _compact(H, s, y, Bs, lam)
        B = dense_B(H)
        for v in rng.standard_normal((3, n)):
            want = np.linalg.solve(B, v)
            assert np.linalg.norm(H @ v - want) <= 1e-10 * np.linalg.norm(want)
    assert H.m == 24 and H.c_inv.size == 32


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
        _compact(H, H @ Bs, y, Bs, 0.5)
    assert H.m == before[0]
    for got, want in zip((H.rows, H.c_inv, H.k_inv), before[1:]):
        assert np.array_equal(got, want)


def test_a_wrong_inertia_ends_the_solve_spd_failure(monkeypatch):
    # f = x'Gx/2 + x_3 from 0, with the H above: p_bar = -e_3 descends, the
    # unit step is exact, and the update meets the Schur complement above
    G = np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [3.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    b = np.eye(4)[2]
    f = ObjectiveFunction("indefinite quadratic", 4, lambda x: 0.5 * float(x @ G @ x) + x[2],
                          lambda x: G @ x + b, np.zeros(4))
    monkeypatch.setattr(solvers, "_CompactH", lambda n: _wrong_inertia())
    res = solve_two_phase(f, f.standard_start, SolverConfig(max_iter=2))
    assert res.termination == SPD_FAILURE
    assert res.iterations == 0


@pytest.mark.parametrize("solver", SOLVERS, ids=SOLVER_IDS)
def test_compact_peak_memory_is_linear_in_k_n(solver):
    # one n x n at n = 2000 is 32 MB; the compact solve holds U (2k columns,
    # doubled when full), K^{-1} and the records, a few n-vectors per iteration
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
