import pytest

from qnbench import SolverConfig, solve_bfgs, solve_two_phase, suite


@pytest.fixture(scope="session")
def default_runs():
    """One converged-or-not result per (problem, solver) at benchmark defaults,
    keeping the operators."""
    cfg = SolverConfig(keep_operators=True)
    results = {}
    for problem in suite():
        start = problem.objective.standard_start
        results[(problem.name, "bfgs")] = solve_bfgs(problem.objective, start, cfg)
        results[(problem.name, "two-phase")] = solve_two_phase(problem.objective, start, cfg)
    return results
