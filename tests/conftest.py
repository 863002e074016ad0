import pytest

from qnbench import MODE_H_FORM_LITERAL, SolverConfig, solve_bfgs, solve_two_phase, suite


@pytest.fixture(scope="session")
def default_runs():
    """One converged-or-not result per (problem, solver) at benchmark defaults."""
    results = {}
    for problem in suite():
        start = problem.objective.standard_start
        results[(problem.name, "bfgs")] = solve_bfgs(problem.objective, start)
        results[(problem.name, "two-phase")] = solve_two_phase(problem.objective, start)
    return results


@pytest.fixture(scope="session")
def h_form_runs():
    """One two-phase ``h_form_literal`` result per problem, otherwise at defaults."""
    cfg = SolverConfig(mode=MODE_H_FORM_LITERAL)
    return {p.name: solve_two_phase(p.objective, p.objective.standard_start, cfg)
            for p in suite()}
