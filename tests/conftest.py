"""Session fixtures.  Before numpy loads, numpy's bundled OpenBLAS is pinned to one
thread and to ``PINNED_KERNEL``, under which ``data/suite_counts.csv`` was made and
which ``test_counts.py`` and ``solve_digests.py`` read from here; another kernel
rounds differently and moves rows.  A variable already set wins."""

import os

PINNED_KERNEL = "Haswell"  # needs AVX2 and FMA

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("OPENBLAS_CORETYPE", PINNED_KERNEL)

import pytest  # noqa: E402

from qnbench import SolverConfig, solve_bfgs, solve_two_phase, suite  # noqa: E402
from qnbench.solvers import MODE_H_FORM_LITERAL  # noqa: E402


@pytest.fixture(scope="session")
def pinned_kernel():
    """``PINNED_KERNEL``; ``import conftest`` can find perfbench's own conftest instead."""
    return PINNED_KERNEL


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
