"""Two-phase quasi-Newton solver, BFGS baseline, benchmark suite, and profiles.

The top level holds what the README's Library section uses and the types of
the values those names take or return.  Every other name is imported from its
own module: ``qnbench.bench`` (runs, table, profiles), ``qnbench.linalg``,
``qnbench.linesearch``, and the update primitives in ``qnbench.solvers``.
"""

from qnbench.diagnostics import (
    ConvergenceDiagnostics,
    diagnose_run,
    psi,
    superlinear_ratio_series,
)
from qnbench.linesearch import WolfeParams
from qnbench.objectives import GradientCheckReport, ObjectiveFunction, check_gradient
from qnbench.solvers import (
    CONVERGED,
    LINE_SEARCH_EXHAUSTED,
    MAX_ITER,
    MODE_B_FORM,
    MODE_H_FORM_LITERAL,
    NON_FINITE,
    SPD_FAILURE,
    IterateRecord,
    SolveResult,
    SolverConfig,
    UpdateRecord,
    solve_bfgs,
    solve_two_phase,
)
from qnbench.suite import KnownOptimum, SuiteProblem, UnknownProblemError, lookup, suite

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "ConvergenceDiagnostics",
    "GradientCheckReport",
    "IterateRecord",
    "KnownOptimum",
    "LINE_SEARCH_EXHAUSTED",
    "MAX_ITER",
    "MODE_B_FORM",
    "MODE_H_FORM_LITERAL",
    "NON_FINITE",
    "ObjectiveFunction",
    "SPD_FAILURE",
    "SolveResult",
    "SolverConfig",
    "SuiteProblem",
    "UnknownProblemError",
    "UpdateRecord",
    "WolfeParams",
    "check_gradient",
    "diagnose_run",
    "lookup",
    "psi",
    "solve_bfgs",
    "solve_two_phase",
    "suite",
    "superlinear_ratio_series",
]
