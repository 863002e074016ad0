"""The benchmark's workloads and one pass over each.

A pass drives the library only through its public functions: ``run_suite``
runs every (problem, solver) solve once and times it, and on ``suite10`` the
pass goes on to the comparison table, both performance profiles, their SVG
plots and ``diagnose_run`` on every two-phase run, as ``qnbench bench`` and
``qnbench profile`` would.  The calls go through the module attributes
(``qb.run_suite``, ``qd.diagnose_run``) so that the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from qnbench import bench as qb
from qnbench import diagnostics as qd
from qnbench.objectives import ObjectiveFunction, check_gradient, default_check_points
from qnbench.solvers import CONVERGED, MODE_H_FORM_LITERAL, SolverConfig
from qnbench.suite import KnownOptimum, SuiteProblem, suite

SOLVERS = ("bfgs", "two-phase")
B_FORM = SolverConfig()  # the library defaults: lam 0.5, tol 1e-6, max_iter 500
H_FORM = SolverConfig(mode=MODE_H_FORM_LITERAL)
PROFILE_METRICS = ("iterations", "time")


# --- n-parametric suite functions with a closed-form optimum ----------------
# Andrei (2008) defines these for any n.  Each builder returns the objective
# at its standard start and the optimum, worked out by hand: the gradients
# vanish where exp(x_i) = sqrt(i) (Hager), at x = 0 (Perturbed Quadratic
# Diagonal, a positive definite quadratic) and where exp(x_i) = 1 (Raydan2).


def _hager(n):
    root_i = np.sqrt(np.arange(1.0, n + 1.0))

    def f(x):
        return float(np.sum(np.exp(x) - root_i * x))

    def g(x):
        return np.exp(x) - root_i

    x_star = np.log(root_i)
    f_star = float(np.sum(root_i * (1.0 - np.log(root_i))))
    return ObjectiveFunction(f"Hager n={n}", n, f, g, np.ones(n)), KnownOptimum(x_star, f_star)


def _perturbed_quadratic_diagonal(n):
    i = np.arange(1.0, n + 1.0)

    def f(x):
        s = float(np.sum(x))
        return float(s * s / 100.0 + np.sum(x**2 / i))

    def g(x):
        return 2.0 * x / i + float(np.sum(x)) / 50.0

    objective = ObjectiveFunction(f"Perturbed Quadratic Diagonal n={n}", n, f, g,
                                  np.full(n, 0.5))
    return objective, KnownOptimum(np.zeros(n), 0.0)


def _raydan2(n):
    def f(x):
        return float(np.sum(np.exp(x) - x))

    def g(x):
        return np.exp(x) - 1.0

    return ObjectiveFunction(f"Raydan2 n={n}", n, f, g, np.ones(n)), KnownOptimum(np.zeros(n), float(n))


LARGE_N = ((_hager, 300), (_perturbed_quadratic_diagonal, 300), (_raydan2, 1000))


def large_n_problems() -> list[SuiteProblem]:
    """The large-n problems, gradient-checked the way ``suite()`` checks its own."""
    problems = []
    for build, n in LARGE_N:
        objective, optimum = build(n)
        report = check_gradient(objective, default_check_points(objective))
        if not report.passed:
            raise RuntimeError(f"{objective.name}: gradient check failed "
                               f"(rel error {report.max_rel_error:.3e})")
        problems.append(SuiteProblem(objective, 0, 0, optimum))
    return problems


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """One ``run_suite`` call: every solver on every problem."""

    problems: tuple[SuiteProblem, ...]
    solvers: tuple[str, ...]
    cfg: SolverConfig


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    report: bool  # table, profiles, SVG and diagnose_run after the solves
    interpreter_bound: bool  # time goes to Python and numpy dispatch (speed.py)

    @property
    def problems(self):
        return [p for group in self.groups for p in group.problems]

    def map_objectives(self, fn) -> "Workload":
        """The same workload with ``fn(objective)`` in place of each objective."""
        groups = tuple(
            dataclasses.replace(g, problems=tuple(
                dataclasses.replace(p, objective=fn(p.objective)) for p in g.problems))
            for g in self.groups)
        return dataclasses.replace(self, groups=groups)


WORKLOADS = ("suite10", "hform10", "large_n")


def build(name: str, seed: int = 0, perturb: float = 0.0) -> Workload:
    """Workload ``name``; ``perturb > 0`` moves every start point by
    ``perturb`` times a standard normal vector drawn from ``seed``."""
    if name == "suite10":
        workload = Workload(name, (Group(suite(), SOLVERS, B_FORM),), report=True,
                            interpreter_bound=True)
    elif name == "hform10":
        workload = Workload(name, (Group(suite(), ("two-phase",), H_FORM),), report=False,
                            interpreter_bound=True)
    elif name == "large_n":
        # One group per solve, so that a pass holds one solve's records at a time.
        workload = Workload(name, tuple(Group((p,), (s,), B_FORM)
                                        for p in large_n_problems() for s in SOLVERS),
                            report=False, interpreter_bound=False)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if perturb > 0.0:
        rng = np.random.default_rng(seed)

        def moved(objective):
            start = objective.standard_start + perturb * rng.standard_normal(objective.dimension)
            return dataclasses.replace(objective, standard_start=start)

        workload = workload.map_objectives(moved)
    return workload


# --- one pass ----------------------------------------------------------------


@dataclass(frozen=True)
class Solve:
    """What a pass keeps of one solve; ``termination`` is None if it raised."""

    termination: str | None
    iterations: int
    f_evals: int
    g_evals: int
    final_f: float
    ms: float

    @property
    def converged(self) -> bool:
        return self.termination == CONVERGED

    def signature(self):
        """Everything a repeat of the solve must reproduce exactly."""
        return (self.termination, self.iterations, self.f_evals, self.g_evals,
                self.final_f)


@dataclass
class PassOutput:
    solves: dict  # (problem, solver) -> Solve
    records: list
    curves: dict  # profile metric -> list[ProfileCurve]; suite10 only
    diagnostics: dict  # (problem, "two-phase") -> ConvergenceDiagnostics; suite10 only


def _solve(record, result):
    if result is None:
        return Solve(None, record.iterations, 0, 0, math.nan, record.median_time_ms)
    return Solve(result.termination, result.iterations, result.f_evals, result.g_evals,
                 result.final_f, record.median_time_ms)


def _shuffled(items, rng):
    items = list(items)
    return items if rng is None else [items[i] for i in rng.permutation(len(items))]


def run_pass(workload: Workload, references: dict, rng=None, inspect=None) -> PassOutput:
    """One pass over ``workload``.

    ``rng`` shuffles the order of the groups and of the problems in each
    group; the solves do not depend on it.  ``inspect(key, result)`` sees each
    ``SolveResult`` (None when the solver raised) before the pass drops it.
    ``references`` maps a problem name to the optimum ``diagnose_run`` measures
    the error ratios against.
    """
    out = PassOutput({}, [], {}, {})
    kept = {}
    for group in _shuffled(workload.groups, rng):
        results = {}
        records = qb.run_suite(_shuffled(group.problems, rng), group.solvers, group.cfg,
                               runs=1, results=results)
        for record in records:
            key = (record.problem, record.solver)
            out.solves[key] = _solve(record, results.get(key))
            if inspect is not None:
                inspect(key, results.get(key))
        out.records += records
        if workload.report:
            kept.update(results)
    if workload.report:
        qb.emit_table(out.records)
        for metric in PROFILE_METRICS:
            out.curves[metric] = qb.dolan_more(out.records, metric)
            qb.profile_svg(out.curves[metric])
        for key, result in kept.items():
            if key[1] == "two-phase":
                out.diagnostics[key] = qd.diagnose_run(result, references[key[0]].x)
    return out
