"""Per-layer spans for the traced run.

The traced run swaps each layer's public functions for timing wrappers, at
the names their callers look them up by: ``qnbench.solvers`` imports
``wolfe_search``, ``cholesky``, ``solve_spd`` and ``inverse_spd`` by name,
``inverse_spd`` calls ``cholesky`` and ``solve_spd`` inside ``qnbench.linalg``,
``psi`` calls ``cholesky`` inside ``qnbench.diagnostics``, and ``run_suite``
finds the solvers in ``qnbench.bench.SOLVER_FUNCS``.  The objectives are
wrapped as counting ``ObjectiveFunction``s.  Nothing in the library changes;
the untimed passes never see a wrapper.

A span's self time is its duration minus the time of the spans it encloses,
so each layer is charged only for its own work: ``solvers.loop`` is the
solver's bookkeeping and recording, ``linesearch`` the search minus the
objective calls it makes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from qnbench import bench, diagnostics, linalg, solvers
from qnbench.linesearch import ARMIJO_ONLY, EXHAUSTED, WOLFE_SATISFIED
from qnbench.objectives import ObjectiveFunction

# (module, attribute, span name)
PATCHES = (
    (solvers, "wolfe_search", "linesearch"),
    (solvers, "cholesky", "linalg.cholesky"),
    (solvers, "solve_spd", "linalg.solve_spd"),
    (solvers, "inverse_spd", "linalg.inverse_spd"),
    (linalg, "cholesky", "linalg.cholesky"),
    (linalg, "solve_spd", "linalg.solve_spd"),
    (diagnostics, "cholesky", "linalg.cholesky"),
    (solvers, "bfgs_update_B", "solvers.update"),
    (solvers, "bfgs_update_H", "solvers.update"),
    (solvers, "two_phase_combine", "solvers.update"),
    (solvers, "combine_H_literal", "solvers.update"),
    (diagnostics, "psi", "diagnostics.psi"),
    (diagnostics, "diagnose_run", "diagnostics.diagnose_run"),
    (bench, "emit_table", "bench.report"),
    (bench, "dolan_more", "bench.report"),
    (bench, "profile_svg", "bench.report"),
)


class Tracer:
    """Calls and self time per span name, plus line-search outcomes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outcomes = defaultdict(int)
        self.trials = 0
        self._open = []  # time covered by the children of each open span

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.outcomes.clear()
        self.trials = 0

    def wrap(self, name, fn, observe=None):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(value)
            return value

        return span

    def _line_search_outcome(self, outcome):
        self.outcomes[outcome.status] += 1
        self.trials += outcome.f_evals

    def objective(self, objective: ObjectiveFunction) -> ObjectiveFunction:
        """``objective`` with counted, timed ``evaluate`` and ``gradient``."""
        return ObjectiveFunction(objective.name, objective.dimension,
                                 self.wrap("objectives.f", objective.evaluate),
                                 self.wrap("objectives.g", objective.gradient),
                                 objective.standard_start)

    @contextmanager
    def installed(self):
        """Patch every layer's public functions for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        saved_solvers = dict(bench.SOLVER_FUNCS)
        try:
            for module, attr, name in PATCHES:
                observe = self._line_search_outcome if name == "linesearch" else None
                setattr(module, attr, self.wrap(name, getattr(module, attr), observe))
            for key, fn in saved_solvers.items():
                bench.SOLVER_FUNCS[key] = self.wrap("solvers.loop", fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            bench.SOLVER_FUNCS.update(saved_solvers)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything traced since the last reset."""
        ms = {name: 1e3 * s for name, s in self.self_s.items()}
        searches = sum(self.outcomes.values())
        return {
            "objectives.f.calls": self.calls["objectives.f"],
            "objectives.g.calls": self.calls["objectives.g"],
            "objectives.f.ms": ms.get("objectives.f", 0.0),
            "objectives.g.ms": ms.get("objectives.g", 0.0),
            "linesearch.searches": searches,
            "linesearch.trials": self.trials,
            "linesearch.wolfe_satisfied": self.outcomes[WOLFE_SATISFIED],
            "linesearch.armijo_only": self.outcomes[ARMIJO_ONLY],
            "linesearch.exhausted": self.outcomes[EXHAUSTED],
            "linesearch.accept_ratio": (self.outcomes[WOLFE_SATISFIED] / self.trials
                                        if self.trials else 0.0),
            "linesearch.self_ms": ms.get("linesearch", 0.0),
            "linalg.cholesky.calls": self.calls["linalg.cholesky"],
            "linalg.cholesky.ms": ms.get("linalg.cholesky", 0.0),
            "linalg.solve_spd.calls": self.calls["linalg.solve_spd"],
            "linalg.solve_spd.ms": ms.get("linalg.solve_spd", 0.0),
            "linalg.inverse_spd.calls": self.calls["linalg.inverse_spd"],
            "linalg.inverse_spd.ms": ms.get("linalg.inverse_spd", 0.0),
            "solvers.update.calls": self.calls["solvers.update"],
            "solvers.update.ms": ms.get("solvers.update", 0.0),
            "solvers.loop_self_ms": ms.get("solvers.loop", 0.0),
            "diagnostics.diagnose_run.ms": (ms.get("diagnostics.diagnose_run", 0.0)
                                            + ms.get("diagnostics.psi", 0.0)),
            "diagnostics.psi.calls": self.calls["diagnostics.psi"],
            "bench.report.ms": ms.get("bench.report", 0.0),
        }
