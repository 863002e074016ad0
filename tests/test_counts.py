"""The default-config suite runs keep their termination and counts.

``data/suite_counts.csv`` pins (termination, iterations, f_evals, g_evals) of
the 90 suite runs at the library defaults: BFGS, two-phase ``b_form`` and
two-phase ``h_form_literal`` on each of the 30 problems.  A change that moves
a count regenerates the file and lists every moved row in CHANGES.md.
"""

import csv
import io
import sys
from pathlib import Path

from qnbench import SolverConfig, solve_bfgs, solve_two_phase, suite
from qnbench.solvers import MODE_B_FORM, MODE_H_FORM_LITERAL

COUNTS = Path(__file__).resolve().parent / "data" / "suite_counts.csv"
HEADER = ("problem", "solver", "mode", "termination", "iterations", "f_evals", "g_evals")


def count_rows(runs):
    """CSV rows of ``(problem, solver, mode, result)`` runs, all fields as text."""
    return [(problem, solver, mode, r.termination, str(r.iterations), str(r.f_evals),
             str(r.g_evals)) for problem, solver, mode, r in runs]


def _read_pinned():
    with COUNTS.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == HEADER
    return [tuple(row) for row in rows[1:]]


def test_suite_counts_match_the_pinned_file(default_runs, h_form_runs):
    """Regenerate with ``PYTHONPATH=src python tests/test_counts.py > tests/data/suite_counts.csv``."""
    runs = [(name, solver, "" if solver == "bfgs" else MODE_B_FORM, result)
            for (name, solver), result in default_runs.items()]
    runs += [(name, "two-phase", MODE_H_FORM_LITERAL, result)
             for name, result in h_form_runs.items()]
    measured = {row[:3]: row[3:] for row in count_rows(runs)}
    pinned = {row[:3]: row[3:] for row in _read_pinned()}
    assert len(pinned) == 90
    assert measured.keys() == pinned.keys()
    moved = [f"{' / '.join(key)}: {pinned[key]} -> {measured[key]}"
             for key in pinned if measured[key] != pinned[key]]
    assert not moved, "rows moved:\n" + "\n".join(moved)


def main():
    h_form = SolverConfig(mode=MODE_H_FORM_LITERAL)
    runs = []
    for problem in suite():
        f, x0 = problem.objective, problem.objective.standard_start
        runs.append((problem.name, "bfgs", "", solve_bfgs(f, x0)))
        runs.append((problem.name, "two-phase", MODE_B_FORM, solve_two_phase(f, x0)))
        runs.append((problem.name, "two-phase", MODE_H_FORM_LITERAL,
                     solve_two_phase(f, x0, h_form)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(count_rows(runs))
    sys.stdout.write(out.getvalue())


if __name__ == "__main__":
    main()
