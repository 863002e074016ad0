#!/usr/bin/env python3
"""Print one SHA-256 per solve, to show that a change leaves every solve bit-identical.

    python3 tests/solve_digests.py > digests.txt

Run it on two trees and compare the outputs with ``diff``.  A digest covers
the solve's termination, its iteration, f and g counts, the final f and
``||g||`` as ``float.hex``, the final x's bytes, and each record's named
fields: the bytes of x, g, p and p_bar, f, ``psi_next`` and the coupling as
``float.hex``, the step lengths, the skip flag and the statuses.  It reads
the fields, not the array that holds them, so it compares two trees whose
records lay their values out differently.  The solves are the 30 suite
problems under BFGS, two-phase ``b_form`` and two-phase ``h_form_literal``,
and Hager, Perturbed Quadratic Diagonal and Raydan2 from ``qnbench.suite``'s
builders of n at n = 100 and 300 under BFGS and ``b_form``, where the compact
operator runs; each from its standard start x0 and from 10 x0.  The last line
digests all the lines above it.  The library is imported from ``src/`` next to
this directory, with one BLAS thread and, unless ``OPENBLAS_CORETYPE`` is set,
the OpenBLAS kernel that the tests' ``conftest.py`` pins: two trees compare
only under the same kernel.  pytest does not collect this file.

Each solve holds its own ``np.errstate``, so no solve here writes a
RuntimeWarning to stderr, and CI runs

    python -W error::RuntimeWarning tests/solve_digests.py > /dev/null

to fail on any floating-point warning that escapes a solve.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
import conftest  # noqa: E402,F401  pins the BLAS kernel before numpy loads

import numpy as np  # noqa: E402

from qnbench import SolverConfig, solve_bfgs, solve_two_phase, suite  # noqa: E402
from qnbench.solvers import MODE_H_FORM_LITERAL  # noqa: E402

from _util import hager, perturbed_quadratic_diagonal, raydan2  # noqa: E402

H_FORM = SolverConfig(mode=MODE_H_FORM_LITERAL)


def _hex(value):
    return "-" if value is None else float.hex(float(value))


def digest(result) -> str:
    """SHA-256 of everything a solve returns, in a fixed order."""
    h = hashlib.sha256()
    h.update(" ".join([result.termination, str(result.iterations), str(result.f_evals),
                       str(result.g_evals), _hex(result.final_f),
                       _hex(result.final_grad_norm)]).encode())
    h.update(np.ascontiguousarray(result.final_x, dtype=float).tobytes())
    for r in result.trace:
        for v in (r.x, r.g, r.p, r.p_bar):
            h.update(b"-" if v is None else v.tobytes())
        h.update(" ".join([_hex(r.f), _hex(r.psi_next), _hex(r.coupling), _hex(r.alpha_bar),
                           _hex(r.alpha), str(r.update_skipped), str(r.status_bar),
                           r.status]).encode())
    return h.hexdigest()


def solves():
    """(label, thunk) of every solve, in a fixed order."""
    runs = [("bfgs", solve_bfgs, None), ("b_form", solve_two_phase, None),
            ("h_form_literal", solve_two_phase, H_FORM)]
    objectives = [(p.objective, runs) for p in suite()]
    objectives += [(make(n), runs[:2]) for make in (hager, perturbed_quadratic_diagonal, raydan2)
                   for n in (100, 300)]
    for objective, objective_runs in objectives:
        for scale in (1.0, 10.0):
            x0 = scale * objective.standard_start
            for name, solve, cfg in objective_runs:
                label = f"{objective.name} | {name} | {scale:g} x0"
                yield label, lambda o=objective, s=solve, x=x0, c=cfg: s(o, x, c)


def main():
    total = hashlib.sha256()
    for label, run in solves():
        line = f"{digest(run())}  {label}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
