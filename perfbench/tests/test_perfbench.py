"""Tests of the benchmark itself: its manifest, its output, its tracer and
that every correctness check rejects a deliberately wrong input.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, workloads
from perfbench.tracer import PATCHES, Tracer
from qnbench import bench, solvers
from qnbench.diagnostics import ConvergenceDiagnostics
from qnbench.linesearch import WOLFE_SATISFIED
from qnbench.suite import KnownOptimum, lookup

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
END_TO_END = ["setup_s", "pass_s", "solve_ms.geomean", "iterations", "f_evals", "g_evals",
              "peak_mem_mb"]


# --- BENCHMARK.json ------------------------------------------------------------


def test_manifest_form():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024

    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]

    assert [m["name"] for m in MANIFEST["end_to_end"]] == END_TO_END
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


# --- the command ---------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_exactly_the_named_metrics(trace, section):
    done = _run("--workload", "suite10", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % 60 == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "suite10", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# --- the tracer ----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_objective_call_totals_match_the_solve_results(name):
    workload = workloads.build(name)
    refs = {p.name: p.known_optimum or KnownOptimum(np.zeros(p.objective.dimension), 0.0)
            for p in workload.problems}
    tracer = Tracer()
    with tracer.installed():
        out = workloads.run_pass(workload.map_objectives(tracer.objective), refs)
    layer = tracer.layer_metrics()
    assert all(s.converged for s in out.solves.values())
    assert layer["objectives.f.calls"] == sum(s.f_evals for s in out.solves.values())
    assert layer["objectives.g.calls"] == sum(s.g_evals for s in out.solves.values())
    assert layer["linesearch.searches"] == (layer["linesearch.wolfe_satisfied"]
                                            + layer["linesearch.armijo_only"]
                                            + layer["linesearch.exhausted"])
    assert tracer.calls["solvers.loop"] == len(out.solves)


def test_tracer_restores_the_library():
    before = [getattr(module, attr) for module, attr, _ in PATCHES]
    funcs = dict(bench.SOLVER_FUNCS)
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert solvers.wolfe_search is not before[0]
            raise RuntimeError
    assert [getattr(module, attr) for module, attr, _ in PATCHES] == before
    assert bench.SOLVER_FUNCS == funcs


# --- the correctness checks --------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    problem = lookup("Raydan2")
    cfg = workloads.B_FORM
    result = solvers.solve_two_phase(problem.objective, problem.objective.standard_start, cfg)
    reference = checks.scipy_reference(problem.objective)
    return problem.objective, result, cfg, reference


def test_checks_pass_on_a_correct_solve(solved):
    objective, result, cfg, reference = solved
    assert checks.check_solve(objective, result, cfg, reference) == []


def _with_first_step(result, **changes):
    trace = list(result.trace)
    trace[0] = dataclasses.replace(trace[0], **changes)
    return dataclasses.replace(result, trace=trace)


def test_check_rejects_a_gradient_above_tol(solved):
    objective, result, cfg, reference = solved
    wrong = dataclasses.replace(result, final_x=objective.standard_start)
    found = checks.check_solve(objective, wrong, cfg, reference)
    assert any("||grad f(x_final)||" in m for m in found)


def test_check_rejects_a_step_that_breaks_armijo(solved):
    objective, result, cfg, reference = solved
    wrong = _with_first_step(result, alpha=64.0)
    found = checks.check_solve(objective, wrong, cfg, reference)
    assert any("Armijo fails" in m for m in found)


def test_check_rejects_a_wolfe_status_without_curvature(solved):
    objective, result, cfg, reference = solved
    wrong = _with_first_step(result, alpha=1e-9, status=WOLFE_SATISFIED)
    found = checks.check_steps(objective, wrong, cfg.wolfe)
    assert any("curvature fails" in m for m in found)


def test_check_rejects_a_wrong_optimum(solved):
    objective, result, cfg, reference = solved
    wrong = KnownOptimum(reference.x, reference.f + 1e-3)
    found = checks.check_solve(objective, result, cfg, wrong)
    assert any("reference minimum" in m for m in found)


def test_check_rejects_psi_below_n():
    diag = ConvergenceDiagnostics([10.0, 9.5], [], [], [])
    assert checks.check_psi(diag, 10) != []
    assert checks.check_psi(ConvergenceDiagnostics([10.0, 12.0], [], [], []), 10) == []


def test_profile_check_accepts_the_library_and_rejects_a_changed_curve():
    records = bench.table_fixture_records()
    curves = bench.dolan_more(records, "iterations")
    assert checks.check_profiles(records, curves, "iterations") == []
    points = list(curves[0].points)
    points[0] = (points[0][0], points[0][1] + 1.0 / 30)
    wrong = [dataclasses.replace(curves[0], points=points)] + curves[1:]
    assert checks.check_profiles(records, wrong, "iterations") != []


# --- workloads -----------------------------------------------------------------


def test_perturbed_starts_follow_the_seed():
    def starts(seed, perturb):
        return [p.objective.standard_start
                for p in workloads.build("suite10", seed, perturb).problems]

    standard = starts(1, 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(standard, starts(2, 0.0)))
    moved = starts(1, 0.1)
    assert all(np.array_equal(a, b) for a, b in zip(moved, starts(1, 0.1)))
    assert not any(np.array_equal(a, b) for a, b in zip(moved, standard))
    assert not any(np.array_equal(a, b) for a, b in zip(moved, starts(2, 0.1)))


def test_large_n_optima_are_stationary():
    for problem in workloads.large_n_problems():
        objective, optimum = problem.objective, problem.known_optimum
        assert np.linalg.norm(objective.gradient(optimum.x)) < 1e-10
        assert objective.evaluate(optimum.x) == pytest.approx(optimum.f, rel=1e-12, abs=1e-12)
