import csv
import dataclasses
import importlib
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qnbench import SolverConfig, bench, lookup, solve_two_phase
from qnbench.cli import main

# the module, not the function that the package re-exports under its name
suite_module = importlib.import_module("qnbench.suite")


def _read(path):
    with open(path, "r", encoding="utf-8") as stream:
        return stream.read()


class TestSolve:
    def test_converged_run_exits_zero(self, capsys):
        code = main(["solve", "--problem", "hager", "--solver", "two-phase"])
        out = capsys.readouterr().out
        assert code == 0
        assert "final grad norm" in out
        assert "converged" in out

    def test_unknown_problem_exits_two_with_suggestions(self, capsys):
        code = main(["solve", "--problem", "nosuch", "--solver", "bfgs"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown problem" in err

    def test_unknown_solver_rejected(self, capsys):
        code = main(["solve", "--problem", "hager", "--solver", "newton"])
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code = main(["solve", "--problem", "hager", "--solver", "bfgs", "--zeta", "3"])
        assert code == 2

    def test_non_convergence_exits_one(self, capsys):
        code = main(["solve", "--problem", "fletcher", "--solver", "bfgs",
                     "--max-iter", "1"])
        assert code == 1

    def test_lambda_out_of_range_exits_two(self, capsys):
        code = main(["solve", "--problem", "hager", "--solver", "two-phase",
                     "--lambda", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_two(self, tol, capsys):
        code = main(["solve", "--problem", "raydan2", "--solver", "two-phase",
                     "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"qnbench solve: tol must be finite and positive, got {tol}\n"

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["solve", "--problem", "raydan2", "--solver", "two-phase",
                     "--trace", str(trace)])
        assert code == 0
        lines = _read(trace).strip().split("\n")
        assert lines[0] == "k,f,grad_norm,alpha_bar,alpha,cos_theta,update_skipped"
        assert len(lines) >= 3

    def test_unwritable_trace_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # the trace is opened first, so a path that cannot be written costs no
        # solve and prints no summary of a run whose trace is lost
        def no_solve(*args):
            raise AssertionError("solve ran before its trace was opened")

        monkeypatch.setitem(bench.SOLVER_FUNCS, "two-phase", no_solve)
        path = tmp_path / "missing" / "trace.csv"
        code = main(["solve", "--problem", "raydan2", "--solver", "two-phase",
                     "--trace", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"qnbench solve: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("solver, mode, line", [
        ("bfgs", "b-form", "solver:          bfgs\n"),
        ("bfgs", "h-form", "solver:          bfgs\n"),
        ("two-phase", "b-form", "solver:          two-phase (b-form)\n"),
        ("two-phase", "h-form", "solver:          two-phase (h-form)\n"),
    ])
    def test_solver_line_names_a_mode_only_for_two_phase(self, capsys, solver, mode, line):
        code = main(["solve", "--problem", "raydan2", "--solver", solver, "--mode", mode])
        assert code == 0
        assert line in capsys.readouterr().out

    def test_h_form_mode(self, capsys):
        code = main(["solve", "--problem", "hager", "--solver", "two-phase",
                     "--mode", "h-form"])
        assert code == 0

    def test_defaults_are_the_solver_config_defaults(self, capsys):
        code = main(["solve", "--problem", "Raydan2", "--solver", "two-phase"])
        out = capsys.readouterr().out
        objective = lookup("Raydan2").objective
        result = solve_two_phase(objective, objective.standard_start, SolverConfig())
        assert code == 0
        assert f"iterations:      {result.iterations}\n" in out
        assert f"evaluations:     f={result.f_evals} grad={result.g_evals}\n" in out

    def test_tol_flag(self, capsys):
        code = main(["solve", "--problem", "raydan2", "--solver", "bfgs",
                     "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out


def _set_first(column, value):
    """An edit of a results CSV that sets ``column`` of its first row to ``value``."""
    def edit(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        rows[0][column] = value
        out = io.StringIO()
        writer = csv.DictWriter(out, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    return edit


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    out = base / "results.csv"
    table = base / "table.md"
    capture = io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(capture):
        code = main(["bench", "--runs", "1", "--out", str(out),
                     "--table", str(table)])
    return code, out, table, capture.getvalue()


class TestBenchAndProfile:
    def test_bench_exits_zero_and_writes_artifacts(self, bench_artifacts):
        code, out, table, stdout = bench_artifacts
        assert code == 0
        assert out.exists() and table.exists()
        assert "| Sl | Function |" in stdout
        assert "converged: bfgs 30/30, two-phase 30/30" in stdout

    def test_results_csv_has_sixty_rows(self, bench_artifacts):
        _, out, _, _ = bench_artifacts
        rows = list(csv.DictReader(io.StringIO(_read(out))))
        assert len(rows) == 60
        assert all(r["converged"] == "true" for r in rows)

    def test_bench_deterministic_except_time(self, bench_artifacts, tmp_path, capsys):
        _, out, _, _ = bench_artifacts
        out2 = tmp_path / "results2.csv"
        code = main(["bench", "--runs", "1", "--out", str(out2)])
        capsys.readouterr()
        assert code == 0
        first = list(csv.DictReader(io.StringIO(_read(out))))
        second = list(csv.DictReader(io.StringIO(_read(out2))))
        for a, b in zip(first, second):
            a.pop("median_time_ms")
            b.pop("median_time_ms")
            assert a == b

    def test_profile_from_results(self, bench_artifacts, tmp_path, capsys):
        _, out, _, _ = bench_artifacts
        profile = tmp_path / "profile.csv"
        svg = tmp_path / "profile.svg"
        code = main(["profile", "--in", str(out), "--metric", "iterations",
                     "--out", str(profile), "--svg", str(svg)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "P(1)" in stdout
        lines = _read(profile).strip().split("\n")
        assert lines[0] == "solver,tau,P"
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_profile_time_metric(self, bench_artifacts, tmp_path, capsys):
        _, out, _, _ = bench_artifacts
        profile = tmp_path / "profile_time.csv"
        code = main(["profile", "--in", str(out), "--metric", "time",
                     "--out", str(profile)])
        assert code == 0
        assert profile.exists()

    def test_profile_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["profile", "--in", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_bench_bad_runs_exits_two(self, capsys):
        assert main(["bench", "--runs", "0"]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("problem,", "name,", 1), "has no column 'problem'"),
        (lambda text: text.replace(",10,", ",ten,", 1), "invalid literal for int()"),
        (lambda text: "\n".join(text.split("\n")[:-2]) + "\n", "missing record for"),
        (lambda text: text + "Raydan2,bfgs\n", "int() argument must be"),
        (lambda text: text.replace(",true,", ",True,"), "converged must be 'true' or 'false'"),
        (_set_first("median_time_ms", "nan"), "median_time_ms must be finite and > 0"),
        (_set_first("median_time_ms", "-1.0"), "median_time_ms must be finite and > 0"),
        (_set_first("median_time_ms", "0.0"), "median_time_ms must be finite and > 0"),
        (_set_first("iterations", "-2"), "iterations must be finite and >= 0"),
        # an executable's header, written raw: no UTF-8 text at all
        (lambda text: b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)),
         "'utf-8' codec can't decode"),
    ], ids=["missing-column", "non-integer-n", "missing-pair", "short-row",
            "converged-not-lowercase", "nan-time", "negative-time", "zero-time",
            "negative-iterations",
            "not-utf-8"])
    def test_profile_malformed_results_exit_two(self, bench_artifacts, tmp_path, capsys,
                                                edit, message):
        _, out, _, _ = bench_artifacts
        bad = tmp_path / "bad.csv"
        content = edit(_read(out))
        bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        code = main(["profile", "--in", str(bad), "--out", str(tmp_path / "p.csv")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith(f"qnbench profile: {bad}")
        assert message in lines[0]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--trace"), ("bench", "--out"), ("bench", "--table"),
        ("profile", "--out"), ("profile", "--svg"),
    ])
    def test_unwritable_output_exits_two(self, bench_artifacts, tmp_path, capsys, monkeypatch,
                                         command, flag):
        _, out, _, _ = bench_artifacts

        def no_solves(**kwargs):
            raise AssertionError("bench ran the suite before opening its outputs")

        monkeypatch.setattr("qnbench.cli.run_suite", no_solves)
        path = tmp_path / "missing" / "artifact"
        argv = {
            "solve": ["solve", "--problem", "raydan2", "--solver", "bfgs"],
            "bench": ["bench", "--runs", "1"],
            "profile": ["profile", "--in", str(out), "--out", str(tmp_path / "p.csv")],
        }[command]
        code = main(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        # every output is opened before anything is printed
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"qnbench {command}: [Errno 2] No such file or directory: '{path}'"]


class TestCheckAndList:
    def test_check_passes(self, capsys):
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "30/30 gradient checks passed" in out

    def test_check_checks_each_gradient_once(self, monkeypatch, capsys):
        calls = []
        check = suite_module.check_gradient

        def counting_check(*args, **kwargs):
            calls.append(args[0].name)
            return check(*args, **kwargs)

        monkeypatch.setattr(suite_module, "check_gradient", counting_check)
        suite_module.suite.cache_clear()
        try:
            assert main(["check"]) == 0
        finally:
            suite_module.suite.cache_clear()
        assert len(calls) == 30
        assert len(set(calls)) == 30

    @staticmethod
    def _run_with_broken_raydan2(monkeypatch, capsys, argv=("check",), **fields):
        """Run ``argv`` (``check`` by default) with Raydan2's objective fields
        replaced by ``fields[name](old_value)``; returns the exit code and the
        output."""
        build = suite_module._build_problems

        def with_broken_raydan2():
            problems = build()
            for i, problem in enumerate(problems):
                if problem.name == "Raydan2":
                    objective = dataclasses.replace(problem.objective, **{
                        name: breaker(getattr(problem.objective, name))
                        for name, breaker in fields.items()})
                    problems[i] = dataclasses.replace(problem, objective=objective)
            return problems

        monkeypatch.setattr(suite_module, "_build_problems", with_broken_raydan2)
        suite_module.suite.cache_clear()
        suite_module._canon_index.cache_clear()
        try:
            code = main(list(argv))
        finally:
            suite_module.suite.cache_clear()
            suite_module._canon_index.cache_clear()
        return code, capsys.readouterr()

    def test_check_reports_a_broken_gradient(self, monkeypatch, capsys):
        code, captured = self._run_with_broken_raydan2(
            monkeypatch, capsys, gradient=lambda gradient: lambda x: gradient(x) - 0.01)
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("qnbench check: Raydan2: analytic gradient disagrees")

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "Raydan2", "--solver", "bfgs"],
        ["bench", "--runs", "1"],
        ["list"],
    ], ids=["solve", "bench", "list"])
    def test_every_command_reports_a_broken_gradient(self, monkeypatch, capsys, argv):
        # every command builds the gradient-checked suite, so a failed check
        # ends each one as it ends check: one stderr line and exit 1
        code, captured = self._run_with_broken_raydan2(
            monkeypatch, capsys, argv, gradient=lambda gradient: lambda x: gradient(x) - 0.01)
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"qnbench {argv[0]}: Raydan2: analytic gradient disagrees")

    @pytest.mark.parametrize("field, broken, line", [
        ("evaluate", lambda evaluate: lambda x: float("nan"),
         "Raydan2: non-finite evaluation probing coordinate 0: "
         "f(x + h e_i) = nan, f(x - h e_i) = nan"),
        ("gradient", lambda gradient: lambda x: gradient(x) + np.inf,
         "Raydan2: non-finite analytic gradient at coordinate 0: inf"),
    ], ids=["evaluation", "gradient"])
    def test_check_reports_a_non_finite_value(self, monkeypatch, capsys, field, broken, line):
        code, captured = self._run_with_broken_raydan2(monkeypatch, capsys, **{field: broken})
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"qnbench check: {line}"]

    def test_list_prints_manifest(self, capsys):
        code = main(["list"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("name,dimension,f_start")
        assert len(lines) == 31


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_profile_requires_in_and_out(self, capsys):
        assert main(["profile", "--metric", "iterations"]) == 2


def test_bench_prints_one_stderr_line_per_failed_record(monkeypatch, capsys):
    solve_bfgs = bench.SOLVER_FUNCS["bfgs"]

    def failing_on_raydan2(objective, x0, cfg):
        if objective.name == "Raydan2":
            raise RuntimeError("boom")
        return solve_bfgs(objective, x0, cfg)

    monkeypatch.setitem(bench.SOLVER_FUNCS, "bfgs", failing_on_raydan2)
    code = main(["bench", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["qnbench bench: Raydan2 (bfgs) raised RuntimeError: boom"]
    assert "converged: bfgs 29/30, two-phase 30/30" in captured.out
