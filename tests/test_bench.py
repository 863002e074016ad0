import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from qnbench import ObjectiveFunction, SolverConfig, SuiteProblem, bench, lookup
from qnbench.bench import (
    BenchmarkRecord,
    IncompleteRecordsError,
    dolan_more,
    emit_table,
    profile_svg,
    profiles_to_csv,
    records_from_csv,
    records_to_csv,
    run_suite,
    table_fixture_records,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _record(problem, solver, iterations, converged=True, time_ms=1.0):
    return BenchmarkRecord(problem, solver, 10, iterations, time_ms, converged, 0.0, 0.0)


def _table_rows(markdown):
    """The body rows of an ``emit_table`` Markdown table, as lists of cells."""
    lines = markdown.strip().split("\n")[2:]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]


def _count_solver_calls(monkeypatch):
    """Counter of solver calls per (problem, solver) that ``run_suite`` makes."""
    calls = Counter()
    for name, solver in list(bench.SOLVER_FUNCS.items()):
        def counted(objective, x0, cfg, name=name, solver=solver):
            calls[(objective.name, name)] += 1
            return solver(objective, x0, cfg)
        monkeypatch.setitem(bench.SOLVER_FUNCS, name, counted)
    return calls


def _grid(problems, runs, solvers=("bfgs", "two-phase")):
    return {(p, s): runs for p in problems for s in solvers}


class TestRunSuite:
    def test_single_problem_single_solver(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        records = run_suite([lookup("Raydan2")], solvers=("bfgs",), runs=1)
        assert len(records) == 1
        rec = records[0]
        assert rec.problem == "Raydan2" and rec.solver == "bfgs"
        assert calls == _grid(["Raydan2"], 1, ["bfgs"]) and rec.converged
        assert rec.grad_norm_final <= 1e-6

    def test_pair_grid_and_run_counts(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        problems = [lookup("Raydan2"), lookup("Hager")]
        records = run_suite(problems, runs=2)
        assert len(records) == 4
        assert calls == _grid(["Raydan2", "Hager"], 2)
        assert all(r.median_time_ms > 0.0 for r in records)

    def test_five_timed_runs_per_pair(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        records = run_suite([lookup("Raydan2"), lookup("HIMMELH")], runs=5)
        assert len(records) == 4
        assert calls == _grid(["Raydan2", "HIMMELH"], 5)
        assert all(r.median_time_ms > 0.0 for r in records)

    def test_iterations_deterministic_across_invocations(self):
        problems = [lookup("Quadratic QF1")]
        first = run_suite(problems, runs=1)
        second = run_suite(problems, runs=1)
        assert [(r.problem, r.solver, r.iterations, r.converged) for r in first] == \
               [(r.problem, r.solver, r.iterations, r.converged) for r in second]

    def test_failure_recorded_not_fatal(self):
        records = run_suite([lookup("Fletcher")], solvers=("bfgs",),
                            cfg=SolverConfig(max_iter=1), runs=1)
        rec = records[0]
        assert not rec.converged
        assert rec.iterations == 1  # cap bound the run

    def test_results_collection(self):
        collected = {}
        run_suite([lookup("Raydan2")], solvers=("two-phase",), runs=1,
                  results=collected)
        assert ("Raydan2", "two-phase") in collected
        assert collected[("Raydan2", "two-phase")].converged

    def test_runs_validated(self, monkeypatch):
        # an int >= 1 only: a float, a string or a bool is no run count, and
        # each is rejected before any solve; a numpy integer is a count
        calls = _count_solver_calls(monkeypatch)
        for runs in (0, 2.0, float("nan"), "3", True, np.int64(0), np.float64(2.0), np.True_):
            with pytest.raises(ValueError, match="runs must be an int >= 1"):
                run_suite([lookup("Raydan2")], runs=runs)
        assert not calls
        records = run_suite([lookup("Raydan2")], solvers=("bfgs",), runs=np.int64(2))
        assert calls == _grid(["Raydan2"], 2, ["bfgs"]) and records[0].converged

    def test_unknown_solver_rejected_before_any_solve(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"unknown solvers \['nope'\]; "
                                             r"known: \['bfgs', 'two-phase'\]"):
            run_suite([lookup("Raydan2"), lookup("Hager")], solvers=("bfgs", "nope"), runs=1)
        assert not calls

    def test_a_one_shot_solver_iterable_runs_on_every_problem(self, monkeypatch):
        # the names are checked before any solve, which must not use them up
        calls = _count_solver_calls(monkeypatch)
        records = run_suite([lookup("Raydan2"), lookup("Hager")], solvers=iter(["bfgs"]), runs=1)
        assert len(records) == 2 and calls == _grid(["Raydan2", "Hager"], 1, ["bfgs"])


class TestDolanMore:
    def test_reference_fixture_values(self):
        curves = {c.solver: c for c in dolan_more(table_fixture_records())}
        p_two = dict(curves["two-phase"].points)[1.0]
        p_bfgs = dict(curves["bfgs"].points)[1.0]
        assert p_two == 27 / 30 == 0.9
        assert p_bfgs == 6 / 30 == 0.2

    def test_the_fixture_times_profile_and_round_trip(self):
        # 1 ms per reference iteration: the time profile is the iteration
        # profile, and the records survive the CSV that `qnbench profile` reads
        records = table_fixture_records()
        assert [c.points for c in dolan_more(records, "time")] == \
               [c.points for c in dolan_more(records, "iterations")]
        assert records_from_csv(records_to_csv(records)) == records

    def test_hager_ratio_from_fixtures(self):
        records = table_fixture_records()
        hager = {r.solver: r for r in records if r.problem == "Hager"}
        assert hager["bfgs"].iterations / hager["two-phase"].iterations == 2.125

    def test_single_solver_curve_is_one(self):
        records = [_record("a", "s", 5), _record("b", "s", 9)]
        (curve,) = dolan_more(records)
        assert all(p == 1.0 for _, p in curve.points)

    def test_monotone_and_bounded(self):
        curves = dolan_more(table_fixture_records())
        for curve in curves:
            ps = [p for _, p in curve.points]
            assert all(0.0 <= p <= 1.0 for p in ps)
            assert all(b >= a for a, b in zip(ps, ps[1:]))
            assert curve.points[-1][1] == 1.0  # every fixture run converged

    def test_non_converged_never_reaches_finite_tau(self):
        records = [
            _record("a", "s1", 5), _record("a", "s2", 10, converged=False),
            _record("b", "s1", 5), _record("b", "s2", 5),
        ]
        curves = {c.solver: c for c in dolan_more(records)}
        assert curves["s2"].points[-1][1] == 0.5  # only problem b counts
        assert curves["s1"].points[-1][1] == 1.0

    def test_time_metric(self):
        records = [
            _record("a", "s1", 5, time_ms=2.0), _record("a", "s2", 5, time_ms=4.0),
        ]
        curves = {c.solver: c for c in dolan_more(records, metric="time")}
        taus = [tau for tau, _ in curves["s2"].points]
        assert 2.0 in taus
        assert dict(curves["s2"].points)[1.0] == 0.0
        assert dict(curves["s2"].points)[2.0] == 1.0

    def test_a_converged_time_of_zero_is_rejected(self):
        # a ratio over a best time of 0.0 would rank b +inf on p, although it
        # converged, and read its P(2) as 0.5 instead of 1.0
        times = {("p", "a"): 0.0, ("p", "b"): 1.0, ("q", "a"): 2.0, ("q", "b"): 1.0}
        records = [_record(p, s, 5, time_ms=t) for (p, s), t in times.items()]
        with pytest.raises(ValueError, match=r"time of converged \('p', 'a'\) must be > 0"):
            dolan_more(records, metric="time")
        # a zero time of a solve that did not converge is never a cost
        records[0] = _record("p", "a", 5, converged=False, time_ms=0.0)
        curves = {c.solver: dict(c.points) for c in dolan_more(records, metric="time")}
        assert curves["b"][1.0] == 1.0 and curves["a"][2.0] == 0.5

    def test_iterations_keep_the_zero_best_rule(self):
        # a best of 0 iterations ranks a solver with 0 as 1 and every other as +inf
        records = [_record("p", "a", 0), _record("p", "b", 3),
                   _record("q", "a", 2), _record("q", "b", 1)]
        curves = {c.solver: dict(c.points) for c in dolan_more(records)}
        assert curves["a"][1.0] == 0.5 and curves["a"][2.0] == 1.0
        assert curves["b"][1.0] == 0.5 and curves["b"][2.0] == 0.5

    def test_missing_record_rejected(self):
        records = [_record("a", "s1", 5), _record("a", "s2", 6), _record("b", "s1", 7)]
        with pytest.raises(IncompleteRecordsError):
            dolan_more(records)

    def test_duplicate_record_rejected(self):
        records = [_record("a", "s1", 5), _record("a", "s1", 6)]
        with pytest.raises(IncompleteRecordsError):
            dolan_more(records)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            dolan_more([_record("a", "s1", 5)], metric="evals")


class TestEmitTable:
    def test_full_fixture_table(self):
        md_lines = emit_table(table_fixture_records()).strip().split("\n")
        assert len(md_lines) == 32  # header + separator + 30 rows
        assert md_lines[2].startswith("| 1 | Almost Perturbed Quadratic |")

    def test_rows_follow_suite_order(self):
        # feed records scrambled; emission restores table order
        records = list(reversed(table_fixture_records()))
        rows = _table_rows(emit_table(records))
        assert [r[1] for r in rows][:3] == \
               ["Almost Perturbed Quadratic", "ARWHEAD", "BIGGSB1"]

    def test_rows_carry_record_iterations_and_times(self):
        records = table_fixture_records()
        rows = _table_rows(emit_table(records))
        by_name = {r.problem: {} for r in records}
        for r in records:
            by_name[r.problem][r.solver] = r
        assert len(rows) == 30
        for sl, name, bfgs_iters, bfgs_ms, two_iters, two_ms in rows:
            pair = by_name[name]
            assert int(bfgs_iters) == pair["bfgs"].iterations
            assert int(two_iters) == pair["two-phase"].iterations
            assert bfgs_ms == f"{pair['bfgs'].median_time_ms:.3f}"
            assert two_ms == f"{pair['two-phase'].median_time_ms:.3f}"

    def test_empty_records_warn_and_emit_header(self, capsys):
        table = emit_table([])
        assert "no records" in capsys.readouterr().err
        assert table.startswith("| Sl | Function | BFGS Iterations |")
        assert table.count("\n") == 2


class TestRecordsCsv:
    def test_round_trip_preserves_emitted_fields(self):
        records = [
            _record("Hager", "bfgs", 17, time_ms=3.25),
            _record("Hager", "two-phase", 8, time_ms=2.5),
            _record("Fletcher", "bfgs", 500, converged=False, time_ms=10.0),
        ]
        parsed = records_from_csv(records_to_csv(records))
        for original, back in zip(records, parsed):
            assert back.problem == original.problem
            assert back.solver == original.solver
            assert back.n == original.n
            assert back.iterations == original.iterations
            assert back.median_time_ms == original.median_time_ms
            assert back.converged == original.converged
            assert back.f_final == original.f_final
            assert back.grad_norm_final == original.grad_norm_final

    @pytest.mark.parametrize("column, value", [
        ("median_time_ms", "nan"), ("median_time_ms", "inf"), ("median_time_ms", "-0.5"),
        ("median_time_ms", "0.0"), ("iterations", "-5"),
    ])
    def test_a_cost_that_no_profile_can_rank_is_rejected(self, column, value):
        # a NaN time would read P(1) = 0.5 against 0, a zero time a ratio of
        # +inf for every other converged solver, and a negative count a ratio
        # tau below 1
        fields = {"iterations": "4", "median_time_ms": "2.0", column: value}
        row = "Hager,two-phase,10,{iterations},{median_time_ms},true,0.0,0.0\n".format(**fields)
        text = records_to_csv([_record("Hager", "bfgs", 3)]) + row
        bound = "> 0" if column == "median_time_ms" else ">= 0"
        with pytest.raises(ValueError, match=f"{column} must be finite and {bound}"):
            records_from_csv(text)

    def test_header(self):
        text = records_to_csv([])
        assert text.strip() == "problem,solver,n,iterations,median_time_ms,converged,f_final,grad_norm_final"


class TestProfilesCsv:
    def test_structure(self):
        curves = dolan_more(table_fixture_records())
        lines = profiles_to_csv(curves).strip().split("\n")
        assert lines[0] == "solver,tau,P"
        n_points = sum(len(c.points) for c in curves)
        assert len(lines) == n_points + 1


class TestProfileSvg:
    def test_valid_xml_with_two_step_series(self):
        curves = dolan_more(table_fixture_records())
        root = ET.fromstring(profile_svg(curves))
        assert root.tag == f"{SVG_NS}svg"
        paths = [el for el in root.iter(f"{SVG_NS}path")
                 if el.get("class") == "profile-curve"]
        assert len(paths) == 2
        solvers = {el.get("data-solver") for el in paths}
        assert solvers == {"bfgs", "two-phase"}
        labels = [el.text for el in root.iter(f"{SVG_NS}text")
                  if el.get("class") == "legend-label"]
        assert set(labels) == {"bfgs", "two-phase"}

    def test_single_curve_valid(self):
        records = [_record("a", "only", 3), _record("b", "only", 4)]
        text = profile_svg(dolan_more(records))
        root = ET.fromstring(text)
        assert len([el for el in root.iter(f"{SVG_NS}path")]) == 1

    def test_fixture_curves_start_at_reference_heights(self):
        from qnbench.bench import _SVG_H, _SVG_MB, _SVG_MT

        curves = dolan_more(table_fixture_records())
        root = ET.fromstring(profile_svg(curves))
        plot_h = _SVG_H - _SVG_MT - _SVG_MB

        def y_of(p):
            return _SVG_MT + (1.0 - p) * plot_h

        for el in root.iter(f"{SVG_NS}path"):
            if el.get("class") != "profile-curve":
                continue
            start_y = float(el.get("d").split()[2])
            expected = {"two-phase": 0.9, "bfgs": 0.2}[el.get("data-solver")]
            assert start_y == pytest.approx(y_of(expected), abs=0.01)

    def test_no_external_assets(self):
        text = profile_svg(dolan_more(table_fixture_records()))
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text

    def test_empty_curves_rejected(self):
        with pytest.raises(ValueError):
            profile_svg([])

    @pytest.mark.parametrize("name", ['a"b', "<x>&y"])
    def test_solver_names_are_quoted(self, name):
        root = ET.fromstring(profile_svg(dolan_more([_record("p", name, 3),
                                                     _record("p", "other", 4)])))
        assert [el.get("data-solver") for el in root.iter(f"{SVG_NS}path")
                if el.get("class") == "profile-curve"] == [name, "other"]
        assert [el.text for el in root.iter(f"{SVG_NS}text")
                if el.get("class") == "legend-label"] == [name, "other"]


class TestSuiteScaleRunSmoke:
    def test_two_problems_two_solvers_two_runs(self):
        problems = [lookup("Raydan2"), lookup("Extended DENSCHNB")]
        records = run_suite(problems, runs=2)
        assert len(records) == 4
        curves = dolan_more(records)
        assert {c.solver for c in curves} == {"bfgs", "two-phase"}
        for c in curves:
            assert c.points[-1][1] == 1.0


def test_solver_exception_kept_as_error():
    def gradient(x):
        raise RuntimeError("gradient unavailable")

    raising = SuiteProblem(
        ObjectiveFunction("Raising", 2, lambda x: float(x @ x), gradient, np.ones(2)), 0, 0)
    records = run_suite([raising, lookup("Raydan2")], solvers=("bfgs", "two-phase"), runs=2)
    assert [(r.problem, r.error) for r in records] == [
        ("Raising", "RuntimeError: gradient unavailable"),
        ("Raising", "RuntimeError: gradient unavailable"),
        ("Raydan2", ""),
        ("Raydan2", ""),
    ]
    assert not any(r.converged for r in records[:2])
    assert all(r.converged for r in records[2:])
