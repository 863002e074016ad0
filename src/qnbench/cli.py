"""Command-line entry point: solve, bench, profile, check, list.

Exit codes: 0 success, 1 solver non-convergence (or a suite gradient check
that fails, in any command that builds the suite), 2 usage errors, malformed
input and unreadable or unwritable paths.  Human-readable
summaries go to stdout; machine artifacts are written only to paths given
explicitly via --out/--trace/--table/--svg.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from qnbench.bench import (
    SOLVER_FUNCS,
    dolan_more,
    emit_table,
    profile_svg,
    profiles_to_csv,
    records_from_csv,
    records_to_csv,
    run_suite,
)
from qnbench.solvers import SolverConfig, trace_to_csv
from qnbench.suite import (
    GradientCheckError,
    UnknownProblemError,
    gradient_reports,
    lookup,
    manifest_csv,
    suite,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnbench",
        description="Two-phase quasi-Newton and BFGS benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver on one problem")
    solve.add_argument("--problem", required=True, help="suite problem name")
    solve.add_argument("--solver", required=True, choices=sorted(SOLVER_FUNCS))
    solve.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                       help="operator mixing weight in (0, 1)")
    solve.add_argument("--tol", type=float, default=SolverConfig.tol,
                       help="gradient-norm stopping tolerance")
    solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    solve.add_argument("--trace", metavar="PATH", help="write the iterate trace CSV")
    solve.set_defaults(run=_cmd_solve)

    bench = sub.add_parser("bench", help="run both solvers over the whole suite")
    bench.add_argument("--runs", type=int, default=5, help="timed runs per pair")
    bench.add_argument("--out", metavar="PATH", help="write the results CSV")
    bench.add_argument("--table", metavar="PATH", help="write the Markdown table")
    bench.set_defaults(run=_cmd_bench)

    profile = sub.add_parser("profile", help="performance profiles from a results CSV")
    profile.add_argument("--in", dest="infile", required=True, metavar="PATH")
    profile.add_argument("--metric", choices=["iterations", "time"], default="iterations")
    profile.add_argument("--out", required=True, metavar="PATH",
                         help="write the profile CSV")
    profile.add_argument("--svg", metavar="PATH", help="write a step-plot SVG")
    profile.set_defaults(run=_cmd_profile)

    check = sub.add_parser("check", help="gradient-check every suite function")
    check.set_defaults(run=_cmd_check)
    listing = sub.add_parser("list", help="print the suite manifest CSV")
    listing.set_defaults(run=_cmd_list)
    return parser


def _cmd_solve(args) -> int:
    try:
        problem = lookup(args.problem)
    except UnknownProblemError as err:
        print(f"qnbench solve: {err.args[0]}", file=sys.stderr)
        return 2
    try:
        cfg = SolverConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter)
    except ValueError as err:
        print(f"qnbench solve: {err}", file=sys.stderr)
        return 2
    objective = problem.objective
    with contextlib.ExitStack() as stack:
        # open the trace first, so that an unwritable path fails before the solve
        trace = (stack.enter_context(open(args.trace, "w", encoding="utf-8"))
                 if args.trace else None)
        result = SOLVER_FUNCS[args.solver](objective, objective.standard_start, cfg)
        print(f"problem:         {problem.name} (n={objective.dimension})")
        print(f"solver:          {args.solver}")
        print(f"termination:     {result.termination}")
        print(f"iterations:      {result.iterations}")
        print(f"final f:         {result.final_f:.12g}")
        print(f"final grad norm: {result.final_grad_norm:.6e}")
        print(f"evaluations:     f={result.f_evals} grad={result.g_evals}")
        if trace:
            trace.write(trace_to_csv(result))
            print(f"trace written:   {args.trace}")
    return 0 if result.converged else 1


def _cmd_bench(args) -> int:
    if args.runs < 1:
        print("qnbench bench: --runs must be >= 1", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        # open the outputs first, so that an unwritable path fails before any solve
        out = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else None
        table_out = (stack.enter_context(open(args.table, "w", encoding="utf-8"))
                     if args.table else None)
        records = run_suite(runs=args.runs)
        for r in records:
            if r.error:
                print(f"qnbench bench: {r.problem} ({r.solver}) raised {r.error}",
                      file=sys.stderr)
        table = emit_table(records)
        print(table, end="")
        converged = {s: sum(1 for r in records if r.solver == s and r.converged)
                     for s in SOLVER_FUNCS}
        total = len(suite())
        print("\nconverged: " + ", ".join(f"{s} {c}/{total}" for s, c in converged.items()))
        if out:
            out.write(records_to_csv(records))
            print(f"results written: {args.out}")
        if table_out:
            table_out.write(table)
            print(f"table written:   {args.table}")
    return 0 if all(r.converged for r in records) else 1


def _cmd_profile(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as stream:
            records = records_from_csv(stream.read())
        curves = dolan_more(records, metric=args.metric)
    except KeyError as err:
        print(f"qnbench profile: {args.infile} has no column {err}", file=sys.stderr)
        return 2
    # a short row, a malformed value, a missing pair, a file that is not UTF-8
    except (TypeError, ValueError) as err:
        print(f"qnbench profile: {args.infile}: {err}", file=sys.stderr)
        return 2
    if not records:
        print(f"qnbench profile: no records in {args.infile}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        # open the outputs first, so that an unwritable path fails before any output
        out = stack.enter_context(open(args.out, "w", encoding="utf-8"))
        svg_out = stack.enter_context(open(args.svg, "w", encoding="utf-8")) if args.svg else None
        for curve in curves:
            p_at_one = next(p for tau, p in curve.points if tau == 1.0)
            print(f"{curve.solver}: P(1) = {p_at_one:.4g}")
        out.write(profiles_to_csv(curves))
        print(f"profile written: {args.out}")
        if svg_out:
            svg_out.write(profile_svg(curves))
            print(f"svg written:     {args.svg}")
    return 0


def _cmd_check(args) -> int:
    checked = gradient_reports()
    for problem, report in checked:
        print(f"{problem.name:35s} max rel error {report.max_rel_error:.3e}  ok")
    print(f"\n{len(checked)}/{len(checked)} gradient checks passed")
    return 0


def _cmd_list(args) -> int:
    print(manifest_csv(), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return int(exit_.code or 0)
    try:
        return args.run(args)
    except OSError as err:  # an unreadable input or unwritable output path
        print(f"qnbench {args.command}: {err}", file=sys.stderr)
        return 2
    except GradientCheckError as err:  # every command but profile builds the suite
        print(f"qnbench {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
