"""Command-line interface.

Commands:
    run             run the bidding protocol on a scenario file
    sweep           capacity sweep over one carrier, optional oracle check
    verify          protocol vs. centralized oracle on one scenario
    utility-curve   sample a utility function as CSV on stdout
    paper-scenario  emit the built-in 18-UE reference scenario file

Exit codes: 0 success, 1 usage/input error, 2 numeric failure
(non-convergence or a failed verification).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Optional

from .oracle import OracleError, solve_central
from .protocol import EngineConfig, NonConvergenceError, run
from .scenario import (
    RunRecord,
    ScenarioError,
    SweepSpec,
    build_paper_scenario,
    compare_to_oracle,
    load_scenario_document,
    run_sweep,
    scenario_to_yaml,
    write_results,
)
from .utility import (
    LogarithmicUtility,
    SigmoidalUtility,
    UtilityDomainError,
    evaluate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="carrieralloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, default=None,
                       help="bid-stability tolerance of the stop rule, which also "
                            "needs a duality gap below 1e-9 (default 1e-3)")
        p.add_argument("--max-rounds", type=int, default=None,
                       help="round limit before giving up (default 10000)")
        p.add_argument("--damping", type=float, default=None,
                       help="bid damping factor theta in (0, 1] (default 0.7)")

    p_run = sub.add_parser("run", help="run the protocol on a scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file (YAML)")
    add_engine_flags(p_run)
    p_run.add_argument("--out", default=None, help="directory for result CSVs")

    p_sweep = sub.add_parser("sweep", help="sweep one carrier's capacity")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--carrier", dest="carrier_id", type=int, default=None,
                         help="carrier id to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, default=None)
    p_sweep.add_argument("--to", dest="stop", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.add_argument("--verify", action="store_true",
                         help="also solve each point centrally and compare")
    add_engine_flags(p_sweep)
    p_sweep.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check protocol against the oracle")
    p_verify.add_argument("--scenario", required=True)
    add_engine_flags(p_verify)

    p_curve = sub.add_parser("utility-curve", help="sample a utility as CSV")
    p_curve.add_argument("--type", required=True, choices=("sig", "log"))
    p_curve.add_argument("--a", type=float, default=None, help="sigmoid steepness")
    p_curve.add_argument("--b", type=float, default=None, help="sigmoid inflection rate")
    p_curve.add_argument("--k", type=float, default=None, help="log growth rate")
    p_curve.add_argument("--rmax", type=float, default=None, help="log 100%% rate")
    p_curve.add_argument("--max", dest="r_max_axis", type=float, default=100.0,
                         help="largest sampled rate (default 100)")
    p_curve.add_argument("--samples", type=int, default=1000,
                         help="number of intervals; emits N+1 rows (default 1000)")

    p_paper = sub.add_parser("paper-scenario", help="emit the built-in scenario")
    p_paper.add_argument("--r1", type=float, default=300.0, help="carrier-1 capacity")
    p_paper.add_argument("--r2", type=float, default=100.0, help="carrier-2 capacity")
    p_paper.add_argument("--out", default="-", help="output path, '-' for stdout")

    return parser


# The sweep flags, by the SweepSpec field each one sets.
_SWEEP_FLAGS = {"carrier_id": "--carrier", "start": "--from", "stop": "--to", "step": "--step"}


def _given(args, names) -> dict:
    """The flags among ``names`` given on the command line, by dest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _engine_config(args, file_engine: Optional[EngineConfig]) -> EngineConfig:
    given = _given(args, [f.name for f in fields(EngineConfig)])
    return replace(file_engine or EngineConfig(), **given)


def _sweep_spec(args, file_sweep: Optional[SweepSpec]) -> SweepSpec:
    given = _given(args, _SWEEP_FLAGS)
    if file_sweep is not None:
        return replace(file_sweep, **given)
    missing = [flag for name, flag in _SWEEP_FLAGS.items() if name not in given]
    if missing:
        raise _UsageError(f"sweep needs {' '.join(missing)} (no sweep section in scenario file)")
    return SweepSpec(**given)


def _summary_line(result) -> str:
    prices = " ".join(
        f"p{cid}={price:.6g}" for cid, price in sorted(result.prices.items())
    )
    return (
        f"rounds={result.rounds} objective={result.objective:.9g} "
        f"converged={result.converged} {prices}"
    )


def _cmd_run(args) -> int:
    doc = load_scenario_document(args.scenario)
    config = _engine_config(args, doc.engine)
    try:
        result = run(doc.scenario, config)
        code = EXIT_OK
    except NonConvergenceError as exc:
        result = exc.result
        code = EXIT_NUMERIC
    print(_summary_line(result))
    if args.out is not None:
        record = RunRecord(sweep_value=doc.scenario.carriers[0].capacity, result=result)
        paths = write_results([record], args.out)
        print(f"wrote {paths['rates']} {paths['prices']} {paths['summary']}",
              file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    doc = load_scenario_document(args.scenario)
    config = _engine_config(args, doc.engine)
    sweep = _sweep_spec(args, doc.sweep)
    records = run_sweep(doc.scenario, sweep, config, verify=args.verify)
    if args.out is not None:
        write_results(records, args.out)
    failed: List[str] = []
    for rec in records:
        line = f"R{sweep.carrier_id}={rec.sweep_value:g}: "
        if rec.result is None:
            line += f"error: {rec.error}"
            failed.append(f"{rec.sweep_value:g} ({rec.error})")
        else:
            line += _summary_line(rec.result)
            ok = rec.result.converged and rec.error is None
            if args.verify:
                if rec.comparison is None:
                    ok = False
                    line += " verify=missing"
                else:
                    line += (
                        f" obj_delta={rec.comparison.objective_delta:.3g}"
                        f" totals_rel={rec.comparison.max_total_rel_delta:.3g}"
                        f" kkt={'pass' if rec.comparison.kkt.passed else 'FAIL'}"
                        f" verify={'pass' if rec.comparison.passed else 'FAIL'}"
                    )
                    ok = ok and rec.comparison.passed
            if not ok:
                failed.append(f"{rec.sweep_value:g}")
        print(line)
    if failed:
        print(f"failing sweep points: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = load_scenario_document(args.scenario)
    config = _engine_config(args, doc.engine)
    try:
        result = run(doc.scenario, config)
    except NonConvergenceError as exc:
        print(_summary_line(exc.result))
        print("protocol did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    oracle_solution = solve_central(doc.scenario)
    report = compare_to_oracle(result, oracle_solution, doc.scenario, config.delta)
    print(_summary_line(result))
    print(
        f"oracle objective={oracle_solution.objective:.9g} "
        f"(protocol {result.objective:.9g}, delta {report.objective_delta:.3g})"
    )
    print(
        f"max per-UE total deviation {report.max_total_rel_delta:.3g} "
        f"(UE {report.worst_ue_id})"
    )
    kkt = report.kkt
    print(
        f"kkt tol={kkt.tol:g} stationarity={kkt.stationarity_active:.3g}/"
        f"{kkt.stationarity_inactive:.3g} comp_slack={kkt.complementary_slackness:.3g} "
        f"=> {'pass' if kkt.passed else 'FAIL'}"
    )
    print(f"verification {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _cmd_utility_curve(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    if not (args.r_max_axis > 0 and math.isfinite(args.r_max_axis)):
        raise _UsageError("--max must be finite and > 0")
    try:
        if args.type == "sig":
            if args.a is None or args.b is None:
                raise _UsageError("--type sig needs --a and --b")
            u = SigmoidalUtility(a=args.a, b=args.b)
        else:
            if args.k is None or args.rmax is None:
                raise _UsageError("--type log needs --k and --rmax")
            u = LogarithmicUtility(k=args.k, r_max=args.rmax)
    except UtilityDomainError as exc:
        raise _UsageError(str(exc)) from exc
    print("r,utility")
    n = args.samples
    for j in range(n + 1):
        r = j * args.r_max_axis / n
        print(f"{r!r},{evaluate(u, r)!r}")
    return EXIT_OK


def _cmd_paper_scenario(args) -> int:
    scenario = build_paper_scenario(r1=args.r1, r2=args.r2)
    text = scenario_to_yaml(
        scenario,
        engine=EngineConfig(),
        sweep=SweepSpec(carrier_id=1, start=20.0, stop=300.0, step=10.0),
    )
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "utility-curve": _cmd_utility_curve,
    "paper-scenario": _cmd_paper_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, UtilityDomainError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
