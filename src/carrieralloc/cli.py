"""Command-line interface.

Commands:
    run             run the bidding protocol on a scenario file
    sweep           capacity sweep over one carrier, optional oracle check
    verify          run, then check the protocol against the centralized oracle
    utility-curve   sample a utility function as CSV on stdout
    paper-scenario  emit the built-in 18-UE reference scenario file

Exit codes: 0 success, 1 usage/input error, 2 numeric failure
(non-convergence or a failed verification).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from .protocol import EngineConfig
from .scenario import (
    _SWEEP_KEYS,
    RunRecord,
    ScenarioError,
    SweepSpec,
    build_paper_scenario,
    load_scenario_document,
    run_point,
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

    # The one engine setting on the command line; the others are EngineConfig's
    # defaults, and a scenario file has none.
    max_rounds = EngineConfig().max_rounds

    def add_engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-rounds", type=int, default=max_rounds,
                       help=f"round limit before giving up (default {max_rounds})")

    p_run = sub.add_parser("run", help="run the protocol on a scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file (YAML)")
    add_engine_flags(p_run)
    p_run.add_argument("--out", default=None, help="directory for result CSVs")

    p_sweep = sub.add_parser("sweep", help="sweep one carrier's capacity")
    p_sweep.add_argument("--scenario", required=True)
    for name, key, kind in _SWEEP_KEYS:
        p_sweep.add_argument(_SWEEP_FLAGS[name], dest=name, type=kind, default=None,
                             help=f"sweep {key} (overrides the scenario file's)")
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
    p_paper.add_argument("--out", default="-", help="output path, '-' for stdout")

    return parser


# The sweep flags, by the SweepSpec field each one sets: the file's sweep keys.
_SWEEP_FLAGS = {name: "--" + key for name, key, _ in _SWEEP_KEYS}


def _sweep_spec(args, file_sweep: Optional[SweepSpec]) -> SweepSpec:
    given = {name: getattr(args, name) for name in _SWEEP_FLAGS if getattr(args, name) is not None}
    if file_sweep is not None:
        return replace(file_sweep, **given)
    missing = [flag for name, flag in _SWEEP_FLAGS.items() if name not in given]
    if missing:
        raise _UsageError(f"sweep needs {' '.join(missing)} (no sweep section in scenario file)")
    return SweepSpec(**given)


def _point_line(carrier_id: int, rec: RunRecord, verify: bool) -> Tuple[str, bool]:
    """One sweep point's output line, and whether the point passed."""
    line = f"R{carrier_id}={rec.sweep_value:g}: "
    res, cmp = rec.result, rec.comparison
    if res is None:
        return line + f"error: {rec.error}", False
    prices = " ".join(f"p{cid}={price:.6g}" for cid, price in sorted(res.prices.items()))
    line += f"rounds={res.rounds} objective={res.objective:.9g} converged={res.converged} {prices}"
    ok = res.converged and rec.error is None
    if verify:
        if cmp is None:
            return line + " verify=missing", False
        line += (
            f" obj_delta={cmp.objective_delta:.3g}"
            f" totals_rel={cmp.max_total_rel_delta:.3g}"
            f" kkt={'pass' if cmp.kkt.passed else 'FAIL'}"
            f" verify={'pass' if cmp.passed else 'FAIL'}"
        )
        ok = ok and cmp.passed
    return line, ok


def _cmd_point(args) -> int:
    """``run`` and ``verify``: one point, the file's scenario as it stands."""
    doc = load_scenario_document(args.scenario)
    verify = args.command == "verify"
    first = doc.scenario.carriers[0]
    rec = run_point(doc.scenario, first.capacity, EngineConfig(max_rounds=args.max_rounds), verify)
    line, ok = _point_line(first.id, rec, verify)
    print(line)
    if rec.comparison is not None:
        cmp, kkt = rec.comparison, rec.comparison.kkt
        print(
            f"oracle objective={rec.oracle.objective:.9g} "
            f"(protocol {rec.result.objective:.9g}, delta {cmp.objective_delta:.3g})"
        )
        print(f"max per-UE total deviation {cmp.max_total_rel_delta:.3g} (UE {cmp.worst_ue_id})")
        print(
            f"kkt tol={kkt.tol:g} stationarity={kkt.stationarity_active:.3g}/"
            f"{kkt.stationarity_inactive:.3g} comp_slack={kkt.complementary_slackness:.3g} "
            f"=> {'pass' if kkt.passed else 'FAIL'}"
        )
    if verify:
        print(f"verification {'pass' if ok else 'FAIL'}")
    if rec.error is not None:
        print(f"numeric failure: {rec.error}", file=sys.stderr)
    if getattr(args, "out", None) is not None:
        paths = write_results([rec], args.out)
        print(f"wrote {paths['rates']} {paths['prices']} {paths['summary']}",
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_sweep(args) -> int:
    doc = load_scenario_document(args.scenario)
    sweep = _sweep_spec(args, doc.sweep)
    config = EngineConfig(max_rounds=args.max_rounds)
    records = run_sweep(doc.scenario, sweep, config, verify=args.verify)
    if args.out is not None:
        write_results(records, args.out)
    failed: List[str] = []
    for rec in records:
        line, ok = _point_line(sweep.carrier_id, rec, args.verify)
        print(line)
        if not ok:
            reason = f" ({rec.error})" if rec.result is None else ""
            failed.append(f"{rec.sweep_value:g}{reason}")
    if failed:
        print(f"failing sweep points: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


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
    text = scenario_to_yaml(
        build_paper_scenario(r1=args.r1),
        sweep=SweepSpec(carrier_id=1, start=20.0, stop=300.0, step=10.0),
    )
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_point,
    "sweep": _cmd_sweep,
    "verify": _cmd_point,
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


if __name__ == "__main__":
    sys.exit(main())
