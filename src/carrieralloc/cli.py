"""Command-line interface.

Commands:
    run             run the bidding protocol on a scenario file
    sweep           capacity sweep over one carrier, optional oracle check
    verify          run, then check the protocol against the centralized oracle
    utility-curve   sample a utility, written as in a scenario file, as CSV
    paper-scenario  emit the built-in 18-UE reference scenario file

``run``, ``verify`` and ``sweep`` are one handler over ``run_sweep``; ``run``
and ``verify`` sweep one point, the first carrier at its capacity.  Failing
points go to stderr as ``failing sweep points: V (error)``, and ``--out``
adds a ``wrote …`` line there.

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
    parse_utility,
    run_sweep,
    scenario_to_yaml,
    write_results,
)
from .utility import UtilityDomainError, evaluate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of ``command`` alone if it is one of ``_COMMANDS``, else of every command.

    A call runs one command, and argparse makes a help formatter, which queries
    the terminal's size, for each option it adds: the other commands' options
    would be built for nothing.  No command, ``-h`` and an unknown command get
    every subparser, as the top-level help and its invalid-choice error list
    them all.
    """
    parser = _Parser(prog="carrieralloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ([command] if command in _COMMANDS else _COMMANDS):
        p = sub.add_parser(name, help=_COMMANDS[name][0])
        if name in ("run", "sweep", "verify"):
            # one handler with one engine setting, the round limit; the others
            # are EngineConfig's defaults, and a scenario file has none.
            max_rounds = EngineConfig().max_rounds
            p.add_argument("--scenario", required=True, help="scenario file (YAML)")
            p.add_argument("--max-rounds", type=int, default=max_rounds,
                           help=f"round limit before giving up (default {max_rounds})")
            p.set_defaults(verify=name == "verify", out=None)
            if name != "verify":
                p.add_argument("--out", help="directory for result CSVs")
            if name == "sweep":
                for field, key, kind in _SWEEP_KEYS:
                    p.add_argument(_SWEEP_FLAGS[field], dest=field, type=kind, default=None,
                                   help=f"sweep {key} (overrides the scenario file's)")
                p.add_argument("--verify", action="store_true",
                               help="also solve each point centrally and compare")
        elif name == "utility-curve":
            p.add_argument("--utility", required=True,
                           help="utility as in a scenario file, "
                                "e.g. '{type: sigmoidal, a: 1, b: 30}'")
            p.add_argument("--max", dest="r_max_axis", type=float, default=100.0,
                           help="largest sampled rate (default 100)")
            p.add_argument("--samples", type=int, default=1000,
                           help="number of intervals; emits N+1 rows (default 1000)")
        else:
            p.add_argument("--out", default="-", help="output path, '-' for stdout")
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


def _cmd_points(args) -> int:
    """``run``, ``verify`` and ``sweep``; the first two sweep one point."""
    doc = load_scenario_document(args.scenario)
    if args.command == "sweep":
        sweep = _sweep_spec(args, doc.sweep)
    else:
        first = doc.scenario.carriers[0]
        sweep = SweepSpec(first.id, first.capacity, first.capacity, 1.0)
    config = EngineConfig(max_rounds=args.max_rounds)
    records = run_sweep(doc.scenario, sweep, config, args.verify)
    failed: List[str] = []
    for rec in records:
        line, ok = _point_line(sweep.carrier_id, rec, args.verify)
        print(line)
        if not ok:
            failed.append(f"{rec.sweep_value:g}" + (f" ({rec.error})" if rec.error else ""))
    if args.command == "verify":
        (rec,) = records
        if rec.comparison is not None:
            cmp, kkt = rec.comparison, rec.comparison.kkt
            print(
                f"oracle objective={rec.oracle.objective:.9g} "
                f"(protocol {rec.result.objective:.9g}, delta {cmp.objective_delta:.3g})"
            )
            print(
                f"certificate: P(T*) - P(T) = {rec.oracle.objective - rec.result.objective:.3g}"
                f" in [-{cmp.budget:.3g}, gap {rec.result.duality_gap:.3g} + {cmp.budget:.3g}]"
                f" => {'pass' if cmp.passed else 'FAIL'}"
            )
            print(f"diagnostic: max per-UE total deviation {cmp.max_total_rel_delta:.3g}"
                  f" (UE {cmp.worst_ue_id})")
            print(
                f"diagnostic: kkt tol={kkt.tol:g} stationarity={kkt.stationarity_active:.3g}/"
                f"{kkt.stationarity_inactive:.3g} comp_slack={kkt.complementary_slackness:.3g} "
                f"=> {'pass' if kkt.passed else 'FAIL'}"
            )
        print(f"verification {'FAIL' if failed else 'pass'}")
    if failed:
        print(f"failing sweep points: {', '.join(failed)}", file=sys.stderr)
    if args.out is not None:
        paths = write_results(records, args.out)
        print(f"wrote {paths['rates']} {paths['prices']} {paths['summary']}",
              file=sys.stderr)
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_utility_curve(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    if not (args.r_max_axis > 0 and math.isfinite(args.r_max_axis)):
        raise _UsageError("--max must be finite and > 0")
    u = parse_utility(args.utility, "--utility")
    print("r,utility")
    n = args.samples
    for j in range(n + 1):
        r = j * args.r_max_axis / n
        print(f"{r!r},{evaluate(u, r)!r}")
    return EXIT_OK


def _cmd_paper_scenario(args) -> int:
    text = scenario_to_yaml(
        build_paper_scenario(),
        sweep=SweepSpec(carrier_id=1, start=20.0, stop=300.0, step=10.0),
    )
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


# Each command's one-line help and handler, in the order the top-level help lists them.
_COMMANDS = {
    "run": ("run the protocol on a scenario", _cmd_points),
    "sweep": ("sweep one carrier's capacity", _cmd_points),
    "verify": ("check protocol against the oracle", _cmd_points),
    "utility-curve": ("sample a utility as CSV", _cmd_utility_curve),
    "paper-scenario": ("emit the built-in scenario", _cmd_paper_scenario),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][1](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, UtilityDomainError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
