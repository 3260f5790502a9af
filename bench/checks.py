"""Output checks for every point the benchmark runs.

Two kinds of check, and no point is skipped:

* Point checks decide whether a point counts as failed (``failed`` and
  ``failed_share``): the protocol converged within its round budget, the
  protocol's own ``kkt_check`` passes at 10 * delta, and, with an oracle, the
  oracle's certificate holds (its ``converged`` flag, which the oracle sets
  from its own ``kkt_check``) and the sweep's ``compare_to_oracle`` passed.
* Output checks decide ``correct``: rates are finite and non-negative, every
  carrier's capacity is used exactly, the CSV files hold exactly the results
  the library returned, repeated passes give identical outputs, and the CLI
  exit status agrees with its points.  A failure here is a wrong output, not
  a hard instance, so it also fails the point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

KKT_FACTOR = 10.0
CAPACITY_RTOL = 1e-9  # acceptance criterion 5


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)  # output checks
    failures: List[str] = field(default_factory=list)  # failed points
    obj_gap_max: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.errors

    def point(self, label: str, problems: List[str], errors: List[str]) -> None:
        self.attempted += 1
        self.errors += [f"{label}: {e}" for e in errors]
        if problems or errors:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems + errors)}")


def check_allocation(ca, scenario, rates, prices, converged, delta):
    """(point problems, output errors) for one protocol allocation."""
    problems: List[str] = []
    errors: List[str] = []
    loads = {c.id: 0.0 for c in scenario.carriers}
    for (cid, _), rate in rates.items():
        if not (math.isfinite(rate) and rate >= 0.0):
            errors.append(f"rate {rate!r} on carrier {cid}")
        loads[cid] += rate
    for c in scenario.carriers:
        if abs(loads[c.id] - c.capacity) > CAPACITY_RTOL * c.capacity:
            errors.append(f"carrier {c.id} load {loads[c.id]!r} != capacity {c.capacity!r}")
    if not converged:
        problems.append("not converged")
    candidate = SimpleNamespace(rates=rates, prices=prices)
    if not ca.kkt_check(candidate, scenario, tol=KKT_FACTOR * delta).passed:
        problems.append(f"kkt_check fails at {KKT_FACTOR * delta:g}")
    return problems, errors


def read_sweep_csv(out_dir: Path) -> Dict[float, dict]:
    """rates.csv, prices.csv and summary.csv keyed by sweep value."""
    points: Dict[float, dict] = {}

    def point(value: str) -> dict:
        return points.setdefault(float(value), {"rates": {}, "bids": {}, "prices": {}})

    with open(out_dir / "rates.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["carrier_id"]), int(row["ue_id"]))
            p = point(row["sweep_value"])
            p["rates"][key] = float(row["rate"])
            p["bids"][key] = float(row["bid"])
    with open(out_dir / "prices.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            p = point(row["sweep_value"])
            p["prices"][int(row["carrier_id"])] = float(row["price"])
            p["rounds"] = int(row["rounds"])
            p["converged"] = row["converged"] == "True"
    with open(out_dir / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            point(row["sweep_value"])["summary"] = row
    return points


def check_sweep(ca, scenario, carrier_id, records, out_dir, exit_code, delta,
                verify, verdict: Verdict) -> None:
    """Check one CLI sweep pass: its CSV files, records and exit status."""
    files = read_sweep_csv(out_dir)
    if sorted(files) != sorted(rec.sweep_value for rec in records):
        verdict.errors.append(f"{out_dir}: CSV sweep values differ from the sweep")
    cli_failed = False
    for rec in records:
        label = f"R{carrier_id}={rec.sweep_value:g}"
        point = scenario.with_capacity(carrier_id, rec.sweep_value)
        if rec.result is None:
            verdict.point(label, [f"no result: {rec.error}"], [])
            cli_failed = True
            continue
        row = files.get(rec.sweep_value)
        if row is None:
            verdict.point(label, [], ["missing from the CSV files"])
            continue
        res = rec.result
        problems, errors = check_allocation(
            ca, point, row["rates"], row["prices"], row["converged"], delta)
        if (row["rates"], row["bids"], row["prices"], row["rounds"], row["converged"]) != (
                res.rates, res.bids, res.prices, res.rounds, res.converged):
            errors.append("CSV files differ from the library result")
        if float(row["summary"]["objective"]) != res.objective:
            errors.append("summary.csv objective differs from the library result")
        if rec.error:
            problems.append(rec.error)
        point_cli_ok = res.converged and rec.error is None
        if verify:
            if rec.oracle is None or rec.comparison is None:
                problems.append("no oracle comparison")
                point_cli_ok = False
            else:
                if not rec.oracle.converged:
                    problems.append("oracle solution not certified")
                comparison = rec.comparison
                if not comparison.passed:
                    problems.append(
                        f"compare_to_oracle fails (objective delta "
                        f"{comparison.objective_delta:.3g}, totals off by "
                        f"{comparison.max_total_rel_delta:.3g})")
                if row["summary"]["kkt_passed"] != str(comparison.kkt.passed):
                    errors.append("summary.csv kkt_passed differs from the sweep's own")
                point_cli_ok = point_cli_ok and comparison.passed
                verdict.obj_gap_max = max(
                    verdict.obj_gap_max, abs(res.objective - rec.oracle.objective))
        cli_failed = cli_failed or not point_cli_ok
        verdict.point(label, problems, errors)
    expected = 2 if cli_failed else 0
    if exit_code != expected:
        verdict.errors.append(f"CLI exit status {exit_code}, its points imply {expected}")


def check_results(ca, scenarios, results, delta, verdict: Verdict) -> None:
    """Check library runs of generated scenarios."""
    for scenario, res in zip(scenarios, results):
        problems, errors = check_allocation(
            ca, scenario, res.rates, res.prices, res.converged, delta)
        verdict.point(scenario.name, problems, errors)
