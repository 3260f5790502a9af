"""Ensemble report: the protocol's round counts over equivalent inputs.  It
prints and gates nothing.

    PYTHONPATH=src:tests python tests/ensemble_report.py

Round counts are chaotic in the last bit of a user's demand, so one run of
the paper sweep is one draw of them.  For each point of the 29-point paper
sweep (carrier 1 at R1 = 20, 30, ..., 300) the protocol runs on the nine
inputs of ``generators.ensemble``, and one line gives the median and the
largest rounds and the number of runs that end at the round limit (a failed
run counts its round limit).  Then one line per input gives its total
rounds over the sweep, its rounds at R1 = 50 and its failures.  Two more
lines give the same for the as-given sweep with both families' scalar
marginal moved one ulp up and one ulp down, a stand-in for any change to the
protocol's float work.

Last, the 18 small synthetic scenarios and ``paper-split`` (the paper
sweep with carrier 1 cut into two equal carriers) run once each, and a line
per family gives how many certify, in how many rounds, and the gap of each
failure.  About 30 s on a 2-CPU machine, two thirds of it the failures'
10^4 rounds.
"""

import math
import statistics
import time

from generators import ensemble, small_synthetic, split_carrier
from helpers import paper_sweep_with_nudged_marginals
from carrieralloc.protocol import EngineConfig, NonConvergenceError, run
from carrieralloc.scenario import build_paper_scenario

SWEEP = [20.0 + 10.0 * i for i in range(29)]


def outcome(scenario):
    """(rounds, certified, gap) of the protocol's run on ``scenario``."""
    try:
        res = run(scenario, EngineConfig())
    except NonConvergenceError as exc:
        res = exc.result
    return res.rounds, res.converged, res.duality_gap


def report_ensemble():
    paper = build_paper_scenario(300.0)
    rounds, failures = {}, {}
    for r1 in SWEEP:
        point = [(name, *outcome(scenario))
                 for name, scenario in ensemble(paper.with_capacity(1, r1)).items()]
        for name, n, certified, _ in point:
            rounds.setdefault(name, []).append(n)
            failures[name] = failures.get(name, 0) + (not certified)
        column = [n for _, n, _, _ in point]
        print(f"R1={r1:g}: median {statistics.median(column):g}, largest {max(column)},",
              f"failures {sum(not certified for _, _, certified, _ in point)}")
    at_50 = SWEEP.index(50.0)
    for name, counts in rounds.items():
        print(f"{name}: total {sum(counts)}, largest {max(counts)}, R1=50 {counts[at_50]},",
              f"failures {failures[name]}")
    totals = [sum(counts) for counts in rounds.values()]
    print(f"ensemble: totals {min(totals)}-{max(totals)}, median {statistics.median(totals):g}")
    for label, direction in (("+1", math.inf), ("-1", -math.inf)):
        point = paper_sweep_with_nudged_marginals(direction)
        print(f"as given, marginal {label} ulp: total {sum(n for n, _ in point)},",
              f"R1=50 {point[at_50][0]}, failures {sum(not certified for _, certified in point)}")


def report_once(family, scenarios):
    certified, total, failed = 0, 0, []
    for name, scenario in scenarios.items():
        n, ok, gap = outcome(scenario)
        if ok:
            certified, total = certified + 1, total + n
        else:
            failed.append(f"{name} (gap {gap:.3g})")
    print(f"{family}: {certified} of {len(scenarios)} certify in {total} rounds;",
          "failures:", ", ".join(failed) or "none")


def main():
    start = time.perf_counter()
    report_ensemble()
    report_once("small", small_synthetic())
    paper = build_paper_scenario(300.0)
    report_once("paper-split", {f"R1={r1:g}": split_carrier(paper.with_capacity(1, r1), 2)
                                for r1 in SWEEP})
    print(f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
