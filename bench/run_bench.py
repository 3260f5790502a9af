#!/usr/bin/env python3
"""carrieralloc benchmark: one workload per process, closed loop, one client.

Run from the repository root (numpy and PyYAML installed; nothing is built):

    python3 bench/run_bench.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

    paper-sweep      ``carrieralloc sweep`` of the 18-user reference scenario,
                     R1 = 20..300 step 10, CSVs written, no oracle
    paper-verify     the same sweep with ``--verify``
    synthetic-scale  seeded 1000-user / 8-carrier scenarios, one protocol
                     ``run`` each with a fixed round budget (runnable, but
                     not listed in BENCHMARK.json: too noisy to gate)

The program is imported from ``src/`` of this checkout only.  The sweep
thread count is left to the library default (``CARRIER_ALLOC_THREADS`` is
unset).  After set-up (repeated for a few seconds, fastest reported) the
workload runs whole passes until ``--seconds`` would be exceeded, at least
one.  Every output is checked (bench/checks.py).  With ``--trace 1`` the run
makes one untraced and one traced pass and reports per-layer metrics
(bench/tracer.py) instead.

Standard output: run metadata and a table of every metric with its unit,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  Spans and result files go to bench/work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import synthetic
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

THREADS_ENV_VAR = "CARRIER_ALLOC_THREADS"
# Set-up is repeated until SETUP_SECONDS have passed, at least SETUP_MIN
# times, and the fastest is reported.  One set-up of the paper workloads takes
# 10-25 ms, and the machine's speed switches between two levels 1.5x apart
# that each hold for one to eight seconds, so the median of a window is
# whichever level held longest in it, and a window of 3 s can fall wholly in
# the slow level.  The fastest of a 6-s window is steady from run to run.
SETUP_SECONDS, SETUP_MIN = 6.0, 5
TAIL_BEYOND = 10  # a tail percentile needs at least this many points above it

perf = time.perf_counter
# Points are timed in CPU time of the thread that runs them: sweep points
# share the GIL with each other, so their wall times depend on which points
# happened to overlap.  wall_s carries the effect of that sharing.
point_clock = time.thread_time


class BenchError(RuntimeError):
    """The benchmark could not run or measure the workload."""


@dataclass
class Pass:
    wall_s: float
    point_s: List[float]
    rounds: List[int]
    threads: int
    outputs: tuple  # what the workload checks and compares across passes


@dataclass
class Run:
    setup_s: List[float] = field(default_factory=list)
    passes: List[Pass] = field(default_factory=list)


# ----------------------------------------------------------------------
# instrumentation shared by both kinds of pass


@contextlib.contextmanager
def patched(patches):
    """Temporarily set ``owner.attr = value`` for each (owner, attr, value)."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class PointClock:
    """Thread CPU time of each sweep point: protocol run, oracle, comparison.

    Wraps the three calls ``carrieralloc.scenario`` makes per point; a
    ``run`` call starts a point on its thread and the other two add to it.
    """

    def __init__(self) -> None:
        self.points: List[list] = []
        self._local = threading.local()

    def wrap(self, fn, starts_point: bool):
        clock = self

        def timed(*args, **kwargs):
            start = point_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = point_clock() - start
                if starts_point:
                    clock._local.point = [elapsed, threading.get_ident()]
                    clock.points.append(clock._local.point)
                else:
                    clock._local.point[0] += elapsed

        return timed


# ----------------------------------------------------------------------
# workloads


class PaperSweep:
    """``carrieralloc sweep`` on the file ``carrieralloc paper-scenario`` writes."""

    verify = False
    carrier, start, stop, step = 1, 20, 300, 10

    def __init__(self, ca, workdir: Path, seed: int) -> None:
        # The published experiment is fixed; the seed selects nothing here.
        self.ca = ca
        self.cli = importlib.import_module("carrieralloc.cli")
        self.scen = importlib.import_module("carrieralloc.scenario")
        self.workdir = workdir
        self.path = workdir / "paper18.yaml"
        self.delta = ca.EngineConfig().delta

    def setup(self) -> None:
        with self._quiet(self.workdir / "setup.log"):
            code = self.cli.main(["paper-scenario", "--out", str(self.path)])
        if code != 0:
            raise BenchError(f"paper-scenario exited {code}")
        self.scenario = self.ca.load_scenario_document(self.path).scenario

    @staticmethod
    def _quiet(log: Path):
        stack = contextlib.ExitStack()
        fh = stack.enter_context(open(log, "a"))
        stack.enter_context(contextlib.redirect_stdout(fh))
        stack.enter_context(contextlib.redirect_stderr(fh))
        return stack

    def run_pass(self, index: int) -> Pass:
        out = self.workdir / f"pass{index}"
        argv = ["sweep", "--scenario", str(self.path), "--carrier", str(self.carrier),
                "--from", str(self.start), "--to", str(self.stop), "--step", str(self.step),
                "--out", str(out)] + (["--verify"] if self.verify else [])
        clock, captured = PointClock(), []

        def capture(fn):
            def run_sweep(*args, **kwargs):
                captured.append(fn(*args, **kwargs))
                return captured[-1]
            return run_sweep

        scen, cli = self.scen, self.cli
        with patched([
            (scen, "run", clock.wrap(scen.run, True)),
            (scen, "solve_central", clock.wrap(scen.solve_central, False)),
            (scen, "compare_to_oracle", clock.wrap(scen.compare_to_oracle, False)),
            (cli, "run_sweep", capture(cli.run_sweep)),
        ]), self._quiet(self.workdir / f"pass{index}.log"):
            start = perf()
            code = self.cli.main(argv)
            wall = perf() - start
        if len(captured) != 1:
            raise BenchError("the sweep command did not call run_sweep once")
        records = captured[0]
        if len(clock.points) != len(records):
            raise BenchError(
                f"timed {len(clock.points)} points but the sweep has {len(records)}")
        return Pass(
            wall_s=wall,
            point_s=[p[0] for p in clock.points],
            rounds=[rec.result.rounds for rec in records if rec.result is not None],
            threads=len({p[1] for p in clock.points}),
            outputs=(out, records, code),
        )

    def check(self, p: Pass, verdict: checks.Verdict) -> None:
        out, records, code = p.outputs
        checks.check_sweep(self.ca, self.scenario, self.carrier, records, out, code,
                           self.delta, self.verify, verdict)

    def same_outputs(self, a: Pass, b: Pass) -> bool:
        return all((a.outputs[0] / name).read_bytes() == (b.outputs[0] / name).read_bytes()
                   for name in ("rates.csv", "prices.csv", "summary.csv"))

    def oracle_solutions(self, p: Pass):
        return [rec.oracle for rec in p.outputs[1] if rec.oracle is not None]


class PaperVerify(PaperSweep):
    verify = True


class SyntheticScale:
    """One protocol ``run`` per generated scenario, fixed round budget."""

    verify = False
    scenarios, users, carriers = 5, 1000, 8
    max_rounds = 30

    def __init__(self, ca, workdir: Path, seed: int) -> None:
        self.ca = ca
        self.seed = seed
        self.config = ca.EngineConfig(max_rounds=self.max_rounds)

    def setup(self) -> None:
        self.generated = synthetic.generate(
            self.ca, self.seed, self.scenarios, self.users, self.carriers)

    def run_pass(self, index: int) -> Pass:
        results, times = [], []
        start = perf()
        for scenario in self.generated:
            t0 = point_clock()
            try:
                result = self.ca.run(scenario, self.config)
            except self.ca.NonConvergenceError as exc:
                result = exc.result
            times.append(point_clock() - t0)
            results.append(result)
        wall = perf() - start
        return Pass(wall_s=wall, point_s=times, rounds=[r.rounds for r in results],
                    threads=1, outputs=tuple(results))

    def check(self, p: Pass, verdict: checks.Verdict) -> None:
        checks.check_results(self.ca, self.generated, p.outputs, self.config.delta, verdict)

    def same_outputs(self, a: Pass, b: Pass) -> bool:
        return all((x.rates, x.prices, x.rounds) == (y.rates, y.prices, y.rounds)
                   for x, y in zip(a.outputs, b.outputs))

    def oracle_solutions(self, p: Pass):
        return []


WORKLOADS = {
    "paper-sweep": PaperSweep,
    "paper-verify": PaperVerify,
    "synthetic-scale": SyntheticScale,
}


# ----------------------------------------------------------------------
# metrics


def tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """(percentile, value): the highest percentile with TAIL_BEYOND points above."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)  # nearest rank: ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def end_to_end(run: Run, verdict: checks.Verdict, verify: bool):
    points_ms = [1e3 * s for p in run.passes for s in p.point_s]
    metrics = {
        "setup_s": (min(run.setup_s), "s"),
        "wall_s": (statistics.median(p.wall_s for p in run.passes), "s"),
        "rounds_total": (statistics.median(sum(p.rounds) for p in run.passes), "count"),
        "rounds_max": (max(max(p.rounds) for p in run.passes), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed in the table but not gated (see bench/README.md).
    extra = {
        "failed_share": (verdict.failed / verdict.attempted, "share"),
        f"point_ms.p50 (n={len(points_ms)})": (statistics.median(points_ms), "ms"),
    }
    t = tail(points_ms)
    if t is not None:
        extra[f"point_ms.tail (p{t[0]}, n={len(points_ms)})"] = (t[1], "ms")
    if verify:
        extra["obj_gap_max"] = (verdict.obj_gap_max, "objective")
    return metrics, extra


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass, oracles) -> Dict[str, tuple]:
    by_name = defaultdict(list)
    for span in tracer.spans():
        by_name[span.name].append(span)
    agg = tracer.aggregates()
    counts = tracer.counts()

    def named(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s.duration for s in named(name))

    def self_seconds(name):
        return sum(s.self_s for s in named(name))

    def per_call_us(name):
        found = named(name)
        return 1e6 * sum(s.duration for s in found) / len(found) if found else 0.0

    ue_steps = named("subproblem.ue_step")
    runs = named("protocol.run")
    rounds = sum(traced.rounds)
    projections = agg.get(("oracle", "oracle.project_carrier_block"), [0, 0.0])
    oracle_demand = agg.get(("oracle", "utility.solve_rate_for_price"), [0, 0.0])
    ue_demand = agg.get(("subproblem", "utility.solve_rate_for_price"), [0, 0.0])
    return {
        "subproblem.ue_steps": (len(ue_steps), "count"),
        "subproblem.ue_step_us": (per_call_us("subproblem.ue_step"), "us"),
        "subproblem.demand_calls": (ue_demand[0], "count"),
        "utility.marginal_calls": (counts["marginal"], "count"),
        "utility.marginal_per_ue_step": (
            sum(s.marginals for s in ue_steps) / len(ue_steps) if ue_steps else 0.0,
            "calls/step"),
        "utility.log_utility_calls": (counts["log_utility"], "count"),
        "protocol.run_s": (seconds("protocol.run"), "s"),
        "protocol.self_s": (self_seconds("protocol.run"), "s"),
        "protocol.round_us": (1e6 * seconds("protocol.run") / rounds if rounds else 0.0, "us"),
        "protocol.carrier_steps": (len(named("protocol.carrier_step")), "count"),
        "protocol.carrier_step_us": (per_call_us("protocol.carrier_step"), "us"),
        "oracle.solve_s": (seconds("oracle.solve_central"), "s"),
        "oracle.pg_iters": (sum(o.iterations for o in oracles), "count"),
        "oracle.projections": (projections[0], "count"),
        "oracle.projection_s": (projections[1], "s"),
        "oracle.demand_calls": (oracle_demand[0], "count"),
        "oracle.demand_s": (oracle_demand[1], "s"),
        "oracle.kkt_checks": (len(named("oracle.kkt_check")), "count"),
        "oracle.kkt_s": (seconds("oracle.kkt_check"), "s"),
        "oracle.uncertified": (sum(not o.converged for o in oracles), "count"),
        "scenario.load_s": (seconds("scenario.load_scenario_document"), "s"),
        "scenario.write_s": (seconds("scenario.write_results"), "s"),
        "scenario.sweep_self_s": (self_seconds("scenario.run_sweep"), "s"),
        "scenario.compare_s": (seconds("scenario.compare_to_oracle"), "s"),
        "scenario.workers": (len({s.thread for s in runs}), "count"),
        "cli.self_s": (self_seconds("cli.main"), "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }


# ----------------------------------------------------------------------
# command line


def import_program():
    """Import carrieralloc from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import carrieralloc
    except ImportError as exc:
        raise BenchError(f"cannot import carrieralloc from {SRC}: {exc}") from exc
    if Path(carrieralloc.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"carrieralloc imported from {carrieralloc.__file__}, not {SRC}")
    return carrieralloc


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop(THREADS_ENV_VAR, None)
    start = perf()
    ca = import_program()
    import_s = perf() - start
    import numpy

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ca, workdir, args.seed)

    run = Run()
    started = perf()
    while len(run.setup_s) < SETUP_MIN or perf() - started < SETUP_SECONDS:
        start = perf()
        workload.setup()
        run.setup_s.append(perf() - start)

    tracer = None
    if args.trace:
        run.passes.append(workload.run_pass(0))
        tracer = Tracer()
        tracer.install(ca)
        try:
            run.passes.append(workload.run_pass(1))
        finally:
            tracer.restore()
        tracer.write(workdir / "spans.csv")
    else:
        started = perf()
        while True:
            run.passes.append(workload.run_pass(len(run.passes)))
            if perf() - started + run.passes[-1].wall_s > args.seconds:
                break

    verdict = checks.Verdict()
    for p in run.passes:
        workload.check(p, verdict)
    for i, p in enumerate(run.passes[1:], 1):
        if not workload.same_outputs(run.passes[0], p):
            verdict.errors.append(f"pass {i} outputs differ from pass 0")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sweep_workers": max(p.threads for p in run.passes),
        "src_lines": src_lines(),
        "import_s": import_s,
        "setups": len(run.setup_s),
        "passes": len(run.passes),
        "points": verdict.attempted,
    }
    if tracer is None:
        metrics, extra = end_to_end(run, verdict, workload.verify)
    else:
        metrics = per_layer(tracer, run.passes[1], run.passes[0],
                            workload.oracle_solutions(run.passes[1]))
        extra = {"failed_share": (verdict.failed / verdict.attempted, "share")}

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    for line in verdict.failures:
        print(f"failed point {line}")
    for line in verdict.errors:
        print(f"output error {line}", file=sys.stderr)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
