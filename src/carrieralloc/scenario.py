"""Scenario definition, persistence, sweep execution, and result files.

A scenario is a set of capacity-limited carriers plus users, each user with
a utility function and a non-empty set of reachable carriers.  Scenarios are
stored as a single YAML document with top-level keys ``name``, ``carriers``,
``ues`` and an optional ``sweep`` section; any other key, at any level, is an
error, so a misspelled key never leaves a value on its default.  Engine
settings are not part of the file: the library sets all three
``EngineConfig`` fields, the CLI sets ``--max-rounds`` only.

``run_point`` runs the protocol (and optionally the centralized oracle) on
one scenario; the sweep runner maps it over the capacities one carrier steps
through, and the writers
emit three CSV files with fixed headers:

    rates.csv    sweep_value,carrier_id,ue_id,rate,bid
    prices.csv   sweep_value,carrier_id,price,rounds,converged
    summary.csv  per-point objective, oracle deltas, KKT residuals, gap, verdict

Floats are written with repr (shortest round-trip form), so re-parsing the
files reproduces the in-memory values exactly.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from .oracle import KKTReport, OracleError, OracleSolution, kkt_check, solve_central
from .protocol import AllocationResult, EngineConfig, NonConvergenceError, run
from .utility import LogarithmicUtility, SigmoidalUtility, UtilityFunction
from .utility import log_utility_scales, parameter_arrays

__all__ = [
    "ScenarioError",
    "CarrierSpec",
    "UESpec",
    "Scenario",
    "SweepSpec",
    "ScenarioDocument",
    "RunRecord",
    "ComparisonReport",
    "load_scenario",
    "load_scenario_document",
    "parse_utility",
    "save_scenario",
    "scenario_to_yaml",
    "build_paper_scenario",
    "compare_to_oracle",
    "run_point",
    "run_sweep",
    "write_results",
]

# The protocol's KKT residuals that a check against the oracle reports, a
# diagnostic (see compare_to_oracle), at ten times the bid-stability tolerance.
VERIFY_KKT_FACTOR = 10.0

# libyaml's C scanner, parser and emitter wherever PyYAML was built with them
# (the pure-Python classes otherwise).  Either way PyYAML's safe constructor,
# resolver and representer decide every type, so both read and write the same
# documents; only the place where a long quoted string is folded may differ.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ScenarioError(ValueError):
    """Invalid scenario contents or unparseable scenario file."""


@dataclass(frozen=True)
class CarrierSpec:
    id: int
    capacity: float


@dataclass(frozen=True)
class UESpec:
    id: int
    utility: UtilityFunction
    carriers: Tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    carriers: Tuple[CarrierSpec, ...]
    ues: Tuple[UESpec, ...]
    name: str = "scenario"

    def __post_init__(self) -> None:
        if not self.carriers:
            raise ScenarioError("scenario needs at least one carrier")
        if not self.ues:
            raise ScenarioError("scenario needs at least one UE")
        cids = [c.id for c in self.carriers]
        if len(set(cids)) != len(cids):
            raise ScenarioError(f"duplicate carrier ids: {sorted(cids)}")
        uids = [u.id for u in self.ues]
        if len(set(uids)) != len(uids):
            raise ScenarioError(f"duplicate UE ids: {sorted(uids)}")
        known = set(cids)
        for c in self.carriers:
            if not (c.capacity > 0.0 and math.isfinite(c.capacity)):
                raise ScenarioError(
                    f"carrier {c.id}: capacity must be > 0, got {c.capacity}"
                )
        for u in self.ues:
            if not u.carriers:
                raise ScenarioError(f"UE {u.id}: reachable carrier set is empty")
            unknown = set(u.carriers) - known
            if unknown:
                raise ScenarioError(
                    f"UE {u.id}: references unknown carriers {sorted(unknown)}"
                )
            if len(set(u.carriers)) != len(u.carriers):
                raise ScenarioError(f"UE {u.id}: duplicate carriers in reach set")

    @property
    def total_capacity(self) -> float:
        return sum(c.capacity for c in self.carriers)

    def carrier(self, carrier_id: int) -> CarrierSpec:
        for c in self.carriers:
            if c.id == carrier_id:
                return c
        raise ScenarioError(f"no carrier with id {carrier_id}")

    def with_capacity(self, carrier_id: int, capacity: float) -> "Scenario":
        self.carrier(carrier_id)  # existence check
        return replace(
            self,
            carriers=tuple(
                replace(c, capacity=capacity) if c.id == carrier_id else c
                for c in self.carriers
            ),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Capacity sweep of one carrier: inclusive endpoints, positive step."""

    carrier_id: int
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"sweep {name} must be finite, got {getattr(self, name)}")
        if self.step <= 0.0:
            raise ScenarioError(f"sweep step must be > 0, got {self.step}")
        if self.start > self.stop:
            raise ScenarioError(
                f"sweep range is empty: from {self.start} to {self.stop}"
            )
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ScenarioError(
                f"sweep from {self.start} to {self.stop} in steps of {self.step} "
                "has no finite point count"
            )

    def values(self) -> List[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    sweep: Optional[SweepSpec] = None


@dataclass(frozen=True)
class ComparisonReport:
    """The protocol's certificate checked against the oracle, and diagnostics."""

    objective_delta: float
    max_total_rel_delta: float
    worst_ue_id: int
    kkt: KKTReport
    budget: float
    passed: bool


@dataclass
class RunRecord:
    sweep_value: float
    result: Optional[AllocationResult] = None
    oracle: Optional[OracleSolution] = None
    comparison: Optional[ComparisonReport] = None
    error: Optional[str] = None


# --------------------------------------------------------------------------
# persistence

def _number(value: object, field: str, kind: type = float):
    """``kind(value)``, refusing true/false, a string (a quoted number) and a fraction as an int."""
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, (bool, str)) or fraction:
        raise TypeError(f"{field} must be {kind.__name__}, got {value!r}")
    return kind(value)


_FAMILIES = {"sigmoidal": SigmoidalUtility, "logarithmic": LogarithmicUtility}
# Each family's parameters: its dataclass's init fields, in order.
_PARAMS = {family: [f.name for f in fields(family) if f.init] for family in _FAMILIES.values()}


def _utility_to_dict(u: UtilityFunction) -> Dict[str, object]:
    for kind, family in _FAMILIES.items():
        if isinstance(u, family):
            return {"type": kind, **vars(u)}
    raise ScenarioError(f"unknown utility object {u!r}")


def _utility_from_dict(d: object) -> UtilityFunction:
    if not isinstance(d, dict) or "type" not in d:
        raise ScenarioError("utility must be a mapping with a 'type' key")
    family = _FAMILIES.get(d["type"])
    if family is None:
        raise ScenarioError(
            f"unknown utility type {d['type']!r} (expected one of {sorted(_FAMILIES)})"
        )
    _known(d, ["type", *_PARAMS[family]])
    return family(*(_number(d[name], name) for name in _PARAMS[family]))


def _known(d: object, keys: Sequence[str]) -> dict:
    """``d``, a mapping that has no key outside ``keys``.

    A key the format does not define is refused, not ignored: ignored, a
    misspelled key would leave its value on the default unannounced.
    """
    if not isinstance(d, dict):
        raise TypeError(f"must be a mapping, got {d!r}")
    for key in d:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} (expected {', '.join(keys)})")
    return d


@contextmanager
def _context(where: str) -> Iterator[None]:
    """Re-raise a bad entry's error as a ScenarioError that starts with ``where``."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse(text: str, where: str) -> object:
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{where}: not valid YAML: {exc}") from exc


def parse_utility(text: str, where: str) -> UtilityFunction:
    """A utility written as in a scenario file, e.g. ``{type: sigmoidal, a: 1, b: 30}``."""
    raw = _parse(text, where)
    with _context(where):
        return _utility_from_dict(raw)


# The sweep section's keys, by the SweepSpec field each one sets.
_SWEEP_KEYS = (("carrier_id", "carrier", int), ("start", "from", float),
               ("stop", "to", float), ("step", "step", float))


def load_scenario_document(path: Union[str, Path]) -> ScenarioDocument:
    """Parse and validate a scenario file, including any sweep section."""
    path = Path(path)
    raw = _parse(path.read_text(), str(path))
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    with _context(str(path)):
        _known(raw, ["name", "carriers", "ues", "sweep"])
    for section in ("carriers", "ues"):
        if section not in raw:
            raise ScenarioError(f"{path}: missing section '{section}'")
    if not isinstance(raw["carriers"], list) or not isinstance(raw["ues"], list):
        raise ScenarioError(f"{path}: 'carriers' and 'ues' must be lists")

    carriers = []
    for idx, item in enumerate(raw["carriers"]):
        with _context(f"{path}: carriers[{idx}]"):
            _known(item, ["id", "capacity"])
            carriers.append(
                CarrierSpec(id=_number(item["id"], "id", int),
                            capacity=_number(item["capacity"], "capacity"))
            )

    ues = []
    for idx, item in enumerate(raw["ues"]):
        with _context(f"{path}: ues[{idx}]"):
            _known(item, ["id", "utility", "carriers"])
            reach = item["carriers"]
            if not isinstance(reach, list):
                raise TypeError(f"carriers must be a list, got {reach!r}")
            ues.append(
                UESpec(
                    id=_number(item["id"], "id", int),
                    utility=_utility_from_dict(item.get("utility")),
                    carriers=tuple(sorted(_number(c, "carriers", int) for c in reach)),
                )
            )

    name = raw.get("name", path.stem)
    if not isinstance(name, str):
        raise ScenarioError(f"{path}: name must be a string, got {name!r}")
    scenario = Scenario(carriers=tuple(carriers), ues=tuple(ues), name=name)

    sweep = None
    if raw.get("sweep") is not None:
        with _context(f"{path}: sweep"):
            section = _known(raw["sweep"], [key for _, key, _ in _SWEEP_KEYS])
            sweep = SweepSpec(**{
                attr: _number(section[key], key, kind) for attr, key, kind in _SWEEP_KEYS
            })
        scenario.carrier(sweep.carrier_id)

    return ScenarioDocument(scenario=scenario, sweep=sweep)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load just the scenario from a file; invariants enforced at load time."""
    return load_scenario_document(path).scenario


def save_scenario(
    scenario: Scenario, path: Union[str, Path], sweep: Optional[SweepSpec] = None
) -> Path:
    path = Path(path)
    path.write_text(scenario_to_yaml(scenario, sweep=sweep))
    return path


def scenario_to_yaml(scenario: Scenario, sweep: Optional[SweepSpec] = None) -> str:
    doc: Dict[str, object] = {
        "name": scenario.name,
        "carriers": [
            {"id": c.id, "capacity": float(c.capacity)} for c in scenario.carriers
        ],
        "ues": [
            {
                "id": u.id,
                "utility": _utility_to_dict(u.utility),
                "carriers": list(u.carriers),
            }
            for u in scenario.ues
        ],
    }
    if sweep is not None:
        doc["sweep"] = {key: getattr(sweep, attr) for attr, key, _ in _SWEEP_KEYS}
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)


def build_paper_scenario(r1: float = 300.0) -> Scenario:
    """The 18-UE / 2-carrier reference experiment, carrier 2 fixed at 100.

    Three user groups of six: group 1 (ids 1-6) reaches carrier 1 only,
    group 2 (ids 7-12) carrier 2 only, group 3 (ids 13-18) both.  Within a
    group the utilities are sigmoidal (5,10), (3,20), (1,30) and logarithmic
    k = 15, 3, 0.5 with r_max = 100.
    """
    profiles: List[UtilityFunction] = [
        SigmoidalUtility(a=5.0, b=10.0),
        SigmoidalUtility(a=3.0, b=20.0),
        SigmoidalUtility(a=1.0, b=30.0),
        LogarithmicUtility(k=15.0, r_max=100.0),
        LogarithmicUtility(k=3.0, r_max=100.0),
        LogarithmicUtility(k=0.5, r_max=100.0),
    ]
    ues = []
    for i in range(1, 19):
        if i <= 6:
            reach: Tuple[int, ...] = (1,)
        elif i <= 12:
            reach = (2,)
        else:
            reach = (1, 2)
        ues.append(UESpec(id=i, utility=profiles[(i - 1) % 6], carriers=reach))
    return Scenario(
        carriers=(CarrierSpec(id=1, capacity=float(r1)), CarrierSpec(id=2, capacity=100.0)),
        ues=tuple(ues),
        name=f"paper18-r1-{r1:g}",
    )


# --------------------------------------------------------------------------
# sweep execution


def compare_to_oracle(
    result: AllocationResult,
    oracle_solution: OracleSolution,
    scenario: Scenario,
    delta: float,
) -> ComparisonReport:
    """The protocol's certificate checked against the oracle, plus diagnostics.

    The protocol's allocation is feasible, so on a point it certified (gap at
    most GAP_TOL) 0 <= P(T*) - P(T) <= its gap; that interval, widened by a
    rounding ``budget`` on both sides, is the pass rule.  The gap also puts
    every total within sqrt(2 gap / mu) of the optimum, so the totals' deviation
    and the KKT residuals at VERIFY_KKT_FACTOR * delta are only reported.

    The budget: both objectives sum M users' ln U (utility.log_utilities),
    each within a few roundings of its scale s_i (utility.log_utility_scales),
    and the gap adds prices times rates up to 2 sum_l p_l R_l; so each of the
    three is within (M + 8) u (sum_i s_i + 2 sum_l p_l R_l), s_i taken at
    both totals.
    """
    params = parameter_arrays([ue.utility for ue in scenario.ues])
    totals = np.array([[t.totals[ue.id] for ue in scenario.ues] for t in (result, oracle_solution)])
    scale = 2.0 * sum(result.prices[c.id] * c.capacity for c in scenario.carriers)
    scale += float(log_utility_scales(params, totals).sum())
    budget = 2.0 * (len(scenario.ues) + 8) * 2.0**-53 * scale
    gain = oracle_solution.objective - result.objective
    ref = oracle_solution.totals
    dev = {uid: abs(t - ref[uid]) / max(abs(ref[uid]), 1e-300) for uid, t in result.totals.items()}
    worst_uid = max(sorted(dev), key=dev.get)  # the lowest id among equals
    kkt = kkt_check(result, scenario, tol=VERIFY_KKT_FACTOR * delta)
    return ComparisonReport(
        objective_delta=abs(gain), max_total_rel_delta=dev[worst_uid], worst_ue_id=worst_uid,
        kkt=kkt, budget=budget,
        passed=result.converged and -budget <= gain <= result.duality_gap + budget,
    )


def run_point(
    point: Scenario,
    value: float,
    config: EngineConfig = EngineConfig(),
    verify: bool = False,
) -> RunRecord:
    """The protocol on one scenario, then optionally the oracle and the comparison.

    ``value`` is the record's ``sweep_value``.  Failures (non-convergence,
    solver errors) are recorded in the returned record, not raised; after
    non-convergence the oracle still runs on the partial result.
    """
    record = RunRecord(sweep_value=value)
    try:
        record.result = run(point, config)
    except NonConvergenceError as exc:
        record.result = exc.result
        record.error = str(exc)
    except (ValueError, RuntimeError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    if verify:
        try:
            record.oracle = solve_central(point)
            record.comparison = compare_to_oracle(
                record.result, record.oracle, point, config.delta
            )
        except OracleError as exc:
            record.error = " ".join(filter(None, (record.error, f"oracle: {exc}")))
    return record


def run_sweep(
    scenario: Scenario,
    sweep: SweepSpec,
    config: EngineConfig = EngineConfig(),
    verify: bool = False,
) -> List[RunRecord]:
    """``run_point`` per sweep value, in sweep order."""
    return [
        run_point(scenario.with_capacity(sweep.carrier_id, v), v, config, verify)
        for v in sweep.values()
    ]


# --------------------------------------------------------------------------
# result files

RATES_HEADER = "sweep_value,carrier_id,ue_id,rate,bid"
PRICES_HEADER = "sweep_value,carrier_id,price,rounds,converged"
SUMMARY_HEADER = (
    "sweep_value,objective,rounds,converged,error,"
    "oracle_objective,objective_delta,max_total_rel_delta,"
    "kkt_stationarity_active,kkt_stationarity_inactive,"
    "kkt_complementary_slackness,kkt_passed,duality_gap,verified"
)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_results(records: Sequence[RunRecord], out_dir: Union[str, Path]) -> Dict[str, Path]:
    """Write rates.csv, prices.csv and summary.csv; returns the paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    paths = {name: out / f"{name}.csv" for name in ("rates", "prices", "summary")}
    rates: List[list] = []
    prices: List[list] = []
    summary: List[list] = []
    for rec in records:
        value, res, cmp = _fmt(rec.sweep_value), rec.result, rec.comparison
        row = [value]
        if res is not None:
            for (cid, uid), rate in sorted(res.rates.items()):
                rates.append([value, cid, uid, _fmt(rate), _fmt(res.bids.get((cid, uid), 0.0))])
            for cid, price in sorted(res.prices.items()):
                prices.append([value, cid, _fmt(price), res.rounds, res.converged])
            row += [_fmt(res.objective), res.rounds, res.converged]
        else:
            row += ["", "", ""]
        row.append(rec.error or "")
        if rec.oracle is not None and cmp is not None:
            row += [
                _fmt(rec.oracle.objective),
                _fmt(cmp.objective_delta),
                _fmt(cmp.max_total_rel_delta),
                _fmt(cmp.kkt.stationarity_active),
                _fmt(cmp.kkt.stationarity_inactive),
                _fmt(cmp.kkt.complementary_slackness),
                cmp.kkt.passed,
            ]
        else:
            row += [""] * 7
        row += ["" if res is None else _fmt(res.duality_gap), "" if cmp is None else cmp.passed]
        summary.append(row)
    _write_rows(paths["rates"], RATES_HEADER, rates)
    _write_rows(paths["prices"], PRICES_HEADER, prices)
    _write_rows(paths["summary"], SUMMARY_HEADER, summary)

    return paths


def _write_rows(path: Path, header: str, rows: Sequence[Sequence[object]]) -> None:
    """CSV with quoting where a field needs it; plain rows match a comma join."""
    try:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header.split(","))
            out.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
