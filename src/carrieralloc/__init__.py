"""Utility-proportional-fair rate allocation with joint carrier aggregation.

User agents bid for rate across capacity-limited carriers, carrier agents
answer with shadow prices, and an independent centralized solver certifies
the distributed fixed point against the KKT conditions of the underlying
concave program.
"""

from .utility import (
    LogarithmicUtility,
    RootFindingError,
    SigmoidalUtility,
    UtilityDomainError,
    UtilityFunction,
    evaluate,
    log_utility,
    marginal,
    solve_rate_for_price,
)
from .subproblem import ProtocolError, ue_step
from .protocol import (
    AllocationResult,
    EngineConfig,
    NonConvergenceError,
    carrier_step,
    run,
)
from .oracle import (
    KKTReport,
    OracleError,
    OracleSolution,
    duality_gap,
    kkt_check,
    project_carrier_block,
    solve_central,
)
from .scenario import (
    CarrierSpec,
    ComparisonReport,
    RunRecord,
    Scenario,
    ScenarioDocument,
    ScenarioError,
    SweepSpec,
    UESpec,
    build_paper_scenario,
    compare_to_oracle,
    load_scenario,
    load_scenario_document,
    run_sweep,
    save_scenario,
    write_results,
)

__version__ = "0.1.0"

__all__ = [
    "LogarithmicUtility",
    "RootFindingError",
    "SigmoidalUtility",
    "UtilityDomainError",
    "UtilityFunction",
    "evaluate",
    "log_utility",
    "marginal",
    "solve_rate_for_price",
    "ProtocolError",
    "ue_step",
    "AllocationResult",
    "EngineConfig",
    "NonConvergenceError",
    "carrier_step",
    "run",
    "KKTReport",
    "OracleError",
    "OracleSolution",
    "kkt_check",
    "duality_gap",
    "project_carrier_block",
    "solve_central",
    "CarrierSpec",
    "ComparisonReport",
    "RunRecord",
    "Scenario",
    "ScenarioDocument",
    "ScenarioError",
    "SweepSpec",
    "UESpec",
    "build_paper_scenario",
    "compare_to_oracle",
    "load_scenario",
    "load_scenario_document",
    "run_sweep",
    "save_scenario",
    "write_results",
    "__version__",
]
