"""Cluster simulation substrate.

Replaces the paper's physical testbed (24-core Xeon, ACPI DVFS, RAPL) with
a discrete-event simulation: FIFO single-core ISNs with per-query frequency
scaling, an aggregator enforcing per-query time budgets, a data-center
network model, and a calibrated package power model.
"""

from repro.cluster.aggregator import Aggregator
from repro.cluster.cache import CacheStats, ResultCache
from repro.cluster.cpu import (
    CostModel,
    FrequencyScale,
    equivalent_latency_ms,
    scaled_service_ms,
)
from repro.cluster.engine import RunResult, SearchCluster
from repro.cluster.events import Simulator
from repro.cluster.faults import FaultSchedule, Outage, Slowdown
from repro.cluster.replicas import (
    DISPATCH_MODES,
    SELECTORS,
    LeastLoadedSelector,
    ReplicaSelector,
    ReplicationConfig,
    SeededSelector,
    StaticSelector,
    hedge_delay_ms,
    make_selector,
)
from repro.cluster.scenarios import (
    SCENARIOS,
    CellResult,
    MatrixCase,
    ScenarioContext,
    default_matrix,
    run_matrix,
    scenario_schedule,
)
from repro.cluster.isn import ISNServer, Job
from repro.cluster.network import NetworkModel
from repro.cluster.power import EnergyMeter, PowerModel, PowerReport, package_report
from repro.cluster.types import (
    ClusterView,
    Decision,
    QueryRecord,
    SelectionPolicy,
    ShardOutcome,
)

__all__ = [
    "Simulator",
    "FrequencyScale",
    "CostModel",
    "scaled_service_ms",
    "equivalent_latency_ms",
    "PowerModel",
    "EnergyMeter",
    "PowerReport",
    "package_report",
    "NetworkModel",
    "ISNServer",
    "Job",
    "ResultCache",
    "CacheStats",
    "FaultSchedule",
    "Outage",
    "Slowdown",
    "ReplicationConfig",
    "ReplicaSelector",
    "StaticSelector",
    "SeededSelector",
    "LeastLoadedSelector",
    "make_selector",
    "hedge_delay_ms",
    "DISPATCH_MODES",
    "SELECTORS",
    "SCENARIOS",
    "ScenarioContext",
    "MatrixCase",
    "CellResult",
    "scenario_schedule",
    "default_matrix",
    "run_matrix",
    "Aggregator",
    "SearchCluster",
    "RunResult",
    "ClusterView",
    "Decision",
    "QueryRecord",
    "ShardOutcome",
    "SelectionPolicy",
]
