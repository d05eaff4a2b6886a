"""Schedule-exploration model checker over the deterministic simulation.

Turns the sim substrate into a validation tool: instead of sampling the
one FIFO schedule a seed happens to produce, the checker *searches* the
interleaving space of enabled events — FIFO/LIFO/seeded-random policies
plus a bounded-depth systematic DFS — evaluating a registry of safety
invariants at every step and once more after the closing heal and
reconciliation, and shrinking any violating schedule to a
small, deterministic JSON repro.

Typical use::

    from repro.check import ModelChecker, CheckConfig, single_partition_scenario

    checker = ModelChecker(single_partition_scenario(),
                           CheckConfig(max_schedules=500))
    report = checker.explore()
    assert not report.found_violation, report.counterexample.to_dict()
"""

from .explorer import (
    CheckConfig,
    Counterexample,
    ExplorationReport,
    ModelChecker,
    ShrinkResult,
    shrink_counterexample,
)
from .invariants import (
    AtMostOnePrimaryPerPartition,
    ClusterHealthyAgain,
    Invariant,
    InvariantRegistry,
    LatticeMonotonicity,
    NoAcceptedThreatLost,
    NoCrossPartitionDelivery,
    ReplicaConvergence,
    ReplicasConverge,
    RunProbe,
    ThreatAccounting,
    Verdict,
    Violation,
    default_registry,
)
from .mutations import skipped_threat_reevaluation, split_brain_primaries
from .policies import (
    ChoicePoint,
    FifoPolicy,
    LifoPolicy,
    RandomPolicy,
    RecordingPolicy,
    ReplayPolicy,
    schedule_fingerprint,
)
from .runner import BLOCKING_ERRORS, RunResult, run_schedule
from .scenario import (
    CANONICAL_SCENARIOS,
    Op,
    Scenario,
    healthy_scenario,
    partial_heal_scenario,
    single_partition_scenario,
)

__all__ = [
    "AtMostOnePrimaryPerPartition",
    "BLOCKING_ERRORS",
    "CANONICAL_SCENARIOS",
    "CheckConfig",
    "ChoicePoint",
    "ClusterHealthyAgain",
    "Counterexample",
    "ExplorationReport",
    "FifoPolicy",
    "Invariant",
    "InvariantRegistry",
    "LatticeMonotonicity",
    "LifoPolicy",
    "ModelChecker",
    "NoAcceptedThreatLost",
    "NoCrossPartitionDelivery",
    "Op",
    "RandomPolicy",
    "RecordingPolicy",
    "ReplayPolicy",
    "ReplicaConvergence",
    "ReplicasConverge",
    "RunProbe",
    "RunResult",
    "Scenario",
    "ShrinkResult",
    "ThreatAccounting",
    "Verdict",
    "Violation",
    "default_registry",
    "healthy_scenario",
    "partial_heal_scenario",
    "run_schedule",
    "schedule_fingerprint",
    "shrink_counterexample",
    "single_partition_scenario",
    "skipped_threat_reevaluation",
    "split_brain_primaries",
]
