"""Fault injection and client-side resilience.

Two halves of one robustness story:

* **Inject richer faults** — per-link fault models
  (:class:`GilbertElliottLoss` burst loss, :class:`ExtraDelay`,
  :class:`Duplicate`, :class:`DropKinds`) plugged into the network via a
  :class:`FaultInjector`; timestamped :class:`FaultSchedule` scripts
  replayed on the simulation scheduler; and a :class:`ChaosRunner` that
  generates seeded random fault sequences and fires its workload through
  the model checker's executor, so every chaos run is checked against
  the one invariant registry.
* **Survive them** — a :class:`RetryPolicy` (exponential backoff, seeded
  jitter), per-invocation deadlines, and per-destination
  :class:`CircuitBreaker` circuits, wired into the client invocation
  chain via :class:`ResilienceInterceptor` and configured per cluster
  through :class:`ResilienceConfig`.
"""

from .chaos import (
    ChaosConfig,
    ChaosReport,
    ChaosRunner,
    ReplayReport,
    RunReport,
    replay_scenario,
    run_chaos,
)
from .injector import FaultInjector
from .models import (
    PASS,
    CompositeFault,
    DropKinds,
    Duplicate,
    ExtraDelay,
    FaultDecision,
    GilbertElliottLoss,
    LinkFaultModel,
)
from .resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    ResilienceConfig,
    ResilienceInterceptor,
    RetryPolicy,
)
from .schedule import ACTIONS, FaultEvent, FaultSchedule

__all__ = [
    "ACTIONS",
    "BreakerConfig",
    "BreakerState",
    "ChaosConfig",
    "ChaosReport",
    "ChaosRunner",
    "CircuitBreaker",
    "CircuitOpenError",
    "CompositeFault",
    "DropKinds",
    "Duplicate",
    "ExtraDelay",
    "FaultDecision",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "GilbertElliottLoss",
    "LinkFaultModel",
    "PASS",
    "ReplayReport",
    "ResilienceConfig",
    "ResilienceInterceptor",
    "RetryPolicy",
    "RunReport",
    "replay_scenario",
    "run_chaos",
]
