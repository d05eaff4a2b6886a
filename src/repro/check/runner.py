"""The one scenario executor: fire ops, classify outcomes, check invariants.

:class:`_OpDriver` is the only code that fires a :class:`Scenario` op: it
counts each outcome as served or blocked (:data:`BLOCKING_ERRORS`),
tallies error classes and ``(at, ok)`` availability samples, records
every reconciliation with its handler, and evaluates the invariant
registry — the step phase after every step (the first violation aborts
the run), the final phase once after drain → ``heal()`` → reconcile.

:func:`execute` is the event loop over it, shared by :func:`run_schedule`
(explorer, fuzzing, golden traces; ``check_*`` counters and a closing
``check_schedule`` event with the schedule fingerprint) and
:func:`~repro.faults.chaos.replay_scenario` (scheduler's own order,
closing ``corpus_replay``).  :class:`~repro.faults.chaos.ChaosRunner`
fires its seeded ops inline through the same driver.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager

from ..core import (
    AcceptAllHandler,
    ConsistencyThreatRejected,
    ConstraintViolated,
    OperationShedded,
)
from ..faults.resilience import CircuitOpenError
from ..net import DeadlineExceededError, NodeCrashedError, UnreachableError
from ..obs import Observability
from ..replication import WriteAccessDenied
from ..tx import TransactionRolledBack
from .invariants import InvariantRegistry, RunProbe, Verdict, Violation, default_registry
from .policies import ChoicePoint, FifoPolicy, RecordingPolicy
from .scenario import Op, Scenario

# Errors a workload op may legitimately hit mid-fault; the op counts as
# blocked, the run continues.
BLOCKING_ERRORS = (
    UnreachableError,
    NodeCrashedError,
    DeadlineExceededError,
    CircuitOpenError,
    WriteAccessDenied,
    ConsistencyThreatRejected,
    ConstraintViolated,
    OperationShedded,
    TransactionRolledBack,
)

# A mutation is a test-only fault *in the middleware itself*: a callable
# receiving the freshly built cluster and returning a context manager that
# holds the breakage in place for the duration of the run.
Mutation = Callable[[Any], ContextManager[None]]


@dataclass
class RunResult:
    """Everything one controlled schedule produced."""

    scenario: str
    policy: str
    fingerprint: str
    decisions: tuple[ChoicePoint, ...]
    violations: tuple[Violation, ...]
    steps: int
    sim_time: float
    ops_attempted: int = 0
    ops_served: int = 0
    ops_blocked: int = 0
    trace_jsonl: str = ""
    snapshot: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def prescription(self) -> tuple[int, ...]:
        """The decision sequence replaying this exact schedule."""
        return tuple(decision.chosen for decision in self.decisions)


class _OpDriver:
    """Fires scenario ops, tallies their outcomes, evaluates invariants."""

    def __init__(
        self,
        cluster: Any,
        refs: tuple[Any, ...],
        registry: InvariantRegistry,
        reconcile_handler: Callable[[Any], Any],
    ) -> None:
        self.cluster = cluster
        self.refs = refs
        self.registry = registry
        self.reconcile_handler = reconcile_handler
        self.probe = RunProbe(cluster=cluster, refs=refs)
        self.attempted = 0
        self.served = 0
        self.blocked = 0
        self.errors: dict[str, int] = {}
        self.samples: list[tuple[float, bool]] = []
        self.reconciliations: list[Any] = []
        self.constraint_handlers: list[Any] = []
        self.violations: list[Violation] = []
        self.verdicts: list[Verdict] = []
        self._handler = AcceptAllHandler()

    def install(self, ops: tuple[Op, ...], start: float) -> None:
        # Scenario times are relative to the end of cluster construction
        # (building charges simulated cost, so absolute zero is long gone).
        for op in ops:
            self.cluster.scheduler.schedule_at(
                start + op.at, self.fire, op, label=op.label()
            )

    def fire(self, op: Op) -> bool:
        """Fire one op and classify it; True when it was served."""
        self.attempted += 1
        try:
            if op.kind == "reconcile":
                handler = self.reconcile_handler(self.cluster)
                self.constraint_handlers.append(handler)
                self.probe.just_reconciled = self.cluster.reconcile(
                    constraint_handler=handler
                )
                self.reconciliations.append(self.probe.just_reconciled)
            else:
                self.cluster.invoke(
                    op.node,
                    self.refs[op.ref_index],
                    op.method,
                    *op.args,
                    negotiation_handler=self._handler,
                )
        except BLOCKING_ERRORS as exc:
            self.blocked += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.samples.append((op.at, False))
            return False
        self.served += 1
        self.samples.append((op.at, True))
        return True

    # ------------------------------------------------------------------
    # invariant phases
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Take the watermarks the step invariants compare against."""
        self.probe.delivered_before = self.cluster.network.delivered_count
        self.probe.topology_before = self.cluster.network.topology_version
        self.probe.just_reconciled = None

    def end_step(self) -> bool:
        """Evaluate the step phase; True when the run must stop."""
        self.probe.step += 1
        self.violations = self.registry.evaluate(self.probe)
        return bool(self.violations)

    def run(self, max_steps: int) -> None:
        """Step the scheduler until it drains or an invariant breaks."""
        scheduler = self.cluster.scheduler
        while True:
            self.begin_step()
            if scheduler.step() is None or self.end_step():
                return
            if self.probe.step >= max_steps:
                raise RuntimeError(
                    f"schedule exceeded {max_steps} steps (runaway scenario?)"
                )

    def conclude(self) -> None:
        """The final phase: drain, heal, reconcile, check final invariants."""
        cluster = self.cluster
        cluster.scheduler.drain()
        self.probe.threats_recorded = len(
            {ident for store in cluster.threat_stores.values() for ident in store.identities()}
        )
        cluster.heal()
        handler = self.reconcile_handler(cluster)
        self.constraint_handlers.append(handler)
        self.probe.just_reconciled = cluster.reconcile(constraint_handler=handler)
        self.reconciliations.append(self.probe.just_reconciled)
        self.verdicts = self.registry.conclude(self.probe)

    @property
    def invariants(self) -> list[Verdict]:
        """The step violation that stopped the run, else the final verdicts."""
        return [
            Verdict(violation.invariant, False, violation.detail)
            for violation in self.violations
        ] + self.verdicts

    def outcome(self) -> dict[str, Any]:
        """The fields every run report shares (``faults.chaos.RunReport``)."""
        return {
            "attempted": self.attempted,
            "served": self.served,
            "blocked": self.blocked,
            "errors": self.errors,
            "threats_recorded": self.probe.threats_recorded,
            "invariants": self.invariants,
            # The final phase ran unless a step violation stopped the run.
            "reconciliation": None if self.violations else self.reconciliations[-1],
            "reconciliations": self.reconciliations,
            "constraint_handlers": self.constraint_handlers,
            "snapshot": self.cluster.snapshot(),
            "trace_jsonl": _export(self.cluster.obs),
        }


def _export(obs: Any) -> str:
    stream = io.StringIO()
    obs.export_jsonl(stream)
    return stream.getvalue()


def execute(
    scenario: Scenario,
    obs: Observability,
    registry: InvariantRegistry,
    policy: RecordingPolicy | None,
    mutation: Mutation | None = None,
    max_steps: int = 10_000,
) -> _OpDriver:
    """One run of ``scenario``: build, install, step, then the final phase.

    ``policy`` orders the enabled events (None keeps the scheduler's own
    order); ``mutation`` holds a test-only middleware breakage in place
    for the whole run, final phase included.
    """
    cluster, refs = scenario.build(obs)
    driver = _OpDriver(cluster, refs, registry, scenario.reconcile_handler)
    start = cluster.clock.now
    driver.install(scenario.ops, start)
    scenario.shifted_fault_schedule(start).install(cluster.network)
    registry.begin_run()
    scheduler = cluster.scheduler
    if policy is not None:
        policy.begin_run()
        scheduler.set_ordering_policy(policy)
    try:
        with mutation(cluster) if mutation else contextlib.nullcontext():
            driver.run(max_steps)
            if not driver.violations:
                driver.conclude()
    finally:
        scheduler.set_ordering_policy(None)
    return driver


def run_schedule(
    scenario: Scenario,
    policy: RecordingPolicy | None = None,
    registry: InvariantRegistry | None = None,
    mutation: Mutation | None = None,
    max_steps: int = 10_000,
    collect_trace: bool = True,
    obs: Observability | None = None,
) -> RunResult:
    """Run one schedule of ``scenario`` under ``policy``; check invariants.

    Stops at the first step violation (the remaining events never fire —
    the violating prefix is the counterexample); a run that drains clean
    ends with the final phase, whose failures are violations too.
    """
    policy = policy if policy is not None else FifoPolicy()
    registry = registry if registry is not None else default_registry()
    obs = obs if obs is not None else Observability()
    driver = execute(scenario, obs, registry, policy, mutation, max_steps)
    cluster = driver.cluster
    steps = driver.probe.step
    violations = driver.violations or [
        Violation(verdict.name, verdict.detail, steps, cluster.clock.now)
        for verdict in driver.verdicts
        if not verdict.ok
    ]

    fingerprint = policy.fingerprint()
    metrics = obs.registry
    metrics.counter("check_steps_total", "scheduler steps driven by the checker").inc(steps)
    metrics.counter("check_decisions_total", "non-trivial scheduling choice points").inc(
        len(policy.decisions)
    )
    metrics.counter("check_invariant_evals_total", "invariant evaluations performed").inc(
        steps * len(registry.invariants) + len(driver.verdicts)
    )
    m_violations = metrics.counter("check_violations_total", "invariant violations found")
    if violations:
        m_violations.inc(len(violations))
    obs.emit(
        "check_schedule",
        scenario=scenario.name,
        policy=policy.name,
        fingerprint=fingerprint,
        decisions=len(policy.decisions),
        steps=steps,
        violations=[violation.invariant for violation in violations],
    )
    return RunResult(
        scenario=scenario.name,
        policy=policy.name,
        fingerprint=fingerprint,
        decisions=tuple(policy.decisions),
        violations=tuple(violations),
        steps=steps,
        sim_time=cluster.clock.now,
        ops_attempted=driver.attempted,
        ops_served=driver.served,
        ops_blocked=driver.blocked,
        trace_jsonl=_export(obs) if collect_trace else "",
        snapshot=obs.snapshot(),
    )
