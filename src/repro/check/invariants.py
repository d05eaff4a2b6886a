"""The invariant registry: per-step safety properties and a final phase.

Invariants are the safety properties the dissertation's availability /
integrity trade rests on, phrased as side-effect-free probes over a live
cluster.  Every run of the scenario executor (:mod:`repro.check.runner`)
checks the step invariants after every step; the first violation aborts
the run and becomes a counterexample.  A run that drains clean ends with
the *final* phase: after heal and a closing reconciliation,
:class:`ReplicasConverge`, :class:`NoAcceptedThreatLost` and
:class:`ClusterHealthyAgain` are checked once.

Step built-ins:

* :class:`AtMostOnePrimaryPerPartition` — under P4 each partition elects
  at most one (temporary) primary per object; two write targets inside
  one partition is split brain.
* :class:`LatticeMonotonicity` — a stored threat's satisfaction degree
  only moves *down* the §3.1 lattice while the threat lives (occurrences
  are merged with ``meet``), and stored degrees are actual threat degrees.
* :class:`ThreatAccounting` — a node's in-memory threat records and its
  persisted rows never drift apart, and a *clean* reconciliation of a
  healthy network leaves every threat store empty.
* :class:`ReplicaConvergence` — after a clean reconciliation of a healthy
  network, every node holds byte-identical replica state per object.
* :class:`NoCrossPartitionDelivery` — no message is delivered between
  nodes that were unreachable from each other when it was sent.
* :class:`AdaptationGuardrails` — the adaptation loop's own ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.model import SatisfactionDegree
from ..core.system_mode import SystemMode

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import DedisysCluster
    from ..objects import ObjectRef


@dataclass
class RunProbe:
    """Per-step view of the cluster handed to every invariant.

    The runner refreshes the bookkeeping fields around each scheduler
    step so invariants can reason about *what just happened* without
    instrumenting the middleware themselves.
    """

    cluster: "DedisysCluster"
    refs: tuple["ObjectRef", ...]
    step: int = 0
    # Messages delivered before the current step (watermark into
    # ``network.delivered_messages``).
    delivered_before: int = 0
    # Network topology version before the current step; when it moved
    # during the step, reachability "now" no longer describes delivery
    # time and delivery checks stand down for this step.
    topology_before: int = 0
    # Reconciliation report produced *during the current step*, if any
    # (final phase: the closing one, and the distinct threats stored
    # just before it).
    just_reconciled: Any = None
    threats_recorded: int = 0

    @property
    def topology_changed(self) -> bool:
        return self.cluster.network.topology_version != self.topology_before


@dataclass(frozen=True)
class Violation:
    """One invariant violation found at a specific step of a schedule."""

    invariant: str
    detail: str
    step: int
    sim_time: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "step": self.step,
            "sim_time": self.sim_time,
        }


@dataclass(frozen=True)
class Verdict:
    """One invariant's outcome as a run report lists it."""

    name: str
    ok: bool
    detail: str = ""


class Invariant:
    """One safety property.

    A ``"step"`` invariant is checked after every step; its ``check``
    returns a violation detail or None.  A ``"final"`` invariant is
    checked once, after drain, heal and the closing reconciliation; its
    ``check`` returns ``(ok, detail)`` so a pass can carry its counts.
    """

    name = "abstract"
    phase = "step"

    def begin_run(self) -> None:
        """Reset any cross-step state before a new schedule runs."""

    def check(self, probe: RunProbe) -> str | None:
        raise NotImplementedError


class AtMostOnePrimaryPerPartition(Invariant):
    """No partition may route writes for one object to two nodes."""

    name = "at_most_one_primary_per_partition"

    def check(self, probe: RunProbe) -> str | None:
        for ref in probe.refs:
            for partition, targets in probe.cluster.write_targets(ref).items():
                if len(targets) > 1:
                    return (
                        f"{ref}: partition {sorted(partition)} routes writes "
                        f"to {list(targets)}"
                    )
                if targets and targets[0] not in partition:
                    return (
                        f"{ref}: partition {sorted(partition)} routes writes "
                        f"outside itself to {targets[0]}"
                    )
        return None


class LatticeMonotonicity(Invariant):
    """Stored threat degrees only move down the satisfaction lattice."""

    name = "lattice_monotonicity"

    def __init__(self) -> None:
        self._last_seen: dict[tuple[str, Any], SatisfactionDegree] = {}

    def begin_run(self) -> None:
        self._last_seen = {}

    def check(self, probe: RunProbe) -> str | None:
        seen: dict[tuple[str, Any], SatisfactionDegree] = {}
        for node_id, store in probe.cluster.threat_stores.items():
            for threat in store.pending():
                key = (node_id, threat.identity)
                degree = threat.degree
                if not degree.is_threat:
                    return (
                        f"{node_id}: stored threat {threat.identity} carries "
                        f"non-threat degree {degree.name}"
                    )
                previous = self._last_seen.get(key)
                if previous is not None and degree > previous:
                    return (
                        f"{node_id}: threat {threat.identity} degree rose "
                        f"{previous.name} -> {degree.name}"
                    )
                seen[key] = degree
        # Identities that disappear were resolved; re-recording later
        # legitimately starts a fresh monotone descent.
        self._last_seen = seen
        return None


class ThreatAccounting(Invariant):
    """Threat stores and their persisted rows stay in lockstep; clean
    reconciliation of a healthy network empties them."""

    name = "threat_accounting"

    def check(self, probe: RunProbe) -> str | None:
        for node_id, (records, rows) in probe.cluster.threat_accounting().items():
            if records != rows:
                return (
                    f"{node_id}: {records} in-memory threat records but "
                    f"{rows} persisted rows"
                )
        report = probe.just_reconciled
        if (
            report is not None
            and report.postponed == 0
            and report.deferred == 0
            and probe.cluster.network.is_healthy()
        ):
            leftovers = {
                node_id: store.count_identities()
                for node_id, store in probe.cluster.threat_stores.items()
                if store.count_identities()
            }
            if leftovers:
                return (
                    "clean reconciliation of a healthy network left threats "
                    f"behind: {leftovers}"
                )
        return None


class ReplicaConvergence(Invariant):
    """After a clean heal + reconciliation every replica agrees."""

    name = "replica_convergence"

    def check(self, probe: RunProbe) -> str | None:
        report = probe.just_reconciled
        if report is None or report.postponed or report.deferred:
            return None
        if not probe.cluster.network.is_healthy():
            return None
        for ref in probe.refs:
            states = set(probe.cluster.replica_states(ref).values())
            if len(states) > 1:
                return f"{ref}: replicas diverge post-reconciliation: {sorted(map(str, states))}"
        return None


class NoCrossPartitionDelivery(Invariant):
    """Messages delivered during the step respected the topology."""

    name = "no_cross_partition_delivery"

    def check(self, probe: RunProbe) -> str | None:
        if probe.topology_changed:
            # The step itself moved the topology; reachability "now" says
            # nothing about delivery time.  Skip this step.
            return None
        network = probe.cluster.network
        for message in network.delivered_since(probe.delivered_before):
            if message.source == message.destination:
                continue
            if not network.reachable(message.source, message.destination):
                return (
                    f"{message.kind} delivered {message.source} -> "
                    f"{message.destination} across a severed link"
                )
        return None


class AdaptationGuardrails(Invariant):
    """Runtime adaptation must stay consistent with its own ledger.

    The adaptation loop switches modes *mid-flight*: the other five
    invariants already guarantee no switch breaks routing, the lattice,
    threat accounting, convergence, or delivery — this one pins the
    loop's own bookkeeping at every step:

    * the cluster-wide shed flag on every CCMgr matches the ledger of
      applied-but-not-undone ``shed_load`` actions;
    * every designated primary (after any ``rehome_primaries``) is one
      of the object's replica holders;
    * the engine never re-fires a policy before its cooldown elapsed
      after a release or rollback.
    """

    name = "adaptation_guardrails"

    def check(self, probe: RunProbe) -> str | None:
        cluster = probe.cluster
        actions = getattr(cluster, "adaptation_actions", [])
        shed_expected = any(
            action.action == "shed_load" and not action.undone for action in actions
        )
        for node_id in sorted(cluster.ccmgrs):
            flag = cluster.ccmgrs[node_id].shed_tradeable_writes
            if flag != shed_expected:
                return (
                    f"node {node_id}: shed flag {flag} disagrees with the "
                    f"action ledger (expected {shed_expected})"
                )
        if cluster.replication is not None:
            for ref in probe.refs:
                if not cluster.replication.is_replicated(ref):
                    continue
                info = cluster.replication.info(ref)
                if info.designated_primary not in info.replica_nodes:
                    return (
                        f"{ref}: designated primary {info.designated_primary} "
                        f"holds no replica ({sorted(info.replica_nodes)})"
                    )
        engine = getattr(cluster, "adaptation", None)
        if engine is not None:
            released_at: dict[str, tuple[float, float]] = {}
            for entry in engine.trace:
                policy_name = entry["policy"]
                if entry["phase"] in ("release", "rollback", "veto"):
                    cooldown = engine.state_of(policy_name).policy.cooldown
                    released_at[policy_name] = (entry["t"], cooldown)
                elif entry["phase"] == "fire" and policy_name in released_at:
                    since, cooldown = released_at[policy_name]
                    if entry["t"] - since < cooldown - 1e-9:
                        return (
                            f"policy {policy_name!r} re-fired {entry['t'] - since:.6f}s "
                            f"after release; cooldown is {cooldown}s"
                        )
        return None


class ReplicasConverge(Invariant):
    """After heal + reconciliation every replica holds the same state."""

    name = "replicas_converge"
    phase = "final"

    def check(self, probe: RunProbe) -> tuple[bool, str]:
        views = [
            (
                ref,
                {
                    state if state is not None else ("missing", node_id)
                    for node_id, state in probe.cluster.replica_states(ref).items()
                },
            )
            for ref in probe.refs
        ]
        diverged = [
            f"{ref}: {sorted(map(str, states))}" for ref, states in views if len(states) != 1
        ]
        return not diverged, "; ".join(diverged[:3])


class NoAcceptedThreatLost(Invariant):
    """Every distinct threat present before the closing reconciliation is
    re-evaluated and removed/resolved/deferred/postponed."""

    name = "no_accepted_threat_lost"
    phase = "final"

    def check(self, probe: RunProbe) -> tuple[bool, str]:
        recon = probe.just_reconciled
        recorded = probe.threats_recorded
        accounted = recon.satisfied_removed + recon.violations_found + recon.postponed
        ok = recon.threats_reevaluated >= recorded and accounted >= recorded
        remaining = sum(
            store.count_identities() for store in probe.cluster.threat_stores.values()
        )
        if recon.postponed == 0 and recon.deferred == 0:
            ok = ok and remaining == 0
        return ok, (
            f"recorded={recorded} reevaluated={recon.threats_reevaluated} "
            f"accounted={accounted} remaining={remaining}"
        )


class ClusterHealthyAgain(Invariant):
    """One partition, no crashes, every node back in HEALTHY mode (when
    reconciliation ran clean; postponed/deferred work legitimately keeps
    nodes out)."""

    name = "cluster_healthy_again"
    phase = "final"

    def check(self, probe: RunProbe) -> tuple[bool, str]:
        recon = probe.just_reconciled
        cluster = probe.cluster
        healthy = cluster.network.is_healthy()
        if recon.postponed or recon.deferred:
            return healthy, f"postponed={recon.postponed} deferred={recon.deferred}"
        modes = {node: cluster.mode_of(node) for node in cluster.nodes}
        healthy = healthy and all(mode is SystemMode.HEALTHY for mode in modes.values())
        return healthy, "" if healthy else str({n: m.value for n, m in modes.items()})


class InvariantRegistry:
    """Ordered invariants: ``invariants`` are checked after every step,
    ``final`` once at the end of the run (routed by ``phase``)."""

    def __init__(self, invariants: tuple[Invariant, ...] = ()) -> None:
        self.invariants: list[Invariant] = []
        self.final: list[Invariant] = []
        for invariant in invariants:
            self.register(invariant)

    def register(self, invariant: Invariant) -> "InvariantRegistry":
        (self.final if invariant.phase == "final" else self.invariants).append(invariant)
        return self

    def names(self) -> list[str]:
        return [invariant.name for invariant in (*self.invariants, *self.final)]

    def begin_run(self) -> None:
        for invariant in (*self.invariants, *self.final):
            invariant.begin_run()

    def evaluate(self, probe: RunProbe) -> list[Violation]:
        """The step phase: every violation found after this step."""
        violations: list[Violation] = []
        for invariant in self.invariants:
            detail = invariant.check(probe)
            if detail is not None:
                violations.append(
                    Violation(
                        invariant=invariant.name,
                        detail=detail,
                        step=probe.step,
                        sim_time=probe.cluster.clock.now,
                    )
                )
        return violations

    def conclude(self, probe: RunProbe) -> list[Verdict]:
        """The final phase: one verdict per final invariant, in order."""
        return [Verdict(invariant.name, *invariant.check(probe)) for invariant in self.final]


def default_registry() -> InvariantRegistry:
    """Fresh instances of every built-in invariant, both phases."""
    return InvariantRegistry(
        (
            AtMostOnePrimaryPerPartition(),
            LatticeMonotonicity(),
            ThreatAccounting(),
            ReplicaConvergence(),
            NoCrossPartitionDelivery(),
            AdaptationGuardrails(),
            ReplicasConverge(),
            NoAcceptedThreatLost(),
            ClusterHealthyAgain(),
        )
    )
