"""Deterministic chaos runner and scenario replay, on the checker's executor.

The Chapter-5 experiments script clean partitions by hand.  The
:class:`ChaosRunner` instead *generates* a fault script from a seed —
link failures, heals, crashes, recoveries, partitions — installs it as a
:class:`~repro.faults.schedule.FaultSchedule` on the simulation
scheduler, optionally smears Gilbert–Elliott burst loss over every link,
and paces a seeded read/write workload through the middle of it.  Each
op fires through :class:`repro.check.runner._OpDriver`, which evaluates
the step invariants of :func:`repro.check.default_registry` after every
op and ends the run with the final phase: drain, heal, reconcile, then
replica convergence, :class:`CommittedStateSurvives` (chaos's own
durability check), no accepted threat lost, and a healthy cluster.

Ops fire inline, not as scheduled events: with client-side resilience
the retry backoff calls ``scheduler.run_until`` from inside an op, so
scheduled ops would nest.  Everything — fault times, fault choices,
workload, backoff jitter, burst loss — derives from seeds, so one seed
maps to exactly one byte-identical trace and metric snapshot.

:func:`replay_scenario` runs a corpus :class:`~repro.check.scenario.Scenario`
on the same executor as the model checker, in the scheduler's default
order, and adds a bucketed availability curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..check.invariants import Invariant, RunProbe, Verdict, default_registry
from ..check.runner import _OpDriver, execute
from ..check.scenario import Op
from ..core import ConstraintPriority, PredicateConstraint, SatisfactionDegree
from ..core.metadata import AffectedMethod, ConstraintRegistration
from ..objects import Entity
from ..obs import Observability
from .injector import burst_loss_injector
from .resilience import ResilienceConfig
from .schedule import FaultSchedule


class ChaosRecord(Entity):
    """The workload entity: a bounded counter, one constraint on it."""

    fields = {"counter": 0, "bound": 10**9}


def _chaos_constraint() -> ConstraintRegistration:
    constraint = PredicateConstraint(
        "ChaosCounterBound",
        lambda ctx: ctx.get_context_object().get_counter()
        <= ctx.get_context_object().get_bound(),
        priority=ConstraintPriority.RELAXABLE,
        min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
        context_class="ChaosRecord",
    )
    return ConstraintRegistration(
        constraint, (AffectedMethod("ChaosRecord", "set_counter"),)
    )


class CommittedStateSurvives(Invariant):
    """Final phase: each entity's surviving counter was produced by a
    committed write (or the initial create)."""

    name = "committed_state_survives"
    phase = "final"

    def __init__(self, committed: dict[Any, set[int]]) -> None:
        self.committed = committed

    def check(self, probe: RunProbe) -> tuple[bool, str]:
        first = next(iter(probe.cluster.nodes))
        finals = [
            (ref, probe.cluster.replica_states(ref)[first]) for ref in probe.refs
        ]
        lost = [
            f"{ref}: entity missing"
            if state is None
            else f"{ref}: final {dict(state)['counter']} not in committed set"
            for ref, state in finals
            if state is None or dict(state)["counter"] not in self.committed[ref]
        ]
        return not lost, "; ".join(lost[:3])


@dataclass
class RunReport:
    """What one run on the op driver reports (chaos run or replay)."""

    attempted: int = 0
    served: int = 0
    blocked: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    threats_recorded: int = 0
    # The step violation that stopped the run, else the final verdicts;
    # ``reconciliation`` is the closing one (None after a step violation).
    invariants: list[Verdict] = field(default_factory=list)
    reconciliation: Any = None
    # Every reconciliation of the run (mid-run ops + closing), with the
    # constraint handler each one used — the benchmark layer reads
    # integrity damage (e.g. rebooked tickets) off these.
    reconciliations: list[Any] = field(default_factory=list)
    constraint_handlers: list[Any] = field(default_factory=list)
    snapshot: dict[str, Any] = field(default_factory=dict)
    trace_jsonl: str = ""

    @property
    def availability(self) -> float:
        return self.served / self.attempted if self.attempted else 0.0

    @property
    def integrity_violations(self) -> int:
        """Definite constraint violations found across all reconciliations."""
        return sum(recon.violations_found for recon in self.reconciliations)

    @property
    def all_invariants_hold(self) -> bool:
        return all(result.ok for result in self.invariants)

    @property
    def failed_invariants(self) -> list[Verdict]:
        return [result for result in self.invariants if not result.ok]


@dataclass(kw_only=True)
class ChaosReport(RunReport):
    """Everything one chaos run produced."""

    seed: int
    fault_events: list[tuple[float, str, tuple[Any, ...]]] = field(default_factory=list)


@dataclass
class ChaosConfig:
    """One chaos scenario; everything is derived from ``seed``."""

    node_count: int = 5
    entities: int = 6
    operations: int = 150
    fault_events: int = 20
    seed: int = 0
    protocol: str = "p4"
    read_ratio: float = 0.6
    # Simulated seconds between consecutive workload operations (the gap
    # the scheduler advances through, letting scripted faults fire).
    op_gap: float = 0.05
    resilience: ResilienceConfig | None = None
    # Steady-state burst-loss target smeared over every link via a
    # Gilbert-Elliott default model; ``None`` disables the injector.
    burst_loss: float | None = None

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("chaos needs at least two nodes")
        if self.entities < 1 or self.operations < 0 or self.fault_events < 0:
            raise ValueError("entities/operations/fault_events must be sensible")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be within [0, 1]")
        if self.burst_loss is not None and not 0.0 < self.burst_loss < 0.5:
            raise ValueError("burst_loss must be within (0, 0.5)")


class ChaosRunner:
    """Builds a cluster, unleashes a seeded fault script, checks invariants."""

    def __init__(self, config: ChaosConfig | None = None, **overrides: Any) -> None:
        if config is None:
            config = ChaosConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ChaosConfig or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def run(self) -> ChaosReport:
        """One full chaos run: build, script, load, heal, reconcile, check."""
        # Imported here: the cluster module imports this package for the
        # resilience wiring, so a module-level import would be circular.
        from ..cluster import ClusterConfig, DedisysCluster

        cfg = self.config
        obs = Observability()
        node_ids = tuple(f"n{i}" for i in range(1, cfg.node_count + 1))
        cluster = DedisysCluster(
            ClusterConfig(
                node_ids=node_ids,
                protocol=cfg.protocol,
                seed=cfg.seed,
                obs=obs,
                resilience=cfg.resilience,
            )
        )
        cluster.deploy(ChaosRecord)
        cluster.register_constraint(_chaos_constraint())
        if cfg.burst_loss is not None:
            cluster.network.install_fault_injector(
                burst_loss_injector(cfg.burst_loss, cfg.seed)
            )

        refs = tuple(
            cluster.create_entity(
                node_ids[index % cfg.node_count], "ChaosRecord", f"chaos-{index}"
            )
            for index in range(cfg.entities)
        )
        committed: dict[Any, set[int]] = {ref: {0} for ref in refs}
        registry = default_registry()
        # Reported between convergence and threat accounting.
        registry.final.insert(1, CommittedStateSurvives(committed))
        registry.begin_run()
        driver = _OpDriver(cluster, refs, registry, lambda _cluster: None)

        rng = random.Random(f"chaos:{cfg.seed}")
        start = cluster.clock.now
        schedule = self._generate_schedule(rng, node_ids, start=start)
        fault_events = schedule.to_events()
        schedule.install(cluster.network)

        value_counter = 0
        for _ in range(cfg.operations):
            driver.begin_step()
            # Advance simulated time so scripted faults fire between ops.
            cluster.scheduler.run_until(cluster.clock.now + cfg.op_gap)
            node = rng.choice(node_ids)
            ref_index = rng.randrange(len(refs))
            is_read = rng.random() < cfg.read_ratio
            value_counter += 1
            op = Op(
                at=cluster.clock.now - start,
                kind="invoke",
                node=node,
                ref_index=ref_index,
                method="get_counter" if is_read else "set_counter",
                args=() if is_read else (value_counter,),
            )
            if driver.fire(op) and not is_read:
                committed[refs[ref_index]].add(value_counter)
            if driver.end_step():
                break
        else:
            driver.conclude()
        return ChaosReport(seed=cfg.seed, fault_events=fault_events, **driver.outcome())

    # ------------------------------------------------------------------
    # fault-script generation
    # ------------------------------------------------------------------
    def _generate_schedule(
        self, rng: random.Random, node_ids: tuple[str, ...], start: float = 0.0
    ) -> FaultSchedule:
        """A seeded random fault script over the workload window.

        The generator tracks the topology it has scripted so far so heals
        and recoveries target things that are actually broken, and it
        keeps at least one node un-crashed.  All events land strictly
        inside the workload window so every one fires during the run.
        """
        cfg = self.config
        horizon = max(cfg.operations, 1) * cfg.op_gap
        schedule = FaultSchedule()
        failed_links: set[frozenset[str]] = set()
        crashed: set[str] = set()
        for index in range(cfg.fault_events):
            at = start + (index + 1) / (cfg.fault_events + 1) * horizon
            choices = ["fail_link", "partition"]
            if failed_links:
                choices.append("heal_link")
            if crashed:
                choices += ["recover_node", "recover_node"]
            if len(crashed) < len(node_ids) - 1:
                choices.append("crash_node")
            if failed_links or crashed:
                choices.append("heal_all")
            action = rng.choice(choices)
            if action == "fail_link":
                a, b = rng.sample(node_ids, 2)
                failed_links.add(frozenset((a, b)))
                schedule.fail_link(at, a, b)
            elif action == "heal_link":
                link = rng.choice(sorted(failed_links, key=sorted))
                failed_links.discard(link)
                a, b = sorted(link)
                schedule.heal_link(at, a, b)
            elif action == "crash_node":
                node = rng.choice(sorted(set(node_ids) - crashed))
                crashed.add(node)
                schedule.crash_node(at, node)
            elif action == "recover_node":
                node = rng.choice(sorted(crashed))
                crashed.discard(node)
                schedule.recover_node(at, node)
            elif action == "partition":
                shuffled = list(node_ids)
                rng.shuffle(shuffled)
                cut = rng.randint(1, len(shuffled) - 1)
                failed_links = {
                    frozenset((a, b))
                    for a in shuffled[:cut]
                    for b in shuffled[cut:]
                }
                schedule.partition(at, shuffled[:cut], shuffled[cut:])
            else:  # heal_all
                failed_links.clear()
                crashed.clear()
                schedule.heal_all(at)
        return schedule


def run_chaos(**overrides: Any) -> ChaosReport:
    """Convenience one-shot: ``run_chaos(seed=3, fault_events=25).availability``."""
    return ChaosRunner(ChaosConfig(**overrides)).run()


# ----------------------------------------------------------------------
# scenario replay: the corpus-facing entry point
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ReplayReport(RunReport):
    """Everything one scenario replay produced."""

    scenario: str
    domain: str
    # Availability over time: one entry per bucket of the op window.
    availability_curve: list[dict[str, Any]] = field(default_factory=list)
    # Canonical JSON lines from the adaptation engine's decision log
    # (empty when the scenario attached no policies).
    adaptation_trace: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary (sorted-key friendly; no trace, no snapshot)."""
        return {
            "scenario": self.scenario,
            "domain": self.domain,
            "attempted": self.attempted,
            "served": self.served,
            "blocked": self.blocked,
            "availability": round(self.availability, 6),
            "errors": dict(sorted(self.errors.items())),
            "threats_recorded": self.threats_recorded,
            "integrity_violations": self.integrity_violations,
            "invariants": [
                {"name": result.name, "ok": result.ok, "detail": result.detail}
                for result in self.invariants
            ],
            "violations": [result.name for result in self.failed_invariants],
            "availability_curve": self.availability_curve,
        }


def _availability_curve(
    samples: list[tuple[float, bool]],
    horizon: float,
    buckets: int,
    bucket_width: float | None = None,
) -> list[dict[str, Any]]:
    """Bucket ``(at, ok)`` samples over ``[0, horizon]``.

    ``bucket_width`` (simulated seconds) takes precedence over the
    ``buckets`` count when given, so curves from scenarios of different
    lengths are comparable bucket for bucket.  An empty window — no
    samples and no horizon — yields an empty curve rather than dividing
    by zero.
    """
    if not samples and horizon <= 0:
        return []
    if bucket_width is not None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        span = max(horizon, max((at for at, _ok in samples), default=0.0))
        span = span if span > 0 else bucket_width
        buckets = max(1, -(-int(round(span * 10**9)) // int(round(bucket_width * 10**9))))
        divisor, factor = bucket_width, 1
    else:  # the horizon split into ``buckets`` equal slots
        buckets = max(1, buckets)
        divisor, factor = (horizon if horizon > 0 else 1.0), buckets
    counts = [[0, 0] for _ in range(buckets)]
    for at, ok in samples:
        slot = min(int(at / divisor * factor), buckets - 1)
        counts[slot][0] += 1
        if ok:
            counts[slot][1] += 1
    return [
        {
            "until": round((slot + 1) * divisor / factor, 6),
            "attempted": attempted,
            "served": served,
            "availability": round(served / attempted, 6) if attempted else None,
        }
        for slot, (attempted, served) in enumerate(counts)
    ]


def replay_scenario(
    scenario: Any,
    obs: Any = None,
    buckets: int = 8,
    bucket_width: float | None = None,
) -> ReplayReport:
    """Replay one :class:`~repro.check.scenario.Scenario` on the executor.

    The same scenario JSON the model checker explores runs here as a
    single execution in the scheduler's own order, with the checker's
    step invariants after every step and the final phase (drain, heal,
    reconcile with the domain's handler, final invariants) at the end.
    The report carries a bucketed availability curve over the op window
    — the per-domain series the corpus sweep records.
    """
    obs = obs if obs is not None else Observability()
    driver = execute(scenario, obs, default_registry(), policy=None, max_steps=1_000_000)
    obs.emit(
        "corpus_replay",
        scenario=scenario.name,
        domain=scenario.domain,
        attempted=driver.attempted,
        served=driver.served,
        blocked=driver.blocked,
        violations=[verdict.name for verdict in driver.invariants if not verdict.ok],
    )
    obs.registry.counter(
        "corpus_replay_ops_total", "workload ops replayed from corpus scenarios"
    ).inc(driver.attempted, domain=scenario.domain)

    cluster = driver.cluster
    horizon = max((op.at for op in scenario.ops), default=0.0)
    return ReplayReport(
        scenario=scenario.name,
        domain=scenario.domain,
        availability_curve=_availability_curve(
            driver.samples, horizon, buckets, bucket_width=bucket_width
        ),
        adaptation_trace=(
            cluster.adaptation.trace_lines() if cluster.adaptation is not None else []
        ),
        **driver.outcome(),
    )
