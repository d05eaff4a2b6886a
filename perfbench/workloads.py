"""The benchmark workloads, driven only through ``DedisysCluster``.

Each workload builds its whole op schedule from the seed before anything
is timed.  One *round* builds a fresh cluster (timed as set-up), runs the
schedule closed-loop (timed per op), and checks the outputs.  Every
round of a run replays the same schedule on a fresh cluster, so on the
sim backend the modelled cost of every round must be identical.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.flightbooking import (
    AdditiveSoldMerge,
    Flight,
    ticket_constraint_registration,
)
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import AcceptAllHandler, ThreatStoragePolicy
from repro.core.system_mode import SystemMode

#: Seats per flight: far above any sell count, so no sale violates the
#: ticket constraint and no operation is rejected.
SEATS = 10**9


class CheckFailed(AssertionError):
    """An output check failed; the run must report ``correct: false``."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Modelled cost charged to the cluster's ``CostLedger`` in a window."""

    seconds: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def snapshot(cluster: DedisysCluster) -> tuple[float, dict[str, int]]:
        return cluster.ledger.total(), dict(cluster.ledger.counts)

    def add_since(self, cluster: DedisysCluster, before: tuple[float, dict[str, int]]) -> None:
        seconds, counts = before
        self.seconds += cluster.ledger.total() - seconds
        for name, count in cluster.ledger.counts.items():
            delta = count - counts.get(name, 0)
            if delta:
                self.counts[name] = self.counts.get(name, 0) + delta


@dataclass
class RoundResult:
    """What one round measured; wall figures in seconds."""

    setup_s: float = 0.0
    ops: int = 0
    failed: int = 0
    timed_s: float = 0.0
    write_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    reconcile_s: list[float] = field(default_factory=list)
    # Modelled cost of the business ops, of the reconciles, and of the
    # whole timed phase (ops + partition/heal/reconcile).
    modelled_ops: Ledger = field(default_factory=Ledger)
    modelled_reconcile: Ledger = field(default_factory=Ledger)
    modelled_all: Ledger = field(default_factory=Ledger)
    reconcile_reports: list[Any] = field(default_factory=list)
    threats_before_reconcile: list[int] = field(default_factory=list)
    # The process's peak RSS once the round has finished.
    peak_rss_mb: float = 0.0
    # How much slower than the reference speed the machine ran the round.
    slowness: float = 1.0

    def fingerprint(self) -> str:
        """Exact modelled figures of the round, for same-seed comparison."""
        parts = [
            f"ops={self.ops}",
            f"failed={self.failed}",
            f"ops_s={self.modelled_ops.seconds!r}",
            f"reconcile_s={self.modelled_reconcile.seconds!r}",
            f"all_s={self.modelled_all.seconds!r}",
        ]
        parts += [f"{k}={v}" for k, v in sorted(self.modelled_all.counts.items())]
        return ";".join(parts)


class Timer:
    """Times each op call to return; the traced subclass adds op spans."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def call(self, kind: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        started = self.clock()
        result = fn(*args, **kwargs)
        return result, self.clock() - started

    def attach(self, cluster: DedisysCluster) -> None:
        """Called with each freshly built cluster, after set-up is timed."""

    def untraced(self) -> "Timer":
        """The timer for work outside the measured ops (output checks)."""
        return self


def _sell_body(first: Any, second: Any) -> Callable[[Any], None]:
    def body(tx: Any) -> None:
        tx.invoke(first, "sell_tickets", 1)
        tx.invoke(second, "sell_tickets", 1)

    return body


class Workload:
    """Base: a flight-booking cluster with ``flights`` spread over primaries."""

    name = ""
    nodes: tuple[str, ...] = ()
    flights = 0
    transport = "sim"
    threat_policy = ThreatStoragePolicy.IDENTICAL_ONCE
    #: Times the output check reads every flight on every node.
    read_sweeps = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.schedule = self.make_schedule()

    # -- schedule (pure data, built before timing) -------------------------
    def make_schedule(self) -> Any:
        raise NotImplementedError

    def _callers(self, nodes: tuple[str, ...], count: int) -> list[str]:
        """``count`` callers, every node equally often, in seeded order; the
        share of local and remote primaries then varies little by seed."""
        callers = [nodes[index % len(nodes)] for index in range(count)]
        self.rng.shuffle(callers)
        return callers

    def _sells(self, nodes: tuple[str, ...], count: int) -> list[tuple[str, int, int]]:
        return [
            (caller, *self.rng.sample(range(self.flights), 2))
            for caller in self._callers(nodes, count)
        ]

    # -- cluster -------------------------------------------------------------
    def build(self) -> tuple[DedisysCluster, list[Any]]:
        config = ClusterConfig(
            node_ids=self.nodes,
            transport=self.transport,
            threat_policy=self.threat_policy,
        )
        cluster = DedisysCluster(config)
        try:
            cluster.deploy(Flight)
            cluster.register_constraint(ticket_constraint_registration())
            refs = [
                cluster.create_entity(
                    self.nodes[index % len(self.nodes)],
                    "Flight",
                    f"F{index}",
                    {"flight_number": f"F{index}", "seats": SEATS, "sold": 0},
                )
                for index in range(self.flights)
            ]
        except BaseException:
            cluster.close()
            raise
        return cluster, refs

    def run_round(self, timer: Timer) -> RoundResult:
        result = RoundResult()
        started = timer.clock()
        cluster, refs = self.build()
        result.setup_s = timer.clock() - started
        try:
            timer.attach(cluster)
            sold = [0] * self.flights
            self.execute(cluster, refs, sold, timer, result)
            self.verify(cluster, refs, sold, timer.untraced(), result)
        finally:
            cluster.close()
        return result

    def execute(
        self,
        cluster: DedisysCluster,
        refs: list[Any],
        sold: list[int],
        timer: Timer,
        result: RoundResult,
    ) -> None:
        raise NotImplementedError

    # -- output checks ---------------------------------------------------------
    def verify(
        self,
        cluster: DedisysCluster,
        refs: list[Any],
        sold: list[int],
        timer: Timer,
        result: RoundResult,
    ) -> None:
        """Every replica agrees and ``sold`` equals the committed sells.

        The check reads every flight on every node through
        ``cluster.invoke``; those local reads are timed like any other.
        """
        self.check_replicas(cluster, refs, sold)
        for node in self.nodes * self.read_sweeps:
            for index, ref in enumerate(refs):
                value, took = timer.call("read", cluster.invoke, node, ref, "get_sold")
                result.read_s.append(took)
                _check(value == sold[index], f"{node} reads sold={value} on F{index}, want {sold[index]}")
                value, took = timer.call("read", cluster.invoke, node, ref, "get_seats")
                result.read_s.append(took)
                _check(value == SEATS, f"{node} reads seats={value} on F{index}")

    def check_replicas(self, cluster: DedisysCluster, refs: list[Any], sold: list[int]) -> None:
        for index, ref in enumerate(refs):
            states = cluster.replica_states(ref)
            _check(
                all(state is not None for state in states.values()),
                f"F{index} has no replica on some node: {states}",
            )
            _check(len(set(states.values())) == 1, f"F{index} replicas disagree: {states}")
            state = dict(next(iter(states.values())))
            _check(
                state["sold"] == sold[index],
                f"F{index} sold={state['sold']}, committed sells={sold[index]}",
            )


class HealthyWrite(Workload):
    """5 nodes, 24 flights, one client: every op is a 2-flight sell."""

    name = "healthy-write"
    nodes = ("n1", "n2", "n3", "n4", "n5")
    flights = 24
    ops_per_round = 600

    def make_schedule(self) -> list[tuple[str, int, int]]:
        return self._sells(self.nodes, self.ops_per_round)

    def execute(self, cluster, refs, sold, timer, result):
        plan = [(node, _sell_body(refs[a], refs[b]), a, b) for node, a, b in self.schedule]
        before = Ledger.snapshot(cluster)
        started = timer.clock()
        for node, body, a, b in plan:
            try:
                _, took = timer.call("write", cluster.run_in_tx, node, body)
            except Exception:
                result.failed += 1
                continue
            result.write_s.append(took)
            sold[a] += 1
            sold[b] += 1
        result.timed_s = timer.clock() - started
        result.ops = len(plan)
        result.modelled_ops.add_since(cluster, before)
        result.modelled_all.add_since(cluster, before)


class ReadMostly(HealthyWrite):
    """The healthy-write cluster; 90% local reads, 10% 2-flight sells."""

    name = "read-mostly"
    ops_per_round = 2000
    writes_per_round = 200
    read_methods = ("get_sold", "get_seats")

    def make_schedule(self) -> list[tuple[str, str, int, Any]]:
        kinds = ["write"] * self.writes_per_round + ["read"] * (self.ops_per_round - self.writes_per_round)
        self.rng.shuffle(kinds)
        schedule = []
        for kind, caller in zip(kinds, self._callers(self.nodes, self.ops_per_round)):
            if kind == "write":
                schedule.append((kind, caller, *self.rng.sample(range(self.flights), 2)))
            else:
                flight = self.rng.randrange(self.flights)
                schedule.append((kind, caller, flight, self.rng.choice(self.read_methods)))
        return schedule

    def execute(self, cluster, refs, sold, timer, result):
        plan = [
            (kind, node, _sell_body(refs[a], refs[b]) if kind == "write" else refs[a], a, b)
            for kind, node, a, b in self.schedule
        ]
        before = Ledger.snapshot(cluster)
        started = timer.clock()
        for kind, node, target, a, b in plan:
            try:
                if kind == "write":
                    _, took = timer.call("write", cluster.run_in_tx, node, target)
                else:
                    value, took = timer.call("read", cluster.invoke, node, target, b)
            except Exception:
                result.failed += 1
                continue
            if kind == "write":
                result.write_s.append(took)
                sold[a] += 1
                sold[b] += 1
            else:
                result.read_s.append(took)
                want = sold[a] if b == "get_sold" else SEATS
                _check(value == want, f"{node} reads {b}={value} on F{a}, want {want}")
        result.timed_s = timer.clock() - started
        result.ops = len(plan)
        result.modelled_ops.add_since(cluster, before)
        result.modelled_all.add_since(cluster, before)


class PartitionReconcile(Workload):
    """Fig. 5.6's costly case: full-history threats, partition, reconcile."""

    name = "partition-reconcile"
    nodes = ("n1", "n2", "n3", "n4", "n5")
    sides = (("n1", "n2", "n3"), ("n4", "n5"))
    flights = 100
    threat_policy = ThreatStoragePolicy.FULL_HISTORY
    cycles_per_round = 4
    sells_per_cycle = 40

    def make_schedule(self) -> list[list[tuple[str, int, int]]]:
        # Callers from both sides, every node equally often.
        return [self._sells(self.nodes, self.sells_per_cycle) for _ in range(self.cycles_per_round)]

    def execute(self, cluster, refs, sold, timer, result):
        handler = AcceptAllHandler()
        for cycle in self.schedule:
            plan = [(node, _sell_body(refs[a], refs[b]), a, b) for node, a, b in cycle]
            # The healthy-mode counters the additive merge starts from; the
            # previous cycle's checks proved they equal every replica.
            baselines = {ref: sold[index] for index, ref in enumerate(refs)}
            merge = AdditiveSoldMerge(baselines)
            before_all = Ledger.snapshot(cluster)
            started = timer.clock()
            timer.call("partition", cluster.partition, *self.sides)
            before = Ledger.snapshot(cluster)
            for node, body, a, b in plan:
                try:
                    _, took = timer.call(
                        "write", cluster.run_in_tx, node, body, negotiation_handler=handler
                    )
                except Exception:
                    result.failed += 1
                    continue
                result.write_s.append(took)
                sold[a] += 1
                sold[b] += 1
            result.modelled_ops.add_since(cluster, before)
            timer.call("heal", cluster.heal)
            stored = sum(records for records, _ in cluster.threat_accounting().values())
            before = Ledger.snapshot(cluster)
            report, took = timer.call("reconcile", cluster.reconcile, replica_handler=merge)
            result.modelled_reconcile.add_since(cluster, before)
            result.timed_s += timer.clock() - started
            result.modelled_all.add_since(cluster, before_all)
            result.reconcile_s.append(took)
            result.reconcile_reports.append(report)
            result.threats_before_reconcile.append(stored)
            result.ops += len(plan)
            self.check_reconciled(cluster, refs, sold)

    def check_reconciled(self, cluster, refs, sold):
        """After every reconcile: no threat left, every node healthy, and
        every replica holds the exact additive total."""
        accounting = cluster.threat_accounting()
        _check(
            all(entry == (0, 0) for entry in accounting.values()),
            f"threats left after reconcile: {accounting}",
        )
        modes = {node: cluster.mode_of(node) for node in self.nodes}
        _check(
            all(mode is SystemMode.HEALTHY for mode in modes.values()),
            f"nodes not healthy after reconcile: {modes}",
        )
        self.check_replicas(cluster, refs, sold)


class Asyncio2Client(Workload):
    """The real transport: 3 nodes, 12 flights, 2 client threads.

    Runs by hand and under ``--workload all`` but is not in
    ``BENCHMARK.json``: its wall figures, the write tail most of all, move
    with how busy the shared host is in ways the single-thread calibration
    loop does not see (see README.md).
    """

    name = "asyncio-2client"
    nodes = ("n1", "n2", "n3")
    flights = 12
    transport = "asyncio"
    clients = 2
    ops_per_client = 100
    # Enough reads per round that a few rounds give p99 ten samples beyond.
    read_sweeps = 3
    join_timeout_s = 120.0

    def make_schedule(self) -> list[list[tuple[str, int, int]]]:
        return [self._sells(self.nodes, self.ops_per_client) for _ in range(self.clients)]

    def execute(self, cluster, refs, sold, timer, result):
        plans = [
            [(node, _sell_body(refs[a], refs[b])) for node, a, b in schedule]
            for schedule in self.schedule
        ]
        latencies: list[list[float]] = [[] for _ in plans]
        committed: list[list[tuple[int, int]]] = [[] for _ in plans]
        failures = [0] * len(plans)
        barrier = threading.Barrier(len(plans) + 1)

        def client(index: int) -> None:
            barrier.wait()
            for (node, body), (_, a, b) in zip(plans[index], self.schedule[index]):
                try:
                    _, took = timer.call("write", cluster.run_in_tx, node, body)
                except Exception:
                    failures[index] += 1
                    continue
                latencies[index].append(took)
                committed[index].append((a, b))

        threads = [threading.Thread(target=client, args=(index,)) for index in range(len(plans))]
        for thread in threads:
            thread.start()
        before = Ledger.snapshot(cluster)
        barrier.wait()
        started = timer.clock()
        for thread in threads:
            thread.join(self.join_timeout_s)
        result.timed_s = timer.clock() - started
        _check(not any(thread.is_alive() for thread in threads), "client thread did not finish")
        result.modelled_ops.add_since(cluster, before)
        result.modelled_all.add_since(cluster, before)
        result.failed = sum(failures)
        for latency in latencies:
            result.write_s.extend(latency)
        for pairs in committed:
            for a, b in pairs:
                sold[a] += 1
                sold[b] += 1
        result.ops = sum(len(plan) for plan in plans)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HealthyWrite, ReadMostly, PartitionReconcile, Asyncio2Client)
}
