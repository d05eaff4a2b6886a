"""Throughput engine: compiled dispatch table and batched propagation.

Covers the two opt-in optimizations end to end: the repository's
dispatch table under the ``compiled`` lookup policy (correctness against
linear search, runtime invalidation via register/remove/enable/disable
and the §6.3 ``on_change`` hook, live ``enabled``/tradeability), the
CCMgr integration (same outcomes, fewer repository charges), and batched
write propagation (one multicast round per transaction, per-entry acks,
rollback discard, identical staleness under partitions, byte-identical
same-seed traces).
"""

import io

import pytest

from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import (
    ConstraintPriority,
    ConstraintRepository,
    ConstraintType,
    PredicateConstraint,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration
from repro.obs import Observability

ALL_TYPES = tuple(ConstraintType)


def make_registration(name, cls="Flight", method="sell", ctype=ConstraintType.INVARIANT_HARD):
    constraint = PredicateConstraint(name, lambda ctx: True, constraint_type=ctype)
    return ConstraintRegistration(constraint, (AffectedMethod(cls, method),))


def populate(repository):
    for index, ctype in enumerate(ALL_TYPES):
        repository.register(make_registration(f"sell-{ctype.name.lower()}", ctype=ctype))
        repository.register(
            make_registration(f"cancel-{index}", method="cancel", ctype=ctype)
        )


class TestCompiledDispatch:
    def test_matches_linear_search_for_every_type(self):
        linear = ConstraintRepository(lookup="linear")
        compiled = ConstraintRepository(lookup="compiled")
        populate(linear)
        populate(compiled)
        for method in ("sell", "cancel", "unknown"):
            for ctype in (None,) + ALL_TYPES:
                expected = [
                    r.name for r in linear.affected_constraints("Flight", method, ctype)
                ]
                got = [
                    r.name for r in compiled.affected_constraints("Flight", method, ctype)
                ]
                assert got == expected, (method, ctype)

    def test_dispatch_groups_every_constraint_type(self):
        compiled = ConstraintRepository(lookup="compiled")
        populate(compiled)
        dispatch = compiled.method_dispatch("Flight", "sell")
        for ctype in ALL_TYPES:
            assert [r.name for r in dispatch.registrations(ctype)] == [
                f"sell-{ctype.name.lower()}"
            ]
        assert len(dispatch) == len(ALL_TYPES)

    def test_unknown_method_yields_empty_dispatch(self):
        compiled = ConstraintRepository(lookup="compiled")
        populate(compiled)
        dispatch = compiled.method_dispatch("Flight", "unknown")
        assert len(dispatch) == 0
        assert dispatch.registrations() == []
        assert not dispatch.any_tradeable()

    def test_every_lookup_answers_a_dispatch(self):
        # One dispatch path: the policies differ in charges, not in how
        # registrations are found.
        for lookup in ("linear", "cached", "compiled"):
            repository = ConstraintRepository(lookup=lookup)
            populate(repository)
            dispatch = repository.method_dispatch("Flight", "sell")
            assert [r.name for r in dispatch.registrations()] == [
                f"sell-{ctype.name.lower()}" for ctype in ALL_TYPES
            ]

    def test_register_invalidates_table(self):
        compiled = ConstraintRepository(lookup="compiled")
        compiled.register(make_registration("c1"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 1
        compiled.register(make_registration("c2"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 2

    def test_remove_invalidates_table(self):
        compiled = ConstraintRepository(lookup="compiled")
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        assert len(compiled.method_dispatch("Flight", "sell")) == 2
        compiled.remove("c1")
        assert [r.name for r in compiled.method_dispatch("Flight", "sell").registrations()] == [
            "c2"
        ]

    def test_enable_disable_reflected_in_dispatch(self):
        compiled = ConstraintRepository(lookup="compiled")
        compiled.register(make_registration("c1"))
        compiled.disable("c1")
        assert compiled.method_dispatch("Flight", "sell").registrations() == []
        compiled.enable("c1")
        assert len(compiled.method_dispatch("Flight", "sell").registrations()) == 1

    def test_rebuild_is_lazy_and_counted(self):
        compiled = ConstraintRepository(lookup="compiled")
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        assert compiled.rebuilds == 0
        compiled.method_dispatch("Flight", "sell")
        compiled.method_dispatch("Flight", "sell")
        # Registering twice above marked dirty twice but built nothing;
        # the two lookups share a single rebuild.
        assert compiled.rebuilds == 1
        compiled.remove("c2")
        compiled.method_dispatch("Flight", "sell")
        assert compiled.rebuilds == 2

    def test_on_change_listener_fires_for_all_mutations(self):
        compiled = ConstraintRepository(lookup="compiled")
        fired = []
        compiled.on_change(lambda: fired.append(True))
        compiled.register(make_registration("c1"))
        compiled.disable("c1")
        compiled.enable("c1")
        compiled.remove("c1")
        assert len(fired) == 4

    def test_listener_query_during_invalidation_sees_fresh_table(self):
        # An on_change listener (adaptive instrumentation, §6.3) may query
        # the repository immediately; it must see the post-change state.
        compiled = ConstraintRepository(lookup="compiled")
        observed = []
        compiled.on_change(
            lambda: observed.append(len(compiled.method_dispatch("Flight", "sell")))
        )
        compiled.register(make_registration("c1"))
        compiled.register(make_registration("c2"))
        compiled.remove("c1")
        assert observed == [1, 2, 1]

    def test_direct_enabled_toggle_honoured_without_rebuild(self):
        # Satellite regression (mirrors the caching-repository fix): a
        # toggle on the Constraint object itself bypasses the on_change
        # hook, so the compiled table cannot rebuild — ``enabled`` must be
        # filtered at access time instead.
        compiled = ConstraintRepository(lookup="compiled")
        registration = make_registration("c1")
        compiled.register(registration)
        dispatch = compiled.method_dispatch("Flight", "sell")
        rebuilds = compiled.rebuilds
        registration.constraint.enabled = False
        assert dispatch.registrations() == []
        assert compiled.affected_constraints("Flight", "sell") == []
        registration.constraint.enabled = True
        assert len(dispatch.registrations()) == 1
        assert compiled.rebuilds == rebuilds

    def test_tradeability_evaluated_live(self):
        # The adaptation actuator flips priorities directly on the
        # Constraint; any_tradeable() must follow without a rebuild.
        compiled = ConstraintRepository(lookup="compiled")
        registration = make_registration("c1")
        compiled.register(registration)
        dispatch = compiled.method_dispatch("Flight", "sell")
        assert not dispatch.any_tradeable()
        registration.constraint.priority = ConstraintPriority.RELAXABLE
        assert dispatch.any_tradeable()
        registration.constraint.priority = ConstraintPriority.CRITICAL
        assert not dispatch.any_tradeable()

    def test_duplicate_affected_method_triggers_once(self):
        compiled = ConstraintRepository(lookup="compiled")
        constraint = PredicateConstraint("dup", lambda ctx: True)
        compiled.register(
            ConstraintRegistration(
                constraint,
                (AffectedMethod("Flight", "sell"), AffectedMethod("Flight", "sell")),
            )
        )
        assert len(compiled.method_dispatch("Flight", "sell")) == 1

    def test_charge_categories(self):
        charges = []
        compiled = ConstraintRepository(charge=charges.append, lookup="compiled")
        compiled.register(make_registration("c1"))
        dispatch = compiled.method_dispatch("Flight", "sell")
        compiled.affected_constraints("Flight", "sell")
        # Typed accesses on a compiled entry are free.
        dispatch.registrations(ConstraintType.INVARIANT_HARD)
        assert charges == ["repository_dispatch", "repository_dispatch"]


def build_cluster(repository="compiled", batch_updates=False, obs=None, nodes=3):
    cluster = DedisysCluster(
        ClusterConfig(
            node_ids=tuple(f"node-{i + 1}" for i in range(nodes)),
            repository=repository,
            batch_updates=batch_updates,
            obs=obs,
        )
    )
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    return cluster


def sell_pair(cluster, client="node-1", refs=None):
    def body(proxy):
        for ref in refs:
            proxy.invoke(ref, "sell_tickets", 1)

    cluster.run_in_tx(client, body)


class TestCompiledClusterIntegration:
    def test_same_outcomes_as_cached(self):
        states = {}
        for kind in ("cached", "compiled"):
            cluster = build_cluster(repository=kind)
            ref = cluster.create_entity(
                "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 5, "sold": 0}
            )
            cluster.invoke("node-1", ref, "sell_tickets", 3)
            with pytest.raises(Exception):
                # Overbooking must still be rejected by the hard invariant.
                cluster.invoke("node-2", ref, "sell_tickets", 9)
            states[kind] = {
                node: cluster.entity_on(node, ref).state()
                for node in cluster.config.node_ids
            }
        assert states["cached"] == states["compiled"]

    def test_compiled_charges_dispatch_not_lookups(self):
        cluster = build_cluster(repository="compiled")
        ref = cluster.create_entity(
            "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 5, "sold": 0}
        )
        cluster.invoke("node-1", ref, "sell_tickets", 1)
        counts = cluster.ledger.counts
        assert counts.get("repository_dispatch", 0) > 0
        assert "repository_lookup_cached" not in counts
        assert "repository_search" not in counts

    def test_compiled_is_not_slower_than_cached(self):
        elapsed = {}
        for kind in ("cached", "compiled"):
            cluster = build_cluster(repository=kind)
            ref = cluster.create_entity(
                "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 50, "sold": 0}
            )
            start = cluster.network.scheduler.clock.now
            for _ in range(5):
                cluster.invoke("node-1", ref, "sell_tickets", 1)
            elapsed[kind] = cluster.network.scheduler.clock.now - start
        assert elapsed["compiled"] < elapsed["cached"]


class TestBatchedPropagation:
    def two_flights_one_primary(self, cluster):
        return [
            cluster.create_entity(
                "node-1", "Flight", f"f{i}", {"flight_number": f"OS{i}", "seats": 9, "sold": 0}
            )
            for i in (1, 2)
        ]

    def test_one_batched_round_per_transaction(self):
        obs = Observability()
        cluster = build_cluster(batch_updates=True, obs=obs)
        refs = self.two_flights_one_primary(cluster)
        before = len(obs.events("multicast"))
        sell_pair(cluster, refs=refs)
        rounds = obs.events("multicast")[before:]
        kinds = [event.data["kind"] for event in rounds]
        # Two writes, one coalesced replica-update-batch round — no
        # per-write replica-update rounds at all.
        assert kinds == ["replica-update-batch"]
        for node in cluster.config.node_ids:
            for ref in refs:
                assert cluster.entity_on(node, ref).state()["sold"] == 1

    def test_batch_round_carries_per_entry_acks(self):
        obs = Observability()
        cluster = build_cluster(batch_updates=True, obs=obs)
        refs = self.two_flights_one_primary(cluster)
        sell_pair(cluster, refs=refs)
        (batch,) = obs.events("replication_batch")
        assert batch.data["entries"] == 2
        assert batch.data["recipients"] == ["node-2", "node-3"]
        # Every recipient acked every entry.
        assert batch.data["acked"] == 4

    def test_coalescing_is_last_write_wins(self):
        cluster = build_cluster(batch_updates=True)
        (ref,) = [
            cluster.create_entity(
                "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 9, "sold": 0}
            )
        ]

        def body(proxy):
            proxy.invoke(ref, "sell_tickets", 1)
            proxy.invoke(ref, "sell_tickets", 1)
            proxy.invoke(ref, "sell_tickets", 1)

        cluster.run_in_tx("node-1", body)
        for node in cluster.config.node_ids:
            assert cluster.entity_on(node, ref).state()["sold"] == 3

    def test_rollback_discards_pending_batch(self):
        obs = Observability()
        cluster = build_cluster(batch_updates=True, obs=obs)
        refs = self.two_flights_one_primary(cluster)
        before = len(obs.events("multicast"))

        def body(proxy):
            proxy.invoke(refs[0], "sell_tickets", 1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cluster.run_in_tx("node-1", body)
        kinds = [event.data["kind"] for event in obs.events("multicast")[before:]]
        assert "replica-update-batch" not in kinds
        for node in cluster.config.node_ids:
            assert cluster.entity_on(node, refs[0]).state()["sold"] == 0

    def test_batched_staleness_matches_per_write_under_partition(self):
        # The satellite requirement: batching must not change *which*
        # backups go stale — only how the fresh ones hear about updates.
        states = {}
        for batched in (False, True):
            cluster = build_cluster(batch_updates=batched)
            refs = self.two_flights_one_primary(cluster)
            cluster.partition({"node-1", "node-2"}, {"node-3"})
            sell_pair(cluster, refs=refs)
            states[batched] = {
                node: [cluster.entity_on(node, ref).state()["sold"] for ref in refs]
                for node in cluster.config.node_ids
            }
        # Majority-side replicas converged, minority replica stale — and
        # identically so in both propagation modes.
        assert states[True] == states[False]
        assert states[True]["node-2"] == [1, 1]
        assert states[True]["node-3"] == [0, 0]

    def test_batch_metrics_counted(self):
        obs = Observability()
        cluster = build_cluster(batch_updates=True, obs=obs)
        refs = self.two_flights_one_primary(cluster)
        sell_pair(cluster, refs=refs)
        sell_pair(cluster, client="node-2", refs=refs)
        metrics = obs.snapshot()["metrics"]
        assert metrics["repl_update_batches_total"]["series"][""] == 2
        assert metrics["repl_batched_updates_total"]["series"][""] == 4


def run_traced_scenario(seed=0):
    obs = Observability()
    cluster = build_cluster(repository="compiled", batch_updates=True, obs=obs)
    refs = [
        cluster.create_entity(
            "node-1", "Flight", f"f{i}", {"flight_number": f"OS{i}", "seats": 9, "sold": 0}
        )
        for i in (1, 2)
    ]
    sell_pair(cluster, refs=refs)
    cluster.partition({"node-1", "node-2"}, {"node-3"})
    sell_pair(cluster, client="node-2", refs=refs)
    cluster.heal()
    cluster.reconcile()
    return obs


def test_compiled_batched_trace_is_deterministic():
    first, second = run_traced_scenario(), run_traced_scenario()
    streams = []
    for obs in (first, second):
        stream = io.StringIO()
        obs.export_jsonl(stream)
        streams.append(stream.getvalue().encode("utf-8"))
    assert streams[0] == streams[1]
