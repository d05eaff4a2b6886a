"""Property test: the cached partition view always equals a fresh BFS.

``Topology`` caches each node's connected component until the next
topology change.  Random sequences of link and crash operations, no-op
repeats included, are applied to both network backends; after every step
the cached answers are compared with an uncached BFS written here, and
``topology_version`` must rise exactly when the link or crash state
changed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import SimNetwork
from repro.obs import Observability
from repro.transport.asyncio_backend import AsyncioNetwork
from repro.transport.wallclock import RealScheduler

NODES = ("a", "b", "c", "d", "e")

node = st.sampled_from(NODES)
link = st.tuples(node, node).filter(lambda pair: pair[0] != pair[1])
grouping = st.lists(st.integers(min_value=0, max_value=2), min_size=len(NODES), max_size=len(NODES))
step = st.one_of(
    st.tuples(st.just("fail_link"), link),
    st.tuples(st.just("heal_link"), link),
    st.tuples(st.just("partition"), grouping),
    st.tuples(st.just("heal_all"), st.none()),
    st.tuples(st.just("crash_node"), node),
    st.tuples(st.just("recover_node"), node),
)


def _with_repeats(pairs: list) -> list:
    """Repeating a step right after itself exercises the no-op paths."""
    out = []
    for one, repeat in pairs:
        out.extend([one, one] if repeat else [one])
    return out


steps = st.lists(st.tuples(step, st.booleans()), min_size=1, max_size=25).map(_with_repeats)


def reference_components(network) -> dict[str, frozenset[str]]:
    """Node -> live component by an uncached BFS over the raw link state."""
    live = [n for n in NODES if not network.is_crashed(n)]
    result: dict[str, frozenset[str]] = {}
    for start in live:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for other in live:
                if other not in seen and frozenset((current, other)) not in network._failed_links:
                    seen.add(other)
                    frontier.append(other)
        result[start] = frozenset(seen)
    return result


def raw_state(network) -> tuple:
    return (frozenset(network._failed_links), frozenset(network._crashed))


def apply(network, op: str, arg) -> None:
    if op == "partition":
        groups = [{n for n, g in zip(NODES, arg) if g == index} for index in range(3)]
        network.partition(*(group for group in groups if group))
    elif op == "heal_all":
        network.heal_all()
    elif op in ("fail_link", "heal_link"):
        getattr(network, op)(*arg)
    else:
        getattr(network, op)(arg)


def make_sim(obs):
    return SimNetwork(NODES, obs=obs)


def make_asyncio(obs):
    return AsyncioNetwork(NODES, RealScheduler(), obs=obs)


@pytest.fixture(scope="module", params=[make_sim, make_asyncio], ids=["sim", "asyncio"])
def backend(request):
    obs = Observability()
    network = request.param(obs)
    notified: list[list[frozenset[str]]] = []
    network.on_topology_change(lambda: notified.append(network.partitions()))
    yield network, obs, notified
    if isinstance(network, AsyncioNetwork):
        network.scheduler.close()
        network.close()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sequence=steps)
def test_cached_partitions_match_fresh_bfs(backend, sequence):
    network, obs, notified = backend
    network.heal_all()
    for op, arg in sequence:
        before_state = raw_state(network)
        before_version = network.topology_version
        before_events = len(obs.events("topology_change"))
        notified.clear()

        apply(network, op, arg)

        changed = raw_state(network) != before_state
        assert network.topology_version == before_version + (1 if changed else 0)

        expected = reference_components(network)
        expected_partitions = sorted(set(expected.values()), key=lambda c: (-len(c), sorted(c)))
        assert network.partitions() == expected_partitions
        for a in NODES:
            assert network.partition_of(a) == expected.get(a, frozenset())
            for b in NODES:
                assert network.reachable(a, b) == (b in expected.get(a, ()))

        # The event and the listeners ran after the cache was dropped, so
        # they already saw the new partitions.
        events = obs.events("topology_change")[before_events:]
        assert len(events) == len(notified) == (1 if changed else 0)
        if changed:
            assert events[0].data["partitions"] == [sorted(p) for p in expected_partitions]
            assert notified == [expected_partitions]


def test_partition_of_returns_the_cached_component():
    network = SimNetwork(NODES)
    network.partition({"a", "b"}, {"c", "d", "e"})
    first = network.partition_of("a")
    assert first is network.partition_of("b")
    assert first in network.partitions()
    network.fail_link("a", "b")
    assert network.partition_of("a") == frozenset({"a"})
