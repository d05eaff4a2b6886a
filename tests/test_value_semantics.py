"""Value semantics of stored rows and entity state.

Every copy the persistence layer and entities hand out or keep is
independent: after ``put``, ``insert``, ``get``, ``get_or_none``, ``scan``,
``StateHistory.record``, ``Entity.state`` and ``Entity.apply_state``,
mutating either side never leaks into the other.  Three kinds of row are
covered, because :func:`~repro.persistence.values.snapshot` copies them
differently: a flat row of immutables (shallow copy), a row holding
``ObjectRef`` handles (shallow copy, refs shared) and a nested mutable row
(deep copy).
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, DedisysCluster
from repro.core import ConsistencyThreat, SatisfactionDegree
from repro.objects import Entity, ObjectRef
from repro.persistence import PersistenceEngine, StateHistory
from repro.persistence.values import snapshot
from repro.sim import SimClock

THREAT = ConsistencyThreat(
    constraint_name="TicketConstraint",
    degree=SatisfactionDegree.POSSIBLY_SATISFIED,
    context_ref=ObjectRef("Flight", "LH1"),
    affected_refs=(ObjectRef("Flight", "LH1"), ObjectRef("Flight", "LH2")),
    application_data={"sold": 3, "seats": [1, 2]},
)

ROWS = {
    "flat": lambda: {
        "flight_number": "LH1",
        "seats": 100,
        "sold": 3,
        "price": 9.5,
        "note": None,
        "open": True,
        "blob": b"\x00",
    },
    "refs": lambda: {
        "owner": ObjectRef("Customer", "c1"),
        "flight": ObjectRef("Flight", "LH1"),
        "sold": 2,
    },
    "nested": THREAT.snapshot,
}


def mutate(row: dict) -> None:
    """Change ``row`` in place at every level it has."""
    for value in row.values():
        if isinstance(value, list):
            value.append("LEAK")
        elif isinstance(value, dict):
            value["LEAK"] = True
    row[next(iter(row))] = "LEAK"
    row["extra"] = "LEAK"


@pytest.fixture(params=sorted(ROWS))
def kind(request):
    return request.param


@pytest.fixture
def table():
    return PersistenceEngine(SimClock()).table("t")


class TestTable:
    @pytest.mark.parametrize("write", ["put", "insert"])
    def test_caller_mutation_after_write(self, table, kind, write):
        row = ROWS[kind]()
        getattr(table, write)("k", row)
        mutate(row)
        assert table.get("k") == ROWS[kind]()

    @pytest.mark.parametrize("read", ["get", "get_or_none"])
    def test_reader_mutation_after_read(self, table, kind, read):
        table.put("k", ROWS[kind]())
        mutate(getattr(table, read)("k"))
        assert table.get("k") == ROWS[kind]()

    def test_reader_mutation_after_scan(self, table, kind):
        table.put("a", ROWS[kind]())
        table.put("b", ROWS[kind]())
        for _, row in table.scan():
            mutate(row)
        assert dict(table.scan()) == {"a": ROWS[kind](), "b": ROWS[kind]()}

    @pytest.mark.parametrize("write", ["put", "insert"])
    def test_journal_records_the_stored_row(self, table, kind, write):
        row = ROWS[kind]()
        getattr(table, write)("k", row)
        mutate(row)
        assert table.engine.journal()[-1].value == ROWS[kind]()


def test_state_history_record(kind):
    history = StateHistory(PersistenceEngine(SimClock()))
    state = ROWS[kind]()
    history.record("obj", 1, state)
    mutate(state)
    assert history.latest("obj").state == ROWS[kind]()


def entity_for(kind: str) -> Entity:
    cls = type(f"Row_{kind}", (Entity,), {"fields": dict.fromkeys(ROWS[kind]())})
    entity = cls("e1")
    entity.apply_state(ROWS[kind]())
    return entity


class TestEntity:
    def test_state_mutation(self, kind):
        entity = entity_for(kind)
        mutate(entity.state())
        assert entity.state() == ROWS[kind]()

    def test_apply_state_then_caller_mutation(self, kind):
        entity = entity_for(kind)
        state = ROWS[kind]()
        entity.apply_state(state, version=7)
        mutate(state)
        assert entity.state() == ROWS[kind]()
        assert entity.version == 7

    def test_constructor_attributes_are_copied(self, kind):
        cls = type(entity_for(kind))
        attributes = ROWS[kind]()
        entity = cls("e2", **attributes)
        mutate(attributes)
        assert entity.state() == ROWS[kind]()

    def test_mutable_field_defaults_are_per_instance(self):
        class Tagged(Entity):
            fields = {"items": [], "meta": {}}

        first, second = Tagged("t1"), Tagged("t2")
        first._get("items").append("x")
        first._get("meta")["k"] = 1
        assert second.state() == {"items": [], "meta": {}}
        assert Tagged.fields == {"items": [], "meta": {}}

    def test_direct_entity_reference_is_kept_by_identity(self):
        class Holder(Entity):
            fields = {"other": None}

        other = Holder("h2")
        assert Holder("h1", other=other)._get("other") is other


class Tagged(Entity):
    fields = {"items": []}


class TestCreateEntityAliasing:
    @pytest.fixture
    def cluster(self):
        cluster = DedisysCluster(ClusterConfig(node_ids=("n1", "n2", "n3")))
        cluster.deploy(Tagged)
        return cluster

    def test_caller_list_does_not_reach_primary(self, cluster):
        tags = ["a"]
        ref = cluster.create_entity("n1", "Tagged", "t1", {"items": tags})
        tags.append("LEAK")
        assert cluster.entity_on("n1", ref).state() == {"items": ["a"]}

    def test_backups_do_not_share_the_payload_list(self, cluster):
        ref = cluster.create_entity("n1", "Tagged", "t1", {"items": ["a"]})
        items = [cluster.entity_on(n, ref)._attributes["items"] for n in ("n1", "n2", "n3")]
        assert all(lst == ["a"] for lst in items)
        assert len({id(lst) for lst in items}) == 3


class TestSnapshot:
    def test_flat_row_is_a_shallow_copy(self):
        row = ROWS["refs"]()
        copy = snapshot(row)
        assert copy == row and copy is not row
        assert copy["owner"] is row["owner"]

    def test_nested_row_is_a_deep_copy(self):
        row = ROWS["nested"]()
        copy = snapshot(row)
        assert copy == row
        assert copy["affected"] is not row["affected"]
        assert copy["application_data"]["seats"] is not row["application_data"]["seats"]

    def test_immutable_values_pass_through(self):
        for value in (None, 3, 2.5, "s", b"b", True, ObjectRef("Flight", "LH1")):
            assert snapshot(value) is value

    def test_subclasses_fall_back_to_deepcopy(self):
        class Tag(str):
            pass

        tag = Tag("x")
        tag.extra = []
        copy = snapshot({"tag": tag})
        assert copy["tag"] == "x" and copy["tag"] is not tag
        assert copy["tag"].extra is not tag.extra
