"""Tests for the constraint repository under its three lookup policies."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ConstraintPriority,
    ConstraintRepository,
    ConstraintType,
    MethodDispatch,
    PredicateConstraint,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration


def make_registration(name, cls="Flight", method="sell", ctype=ConstraintType.INVARIANT_HARD):
    constraint = PredicateConstraint(name, lambda ctx: True, constraint_type=ctype)
    return ConstraintRegistration(constraint, (AffectedMethod(cls, method),))


LOOKUPS = ("linear", "cached", "compiled")


# The ids keep the names of the repository classes the three lookup
# policies replaced, so the parametrized test ids stay stable.
@pytest.fixture(
    params=LOOKUPS,
    ids=["ConstraintRepository", "CachingConstraintRepository", "CompiledConstraintRepository"],
)
def repository(request):
    return ConstraintRepository(lookup=request.param)


class TestRegistration:
    def test_register_and_lookup(self, repository):
        repository.register(make_registration("c1"))
        matches = repository.affected_constraints("Flight", "sell")
        assert [m.name for m in matches] == ["c1"]

    def test_duplicate_name_rejected(self, repository):
        repository.register(make_registration("c1"))
        with pytest.raises(KeyError):
            repository.register(make_registration("c1"))

    def test_by_name(self, repository):
        registration = make_registration("c1")
        repository.register(registration)
        assert repository.by_name("c1") is registration
        assert repository.knows("c1")
        assert not repository.knows("ghost")

    def test_by_name_missing(self, repository):
        with pytest.raises(KeyError):
            repository.by_name("ghost")

    def test_remove(self, repository):
        repository.register(make_registration("c1"))
        repository.remove("c1")
        assert len(repository) == 0
        assert repository.affected_constraints("Flight", "sell") == []

    def test_remove_missing(self, repository):
        with pytest.raises(KeyError):
            repository.remove("ghost")

    def test_register_constraint_helper(self, repository):
        constraint = PredicateConstraint("c9", lambda ctx: True)
        registration = repository.register_constraint(
            constraint, [AffectedMethod("X", "m")]
        )
        assert registration.constraint is constraint
        assert repository.affected_constraints("X", "m")[0].name == "c9"


class TestQueries:
    def test_lookup_by_method(self, repository):
        repository.register(make_registration("c1", method="sell"))
        repository.register(make_registration("c2", method="cancel"))
        assert [m.name for m in repository.affected_constraints("Flight", "sell")] == ["c1"]

    def test_lookup_by_class(self, repository):
        repository.register(make_registration("c1", cls="Flight"))
        repository.register(make_registration("c2", cls="Person"))
        assert [m.name for m in repository.affected_constraints("Person", "sell")] == ["c2"]

    def test_lookup_by_type(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_HARD))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        matches = repository.affected_constraints(
            "Flight", "sell", ConstraintType.PRECONDITION
        )
        assert [m.name for m in matches] == ["pre"]

    def test_lookup_without_type_returns_all(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_HARD))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        assert len(repository.affected_constraints("Flight", "sell")) == 2

    def test_no_match(self, repository):
        repository.register(make_registration("c1"))
        assert repository.affected_constraints("Flight", "unknown") == []

    def test_invariants_query(self, repository):
        repository.register(make_registration("inv", ctype=ConstraintType.INVARIANT_SOFT))
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        assert [m.name for m in repository.invariants()] == ["inv"]


class TestRuntimeManagement:
    def test_disable_hides_constraint(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        assert repository.affected_constraints("Flight", "sell") == []

    def test_enable_restores(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        repository.enable("c1")
        assert len(repository.affected_constraints("Flight", "sell")) == 1

    def test_disabled_not_in_invariants(self, repository):
        repository.register(make_registration("c1"))
        repository.disable("c1")
        assert repository.invariants() == []

    def test_add_at_runtime_visible(self, repository):
        # Queries must see registrations made after earlier queries — the
        # whole point of explicit runtime constraints.
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.register(make_registration("c2"))
        assert len(repository.affected_constraints("Flight", "sell")) == 2


class TestCachingBehaviour:
    """Charge sequences of the lookup policies (what a lookup costs)."""

    def cached(self, charges):
        repository = ConstraintRepository(charge=charges.append, lookup="cached")
        repository.register(make_registration("c1"))
        return repository

    def test_cache_populated_on_first_query(self):
        charges = []
        repository = self.cached(charges)
        repository.affected_constraints("Flight", "sell", ConstraintType.PRECONDITION)
        repository.affected_constraints("Flight", "sell", ConstraintType.INVARIANT_HARD)
        repository.affected_constraints("Flight", "sell", ConstraintType.PRECONDITION)
        # One search per (class, method, type) key, then cached lookups.
        assert charges == ["repository_search", "repository_search", "repository_lookup_cached"]

    def test_cached_result_is_copy(self):
        repository = self.cached([])
        first = repository.affected_constraints("Flight", "sell")
        first.append("junk")  # type: ignore[arg-type]
        second = repository.affected_constraints("Flight", "sell")
        assert len(second) == 1

    def test_cache_invalidated_on_register(self):
        charges = []
        repository = self.cached(charges)
        repository.affected_constraints("Flight", "sell")
        repository.register(make_registration("c2"))
        assert len(repository.affected_constraints("Flight", "sell")) == 2
        assert charges == ["repository_search", "repository_search"]

    def test_cache_invalidated_on_disable(self):
        charges = []
        repository = self.cached(charges)
        repository.affected_constraints("Flight", "sell")
        repository.disable("c1")
        assert repository.affected_constraints("Flight", "sell") == []
        assert charges == ["repository_search", "repository_search"]

    def test_charge_function_called(self):
        charges = []
        repository = self.cached(charges)
        repository.affected_constraints("Flight", "sell")
        repository.affected_constraints("Flight", "sell")
        assert charges == ["repository_search", "repository_lookup_cached"]

    def test_plain_repository_always_searches(self):
        charges = []
        repository = ConstraintRepository(charge=charges.append, lookup="linear")
        repository.register(make_registration("c1"))
        repository.affected_constraints("Flight", "sell")
        repository.method_dispatch("Flight", "sell").registrations(ConstraintType.PRECONDITION)
        repository.affected_constraints("Flight", "sell")
        assert charges == ["repository_search"] * 3

    def test_direct_enabled_toggle_not_served_stale(self):
        # Regression: flipping ``constraint.enabled`` on the Constraint
        # object directly bypasses enable()/disable() and therefore the
        # invalidation hook.  An earlier (pre-toggle) query must not
        # resurrect the disabled constraint.
        repository = ConstraintRepository(lookup="cached")
        registration = make_registration("c1")
        repository.register(registration)
        assert len(repository.affected_constraints("Flight", "sell")) == 1
        registration.constraint.enabled = False
        assert repository.affected_constraints("Flight", "sell") == []
        registration.constraint.enabled = True
        assert len(repository.affected_constraints("Flight", "sell")) == 1

    def test_direct_enabled_toggle_with_type_key(self):
        repository = ConstraintRepository(lookup="cached")
        registration = make_registration("c1", ctype=ConstraintType.PRECONDITION)
        repository.register(registration)
        query = lambda: repository.affected_constraints(
            "Flight", "sell", ConstraintType.PRECONDITION
        )
        assert len(query()) == 1
        registration.constraint.enabled = False
        assert query() == []


def notification_charges(lookup, notifications=2, method="sell"):
    """Charges of CCMgr-style notifications: one dispatch lookup, then
    the five typed accesses."""
    charges = []
    repository = ConstraintRepository(charge=charges.append, lookup=lookup)
    repository.register(make_registration("c1"))
    for _ in range(notifications):
        dispatch = repository.method_dispatch("Flight", method)
        for constraint_type in ConstraintType:
            dispatch.registrations(constraint_type)
    return charges


class TestLookupPolicies:
    def test_unknown_lookup_rejected(self):
        with pytest.raises(ValueError):
            ConstraintRepository(lookup="hashed")

    def test_default_lookup_is_cached(self):
        assert ConstraintRepository().lookup == "cached"

    def test_method_dispatch_never_none(self, repository):
        repository.register(make_registration("c1"))
        for method in ("sell", "unknown"):
            assert isinstance(repository.method_dispatch("Flight", method), MethodDispatch)

    def test_linear_charges_every_typed_access(self):
        assert notification_charges("linear") == ["repository_search"] * 10

    def test_cached_charges_search_once_per_type(self):
        assert notification_charges("cached") == (
            ["repository_search"] * 5 + ["repository_lookup_cached"] * 5
        )

    def test_cached_charges_unconstrained_method_like_any_key(self):
        assert notification_charges("cached", method="unknown") == (
            ["repository_search"] * 5 + ["repository_lookup_cached"] * 5
        )

    def test_compiled_charges_one_dispatch_per_lookup(self):
        assert notification_charges("compiled") == ["repository_dispatch"] * 2

    @pytest.mark.parametrize(
        "lookup, expected",
        [
            ("linear", ["repository_search"] * 3),
            ("cached", ["repository_search"] * 3),
            ("compiled", ["repository_dispatch"]),
        ],
    )
    def test_shed_probe_stops_at_first_tradeable_type(self, lookup, expected):
        charges = []
        repository = ConstraintRepository(charge=charges.append, lookup=lookup)
        repository.register(make_registration("pre", ctype=ConstraintType.PRECONDITION))
        tradeable = make_registration("hard", ctype=ConstraintType.INVARIANT_HARD)
        tradeable.constraint.priority = ConstraintPriority.RELAXABLE
        repository.register(tradeable)
        # PRECONDITION (critical), POSTCONDITION (none), INVARIANT_HARD
        # (tradeable): the probe stops there.
        assert repository.method_dispatch("Flight", "sell").any_tradeable()
        assert charges == expected


@given(
    names=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=20, unique=True
    ),
    queries=st.lists(st.sampled_from(["m1", "m2", "m3"]), max_size=10),
)
def test_caching_repository_equivalent_to_plain(names, queries):
    """Property: the table-backed policies return exactly what the linear
    search does for any registration set and query sequence."""
    plain = ConstraintRepository(lookup="linear")
    caching = ConstraintRepository(lookup="cached")
    compiled = ConstraintRepository(lookup="compiled")
    for index, name in enumerate(names):
        method = f"m{(index % 3) + 1}"
        plain.register(make_registration(name, method=method))
        caching.register(make_registration(name, method=method))
        compiled.register(make_registration(name, method=method))
    for method in queries:
        plain_names = [m.name for m in plain.affected_constraints("Flight", method)]
        caching_names = [m.name for m in caching.affected_constraints("Flight", method)]
        compiled_names = [m.name for m in compiled.affected_constraints("Flight", method)]
        assert plain_names == caching_names == compiled_names
