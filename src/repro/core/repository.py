"""Constraint repository (§2.1.4, §4.2.2).

All constraints of an application are registered here and can be queried by
class, method signature, and constraint type.  Constraints can be added,
removed, enabled and disabled during runtime — the flexibility that
motivates explicit runtime constraints in the first place.

There is one repository and one way to find a method's registrations: a
dispatch table, rebuilt lazily after every registration change (the same
§6.3 ``on_change`` trigger the adaptive instrumentation uses), that groups
each ``(class, method)``'s registrations by constraint type.  The
consistency manager reads it through :meth:`ConstraintRepository.method_dispatch`.

The ``lookup`` policy only decides what a lookup *costs* in simulated time,
reproducing (and extending) the Chapter-2 finding that repository search
dominates interception cost:

* ``"linear"`` — the "constraint repository with search per invocation":
  every typed access is charged as a ``repository_search``, and the Ch. 2
  query API :meth:`~ConstraintRepository.affected_constraints` really scans
  the registrations.
* ``"cached"`` (default) — the optimized repository hashing query results
  by (class, method, constraint type) (§2.2.1): the first typed access to a
  key since the last registration change is a ``repository_search``, every
  later one a ``repository_lookup_cached`` (0.25–0.52 µs in the paper,
  size-independent).
* ``"compiled"`` — the throughput-engine accounting: one
  ``repository_dispatch`` per method lookup covers every constraint type.

``enabled`` and tradeability are evaluated at access time, so even direct
toggles on the :class:`Constraint` object are honoured without a rebuild.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..obs import ensure_obs
from .model import Constraint, ConstraintType
from .metadata import AffectedMethod, ConstraintRegistration

ChargeFn = Callable[[str], None]

#: The accepted ``lookup`` policies.
LOOKUPS = ("linear", "cached", "compiled")


class MethodDispatch:
    """Dispatch entry for one ``(class_name, method_name)``.

    Registrations are grouped by :class:`ConstraintType` at table-build
    time; ``enabled`` is evaluated at access time so a constraint toggled
    directly on the :class:`Constraint` object (bypassing the repository's
    ``enable``/``disable``) is still honoured without a rebuild.

    Each typed access is charged by the repository's lookup policy:
    ``charge`` is ``None`` when nothing is charged per type, and
    ``searched`` holds the types already searched when lookups are cached.
    """

    __slots__ = ("_by_type", "_all", "_charge", "_searched")

    def __init__(
        self,
        by_type: dict[ConstraintType, tuple[ConstraintRegistration, ...]],
        all_registrations: tuple[ConstraintRegistration, ...],
        charge: ChargeFn | None = None,
        searched: set[ConstraintType | None] | None = None,
    ) -> None:
        self._by_type = by_type
        self._all = all_registrations
        self._charge = charge
        self._searched = searched

    def registrations(
        self, constraint_type: ConstraintType | None = None
    ) -> list[ConstraintRegistration]:
        """The enabled registrations of one type (all types for ``None``),
        as a fresh list."""
        charge = self._charge
        if charge is not None:
            searched = self._searched
            if searched is None:
                charge("repository_search")
            elif constraint_type in searched:
                charge("repository_lookup_cached")
            else:
                searched.add(constraint_type)
                charge("repository_search")
        entries = self._all if constraint_type is None else self._by_type.get(
            constraint_type, ()
        )
        # Registrations are nearly always enabled: copy the grouped tuple
        # and filter only when one is not.
        for registration in entries:
            if not registration.constraint.enabled:
                return [entry for entry in entries if entry.constraint.enabled]
        return list(entries)

    def any_tradeable(self) -> bool:
        """Whether any enabled affected constraint is currently tradeable.

        Tradeability is adaptation-mutable (the actuator flips priorities
        at runtime), so it is evaluated live rather than precomputed.  The
        types are queried in :class:`ConstraintType` order and the probe
        stops at the first type holding a tradeable registration, so a
        per-type lookup policy charges exactly the accesses made.
        """
        return any(
            registration.constraint.is_tradeable()
            for constraint_type in ConstraintType
            for registration in self.registrations(constraint_type)
        )

    def __len__(self) -> int:
        return len(self._all)


class ConstraintRepository:
    """Repository of constraint registrations behind one dispatch table.

    ``lookup`` is one of :data:`LOOKUPS` and decides only what a lookup is
    charged (see the module docstring); ``charge`` receives the cost
    category of every charged lookup.
    """

    def __init__(
        self,
        charge: ChargeFn | None = None,
        lookup: str = "cached",
        obs: Any = None,
    ) -> None:
        if lookup not in LOOKUPS:
            raise ValueError(f"unknown repository lookup {lookup!r}")
        self.lookup = lookup
        self._registrations: list[ConstraintRegistration] = []
        self._by_name: dict[str, ConstraintRegistration] = {}
        self._charge = charge
        self._listeners: list[Callable[[], None]] = []
        # compiled: one charge per method lookup; otherwise per typed access.
        self._dispatch_charge = charge if lookup == "compiled" else None
        self._entry_charge = None if lookup == "compiled" else charge
        self._table: dict[tuple[str, str], MethodDispatch] | None = None
        self.rebuilds = 0
        self.obs = ensure_obs(obs)
        if lookup == "compiled":
            self._m_rebuilds = self.obs.registry.counter(
                "repository_dispatch_rebuilds_total",
                "compiled constraint dispatch-table rebuilds",
            )

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the registration set or an
        enable/disable state changes.

        Adaptive instrumentation (§6.3) uses this to re-instrument
        affected methods instead of searching the repository per call.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # runtime management
    # ------------------------------------------------------------------
    def register(self, registration: ConstraintRegistration) -> None:
        """Register a constraint; names must be application-unique (§5.3)."""
        name = registration.name
        if name in self._by_name:
            raise KeyError(f"constraint {name!r} already registered")
        self._registrations.append(registration)
        self._by_name[name] = registration
        self._invalidate()

    def register_constraint(
        self,
        constraint: Constraint,
        affected_methods: Iterable[AffectedMethod] = (),
    ) -> ConstraintRegistration:
        registration = ConstraintRegistration(constraint, tuple(affected_methods))
        self.register(registration)
        return registration

    def remove(self, name: str) -> ConstraintRegistration:
        if name not in self._by_name:
            raise KeyError(f"constraint {name!r} not registered")
        registration = self._by_name.pop(name)
        self._registrations.remove(registration)
        self._invalidate()
        return registration

    def enable(self, name: str) -> None:
        self.by_name(name).constraint.enabled = True
        self._invalidate()

    def disable(self, name: str) -> None:
        """Disable a constraint at runtime (e.g. to relax consistency,
        §3.3)."""
        self.by_name(name).constraint.enabled = False
        self._invalidate()

    def by_name(self, name: str) -> ConstraintRegistration:
        if name not in self._by_name:
            raise KeyError(f"constraint {name!r} not registered")
        return self._by_name[name]

    def knows(self, name: str) -> bool:
        return name in self._by_name

    def all_registrations(self) -> list[ConstraintRegistration]:
        return list(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def method_dispatch(self, class_name: str, method_name: str) -> MethodDispatch:
        """The dispatch entry of one method — how the consistency manager
        finds the registrations an invocation affects."""
        if self._dispatch_charge is not None:
            self._dispatch_charge("repository_dispatch")
        table = self._table
        if table is None:
            table = self._rebuild()
        entry = table.get((class_name, method_name))
        if entry is None:
            # Unconstrained method: an empty entry, kept so cached lookups
            # of it are charged like those of any other key.
            entry = table[(class_name, method_name)] = self._entry({}, ())
        return entry

    def affected_constraints(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None = None,
    ) -> list[ConstraintRegistration]:
        """Constraints triggered by an invocation of the given method.

        The Ch. 2 query API: the ``linear`` policy really scans the
        registrations (the "plain" repository of the R4 slice); the other
        policies answer from the dispatch table.
        """
        if self.lookup == "linear":
            if self._charge is not None:
                self._charge("repository_search")
            return self._search(class_name, method_name, constraint_type)
        return self.method_dispatch(class_name, method_name).registrations(
            constraint_type
        )

    def invariants(self) -> list[ConstraintRegistration]:
        """All enabled invariant constraints (reconciliation uses these)."""
        return [
            registration
            for registration in self._registrations
            if registration.constraint.enabled
            and registration.constraint.constraint_type.is_invariant
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _search(
        self,
        class_name: str,
        method_name: str,
        constraint_type: ConstraintType | None,
    ) -> list[ConstraintRegistration]:
        matches = []
        for registration in self._registrations:
            constraint = registration.constraint
            if not constraint.enabled:
                continue
            if constraint_type is not None and constraint.constraint_type is not constraint_type:
                continue
            for affected in registration.affected_methods:
                if affected.key == (class_name, method_name):
                    matches.append(registration)
                    break
        return matches

    def _invalidate(self) -> None:
        """Drop the dispatch table; notify change listeners."""
        self._table = None
        for listener in self._listeners:
            listener()

    def _entry(
        self,
        by_type: dict[ConstraintType, tuple[ConstraintRegistration, ...]],
        all_registrations: tuple[ConstraintRegistration, ...],
    ) -> MethodDispatch:
        return MethodDispatch(
            by_type,
            all_registrations,
            self._entry_charge,
            set() if self.lookup == "cached" else None,
        )

    def _rebuild(self) -> dict[tuple[str, str], MethodDispatch]:
        grouped: dict[
            tuple[str, str], dict[ConstraintType, list[ConstraintRegistration]]
        ] = {}
        ordered: dict[tuple[str, str], list[ConstraintRegistration]] = {}
        for registration in self._registrations:
            constraint_type = registration.constraint.constraint_type
            seen: set[tuple[str, str]] = set()
            for affected in registration.affected_methods:
                key = affected.key
                if key in seen:
                    # A registration listing the same method twice still
                    # triggers once, matching the linear search.
                    continue
                seen.add(key)
                grouped.setdefault(key, {}).setdefault(constraint_type, []).append(
                    registration
                )
                ordered.setdefault(key, []).append(registration)
        table = {
            key: self._entry(
                {
                    constraint_type: tuple(registrations)
                    for constraint_type, registrations in by_type.items()
                },
                tuple(ordered[key]),
            )
            for key, by_type in grouped.items()
        }
        self._table = table
        self.rebuilds += 1
        if self.lookup == "compiled" and self.obs.enabled:
            self._m_rebuilds.inc()
            self.obs.emit(
                "repository_dispatch",
                methods=len(table),
                registrations=len(self._registrations),
            )
        return table
