"""Charge-order pin for the three repository lookup policies.

A repository charge advances the simulated clock, so the *order* of the
charged cost categories matters, not only their totals.  One scripted
flight-booking run per lookup policy (``linear``, ``cached``,
``compiled``) is compared, charge by charge, with a recorded fixture,
together with the final simulated clock (as ``float.hex``).

The script covers pre/post/hard/soft/async constraints, a constraint
disabled directly on the :class:`Constraint` object, a ``register`` in
the middle of the run (which invalidates the dispatch table), load
shedding where the first tradeable registration is not a precondition,
and a partition (LCC validations and async-direct threat storage)
followed by heal and reconciliation.

Re-record the fixture after an intended cost-model change with::

    PYTHONPATH=src python tests/test_repository_charges.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.cluster import ClusterConfig, DedisysCluster
from repro.core import (
    AcceptAllHandler,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    OperationShedded,
    PredicateConstraint,
    SatisfactionDegree,
)
from repro.core.metadata import AffectedMethod, ConstraintRegistration

FIXTURE = Path(__file__).parent / "fixtures" / "repository_charges.json"
LOOKUPS = ("linear", "cached", "compiled")
NODES = ("node-1", "node-2", "node-3")


def _registration(name, ctype, methods, tradeable=False, scope=ConstraintScope.INTRA_OBJECT):
    constraint = PredicateConstraint(
        name,
        lambda ctx: True,
        constraint_type=ctype,
        priority=ConstraintPriority.RELAXABLE if tradeable else ConstraintPriority.CRITICAL,
        scope=scope,
        min_satisfaction_degree=SatisfactionDegree.POSSIBLY_SATISFIED,
    )
    return ConstraintRegistration(
        constraint, tuple(AffectedMethod("Flight", method) for method in methods)
    )


def run_script(lookup):
    """Run the scripted cluster; return (run-length charges, clock hex)."""
    cluster = DedisysCluster(ClusterConfig(node_ids=NODES, repository=lookup))
    charges = []
    ledger_charge = cluster.ledger.charge

    def record(category, seconds):
        charges.append(category)
        return ledger_charge(category, seconds)

    cluster.ledger.charge = record
    cluster.deploy(Flight)
    cluster.register_constraints(
        [
            ticket_constraint_registration(),
            _registration("SellArgs", ConstraintType.PRECONDITION, ["sell_tickets"]),
            _registration("SellResult", ConstraintType.POSTCONDITION, ["sell_tickets"]),
            _registration(
                "SeatsKept", ConstraintType.INVARIANT_SOFT, ["sell_tickets"], tradeable=True
            ),
            _registration(
                "CancelAudit",
                ConstraintType.INVARIANT_ASYNC,
                ["cancel_tickets"],
                tradeable=True,
                scope=ConstraintScope.INTER_OBJECT,
            ),
        ]
    )
    switched_off = _registration("SwitchedOff", ConstraintType.INVARIANT_HARD, ["sell_tickets"])
    cluster.register_constraint(switched_off)
    # Toggled on the Constraint itself: no repository invalidation.
    switched_off.constraint.enabled = False

    f1 = cluster.create_entity(
        "node-1", "Flight", "f1", {"flight_number": "OS1", "seats": 20, "sold": 0}
    )
    f2 = cluster.create_entity(
        "node-1", "Flight", "f2", {"flight_number": "OS2", "seats": 20, "sold": 0}
    )

    # Healthy mode: single ops, a multi-op transaction (soft invariants
    # deferred to commit) and an unconstrained read.
    cluster.invoke("node-1", f1, "sell_tickets", 2)
    cluster.invoke("node-2", f2, "cancel_tickets", 1)

    def two_sales(proxy):
        proxy.invoke(f1, "sell_tickets", 1)
        proxy.invoke(f2, "sell_tickets", 1)

    cluster.run_in_tx("node-1", two_sales)
    cluster.invoke("node-2", f1, "free_seats")

    # Registered mid-run: invalidates the dispatch table.
    cluster.register_constraint(
        _registration("CancelArgs", ConstraintType.PRECONDITION, ["cancel_tickets"])
    )
    cluster.invoke("node-1", f1, "cancel_tickets", 1)
    cluster.invoke("node-1", f1, "sell_tickets", 1)

    # Load shedding: for sell_tickets the first tradeable registration is
    # the hard TicketConstraint, not a precondition.
    ccmgr = cluster.ccmgrs["node-1"]
    ccmgr.shed_tradeable_writes = True
    with pytest.raises(OperationShedded):
        cluster.invoke("node-1", f1, "sell_tickets", 1)
    cluster.invoke("node-1", f1, "free_seats")
    ccmgr.shed_tradeable_writes = False

    # Degraded mode: LCC validations, negotiated threats, async-direct.
    cluster.partition({"node-1", "node-2"}, {"node-3"})
    accept = AcceptAllHandler()
    cluster.invoke("node-1", f1, "sell_tickets", 1, negotiation_handler=accept)
    cluster.invoke("node-3", f1, "sell_tickets", 2, negotiation_handler=accept)
    cluster.invoke("node-3", f2, "cancel_tickets", 1, negotiation_handler=accept)
    cluster.invoke("node-2", f2, "free_seats")
    cluster.heal()
    cluster.reconcile()
    cluster.invoke("node-2", f1, "sell_tickets", 1)

    return _runs((category, 1) for category in charges), cluster.clock.now.hex()


def _runs(pairs):
    """Run-length encode ``(category, count)`` pairs, merging neighbours."""
    runs = []
    for category, count in pairs:
        if runs and runs[-1][0] == category:
            runs[-1][1] += count
        else:
            runs.append([category, count])
    return runs


def record_fixture():
    """Write the fixture: one ``[category, run length]`` pair per line."""
    blocks = []
    for lookup in LOOKUPS:
        runs, clock = run_script(lookup)
        lines = ",\n".join(f"   {json.dumps(run)}" for run in runs)
        blocks.append(
            f' "{lookup}": {{\n  "clock": "{clock}",\n  "charges": [\n{lines}\n  ]\n }}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("lookup", LOOKUPS)
def test_charge_order_matches_fixture(lookup):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[lookup]
    runs, clock = run_script(lookup)
    assert runs == expected["charges"]
    assert clock == expected["clock"]


def test_policies_differ_only_in_repository_charges():
    """The lookup policy decides what is charged for a lookup, never
    which constraints run or what else is charged."""
    repository_categories = {
        "repository_search",
        "repository_lookup_cached",
        "repository_dispatch",
    }
    others = set()
    for lookup in LOOKUPS:
        runs, _ = run_script(lookup)
        others.add(
            tuple(
                tuple(run)
                for run in _runs(run for run in runs if run[0] not in repository_categories)
            )
        )
    assert len(others) == 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record_fixture()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
