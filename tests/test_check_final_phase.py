"""The invariant registry's final phase.

After a run drains, the executor heals the network, reconciles with the
scenario's handler and checks the final-phase invariants once.  These
tests break a cluster by hand and check that each final invariant
notices, and that the checker's ``run_schedule`` now ends every clean
run with that phase — also when the scenario scripts no reconciliation
of its own.
"""

import json

from repro.check import (
    ClusterHealthyAgain,
    NoAcceptedThreatLost,
    ReplicasConverge,
    RunProbe,
    default_registry,
    healthy_scenario,
    run_schedule,
    single_partition_scenario,
    skipped_threat_reevaluation,
)
from repro.core import AcceptAllHandler
from repro.core.reconciliation import ReconciliationReport
from repro.obs import Observability

FINAL_NAMES = ["replicas_converge", "no_accepted_threat_lost", "cluster_healthy_again"]


def _built(scenario=None):
    scenario = scenario or healthy_scenario()
    return scenario.build(Observability())


def _verdicts(cluster, refs):
    """The final phase over a clean closing reconciliation report."""
    probe = RunProbe(cluster=cluster, refs=refs, just_reconciled=ReconciliationReport())
    return {verdict.name: verdict for verdict in default_registry().conclude(probe)}


class TestRegistryPhases:
    def test_default_registry_routes_final_invariants(self):
        registry = default_registry()
        assert [invariant.name for invariant in registry.final] == FINAL_NAMES
        assert all(invariant.phase == "step" for invariant in registry.invariants)
        assert registry.names()[-3:] == FINAL_NAMES

    def test_untouched_cluster_passes_every_final_invariant(self):
        cluster, refs = _built()
        verdicts = _verdicts(cluster, refs)
        assert list(verdicts) == FINAL_NAMES
        assert all(verdict.ok for verdict in verdicts.values())
        assert verdicts["no_accepted_threat_lost"].detail == (
            "recorded=0 reevaluated=0 accounted=0 remaining=0"
        )


class TestHandBrokenCluster:
    def test_replica_changed_in_one_container(self):
        cluster, refs = _built()
        entity = cluster.nodes["n2"].container.resolve(refs[0])
        entity.apply_state({**entity.state(), "sold": 99})
        verdicts = _verdicts(cluster, refs)
        assert not verdicts["replicas_converge"].ok
        assert str(refs[0]) in verdicts["replicas_converge"].detail
        assert verdicts["cluster_healthy_again"].ok

    def test_missing_replica_counts_as_divergence(self):
        cluster, refs = _built()
        invariant = ReplicasConverge()
        cluster.nodes["n3"].container.remove(refs[0])
        ok, detail = invariant.check(RunProbe(cluster=cluster, refs=refs))
        assert not ok
        assert "missing" in detail

    def test_leftover_stored_threat(self):
        cluster, refs = _built(single_partition_scenario())
        cluster.partition({"n1"}, {"n2", "n3"})
        cluster.invoke("n2", refs[0], "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
        assert sum(store.count_identities() for store in cluster.threat_stores.values())
        cluster.heal()
        # No reconciliation ran, yet the closing report claims a clean run.
        verdicts = _verdicts(cluster, refs)
        assert not verdicts["no_accepted_threat_lost"].ok
        assert "remaining=0" not in verdicts["no_accepted_threat_lost"].detail

    def test_threats_recorded_but_never_reevaluated(self):
        cluster, refs = _built()
        ok, detail = NoAcceptedThreatLost().check(
            RunProbe(
                cluster=cluster,
                refs=refs,
                just_reconciled=ReconciliationReport(),
                threats_recorded=2,
            )
        )
        assert not ok
        assert detail.startswith("recorded=2 reevaluated=0")

    def test_unhealed_link(self):
        cluster, refs = _built()
        # n1-n2 alone leaves a path through n3: still one partition.
        cluster.network.fail_link("n1", "n2")
        assert _verdicts(cluster, refs)["cluster_healthy_again"].ok
        cluster.network.fail_link("n1", "n3")
        verdicts = _verdicts(cluster, refs)
        assert not verdicts["cluster_healthy_again"].ok
        assert verdicts["replicas_converge"].ok

    def test_postponed_work_reports_counts_instead_of_modes(self):
        cluster, refs = _built()
        ok, detail = ClusterHealthyAgain().check(
            RunProbe(
                cluster=cluster,
                refs=refs,
                just_reconciled=ReconciliationReport(postponed=1),
            )
        )
        assert ok
        assert detail == "postponed=1 deferred=0"


def _evals(result):
    series = result.snapshot["metrics"]["check_invariant_evals_total"]["series"]
    return series[""]


class TestRunScheduleFinalPhase:
    def test_runs_without_a_terminal_reconcile_op(self):
        scenario = single_partition_scenario()
        assert scenario.ops[-1].kind == "reconcile"
        result = run_schedule(scenario.without_op(len(scenario.ops) - 1))
        assert result.ok, result.violations
        # Six step invariants per step, then the three final ones once.
        assert _evals(result) == result.steps * 6 + 3
        types = [json.loads(line)["type"] for line in result.trace_jsonl.splitlines()]
        # The closing reconciliation ran after the last scheduled step.
        assert "reconcile_group" in types
        assert types[-1] == "check_schedule"

    def test_skipped_reevaluation_caught_by_a_step(self):
        result = run_schedule(
            single_partition_scenario(), mutation=skipped_threat_reevaluation
        )
        assert [violation.invariant for violation in result.violations] == [
            "threat_accounting"
        ]

    def test_skipped_reevaluation_caught_by_the_final_phase(self):
        scenario = single_partition_scenario()
        result = run_schedule(
            scenario.without_op(len(scenario.ops) - 1),
            mutation=skipped_threat_reevaluation,
        )
        assert not result.ok
        violation = result.violations[0]
        assert violation.invariant == "no_accepted_threat_lost"
        assert violation.step == result.steps
        events = [json.loads(line) for line in result.trace_jsonl.splitlines()]
        assert events[-1]["data"]["violations"] == ["no_accepted_threat_lost"]
