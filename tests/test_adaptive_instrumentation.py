"""Tests for the §6.3 adaptive-instrumentation approach."""

import pytest

from repro.validation import (
    APPROACHES,
    CheckCounter,
    ViolationError,
    build_adaptive_instrumentation,
)


class TestAdaptiveInstrumentation:
    def test_registered_in_catalogue(self):
        assert "adaptive-instrumentation" in APPROACHES

    def test_scenario_completes(self):
        runner = build_adaptive_instrumentation()
        result = runner()
        assert len(result["employees"]) == 4

    def test_check_counts_match_reference(self):
        counter = CheckCounter()
        build_adaptive_instrumentation(counter)()
        reference = CheckCounter()
        APPROACHES["aspectj-interceptor"].build(reference)()
        assert (counter.invariants, counter.preconditions, counter.postconditions) == (
            reference.invariants,
            reference.preconditions,
            reference.postconditions,
        )

    def test_violations_detected(self):
        runner = build_adaptive_instrumentation()
        result = runner()
        with pytest.raises(ViolationError):
            result["projects"][0].charge(10**9)

    def test_reinstrumentation_on_disable(self):
        runner = build_adaptive_instrumentation()
        result = runner()
        repository = runner.repository
        table = runner.dispatch_table
        rebuilds_before = table.rebuild_count
        # Disabling the budget constraints at runtime must re-instrument…
        repository.disable("PreChargeWithinBudget")
        repository.disable("ProjWithinBudget")
        assert table.rebuild_count > rebuilds_before
        # …so the previously violating call now goes through unchecked.
        project = result["projects"][0]
        project.budget = 10**7
        project.charge(project.budget - project.cost)  # exactly at budget
        repository.enable("PreChargeWithinBudget")
        repository.enable("ProjWithinBudget")
        with pytest.raises(ViolationError):
            project.charge(1.0)

    def test_no_search_in_steady_state(self):
        """Zero repository queries per invocation once instrumented."""
        queries = []
        runner = build_adaptive_instrumentation()
        result = runner()
        repository = runner.repository
        for name in ("affected_constraints", "method_dispatch"):
            query = getattr(repository, name)
            setattr(
                repository,
                name,
                lambda *args, query=query: queries.append(args) or query(*args),
            )
        result["employees"][0].reset_day()
        assert queries == []

    def test_faster_than_repository_dispatch(self):
        """The ablation claim: removing the per-call search pays off."""
        import time

        adaptive = build_adaptive_instrumentation()
        repo_based = APPROACHES["aspectj-repository-optimized"].build(None)
        for runner in (adaptive, repo_based):
            runner()  # warm-up

        def measure(runner, runs=8):
            started = time.perf_counter()
            for _ in range(runs):
                runner()
            return time.perf_counter() - started

        adaptive_time = measure(adaptive)
        repo_time = measure(repo_based)
        # generous margin for timer noise; the effect is ~1.5-2x
        assert adaptive_time < repo_time * 1.2
