"""Tests for the Chapter-2 validation approaches and workload."""

import pytest

from repro.validation import (
    APPROACHES,
    CONSTRAINT_SPECS,
    CheckCounter,
    INVARIANT_SPECS,
    POSTCONDITION_SPECS,
    PRECONDITION_SPECS,
    PUBLIC_METHODS,
    ViolationError,
    build_repository,
    build_slice_runner,
    checks_by_method,
    compile_specs,
    run_scenario,
)
from repro.validation.workload import Employee, Project

CHECKING_APPROACHES = [name for name in APPROACHES if name != "no-checks"]


class TestWorkloadSpecs:
    def test_exactly_78_constraints(self):
        # §2.3: "78 constraints in total"
        assert len(CONSTRAINT_SPECS) == 78

    def test_mixture_of_kinds(self):
        assert len(INVARIANT_SPECS) == 43
        assert len(PRECONDITION_SPECS) == 20
        assert len(POSTCONDITION_SPECS) == 15

    def test_unique_names(self):
        names = [spec.name for spec in CONSTRAINT_SPECS]
        assert len(set(names)) == len(names)

    def test_invariants_trigger_on_all_public_methods(self):
        for spec in INVARIANT_SPECS:
            assert spec.trigger_methods() == PUBLIC_METHODS[spec.cls]

    def test_pre_post_bound_to_single_method(self):
        for spec in PRECONDITION_SPECS + POSTCONDITION_SPECS:
            assert len(spec.trigger_methods()) == 1

    def test_every_invariant_has_ocl(self):
        for spec in INVARIANT_SPECS:
            assert spec.ocl, spec.name

    def test_every_postcondition_has_pre_expr(self):
        for spec in POSTCONDITION_SPECS:
            assert spec.pre_expr is not None, spec.name

    def test_scenario_runs_clean_on_plain_classes(self):
        result = run_scenario(Employee, Project)
        assert len(result["employees"]) == 4
        assert len(result["projects"]) == 3

    def test_scenario_is_deterministic(self):
        first = run_scenario(Employee, Project)
        second = run_scenario(Employee, Project)
        assert [e.total_hours for e in first["employees"]] == [
            e.total_hours for e in second["employees"]
        ]

    def test_compiled_specs_satisfied_on_scenario_end_state(self):
        result = run_scenario(Employee, Project)
        compiled = {c.name: c for c in compile_specs(INVARIANT_SPECS)}
        for employee in result["employees"]:
            for spec in INVARIANT_SPECS:
                if spec.cls == "Employee":
                    assert compiled[spec.name].check(employee, (), None, None), spec.name
        for project in result["projects"]:
            for spec in INVARIANT_SPECS:
                if spec.cls == "Project":
                    assert compiled[spec.name].check(project, (), None, None), spec.name

    def test_value_identity(self):
        assert Employee("A") == Employee("A")
        assert Employee("A") != Employee("B")
        assert Employee("A") != Project("A")
        assert Project("P") == Project("P")

    def test_checks_by_method_index(self):
        table = checks_by_method(compile_specs())
        log_work = table[("Employee", "log_work")]
        assert len(log_work.invariants) == 25
        assert len(log_work.preconditions) == 5
        assert len(log_work.postconditions) == 3


@pytest.mark.parametrize("name", list(APPROACHES))
class TestEveryApproach:
    def test_scenario_completes(self, name):
        runner = APPROACHES[name].build(None)
        result = runner()
        assert len(result["employees"]) == 4

    def test_business_state_identical_to_plain(self, name):
        plain = run_scenario(Employee, Project)
        checked = APPROACHES[name].build(None)()
        plain_hours = sorted(e.total_hours for e in plain["employees"])
        checked_hours = sorted(e.total_hours for e in checked["employees"])
        assert plain_hours == checked_hours
        plain_costs = sorted(p.cost for p in plain["projects"])
        checked_costs = sorted(p.cost for p in checked["projects"])
        assert plain_costs == checked_costs


@pytest.mark.parametrize("name", CHECKING_APPROACHES)
class TestCheckParity:
    """§2.3.1: all approaches check the same number of constraints."""

    REFERENCE = None

    def test_counts_match_reference(self, name):
        counter = CheckCounter()
        APPROACHES[name].build(counter)()
        counts = (counter.invariants, counter.preconditions, counter.postconditions)
        reference_counter = CheckCounter()
        APPROACHES["aspectj-interceptor"].build(reference_counter)()
        reference = (
            reference_counter.invariants,
            reference_counter.preconditions,
            reference_counter.postconditions,
        )
        assert counts == reference


@pytest.mark.parametrize("name", CHECKING_APPROACHES)
class TestViolationDetection:
    """§2.3.1: every approach must actually detect violations."""

    def test_precondition_violation_detected(self, name):
        runner_factory = APPROACHES[name].build(None)
        # rebuild instrumented classes via the factories used in a run
        result = runner_factory()
        employee = result["employees"][0]
        with pytest.raises((ViolationError, AssertionError)):
            employee.log_work(result["projects"][0], -5.0)

    def test_invariant_violation_detected(self, name):
        runner_factory = APPROACHES[name].build(None)
        result = runner_factory()
        project = result["projects"][0]
        # charging beyond the budget violates PreChargeWithinBudget /
        # ProjWithinBudget in every approach
        with pytest.raises((ViolationError, AssertionError)):
            project.charge(10**9)


class TestRepositoryBacked:
    def test_build_repository_registers_all(self):
        repository = build_repository("cached")
        assert len(repository) == 78

    def test_repository_lookup_by_trigger(self):
        repository = build_repository("linear")
        matches = repository.affected_constraints("Employee", "log_work")
        names = {m.name for m in matches}
        assert "PreLogWorkPositive" in names
        assert "EmpDailyWorkload" in names

    def test_spec_constraint_prestate_snapshot(self):
        from repro.core.model import ConstraintValidationContext
        from repro.validation.runtime import SpecConstraint, compile_specs

        compiled = {c.name: c for c in compile_specs()}
        constraint = SpecConstraint(compiled["PostChargeCost"])
        project = Project("P", budget=1000.0)
        ctx = ConstraintValidationContext(
            called_object=project, method_arguments=(100.0,)
        )
        constraint.before_method_invocation(ctx)
        project.charge(100.0)
        ctx.method_result = project.cost
        assert constraint.validate(ctx)


class TestSliceRunners:
    @pytest.mark.parametrize("mechanism", ["aspectj", "jbossaop", "proxy"])
    @pytest.mark.parametrize("stage", ["interception", "extraction", "search", "full"])
    def test_slice_runner_completes(self, mechanism, stage):
        runner = build_slice_runner(mechanism, stage)
        result = runner()
        assert len(result["projects"]) == 3

    def test_full_stage_detects_violations(self):
        runner = build_slice_runner("aspectj", "full")
        result = runner()
        with pytest.raises(ViolationError):
            result["projects"][0].charge(10**9)

    def test_search_stage_does_not_check(self):
        runner = build_slice_runner("aspectj", "search")
        result = runner()
        # search-only: the violating call goes through unchecked
        result["projects"][0].charge(10**9)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            build_slice_runner("bogus", "full")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            build_slice_runner("aspectj", "bogus")


class TestMaintainability:
    """§2.2's maintainability arguments, made quantitative."""

    def test_handcrafted_scatters_constraints(self):
        from repro.validation.maintainability import profiles

        table = profiles()
        assert table["handcrafted"].definition_sites_per_constraint > 1
        assert table["repository"].definition_sites_per_constraint == 1

    def test_only_repository_family_is_runtime_manageable(self):
        from repro.validation.maintainability import profiles

        table = profiles()
        manageable = {name for name, p in table.items() if p.runtime_manageable}
        assert manageable == {"repository", "adaptive-instrumentation"}

    def test_generated_approaches_need_regeneration(self):
        from repro.validation.maintainability import profiles

        table = profiles()
        for name in ("inplace", "jml", "dresden-ocl", "aspectj-interceptor"):
            assert table[name].regeneration_needed_on_change, name
        assert not table["repository"].regeneration_needed_on_change

    def test_change_impact(self):
        from repro.validation.maintainability import change_impact

        assert change_impact("repository") == 1
        assert change_impact("handcrafted") > 1
        assert change_impact("handcrafted", 3) >= change_impact("handcrafted", 1)

    def test_change_impact_unknown_approach(self):
        import pytest as _pytest
        from repro.validation.maintainability import change_impact

        with _pytest.raises(KeyError):
            change_impact("bogus")

    def test_tangling_classification(self):
        from repro.validation.maintainability import profiles

        table = profiles()
        assert table["handcrafted"].tangled_with_business_code
        assert table["inplace"].tangled_with_business_code
        assert not table["repository"].tangled_with_business_code
