"""Constraint validation approaches (Chapter 2).

Python analogues of the Java mechanisms the dissertation compares.  Each
approach builds instrumented variants of the workload classes and returns a
runnable scenario; all approaches check exactly the same constraints in the
same order (invariants before the call, preconditions, the call,
postconditions, invariants after the call; invariants also after public
construction — §2.3.1 comparison conditions).

| paper mechanism            | analogue here                                  |
|----------------------------|------------------------------------------------|
| No checks                  | plain classes                                  |
| Handcrafted                | hand-written subclasses with inline ``if``s    |
| iContract (in-place)       | generated source with checks injected in-place |
| AspectJ-Interceptor        | method wrappers with statically bound checks   |
| AspectJ-Repository(+opt)   | wrappers + costly extraction + repository      |
| JBossAOP-Repository(+opt)  | generic dispatch via explicit invocation object|
| Java-Proxy-Repository(+opt)| dynamic proxy with reflective dispatch         |
| JML (compiler)             | generated checks routed through an assertion   |
|                            | framework with per-check bookkeeping           |
| Dresden OCL toolkit        | wrapper-based generation + interpreted OCL     |
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.model import ConstraintType, ConstraintValidationContext
from ..core.repository import ConstraintRepository
from .ocl import OclExpression
from .runtime import (
    CheckCounter,
    CompiledSpec,
    MethodChecks,
    ViolationError,
    build_repository,
    checks_by_method,
    compile_specs,
)
from .workload import (
    CONSTRAINT_SPECS,
    PUBLIC_METHODS,
    Employee,
    Project,
    run_scenario,
)

ScenarioRunner = Callable[[], dict[str, Any]]
_BASES: dict[str, type] = {"Employee": Employee, "Project": Project}
_EMPTY = MethodChecks((), (), ())


@dataclass(frozen=True)
class Approach:
    """One entry of the Chapter-2 comparison."""

    name: str
    label: str
    category: str
    build: Callable[[CheckCounter | None], ScenarioRunner]
    description: str = ""


# ----------------------------------------------------------------------
# 1. no checks
# ----------------------------------------------------------------------
def build_no_checks(counter: CheckCounter | None = None) -> ScenarioRunner:
    return lambda: run_scenario(Employee, Project)


# ----------------------------------------------------------------------
# 2. handcrafted constraints (§2.1.1)
# ----------------------------------------------------------------------
def build_handcrafted(counter: CheckCounter | None = None) -> ScenarioRunner:
    """Hand-written inline checks tangled with the business logic.

    This is the fastest checking approach and the baseline for all
    overhead ratios (§2.3.2).  The counter, when present, tallies per-kind
    totals so tests can verify check parity with the other approaches.
    """

    class HandcraftedEmployee(Employee):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self._inv()

        def _inv(self) -> None:
            if counter is not None:
                counter.invariants += 25
            if not (self.hours_today >= 0):
                raise ViolationError("EmpHoursNonNegative", self)
            if not (self.hours_today <= self.max_daily_hours):
                raise ViolationError("EmpDailyWorkload", self)
            if not (self.total_hours >= self.hours_today):
                raise ViolationError("EmpTotalAtLeastToday", self)
            if not (self.salary > 0):
                raise ViolationError("EmpSalaryPositive", self)
            if not (self.salary <= 50000):
                raise ViolationError("EmpSalaryCap", self)
            if not (len(self.projects) <= 5):
                raise ViolationError("EmpProjectLimit", self)
            if self.name == "":
                raise ViolationError("EmpNameNotEmpty", self)
            if not (self.max_daily_hours > 0):
                raise ViolationError("EmpMaxHoursPositive", self)
            if not (self.max_daily_hours <= 16):
                raise ViolationError("EmpMaxHoursHumane", self)
            if not (self.vacation_days >= 0):
                raise ViolationError("EmpVacationNonNegative", self)
            if not (self.vacation_days <= 60):
                raise ViolationError("EmpVacationCap", self)
            if not (self.skill_level >= 1):
                raise ViolationError("EmpSkillFloor", self)
            if not (self.skill_level <= 10):
                raise ViolationError("EmpSkillCeiling", self)
            if not (self.total_hours >= 0):
                raise ViolationError("EmpTotalNonNegative", self)
            if not (self.seniority >= 0):
                raise ViolationError("EmpSeniorityNonNegative", self)
            if not (self.seniority <= 50):
                raise ViolationError("EmpSeniorityCap", self)
            if not (self.bonus >= 0):
                raise ViolationError("EmpBonusNonNegative", self)
            if not (self.bonus <= self.salary):
                raise ViolationError("EmpBonusBelowSalary", self)
            if not (self.overtime >= 0):
                raise ViolationError("EmpOvertimeNonNegative", self)
            if not (self.overtime <= 400):
                raise ViolationError("EmpOvertimeCap", self)
            if self.department == "":
                raise ViolationError("EmpDepartmentSet", self)
            if not (self.salary + self.bonus <= 60000):
                raise ViolationError("EmpCompensationCap", self)
            if len({p.name for p in self.projects}) != len(self.projects):
                raise ViolationError("EmpProjectsDistinct", self)
            if not all(self in p.members for p in self.projects):
                raise ViolationError("EmpMembershipMutual", self)
            if not (self.hours_today <= 24):
                raise ViolationError("EmpDayWithin24", self)

        def log_work(self, project: Any, hours: float) -> float:
            self._inv()
            if counter is not None:
                counter.preconditions += 5
                counter.postconditions += 3
            if not (hours > 0):
                raise ViolationError("PreLogWorkPositive", self)
            if not (hours <= 16):
                raise ViolationError("PreLogWorkBounded", self)
            if project is None:
                raise ViolationError("PreLogWorkProjectSet", self)
            if project not in self.projects:
                raise ViolationError("PreLogWorkAssigned", self)
            if not (self.hours_today + hours <= self.max_daily_hours):
                raise ViolationError("PreLogWorkFits", self)
            old_total = self.total_hours
            old_today = self.hours_today
            result = super().log_work(project, hours)
            if self.total_hours != old_total + hours:
                raise ViolationError("PostLogWorkTotal", self)
            if self.hours_today != old_today + hours:
                raise ViolationError("PostLogWorkToday", self)
            if result != self.hours_today:
                raise ViolationError("PostLogWorkResult", self)
            self._inv()
            return result

        def raise_salary(self, amount: float) -> float:
            self._inv()
            if counter is not None:
                counter.preconditions += 2
                counter.postconditions += 1
            if not (amount >= 0):
                raise ViolationError("PreRaiseNonNegative", self)
            if not (amount <= 10000):
                raise ViolationError("PreRaiseBounded", self)
            old = self.salary
            result = super().raise_salary(amount)
            if self.salary != old + amount:
                raise ViolationError("PostRaiseSalary", self)
            self._inv()
            return result

        def grant_bonus(self, amount: float) -> float:
            self._inv()
            if counter is not None:
                counter.preconditions += 2
                counter.postconditions += 1
            if not (amount >= 0):
                raise ViolationError("PreBonusNonNegative", self)
            if not (self.bonus + amount <= self.salary):
                raise ViolationError("PreBonusWithinSalary", self)
            old = self.bonus
            result = super().grant_bonus(amount)
            if self.bonus != old + amount:
                raise ViolationError("PostGrantBonus", self)
            self._inv()
            return result

        def take_vacation(self, days: int) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 2
                counter.postconditions += 1
            if not (days > 0):
                raise ViolationError("PreVacationPositive", self)
            if not (days <= self.vacation_days):
                raise ViolationError("PreVacationAvailable", self)
            old = self.vacation_days
            result = super().take_vacation(days)
            if self.vacation_days != old - days:
                raise ViolationError("PostVacationDebited", self)
            self._inv()
            return result

        def reset_day(self) -> None:
            self._inv()
            if counter is not None:
                counter.postconditions += 1
            super().reset_day()
            if self.hours_today != 0:
                raise ViolationError("PostResetDay", self)
            self._inv()

        def promote(self) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 1
                counter.postconditions += 1
            if not (self.seniority < 50):
                raise ViolationError("PrePromoteBelowCap", self)
            old = self.seniority
            result = super().promote()
            if self.seniority != old + 1:
                raise ViolationError("PostPromoteSeniority", self)
            self._inv()
            return result

    class HandcraftedProject(Project):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self._inv()

        def _inv(self) -> None:
            if counter is not None:
                counter.invariants += 18
            if not (self.cost >= 0):
                raise ViolationError("ProjCostNonNegative", self)
            if not (self.cost <= self.budget):
                raise ViolationError("ProjWithinBudget", self)
            if not (self.budget > 0):
                raise ViolationError("ProjBudgetPositive", self)
            if not (len(self.members) <= self.max_members):
                raise ViolationError("ProjMemberLimit", self)
            if self.name == "":
                raise ViolationError("ProjNameNotEmpty", self)
            if not (self.max_members >= 1):
                raise ViolationError("ProjMaxMembersPositive", self)
            if len({m.name for m in self.members}) != len(self.members):
                raise ViolationError("ProjMembersDistinct", self)
            if not (self.priority >= 1):
                raise ViolationError("ProjPriorityFloor", self)
            if not (self.priority <= 5):
                raise ViolationError("ProjPriorityCeiling", self)
            if not (self.completed_tasks <= self.total_tasks):
                raise ViolationError("ProjTasksConsistent", self)
            if not (self.total_tasks >= 0):
                raise ViolationError("ProjTasksNonNegative", self)
            if not (self.completed_tasks >= 0):
                raise ViolationError("ProjCompletedNonNegative", self)
            if not (self.risk >= 0):
                raise ViolationError("ProjRiskFloor", self)
            if not (self.risk <= 1):
                raise ViolationError("ProjRiskCeiling", self)
            if not (self.labour_hours >= 0):
                raise ViolationError("ProjLabourNonNegative", self)
            if not all(self in m.projects for m in self.members):
                raise ViolationError("ProjMembershipMutual", self)
            if not all(m.hours_today <= m.max_daily_hours for m in self.members):
                raise ViolationError("ProjMembersWithinWorkload", self)
            if not (self.budget <= 10000000):
                raise ViolationError("ProjBudgetCap", self)

        def add_member(self, employee: Any) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 3
                counter.postconditions += 2
            if employee is None:
                raise ViolationError("PreAddMemberNotNull", self)
            if employee in self.members:
                raise ViolationError("PreAddMemberNew", self)
            if not (len(self.members) < self.max_members):
                raise ViolationError("PreAddMemberCapacity", self)
            old = len(self.members)
            result = super().add_member(employee)
            if len(self.members) != old + 1:
                raise ViolationError("PostAddMemberCount", self)
            if self not in employee.projects:
                raise ViolationError("PostAddMemberMutual", self)
            self._inv()
            return result

        def remove_member(self, employee: Any) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 1
                counter.postconditions += 1
            if employee not in self.members:
                raise ViolationError("PreRemoveMemberKnown", self)
            old = len(self.members)
            result = super().remove_member(employee)
            if len(self.members) != old - 1:
                raise ViolationError("PostRemoveMemberCount", self)
            self._inv()
            return result

        def charge(self, amount: float) -> float:
            self._inv()
            if counter is not None:
                counter.preconditions += 2
                counter.postconditions += 1
            if not (amount >= 0):
                raise ViolationError("PreChargeNonNegative", self)
            if not (self.cost + amount <= self.budget):
                raise ViolationError("PreChargeWithinBudget", self)
            old = self.cost
            result = super().charge(amount)
            if self.cost != old + amount:
                raise ViolationError("PostChargeCost", self)
            self._inv()
            return result

        def plan_task(self) -> int:
            self._inv()
            if counter is not None:
                counter.postconditions += 1
            old = self.total_tasks
            result = super().plan_task()
            if self.total_tasks != old + 1:
                raise ViolationError("PostPlanTask", self)
            self._inv()
            return result

        def complete_task(self) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 1
                counter.postconditions += 1
            if not (self.completed_tasks < self.total_tasks):
                raise ViolationError("PreCompleteTaskOpen", self)
            old = self.completed_tasks
            result = super().complete_task()
            if self.completed_tasks != old + 1:
                raise ViolationError("PostCompleteTask", self)
            self._inv()
            return result

        def reprioritize(self, priority: int) -> int:
            self._inv()
            if counter is not None:
                counter.preconditions += 1
                counter.postconditions += 1
            if not (1 <= priority <= 5):
                raise ViolationError("PreReprioritizeRange", self)
            result = super().reprioritize(priority)
            if self.priority != priority:
                raise ViolationError("PostReprioritize", self)
            self._inv()
            return result

    return lambda: run_scenario(HandcraftedEmployee, HandcraftedProject)


# ----------------------------------------------------------------------
# shared wrapper machinery
# ----------------------------------------------------------------------
def _validate_checks(
    checks: MethodChecks,
    obj: Any,
    args: tuple[Any, ...],
    original: Callable[..., Any],
    counter: CheckCounter | None,
) -> Any:
    """Canonical check sequence around one invocation."""
    for check in checks.invariants:
        check.validate(obj, counter=counter)
    for check in checks.preconditions:
        check.validate(obj, args, counter=counter)
    snapshots = [
        check.snapshot(obj, args) if check.snapshot is not None else None
        for check in checks.postconditions
    ]
    result = original(obj, *args)
    for check, snapshot in zip(checks.postconditions, snapshots):
        check.validate(obj, args, result, snapshot, counter=counter)
    for check in checks.invariants:
        check.validate(obj, counter=counter)
    return result


def _constructor_checks(
    cls_name: str,
    table: dict[tuple[str, str], MethodChecks],
) -> tuple[CompiledSpec, ...]:
    """The class's invariants (checked after public construction)."""
    for method in PUBLIC_METHODS[cls_name]:
        checks = table.get((cls_name, method))
        if checks is not None and checks.invariants:
            return checks.invariants
    return ()


# ----------------------------------------------------------------------
# 3. AspectJ-Interceptor analogue: wrappers with statically bound checks
# ----------------------------------------------------------------------
def build_aspect_interceptor(counter: CheckCounter | None = None) -> ScenarioRunner:
    table = checks_by_method(compile_specs())

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]
        constructor_invariants = _constructor_checks(cls_name, table)

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            for check in constructor_invariants:
                check.validate(self, counter=counter)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            checks = table.get((cls_name, method), _EMPTY)
            original = getattr(base, method)

            def wrapper(
                self: Any,
                *args: Any,
                _checks: MethodChecks = checks,
                _original: Callable[..., Any] = original,
            ) -> Any:
                return _validate_checks(_checks, self, args, _original, counter)

            namespace[method] = wrapper
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


# ----------------------------------------------------------------------
# repository-driven validation (shared by approaches 4–9)
# ----------------------------------------------------------------------
def _repository_validate(
    repository: ConstraintRepository,
    cls_name: str,
    method: str,
    obj: Any,
    args: tuple[Any, ...],
    original: Callable[..., Any],
) -> Any:
    pre_regs = repository.affected_constraints(cls_name, method, ConstraintType.PRECONDITION)
    post_regs = repository.affected_constraints(cls_name, method, ConstraintType.POSTCONDITION)
    inv_regs = repository.affected_constraints(cls_name, method, ConstraintType.INVARIANT_HARD)
    ctx = ConstraintValidationContext(
        context_object=obj,
        called_object=obj,
        method_name=method,
        method_arguments=args,
    )
    for registration in inv_regs:
        if not registration.constraint.validate(ctx):
            raise ViolationError(registration.name, obj)
    for registration in pre_regs:
        if not registration.constraint.validate(ctx):
            raise ViolationError(registration.name, obj)
    for registration in post_regs:
        registration.constraint.before_method_invocation(ctx)
    result = original(obj, *args)
    ctx.method_result = result
    for registration in post_regs:
        if not registration.constraint.validate(ctx):
            raise ViolationError(registration.name, obj)
    for registration in inv_regs:
        if not registration.constraint.validate(ctx):
            raise ViolationError(registration.name, obj)
    return result


def _repository_construct_check(
    repository: ConstraintRepository, cls_name: str, obj: Any
) -> None:
    method = PUBLIC_METHODS[cls_name][0]
    ctx = ConstraintValidationContext(context_object=obj, called_object=obj)
    for registration in repository.affected_constraints(
        cls_name, method, ConstraintType.INVARIANT_HARD
    ):
        if not registration.constraint.validate(ctx):
            raise ViolationError(registration.name, obj)


def _aspect_extraction(obj: Any, method: str, args: tuple[Any, ...]) -> dict[str, Any]:
    """AspectJ parameter extraction analogue (§2.3.2, Fig. 2.6).

    AspectJ provides no ``java.lang.reflect.Method`` at the join point;
    the reference had to be obtained via costly
    ``Object.getClass().getMethod(...)`` calls, which search the class's
    method table and copy signature metadata.  We emulate that cost
    profile with a member-table scan plus signature material — this is
    what loses AspectJ its interception advantage in Fig. 2.6.
    """
    cls = type(obj)
    method_object = None
    for name in dir(cls):
        if name == method:
            method_object = getattr(cls, name)
            break
    return {
        "class": cls.__name__,
        "method": method_object,
        "arg_types": tuple(type(argument).__name__ for argument in args),
        "args": list(args),
    }


def _cheap_extraction(obj: Any, method: str, args: tuple[Any, ...]) -> dict[str, Any]:
    """JBoss-AOP/proxy-style extraction: the method object is at hand."""
    return {"class": type(obj).__name__, "method": method, "args": args}


def _build_wrapped_repository(
    lookup: str,
    counter: CheckCounter | None,
    extraction: Callable[[Any, str, tuple[Any, ...]], dict[str, Any]],
) -> ScenarioRunner:
    repository = build_repository(lookup, counter)

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            _repository_construct_check(repository, cls_name, self)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            original = getattr(base, method)

            def wrapper(
                self: Any,
                *args: Any,
                _method: str = method,
                _original: Callable[..., Any] = original,
            ) -> Any:
                extraction(self, _method, args)
                return _repository_validate(
                    repository, cls_name, _method, self, args, _original
                )

            namespace[method] = wrapper
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


def build_aspect_repository(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_wrapped_repository("linear", counter, _aspect_extraction)


def build_aspect_repository_optimized(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_wrapped_repository("cached", counter, _aspect_extraction)


# ----------------------------------------------------------------------
# JBoss-AOP analogue: explicit invocation objects + interceptor chain
# ----------------------------------------------------------------------
class PlainInvocation:
    """Command-pattern invocation object (the JBoss AOP style, §5.3)."""

    __slots__ = ("obj", "cls_name", "method_name", "args", "original", "result")

    def __init__(
        self,
        obj: Any,
        cls_name: str,
        method_name: str,
        args: tuple[Any, ...],
        original: Callable[..., Any],
    ) -> None:
        self.obj = obj
        self.cls_name = cls_name
        self.method_name = method_name
        self.args = args
        self.original = original
        self.result = None


class _PlainChain:
    """Minimal interceptor chain for plain objects."""

    def __init__(self, interceptors: Sequence[Callable[..., Any]]) -> None:
        self.interceptors = list(interceptors)

    def invoke(self, invocation: PlainInvocation, index: int = 0) -> Any:
        if index == len(self.interceptors):
            invocation.result = invocation.original(invocation.obj, *invocation.args)
            return invocation.result
        return self.interceptors[index](
            invocation, lambda: self.invoke(invocation, index + 1)
        )


def _build_patching_repository(
    lookup: str, counter: CheckCounter | None
) -> ScenarioRunner:
    repository = build_repository(lookup, counter)

    def constraint_interceptor(
        invocation: PlainInvocation, proceed: Callable[[], Any]
    ) -> Any:
        _cheap_extraction(invocation.obj, invocation.method_name, invocation.args)

        def call_original(obj: Any, *args: Any) -> Any:
            return proceed()

        return _repository_validate(
            repository,
            invocation.cls_name,
            invocation.method_name,
            invocation.obj,
            invocation.args,
            call_original,
        )

    chain = _PlainChain([constraint_interceptor])

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            _repository_construct_check(repository, cls_name, self)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            original = getattr(base, method)

            def dispatcher(
                self: Any,
                *args: Any,
                _method: str = method,
                _original: Callable[..., Any] = original,
            ) -> Any:
                invocation = PlainInvocation(self, cls_name, _method, args, _original)
                return chain.invoke(invocation)

            namespace[method] = dispatcher
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


def build_jboss_repository(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_patching_repository("linear", counter)


def build_jboss_repository_optimized(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_patching_repository("cached", counter)


# ----------------------------------------------------------------------
# Java-Proxy analogue: dynamic proxy with reflective dispatch
# ----------------------------------------------------------------------
class DynamicProxy:
    """``java.lang.reflect.Proxy`` analogue.

    Every public-method access resolves the real method reflectively and
    routes the call through the invocation handler; attribute reads and
    writes are forwarded to the target.  Equality and hashing delegate to
    the target so value-identity predicates behave transparently.
    """

    __slots__ = ("_target", "_invoke")

    def __init__(self, target: Any, invoke: Callable[[Any, str, tuple[Any, ...]], Any]) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_invoke", invoke)

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_target")
        public = PUBLIC_METHODS.get(type(target).__name__, ())
        if name in public:
            invoke = object.__getattribute__(self, "_invoke")
            return lambda *args: invoke(target, name, args)
        return getattr(target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)

    def __eq__(self, other: object) -> bool:
        return object.__getattribute__(self, "_target") == other

    def __hash__(self) -> int:
        return hash(object.__getattribute__(self, "_target"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proxy({object.__getattribute__(self, '_target')!r})"


def _build_proxy_repository(
    lookup: str, counter: CheckCounter | None
) -> ScenarioRunner:
    repository = build_repository(lookup, counter)

    def invoke(target: Any, method: str, args: tuple[Any, ...]) -> Any:
        # Reflective dispatch: resolve the method on the live object —
        # this is what made the Java proxy the slowest interceptor.
        cls = type(target)
        original = getattr(cls, method)
        _cheap_extraction(target, method, args)
        return _repository_validate(
            repository, cls.__name__, method, target, args, original
        )

    def make_employee(*args: Any, **kwargs: Any) -> DynamicProxy:
        target = Employee(*args, **kwargs)
        _repository_construct_check(repository, "Employee", target)
        return DynamicProxy(target, invoke)

    def make_project(*args: Any, **kwargs: Any) -> DynamicProxy:
        target = Project(*args, **kwargs)
        _repository_construct_check(repository, "Project", target)
        return DynamicProxy(target, invoke)

    return lambda: run_scenario(make_employee, make_project)


def build_proxy_repository(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_proxy_repository("linear", counter)


def build_proxy_repository_optimized(counter: CheckCounter | None = None) -> ScenarioRunner:
    return _build_proxy_repository("cached", counter)


# ----------------------------------------------------------------------
# JML analogue: generated checks through an assertion framework
# ----------------------------------------------------------------------
class _JmlFramework:
    """Per-check bookkeeping emulating a contract-checking runtime."""

    def __init__(self, counter: CheckCounter | None) -> None:
        self.counter = counter
        self.trace: list[dict[str, Any]] = []

    def _record(self, check: CompiledSpec, obj: Any) -> None:
        # JML-generated code maintains assertion context for blame
        # assignment; the record construction is the modelled cost.
        self.trace.append(
            {
                "constraint": check.name,
                "kind": check.spec.kind,
                "class": type(obj).__name__,
                # The workload's value identity, not id(): addresses vary
                # between runs and would make the blame trace irreproducible.
                "object": getattr(obj, "name", None),
            }
        )
        if len(self.trace) > 64:
            self.trace.pop(0)

    def check_invariants(self, obj: Any, checks: tuple[CompiledSpec, ...]) -> None:
        for check in checks:
            self._record(check, obj)
            check.validate(obj, counter=self.counter)

    def check_pres(
        self, obj: Any, args: tuple[Any, ...], checks: tuple[CompiledSpec, ...]
    ) -> None:
        for check in checks:
            self._record(check, obj)
            check.validate(obj, args, counter=self.counter)

    def snapshot(
        self, obj: Any, args: tuple[Any, ...], checks: tuple[CompiledSpec, ...]
    ) -> dict[str, Any]:
        return {
            check.name: check.snapshot(obj, args)
            for check in checks
            if check.snapshot is not None
        }

    def check_posts(
        self,
        obj: Any,
        args: tuple[Any, ...],
        result: Any,
        old: dict[str, Any],
        checks: tuple[CompiledSpec, ...],
    ) -> None:
        for check in checks:
            self._record(check, obj)
            check.validate(obj, args, result, old.get(check.name), counter=self.counter)


def build_jml(counter: CheckCounter | None = None) -> ScenarioRunner:
    table = checks_by_method(compile_specs())
    framework = _JmlFramework(counter)

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]
        constructor_invariants = _constructor_checks(cls_name, table)
        namespace: dict[str, Any] = {
            "_fw": framework,
            "_ctor_inv": constructor_invariants,
            "_base": base,
        }
        lines = [
            "def __init__(self, *args, **kwargs):",
            "    _base.__init__(self, *args, **kwargs)",
            "    _fw.check_invariants(self, _ctor_inv)",
        ]
        for method in PUBLIC_METHODS[cls_name]:
            checks = table.get((cls_name, method), _EMPTY)
            namespace[f"_checks_{method}"] = checks
            lines += [
                f"def {method}(self, *args):",
                f"    _c = _checks_{method}",
                "    _fw.check_invariants(self, _c.invariants)",
                "    _fw.check_pres(self, args, _c.preconditions)",
                "    _old = _fw.snapshot(self, args, _c.postconditions)",
                f"    _result = _base.{method}(self, *args)",
                "    _fw.check_posts(self, args, _result, _old, _c.postconditions)",
                "    _fw.check_invariants(self, _c.invariants)",
                "    return _result",
            ]
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from specs
        members = {
            name: value
            for name, value in namespace.items()
            if callable(value) and not name.startswith("_")
        }
        members["__init__"] = namespace["__init__"]
        return type(cls_name, (base,), members)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


# ----------------------------------------------------------------------
# iContract analogue: generated in-place checks (near-handcrafted speed)
# ----------------------------------------------------------------------
def build_inplace(counter: CheckCounter | None = None) -> ScenarioRunner:
    table = checks_by_method(compile_specs())

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]
        constructor_invariants = _constructor_checks(cls_name, table)
        namespace: dict[str, Any] = {
            "_base": base,
            "ViolationError": ViolationError,
            "len": len,
            "_counter": counter,
        }
        lines: list[str] = []

        def emit_check(spec_expr: str, name: str, kind: str, indent: str) -> None:
            expr = spec_expr.replace("obj.", "self.").replace("obj ", "self ")
            if counter is not None:
                field = {
                    "inv": "invariants",
                    "pre": "preconditions",
                    "post": "postconditions",
                }[kind]
                lines.append(f"{indent}_counter.{field} += 1")
            lines.append(f"{indent}if not ({expr}):")
            lines.append(f"{indent}    raise ViolationError({name!r}, self)")

        lines.append("def __init__(self, *args, **kwargs):")
        lines.append("    _base.__init__(self, *args, **kwargs)")
        for check in constructor_invariants:
            emit_check(check.spec.expr, check.name, "inv", "    ")
        if not constructor_invariants:
            lines.append("    pass")

        for method in PUBLIC_METHODS[cls_name]:
            checks = table.get((cls_name, method), _EMPTY)
            # Instrumentation tools emit a recursion guard so constraint
            # evaluation cannot re-trigger checking (§2.2.3 "infinite
            # loops" issue) — part of why generated in-place code is not
            # quite as fast as truly handcrafted checks.
            lines.append(f"def {method}(self, *args):")
            lines.append("    if self.__dict__.get('_icc_checking', False):")
            lines.append(f"        return _base.{method}(self, *args)")
            lines.append("    self.__dict__['_icc_checking'] = True")
            lines.append("    try:")
            for check in checks.invariants:
                emit_check(check.spec.expr, check.name, "inv", "        ")
            for check in checks.preconditions:
                emit_check(check.spec.expr, check.name, "pre", "        ")
            for index, check in enumerate(checks.postconditions):
                pre_expr = (check.spec.pre_expr or "None").replace("obj.", "self.")
                lines.append(f"        _pre_{index} = {pre_expr}")
            lines.append(f"        result = _base.{method}(self, *args)")
            for index, check in enumerate(checks.postconditions):
                expr = (
                    check.spec.expr.replace("obj.", "self.")
                    .replace("obj ", "self ")
                    .replace("pre", f"_pre_{index}")
                )
                if counter is not None:
                    lines.append("        _counter.postconditions += 1")
                lines.append(f"        if not ({expr}):")
                lines.append(f"            raise ViolationError({check.name!r}, self)")
            for check in checks.invariants:
                emit_check(check.spec.expr, check.name, "inv", "        ")
            lines.append("        return result")
            lines.append("    finally:")
            lines.append("        self.__dict__['_icc_checking'] = False")

        exec("\n".join(lines), namespace)  # noqa: S102 - generated from specs
        members = {
            name: value
            for name, value in namespace.items()
            if callable(value) and not name.startswith("_") and name not in ("ViolationError", "len")
        }
        members["__init__"] = namespace["__init__"]
        return type(cls_name, (base,), members)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


# ----------------------------------------------------------------------
# Dresden-OCL analogue: wrapper generation + interpreted OCL
# ----------------------------------------------------------------------
def build_dresden_ocl(counter: CheckCounter | None = None) -> ScenarioRunner:
    """Wrapper-based instrumentation evaluating constraints interpretively.

    Invariants are interpreted from their OCL text (AST walk per check);
    pre/postconditions are evaluated through per-check environment
    construction and ``eval`` — the cost profile that put the Dresden OCL
    toolkit at the slow end of Fig. 2.2.
    """
    table = checks_by_method(compile_specs())
    # OCL text per invariant; translated afresh for every check.  The
    # Dresden toolkit's generated wrapper code rebuilt its OCL evaluation
    # machinery (collection wrappers, context environments) on every
    # validation, which is what made it ~400x slower than handcrafted
    # checks in Fig. 2.2; re-running the translation per check models that
    # repeated-machinery cost.
    ocl_text: dict[str, str] = {
        spec.name: spec.ocl
        for spec in CONSTRAINT_SPECS
        if spec.kind == "inv" and spec.ocl
    }
    eval_cache: dict[str, Any] = {
        spec.name: compile(spec.expr, f"<{spec.name}>", "eval")
        for spec in CONSTRAINT_SPECS
        if spec.kind in ("pre", "post")
    }
    snapshot_cache: dict[str, Any] = {
        spec.name: compile(spec.pre_expr, f"<{spec.name}@pre>", "eval")
        for spec in CONSTRAINT_SPECS
        if spec.kind == "post" and spec.pre_expr
    }
    eval_globals = {"len": len, "set": set, "all": all, "any": any, "__builtins__": {}}

    def check_invariants(obj: Any, checks: tuple[CompiledSpec, ...]) -> None:
        for check in checks:
            if counter is not None:
                counter.count(check.spec)
            text = ocl_text.get(check.name)
            if text is not None:
                satisfied = OclExpression(text).holds_for(obj)
            else:  # pragma: no cover - every invariant has OCL text
                satisfied = check.check(obj, (), None, None)
            if not satisfied:
                raise ViolationError(check.name, obj)

    def interpreted_validate(
        check: CompiledSpec, obj: Any, args: tuple[Any, ...], result: Any, pre: Any
    ) -> None:
        if counter is not None:
            counter.count(check.spec)
        environment = {"obj": obj, "args": args, "result": result, "pre": pre}
        if not eval(eval_cache[check.name], eval_globals, environment):  # noqa: S307
            raise ViolationError(check.name, obj)

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]
        constructor_invariants = _constructor_checks(cls_name, table)

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            check_invariants(self, constructor_invariants)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            checks = table.get((cls_name, method), _EMPTY)
            original = getattr(base, method)

            def wrapper(
                self: Any,
                *args: Any,
                _checks: MethodChecks = checks,
                _original: Callable[..., Any] = original,
            ) -> Any:
                check_invariants(self, _checks.invariants)
                for check in _checks.preconditions:
                    interpreted_validate(check, self, args, None, None)
                old = {}
                for check in _checks.postconditions:
                    code = snapshot_cache.get(check.name)
                    if code is not None:
                        old[check.name] = eval(  # noqa: S307
                            code, eval_globals, {"obj": self, "args": args}
                        )
                result = _original(self, *args)
                for check in _checks.postconditions:
                    interpreted_validate(check, self, args, result, old.get(check.name))
                check_invariants(self, _checks.invariants)
                return result

            namespace[method] = wrapper
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)


# ----------------------------------------------------------------------
# registry (Table 2.1 analogue)
# ----------------------------------------------------------------------
APPROACHES: dict[str, Approach] = {
    approach.name: approach
    for approach in [
        Approach("no-checks", "No checks", "baseline", build_no_checks,
                 "application without any constraint checks"),
        Approach("handcrafted", "Handcrafted", "handcrafted", build_handcrafted,
                 "checks manually tangled with business logic (§2.1.1)"),
        Approach("inplace", "In-place instrumentation", "generated", build_inplace,
                 "iContract-style generated in-place checks (§2.1.2)"),
        Approach("aspectj-interceptor", "AspectJ-Interceptor", "interceptor",
                 build_aspect_interceptor,
                 "constraint code woven into wrappers (§2.2.5)"),
        Approach("aspectj-repository", "AspectJ-Rep", "repository",
                 build_aspect_repository,
                 "wrapper interception + plain constraint repository"),
        Approach("aspectj-repository-optimized", "AspectJ-Rep-Opt", "repository",
                 build_aspect_repository_optimized,
                 "wrapper interception + caching repository"),
        Approach("jbossaop-repository", "JBossAOP-Rep", "repository",
                 build_jboss_repository,
                 "invocation-object dispatch + plain repository"),
        Approach("jbossaop-repository-optimized", "JBossAOP-Rep-Opt", "repository",
                 build_jboss_repository_optimized,
                 "invocation-object dispatch + caching repository"),
        Approach("proxy-repository", "Proxy-Rep", "repository",
                 build_proxy_repository,
                 "dynamic proxy + plain repository"),
        Approach("proxy-repository-optimized", "Proxy-Rep-Opt", "repository",
                 build_proxy_repository_optimized,
                 "dynamic proxy + caching repository"),
        Approach("jml", "JML", "generated", build_jml,
                 "compiler-generated checks with assertion framework (§2.1.3)"),
        Approach("dresden-ocl", "Dresden-OCL", "interpreted", build_dresden_ocl,
                 "wrapper generation + interpreted OCL (§2.1.2)"),
    ]
}
