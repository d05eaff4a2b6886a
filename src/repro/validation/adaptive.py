"""Adaptive instrumentation (§6.3, following Dwyer et al. [DKE07]).

The related-work discussion considers replacing the generic interceptors
with direct calls to the affected constraints, eliminating the repository
search from the invocation path entirely; add/remove/enable/disable
operations on the repository would then trigger *re-instrumentation* of
the affected methods.  The dissertation estimates the potential as small
for the EJB middleware (1–13% total CCM overhead) but notes it "could be
worth the effort" for plain Java applications, where the repository path
costs 8–11× the handcrafted baseline.

This module implements exactly that approach for the Chapter-2 workload:
wrapped classes whose per-method constraint lists are precomputed from the
repository and *rebuilt on every repository change* (via the repository's
change listener), so the steady-state invocation path has zero search cost
while runtime constraint management keeps working.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.model import ConstraintType, ConstraintValidationContext
from ..core.repository import ConstraintRepository
from .approaches import ScenarioRunner
from .runtime import CheckCounter, ViolationError, build_repository
from .workload import PUBLIC_METHODS, Employee, Project, run_scenario

_BASES: dict[str, type] = {"Employee": Employee, "Project": Project}


class AdaptiveDispatchTable:
    """Per-(class, method) constraint lists, rebuilt on repository change."""

    def __init__(self, repository: ConstraintRepository) -> None:
        self.repository = repository
        self.rebuild_count = 0
        self._table: dict[tuple[str, str], tuple[list, list, list]] = {}
        self._rebuild()
        repository.on_change(self._rebuild)

    def _rebuild(self) -> None:
        self.rebuild_count += 1
        self._table = {}
        for cls_name, methods in PUBLIC_METHODS.items():
            for method in methods:
                self._table[(cls_name, method)] = (
                    self.repository.affected_constraints(
                        cls_name, method, ConstraintType.PRECONDITION
                    ),
                    self.repository.affected_constraints(
                        cls_name, method, ConstraintType.POSTCONDITION
                    ),
                    self.repository.affected_constraints(
                        cls_name, method, ConstraintType.INVARIANT_HARD
                    ),
                )

    def checks_for(self, cls_name: str, method: str) -> tuple[list, list, list]:
        return self._table[(cls_name, method)]


def build_adaptive_instrumentation(
    counter: CheckCounter | None = None,
) -> ScenarioRunner:
    """The 13th approach: direct dispatch, no per-call repository search."""
    repository = build_repository("cached", counter)
    table = AdaptiveDispatchTable(repository)

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]
        first_method = PUBLIC_METHODS[cls_name][0]

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            _, _, invariants = table.checks_for(cls_name, first_method)
            ctx = ConstraintValidationContext(context_object=self, called_object=self)
            for registration in invariants:
                if not registration.constraint.validate(ctx):
                    raise ViolationError(registration.name, self)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            original = getattr(base, method)

            def wrapper(
                self: Any,
                *args: Any,
                _method: str = method,
                _original: Callable[..., Any] = original,
            ) -> Any:
                pre_regs, post_regs, inv_regs = table.checks_for(cls_name, _method)
                ctx = ConstraintValidationContext(
                    context_object=self,
                    called_object=self,
                    method_name=_method,
                    method_arguments=args,
                )
                for registration in inv_regs:
                    if not registration.constraint.validate(ctx):
                        raise ViolationError(registration.name, self)
                for registration in pre_regs:
                    if not registration.constraint.validate(ctx):
                        raise ViolationError(registration.name, self)
                for registration in post_regs:
                    registration.constraint.before_method_invocation(ctx)
                result = _original(self, *args)
                ctx.method_result = result
                for registration in post_regs:
                    if not registration.constraint.validate(ctx):
                        raise ViolationError(registration.name, self)
                for registration in inv_regs:
                    if not registration.constraint.validate(ctx):
                        raise ViolationError(registration.name, self)
                return result

            namespace[method] = wrapper
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    runner: ScenarioRunner = lambda: run_scenario(employee_cls, project_cls)
    # expose the hooks for tests/ablations
    runner.repository = repository  # type: ignore[attr-defined]
    runner.dispatch_table = table  # type: ignore[attr-defined]
    return runner
