"""Runtime-slice analysis (§2.3.2, Figs. 2.3–2.6).

The total runtime of generic-interceptor + repository validation is split
into five slices:

* **R1** — net application runtime without constraint checks,
* **R2** — invocation interception by the mechanism,
* **R3** — extraction of search parameters (invoked method, arguments,
  class of the invoked object),
* **R4** — searching constraints within the repository,
* **R5** — the constraint checks themselves.

This module builds scenario runners that stop after a chosen slice so the
overhead of each stage can be measured separately for the three
interception mechanisms (decorator/AspectJ, invocation-object dispatch/
JBoss AOP, dynamic proxy/Java proxy) with the plain or the optimized
repository.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.model import ConstraintType
from ..core.repository import ConstraintRepository
from .approaches import (
    DynamicProxy,
    PlainInvocation,
    _PlainChain,
    _aspect_extraction,
    _cheap_extraction,
    _repository_validate,
    _repository_construct_check,
    ScenarioRunner,
)
from .runtime import CheckCounter, build_repository
from .workload import PUBLIC_METHODS, Employee, Project, run_scenario

_BASES: dict[str, type] = {"Employee": Employee, "Project": Project}

#: Cumulative stages, in slice order.
STAGES = ("interception", "extraction", "search", "full")

#: The three interception mechanisms of the study.
MECHANISMS = ("aspectj", "jbossaop", "proxy")

_EXTRACTIONS: dict[str, Callable[[Any, str, tuple[Any, ...]], dict[str, Any]]] = {
    "aspectj": _aspect_extraction,
    "jbossaop": _cheap_extraction,
    "proxy": _cheap_extraction,
}


def _search_only(repository: ConstraintRepository, cls_name: str, method: str) -> None:
    """Perform the three repository searches, discarding the results."""
    repository.affected_constraints(cls_name, method, ConstraintType.PRECONDITION)
    repository.affected_constraints(cls_name, method, ConstraintType.POSTCONDITION)
    repository.affected_constraints(cls_name, method, ConstraintType.INVARIANT_HARD)


def _make_stage_body(
    mechanism: str,
    stage: str,
    repository: ConstraintRepository | None,
) -> Callable[[Any, str, str, tuple[Any, ...], Callable[..., Any]], Any]:
    """The per-invocation work for the configured slice depth."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    extraction = _EXTRACTIONS[mechanism]
    depth = STAGES.index(stage)

    def body(
        obj: Any,
        cls_name: str,
        method: str,
        args: tuple[Any, ...],
        original: Callable[..., Any],
    ) -> Any:
        if depth >= 1:  # R3: parameter extraction
            extraction(obj, method, args)
        if depth >= 2:  # R4: repository search
            assert repository is not None
            if depth >= 3:  # R5: full validation
                return _repository_validate(repository, cls_name, method, obj, args, original)
            _search_only(repository, cls_name, method)
        return original(obj, *args)

    return body


def build_slice_runner(
    mechanism: str,
    stage: str,
    lookup: str = "cached",
    counter: CheckCounter | None = None,
) -> ScenarioRunner:
    """A scenario runner exercising the given mechanism up to ``stage``."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
    repository = build_repository(lookup, counter) if stage in ("search", "full") else None
    stage_body = _make_stage_body(mechanism, stage, repository)
    needs_ctor_check = stage == "full" and repository is not None

    if mechanism == "proxy":
        def invoke(target: Any, method: str, args: tuple[Any, ...]) -> Any:
            original = getattr(type(target), method)
            return stage_body(target, type(target).__name__, method, args, original)

        def make_factory(cls_name: str) -> Callable[..., Any]:
            base = _BASES[cls_name]

            def factory(*args: Any, **kwargs: Any) -> DynamicProxy:
                target = base(*args, **kwargs)
                if needs_ctor_check:
                    _repository_construct_check(repository, cls_name, target)
                return DynamicProxy(target, invoke)

            return factory

        employee_factory = make_factory("Employee")
        project_factory = make_factory("Project")
        return lambda: run_scenario(employee_factory, project_factory)

    def make_class(cls_name: str) -> type:
        base = _BASES[cls_name]

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            base.__init__(self, *args, **kwargs)
            if needs_ctor_check:
                _repository_construct_check(repository, cls_name, self)

        namespace: dict[str, Any] = {"__init__": __init__}
        for method in PUBLIC_METHODS[cls_name]:
            original = getattr(base, method)
            if mechanism == "aspectj":
                def wrapper(
                    self: Any,
                    *args: Any,
                    _method: str = method,
                    _original: Callable[..., Any] = original,
                    _cls_name: str = cls_name,
                ) -> Any:
                    return stage_body(self, _cls_name, _method, args, _original)

                namespace[method] = wrapper
            else:  # jbossaop: explicit invocation object + chain
                def chain_interceptor(
                    invocation: PlainInvocation, proceed: Callable[[], Any]
                ) -> Any:
                    def call_original(obj: Any, *args: Any) -> Any:
                        return proceed()

                    return stage_body(
                        invocation.obj,
                        invocation.cls_name,
                        invocation.method_name,
                        invocation.args,
                        call_original,
                    )

                chain = _PlainChain([chain_interceptor])

                def dispatcher(
                    self: Any,
                    *args: Any,
                    _method: str = method,
                    _original: Callable[..., Any] = original,
                    _cls_name: str = cls_name,
                    _chain: _PlainChain = chain,
                ) -> Any:
                    invocation = PlainInvocation(self, _cls_name, _method, args, _original)
                    return _chain.invoke(invocation)

                namespace[method] = dispatcher
        return type(cls_name, (base,), namespace)

    employee_cls = make_class("Employee")
    project_cls = make_class("Project")
    return lambda: run_scenario(employee_cls, project_cls)
