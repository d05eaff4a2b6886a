"""Chapter-2 study: constraint validation approaches, workload, mini-OCL,
runtime slices, and study orchestration."""

from .adaptive import AdaptiveDispatchTable, build_adaptive_instrumentation
from .approaches import APPROACHES, Approach, DynamicProxy, ScenarioRunner

# The 13th approach (§6.3 adaptive instrumentation) lives in its own
# module to avoid an import cycle; register it with the catalogue here.
APPROACHES["adaptive-instrumentation"] = Approach(
    "adaptive-instrumentation",
    "Adaptive instrumentation",
    "interceptor",
    build_adaptive_instrumentation,
    "direct constraint dispatch, re-instrumented on repository change (§6.3)",
)
from .ocl import OclError, OclExpression, parse
from .runtime import (
    CheckCounter,
    CompiledSpec,
    SpecConstraint,
    ViolationError,
    build_repository,
    checks_by_method,
    compile_specs,
)
from .slices import MECHANISMS, STAGES, build_slice_runner
from .study import (
    SliceResult,
    StudyResult,
    measure_lookup_time,
    measure_runners,
    run_slice_study,
    run_study,
)
from .workload import (
    CONSTRAINT_SPECS,
    INVARIANT_SPECS,
    POSTCONDITION_SPECS,
    PRECONDITION_SPECS,
    PUBLIC_METHODS,
    ConstraintSpec,
    Employee,
    Project,
    run_scenario,
)

__all__ = [
    "APPROACHES",
    "AdaptiveDispatchTable",
    "Approach",
    "build_adaptive_instrumentation",
    "CONSTRAINT_SPECS",
    "CheckCounter",
    "CompiledSpec",
    "ConstraintSpec",
    "DynamicProxy",
    "Employee",
    "INVARIANT_SPECS",
    "MECHANISMS",
    "OclError",
    "OclExpression",
    "POSTCONDITION_SPECS",
    "PRECONDITION_SPECS",
    "PUBLIC_METHODS",
    "Project",
    "ScenarioRunner",
    "SliceResult",
    "SpecConstraint",
    "StudyResult",
    "STAGES",
    "ViolationError",
    "build_repository",
    "build_slice_runner",
    "checks_by_method",
    "compile_specs",
    "measure_lookup_time",
    "measure_runners",
    "parse",
    "run_scenario",
    "run_slice_study",
    "run_study",
]
