"""The paper's primary contribution: explicit runtime constraint
consistency management for adaptive dependability."""

from .ccmgr import (
    CCMConfig,
    ConstraintConsistencyManager,
    NullStalenessProvider,
    StalenessProvider,
)
from .errors import ConsistencyThreatRejected, ConstraintViolated, OperationShedded
from .interceptor import CCMInterceptor
from .metadata import (
    AffectedMethod,
    CalledObjectIsContextObject,
    ConfigurationError,
    ConstraintRegistration,
    ContextPreparation,
    NoContextObject,
    ReferenceIsContextObject,
    parse_xml_configuration,
    registration_from_dict,
)
from .model import (
    CheckCategory,
    Constraint,
    ConstraintPriority,
    ConstraintScope,
    ConstraintType,
    ConstraintUncheckable,
    ConstraintValidationContext,
    FreshnessCriterion,
    PredicateConstraint,
    SatisfactionDegree,
    ValidationOutcome,
)
from .ocl_constraints import OclConstraint, OclEntityAdapter, compile_ocl, ocl_invariant
from .negotiation import (
    AcceptAllHandler,
    CallbackNegotiationHandler,
    NegotiationDecision,
    NegotiationHandler,
    NegotiationResult,
    Negotiator,
    RejectAllHandler,
    register_negotiation_handler,
)
from .partition_sensitive import DegradedBaseline, partition_allowance
from .reconciliation import (
    ConstraintReconciliationHandler,
    ConstraintViolationReport,
    ReconciliationManager,
    ReconciliationReport,
)
from .repository import (
    ConstraintRepository,
    MethodDispatch,
)
from .system_mode import ModeChange, SystemMode, SystemModeTracker
from .uml_constraints import (
    cardinality_constraint,
    not_null_constraint,
    unique_constraint,
    xor_constraint,
)
from .threats import (
    ConsistencyThreat,
    ReconciliationInstructions,
    ThreatDigestEntry,
    ThreatStoragePolicy,
    ThreatStore,
)

__all__ = [
    "AcceptAllHandler",
    "AffectedMethod",
    "CCMConfig",
    "CCMInterceptor",
    "CalledObjectIsContextObject",
    "CallbackNegotiationHandler",
    "CheckCategory",
    "ConfigurationError",
    "ConsistencyThreat",
    "ConsistencyThreatRejected",
    "Constraint",
    "ConstraintConsistencyManager",
    "ConstraintPriority",
    "ConstraintReconciliationHandler",
    "ConstraintRegistration",
    "ConstraintRepository",
    "MethodDispatch",
    "ConstraintScope",
    "ConstraintType",
    "ConstraintUncheckable",
    "ConstraintValidationContext",
    "ConstraintViolated",
    "OperationShedded",
    "ConstraintViolationReport",
    "ContextPreparation",
    "DegradedBaseline",
    "FreshnessCriterion",
    "NegotiationDecision",
    "NegotiationHandler",
    "NegotiationResult",
    "Negotiator",
    "NoContextObject",
    "NullStalenessProvider",
    "OclConstraint",
    "OclEntityAdapter",
    "PredicateConstraint",
    "ReconciliationInstructions",
    "ReconciliationManager",
    "ReconciliationReport",
    "ReferenceIsContextObject",
    "RejectAllHandler",
    "ModeChange",
    "SatisfactionDegree",
    "StalenessProvider",
    "SystemMode",
    "SystemModeTracker",
    "ThreatDigestEntry",
    "ThreatStoragePolicy",
    "ThreatStore",
    "ValidationOutcome",
    "cardinality_constraint",
    "compile_ocl",
    "not_null_constraint",
    "partition_allowance",
    "ocl_invariant",
    "unique_constraint",
    "xor_constraint",
    "parse_xml_configuration",
    "register_negotiation_handler",
    "registration_from_dict",
]
