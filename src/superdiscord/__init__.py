"""Super quantum discord and weak-measurement correlation numerics."""

from .discord import (
    DiscordReport,
    OptimizerConfig,
    ResurrectionRecord,
    analyze,
    minimize_conditional_entropy,
    quantum_conditional_entropy,
    super_discord,
    verify_resurrection,
    weak_conditional_entropy,
)
from .families import (
    pure_schmidt,
    random_state,
    werner,
)
from .measure import (
    INFINITY,
    MeasurementOutcome,
    QubitBasis,
    project_state,
    projective_outcomes,
    projectors,
    weak_outcomes,
    weak_pair,
)
from .qstate import (
    DensityMatrix,
    mutual_information,
    partial_trace_a,
    partial_trace_b,
    validate,
    von_neumann_entropy,
)

__all__ = [
    "DensityMatrix",
    "DiscordReport",
    "INFINITY",
    "MeasurementOutcome",
    "OptimizerConfig",
    "QubitBasis",
    "ResurrectionRecord",
    "analyze",
    "minimize_conditional_entropy",
    "mutual_information",
    "partial_trace_a",
    "partial_trace_b",
    "project_state",
    "projective_outcomes",
    "projectors",
    "pure_schmidt",
    "quantum_conditional_entropy",
    "random_state",
    "super_discord",
    "validate",
    "verify_resurrection",
    "von_neumann_entropy",
    "weak_conditional_entropy",
    "weak_outcomes",
    "weak_pair",
    "werner",
]
