"""Approximate abstractions of interconnected linear control systems.

Build reduced-order abstractions of linear subsystems together with
quadratic deviation functions and interface maps, certify an
interconnection of such abstractions through a small-gain condition,
and validate the resulting trajectory bounds by co-simulation.
"""

from .abstraction import (
    AbstractionResult,
    ComparisonGains,
    PConditionReport,
    QuadraticSimFn,
    build_abstraction,
    certificate_slacks,
    check_P_conditions,
)
from .compose import (
    ComposedSimFn,
    GainMatrices,
    OmegaPath,
    SmallGainError,
    compose_abstractions,
    compose_simfn,
    gain_matrices,
    small_gain,
)
from .geometry import Subspace, image, kernel, minimal_invariant
from .linalg import NumericsError
from .simulate import (
    BoundReport,
    RefinementRun,
    Signal,
    Trajectory,
    bound_report,
    refine_and_run,
    scalar_bound,
    vector_bound,
)
from .systems import Interconnection, InternalChannel, LinearSystem

__version__ = "0.1.0"

__all__ = [
    "AbstractionResult",
    "BoundReport",
    "ComparisonGains",
    "ComposedSimFn",
    "GainMatrices",
    "Interconnection",
    "InternalChannel",
    "LinearSystem",
    "NumericsError",
    "OmegaPath",
    "PConditionReport",
    "QuadraticSimFn",
    "RefinementRun",
    "Signal",
    "SmallGainError",
    "Subspace",
    "Trajectory",
    "bound_report",
    "build_abstraction",
    "certificate_slacks",
    "check_P_conditions",
    "compose_abstractions",
    "compose_simfn",
    "gain_matrices",
    "image",
    "kernel",
    "minimal_invariant",
    "refine_and_run",
    "scalar_bound",
    "small_gain",
    "vector_bound",
    "__version__",
]
