"""Exact closed-form TDOA source localization for 4- and 5-sensor 3D arrays.

Five sensors give a purely linear solve with no sign ambiguity; four sensors
give a linear solve plus one quadratic whose two-root ambiguity is resolved
by range-difference residual minimization. A Monte Carlo harness measures
noise-free success fractions over randomized geometries.
"""

from .errors import (
    DegenerateDeltasError,
    DegenerateLinearError,
    DegenerateSamplingError,
    InvalidConfigError,
    LocalizationError,
    NoCandidatesError,
    NoRealSolutionError,
    ScenarioFormatError,
    SingularMatrixError,
)
from .geom3 import solve3_pivoted
from .locate import localize
from .measurement import (
    SPEED_OF_LIGHT,
    RangeDifferences,
    ReferencedArray,
    Scenario,
    ScenarioDocument,
    SensorArray,
    arrival_times_to_range_diffs,
    as_range_differences,
    document_deltas,
    load_scenario,
    range_differences,
    reference_frame,
    true_ranges,
    unreference,
    write_scenario,
)
from .montecarlo import (
    DEFAULT_SCALE_GRID,
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    FailureCause,
    InstanceResult,
    SweepCell,
    SweepSummary,
    instance_rng,
    run_instance,
    run_sweep,
    sample_scenario,
)
from .result import AmbiguityResolution, Candidate, LocalizationResult, Method
from .solver4 import (
    FourSensorSystem,
    QuadraticRoots,
    build_four_sensor_system,
    candidate_positions,
    resolve_ambiguity,
    solve_four_sensor,
    solve_reference_range,
)
from .solver5 import (
    PAIRING_FALLBACKS,
    FiveSensorSystem,
    build_five_sensor_system,
    solve_five_sensor,
)

# bench/tracing.py finds every layer, the CLI included, in sys.modules.
from . import cli  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "AmbiguityResolution",
    "Candidate",
    "DEFAULT_SCALE_GRID",
    "DEFAULT_THRESHOLDS",
    "DegenerateDeltasError",
    "DegenerateLinearError",
    "DegenerateSamplingError",
    "ExperimentConfig",
    "FailureCause",
    "FiveSensorSystem",
    "FourSensorSystem",
    "InstanceResult",
    "InvalidConfigError",
    "LocalizationError",
    "LocalizationResult",
    "Method",
    "NoCandidatesError",
    "NoRealSolutionError",
    "PAIRING_FALLBACKS",
    "QuadraticRoots",
    "RangeDifferences",
    "ReferencedArray",
    "SPEED_OF_LIGHT",
    "Scenario",
    "ScenarioDocument",
    "ScenarioFormatError",
    "SensorArray",
    "SingularMatrixError",
    "SweepCell",
    "SweepSummary",
    "arrival_times_to_range_diffs",
    "as_range_differences",
    "build_five_sensor_system",
    "build_four_sensor_system",
    "candidate_positions",
    "document_deltas",
    "instance_rng",
    "load_scenario",
    "localize",
    "range_differences",
    "reference_frame",
    "resolve_ambiguity",
    "run_instance",
    "run_sweep",
    "sample_scenario",
    "solve3_pivoted",
    "solve_four_sensor",
    "solve_five_sensor",
    "solve_reference_range",
    "true_ranges",
    "unreference",
    "write_scenario",
]
