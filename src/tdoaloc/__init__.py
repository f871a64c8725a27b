"""Exact closed-form TDOA source localization for 4- and 5-sensor 3D arrays.

Five sensors give a purely linear solve with no sign ambiguity; four sensors
give a linear solve plus one quadratic whose two roots are told apart by
range-difference residual, or, when both solve the measurements exactly, by
keeping the smaller range. A Monte Carlo harness measures noise-free success
fractions over randomized geometries.
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
from .locate import localize
from .measurement import (
    SPEED_OF_LIGHT,
    RangeDifferences,
    Scenario,
    SensorArray,
    arrival_times_to_range_diffs,
    document_deltas,
    load_scenario,
    range_differences,
    write_scenario,
)
from .montecarlo import (
    DEFAULT_SCALE_GRID,
    ExperimentConfig,
    FailureCause,
    instance_rng,
    run_instance,
    run_sweep,
    sample_scenario,
)
from .result import LocalizationResult, Method
from .solver4 import solve_four_sensor
from .solver5 import solve_five_sensor

# bench/tracing.py finds every layer, the CLI included, in sys.modules.
from . import cli  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SCALE_GRID",
    "DegenerateDeltasError",
    "DegenerateLinearError",
    "DegenerateSamplingError",
    "ExperimentConfig",
    "FailureCause",
    "InvalidConfigError",
    "LocalizationError",
    "LocalizationResult",
    "Method",
    "NoCandidatesError",
    "NoRealSolutionError",
    "RangeDifferences",
    "SPEED_OF_LIGHT",
    "Scenario",
    "ScenarioFormatError",
    "SensorArray",
    "SingularMatrixError",
    "arrival_times_to_range_diffs",
    "document_deltas",
    "instance_rng",
    "load_scenario",
    "localize",
    "range_differences",
    "run_instance",
    "run_sweep",
    "sample_scenario",
    "solve_four_sensor",
    "solve_five_sensor",
    "write_scenario",
]
