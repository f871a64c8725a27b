"""Randomized success-fraction experiments for the exact solvers.

Scenarios are drawn with sensor coordinates uniform on [-0.5, 0.5] and source
coordinates uniform on the same cube shrunk by a source scale. Each instance
runs the matching solver on noise-free forward-modelled range differences and
is scored by relative position error against one or more thresholds. Failures
are attributed, per threshold, to singular geometry, a wrong quadratic root
(the losing candidate is within the threshold of truth), or plain numerical
error.

Instances are seeded independently via a splittable hash of
(seed, scale index, instance index), so sweeps are reproducible bit-for-bit
regardless of the order in which instances are run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDeltasError,
    DegenerateSamplingError,
    InvalidConfigError,
    LocalizationError,
    SingularMatrixError,
)
from .locate import localize
from .measurement import Scenario, SensorArray, range_differences
from .result import LocalizationResult

DEFAULT_THRESHOLDS = (1e-6, 1e-3)
DEFAULT_SCALE_GRID = tuple(float(s) for s in np.logspace(-6.0, 0.0, 13))
MAX_SAMPLE_ATTEMPTS = 100


class FailureCause(Enum):
    SINGULAR_GEOMETRY = "singular_geometry"
    WRONG_ROOT = "wrong_root"
    NUMERICAL_ERROR = "numerical_error"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; validated on construction."""

    n_sensors: int = 5
    n_instances: int = 1000
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    seed: int = 0
    scale_grid: tuple[float, ...] = (1.0,)  # source scales, one sweep row each

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "scale_grid", tuple(float(s) for s in self.scale_grid))
        if self.n_sensors not in (4, 5):
            raise InvalidConfigError(f"n_sensors must be 4 or 5, got {self.n_sensors}")
        if self.n_instances < 1:
            raise InvalidConfigError(f"n_instances must be >= 1, got {self.n_instances}")
        if not self.thresholds or any(not t > 0.0 for t in self.thresholds):
            raise InvalidConfigError(f"thresholds must be positive, got {self.thresholds}")
        if not self.scale_grid or any(not s > 0.0 for s in self.scale_grid):
            raise InvalidConfigError(f"scales must be positive, got {self.scale_grid}")


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one scenario: estimate, error, per-threshold success."""

    scenario: Scenario
    estimate: LocalizationResult | None
    error: str | None
    rel_error: float | None
    success_at: tuple[bool, ...]  # aligned with the thresholds tuple
    failure_causes: tuple[FailureCause | None, ...]  # None where success_at is True


@dataclass(frozen=True)
class SweepCell:
    """Aggregate for one (source scale, threshold) pair."""

    n_sensors: int
    source_scale: float
    threshold: float
    success_fraction: float
    n_singular: int
    n_wrong_root: int
    n_numerical: int
    n_instances: int


@dataclass(frozen=True)
class SweepSummary:
    """All cells of a sweep, ordered by (scale index, threshold index)."""

    config: ExperimentConfig
    cells: tuple[SweepCell, ...]


def instance_rng(seed: int, scale_index: int, instance_index: int) -> np.random.Generator:
    """Independent per-instance generator from a splittable seed hash."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(scale_index, instance_index))
    )


def sample_scenario(
    rng: np.random.Generator, n_sensors: int, source_scale: float
) -> Scenario:
    """Draw one random scenario; resample the rare invariant-violating draws.

    Sensor coordinates are uniform on [-0.5, 0.5]; source coordinates are the
    same shrunk by ``source_scale``. Sensors are drawn before the source.

    Raises:
        DegenerateSamplingError: after MAX_SAMPLE_ATTEMPTS rejected draws.
    """
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        sensors = rng.random((n_sensors, 3)) - 0.5
        source = source_scale * (rng.random(3) - 0.5)
        try:
            return Scenario(sensors=SensorArray(sensors), source=source)
        except ValueError:
            continue
    raise DegenerateSamplingError(
        f"no valid scenario after {MAX_SAMPLE_ATTEMPTS} draws "
        f"(n_sensors={n_sensors}, source_scale={source_scale})"
    )


def run_instance(scenario: Scenario, thresholds) -> InstanceResult:
    """Forward-model, solve, and score one scenario against the thresholds.

    A failure at threshold T is a wrong root when a candidate other than the
    estimate lies within T of truth, and a numerical error otherwise.
    """
    thresholds = tuple(float(t) for t in thresholds)
    deltas = range_differences(scenario)
    try:
        estimate = localize(scenario.sensors, deltas)
    except LocalizationError as err:
        if isinstance(err, (SingularMatrixError, DegenerateDeltasError)):
            cause = FailureCause.SINGULAR_GEOMETRY
        else:
            cause = FailureCause.NUMERICAL_ERROR
        n = len(thresholds)
        return InstanceResult(scenario, None, str(err), None, (False,) * n, (cause,) * n)

    truth = scenario.source
    truth_norm = float(np.linalg.norm(truth))
    rel_error = _rel_error(estimate.position, truth, truth_norm)
    success = tuple(rel_error < t for t in thresholds)

    losing = math.inf
    if not all(success):
        for cand in estimate.candidates:
            if not np.array_equal(cand.position, estimate.position):
                losing = min(losing, _rel_error(cand.position, truth, truth_norm))
    causes = tuple(
        None if ok
        else FailureCause.WRONG_ROOT if losing < t
        else FailureCause.NUMERICAL_ERROR
        for ok, t in zip(success, thresholds)
    )
    return InstanceResult(scenario, estimate, None, rel_error, success, causes)


def _rel_error(position: np.ndarray, truth: np.ndarray, truth_norm: float) -> float:
    err = float(np.linalg.norm(position - truth))
    if truth_norm > 0.0:
        return err / truth_norm
    return 0.0 if err == 0.0 else math.inf


def run_sweep(config: ExperimentConfig) -> SweepSummary:
    """Run every (scale, instance) cell of the sweep and aggregate.

    Each scale's outcomes are tallied per threshold as the instances run, so
    no per-instance result outlives its own scoring.
    """
    n = config.n_instances
    cells = []
    for si, scale in enumerate(config.scale_grid):
        tallies = [Counter() for _ in config.thresholds]
        for ii in range(n):
            scenario = sample_scenario(
                instance_rng(config.seed, si, ii), config.n_sensors, scale
            )
            result = run_instance(scenario, config.thresholds)
            for tally, cause in zip(tallies, result.failure_causes):
                tally[cause] += 1
        for threshold, tally in zip(config.thresholds, tallies):
            cells.append(
                SweepCell(
                    n_sensors=config.n_sensors,
                    source_scale=scale,
                    threshold=threshold,
                    success_fraction=tally[None] / n,
                    n_singular=tally[FailureCause.SINGULAR_GEOMETRY],
                    n_wrong_root=tally[FailureCause.WRONG_ROOT],
                    n_numerical=tally[FailureCause.NUMERICAL_ERROR],
                    n_instances=n,
                )
            )
    return SweepSummary(config=config, cells=tuple(cells))
