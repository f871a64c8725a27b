"""Randomized success-fraction experiments for the exact solvers.

Scenarios are drawn with sensor coordinates uniform on [-0.5, 0.5] and source
coordinates uniform on the same cube shrunk by a source scale. Each instance
runs the matching solver on noise-free forward-modelled range differences and
is scored by relative position error against one or more thresholds. Failures
are attributed, per threshold, to singular geometry, a wrong quadratic root
(the losing candidate is within the threshold of truth), or plain numerical
error. Each instance is seeded by a splittable hash of (seed, scale index,
instance index), so a sweep is reproducible bit for bit in any order.

``run_sweep`` runs batches of up to ``BATCH_ROWS`` cells of the flat (scale,
instance) index, which may span scales. ``_streams`` computes the draws that
the cells' ``instance_rng`` generators yield first, as array arithmetic, and
``_batch`` solves and scores each scale's rows as numpy columns with the
solvers' own helpers. Rows it cannot prove generic (a rejected draw, a
tangent root, ...) are rerun through ``sample_scenario`` and ``run_instance``,
so every edge case has one implementation.
"""

from __future__ import annotations

import math
import numbers
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
from .measurement import Scenario, SensorArray, _dot, range_differences
from .result import LocalizationResult

DEFAULT_THRESHOLDS = (1e-6, 1e-3)
DEFAULT_SCALE_GRID = tuple(float(s) for s in np.logspace(-6.0, 0.0, 13))
MAX_SAMPLE_ATTEMPTS = 100
# Instance indices are one 32-bit word of the seed hash's spawn key.
MAX_INSTANCES = 1 << 32
# Most source scales in one sweep grid: each scale is a row of cells per
# threshold, and far more than any success-fraction curve needs, while a
# count a typo can make (1e9) would fill memory before the sweep starts.
MAX_SCALES = 10_000
# Instances per batch in run_sweep: large enough that numpy's per-call cost
# is small per row, small enough that a batch's arrays stay near a megabyte.
BATCH_ROWS = 1024


class FailureCause(Enum):
    SINGULAR_GEOMETRY = "singular_geometry"
    WRONG_ROOT = "wrong_root"
    NUMERICAL_ERROR = "numerical_error"


# Outcome code i stands for _CAUSES[i]: 0 success, 1 singular geometry,
# 2 wrong root, 3 numerical error; SweepCell's counts are in this order.
_CAUSES = (None, *FailureCause)


def _outcomes(rel_error, losing, thresholds) -> np.ndarray:
    """Outcome codes, ``(thresholds, rows)``, of estimates with relative
    errors ``rel_error`` whose nearest other candidate has ``losing``: a
    success below the threshold, else a wrong root if ``losing`` is below
    it, else a numerical error."""
    t = np.asarray(thresholds)[:, None]
    return np.where(rel_error < t, 0, np.where(losing < t, 2, 3))


def _positive_floats(name: str, values) -> tuple[float, ...]:
    """``values`` as a non-empty tuple of finite, positive floats, or
    InvalidConfigError: the rule for a config's thresholds and scales."""
    try:
        # float() would read "1e-3", b"1" and True as numbers. A str's items
        # are strs; a bytes object, whose items are ints, is one item.
        items = (values,) if isinstance(values, (bytes, bytearray)) else tuple(values)
        if any(isinstance(v, (str, bytes, bytearray, bool, np.bool_)) for v in items):
            raise TypeError(f"got {values!r}")
        floats = tuple(float(v) for v in items)
    except (TypeError, ValueError) as err:
        raise InvalidConfigError(f"{name} must be a sequence of numbers: {err}") from None
    if not floats or not all(0.0 < v < math.inf for v in floats):
        raise InvalidConfigError(f"{name} must be finite and positive, got {floats}")
    return floats


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; validated on construction."""

    n_sensors: int = 5
    n_instances: int = 1000
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    seed: int = 0
    scale_grid: tuple[float, ...] = (1.0,)  # source scales, one sweep row each

    def __post_init__(self):
        for name in ("thresholds", "scale_grid"):
            object.__setattr__(self, name, _positive_floats(name, getattr(self, name)))
        for name in ("n_sensors", "n_instances", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_sensors not in (4, 5):
            raise InvalidConfigError(f"n_sensors must be 4 or 5, got {self.n_sensors}")
        if not 1 <= self.n_instances <= MAX_INSTANCES:
            raise InvalidConfigError(
                f"n_instances must be in [1, {MAX_INSTANCES}], got {self.n_instances}"
            )
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.scale_grid) > MAX_SCALES:
            raise InvalidConfigError(
                f"scale grid must hold at most {MAX_SCALES} scales, got {len(self.scale_grid)}"
            )


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one scenario: estimate, error, per-threshold success."""

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
    n_singular: int  # the three failure counts, in _CAUSES order
    n_wrong_root: int
    n_numerical: int
    n_instances: int


def instance_rng(seed: int, scale_index: int, instance_index: int) -> np.random.Generator:
    """Independent per-instance generator from a splittable seed hash."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(scale_index, instance_index))
    )


def sample_scenario(rng: np.random.Generator, n_sensors: int, source_scale: float) -> Scenario:
    """Draw one random scenario; resample the rare invariant-violating draws.

    Sensor coordinates are uniform on [-0.5, 0.5]; source coordinates are the
    same shrunk by ``source_scale``. Sensors are drawn before the source.

    Raises:
        InvalidConfigError: ``n_sensors`` is not 4 or 5, or ``source_scale``
            is not finite and positive; nothing is drawn.
        DegenerateSamplingError: after MAX_SAMPLE_ATTEMPTS rejected draws.
    """
    if n_sensors not in (4, 5):
        raise InvalidConfigError(f"n_sensors must be 4 or 5, got {n_sensors}")
    if not 0.0 < source_scale < math.inf:
        raise InvalidConfigError(f"source_scale must be finite and positive, got {source_scale}")
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
    estimate lies within T of truth, and a numerical error otherwise. A
    forward model that overflows (a source too far out for finite range
    differences) is a numerical error at every threshold. Thresholds that
    :class:`ExperimentConfig` rejects raise its ``InvalidConfigError``.
    """
    thresholds = _positive_floats("thresholds", thresholds)
    try:
        estimate = localize(scenario.sensors, range_differences(scenario))
    except (LocalizationError, ValueError) as err:
        singular = isinstance(err, (SingularMatrixError, DegenerateDeltasError))
        cause = FailureCause.SINGULAR_GEOMETRY if singular else FailureCause.NUMERICAL_ERROR
        n = len(thresholds)
        return InstanceResult(None, str(err), None, (False,) * n, (cause,) * n)

    truth = scenario.source
    rel_error = _rel_error(estimate.position, truth)
    losing = min(
        (_rel_error(cand.position, truth) for cand in estimate.candidates
         if not np.array_equal(cand.position, estimate.position)),
        default=math.inf,
    )
    causes = tuple(_CAUSES[c] for c in _outcomes([rel_error], [losing], thresholds)[:, 0])
    return InstanceResult(estimate, None, rel_error, tuple(c is None for c in causes), causes)


def _rel_error(position: np.ndarray, truth: np.ndarray) -> float:
    """``|position - truth| / |truth|`` on Python floats, by ``measurement._dot``."""
    truth = truth.tolist()
    err = [p - t for p, t in zip(position.tolist(), truth)]
    err, truth_norm = math.sqrt(_dot(err, err)), math.sqrt(_dot(truth, truth))
    if truth_norm > 0.0:
        return err / truth_norm
    return 0.0 if err == 0.0 else math.inf


def run_sweep(config: ExperimentConfig) -> tuple[SweepCell, ...]:
    """Run every (scale, instance) cell of the sweep and aggregate: one
    ``SweepCell`` per (scale, threshold), ordered by scale index, then
    threshold index.

    Each batch of the flat index ``si * n_instances + ii`` takes one
    ``_streams.uniforms`` call, one ``_batch.solve_scale`` call per scale in
    it, reruns of the rows it cannot prove generic, and one ``np.bincount``
    per threshold. The tallies equal a one-by-one pass bit for bit, and
    memory does not grow with ``n_instances``.
    """
    # Imported here, not at module level, so that importing the package for
    # single solves (``tdoaloc locate``) does not load the batch code.
    from . import _batch, _streams

    n, ns, scales = config.n_instances, config.n_sensors, config.scale_grid
    k = len(_CAUSES)
    tallies = np.zeros((len(scales), len(config.thresholds), k), dtype=np.int64)
    for start in range(0, len(scales) * n, BATCH_ROWS):
        stop = min(start + BATCH_ROWS, len(scales) * n)
        # The batch's scales s0 .. s1 - 1, as runs (scale index, first, stop).
        s0, s1 = start // n, (stop - 1) // n + 1
        runs = [(si, max(start - si * n, 0), min(stop - si * n, n)) for si in range(s0, s1)]
        sizes = [last - first for _, first, last in runs]
        draws = np.split(_streams.uniforms(config.seed, runs, 3 * ns + 3), np.cumsum(sizes[:-1]))
        generic, _, rel_error, losing = map(np.concatenate, zip(*(
            _batch.solve_scale(part, ns, scales[si]) for si, part in zip(range(s0, s1), draws))))
        codes = _outcomes(rel_error, losing, config.thresholds)
        for row in np.flatnonzero(~generic).tolist():
            si, ii = divmod(start + row, n)
            scenario = sample_scenario(instance_rng(config.seed, si, ii), ns, scales[si])
            result = run_instance(scenario, config.thresholds)
            codes[:, row] = [_CAUSES.index(c) for c in result.failure_causes]
        # Each code offset by its row's scale within the batch, so that one
        # bincount per threshold counts the outcomes of every scale.
        codes += np.repeat(np.arange(0, k * (s1 - s0), k), sizes)
        for t, row_codes in enumerate(codes):
            tallies[s0:s1, t] += np.bincount(row_codes, minlength=k * (s1 - s0)).reshape(-1, k)
    return tuple(SweepCell(ns, scale, threshold, n_ok / n, *failures, n)
                 for scale, rows in zip(scales, tallies.tolist())
                 for threshold, (n_ok, *failures) in zip(config.thresholds, rows))
