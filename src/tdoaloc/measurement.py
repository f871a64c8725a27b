"""Forward model and frame bookkeeping for range-difference localization.

Converts absolute sensor/source geometry into the reference-frame quantities
the solvers consume, computes true ranges and range differences, and converts
arrival-time differences to range differences. Also owns the scenario
document format shared with the CLI.

Conventions: positions are meters, index 0 of a sensor array is the reference
sensor, and range differences are stored in meters (time-to-range conversion
is an explicit separate step so acoustic and EM data share one solver path).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ScenarioFormatError
from .geom3 import Vec3

SPEED_OF_LIGHT = 299_792_458.0  # m/s, default propagation speed

# Minimum pairwise sensor separation (m); coincident sensors make both
# solvers singular, so arrays are rejected at construction.
EPS_SEP = 1e-9

# Upper-triangle (i < j) index pairs for each supported array size.
_SENSOR_PAIRS = {n: np.triu_indices(n, k=1) for n in (4, 5)}


def _as_positions(positions, name: str) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array, got shape {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError(f"{name} must be finite")
    return pos


@dataclass(frozen=True)
class SensorArray:
    """Ordered absolute sensor positions; index 0 is the reference sensor."""

    positions: np.ndarray  # (n, 3), meters, n in {4, 5}

    def __post_init__(self):
        pos = _as_positions(self.positions, "sensor positions")
        n = pos.shape[0]
        if n not in (4, 5):
            raise ValueError(f"need exactly 4 or 5 sensors, got {n}")
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        if float(np.min(d2[_SENSOR_PAIRS[n]])) <= EPS_SEP * EPS_SEP:
            raise ValueError(
                f"sensors closer than {EPS_SEP} m make the geometry singular"
            )
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_sensors(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ReferencedArray:
    """Sensor positions relative to the reference sensor, plus the origin."""

    rel_positions: np.ndarray  # (n, 3); row 0 is exactly zero
    origin: np.ndarray  # (3,), the absolute reference-sensor position

    def __post_init__(self):
        rel = _as_positions(self.rel_positions, "relative positions")
        if np.any(rel[0] != 0.0):
            raise ValueError("relative positions must place the reference at zero")
        origin = np.asarray(self.origin, dtype=float)
        rel.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "rel_positions", rel)
        object.__setattr__(self, "origin", origin)


@dataclass(frozen=True)
class RangeDifferences:
    """Measured range differences (meters) against the reference sensor.

    ``deltas[i]`` belongs to sensor ``i + 1`` of the array. Physically
    consistent values satisfy ``|deltas[i]| <= |sensor_{i+1} - sensor_0|``;
    that bound depends on the array and is not enforced here.
    """

    deltas: np.ndarray  # (n_sensors - 1,), meters

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        if d.ndim != 1 or d.shape[0] not in (3, 4):
            raise ValueError(
                f"need 3 or 4 range differences (4- or 5-sensor array), got shape {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("range differences must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "deltas", d)

    @property
    def n_sensors(self) -> int:
        return self.deltas.shape[0] + 1


def as_range_differences(deltas) -> RangeDifferences:
    """Coerce an array-like into :class:`RangeDifferences`."""
    if isinstance(deltas, RangeDifferences):
        return deltas
    return RangeDifferences(np.asarray(deltas, dtype=float))


@dataclass(frozen=True)
class Scenario:
    """A sensor array plus the true source position (for forward modelling)."""

    sensors: SensorArray
    source: np.ndarray  # (3,), absolute, meters

    def __post_init__(self):
        src = np.asarray(self.source, dtype=float)
        if src.shape != (3,):
            raise ValueError(f"source must be a 3-vector, got shape {src.shape}")
        if not np.all(np.isfinite(src)):
            raise ValueError("source position must be finite")
        gap = self.sensors.positions - src
        if float(np.min(np.sum(gap * gap, axis=1))) <= EPS_SEP * EPS_SEP:
            raise ValueError("source coincides with a sensor position")
        src.setflags(write=False)
        object.__setattr__(self, "source", src)


def reference_frame(sensors: SensorArray) -> ReferencedArray:
    """Rebase the array on its reference sensor (sensor 0 at the origin)."""
    origin = sensors.positions[0].copy()
    return ReferencedArray(rel_positions=sensors.positions - origin, origin=origin)


def true_ranges(scenario: Scenario) -> np.ndarray:
    """Distances (m) from the source to every sensor, reference first."""
    diff = scenario.sensors.positions - scenario.source
    return np.sqrt(np.sum(diff * diff, axis=1))


def range_differences(scenario: Scenario) -> RangeDifferences:
    """Noise-free forward model: range differences against the reference."""
    rho = true_ranges(scenario)
    return RangeDifferences(deltas=rho[1:] - rho[0])


def tdoa_to_range_diff(dt: float, c: float = SPEED_OF_LIGHT) -> float:
    """Convert an arrival-time difference (s) to a range difference (m)."""
    if not c > 0.0:
        raise ValueError(f"propagation speed must be positive, got {c}")
    return c * dt


def arrival_times_to_range_diffs(times, c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Convert absolute arrival times (s, reference first) to range diffs."""
    t = np.asarray(times, dtype=float)
    return np.array([tdoa_to_range_diff(float(tk - t[0]), c) for tk in t[1:]])


def unreference(position, origin) -> Vec3:
    """Map a reference-frame position back to absolute coordinates."""
    return np.asarray(position, dtype=float) + np.asarray(origin, dtype=float)


# ---------------------------------------------------------------------------
# Scenario documents (shared with the CLI)
#
# JSON object with keys:
#   sensors: [[x, y, z], ...]        required, 4 or 5 entries, meters
#   source:  [x, y, z]               optional truth position, meters
#   deltas:  [d21, d31, ...]         optional range differences, meters
#   times:   [t1, t2, ...]           optional absolute arrival times, seconds
#   c:       propagation speed, m/s  optional, default SPEED_OF_LIGHT
# Exactly one of source/deltas/times must be present.
# ---------------------------------------------------------------------------

_DOCUMENT_KEYS = {"sensors", "source", "deltas", "times", "c"}


@dataclass(frozen=True)
class ScenarioDocument:
    """Parsed scenario file: sensors plus either a truth source or deltas."""

    sensors: SensorArray
    source: np.ndarray | None
    deltas: RangeDifferences | None
    c: float = SPEED_OF_LIGHT


def load_scenario(path) -> ScenarioDocument:
    """Parse and validate a scenario document.

    Raises:
        ScenarioFormatError: on malformed JSON, wrong arity, unknown keys,
            or inconsistent values.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioFormatError(f"cannot parse scenario document: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    unknown = set(raw) - _DOCUMENT_KEYS
    if unknown:
        raise ScenarioFormatError(f"unknown scenario keys: {sorted(unknown)}")
    if "sensors" not in raw:
        raise ScenarioFormatError("scenario document is missing 'sensors'")

    given = [k for k in ("source", "deltas", "times") if k in raw]
    if len(given) != 1:
        raise ScenarioFormatError(
            "exactly one of 'source', 'deltas' or 'times' must be present, "
            f"got {given or 'none'}"
        )

    try:
        sensors = SensorArray(np.asarray(raw["sensors"], dtype=float))
    except (TypeError, ValueError) as err:
        raise ScenarioFormatError(f"bad sensor list: {err}") from err
    n = sensors.n_sensors

    source = None
    deltas = None
    try:
        raw_c = raw.get("c", SPEED_OF_LIGHT)
        if isinstance(raw_c, bool):
            raise ValueError(f"propagation speed must be a number, got {raw_c}")
        c = float(raw_c)
        if not 0.0 < c < math.inf:
            raise ValueError(f"propagation speed must be positive and finite, got {c}")
        if "source" in raw:
            source = np.asarray(raw["source"], dtype=float)
            if source.shape != (3,) or not np.all(np.isfinite(source)):
                raise ValueError("source must be a finite 3-vector")
        elif "deltas" in raw:
            d = np.asarray(raw["deltas"], dtype=float)
            if d.shape != (n - 1,):
                raise ValueError(
                    f"expected {n - 1} range differences for {n} sensors, got {d.shape[0]}"
                )
            deltas = RangeDifferences(d)
        else:
            t = np.asarray(raw["times"], dtype=float)
            if t.shape != (n,):
                raise ValueError(
                    f"expected {n} arrival times for {n} sensors, got {t.shape[0]}"
                )
            deltas = RangeDifferences(arrival_times_to_range_diffs(t, c))
    except (TypeError, ValueError) as err:
        raise ScenarioFormatError(str(err)) from err

    return ScenarioDocument(sensors=sensors, source=source, deltas=deltas, c=c)


def write_scenario(out, scenario: Scenario) -> None:
    """Write a scenario (with truth source) as a scenario document to the
    text stream ``out``."""
    doc = {
        "sensors": [[float(v) for v in row] for row in scenario.sensors.positions],
        "source": [float(v) for v in scenario.source],
    }
    out.write(json.dumps(doc, indent=2) + "\n")


def document_deltas(doc: ScenarioDocument) -> RangeDifferences:
    """Range differences for a document: as given, or forward-modelled.

    Raises:
        ScenarioFormatError: if the source sits on a sensor or is too far
            out for the forward model to stay finite.
    """
    if doc.deltas is not None:
        return doc.deltas
    try:
        # A source too far out overflows to non-finite range differences,
        # which RangeDifferences rejects; numpy need not warn as well.
        with np.errstate(over="ignore", invalid="ignore"):
            return range_differences(Scenario(sensors=doc.sensors, source=doc.source))
    except ValueError as err:
        raise ScenarioFormatError(f"bad source: {err}") from err
