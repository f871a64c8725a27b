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

import numpy as np

from .errors import ScenarioFormatError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, default propagation speed

# Minimum pairwise sensor separation (m); coincident sensors make both
# solvers singular, so arrays are rejected at construction.
EPS_SEP = 1e-9

# Upper-triangle (i < j) index pairs per supported array size, for the batch sweep.
_SENSOR_PAIRS = {n: np.triu_indices(n, k=1) for n in (4, 5)}


def _as_positions(positions, name: str) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array, got shape {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError(f"{name} must be finite")
    return pos


def _squared_distances(rows, point) -> list[float]:
    """Squared distance from ``point`` to each row on Python floats, summed
    ``(x + y) + z`` as ``np.sum`` sums three entries: bit-identical to it."""
    px, py, pz = point
    return [((x - px) * (x - px) + (y - py) * (y - py)) + (z - pz) * (z - pz)
            for x, y, z in rows]


def _check_array(rows) -> None:
    if len(rows) not in (4, 5):
        raise ValueError(f"need exactly 4 or 5 sensors, got {len(rows)}")
    for i in range(len(rows) - 1):
        if min(_squared_distances(rows[i + 1:], rows[i])) <= EPS_SEP * EPS_SEP:
            raise ValueError(f"sensors closer than {EPS_SEP} m make the geometry singular")


def _set(record, **fields):
    """Set the checked ``fields`` of the frozen ``record``, arrays read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)
    return record


def _record(cls, **fields):
    """A ``cls`` record of already-checked fields: ``__post_init__`` does not run."""
    return _set(object.__new__(cls), **fields)


@dataclass(frozen=True)
class SensorArray:
    """Ordered absolute sensor positions; index 0 is the reference sensor."""

    positions: np.ndarray  # (n, 3), meters, n in {4, 5}

    def __post_init__(self):
        pos = _as_positions(self.positions, "sensor positions")
        _check_array(pos.tolist())
        _set(self, positions=pos)

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
        _set(self, rel_positions=rel, origin=np.asarray(self.origin, dtype=float))


@dataclass(frozen=True)
class RangeDifferences:
    """Measured range differences (meters) against the reference sensor.

    ``deltas[i]`` belongs to sensor ``i + 1`` of the array. Physically
    consistent values satisfy ``|deltas[i]| <= |sensor_{i+1} - sensor_0|``;
    that bound depends on the array and is not enforced here.
    """

    deltas: np.ndarray  # (n_sensors - 1,), meters

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.ndim != 1 or d.shape[0] not in (3, 4):
            raise ValueError(
                f"need 3 or 4 range differences (4- or 5-sensor array), got shape {d.shape}"
            )
        if not all(map(math.isfinite, d.tolist())):
            raise ValueError("range differences must be finite")
        _set(self, deltas=d)

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
        _check_clearance(self.sensors, src.tolist())
        _set(self, source=src)


def _check_clearance(sensors: SensorArray, source) -> None:
    if min(_squared_distances(sensors.positions.tolist(), source)) <= EPS_SEP * EPS_SEP:
        raise ValueError("source coincides with a sensor position")


def reference_frame(sensors: SensorArray) -> ReferencedArray:
    """Rebase the array on its reference sensor (sensor 0 at the origin)."""
    origin = sensors.positions[0].copy()
    return _record(ReferencedArray, rel_positions=sensors.positions - origin, origin=origin)


def true_ranges(scenario: Scenario) -> np.ndarray:
    """Distances (m) from the source to every sensor, reference first."""
    pos = scenario.sensors.positions.tolist()
    return np.sqrt(_squared_distances(pos, scenario.source.tolist()))


def range_differences(scenario: Scenario) -> RangeDifferences:
    """Noise-free forward model: range differences against the reference."""
    rho = true_ranges(scenario).tolist()
    return RangeDifferences(deltas=np.array([r - rho[0] for r in rho[1:]]))


def arrival_times_to_range_diffs(times, c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Convert absolute arrival times (s, reference first) to range
    differences (m) at propagation speed ``c`` (m/s). A product beyond the
    float range is inf, without a warning; ``RangeDifferences`` rejects it."""
    if not c > 0.0:
        raise ValueError(f"propagation speed must be positive, got {c}")
    t = np.asarray(times, dtype=float).tolist()
    return np.array([c * (v - t[0]) for v in t[1:]])


def unreference(position, origin) -> np.ndarray:
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


def _numbers(values, count: int, name: str) -> list[float]:
    """The JSON list of ``count`` numbers ``values`` as floats. Each must be
    an int or a float, not a bool (an int to Python) or a string, and finite:
    an int beyond the float range is rejected, not raised as OverflowError."""
    if type(values) is not list or len(values) != count:
        got = len(values) if type(values) is list else json.dumps(values)
        raise ValueError(f"{name} must be a list of {count} numbers, got {got}")
    floats = []
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise ValueError(f"{name} must hold numbers, got {json.dumps(v)}")
        try:
            floats.append(float(v))
        except OverflowError:
            floats.append(math.inf)
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} must hold finite numbers")
    return floats


def load_scenario(path) -> ScenarioDocument:
    """Parse and validate a scenario document. One pass converts and checks
    every value, and the records built from them are not checked again.

    Raises:
        ScenarioFormatError: on unreadable or malformed JSON, wrong arity,
            unknown keys, a value that is not a finite JSON number, or
            inconsistent values.
    """
    try:
        with open(path, "rb") as f:  # bytes: no pathlib or text-layer cost per file
            raw = json.loads(f.read().decode())
    except (OSError, ValueError) as err:  # ValueError: bad JSON, bad UTF-8, too many digits
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
        rows = raw["sensors"] if type(raw["sensors"]) is list else [raw["sensors"]]
        rows = [_numbers(row, 3, "each sensor") for row in rows]
        _check_array(rows)
    except ValueError as err:
        raise ScenarioFormatError(f"bad sensor list: {err}") from err
    sensors = _record(SensorArray, positions=np.array(rows))
    n = len(rows)

    source = deltas = None
    try:
        c = _numbers([raw.get("c", SPEED_OF_LIGHT)], 1, "'c'")[0]
        if not c > 0.0:
            raise ValueError(f"propagation speed must be positive, got {c}")
        if "source" in raw:
            source = np.array(_numbers(raw["source"], 3, "'source'"))
        elif "deltas" in raw:
            d = _numbers(raw["deltas"], n - 1, "'deltas'")
            deltas = _record(RangeDifferences, deltas=np.array(d))
        else:
            t = _numbers(raw["times"], n, "'times'")
            deltas = RangeDifferences(arrival_times_to_range_diffs(t, c))
    except ValueError as err:
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
    """Range differences for a document as ``load_scenario`` returns it: as
    given, or forward-modelled from its checked source.

    Raises:
        ScenarioFormatError: if the source sits on a sensor or is too far
            out for the forward model to stay finite.
    """
    if doc.deltas is not None:
        return doc.deltas
    try:
        _check_clearance(doc.sensors, doc.source.tolist())
        # A source too far out overflows to non-finite range differences,
        # which RangeDifferences rejects.
        return range_differences(_record(Scenario, sensors=doc.sensors, source=doc.source))
    except ValueError as err:
        raise ScenarioFormatError(f"bad source: {err}") from err
