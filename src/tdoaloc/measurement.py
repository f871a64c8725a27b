"""Forward model and frame bookkeeping for range-difference localization.

Converts absolute sensor/source geometry into the reference-frame quantities
the solvers consume, computes range differences, and converts
arrival-time differences to range differences. Also owns the scenario
document format shared with the CLI.

Conventions: positions are meters, index 0 of a sensor array is the reference
sensor, and range differences are stored in meters (time-to-range conversion
is an explicit separate step so acoustic and EM data share one solver path).
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .errors import ScenarioFormatError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, default propagation speed

# Minimum pairwise sensor separation (m); coincident sensors make both
# solvers singular, so arrays are rejected at construction.
EPS_SEP = 1e-9


def _dot(x, y) -> float:
    """``(x0 * y0 + x1 * y1) + x2 * y2``, on Python floats or, in the sweep
    batch, on numpy columns: the one dot of both paths."""
    return (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def _check_array(rows) -> None:
    if len(rows) not in (4, 5):
        raise ValueError(f"need exactly 4 or 5 sensors, got {len(rows)}")
    # Each pair's squared distance, summed as _forward sums.
    for (a, b, c), (x, y, z) in combinations(rows, 2):
        if ((x - a) * (x - a) + (y - b) * (y - b)) + (z - c) * (z - c) <= EPS_SEP * EPS_SEP:
            raise ValueError(f"sensors closer than {EPS_SEP} m make the geometry singular")


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``: the one way an array enters a
    record, so a record keeps the values it checked and never shares, or
    freezes, an array of its caller."""
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


def _checked(cls, name: str, values):
    """A ``cls`` record whose one field ``name`` is a read-only array of the
    floats ``values``, which have already passed ``cls``'s checks: its
    constructor, which would check them again, does not run."""
    record = object.__new__(cls)
    object.__setattr__(record, name, _frozen(values))
    return record


@dataclass(frozen=True)
class SensorArray:
    """Ordered absolute sensor positions; index 0 is the reference sensor."""

    positions: np.ndarray  # (n, 3), meters, n in {4, 5}

    def __post_init__(self):
        pos = _frozen(self.positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(
                f"sensor positions must be an (n, 3) array, got shape {pos.shape}"
            )
        rows = pos.tolist()
        if not all([math.isfinite(v) for row in rows for v in row]):
            raise ValueError("sensor positions must be finite")
        _check_array(rows)
        object.__setattr__(self, "positions", pos)

    @property
    def n_sensors(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class RangeDifferences:
    """Measured range differences (meters) against the reference sensor.

    ``deltas[i]`` belongs to sensor ``i + 1`` of the array. Physically
    consistent values satisfy ``|deltas[i]| <= |sensor_{i+1} - sensor_0|``;
    that bound depends on the array and is not enforced here.
    """

    deltas: np.ndarray  # (n_sensors - 1,), meters

    def __post_init__(self):
        d = _frozen(self.deltas)
        if d.ndim != 1 or d.shape[0] not in (3, 4):
            raise ValueError(
                f"need 3 or 4 range differences (4- or 5-sensor array), got shape {d.shape}"
            )
        if not all(map(math.isfinite, d.tolist())):
            raise ValueError("range differences must be finite")
        object.__setattr__(self, "deltas", d)

    @property
    def n_sensors(self) -> int:
        return self.deltas.shape[0] + 1


def as_sensor_array(sensors) -> SensorArray:
    """Coerce an array-like of sensor rows into :class:`SensorArray`."""
    if isinstance(sensors, SensorArray):
        return sensors
    return SensorArray(sensors)


def as_range_differences(deltas) -> RangeDifferences:
    """Coerce an array-like into :class:`RangeDifferences`."""
    if isinstance(deltas, RangeDifferences):
        return deltas
    return RangeDifferences(deltas)


@dataclass(frozen=True)
class Scenario:
    """A sensor array (or its rows) plus the true source position (for forward modelling)."""

    sensors: SensorArray
    source: np.ndarray  # (3,), absolute, meters

    def __post_init__(self):
        object.__setattr__(self, "sensors", as_sensor_array(self.sensors))
        src = _frozen(self.source)
        if src.shape != (3,):
            raise ValueError(f"source must be a 3-vector, got shape {src.shape}")
        point = src.tolist()
        if not all(map(math.isfinite, point)):
            raise ValueError("source position must be finite")
        _forward(self.sensors.positions.tolist(), point)  # the clearance check
        object.__setattr__(self, "source", src)


def _forward(rows, point) -> list[float]:
    """The forward model on Python floats, in one pass over the sensor rows:
    the range differences of ``point`` against row 0, each squared distance
    summed ``(x + y) + z`` as ``np.sum`` sums three entries (bit-identical to
    it). Raises ValueError if ``point`` is within EPS_SEP of a row."""
    px, py, pz = point
    d, r0 = [], None
    for x, y, z in rows:
        sq = ((x - px) * (x - px) + (y - py) * (y - py)) + (z - pz) * (z - pz)
        if sq <= EPS_SEP * EPS_SEP:
            raise ValueError("source coincides with a sensor position")
        if r0 is None:
            r0 = math.sqrt(sq)
        else:
            d.append(math.sqrt(sq) - r0)
    return d


def _frame(rows) -> tuple[list, list, tuple[float, ...], float]:
    """The reference frame both solvers assemble their rows in, on Python
    floats: the sensor rows rebased on row 0 (the reference sensor), that
    row (the origin), the squared norms (the squared baselines) and the
    longest baseline.

    Each squared norm is ``(x * x + z * z) + y * y``, the order in which
    numpy's ``einsum`` ``"ij,ij->i"`` sums a 3-vector, so it equals that einsum bit
    for bit. Row 0 is zero, so the largest squared norm is the longest
    baseline's. This sum is the one rule of the solves that the sweep batch
    writes out again, on columns it rebases in place; for the others it
    calls the solvers' helpers.
    """
    origin = rows[0]
    ox, oy, oz = origin
    rel, sq = [], []
    for x, y, z in rows:
        x, y, z = x - ox, y - oy, z - oz
        rel.append([x, y, z])
        sq.append((x * x + z * z) + y * y)
    return rel, origin, tuple(sq), math.sqrt(max(sq))


def range_differences(scenario: Scenario | ScenarioDocument) -> RangeDifferences:
    """Noise-free forward model: range differences against the reference,
    of a scenario or of a document with a source. Raises ValueError if the
    source sits on a sensor (a document's source is not checked for that
    on loading) or if a range overflows (a source beyond about 1e154 m)."""
    d = _forward(scenario.sensors.positions.tolist(), scenario.source.tolist())
    if not all(map(math.isfinite, d)):
        raise ValueError("range differences must be finite")
    return _checked(RangeDifferences, "deltas", d)


def arrival_times_to_range_diffs(times, c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Convert absolute arrival times (s, reference first) to range
    differences (m) at propagation speed ``c`` (m/s). A product beyond the
    float range is inf, without a warning; ``RangeDifferences`` rejects it."""
    if not c > 0.0:
        raise ValueError(f"propagation speed must be positive, got {c}")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"arrival times must be a 1-D sequence, got shape {t.shape}")
    t = t.tolist()
    return np.array([c * (v - t[0]) for v in t[1:]])


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
_WHITESPACE = " \t\n\r"  # what JSON skips between tokens
_decode = json.JSONDecoder().raw_decode  # json.loads's decoder, without its wrapper
_QUOTE_CHARS = 40  # the most of an offending value that an error message quotes


@dataclass(frozen=True)
class ScenarioDocument:
    """Parsed scenario file: sensors plus either a truth source or deltas, all read-only."""

    sensors: SensorArray
    source: np.ndarray | None
    deltas: RangeDifferences | None


def _clip(text: str) -> str:
    """``text`` cut to ``_QUOTE_CHARS`` characters, for an error message that
    quotes part of a document: a document can nest or repeat without end."""
    return text if len(text) <= _QUOTE_CHARS else text[:_QUOTE_CHARS - 3] + "..."


def _numbers(values, count: int, name: str) -> list[float]:
    """The JSON list of ``count`` numbers ``values`` as floats. Each must be
    an int or a float, not a bool (an int to Python) or a string, and finite:
    an int beyond the float range is rejected, not raised as OverflowError.
    A list of floats with a finite sum, so each finite, is returned as it is."""
    if type(values) is not list or len(values) != count:
        got = len(values) if type(values) is list else _clip(json.dumps(values))
        raise ValueError(f"{name} must be a list of {count} numbers, got {got}")
    if all(map(isinstance, values, repeat(float))) and math.isfinite(sum(values)):
        return values
    floats = []
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise ValueError(f"{name} must hold numbers, got {_clip(json.dumps(v))}")
        try:
            floats.append(float(v))
        except OverflowError:
            floats.append(math.inf)
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} must hold finite numbers")
    return floats


def _read(path) -> bytes:
    """The bytes of the file at ``path``, by unbuffered reads of its
    descriptor: no file object. Raises OSError as ``open(path, "rb")`` and
    ``read()`` would, with the same message."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, 1 << 14)
        while more := os.read(fd, 1 << 14):
            data += more
        return data
    except IsADirectoryError:  # open() refuses a directory by name; read() gives none
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path)) from None
    finally:
        os.close(fd)


def load_scenario(path) -> ScenarioDocument:
    """Parse and validate a scenario document. One read takes the file, one
    decoder call parses it, accepting and rejecting text as ``json.loads``
    does, one pass converts and checks every value, and each record is built
    once from the checked values, with no further check.

    Raises:
        ScenarioFormatError: on unreadable or malformed JSON, wrong arity,
            unknown keys, a value that is not a finite JSON number, or
            inconsistent values.
    """
    try:
        text = _read(path).decode()
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw, end = _decode(text, len(text) - len(text.lstrip(_WHITESPACE)))
        if rest := text[end:].lstrip(_WHITESPACE):
            raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
    # ValueError: bad JSON, bad UTF-8, too many digits; RecursionError: too deep nesting.
    except (OSError, ValueError, RecursionError) as err:
        raise ScenarioFormatError(f"cannot parse scenario document: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    if not raw.keys() <= _DOCUMENT_KEYS:
        unknown = _clip(str(sorted(raw.keys() - _DOCUMENT_KEYS)))
        raise ScenarioFormatError(f"unknown scenario keys: {unknown}")
    if "sensors" not in raw:
        raise ScenarioFormatError("scenario document is missing 'sensors'")

    # Every key is known and 'sensors' is one of them: the rest but 'c' are kinds.
    if len(raw) - ("c" in raw) != 2:
        given = [k for k in ("source", "deltas", "times") if k in raw]
        raise ScenarioFormatError(
            "exactly one of 'source', 'deltas' or 'times' must be present, "
            f"got {given or 'none'}"
        )

    try:
        rows = raw["sensors"] if type(raw["sensors"]) is list else [raw["sensors"]]
        # Three floats with a finite sum, so each finite, pass as _numbers would pass them.
        if not all([type(r) is list and len(r) == 3 and type(r[0]) is type(r[1]) is type(r[2])
                    is float and math.isfinite(r[0] + r[1] + r[2]) for r in rows]):
            rows = [_numbers(row, 3, "each sensor") for row in rows]
        _check_array(rows)
    except (ValueError, RecursionError) as err:  # RecursionError: json.dumps of a deep value
        raise ScenarioFormatError(f"bad sensor list: {err}") from err
    sensors = _checked(SensorArray, "positions", rows)
    n = len(rows)

    source = deltas = None
    try:
        c = _numbers([raw["c"]], 1, "'c'")[0] if "c" in raw else SPEED_OF_LIGHT
        if not c > 0.0:
            raise ValueError(f"propagation speed must be positive, got {c}")
        if "source" in raw:
            source = _frozen(_numbers(raw["source"], 3, "'source'"))
        else:
            if "deltas" in raw:
                d = _numbers(raw["deltas"], n - 1, "'deltas'")
            else:
                # arrival_times_to_range_diffs, inline; a product beyond the
                # float range is inf, which the check below rejects.
                t = _numbers(raw["times"], n, "'times'")
                d = [c * (v - t[0]) for v in t[1:]]
                if not all(map(math.isfinite, d)):
                    raise ValueError("range differences must be finite")
            deltas = _checked(RangeDifferences, "deltas", d)
    except (ValueError, RecursionError) as err:
        raise ScenarioFormatError(str(err)) from err

    return ScenarioDocument(sensors, source, deltas)


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
    given, or ``range_differences`` of its source.

    Raises:
        ScenarioFormatError: if the source sits on a sensor or is too far
            out for the forward model to stay finite.
    """
    if doc.deltas is not None:
        return doc.deltas
    try:
        return range_differences(doc)
    except ValueError as err:
        raise ScenarioFormatError(f"bad source: {err}") from err
