"""Exact linear source localization from a five-sensor array.

Each measured range difference ties the source to one sheet of a hyperboloid
anchored on a sensor pair. Pairing two of those measurements eliminates the
unknown source-to-reference range and leaves an equation that is linear in
the source position; three such pairings give a 3x3 system solved directly.
No candidate ambiguity arises on this path.
"""

from __future__ import annotations

import math

from .errors import DegenerateDeltasError, NoRealSolutionError, SingularMatrixError
from .geom3 import solve3_pivoted
from .measurement import SensorArray, _frame, _frozen, as_range_differences, as_sensor_array
from .result import LocalizationResult, Method

# Relative (to the longest reference baseline) range-difference magnitude
# below which a row switches to the delta-cleared form. The literal row form
# divides by one of the range differences; the cleared form is the same
# equation multiplied through by that value and stays finite at zero.
EPS_DELTA = 1e-9

_ALL_DEGENERATE = (
    "no sensor pairing yields a nonzero equation; the source is on a "
    "multi-sensor symmetry locus"
)


# Pairing sets in the order they are tried: chains over the non-reference
# sensors, the default chain first, then its rotations and reversals. Any of
# these spans all four measurements; rotating recovers geometries where a
# particular pairing has two vanishing range differences.
PAIRING_FALLBACKS = tuple(
    tuple((chain[i + 1], chain[i]) for i in range(3))
    for rot in ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    for chain in (rot, rot[::-1])
)
# Three sensor pairings (0-based indices, reference is 0) used to build the
# linear system. Each pairing (k, j) eliminates the reference range between
# the measurements of sensors k and j. The default chain 1, 2, 3, 4,
# ((2, 1), (3, 2), (4, 3)), is the one set the sweep kernel (``_batch``) solves.
DEFAULT_PAIRINGS = PAIRING_FALLBACKS[0]


def _literal_row(rk, rj, sk, sj, dk, dj) -> list:
    """Pairing (k, j)'s augmented row ``[matrix | rhs]`` in the literal form,
    which divides by ``dj`` (``rk``, ``rj`` the referenced rows of sensors k
    and j, ``sk``, ``sj`` their squared norms, ``dk``, ``dj`` their range
    differences), on Python floats or, in the sweep batch, on numpy columns."""
    (xk, yk, zk), (xj, yj, zj) = rk, rj
    ratio = dk / dj
    return [2.0 * (xk - ratio * xj), 2.0 * (yk - ratio * yj), 2.0 * (zk - ratio * zj),
            -(dk * dk - ratio * dj * dj) + (sk - ratio * sj)]


def _cleared_row(rk, rj, sk, sj, dk, dj) -> list:
    """The literal row multiplied through by ``dj``: finite at zero."""
    (xk, yk, zk), (xj, yj, zj) = rk, rj
    return [2.0 * (dj * xk - dk * xj), 2.0 * (dj * yk - dk * yj), 2.0 * (dj * zk - dk * zj),
            -dk * dj * (dk - dj) + dj * sk - dk * sj]


def _build(r, sq, d, switch: float, pairings):
    """The system of one pairing set on Python floats (``r`` and ``sq`` are
    the referenced rows and their squared norms): ``(rows, scaled)``, the
    three augmented rows ``[matrix | rhs]`` as lists and which of them use
    the cleared form, which a row takes when either of its range differences
    is below ``switch`` in magnitude. None if a pairing has two such range
    differences and so carries no position information."""
    rows = []
    scaled = []
    for k, j in pairings:
        dk = d[k - 1]
        dj = d[j - 1]
        ak, aj = abs(dk), abs(dj)
        if ak < switch and aj < switch:
            return None
        literal = ak >= switch and aj >= switch
        rows.append((_literal_row if literal else _cleared_row)(r[k], r[j], sq[k], sq[j], dk, dj))
        scaled.append(not literal)
    return rows, (scaled[0], scaled[1], scaled[2])


def solve_five_sensor(sensors: SensorArray, deltas) -> LocalizationResult:
    """Localize a source from five sensors and four range differences.

    Returns a single estimate (no sign ambiguity on this path) with pivot
    diagnostics. Pairing sets are rotated if the default set is degenerate
    or yields a singular system. Runs on Python floats. ``sensors`` is a
    :class:`SensorArray` or an array-like of its rows.

    ``diagnostics`` holds the elimination ``pivots`` and ``pivot_ratio``,
    the ``pairings`` solved, which rows use the cleared form
    (``scaled_rows``) and how many pairing sets were passed over before
    them (``pairing_retries``).

    Raises:
        ValueError: the array does not have 5 sensors, or there are not 4
            range differences, or ``sensors`` is not a valid array.
        SingularMatrixError: sensor geometry leaves the system rank-deficient
            under every pairing set.
        DegenerateDeltasError: no pairing set yields informative equations.
        NoRealSolutionError: the range differences are too large for any
            finite position.
    """
    sensors = as_sensor_array(sensors)
    deltas = as_range_differences(deltas)
    if sensors.n_sensors != 5 or deltas.n_sensors != 5:
        raise ValueError("five-sensor solve needs 5 sensors and 4 range differences")
    rel, (gx, gy, gz), sq, baseline = _frame(sensors.positions.tolist())

    d = deltas.deltas.tolist()
    switch = EPS_DELTA * baseline
    singular_err = None
    for attempt, pairings in enumerate(PAIRING_FALLBACKS):
        built = _build(rel, sq, d, switch, pairings)
        if built is None:
            continue
        rows, scaled = built
        try:
            ((x, y, z),), pivots = solve3_pivoted(rows)
        except SingularMatrixError as err:
            # Without its traceback: that holds this frame, which would hold
            # the error, a cycle only the garbage collector frees.
            singular_err = err.with_traceback(None)
            continue
        x, y, z = x + gx, y + gy, z + gz
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            # Range differences far beyond every baseline overflow their squares.
            raise NoRealSolutionError(
                "range differences too large for the array: no finite position"
            )
        return LocalizationResult(_frozen([x, y, z]), Method.FIVE_SENSOR, (), False, {
            "pivots": pivots,
            "pivot_ratio": min(pivots) / max(pivots),
            "pairings": pairings,
            "scaled_rows": scaled,
            "pairing_retries": attempt,
        })
    if singular_err is None:  # every pairing set was degenerate
        raise DegenerateDeltasError(_ALL_DEGENERATE)
    raise SingularMatrixError(
        f"five-sensor position system is singular for every pairing set: {singular_err}"
    ) from singular_err
