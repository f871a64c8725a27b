"""Exact linear source localization from a five-sensor array.

Each measured range difference ties the source to one sheet of a hyperboloid
anchored on a sensor pair. Pairing two of those measurements eliminates the
unknown source-to-reference range and leaves an equation that is linear in
the source position; three such pairings give a 3x3 system solved directly.
No candidate ambiguity arises on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeltasError, NoRealSolutionError, SingularMatrixError
from .geom3 import _eliminate
from .measurement import (
    RangeDifferences,
    ReferencedArray,
    SensorArray,
    _frame,
    as_range_differences,
)
from .result import AmbiguityResolution, LocalizationResult, Method

# Relative (to the longest reference baseline) range-difference magnitude
# below which a row switches to the delta-cleared form. The literal row form
# divides by one of the range differences; the cleared form is the same
# equation multiplied through by that value and stays finite at zero.
EPS_DELTA = 1e-9

# Three sensor pairings (0-based indices, reference is 0) used to build the
# linear system. Each pairing (k, j) eliminates the reference range between
# the measurements of sensors k and j.
DEFAULT_PAIRINGS = ((2, 1), (3, 2), (4, 3))

_ALL_DEGENERATE = (
    "no sensor pairing yields a nonzero equation; the source is on a "
    "multi-sensor symmetry locus"
)


@dataclass(frozen=True)
class FiveSensorSystem:
    """Assembled 3x3 position system with its provenance flags."""

    matrix: np.ndarray  # (3, 3); row i comes from pairings[i]
    rhs: np.ndarray     # (3,)
    pairings: tuple[tuple[int, int], ...]
    scaled_rows: tuple[bool, bool, bool]  # True where the cleared form was used


# Pairing sets in the order they are tried: chains over the non-reference
# sensors, the default chain first, then its rotations and reversals. Any of
# these spans all four measurements; rotating recovers geometries where a
# particular pairing has two vanishing range differences.
PAIRING_FALLBACKS = tuple(
    tuple((chain[i + 1], chain[i]) for i in range(3))
    for rot in ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    for chain in (rot, rot[::-1])
)


def _build(r, sq, d, switch: float, pairings, row_form: str):
    """The system of one pairing set on Python floats (``r`` and ``sq`` are
    the referenced rows and their squared norms): ``(rows, scaled)``, the
    three augmented rows ``[matrix | rhs]`` as lists and which of them use
    the cleared form. None if a pairing has two vanishing range differences
    and so carries no position information.

    Raises:
        DegenerateDeltasError: forced literal rows divide by a range
            difference that is zero.
    """
    rows = []
    scaled = []
    for k, j in pairings:
        dk = d[k - 1]
        dj = d[j - 1]
        xk, yk, zk = r[k]
        xj, yj, zj = r[j]
        if row_form == "auto":
            if max(abs(dk), abs(dj)) < switch:
                return None
            use_literal = min(abs(dk), abs(dj)) >= switch
        else:
            use_literal = row_form == "literal"
            if use_literal and dj == 0.0:
                raise DegenerateDeltasError(
                    f"the literal row of pairing {(k, j)} divides by a zero range difference"
                )
        if use_literal:
            ratio = dk / dj
            rows.append([2.0 * (xk - ratio * xj), 2.0 * (yk - ratio * yj), 2.0 * (zk - ratio * zj),
                         -(dk * dk - ratio * dj * dj) + (sq[k] - ratio * sq[j])])
        else:
            rows.append([2.0 * (dj * xk - dk * xj), 2.0 * (dj * yk - dk * yj),
                         2.0 * (dj * zk - dk * zj),
                         -dk * dj * (dk - dj) + dj * sq[k] - dk * sq[j]])
        scaled.append(not use_literal)
    return rows, (scaled[0], scaled[1], scaled[2])


def build_five_sensor_system(
    rel: ReferencedArray,
    deltas: RangeDifferences,
    row_form: str = "auto",
) -> FiveSensorSystem:
    """Assemble the 3x3 linear system for the source position.

    The default pairing set is tried first and rotated alternatives are used
    if a pairing carries two vanishing range differences. ``row_form`` forces
    ``"literal"`` or ``"cleared"`` rows for both algebraically identical forms
    (testing hook); ``"auto"`` picks per row based on the range-difference
    magnitudes.

    Raises:
        DegenerateDeltasError: if every pairing set has a pairing whose two
            range differences vanish.
    """
    if row_form not in ("auto", "literal", "cleared"):
        raise ValueError(f"unknown row_form {row_form!r}")
    deltas = as_range_differences(deltas)
    if rel.rel_positions.shape[0] != 5 or deltas.n_sensors != 5:
        raise ValueError("five-sensor build needs 5 sensors and 4 range differences")
    r, d, switch = rel.rel_positions.tolist(), deltas.deltas.tolist(), EPS_DELTA * rel.baseline
    for pairings in PAIRING_FALLBACKS:
        built = _build(r, rel.sq, d, switch, pairings, row_form)
        if built is not None:
            rows, scaled = built
            system = np.array(rows)
            return FiveSensorSystem(matrix=system[:, :3], rhs=system[:, 3],
                                    pairings=pairings, scaled_rows=scaled)
    raise DegenerateDeltasError(_ALL_DEGENERATE)


def solve_five_sensor(sensors: SensorArray, deltas) -> LocalizationResult:
    """Localize a source from five sensors and four range differences.

    Returns a single estimate (no sign ambiguity on this path) with pivot
    diagnostics. Pairing sets are rotated if the default set is degenerate
    or yields a singular system. Runs on Python floats, as
    :func:`build_five_sensor_system` and ``solve3_pivoted`` compute.

    Raises:
        SingularMatrixError: sensor geometry leaves the system rank-deficient
            under every pairing set.
        DegenerateDeltasError: no pairing set yields informative equations.
        NoRealSolutionError: the range differences are too large for any
            finite position.
    """
    deltas = as_range_differences(deltas)
    if sensors.n_sensors != 5 or deltas.n_sensors != 5:
        raise ValueError("five-sensor solve needs 5 sensors and 4 range differences")
    rel, origin, sq, baseline = _frame(sensors.positions.tolist())

    d = deltas.deltas.tolist()
    switch = EPS_DELTA * baseline
    singular_err = None
    for attempt, pairings in enumerate(PAIRING_FALLBACKS):
        built = _build(rel, sq, d, switch, pairings, "auto")
        if built is None:
            continue
        rows, scaled = built
        try:
            (ref_position,), pivots = _eliminate(rows)
        except SingularMatrixError as err:
            # Without its traceback: that holds this frame, which would hold
            # the error, a cycle only the garbage collector frees.
            singular_err = err.with_traceback(None)
            continue
        position = [x + g for x, g in zip(ref_position, origin)]
        if not all(map(math.isfinite, position)):
            # Range differences far beyond every baseline overflow their squares.
            raise NoRealSolutionError(
                "range differences too large for the array: no finite position"
            )
        return LocalizationResult(np.array(position), Method.FIVE_SENSOR, (),
                                  AmbiguityResolution.NOT_APPLICABLE, False, {
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
