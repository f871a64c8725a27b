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
from .measurement import (
    RangeDifferences,
    ReferencedArray,
    SensorArray,
    as_range_differences,
    reference_frame,
    unreference,
)
from .geom3 import solve3_pivoted
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


def _build(r, sq, d, switch: float, pairings, row_form: str) -> FiveSensorSystem:
    # Python floats: r and sq are the referenced rows and their squared norms.
    rows = []
    rhs = []
    scaled = []
    for k, j in pairings:
        dk = d[k - 1]
        dj = d[j - 1]
        if row_form == "auto":
            if max(abs(dk), abs(dj)) < switch:
                raise DegenerateDeltasError(
                    f"both range differences vanish for sensor pairing ({k}, {j}); "
                    "the pairing carries no position information"
                )
            use_literal = min(abs(dk), abs(dj)) >= switch
        else:
            use_literal = row_form == "literal"
        if use_literal:
            ratio = dk / dj
            rows += [2.0 * (a - ratio * b) for a, b in zip(r[k], r[j])]
            rhs.append(-(dk * dk - ratio * dj * dj) + (sq[k] - ratio * sq[j]))
        else:
            rows += [2.0 * (dj * a - dk * b) for a, b in zip(r[k], r[j])]
            rhs.append(-dk * dj * (dk - dj) + dj * sq[k] - dk * sq[j])
        scaled.append(not use_literal)
    return FiveSensorSystem(
        matrix=np.array(rows).reshape(3, 3),
        rhs=np.array(rhs),
        pairings=tuple(pairings),
        scaled_rows=(scaled[0], scaled[1], scaled[2]),
    )


def _pairing_systems(rel: ReferencedArray, deltas: np.ndarray, row_form: str):
    """Yield ``(attempt, system)`` for each pairing set of PAIRING_FALLBACKS
    that is not degenerate, where ``attempt`` is the set's index.

    Raises:
        DegenerateDeltasError: if every pairing set is degenerate.
    """
    r = rel.rel_positions
    sq = np.einsum("ij,ij->i", r, r).tolist()
    switch = EPS_DELTA * math.sqrt(max(sq[1:]))
    rows = r.tolist()
    d = deltas.tolist()
    found = False
    last_err = None
    for attempt, pairings in enumerate(PAIRING_FALLBACKS):
        try:
            system = _build(rows, sq, d, switch, pairings, row_form)
        except DegenerateDeltasError as err:
            # Without its traceback: that holds this frame, which would hold
            # the error, a cycle only the garbage collector frees.
            last_err = err.with_traceback(None)
            continue
        found = True
        yield attempt, system
    if not found:
        raise DegenerateDeltasError(
            "no sensor pairing yields a nonzero equation; the source is on a "
            "multi-sensor symmetry locus"
        ) from last_err


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
        DegenerateDeltasError: if no pairing set yields three informative rows.
    """
    if row_form not in ("auto", "literal", "cleared"):
        raise ValueError(f"unknown row_form {row_form!r}")
    deltas = as_range_differences(deltas)
    if rel.rel_positions.shape[0] != 5 or deltas.n_sensors != 5:
        raise ValueError("five-sensor build needs 5 sensors and 4 range differences")
    _, system = next(_pairing_systems(rel, deltas.deltas, row_form))
    return system


def solve_five_sensor(sensors: SensorArray, deltas) -> LocalizationResult:
    """Localize a source from five sensors and four range differences.

    Returns a single estimate (no sign ambiguity on this path) with pivot
    diagnostics. Pairing sets are rotated if the default set is degenerate
    or yields a singular system.

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
    rel = reference_frame(sensors)

    singular_err = None
    for attempt, system in _pairing_systems(rel, deltas.deltas, "auto"):
        try:
            ref_position, pivots = solve3_pivoted(system.matrix, system.rhs)
        except SingularMatrixError as err:
            singular_err = err.with_traceback(None)  # no cycle, as in _pairing_systems
            continue
        position = unreference(ref_position, rel.origin)
        if not all(map(math.isfinite, position.tolist())):
            # Range differences far beyond every baseline overflow their squares.
            raise NoRealSolutionError(
                "range differences too large for the array: no finite position"
            )
        return LocalizationResult(
            position=position,
            method=Method.FIVE_SENSOR,
            candidates=(),
            ambiguity_resolved_by=AmbiguityResolution.NOT_APPLICABLE,
            diagnostics={
                "pivots": pivots,
                "pivot_ratio": min(pivots) / max(pivots),
                "pairings": system.pairings,
                "scaled_rows": system.scaled_rows,
                "pairing_retries": attempt,
            },
        )
    raise SingularMatrixError(
        f"five-sensor position system is singular for every pairing set: {singular_err}"
    ) from singular_err
