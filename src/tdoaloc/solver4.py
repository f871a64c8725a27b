"""Exact source localization from a four-sensor array.

With only three range differences the source position is pinned to a line
parameterized by the unknown source-to-reference range: solving the 3x3
system for the three measurements gives ``position = range * slope - offset``.
Requiring the position to be consistent with that same range yields a
quadratic whose (up to two) nonnegative roots are candidate solutions. When
both candidates satisfy the unsquared equations, the measurements are met
exactly by two positions: the result is flagged ``ambiguous`` and the
smaller-range candidate is kept. Otherwise the candidate whose re-predicted
range differences have the smaller squared mismatch is kept.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateLinearError, NoCandidatesError, NoRealSolutionError
from .geom3 import solve3_pivoted
from .measurement import SensorArray, _frame, _readonly, as_range_differences, as_sensor_array
from .result import Candidate, LocalizationResult, Method

# Tolerances separating analytic degeneracy from round-off. EPS_LIN detects a
# vanishing quadratic leading coefficient; EPS_DISC clamps a barely negative
# discriminant to tangency; EPS_RHO (relative to the longest baseline) clamps
# barely negative range roots to zero and bounds how far below zero a
# candidate's implied sensor range may fall and still count as admissible.
# EPS_TIE breaks a tie between the residuals of two candidates (first root
# kept); an ``ambiguous`` pair keeps the first root whatever its residuals.
EPS_LIN = 1e-12
EPS_DISC = 1e-9
EPS_RHO_REL = 1e-12
EPS_TIE = 1e-9


# The straight-line rules below (_line_rows, _coefficients, _point,
# _residual) take Python floats or numpy columns alike: the sweep batch runs
# them on (N,) columns, or (2, N) for its two candidates, in the same
# operations and order.


def _line_rows(rel, sq, d) -> list[list[float]]:
    """The four-sensor system (``rel`` the referenced rows, ``sq`` their
    squared norms, ``d`` the range differences): per non-reference sensor
    the augmented row of the matrix, the range vector and the constant
    vector, ``[-2 x, -2 y, -2 z, 2 d, sq - d * d]``."""
    _, (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = rel
    (_, s1, s2, s3), (d1, d2, d3) = sq, d
    return [[-2.0 * x1, -2.0 * y1, -2.0 * z1, 2.0 * d1, s1 - d1 * d1],
            [-2.0 * x2, -2.0 * y2, -2.0 * z2, 2.0 * d2, s2 - d2 * d2],
            [-2.0 * x3, -2.0 * y3, -2.0 * z3, 2.0 * d3, s3 - d3 * d3]]


def _coefficients(slope, offset) -> tuple:
    """``(xx, a, b_half, c, discriminant)`` of the reference-range quadratic
    of the line ``r * slope - offset``: ``xx = slope . slope``, ``a = xx - 1``,
    ``b_half = slope . offset``, ``c = offset . offset`` and
    ``b_half^2 - a*c``, each dot the plain sum of ``measurement._dot``."""
    (sx, sy, sz), (ox, oy, oz) = slope, offset
    xx = (sx * sx + sy * sy) + sz * sz
    b_half = (sx * ox + sy * oy) + sz * oz
    c_coef = (ox * ox + oy * oy) + oz * oz
    a = xx - 1.0
    return xx, a, b_half, c_coef, b_half * b_half - a * c_coef


def _point(rho, slope, offset, origin) -> list:
    """The absolute position ``rho * slope - offset + origin`` on the line."""
    (sx, sy, sz), (ox, oy, oz), (gx, gy, gz) = slope, offset, origin
    return [rho * sx - ox + gx, rho * sy - oy + gy, rho * sz - oz + gz]


def _residual(point, rel, origin, d, sqrt):
    """The squared mismatch ``(m1*m1 + m2*m2) + m3*m3`` between the range
    differences re-predicted at the absolute ``point`` and ``d``; ``sqrt`` is
    ``math.sqrt`` on floats and ``np.sqrt`` on columns."""
    _, (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = rel
    (px, py, pz), (gx, gy, gz), (d1, d2, d3) = point, origin, d
    # Ranges from the point in the referenced frame, whose row 0 is zero.
    px, py, pz = px - gx, py - gy, pz - gz
    r0 = sqrt((px * px + py * py) + pz * pz)
    ex, ey, ez = x1 - px, y1 - py, z1 - pz
    m1 = (sqrt((ex * ex + ey * ey) + ez * ez) - r0) - d1
    ex, ey, ez = x2 - px, y2 - py, z2 - pz
    m2 = (sqrt((ex * ex + ey * ey) + ez * ez) - r0) - d2
    ex, ey, ez = x3 - px, y3 - py, z3 - pz
    m3 = (sqrt((ex * ex + ey * ey) + ez * ez) - r0) - d3
    return (m1 * m1 + m2 * m2) + m3 * m3


def _retain(values, eps_rho: float) -> tuple[float, ...]:
    # Negative beyond round-off is nonphysical; barely negative clamps to 0.
    kept = set()
    for v in values:
        if v >= -eps_rho:
            kept.add(v if v >= 0.0 else 0.0)
    return tuple(sorted(kept))


def _quadratic(slope, offset, baseline: float) -> tuple:
    """Solve the reference-range quadratic ``a*r^2 - 2*b_half*r + c = 0``
    of the candidate line ``r * slope - offset``, on Python floats.

    Returns ``(a, b_half, c, roots, discriminant, linear_fallback)``: the
    retained nonnegative roots ascending, and the raw discriminant
    ``b_half^2 - a*c`` before clamping. The larger-magnitude root is
    computed with the sign-matched numerator and the other via the root
    product, avoiding cancellation near tangency.

    Raises:
        NoRealSolutionError: discriminant negative beyond round-off
            (range differences inconsistent with the geometry).
        DegenerateLinearError: leading coefficient vanishes and no unique
            linear root exists.
    """
    # Python floats overflow to inf, and inf * 0 is NaN, silently; no such root is kept.
    xx, a, b_half, c_coef, disc = _coefficients(slope, offset)

    linear = abs(a) < EPS_LIN * (xx + 1.0)
    if linear:
        # b_half = 0 leaves 0 = c, which has no unique root.
        root = c_coef / (2.0 * b_half) if b_half != 0.0 else math.nan
        if not math.isfinite(root):
            raise DegenerateLinearError(
                "reference-range equation degenerated to 0 = c with no unique root"
            )
        values = (root,)
    else:
        used = disc
        if used < 0.0:
            if used >= -EPS_DISC * b_half * b_half:
                used = 0.0  # tangency within round-off
            else:
                raise NoRealSolutionError(
                    f"reference-range quadratic has no real root "
                    f"(discriminant {disc:.3e}); range differences are inconsistent"
                )
        if used == 0.0:
            values = (b_half / a,)
        else:
            sqrt_disc = math.sqrt(used)
            q = b_half + sqrt_disc if b_half >= 0.0 else b_half - sqrt_disc
            values = (q / a, c_coef / q)
    return a, b_half, c_coef, _retain(values, EPS_RHO_REL * baseline), disc, linear


def _resolve(candidates, rel, origin, d, baseline: float, diagnostics: dict) -> LocalizationResult:
    """Score candidates, ``(rho, position)`` pairs ascending in range with
    each absolute position a list of floats, by their re-predicted
    range-difference mismatch and pick one, as :func:`solve_four_sensor`
    describes; the result keeps each position as a read-only array, and the
    ``diagnostics`` dict.

    Raises:
        NoCandidatesError: the retained-root list was empty.
    """
    if not candidates:
        raise NoCandidatesError(
            "no nonnegative reference-range root; no candidate positions to score"
        )
    scored = []
    for rho, pos in candidates:
        scored.append(Candidate(float(rho), _readonly(np.array(pos)),
                                _residual(pos, rel, origin, d, math.sqrt)))

    best, ambiguous = 0, False
    if len(scored) == 2:
        r0, r1 = scored[0].residual, scored[1].residual
        # The smaller rho + d_i against the admissibility slack below zero. Two
        # exact solutions, or a residual tie, keep the first (smaller-rho) one.
        ambiguous = scored[0].reference_range + min(d) >= -EPS_RHO_REL * baseline
        tie = abs(r0 - r1) <= EPS_TIE * max(abs(r0), abs(r1))
        best = 1 if r1 < r0 and not (ambiguous or tie) else 0
    return LocalizationResult(scored[best].position, Method.FOUR_SENSOR, tuple(scored), ambiguous,
                              diagnostics)


def solve_four_sensor(sensors: SensorArray, deltas) -> LocalizationResult:
    """Localize a source from four sensors and three range differences.

    ``sensors`` is a :class:`SensorArray` or an array-like of its rows. Each
    stage is straight-line arithmetic on unpacked Python floats: the 3x3
    solve for the candidate line, the quadratic in the reference range, and
    the pick among its candidates. Every dot product is the plain sum
    ``(x0*y0 + x1*y1) + x2*y2``; none goes through BLAS.

    The result is flagged ``ambiguous`` exactly when two candidates are
    admissible: a candidate at reference range ``rho`` is admissible when
    ``rho + d_i >= -EPS_RHO_REL * baseline`` for every range difference
    ``d_i``, the condition under which a root of the squared equations also
    solves the unsquared ones. Two admissible candidates are then two exact
    solutions of the measurements, whose residuals are both round-off, so
    the smaller-range one is kept: a pick that rotation, translation, change
    of units and reordering of the non-reference sensors leave as it is.
    Otherwise the smaller residual decides (the first candidate on a tie
    within ``EPS_TIE``). Every candidate, with its residual, is retained so
    callers holding priors can re-select.

    ``diagnostics`` holds the elimination ``pivots`` and ``pivot_ratio``,
    the ``quadratic`` coefficients ``(a, b_half, c)``, its raw
    ``discriminant`` and whether it fell back to its ``linear_fallback``.

    Raises:
        ValueError: the array does not have 4 sensors, or there are not 3
            range differences, or ``sensors`` is not a valid array.
        SingularMatrixError: the three non-reference sensors do not span 3D.
        NoRealSolutionError: the quadratic has no real root (range
            differences inconsistent with the geometry).
        DegenerateLinearError: the quadratic degenerates with no unique root.
        NoCandidatesError: no nonnegative reference-range root.
    """
    sensors = as_sensor_array(sensors)
    deltas = as_range_differences(deltas)
    if sensors.n_sensors != 4 or deltas.n_sensors != 4:
        raise ValueError("four-sensor solve needs 4 sensors and 3 range differences")
    d = deltas.deltas.tolist()
    rel, origin, sq, baseline = _frame(sensors.positions.tolist())
    (slope, offset), pivots = solve3_pivoted(_line_rows(rel, sq, d))
    a, b_half, c_coef, roots, disc, linear = _quadratic(slope, offset, baseline)
    # Loops here and in _resolve: on Python 3.11 a comprehension makes the
    # locals it reads closure cells, about 1 us more per solve.
    candidates = []
    for rho in roots:
        candidates.append((rho, _point(rho, slope, offset, origin)))
    return _resolve(candidates, rel, origin, d, baseline, {
        "pivots": pivots,
        "pivot_ratio": min(pivots) / max(pivots),
        "quadratic": (a, b_half, c_coef),
        "discriminant": disc,
        "linear_fallback": linear,
    })
