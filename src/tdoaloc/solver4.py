"""Exact source localization from a four-sensor array.

With only three range differences the source position is pinned to a line
parameterized by the unknown source-to-reference range: solving the 3x3
system for the three measurements gives ``position = range * slope - offset``.
Requiring the position to be consistent with that same range yields a
quadratic whose (up to two) nonnegative roots are candidate solutions; the
remaining sign ambiguity is resolved by re-predicting the range differences
for each candidate and keeping the one with the smaller squared mismatch.
When both candidates satisfy the unsquared equations, the measurements are
met exactly by two positions and the result is flagged ``ambiguous``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLinearError,
    NoCandidatesError,
    NoRealSolutionError,
)
from .measurement import (
    RangeDifferences,
    ReferencedArray,
    SensorArray,
    _squared_distances,
    as_range_differences,
    reference_frame,
)
from .geom3 import solve3_pivoted
from .result import AmbiguityResolution, Candidate, LocalizationResult, Method

# Tolerances separating analytic degeneracy from round-off. EPS_LIN detects a
# vanishing quadratic leading coefficient; EPS_DISC clamps a barely negative
# discriminant to tangency; EPS_RHO (relative to the longest baseline) clamps
# barely negative range roots to zero and bounds how far below zero a
# candidate's implied sensor range may fall and still count as admissible.
# EPS_TIE only breaks the selection tie between two residuals (first root
# kept); it plays no part in the ``ambiguous`` flag.
EPS_LIN = 1e-12
EPS_DISC = 1e-9
EPS_RHO_REL = 1e-12
EPS_TIE = 1e-9


@dataclass(frozen=True)
class FourSensorSystem:
    """Assembled four-sensor system and the solved candidate-line vectors."""

    matrix: np.ndarray        # (3, 3): doubled, negated sensor offsets
    range_vector: np.ndarray  # (3,): doubled range differences
    const_vector: np.ndarray  # (3,): squared baselines minus squared deltas
    slope: np.ndarray         # (3,): position change per unit reference range
    offset: np.ndarray        # (3,): candidate line is range*slope - offset
    baseline: float           # longest reference baseline, m
    pivots: tuple[float, float, float]


@dataclass(frozen=True)
class QuadraticRoots:
    """Reference-range quadratic ``a*r^2 - 2*b_half*r + c_coef = 0``."""

    a: float
    b_half: float
    c_coef: float
    roots: tuple[float, ...]  # retained nonnegative roots, ascending
    discriminant: float       # raw b_half^2 - a*c_coef before clamping
    linear_fallback: bool


def build_four_sensor_system(
    rel: ReferencedArray, deltas: RangeDifferences
) -> FourSensorSystem:
    """Assemble the linear system tying the position to the reference range.

    Raises:
        SingularMatrixError: the three non-reference sensors do not span 3D
            (rank-deficient geometry).
    """
    deltas = as_range_differences(deltas)
    if rel.rel_positions.shape[0] != 4 or deltas.n_sensors != 4:
        raise ValueError("four-sensor build needs 4 sensors and 3 range differences")
    r = rel.rel_positions
    sq = np.einsum("ij,ij->i", r, r).tolist()[1:]
    d = deltas.deltas.tolist()

    matrix = -2.0 * r[1:]
    # Rows: the range vector, then the constant vector.
    rhs = np.array([[2.0 * v for v in d], [s - v * v for s, v in zip(sq, d)]])
    line, pivots = solve3_pivoted(matrix, rhs.T)
    slope, offset = line.T
    return FourSensorSystem(
        matrix=matrix,
        range_vector=rhs[0],
        const_vector=rhs[1],
        slope=slope,
        offset=offset,
        baseline=math.sqrt(max(sq)),
        pivots=pivots,
    )


def _retain(values, eps_rho: float) -> tuple[float, ...]:
    # Negative beyond round-off is nonphysical; barely negative clamps to 0.
    kept = set()
    for v in values:
        if v >= 0.0:
            kept.add(v)
        elif v >= -eps_rho:
            kept.add(0.0)
    return tuple(sorted(kept))


def solve_reference_range(system: FourSensorSystem) -> QuadraticRoots:
    """Solve the quadratic for the source-to-reference range.

    The larger-magnitude root is computed with the sign-matched numerator and
    the other via the root product, avoiding cancellation near tangency.

    Raises:
        NoRealSolutionError: discriminant negative beyond round-off
            (range differences inconsistent with the geometry).
        DegenerateLinearError: leading coefficient vanishes and no unique
            linear root exists.
    """
    xi = system.slope
    eta = system.offset
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite roots are dropped below
        xx = float(xi @ xi)
        b_half = float(xi @ eta)
        c_coef = float(eta @ eta)
    a = xx - 1.0
    disc = b_half * b_half - a * c_coef
    eps_rho = EPS_RHO_REL * system.baseline

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
    return QuadraticRoots(a=a, b_half=b_half, c_coef=c_coef, roots=_retain(values, eps_rho),
                          discriminant=disc, linear_fallback=linear)


def candidate_positions(
    system: FourSensorSystem, roots: QuadraticRoots, origin
) -> list[tuple[float, np.ndarray]]:
    """Map retained range roots to absolute candidate positions."""
    line = list(zip(system.slope.tolist(), system.offset.tolist(),
                    np.asarray(origin, dtype=float).tolist()))
    return [(rho, np.array([rho * s - o + g for s, o, g in line])) for rho in roots.roots]


def resolve_ambiguity(
    candidates: list[tuple[float, np.ndarray]],
    rel: ReferencedArray,
    deltas: RangeDifferences,
) -> LocalizationResult:
    """Score candidates by re-predicted range-difference mismatch, keep the best.

    Every candidate (with its residual) is retained in the result so callers
    holding priors can re-select. On a residual tie within ``EPS_TIE`` the
    first (smallest-range) candidate is kept; determinism matters more than
    an arbitrary choice there.

    The result is flagged ``ambiguous`` exactly when two candidates are
    admissible: a candidate at reference range ``rho`` is admissible when
    ``rho + d_i >= -EPS_RHO_REL * baseline`` for every range difference
    ``d_i``, the condition under which a root of the squared equations also
    solves the unsquared ones. Two admissible candidates are then two exact
    solutions of the measurements, which no residual can tell apart.

    Raises:
        NoCandidatesError: the retained-root list was empty.
    """
    deltas = as_range_differences(deltas)
    if not candidates:
        raise NoCandidatesError(
            "no nonnegative reference-range root; no candidate positions to score"
        )
    d = deltas.deltas.tolist()
    rows = rel.rel_positions.tolist()
    origin = rel.origin.tolist()
    scored = []
    for rho, pos in candidates:
        rel_pos = [p - g for p, g in zip(np.asarray(pos, dtype=float).tolist(), origin)]
        ranges = [math.sqrt(v) for v in _squared_distances(rows, rel_pos)]
        # The residual stays a numpy dot, which rounds unlike a Python sum.
        mismatch = np.array([(r - ranges[0]) - v for r, v in zip(ranges[1:], d)])
        residual = float(mismatch @ mismatch)
        scored.append(Candidate(reference_range=float(rho), position=pos, residual=residual))

    best = min(range(len(scored)), key=lambda i: scored[i].residual)
    ambiguous = False
    if len(scored) == 1:
        resolved = AmbiguityResolution.SINGLE_ROOT
    else:
        resolved = AmbiguityResolution.RESIDUAL
        r0, r1 = scored[0].residual, scored[1].residual
        if abs(r0 - r1) <= EPS_TIE * max(abs(r0), abs(r1)):
            best = 0
        # Smallest rho + d_i over both candidates. The baseline-relative slack
        # matters only when it is negative; row 0 of the referenced array is
        # zero, so the largest row norm is the longest baseline.
        margin = min(c.reference_range for c in scored) + min(d)
        ambiguous = margin >= 0.0
        if not ambiguous:
            sq = np.einsum("ij,ij->i", rel.rel_positions, rel.rel_positions)
            ambiguous = margin >= -EPS_RHO_REL * math.sqrt(float(np.max(sq)))
    return LocalizationResult(
        position=scored[best].position,
        method=Method.FOUR_SENSOR,
        candidates=tuple(scored),
        ambiguity_resolved_by=resolved,
        ambiguous=ambiguous,
    )


def solve_four_sensor(sensors: SensorArray, deltas) -> LocalizationResult:
    """Localize a source from four sensors and three range differences.

    Raises:
        SingularMatrixError, NoRealSolutionError, DegenerateLinearError,
        NoCandidatesError: see the individual pipeline steps.
    """
    deltas = as_range_differences(deltas)
    if sensors.n_sensors != 4 or deltas.n_sensors != 4:
        raise ValueError("four-sensor solve needs 4 sensors and 3 range differences")
    rel = reference_frame(sensors)
    system = build_four_sensor_system(rel, deltas)
    roots = solve_reference_range(system)
    candidates = candidate_positions(system, roots, rel.origin)
    result = resolve_ambiguity(candidates, rel, deltas)
    # The result's own, fresh dict: filled in place, not copied.
    result.diagnostics.update(
        pivots=system.pivots,
        pivot_ratio=min(system.pivots) / max(system.pivots),
        quadratic=(roots.a, roots.b_half, roots.c_coef),
        discriminant=roots.discriminant,
        linear_fallback=roots.linear_fallback,
    )
    return result
