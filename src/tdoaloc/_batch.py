"""Batch scoring of sweep instances for :func:`tdoaloc.montecarlo.run_sweep`.

The instances of one sweep scale run as the rows of numpy arrays: each
coordinate, matrix entry or right-hand side is an ``(N,)`` column. Every
straight-line rule is the solvers' own helper, called on columns, so a row
gets ``run_instance``'s result bit for bit. This module keeps the pivoted
3x3 elimination, where a row swap is a ``np.where`` between columns, and
the branches, as masks: a row is generic when the scalar path would take
no branch but the plain one. Every other row is left to the scalar path,
so each edge case keeps its one, scalar, implementation.
"""

from __future__ import annotations

import math

import numpy as np

from .geom3 import EPS_RANK
from .measurement import EPS_SEP, _dot
from .solver4 import EPS_LIN, EPS_RHO_REL, EPS_TIE, _coefficients, _line_rows, _point, _residual
from .solver5 import DEFAULT_PAIRINGS, EPS_DELTA, _literal_row

# Upper-triangle (i < j) index pairs per supported array size.
_SENSOR_PAIRS = {n: np.triu_indices(n, k=1) for n in (4, 5)}
# The sensors k (row 0) and j (row 1) of the default five-sensor pairings (k, j).
_PAIRS = np.array(DEFAULT_PAIRINGS).T


def _sq_norm3(diff: np.ndarray) -> np.ndarray:
    """``(x * x + y * y) + z * z`` over axis -2 of ``diff``, squared in place."""
    np.square(diff, out=diff)
    total = diff[..., 0, :] + diff[..., 1, :]
    total += diff[..., 2, :]
    return total


def _eliminate(s: np.ndarray, col: int) -> None:
    """Eliminate column ``col`` below its pivot row, in place."""
    f = s[col + 1:, col] / s[col, col]
    # The scalar solve skips a zero factor; subtracting 0 * x could still
    # flip the sign of a zero entry.
    below = s[col + 1:, col + 1:]
    np.copyto(below, below - f[:, None] * s[col, col + 1:], where=(f != 0.0)[:, None])


def _solve3(system: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve3_pivoted`` per row on augmented systems ``[a | b]``, a
    ``(3, 3 + k, N)`` array of columns, which it overwrites. Returns the
    ``(3, k, N)`` solutions and an ``(N,)`` mask of the rows whose every pivot
    passed the rank test (the others raise in the scalar solve)."""
    s = system
    mag = np.abs(s[:, :3])
    # fmax skips NaNs, as Python's max does after a first entry that is not
    # NaN; a NaN first entry fails the first pivot test either way.
    tol = np.maximum(EPS_RANK * np.fmax.reduce(mag.reshape(9, -1), axis=0), math.ulp(0.0))
    # A later row takes the pivot only when strictly larger.
    to1 = mag[1, 0] > mag[0, 0]
    to2 = mag[2, 0] > np.where(to1, mag[1, 0], mag[0, 0])
    to1 &= ~to2
    pivot_row = np.where(to2, s[2], np.where(to1, s[1], s[0]))
    s[1:] = np.where(np.array((to1, to2))[:, None], s[0], s[1:])
    s[0] = pivot_row
    _eliminate(s, 0)
    swap = np.abs(s[2, 1]) > np.abs(s[1, 1])
    s[1:, 1:] = np.where(swap, s[2:0:-1, 1:], s[1:, 1:])
    _eliminate(s, 1)
    # The pivots are the diagonal, which later steps leave as it was.
    ok = (np.abs(s[(0, 1, 2), (0, 1, 2)]) >= tol).all(axis=0)
    x2 = s[2, 3:] / s[2, 2]
    x1 = (s[1, 3:] - s[1, 2] * x2) / s[1, 1]
    x0 = (s[0, 3:] - s[0, 1] * x1 - s[0, 2] * x2) / s[0, 0]
    return np.array((x0, x1, x2)), ok


def _rel_error(position: np.ndarray, truth: np.ndarray, truth_norm: np.ndarray) -> np.ndarray:
    err = position - truth
    return np.sqrt(_dot(err, err)) / truth_norm


def _four_sensor(rel, sq, origin, d, source, truth_norm):
    """Generic four-sensor rows: line solve, quadratic, candidates, pick."""
    line, generic = _solve3(np.array(_line_rows(rel, sq, d)))
    slope, offset = line[:, 0], line[:, 1]
    xx, a, b_half, c_coef, disc = _coefficients(slope, offset)
    # A vanishing leading coefficient (linear fallback) and a discriminant
    # at or below zero (tangency, clamp or no real root) go to the scalar path.
    generic &= ~(np.abs(a) < EPS_LIN * (xx + 1.0)) & (disc > 0.0)
    sqrt_disc = np.sqrt(disc)
    q = np.where(b_half >= 0.0, b_half + sqrt_disc, b_half - sqrt_disc)
    roots = np.array((q / a, c_coef / q))

    # A root is kept when nonnegative and dropped when below -eps_rho; one in
    # between is clamped to zero, and two equal roots merge, which the scalar
    # path handles, as it does a row with no root kept.
    eps_rho = EPS_RHO_REL * np.sqrt(np.max(sq[1:], axis=0))
    kept = roots >= 0.0
    two = kept[0] & kept[1]
    generic &= np.isfinite(roots).all(axis=0) & kept.any(axis=0) & ~(two & (roots[0] == roots[1]))
    generic &= (kept | (roots < -eps_rho)).all(axis=0)
    # Candidates in ascending range, (3, 2, N); the second exists where ``two``.
    first = np.where(two, roots.min(axis=0), np.where(kept[0], roots[0], roots[1]))
    pos = np.array(_point(np.array((first, roots.max(axis=0))), slope, offset, origin))
    r0, r1 = _residual(pos, rel, origin, d, np.sqrt)
    generic &= np.isfinite(r0) & np.isfinite(r1)
    # Two admissible candidates keep the first (smaller range); otherwise the
    # first minimum wins, and so does the first candidate on a tie.
    ambiguous = two & (first + d.min(axis=0) >= -eps_rho)
    tie = np.abs(r0 - r1) <= EPS_TIE * np.maximum(np.abs(r0), np.abs(r1))
    pick_second = two & (r1 < r0) & ~tie & ~ambiguous
    position = np.where(pick_second, pos[:, 1], pos[:, 0])
    other = np.where(pick_second, pos[:, 0], pos[:, 1])
    has_other = two & (other != position).any(axis=0)
    losing = np.where(has_other, _rel_error(other, source, truth_norm), np.inf)
    return generic, position, losing


def _five_sensor(rel, sq, origin, d):
    """Generic five-sensor rows: the default pairing set in literal form."""
    dk, dj = d[_PAIRS - 1]
    # A range difference below the switch means a cleared row or a pairing
    # retry, both left to the scalar path.
    switch = EPS_DELTA * np.sqrt(np.max(sq[1:], axis=0))
    generic = (np.minimum(np.abs(dk), np.abs(dj)) >= switch).all(axis=0)
    # The rows of sensors k and j, coordinates first, one entry per pairing.
    x, solved = _solve3(np.stack(_literal_row(
        *rel[_PAIRS].transpose(0, 2, 1, 3), *sq[_PAIRS], dk, dj), axis=1))
    return generic & solved, x[:, 0] + origin, np.full(d.shape[1], np.inf)


def solve_scale(draws: np.ndarray, n_sensors: int, source_scale: float):
    """Sample, forward-model, solve and score a batch of one scale's instances.

    ``draws`` holds one row per instance: the first ``3 * n_sensors + 3``
    uniforms of its generator, the sensors and then the source of
    ``sample_scenario``'s first draw. ``draws.T`` is read as columns. For a
    whole ``_streams.uniforms`` batch of one scale it is C-contiguous and is
    read with no copy; the per-scale parts that ``run_sweep`` splits off a
    batch that spans scales are strided, so ``np.ascontiguousarray`` copies
    them.

    Returns ``(generic, position, rel_error, losing)`` per instance: whether
    the row is generic, the ``(N, 3)`` estimate, its relative error, and the
    least relative error of another candidate (inf if none). Only generic
    rows hold results; the others must be run through the scalar path.
    """
    n = n_sensors
    cols = np.ascontiguousarray(draws.T)
    with np.errstate(all="ignore"):
        sensors = cols[: 3 * n].reshape(n, 3, -1) - 0.5
        source = source_scale * (cols[3 * n:] - 0.5)

        # Rows that sampling could reject go to the scalar path, which
        # redraws them. The margin of 4 in squared distance keeps any
        # rounding difference from mattering.
        floor = 4.0 * EPS_SEP * EPS_SEP
        i, j = _SENSOR_PAIRS[n]
        gap2 = _sq_norm3(sensors - source)
        pair2 = _sq_norm3(sensors[i] - sensors[j]).min(axis=0)
        generic = (pair2 > floor) & (gap2.min(axis=0) > floor)

        # The forward model: the same squared gaps give the true ranges.
        rho = np.sqrt(gap2)
        d = rho[1:] - rho[0]
        origin = sensors[0].copy()
        rel = np.subtract(sensors, origin, out=sensors)  # the sensors are not read again
        x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
        sq = (x * x + z * z) + y * y
        truth_norm = np.sqrt(_dot(source, source))
        generic &= truth_norm > 0.0

        if n == 5:
            solved, position, losing = _five_sensor(rel, sq, origin, d)
        else:
            solved, position, losing = _four_sensor(rel, sq, origin, d, source, truth_norm)
        rel_error = _rel_error(position, source, truth_norm)
        generic &= solved & np.isfinite(rel_error)
    return generic, position.T, rel_error, losing
