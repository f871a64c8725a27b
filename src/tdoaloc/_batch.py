"""Batch scoring of sweep instances for :func:`tdoaloc.montecarlo.run_sweep`.

The solvers are closed-form, so the instances of one sweep scale can run as
the rows of numpy arrays. This module transcribes the generic path of the
scalar pipeline (sampling, forward model, solver, scoring) with, per row,
the floating-point operations the scalar code performs, so every result it
returns is bit-identical to ``run_instance``'s:

- elementwise arithmetic keeps the scalar order of operations;
- each row reduction calls the numpy routine the scalar code calls, with a
  batch axis in front (``np.sum`` for ``np.sum``, ``np.einsum`` for
  ``np.einsum``), and every 1-D ``@`` and ``np.linalg.norm`` becomes
  :func:`_row_dot`, which rounds like the 1-D ``@``.

A row is generic when the scalar path would take no branch but the plain
one: the first draw is valid, every elimination pivot passes the rank test,
four-sensor rows have a positive discriminant and one or two distinct,
unclamped nonnegative roots, and five-sensor rows build the default pairing
set in the literal row form. Every other row is marked for the scalar path,
so each edge case keeps its one, scalar, implementation.
"""

from __future__ import annotations

import numpy as np

from .geom3 import EPS_RANK
from .measurement import EPS_SEP
from .solver4 import EPS_LIN, EPS_RHO_REL, EPS_TIE
from .solver5 import DEFAULT_PAIRINGS, EPS_DELTA

# Upper-triangle (i < j) index pairs per supported array size.
_SENSOR_PAIRS = {n: np.triu_indices(n, k=1) for n in (4, 5)}


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two ``(N, k)`` arrays.

    A stacked matmul of ``(1, k)`` by ``(k, 1)`` goes through the same dot
    kernel as the 1-D ``x @ y``, so each row rounds as the scalar code does;
    ``einsum`` and ``sum(x * y)`` accumulate in other orders.
    """
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _solve3(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve3_pivoted`` on ``(N, 3, 3)`` matrices and ``(N, 3, k)`` right-hand
    sides: the same pivot choice, rank test and elimination per row.

    Returns the ``(N, 3, k)`` solutions and an ``(N,)`` mask of the rows
    whose every pivot passed the rank test (the others raise in the scalar
    solve, and their solutions are meaningless).
    """
    a = matrix.copy()
    b = rhs.copy()
    rows = np.arange(len(a))
    scale = np.max(np.abs(a), axis=(1, 2))
    tol = EPS_RANK * scale
    ok = scale != 0.0
    for col in range(3):
        p = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        piv = a[rows, p, col]
        ok &= np.abs(piv) >= tol
        a[rows, p], a[:, col] = a[:, col].copy(), a[rows, p]
        b[rows, p], b[:, col] = b[:, col].copy(), b[rows, p]
        for r in range(col + 1, 3):
            f = a[:, r, col] / piv
            # The scalar solve skips a zero factor; subtracting 0 * x could
            # still flip the sign of a zero entry.
            skip = (f == 0.0)[:, None]
            fc = f[:, None]
            a[:, r, col + 1:] = np.where(
                skip, a[:, r, col + 1:], a[:, r, col + 1:] - fc * a[:, col, col + 1:]
            )
            b[:, r] = np.where(skip, b[:, r], b[:, r] - fc * b[:, col])
    x2 = b[:, 2] / a[:, 2, 2, None]
    x1 = (b[:, 1] - a[:, 1, 2, None] * x2) / a[:, 1, 1, None]
    x0 = (b[:, 0] - a[:, 0, 1, None] * x1 - a[:, 0, 2, None] * x2) / a[:, 0, 0, None]
    return np.stack((x0, x1, x2), axis=1), ok


def _rel_error(position: np.ndarray, truth: np.ndarray, truth_norm: np.ndarray) -> np.ndarray:
    err = position - truth
    return np.sqrt(_row_dot(err, err)) / truth_norm


def _four_sensor(rel, origin, d, source, truth_norm):
    """Generic four-sensor rows: line solve, quadratic, candidates, pick."""
    sq = np.einsum("nij,nij->ni", rel, rel)
    rhs = np.stack((2.0 * d, sq[:, 1:] - d * d), axis=2)
    line, generic = _solve3(-2.0 * rel[:, 1:], rhs)
    # Contiguous rows, like the scalar slope and offset, for the same dot kernel.
    slope = np.ascontiguousarray(line[:, :, 0])
    offset = np.ascontiguousarray(line[:, :, 1])

    xx = _row_dot(slope, slope)
    a = xx - 1.0
    b_half = _row_dot(slope, offset)
    c_coef = _row_dot(offset, offset)
    disc = b_half * b_half - a * c_coef
    # A vanishing leading coefficient (linear fallback) and a discriminant
    # at or below zero (tangency, clamp or no real root) go to the scalar path.
    generic &= ~(np.abs(a) < EPS_LIN * (xx + 1.0)) & (disc > 0.0)
    sqrt_disc = np.sqrt(disc)
    q = np.where(b_half >= 0.0, b_half + sqrt_disc, b_half - sqrt_disc)
    roots = np.stack((q / a, c_coef / q), axis=1)

    # A root is kept when nonnegative and dropped when below -eps_rho; one in
    # between is clamped to zero, and two equal roots merge, which the scalar
    # path handles, as it does a row with no root kept.
    eps_rho = EPS_RHO_REL * np.sqrt(np.max(sq[:, 1:], axis=1))
    kept = roots >= 0.0
    two = kept.all(axis=1)
    generic &= (
        np.isfinite(roots).all(axis=1)
        & (kept | (roots < -eps_rho[:, None])).all(axis=1)
        & kept.any(axis=1)
        & ~(two & (roots[:, 0] == roots[:, 1]))
    )
    # Candidates in ascending range; the second exists where ``two``.
    first = np.where(two, roots.min(axis=1), np.where(kept[:, 0], roots[:, 0], roots[:, 1]))
    second = roots.max(axis=1)
    pos = [r[:, None] * slope - offset + origin for r in (first, second)]

    residual = []
    for p in pos:
        diff = rel - (p - origin)[:, None, :]
        ranges = np.sqrt(np.sum(diff * diff, axis=2))
        mismatch = (ranges[:, 1:] - ranges[:, :1]) - d
        residual.append(_row_dot(mismatch, mismatch))
    r0, r1 = residual
    generic &= np.isfinite(r0) & np.isfinite(r1)
    # The first minimum wins, and so does the first candidate on a tie.
    tie = np.abs(r0 - r1) <= EPS_TIE * np.maximum(np.abs(r0), np.abs(r1))
    pick_second = two & (r1 < r0) & ~tie
    position = np.where(pick_second[:, None], pos[1], pos[0])
    other = np.where(pick_second[:, None], pos[0], pos[1])
    losing = np.where(
        two & (other != position).any(axis=1),
        _rel_error(other, source, truth_norm),
        np.inf,
    )
    return generic, position, losing


def _five_sensor(rel, origin, d):
    """Generic five-sensor rows: the default pairing set in literal form."""
    sq = np.einsum("nij,nij->ni", rel, rel)
    switch = EPS_DELTA * np.sqrt(np.max(sq[:, 1:], axis=1))
    generic = np.ones(len(rel), dtype=bool)
    rows = []
    rhs = []
    for k, j in DEFAULT_PAIRINGS:
        dk = d[:, k - 1]
        dj = d[:, j - 1]
        # A range difference below the switch means a cleared row or a
        # pairing retry, both left to the scalar path.
        generic &= np.minimum(np.abs(dk), np.abs(dj)) >= switch
        ratio = dk / dj
        rows.append(2.0 * (rel[:, k] - ratio[:, None] * rel[:, j]))
        rhs.append(-(dk * dk - ratio * dj * dj) + (sq[:, k] - ratio * sq[:, j]))
    x, solved = _solve3(np.stack(rows, axis=1), np.stack(rhs, axis=1)[:, :, None])
    return generic & solved, x[:, :, 0] + origin


def solve_scale(draws: np.ndarray, n_sensors: int, source_scale: float):
    """Sample, forward-model, solve and score a batch of one scale's instances.

    ``draws`` holds one row per instance: the first ``3 * n_sensors + 3``
    uniforms of its generator, which ``sample_scenario`` takes as the
    sensors and then the source of its first draw.

    Returns ``(generic, position, rel_error, losing)``, one row per
    instance: whether the row is generic, the ``(N, 3)`` estimate, its
    relative error, and the least relative error of another candidate
    (inf if none). Only generic rows hold results; the others must be run
    through the scalar path.
    """
    n = n_sensors
    with np.errstate(all="ignore"):
        sensors = draws[:, : 3 * n].reshape(-1, n, 3) - 0.5
        source = source_scale * (draws[:, 3 * n:] - 0.5)

        # Rows that sampling could reject go to the scalar path, which
        # redraws them. The margin of 4 in squared distance keeps any
        # rounding difference from mattering.
        floor = 4.0 * EPS_SEP * EPS_SEP
        i, j = _SENSOR_PAIRS[n]
        pair = sensors[:, i] - sensors[:, j]
        diff = sensors - source[:, None, :]
        gap2 = np.sum(diff * diff, axis=2)
        generic = (np.sum(pair * pair, axis=2).min(axis=1) > floor) & (gap2.min(axis=1) > floor)

        # The forward model: the same squared gaps give the true ranges.
        rho = np.sqrt(gap2)
        d = rho[:, 1:] - rho[:, :1]
        origin = sensors[:, 0]
        rel = sensors - origin[:, None, :]
        truth_norm = np.sqrt(_row_dot(source, source))
        generic &= truth_norm > 0.0

        if n == 5:
            solved, position = _five_sensor(rel, origin, d)
            losing = np.full(len(draws), np.inf)
        else:
            solved, position, losing = _four_sensor(rel, origin, d, source, truth_norm)
        rel_error = _rel_error(position, source, truth_norm)
        generic &= solved & np.isfinite(rel_error)
    return generic, position, rel_error, losing
