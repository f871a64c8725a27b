"""Independent numpy reference for the sweep workloads.

It regenerates every sweep instance from the documented sampling scheme
(per-instance ``SeedSequence(seed, spawn_key=(scale index, instance index))``,
sensors uniform on [-0.5, 0.5], then the source on the same cube shrunk by the
scale) and solves the whole scale at once with a formulation of its own:

- five sensors: the 4x4 linear system in the reference-frame position and the
  reference range, one row per range difference;
- four sensors: the candidate line from a 3x3 solve, the reference-range
  quadratic, both roots, and admissibility ``rho + d_i >= -eps * baseline``.

Nothing here imports ``tdoaloc``: the checks compare the program's sweep CSV
with what this module computes, and for four sensors with per-instance
outcomes from an ``audit`` callable that the caller supplies.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

THRESHOLDS = (1e-6, 1e-3)
SCALE_GRID = tuple(float(s) for s in np.logspace(-6.0, 0.0, 13))
N_INSTANCES = 100

MIN_SEP = 1e-9          # sensors (and source) closer than this are resampled
MAX_DRAWS = 100
EPS_ADMISSIBLE = 1e-12  # admissibility slack, relative to the longest baseline
EPS_TANGENT = 1e-9      # discriminant clamp, relative to b_half**2

# Tolerance on five-sensor success counts per cell, in instances. The two
# formulations round differently, so an instance whose error sits right at
# a threshold may land on either side of it. The counts differed by at most
# 1 per cell across 150 seeds at 100 instances per scale, and by at most 4
# across 12 seeds at 1000.
FIVE_SENSOR_TOLERANCE = 3

CSV_HEADER = (
    "n_sensors", "source_scale", "threshold", "success_fraction",
    "n_singular", "n_wrong_root", "n_numerical", "n_instances",
)


def sample_scale(seed: int, scale_index: int, scale: float, n_sensors: int, n: int):
    """Every instance of one scale: sensors (n, k, 3) and sources (n, 3)."""
    sensors = np.empty((n, n_sensors, 3))
    sources = np.empty((n, 3))
    iu = np.triu_indices(n_sensors, k=1)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(scale_index, i)))
        for _ in range(MAX_DRAWS):
            s = rng.random((n_sensors, 3)) - 0.5
            x = scale * (rng.random(3) - 0.5)
            gap = s[:, None, :] - s[None, :, :]
            pair_d2 = np.sum(gap * gap, axis=-1)[iu]
            src_d2 = np.sum((s - x) ** 2, axis=1)
            if pair_d2.min() > MIN_SEP**2 and src_d2.min() > MIN_SEP**2:
                break
        else:
            raise RuntimeError(f"instance ({scale_index}, {i}) never drew a valid scenario")
        sensors[i] = s
        sources[i] = x
    return sensors, sources


def forward_deltas(sensors: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Range differences against sensor 0, batched: (n, k - 1)."""
    ranges = np.linalg.norm(sensors - sources[:, None, :], axis=-1)
    return ranges[:, 1:] - ranges[:, :1]


def _rel_error(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return np.linalg.norm(estimate - truth, axis=-1) / np.linalg.norm(truth, axis=-1)


def solve5(sensors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Five sensors: solve [-2 r_i, -2 d_i] (y, rho) = d_i^2 - |r_i|^2."""
    rel = sensors[:, 1:] - sensors[:, :1]
    a = np.concatenate([-2.0 * rel, -2.0 * deltas[..., None]], axis=-1)
    b = deltas**2 - np.sum(rel * rel, axis=-1)
    yr = np.linalg.solve(a, b[..., None])[..., 0]
    return yr[:, :3] + sensors[:, 0]


def solve4(sensors: np.ndarray, deltas: np.ndarray):
    """Four sensors: admissible candidate positions, (n, 2, 3) and (n, 2) mask.

    The position lies on ``y = rho * u + v`` with ``-2 R u = 2 d`` and
    ``-2 R v = d^2 - |r|^2``; ``|y| = rho`` gives the quadratic
    ``(|u|^2 - 1) rho^2 + 2 (u.v) rho + |v|^2 = 0``.
    """
    rel = sensors[:, 1:] - sensors[:, :1]
    sq = np.sum(rel * rel, axis=-1)
    baseline = np.sqrt(sq.max(axis=1))
    m = -2.0 * rel
    rhs = np.stack([2.0 * deltas, deltas**2 - sq], axis=-1)
    uv = np.linalg.solve(m, rhs)
    u, v = uv[..., 0], uv[..., 1]
    a = np.sum(u * u, axis=-1) - 1.0
    b_half = np.sum(u * v, axis=-1)
    c = np.sum(v * v, axis=-1)
    disc = b_half * b_half - a * c
    disc = np.where((disc < 0.0) & (disc >= -EPS_TANGENT * b_half * b_half), 0.0, disc)
    root = np.sqrt(np.maximum(disc, 0.0))
    q = -(b_half + np.copysign(root, b_half))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.stack([q / a, c / q], axis=-1)
    real = disc >= 0.0
    slack = EPS_ADMISSIBLE * baseline
    rho = np.where((rho < 0.0) & (rho >= -slack[:, None]), 0.0, rho)
    finite = np.isfinite(rho)
    rho = np.where(finite, rho, 0.0)
    margin = rho + deltas.min(axis=1)[:, None]
    admissible = real[:, None] & finite & (rho >= 0.0) & (margin >= -slack[:, None])
    # A double root is one solution, not two.
    same = np.abs(rho[:, 0] - rho[:, 1]) <= 1e-12 * np.maximum(1.0, np.abs(rho).max(axis=1))
    admissible[:, 1] &= ~same
    cands = rho[..., None] * u[:, None, :] + v[:, None, :]
    return cands + sensors[:, None, 0], admissible


@dataclass(frozen=True)
class ScaleReference:
    """What the reference knows about one scale of a sweep."""

    scale: float
    successes: tuple[int, ...] | None  # five sensors: per threshold
    one_solution: np.ndarray | None    # four sensors: exactly one admissible
                                       # candidate, and it is the truth
    n_solvable: int                    # four sensors: one or two admissible


def reference_scale(sensors: np.ndarray, sources: np.ndarray, scale: float) -> ScaleReference:
    deltas = forward_deltas(sensors, sources)
    if sensors.shape[1] == 5:
        err = _rel_error(solve5(sensors, deltas), sources)
        return ScaleReference(scale, tuple(int(np.sum(err < t)) for t in THRESHOLDS), None, 0)
    cands, admissible = solve4(sensors, deltas)
    n_adm = admissible.sum(axis=1)
    hit = np.any(admissible & (_rel_error(cands, sources[:, None, :]) < max(THRESHOLDS)), axis=1)
    return ScaleReference(scale, None, (n_adm == 1) & hit, int(np.sum(n_adm >= 1)))


def parse_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header: {reader.fieldnames}")
    return [
        {k: (float(v) if k in ("source_scale", "threshold", "success_fraction") else int(v))
         for k, v in row.items()}
        for row in reader
    ]


def check_sweep(text: str, seed: int, n_sensors: int, audit) -> tuple[int, int, list[str]]:
    """Check one sweep CSV against the reference.

    ``audit(sensors, sources)`` runs the program on each instance and returns
    its per-instance successes, shape (n, len(THRESHOLDS)); it is called for
    four sensors only, where the checks are per instance. Returns (cells
    attempted, cells failed, one message per failed cell).
    """
    expected = len(SCALE_GRID) * len(THRESHOLDS)
    try:
        cells = parse_csv(text)
    except (ValueError, TypeError) as err:
        return expected, expected, [f"unreadable CSV: {err}"]
    problems: list[str] = []
    failed = 0
    if len(cells) != expected:
        problems.append(f"{len(cells)} cells, expected {expected}")
        failed += abs(expected - len(cells))
    for si, scale in enumerate(SCALE_GRID):
        group = cells[si * len(THRESHOLDS):(si + 1) * len(THRESHOLDS)]
        if len(group) != len(THRESHOLDS):
            continue
        sensors, sources = sample_scale(seed, si, scale, n_sensors, N_INSTANCES)
        ref = reference_scale(sensors, sources, scale)
        audited = audit(sensors, sources) if n_sensors == 4 else None
        succ = [round(c["success_fraction"] * c["n_instances"]) for c in group]
        for ti, cell in enumerate(group):
            why = _cell_problems(cell, ti, succ, ref, n_sensors, audited)
            if why:
                failed += 1
                problems.append(f"scale {scale!r} threshold {THRESHOLDS[ti]!r}: " + "; ".join(why))
    return max(expected, len(cells)), failed, problems


def _cell_problems(cell, ti, succ, ref: ScaleReference, n_sensors, audited) -> list[str]:
    why = []
    if cell["n_sensors"] != n_sensors:
        why.append(f"n_sensors {cell['n_sensors']}")
    if cell["n_instances"] != N_INSTANCES:
        why.append(f"n_instances {cell['n_instances']}")
    if cell["threshold"] != THRESHOLDS[ti] or not np.isclose(cell["source_scale"], ref.scale, rtol=1e-12):
        why.append(f"cell key ({cell['source_scale']!r}, {cell['threshold']!r})")
    failures = cell["n_instances"] - succ[ti]
    causes = cell["n_singular"] + cell["n_wrong_root"] + cell["n_numerical"]
    if failures != causes:
        why.append(f"{failures} failures but {causes} attributed causes")
    loose = THRESHOLDS.index(max(THRESHOLDS))
    tight = THRESHOLDS.index(min(THRESHOLDS))
    if succ[loose] < succ[tight]:
        why.append(f"{succ[loose]} successes at the loose threshold < {succ[tight]} at the tight one")
    if n_sensors == 5:
        if abs(succ[ti] - ref.successes[ti]) > FIVE_SENSOR_TOLERANCE:
            why.append(f"{succ[ti]} successes, reference {ref.successes[ti]}")
        return why
    if int(audited[:, ti].sum()) != succ[ti]:
        why.append(f"{succ[ti]} successes, {int(audited[:, ti].sum())} when run one by one")
    if ti == loose:
        missed = int(np.sum(ref.one_solution & ~audited[:, ti]))
        if missed:
            why.append(f"{missed} one-solution instances not solved")
    if succ[ti] > ref.n_solvable:
        why.append(f"{succ[ti]} successes > {ref.n_solvable} solvable instances")
    return why
