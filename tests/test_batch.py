"""The whole-scale batch behind run_sweep against the scalar path it transcribes."""

import math

import numpy as np
import pytest

import tdoaloc.montecarlo as mc
from tdoaloc import _streams
from tdoaloc import (
    DEFAULT_SCALE_GRID,
    ExperimentConfig,
    FailureCause,
    instance_rng,
    run_instance,
    run_sweep,
    sample_scenario,
)
from tdoaloc._batch import solve_scale

SEED = 20260809
THRESHOLDS = (1e-6, 1e-3)


def _scalar_losing(scenario, estimate) -> float:
    """Least relative error of a candidate other than the estimate, as
    run_instance scores it."""
    losing = math.inf
    for cand in estimate.candidates:
        if not np.array_equal(cand.position, estimate.position):
            losing = min(losing, mc._rel_error(cand.position, scenario.source))
    return losing


def _batch_causes(rel_error, losing):
    return tuple(
        None if rel_error < t
        else FailureCause.WRONG_ROOT if losing < t
        else FailureCause.NUMERICAL_ERROR
        for t in THRESHOLDS
    )


@pytest.mark.parametrize("n_sensors", [4, 5])
def test_batch_matches_scalar_on_acceptance_config(n_sensors):
    # The first 100 instances of every acceptance scale: each row is generic
    # and gives the scalar estimate bit for bit, the same losing-candidate
    # error and the same cause at every threshold.
    n = 100
    width = 3 * n_sensors + 3
    for si, scale in enumerate(DEFAULT_SCALE_GRID):
        draws = np.array([instance_rng(SEED, si, ii).random(width) for ii in range(n)])
        generic, position, rel_error, losing = solve_scale(draws, n_sensors, scale)
        assert generic.all(), f"scale {scale}: rows {np.flatnonzero(~generic)}"
        for ii in range(n):
            scenario = sample_scenario(instance_rng(SEED, si, ii), n_sensors, scale)
            result = run_instance(scenario, THRESHOLDS)
            where = f"scale {scale}, instance {ii}"
            assert np.array_equal(position[ii], result.estimate.position), where
            assert rel_error[ii] == result.rel_error, where
            assert losing[ii] == _scalar_losing(scenario, result.estimate), where
            assert _batch_causes(rel_error[ii], losing[ii]) == result.failure_causes, where


class _Draws:
    """Stand-in for an instance generator: hands out fixed uniforms in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else np.empty(size).shape
        k = math.prod(shape)
        taken, self._values = self._values[:k], self._values[k:]
        values = np.reshape(taken, shape)
        if out is None:
            return values
        out[...] = values
        return out


def _uniforms(sensors, source):
    """The draws that sample_scenario at scale 1 maps to these coordinates
    (each coordinate is u - 0.5; the values here are exact in binary)."""
    return [c + 0.5 for c in np.ravel(sensors)] + [c + 0.5 for c in source]


def _generic_rows(n_sensors, k):
    width = 3 * n_sensors + 3
    return [list(instance_rng(5, 0, ii).random(width)) for ii in range(k)]


# Hand-built rows the batch must leave to the scalar path.
SPECIAL = {
    4: {
        # Discriminant exactly 0: one root, the tangent branch.
        "tangent": _uniforms(
            [(0.125, 0.125, 0.25), (0, 0, 0.375), (0.125, -0.25, 0.25), (0.25, 0.125, -0.25)],
            (0.125, 0.25, 0.25),
        ),
        # Leading coefficient exactly 0: the linear fallback.
        "linear": _uniforms(
            [(0.25, -0.25, 0), (-0.5, 0, 0.25), (0, 0, -0.25), (0.25, -0.375, -0.25)],
            (-0.25, 0.125, 0),
        ),
        # Sensors 0 and 1 coincide; the second draw is valid.
        "rejected": _uniforms(
            [(0.25, 0.25, 0.25), (0.25, 0.25, 0.25), (0, 0, -0.25), (0.25, -0.375, -0.25)],
            (0, 0, 0.125),
        ) + _generic_rows(4, 1)[0],
        "coplanar": _uniforms(
            [(-0.25, -0.25, 0), (0.25, -0.25, 0), (-0.25, 0.25, 0), (0.125, 0.375, 0)],
            (0.125, 0.0625, 0.25),
        ),
    },
    5: {
        # The source is 0.25 from sensors 0, 1 and 2, so d1 = d2 = 0: the
        # default pairing (2, 1) is degenerate and the retry has cleared rows.
        "equidistant": _uniforms(
            [(0.375, 0.125, 0.125), (0.125, 0.375, 0.125), (0.125, 0.125, 0.375),
             (-0.25, 0.25, -0.125), (0.25, -0.375, -0.25)],
            (0.125, 0.125, 0.125),
        ),
        "rejected": _uniforms(
            [(0.25, 0.25, 0.25), (0.25, 0.25, 0.25), (0, 0, -0.25), (0.25, -0.375, -0.25),
             (-0.25, 0.25, -0.125)],
            (0, 0, 0.125),
        ) + _generic_rows(5, 1)[0],
        "coplanar": _uniforms(
            [(-0.25, -0.25, 0), (0.25, -0.25, 0), (-0.25, 0.25, 0), (0.25, 0.25, 0),
             (0, 0.375, 0)],
            (0.125, 0.0625, 0.25),
        ),
    },
}


@pytest.mark.parametrize("n_sensors", [4, 5])
def test_run_sweep_hands_non_generic_rows_to_scalar_path(monkeypatch, n_sensors):
    width = 3 * n_sensors + 3
    special = SPECIAL[n_sensors]
    generic = _generic_rows(n_sensors, 6)
    # Special rows between generic ones, so both kinds meet in one scale.
    rows = generic[:5] + list(special.values()) + generic[5:]
    flags = solve_scale(np.array([r[:width] for r in rows]), n_sensors, 1.0)[0]
    assert flags.tolist() == [True] * 5 + [False] * len(special) + [True]

    # The scalar path takes the branch each special row was built for.
    results = {
        name: run_instance(sample_scenario(_Draws(row), n_sensors, 1.0), THRESHOLDS)
        for name, row in special.items()
    }
    assert results["coplanar"].failure_causes == (FailureCause.SINGULAR_GEOMETRY,) * 2
    if n_sensors == 4:
        assert results["tangent"].estimate.diagnostics["discriminant"] == 0.0
        assert results["linear"].estimate.diagnostics["linear_fallback"]
    else:
        diagnostics = results["equidistant"].estimate.diagnostics
        assert diagnostics["pairing_retries"] > 0 and any(diagnostics["scaled_rows"])

    # run_sweep draws a batch's rows from _streams.uniforms and reruns the
    # special rows on instance_rng; both hand out the hand-built rows.
    monkeypatch.setattr(mc, "instance_rng", lambda seed, si, ii: _Draws(rows[ii]))
    monkeypatch.setattr(
        _streams,
        "uniforms",
        lambda seed, runs, width: np.array(
            [r[:width] for _, first, stop in runs for r in rows[first:stop]]
        ),
    )
    # Batches of 4 rows: the special rows straddle batch boundaries, and the
    # singular one (last) is not at its own index within its batch.
    monkeypatch.setattr(mc, "BATCH_ROWS", 4)
    config = ExperimentConfig(
        n_sensors=n_sensors, n_instances=len(rows), thresholds=THRESHOLDS
    )
    cells = run_sweep(config)

    expected = [dict.fromkeys([None, *FailureCause], 0) for _ in THRESHOLDS]
    for row in rows:
        scenario = sample_scenario(_Draws(row), n_sensors, 1.0)
        for tally, cause in zip(expected, run_instance(scenario, THRESHOLDS).failure_causes):
            tally[cause] += 1
    assert expected[0][FailureCause.SINGULAR_GEOMETRY] == 1
    for cell, tally in zip(cells, expected):
        assert cell.success_fraction == tally[None] / len(rows)
        assert cell.n_singular == tally[FailureCause.SINGULAR_GEOMETRY]
        assert cell.n_wrong_root == tally[FailureCause.WRONG_ROOT]
        assert cell.n_numerical == tally[FailureCause.NUMERICAL_ERROR]


@pytest.mark.parametrize("n_sensors", [4, 5])
def test_reruns_take_scale_and_instance_from_the_flat_index(monkeypatch, n_sensors):
    # Two scales of 10 rows in batches of 4: the batch of flat rows 8..11
    # straddles the boundary, and its last two rows are the second scale's
    # first two special rows (the singular one first), which the batch hands
    # to the scalar path as scale 1's instances 0 and 1, not as rows 10 and
    # 11 or as the first scale's.
    special = list(SPECIAL[n_sensors].values())[::-1]
    n = 10
    rows = [_generic_rows(n_sensors, n), (special + _generic_rows(n_sensors, n))[:n]]
    scales = (0.5, 1.0)
    reruns = []

    def rerun_rng(seed, si, ii):
        reruns.append((si, ii))
        return _Draws(rows[si][ii])

    def rerun_sample(rng, n_sensors, scale):
        reruns.append(scale)
        return sample_scenario(rng, n_sensors, scale)

    monkeypatch.setattr(mc, "instance_rng", rerun_rng)
    monkeypatch.setattr(mc, "sample_scenario", rerun_sample)
    monkeypatch.setattr(
        _streams,
        "uniforms",
        lambda seed, runs, width: np.array(
            [r[:width] for si, first, stop in runs for r in rows[si][first:stop]]
        ),
    )
    monkeypatch.setattr(mc, "BATCH_ROWS", 4)
    config = ExperimentConfig(
        n_sensors=n_sensors, n_instances=n, thresholds=THRESHOLDS, scale_grid=scales
    )
    cells = run_sweep(config)
    # Exactly the special rows are rerun, each at its scale and instance.
    assert reruns == [x for ii in range(len(special)) for x in ((1, ii), 1.0)]

    expected = []
    for scale, scale_rows in zip(scales, rows):
        results = [run_instance(sample_scenario(_Draws(row), n_sensors, scale), THRESHOLDS)
                   for row in scale_rows]
        for t in range(len(THRESHOLDS)):
            causes = [result.failure_causes[t] for result in results]
            expected.append([causes.count(c) for c in (None, *FailureCause)])
    assert expected[2][1] == 1  # the coplanar row: singular at the second scale
    got = [[round(c.success_fraction * n), c.n_singular, c.n_wrong_root, c.n_numerical]
           for c in cells]
    assert [c.source_scale for c in cells] == [0.5, 0.5, 1.0, 1.0]
    assert got == expected
