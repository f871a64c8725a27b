import math

import numpy as np
import pytest

import tdoaloc.montecarlo as mc
from tdoaloc import (
    DEFAULT_SCALE_GRID,
    DegenerateSamplingError,
    ExperimentConfig,
    FailureCause,
    InvalidConfigError,
    Scenario,
    SensorArray,
    instance_rng,
    range_differences,
    run_instance,
    run_sweep,
    sample_scenario,
)

SEED = 20260809


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n_instances=0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n_sensors=6)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(thresholds=(1e-6, -1e-3))
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(thresholds=())
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(scale_grid=(1.0, 0.0))
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(scale_grid=())
    for bad in (dict(scale_grid=(1.0, np.inf)), dict(scale_grid=(np.nan,)),
                dict(thresholds=(np.inf,)), dict(thresholds=(1e-3, np.nan))):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**bad)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n_instances=mc.MAX_INSTANCES + 1)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(scale_grid=(1.0,) * (mc.MAX_SCALES + 1))
    # Values that are not numbers, or not a sequence, are config errors too.
    for bad in (dict(thresholds=("a",)), dict(thresholds=None), dict(scale_grid="abc"),
                dict(thresholds=(1e-3j,)), dict(scale_grid=1.0)):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**bad)
    # Strings, bytes and bools that float() would take as numbers are not.
    for bad in (dict(scale_grid="123"), dict(scale_grid=b"123"), dict(thresholds=b"\x01"),
                dict(thresholds=("1e-3",)), dict(scale_grid=(1.0, b"2")),
                dict(thresholds=(True,)), dict(scale_grid=(np.True_,))):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**bad)
    for seed in (-1, 1.0, True, "3", None):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(seed=seed)
    for bad in (dict(n_sensors=4.0), dict(n_instances=1.5), dict(n_instances=True)):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(**bad)
    # numpy integers are taken as ints, so a sweep CSV never reads np.int64(...).
    config = ExperimentConfig(n_sensors=np.int64(4), n_instances=np.int64(9), seed=np.uint64(7))
    assert (config.n_sensors, config.n_instances, config.seed) == (4, 9, 7)
    assert all(type(v) is int for v in (config.n_sensors, config.n_instances, config.seed))
    assert ExperimentConfig(n_instances=mc.MAX_INSTANCES).n_instances == 2**32
    assert ExperimentConfig().scale_grid == (1.0,)
    assert ExperimentConfig(scale_grid=(0.1, 1)).scale_grid == (0.1, 1.0)
    assert len(ExperimentConfig(scale_grid=(1.0,) * mc.MAX_SCALES).scale_grid) == mc.MAX_SCALES


def test_sampling_bounds():
    rng = np.random.default_rng(77)
    for scale in (1e-6, 1e-2, 1.0):
        for _ in range(200):
            sc = sample_scenario(rng, 5, scale)
            assert np.all(np.abs(sc.sensors.positions) <= 0.5)
            assert np.all(np.abs(sc.source) <= scale / 2.0)


def test_sampling_deterministic():
    a = sample_scenario(np.random.default_rng(5), 4, 0.3)
    b = sample_scenario(np.random.default_rng(5), 4, 0.3)
    np.testing.assert_array_equal(a.sensors.positions, b.sensors.positions)
    np.testing.assert_array_equal(a.source, b.source)


def test_sampling_drawing_order_sensors_then_source():
    rng = np.random.default_rng(5)
    raw_sensors = rng.random((4, 3)) - 0.5
    raw_source = 0.3 * (rng.random(3) - 0.5)
    sc = sample_scenario(np.random.default_rng(5), 4, 0.3)
    np.testing.assert_array_equal(sc.sensors.positions, raw_sensors)
    np.testing.assert_array_equal(sc.source, raw_source)


def test_sampling_abort_after_bounded_attempts(monkeypatch):
    calls = {"n": 0}

    def always_invalid(*args, **kwargs):
        calls["n"] += 1
        raise ValueError("forced invalid")

    monkeypatch.setattr(mc, "Scenario", always_invalid)
    with pytest.raises(DegenerateSamplingError):
        sample_scenario(np.random.default_rng(1), 5, 1.0)
    assert calls["n"] == mc.MAX_SAMPLE_ATTEMPTS


@pytest.mark.parametrize("n_sensors, scale", [
    (3, 1.0), (6, 1.0), (5, 0.0), (5, -1.0), (4, float("nan")), (4, float("inf")),
])
def test_sampling_rejects_bad_arguments_before_drawing(n_sensors, scale):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(InvalidConfigError):
        sample_scenario(rng, n_sensors, scale)
    assert rng.bit_generator.state == state


def test_instance_rng_split_independence():
    r00 = instance_rng(1, 0, 0).random(4)
    r01 = instance_rng(1, 0, 1).random(4)
    r10 = instance_rng(1, 1, 0).random(4)
    assert not np.array_equal(r00, r01)
    assert not np.array_equal(r00, r10)
    np.testing.assert_array_equal(r00, instance_rng(1, 0, 0).random(4))


def test_run_instance_canonical_success():
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    sc = Scenario(sensors=arr, source=(2.0, 3.0, 4.0))
    res = run_instance(sc, (1e-6, 1e-3))
    assert res.success_at == (True, True)
    assert res.failure_causes == (None, None)
    assert res.rel_error < 1e-9


@pytest.mark.parametrize(
    "n_sensors, rel_error, causes",
    [(5, 0.0, (None, None)), (4, math.inf, (FailureCause.NUMERICAL_ERROR,) * 2)],
)
def test_run_instance_source_at_origin(n_sensors, rel_error, causes):
    # A source at the origin has no scale to divide by: an exact estimate
    # is a relative error of 0, any other one of inf.
    sensors = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 0.5, 0.2)][:n_sensors]
    res = run_instance(Scenario(sensors=SensorArray(sensors), source=(0, 0, 0)), (1e-6, 1e-3))
    assert res.rel_error == rel_error
    assert res.failure_causes == causes
    assert res.success_at == tuple(c is None for c in causes)


@pytest.mark.parametrize(
    "thresholds", [(-1.0,), (np.nan,), (0.0,), ("1e-3",), (True,), "1e-3"], ids=repr
)
def test_run_instance_rejects_what_the_config_rejects(thresholds):
    # The rule is ExperimentConfig's: an exact five-sensor solve scored
    # against a threshold the config rejects is a config error, not a failure.
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    sc = Scenario(sensors=arr, source=(2.0, 3.0, 4.0))
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(thresholds=thresholds)
    with pytest.raises(InvalidConfigError):
        run_instance(sc, thresholds)


def test_run_instance_singular_geometry():
    arr = SensorArray([(0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9), (4, 8, 12)])
    sc = Scenario(sensors=arr, source=(0.4, 0.1, 0.3))
    res = run_instance(sc, (1e-6, 1e-3))
    assert res.failure_causes == (FailureCause.SINGULAR_GEOMETRY,) * 2
    assert res.estimate is None and res.rel_error is None
    assert res.success_at == (False, False)
    assert "pivot" in res.error


def test_run_instance_near_collinear():
    # Perturbed collinear sensors: condition beyond 1e12 by the numpy oracle.
    base = np.array([0.1, -0.2, 0.05])
    u = np.array([0.3, 0.5, -0.2])
    pos = np.array([base + k * u for k in range(5)])
    pos[2] += (0.0, 1e-14, 0.0)
    pos[3] += (1e-14, 0.0, 0.0)
    pos[4] += (0.0, 0.0, 1e-14)
    arr = SensorArray(pos)
    rel = arr.positions - arr.positions[0]
    assert np.linalg.cond(-2.0 * rel[1:4]) > 1e12
    sc = Scenario(sensors=arr, source=(0.4, 0.1, 0.3))
    res = run_instance(sc, (1e-6, 1e-3))
    singular_or_numerical = {FailureCause.SINGULAR_GEOMETRY, FailureCause.NUMERICAL_ERROR}
    assert res.failure_causes[0] in singular_or_numerical
    assert set(res.failure_causes) <= singular_or_numerical | {None}


def test_run_instance_wrong_root_classification():
    # Frozen instance found by scanning the experiment protocol: two exact
    # candidates, truth at the larger reference range, so the smaller-range
    # pick is the spurious dual and the losing candidate is truth.
    rng = instance_rng(42, 0, 1)
    sc = sample_scenario(rng, 4, 1.0)
    res = run_instance(sc, (1e-6, 1e-3))
    assert res.failure_causes == (FailureCause.WRONG_ROOT,) * 2
    assert res.success_at == (False, False)
    assert res.rel_error > 1e-3
    truth_norm = np.linalg.norm(sc.source)
    losing = [
        c for c in res.estimate.candidates
        if not np.array_equal(c.position, res.estimate.position)
    ]
    assert losing
    assert min(
        np.linalg.norm(c.position - sc.source) for c in losing
    ) < 1e-6 * truth_norm


def test_failure_cause_is_per_threshold():
    # Frozen acceptance-sweep instance: two exact candidates, the wrong one
    # picked, and the losing candidate 2.5e-6 from truth. That is a wrong
    # root at T=1e-3 but a numerical error at T=1e-6.
    sc = sample_scenario(instance_rng(SEED, 0, 87), 4, DEFAULT_SCALE_GRID[0])
    res = run_instance(sc, (1e-6, 1e-3))
    assert res.success_at == (False, False)
    assert res.estimate.ambiguous
    assert res.failure_causes == (FailureCause.NUMERICAL_ERROR, FailureCause.WRONG_ROOT)


def test_far_source_is_a_numerical_failure():
    # Ranges beyond the float range: the forward model cannot give finite
    # range differences, which counts as a numerical error, not a crash.
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    res = run_instance(Scenario(sensors=arr, source=(1e200, 0.0, 0.0)), (1e-6, 1e-3))
    assert res.estimate is None and res.rel_error is None
    assert res.success_at == (False, False)
    assert res.failure_causes == (FailureCause.NUMERICAL_ERROR,) * 2
    assert "finite" in res.error
    # The sweep completes (tests/test_cli.py runs the five-sensor one).
    cfg = ExperimentConfig(n_sensors=4, n_instances=3, scale_grid=(1e300,))
    for cell in run_sweep(cfg):
        assert (cell.success_fraction, cell.n_numerical) == (0.0, 3)


def test_run_sweep_single_trivial_instance():
    cfg = ExperimentConfig(n_sensors=5, n_instances=1, thresholds=(1e-6,), seed=SEED)
    summary = run_sweep(cfg)
    assert len(summary) == 1
    cell = summary[0]
    assert cell.success_fraction == 1.0
    assert cell.n_instances == 1
    assert cell.n_singular == cell.n_wrong_root == cell.n_numerical == 0


def test_run_sweep_deterministic_rerun():
    cfg = ExperimentConfig(
        n_sensors=4, n_instances=50, thresholds=(1e-6, 1e-3), seed=3,
        scale_grid=(1e-3, 1.0),
    )
    assert run_sweep(cfg) == run_sweep(cfg)


def test_run_sweep_cell_layout():
    # One cell per (scale, threshold), scale-major. The per-instance tallies
    # behind each cell are checked by acceptance criterion 4(f).
    cfg = ExperimentConfig(
        n_sensors=4, n_instances=40, thresholds=(1e-6, 1e-3), seed=9,
        scale_grid=(1e-6, 1.0),
    )
    cells = run_sweep(cfg)
    assert type(cells) is tuple and all(type(c) is mc.SweepCell for c in cells)
    assert [(c.source_scale, c.threshold) for c in cells] == [
        (s, t) for s in cfg.scale_grid for t in cfg.thresholds
    ]
    assert all(c.n_instances == cfg.n_instances for c in cells)


def test_sweep_threshold_monotonicity_and_accounting():
    cfg = ExperimentConfig(
        n_sensors=4, n_instances=200, thresholds=(1e-6, 1e-3), seed=17,
        scale_grid=(1e-6, 1.0),
    )
    summary = run_sweep(cfg)
    by_scale = {}
    for cell in summary:
        by_scale.setdefault(cell.source_scale, {})[cell.threshold] = cell
        successes = round(cell.success_fraction * cell.n_instances)
        assert (
            successes + cell.n_singular + cell.n_wrong_root + cell.n_numerical
            == cell.n_instances
        )
    for cells in by_scale.values():
        assert cells[1e-3].success_fraction >= cells[1e-6].success_fraction


def test_wrong_root_classification_is_sound():
    # Every wrong-root instance must carry a losing candidate matching truth.
    found = 0
    for ii in range(300):
        rng = instance_rng(42, 0, ii)
        sc = sample_scenario(rng, 4, 1.0)
        res = run_instance(sc, (1e-6, 1e-3))
        if FailureCause.WRONG_ROOT not in res.failure_causes:
            continue
        found += 1
        truth_norm = np.linalg.norm(sc.source)
        losing = [
            c for c in res.estimate.candidates
            if not np.array_equal(c.position, res.estimate.position)
        ]
        assert min(
            np.linalg.norm(c.position - sc.source) for c in losing
        ) < 1e-6 * truth_norm
    assert found > 0


def test_forward_model_matches_run_instance():
    rng = instance_rng(2, 0, 0)
    sc = sample_scenario(rng, 5, 1.0)
    d = range_differences(sc)
    assert d.n_sensors == 5
    res = run_instance(sc, (1e-3,))
    assert res.success_at == (True,)
