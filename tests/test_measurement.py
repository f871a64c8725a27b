import json
import math

import numpy as np
import pytest

from tdoaloc import (
    RangeDifferences,
    Scenario,
    ScenarioFormatError,
    SensorArray,
    SPEED_OF_LIGHT,
    arrival_times_to_range_diffs,
    document_deltas,
    load_scenario,
    range_differences,
    reference_frame,
    true_ranges,
    unreference,
    write_scenario,
)
from tdoaloc.measurement import _squared_distances

CANONICAL_SENSORS_5 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
CANONICAL_SOURCE = (2, 3, 4)
# Frozen from the independent distance oracle below (math.dist).
CANONICAL_DELTAS_5 = (
    -0.28614529354171925,
    -0.486185321568148,
    -0.694749047311074,
    -1.6435074203605624,
)


def _distance_oracle_deltas(sensors, source):
    rho = [math.dist(s, source) for s in sensors]
    return [rho[k] - rho[0] for k in range(1, len(sensors))]


def test_reference_frame_subtracts_first_sensor():
    arr = SensorArray([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
    rel = reference_frame(arr)
    np.testing.assert_array_equal(rel.origin, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(rel.rel_positions[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(rel.rel_positions[1], [1.0, 0.0, 0.0])


def test_reference_frame_identity_when_already_referenced():
    arr = SensorArray(CANONICAL_SENSORS_5)
    rel = reference_frame(arr)
    np.testing.assert_array_equal(rel.rel_positions, arr.positions)
    np.testing.assert_array_equal(rel.origin, [0.0, 0.0, 0.0])


def test_reference_frame_first_row_always_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arr = SensorArray(rng.uniform(-5, 5, (5, 3)))
        rel = reference_frame(arr)
        np.testing.assert_array_equal(rel.rel_positions[0], [0.0, 0.0, 0.0])


def test_true_ranges_simple():
    arr = SensorArray([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    sc = Scenario(sensors=arr, source=(0, 0, 5))
    assert true_ranges(sc)[0] == 5.0


def test_true_ranges_pythagorean():
    arr = SensorArray([(0, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)])
    sc = Scenario(sensors=arr, source=(3, 4, 0))
    rho = true_ranges(sc)
    assert rho[0] == 5.0 and rho[1] == 4.0
    assert np.all(rho > 0)


def test_range_differences_symmetry_zero():
    # Source equidistant from sensors 0 and 1: exact zero by construction.
    arr = SensorArray([(-1, 0.2, 0.3), (1, 0.2, 0.3), (0.1, 1, 0), (0, 0.2, 1)])
    sc = Scenario(sensors=arr, source=(0.0, 0.7, -0.4))
    assert range_differences(sc).deltas[0] == 0.0


def test_range_differences_canonical_frozen():
    arr = SensorArray(CANONICAL_SENSORS_5)
    sc = Scenario(sensors=arr, source=CANONICAL_SOURCE)
    d = range_differences(sc).deltas
    np.testing.assert_allclose(d, CANONICAL_DELTAS_5, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        d, _distance_oracle_deltas(CANONICAL_SENSORS_5, CANONICAL_SOURCE),
        rtol=0, atol=1e-15,
    )


def test_tdoa_to_range_diff():
    # One arrival-time difference per non-reference sensor, scaled by c.
    def one(dt, **kw):
        (d,) = arrival_times_to_range_diffs([0.0, dt], **kw)
        return d

    assert one(0.0) == 0.0
    assert one(1.0) == 299_792_458.0
    assert one(-1e-6, c=343.0) == pytest.approx(-3.43e-4, rel=1e-12)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError):
            arrival_times_to_range_diffs([0.0, 1.0], c=c)
    # Same IEEE operations as the per-element c * (t_k - t_0).
    t = np.array([0.25, -1e-3, 7e-4, 3.3e-3])
    expected = [343.0 * float(tk - t[0]) for tk in t[1:]]
    assert arrival_times_to_range_diffs(t, c=343.0).tolist() == expected


def test_tdoa_linearity_exact():
    # Power-of-two scalings are exact in binary floating point, so linearity
    # holds bit-for-bit there; arbitrary factors hold to 1 ulp.
    rng = np.random.default_rng(9)

    def one(dt):
        return arrival_times_to_range_diffs([0.0, dt], c=343.0)[0]

    for _ in range(100):
        dt = rng.uniform(-1e-3, 1e-3)
        a = 2.0 ** rng.integers(-3, 4)
        assert one(a * dt) == a * one(dt)
        b = float(rng.integers(1, 9))
        assert one(b * dt) == pytest.approx(b * one(dt), rel=1e-15)


def test_unreference():
    np.testing.assert_array_equal(unreference((1, 2, 3), (0, 0, 0)), [1, 2, 3])
    np.testing.assert_array_equal(unreference((1, 2, 3), (-1, -2, -3)), [0, 0, 0])
    rng = np.random.default_rng(4)
    p = rng.uniform(-5, 5, 3)
    o = rng.uniform(-5, 5, 3)
    np.testing.assert_array_equal(unreference(p - o, o), (p - o) + o)


def test_translation_invariance_of_deltas():
    rng = np.random.default_rng(21)
    for _ in range(500):
        pos = rng.uniform(-0.5, 0.5, (5, 3))
        src = rng.uniform(-0.5, 0.5, 3)
        try:
            sc = Scenario(sensors=SensorArray(pos), source=src)
        except ValueError:
            continue
        shift = rng.uniform(-100, 100, 3)
        sc2 = Scenario(sensors=SensorArray(pos + shift), source=src + shift)
        d1 = range_differences(sc).deltas
        d2 = range_differences(sc2).deltas
        scale = float(np.max(true_ranges(sc2)))
        assert np.max(np.abs(d1 - d2)) <= 1e-12 * scale


def test_triangle_inequality_on_deltas():
    rng = np.random.default_rng(22)
    for _ in range(500):
        pos = rng.uniform(-0.5, 0.5, (4, 3))
        src = rng.uniform(-2, 2, 3)
        try:
            sc = Scenario(sensors=SensorArray(pos), source=src)
        except ValueError:
            continue
        d = range_differences(sc).deltas
        baselines = np.linalg.norm(pos[1:] - pos[0], axis=1)
        assert np.all(np.abs(d) <= baselines + 1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_squared_distances_round_like_numpy_sum(n):
    # The Python-float distances replace np.sum(diff * diff, axis=1) in the
    # forward model and the residuals, so they must round the same way. The
    # entries span six decades, so the other summation orders often differ.
    rng = np.random.default_rng(8)
    reordered = 0
    for _ in range(2000):
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 4, (n, 3))
        point = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4, 3)
        diff = rows - point
        squares = (diff * diff).tolist()
        expected = np.sum(diff * diff, axis=1).tolist()
        assert _squared_distances(rows.tolist(), point.tolist()) == expected
        reordered += any(a + (b + c) != e for (a, b, c), e in zip(squares, expected))
    assert reordered > 100


def test_sensor_array_validation():
    with pytest.raises(ValueError):
        SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0)])  # only 3
    with pytest.raises(ValueError):
        SensorArray(np.zeros((6, 3)))  # 6 sensors
    with pytest.raises(ValueError):
        SensorArray([(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)])  # coincident
    with pytest.raises(ValueError):
        SensorArray([(0, 0, np.nan), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_scenario_validation():
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        Scenario(sensors=arr, source=(1, 0, 0))  # on a sensor
    with pytest.raises(ValueError):
        Scenario(sensors=arr, source=(np.inf, 0, 0))


def test_range_differences_validation():
    with pytest.raises(ValueError):
        RangeDifferences(np.array([1.0, 2.0]))  # wrong arity
    with pytest.raises(ValueError):
        RangeDifferences(np.array([1.0, 2.0, np.nan]))
    assert RangeDifferences(np.zeros(3)).n_sensors == 4
    assert RangeDifferences(np.zeros(4)).n_sensors == 5


def test_arrival_times_to_range_diffs():
    d = arrival_times_to_range_diffs([0.0, 1e-9, 2e-9, 3e-9], c=SPEED_OF_LIGHT)
    np.testing.assert_allclose(
        d, [SPEED_OF_LIGHT * 1e-9, SPEED_OF_LIGHT * 2e-9, SPEED_OF_LIGHT * 3e-9]
    )


def test_scenario_document_roundtrip(tmp_path):
    arr = SensorArray(CANONICAL_SENSORS_5)
    sc = Scenario(sensors=arr, source=CANONICAL_SOURCE)
    path = tmp_path / "canonical.json"
    with open(path, "w") as out:
        write_scenario(out, sc)
    doc = load_scenario(path)
    np.testing.assert_array_equal(doc.sensors.positions, arr.positions)
    np.testing.assert_array_equal(doc.source, [2.0, 3.0, 4.0])
    assert doc.deltas is None
    np.testing.assert_allclose(
        document_deltas(doc).deltas, CANONICAL_DELTAS_5, rtol=0, atol=1e-15
    )


def test_scenario_document_with_times(tmp_path):
    deltas = np.array(CANONICAL_DELTAS_5)
    times = [0.0] + list(deltas / SPEED_OF_LIGHT)
    path = tmp_path / "times.json"
    path.write_text(json.dumps({"sensors": CANONICAL_SENSORS_5, "times": times}))
    doc = load_scenario(path)
    np.testing.assert_allclose(doc.deltas.deltas, deltas, rtol=1e-12, atol=1e-15)


def test_scenario_document_errors(tmp_path):
    def write(obj):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        return p

    with pytest.raises(ScenarioFormatError):  # not json
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        load_scenario(p)
    with pytest.raises(ScenarioFormatError):  # 3 sensors
        load_scenario(write({"sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "source": [2, 3, 4]}))
    with pytest.raises(ScenarioFormatError):  # neither source nor deltas
        load_scenario(write({"sensors": CANONICAL_SENSORS_5}))
    with pytest.raises(ScenarioFormatError):  # both source and deltas
        load_scenario(write({
            "sensors": CANONICAL_SENSORS_5,
            "source": [2, 3, 4],
            "deltas": list(CANONICAL_DELTAS_5),
        }))
    with pytest.raises(ScenarioFormatError):  # unknown key
        load_scenario(write({"sensors": CANONICAL_SENSORS_5, "source": [2, 3, 4], "sigma": 1}))
    with pytest.raises(ScenarioFormatError):  # arity mismatch on deltas
        load_scenario(write({"sensors": CANONICAL_SENSORS_5, "deltas": [1.0, 2.0]}))
    with pytest.raises(ScenarioFormatError):  # bad speed
        load_scenario(write({"sensors": CANONICAL_SENSORS_5, "source": [2, 3, 4], "c": -1.0}))
