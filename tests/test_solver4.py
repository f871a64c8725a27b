import math

import numpy as np
import pytest

from tdoaloc import (
    DegenerateLinearError,
    Method,
    NoCandidatesError,
    NoRealSolutionError,
    RangeDifferences,
    Scenario,
    SensorArray,
    SingularMatrixError,
    localize,
    range_differences,
    solve_four_sensor,
)
from tdoaloc.geom3 import solve3_pivoted
from tdoaloc.measurement import _frame
from tdoaloc.solver4 import _line_rows, _point, _quadratic, _resolve, _retain

CANONICAL_SENSORS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
CANONICAL_SOURCE = np.array([2.0, 3.0, 4.0])
SQRT29 = math.sqrt(29.0)

# Frozen from the independent oracle: literal system built by hand,
# solved with np.linalg.solve.
CANONICAL_SLOPE = (0.28614529354171925, 0.486185321568148, 0.694749047311074)
CANONICAL_OFFSET = (-0.4590604354919617, -0.3818119165458383, -0.25866188063017753)

# Scenarios with two positive roots, found by random search with the
# np.roots oracle over the experiment sampling distribution.
TWO_ROOT_TRUTH_SMALLER = (
    [
        [0.22330561248703207, 0.43663458236600017, -0.14808333639458937],
        [0.3542366831956896, 0.08603236591273034, -0.32845564197056276],
        [0.2984857035093552, -0.464506396815215, -0.19152482223283818],
        [-0.37126076256851814, 0.2425911945981567, 0.30010286358408333],
    ],
    [-0.36281268732842364, -0.04425807317228048, -0.3845386700727923],
)
TWO_ROOT_TRUTH_LARGER = (
    [
        [0.00334112215937421, 0.3078804230035789, 0.10317510756265424],
        [0.04975478029850822, 0.2570131842588753, 0.13361092574612565],
        [-0.43980262272196546, 0.1194958202621309, -0.42458306034530924],
        [0.11166014575491934, -0.03491379501772951, 0.31044102626062253],
    ],
    [0.37290505241303085, 0.48743102622653833, 0.06979966723601316],
)


def _canonical():
    arr = SensorArray(CANONICAL_SENSORS)
    sc = Scenario(sensors=arr, source=CANONICAL_SOURCE)
    return arr, range_differences(sc)


def _line(sensors, deltas):
    """The four-sensor system as the solver builds it: its augmented rows
    ``[matrix | range vector | constant vector]`` as an array, the candidate
    line's slope and offset, and the frame's origin and longest baseline."""
    rel, origin, sq, baseline = _frame(sensors.positions.tolist())
    rows = _line_rows(rel, sq, deltas.deltas.tolist())
    (slope, offset), _ = solve3_pivoted(rows)
    return np.array(rows), slope, offset, origin, baseline


def _random_scenario(rng, scale=1.0):
    while True:
        pos = rng.random((4, 3)) - 0.5
        src = scale * (rng.random(3) - 0.5)
        try:
            return Scenario(sensors=SensorArray(pos), source=src)
        except ValueError:
            continue


def test_canonical_system_diagonal():
    arr, d = _canonical()
    system, slope, offset, _, _ = _line(arr, d)
    np.testing.assert_array_equal(system[:, :3], -2.0 * np.eye(3))
    np.testing.assert_allclose(slope, -d.deltas, rtol=1e-15)
    np.testing.assert_allclose(offset, -(1.0 - d.deltas**2) / 2.0, rtol=1e-15)
    np.testing.assert_allclose(slope, CANONICAL_SLOPE, rtol=0, atol=1e-15)
    np.testing.assert_allclose(offset, CANONICAL_OFFSET, rtol=0, atol=1e-15)


def test_system_solves_consistent():
    rng = np.random.default_rng(41)
    for _ in range(500):
        sc = _random_scenario(rng)
        try:
            system, slope, offset, _, _ = _line(sc.sensors, range_differences(sc))
        except SingularMatrixError:
            continue
        matrix, range_vector, const_vector = system[:, :3], system[:, 3], system[:, 4]
        assert np.linalg.norm(matrix @ slope - range_vector) <= 1e-10 * max(
            1.0, np.linalg.norm(range_vector)
        )
        assert np.linalg.norm(matrix @ offset - const_vector) <= 1e-10 * max(
            1.0, np.linalg.norm(const_vector)
        )


def test_coplanar_rank2_singular():
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    d = range_differences(Scenario(sensors=arr, source=(0.3, 0.4, 0.7)))
    with pytest.raises(SingularMatrixError):
        solve_four_sensor(arr, d)


def test_canonical_reference_range_root():
    arr, d = _canonical()
    result = solve_four_sensor(arr, d)
    assert not result.diagnostics["linear_fallback"]
    # The second root is negative and discarded.
    (rho,) = (c.reference_range for c in result.candidates)
    assert rho == pytest.approx(SQRT29, rel=1e-12)
    # agrees with the independent polynomial oracle
    a, b_half, c_coef = result.diagnostics["quadratic"]
    poly = np.roots([a, -2.0 * b_half, c_coef])
    assert max(poly) == pytest.approx(rho, rel=1e-9)


def test_zero_const_vector_gives_zero_root():
    # Synthetic deltas equal to the baselines make the constant vector zero,
    # collapsing the quadratic to a double root at zero range.
    arr, _ = _canonical()
    d = RangeDifferences(np.array([1.0, 1.0, 1.0]))
    system, _, offset, _, _ = _line(arr, d)
    np.testing.assert_array_equal(system[:, 4], np.zeros(3))
    result = solve_four_sensor(arr, d)
    assert result.diagnostics["quadratic"][2] == 0.0
    (cand,) = result.candidates
    assert cand.reference_range == 0.0
    np.testing.assert_allclose(cand.position, -np.array(offset), atol=1e-15)


def test_canonical_solve_recovers_source():
    arr, d = _canonical()
    result = solve_four_sensor(arr, d)
    assert np.linalg.norm(result.position - CANONICAL_SOURCE) < 1e-9 * SQRT29
    assert result.method is Method.FOUR_SENSOR
    assert len(result.candidates) == 1
    assert not result.ambiguous
    assert result.candidates[0].reference_range == pytest.approx(SQRT29, rel=1e-12)


def test_two_root_truth_selected():
    sensors, source = TWO_ROOT_TRUTH_SMALLER
    arr = SensorArray(sensors)
    src = np.array(source)
    result = solve_four_sensor(arr, range_differences(Scenario(sensors=arr, source=src)))
    assert result.method is Method.FOUR_SENSOR and len(result.candidates) == 2
    assert np.linalg.norm(result.position - src) < 1e-9
    # both candidates are exact solutions of the measurement set
    assert all(c.residual < 1e-20 for c in result.candidates)
    assert result.ambiguous


def test_two_root_truth_always_among_candidates():
    # Residual scoring cannot distinguish exact duals; truth must still be
    # one of the retained candidates even when the other one is selected.
    sensors, source = TWO_ROOT_TRUTH_LARGER
    arr = SensorArray(sensors)
    src = np.array(source)
    result = solve_four_sensor(arr, range_differences(Scenario(sensors=arr, source=src)))
    assert len(result.candidates) == 2
    assert result.ambiguous
    best = min(np.linalg.norm(c.position - src) for c in result.candidates)
    assert best < 1e-6 * np.linalg.norm(src)


def test_root_residual_bound():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 500:
        sc = _random_scenario(rng)
        try:
            _, slope, offset, _, baseline = _line(sc.sensors, range_differences(sc))
            a, b_half, c_coef, roots, _, _ = _quadratic(slope, offset, baseline)
        except SingularMatrixError:
            continue
        for rho in roots:
            assert rho >= 0.0
            resid = a * rho * rho - 2.0 * b_half * rho + c_coef
            bound = 1e-8 * max(abs(a) * rho * rho, c_coef)
            assert abs(resid) < bound
        checked += 1


def test_candidate_range_consistency():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 500:
        sc = _random_scenario(rng)
        try:
            _, slope, offset, origin, baseline = _line(sc.sensors, range_differences(sc))
            roots = _quadratic(slope, offset, baseline)[3]
        except SingularMatrixError:
            continue
        for rho in roots:
            pos = np.array(_point(rho, slope, offset, origin))
            assert abs(np.linalg.norm(pos - origin) - rho) <= 1e-8 * max(rho, 1e-12)
        checked += 1


def test_truth_among_candidates_noise_free():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 500:
        sc = _random_scenario(rng)
        try:
            result = solve_four_sensor(sc.sensors, range_differences(sc))
        except SingularMatrixError:
            continue
        best = min(np.linalg.norm(c.position - sc.source) for c in result.candidates)
        assert best < 1e-6 * np.linalg.norm(sc.source)
        checked += 1


def test_truth_candidate_residual_tiny():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 500:
        sc = _random_scenario(rng)
        d = range_differences(sc)
        try:
            result = solve_four_sensor(sc.sensors, d)
        except SingularMatrixError:
            continue
        truth_cand = min(
            result.candidates, key=lambda c: np.linalg.norm(c.position - sc.source)
        )
        scale = float(np.max(np.abs(d.deltas)))
        assert truth_cand.residual < 1e-10 * scale * scale
        checked += 1


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(61)
    for _ in range(500):
        sc = _random_scenario(rng)
        try:
            base = solve_four_sensor(sc.sensors, range_differences(sc))
        except SingularMatrixError:
            continue
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = rng.uniform(-10, 10, 3)
        moved = Scenario(
            sensors=SensorArray(sc.sensors.positions @ q.T + t),
            source=sc.source @ q.T + t,
        )
        est = solve_four_sensor(moved.sensors, range_differences(moved))
        # candidate sets match under the rigid motion (selection can only
        # differ on exact duals, so compare the nearest candidate)
        expected = base.position @ q.T + t
        best = min(np.linalg.norm(c.position - expected) for c in est.candidates)
        assert best < 1e-9 * max(1.0, np.linalg.norm(expected))


def _score(candidates, sensors, deltas):
    """``_resolve`` on ``(rho, position)`` candidates, as the solver scores
    the candidates of its quadratic."""
    rel, origin, _, baseline = _frame(sensors.positions.tolist())
    candidates = [(rho, pos.tolist()) for rho, pos in candidates]
    return _resolve(candidates, rel, origin, deltas.deltas.tolist(), baseline, {})


def test_residual_tie_keeps_first_and_flags():
    # Four coplanar sensors score two mirror-image candidates identically.
    arr = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    truth = np.array([0.3, 0.4, 0.7])
    mirror = np.array([0.3, 0.4, -0.7])
    rho = float(np.linalg.norm(truth))
    diff = arr.positions - truth
    ranges = np.sqrt(np.sum(diff * diff, axis=1))
    d = RangeDifferences(ranges[1:] - ranges[0])
    result = _score([(rho, truth), (rho, mirror)], arr, d)
    assert result.ambiguous
    assert result.method is Method.FOUR_SENSOR and len(result.candidates) == 2
    np.testing.assert_array_equal(result.position, truth)
    assert result.candidates[0].residual == result.candidates[1].residual


def test_inadmissible_second_candidate_not_flagged():
    # A candidate at reference range 0.1 would need a negative range to the
    # sensor with delta ~ -0.69: it solves no unsquared equation, so two
    # candidates do not make the result ambiguous.
    arr, d = _canonical()
    bad = np.array([0.1, 0.0, 0.0])
    assert 0.1 + float(np.min(d.deltas)) < 0.0
    result = _score([(0.1, bad), (SQRT29, CANONICAL_SOURCE)], arr, d)
    assert not result.ambiguous
    assert result.method is Method.FOUR_SENSOR
    assert len(result.candidates) == 2
    np.testing.assert_array_equal(result.position, CANONICAL_SOURCE)


def test_resolve_no_candidates():
    arr, d = _canonical()
    with pytest.raises(NoCandidatesError):
        _score([], arr, d)


def test_inconsistent_deltas_no_real_solution():
    arr, _ = _canonical()
    with pytest.raises(NoRealSolutionError):
        solve_four_sensor(arr, np.array([0.9, 0.9, -0.9]))


def test_degenerate_linear():
    with pytest.raises(DegenerateLinearError):
        _quadratic([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)


def test_linear_fallback_root():
    *_, roots, _, linear = _quadratic([1.0, 0.0, 0.0], [0.3, 0.0, 0.0], 1.0)
    assert linear
    assert roots == (0.15,)


def test_retain_clamps_and_discards():
    assert _retain((-1e-16, 2.0), 1e-12) == (0.0, 2.0)
    assert _retain((-1.0, 2.0), 1e-12) == (2.0,)
    assert _retain((-0.5,), 1e-12) == ()
    assert _retain((3.0, 1.0), 1e-12) == (1.0, 3.0)  # ascending order


def test_bisector_plane_delta_zero_four_sensor():
    # Zero first delta needs no special row handling on the four-sensor path.
    arr = SensorArray([(-0.8, 0.2, 0.3), (0.8, 0.2, 0.3), (0.1, 1, 0), (0, 0.2, 1)])
    src = np.array([0.0, 0.7, -0.4])
    d = range_differences(Scenario(sensors=arr, source=src))
    assert d.deltas[0] == 0.0
    result = solve_four_sensor(arr, d)
    best = min(np.linalg.norm(c.position - src) for c in result.candidates)
    assert best < 1e-9


def test_arity_validation():
    arr4 = SensorArray(CANONICAL_SENSORS)
    arr5 = SensorArray([*CANONICAL_SENSORS, (1, 1, 1)])
    message = "four-sensor solve needs 4 sensors and 3 range differences"
    with pytest.raises(ValueError, match=message):
        solve_four_sensor(arr4, np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError, match=message):
        solve_four_sensor(arr5, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=message):
        localize(arr4, np.array([0.1, 0.2, 0.3, 0.4]))
