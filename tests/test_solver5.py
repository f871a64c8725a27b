import gc

import numpy as np
import pytest

from tdoaloc import (
    DegenerateDeltasError,
    Method,
    Scenario,
    SensorArray,
    SingularMatrixError,
    range_differences,
    solve_five_sensor,
)
from tdoaloc.measurement import _frame, as_range_differences
from tdoaloc.solver5 import (
    DEFAULT_PAIRINGS,
    EPS_DELTA,
    PAIRING_FALLBACKS,
    _build,
    _cleared_row,
    _literal_row,
)

CANONICAL_SENSORS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
CANONICAL_SOURCE = np.array([2.0, 3.0, 4.0])


def _canonical():
    arr = SensorArray(CANONICAL_SENSORS)
    sc = Scenario(sensors=arr, source=CANONICAL_SOURCE)
    return arr, range_differences(sc)


def _system(sensors, deltas, form=None, pairings=DEFAULT_PAIRINGS):
    """The matrix, right-hand side and cleared-row flags of one pairing set:
    as the solver builds them (``form`` None; None where a pairing carries
    no information), or with every row in the ``"literal"`` or
    ``"cleared"`` form."""
    rel, _, sq, baseline = _frame(sensors.positions.tolist())
    d = as_range_differences(deltas).deltas.tolist()
    if form is None:
        built = _build(rel, sq, d, EPS_DELTA * baseline, pairings)
        if built is None:
            return None
        rows, scaled = built
    else:
        row = _literal_row if form == "literal" else _cleared_row
        rows = [row(rel[k], rel[j], sq[k], sq[j], d[k - 1], d[j - 1]) for k, j in pairings]
        scaled = (form == "cleared",) * 3
    system = np.array(rows)
    return system[:, :3], system[:, 3], scaled


def _literal_rows_oracle(sensors, deltas, pairings):
    """Independent row recomputation: ratio form written out directly."""
    r = sensors.positions - sensors.positions[0]
    d = deltas.deltas
    rows, rhs = [], []
    for k, j in pairings:
        dk, dj = d[k - 1], d[j - 1]
        ratio = dk / dj
        rows.append(2.0 * (r[k] - ratio * r[j]))
        rhs.append(-(dk**2 - ratio * dj**2) + (r[k] @ r[k] - ratio * (r[j] @ r[j])))
    return np.array(rows), np.array(rhs)


def _random_scenario(rng, n=5, scale=1.0):
    while True:
        pos = rng.random((n, 3)) - 0.5
        src = scale * (rng.random(3) - 0.5)
        try:
            return Scenario(sensors=SensorArray(pos), source=src)
        except ValueError:
            continue


def test_canonical_system_matches_literal_recomputation():
    arr, d = _canonical()
    diagnostics = solve_five_sensor(arr, d).diagnostics
    assert diagnostics["pairings"] == DEFAULT_PAIRINGS
    assert diagnostics["scaled_rows"] == (False, False, False)
    matrix, rhs, _ = _system(arr, d)
    rows, expected_rhs = _literal_rows_oracle(arr, d, DEFAULT_PAIRINGS)
    np.testing.assert_allclose(matrix, rows, rtol=1e-14)
    np.testing.assert_allclose(rhs, expected_rhs, rtol=1e-14)


def test_canonical_solve_recovers_source():
    arr, d = _canonical()
    result = solve_five_sensor(arr, d)
    err = np.linalg.norm(result.position - CANONICAL_SOURCE)
    assert err < 1e-9 * np.linalg.norm(CANONICAL_SOURCE)
    assert result.method is Method.FIVE_SENSOR
    assert result.candidates == ()
    assert not result.ambiguous
    assert len(result.diagnostics["pivots"]) == 3


def test_row_form_equivalence():
    # Both row forms are the same equation up to row scaling: identical solves.
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 500:
        sc = _random_scenario(rng)
        d = range_differences(sc)
        if np.min(np.abs(d.deltas)) < 1e-6:
            continue  # literal form needs clearly nonzero denominators
        lit_matrix, lit_rhs, lit_scaled = _system(sc.sensors, d, "literal")
        clr_matrix, clr_rhs, clr_scaled = _system(sc.sensors, d, "cleared")
        assert lit_scaled == (False, False, False)
        assert clr_scaled == (True, True, True)
        try:
            x_lit = np.linalg.solve(lit_matrix, lit_rhs)
            x_clr = np.linalg.solve(clr_matrix, clr_rhs)
        except np.linalg.LinAlgError:
            continue
        if max(np.linalg.cond(lit_matrix), np.linalg.cond(clr_matrix)) > 1e8:
            continue
        assert np.linalg.norm(x_lit - x_clr) < 1e-9 * np.linalg.norm(x_lit)
        checked += 1


def test_zero_delta_row_uses_cleared_form():
    # Source on the perpendicular bisector plane of sensors 0 and 1.
    arr = SensorArray([(-1, 0.2, 0.3), (1, 0.2, 0.3), (0.1, 1, 0), (0, 0.2, 1), (0.7, -0.8, 0.5)])
    src = np.array([0.0, 0.7, -0.4])
    d = range_differences(Scenario(sensors=arr, source=src))
    assert d.deltas[0] == 0.0
    matrix, rhs, scaled = _system(arr, d)
    assert scaled[0] is True  # pairing (2, 1) divides by the zero delta
    assert np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))
    result = solve_five_sensor(arr, d)
    assert result.diagnostics["pairings"] == DEFAULT_PAIRINGS
    assert result.diagnostics["scaled_rows"] == scaled
    assert np.linalg.norm(result.position - src) < 1e-9 * np.linalg.norm(src)


@pytest.mark.parametrize("deltas", [[0.1, 0.0, 0.2, 0.3], [0.0, 0.1, 0.2, 0.3], [0.1, 0.2, -0.0, 0.3]])
def test_build_clears_exactly_the_rows_of_a_zero_delta(deltas):
    # The literal form divides by the pairing's second range difference, so
    # each row whose pairing touches a zero range difference, and only that
    # row, takes the cleared form: the system stays finite.
    arr = SensorArray(CANONICAL_SENSORS)
    matrix, rhs, scaled = _system(arr, deltas)
    assert scaled == tuple(deltas[k - 1] == 0.0 or deltas[j - 1] == 0.0
                           for k, j in DEFAULT_PAIRINGS)
    assert any(scaled) and not all(scaled)
    assert np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))


def test_pairing_fallback_on_double_zero_deltas():
    # Source equidistant from sensors (0,1) and (0,2): the default first
    # pairing (2,1) has both deltas zero, so a rotated pairing set is used.
    arr = SensorArray([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0.3, 0.4, 1.7), (1.2, -0.7, 0.4)])
    src = np.array([1.0, 1.0, 1.5])
    d = range_differences(Scenario(sensors=arr, source=src))
    assert d.deltas[0] == 0.0 and d.deltas[1] == 0.0
    result = solve_five_sensor(arr, d)
    assert result.diagnostics["pairing_retries"] >= 1
    assert np.linalg.norm(result.position - src) < 1e-9 * np.linalg.norm(src)


def test_pairing_fallbacks_leave_no_reference_cycles():
    # A pairing set skipped for vanishing deltas or a singular system keeps
    # its error for the message chain; that must not tie the error to its
    # own frame, or every retry leaves garbage only the collector frees.
    equidistant = SensorArray([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0.3, 0.4, 1.7), (1.2, -0.7, 0.4)])
    collinear = SensorArray([(0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9), (4, 8, 12)])
    gc.collect()
    gc.disable()
    try:
        solve_five_sensor(equidistant, range_differences(Scenario(equidistant, (1.0, 1.0, 1.5))))
        try:
            solve_five_sensor(collinear, range_differences(Scenario(collinear, (0.4, 0.1, 0.3))))
        except SingularMatrixError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_all_zero_deltas_degenerate():
    # Sensors on a sphere around the source: every range difference is zero.
    center = np.array([0.3, -0.1, 0.2])
    dirs = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)], float)
    arr = SensorArray(center + 0.8 * dirs)
    d = range_differences(Scenario(sensors=arr, source=center))
    np.testing.assert_array_equal(d.deltas, np.zeros(4))
    with pytest.raises(DegenerateDeltasError):
        solve_five_sensor(arr, d)
    # Every pairing set has a pairing with two vanishing range differences.
    assert all(_system(arr, d, pairings=pairings) is None for pairings in PAIRING_FALLBACKS)


def test_collinear_sensors_singular():
    arr = SensorArray([(0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9), (4, 8, 12)])
    d = range_differences(Scenario(sensors=arr, source=(0.4, 0.1, 0.3)))
    with pytest.raises(SingularMatrixError):
        solve_five_sensor(arr, d)


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(500):
        sc = _random_scenario(rng)
        base = solve_five_sensor(sc.sensors, range_differences(sc))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = rng.uniform(-10, 10, 3)
        moved = Scenario(
            sensors=SensorArray(sc.sensors.positions @ q.T + t),
            source=sc.source @ q.T + t,
        )
        est = solve_five_sensor(moved.sensors, range_differences(moved))
        expected = base.position @ q.T + t
        assert np.linalg.norm(est.position - expected) < 1e-9 * max(
            1.0, np.linalg.norm(expected)
        )


def test_pairing_fallbacks_structure():
    sets = PAIRING_FALLBACKS
    assert sets[0] == DEFAULT_PAIRINGS
    assert len(sets) == len(set(sets)) == 8
    for pairing in sets:
        assert len(pairing) == 3
        for k, j in pairing:
            assert 1 <= k <= 4 and 1 <= j <= 4 and k != j


def test_arity_validation():
    arr4 = SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        solve_five_sensor(arr4, np.array([0.1, 0.2, 0.3]))
