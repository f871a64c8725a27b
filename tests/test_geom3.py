import numpy as np
import pytest

from tdoaloc import SingularMatrixError, solve3_pivoted


def test_solve3_identity():
    x = solve3_pivoted(np.eye(3), (4, 5, 6))[0]
    np.testing.assert_array_equal(x, [4.0, 5.0, 6.0])


def test_solve3_diagonal():
    x = solve3_pivoted(np.diag([2.0, 4.0, 8.0]), (2, 4, 8))[0]
    np.testing.assert_array_equal(x, [1.0, 1.0, 1.0])


def test_solve3_two_equal_rows_is_singular():
    a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve3_pivoted(a, (1, 1, 1))


def test_solve3_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        solve3_pivoted(np.zeros((3, 3)), (1, 1, 1))


def test_solve3_needs_pivoting():
    # Zero in the (0, 0) slot forces a row swap.
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(solve3_pivoted(a, (2.0, 3.0, 4.0))[0], [3.0, 2.0, 4.0])


def test_solve3_roundtrip_well_conditioned():
    # 500 random systems filtered by an independent condition estimate.
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 500:
        a = rng.standard_normal((3, 3))
        if np.linalg.cond(a) >= 1e6:
            continue
        s = rng.standard_normal(3)
        x, pivots = solve3_pivoted(a, a @ s)
        assert np.linalg.norm(x - s) < 1e-10 * np.linalg.norm(s)
        assert len(pivots) == 3 and all(p > 0 for p in pivots)
        # residual stays at machine precision relative to the problem scale
        resid = np.linalg.norm(a @ x - (a @ s))
        assert resid <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(x)
        checked += 1


def test_solve3_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    x1 = solve3_pivoted(a, b)[0]
    x2 = solve3_pivoted(a.copy(), b.copy())[0]
    assert x1.tobytes() == x2.tobytes()


def test_solve3_columns_match_single_solves():
    # Several right-hand sides share one elimination; each column must be
    # bit-identical to solving it alone, pivots included.
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        x, pivots = solve3_pivoted(a, b)
        assert x.shape == (3, 2)
        for k in range(2):
            xk, pk = solve3_pivoted(a, b[:, k])
            assert x[:, k].tobytes() == xk.tobytes()
            assert pivots == pk

