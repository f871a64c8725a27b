"""Generated properties of the sweep kernel against the scalar path.

The batch kernel (``_batch``) must give, on every row it calls generic,
what ``sample_scenario`` and ``run_instance`` give, bit for bit; its 3x3
elimination must match ``geom3.solve3_pivoted`` on any input, down to which
systems fail the rank test. The examples lean on the edges where the two
paths could part: tied pivots, zero factors, non-finite entries, extreme
magnitudes, and rows just either side of each test that makes a row generic.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_batch import SPECIAL, _Draws, _scalar_losing  # noqa: E402

from tdoaloc import SingularMatrixError, run_instance, sample_scenario  # noqa: E402
from tdoaloc._batch import _solve3, solve_scale  # noqa: E402
from tdoaloc.geom3 import solve3_pivoted  # noqa: E402
from tdoaloc.measurement import EPS_SEP  # noqa: E402

THRESHOLDS = (1e-6, 1e-3)


def _bits(values) -> list:
    """The bit patterns of ``values``, with every NaN as numpy's one NaN
    (numpy and Python may carry NaN payloads differently)."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64).tolist()


# Small integers give zero factors and ties; other entries round. Half the
# systems also draw non-finite, subnormal and extreme entries.
_PLAIN = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
_WILD = st.one_of(
    _PLAIN,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, math.ulp(0.0), 1e-300, 1e300]),
    st.floats(),
)


@st.composite
def _systems(draw, k):
    """One augmented ``(3, 3 + k)`` system ``[a | b]``."""
    rows = st.lists(draw(st.sampled_from([_PLAIN, _WILD])), min_size=3 + k, max_size=3 + k)
    system = np.array(draw(st.lists(rows, min_size=3, max_size=3)))
    rows_rs = st.permutations(range(3)).map(lambda p: p[:2])
    with np.errstate(all="ignore"):
        # Equal-magnitude pivot candidates of either sign.
        ties = st.tuples(st.integers(0, 2), rows_rs, st.sampled_from([1.0, -1.0]))
        for col, (r, s), sign in draw(st.lists(ties, max_size=2)):
            system[r, col] = sign * system[s, col]
        if draw(st.booleans()):
            # Rank deficiency: a row of ``a`` a multiple of another (0: a zero row).
            r, s = draw(rows_rs)
            system[r, :3] = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5])) * system[s, :3]
        return system * 10.0 ** draw(st.integers(-300, 300))


@pytest.mark.parametrize("k", [1, 2])
@given(data=st.data())
def test_solve3_equals_scalar_solve_bit_for_bit(k, data):
    systems = data.draw(st.lists(_systems(k), min_size=1, max_size=6))
    with np.errstate(all="ignore"):
        x, ok = _solve3(np.stack(systems, axis=-1))
    for n, system in enumerate(systems):
        # k = 1 as a (3,) right-hand side, k = 2 as a (3, 2) one.
        rhs = system[:, 3] if k == 1 else system[:, 3:]
        try:
            expected, _ = solve3_pivoted(system[:, :3], rhs)
        except SingularMatrixError:
            assert not ok[n], system
            continue
        assert ok[n], system
        assert _bits(x[..., n].reshape(expected.shape)) == _bits(expected), system


def _near(draw, point, distance) -> np.ndarray:
    """A point about ``distance`` from ``point``, in a drawn direction."""
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0.1 else np.array([1.0, 0.0, 0.0])
    return point + distance * direction


@st.composite
def _rows(draw, n_sensors, unit_scale):
    """One row of first-draw uniforms near the edges of "generic": sensor or
    source gaps near the 2 * EPS_SEP margin, and nudges of the hand-built
    tangent, linear-fallback and equidistant rows toward a vanishing
    discriminant, leading coefficient or range difference. The hand-built
    rows and the source gap hold at source scale 1 only."""
    n = n_sensors
    kinds = [*SPECIAL[n], "source_gap"] if unit_scale else []
    kind = draw(st.sampled_from(kinds + ["sensor_gap", "random"]))
    if kind in SPECIAL[n]:
        u = np.array(SPECIAL[n][kind][: 3 * n + 3])
    else:
        u = np.array(draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=3 * n + 3, max_size=3 * n + 3
        )))
    gap = EPS_SEP * draw(st.floats(1.0, 3.0))
    i, j = draw(st.permutations(range(n)))[:2]
    if kind == "sensor_gap":
        u[3 * j: 3 * j + 3] = _near(draw, u[3 * i: 3 * i + 3], gap)
    elif kind == "source_gap":
        u[3 * n:] = _near(draw, u[3 * i: 3 * i + 3], gap)
    nudges = st.tuples(st.integers(0, 3 * n + 2), st.sampled_from([-1.0, 1.0]), st.floats(-16, -6))
    for c, sign, exponent in draw(st.lists(nudges, max_size=3)):
        u[c] += sign * 10.0**exponent
    return u.tolist()


@pytest.mark.parametrize("n_sensors", [4, 5])
@given(data=st.data())
def test_generic_rows_equal_scalar_path_bit_for_bit(n_sensors, data):
    scale = data.draw(st.one_of(st.just(1.0), st.sampled_from([1e-3, 1e-6]), st.floats(1e-7, 2.0)))
    rows = data.draw(st.lists(_rows(n_sensors, scale == 1.0), min_size=1, max_size=4))
    generic, position, rel_error, losing = solve_scale(np.array(rows), n_sensors, scale)
    for k in np.flatnonzero(generic):
        scenario = sample_scenario(_Draws(rows[k]), n_sensors, scale)
        result = run_instance(scenario, THRESHOLDS)
        assert result.estimate is not None, (rows[k], result.error)
        assert _bits(position[k]) == _bits(result.estimate.position), rows[k]
        assert _bits(rel_error[k]) == _bits(result.rel_error), rows[k]
        assert _bits(losing[k]) == _bits(_scalar_losing(scenario, result.estimate)), rows[k]
