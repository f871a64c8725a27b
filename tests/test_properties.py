"""Generated properties of the sweep kernel against the scalar path.

The batch kernel (``_batch``) must give, on every row it calls generic,
what ``sample_scenario`` and ``run_instance`` give, bit for bit; its 3x3
elimination must match ``geom3.solve3_pivoted`` on any input, down to which
systems fail the rank test. The examples lean on the edges where the two
paths could part: tied pivots, zero factors, non-finite entries, extreme
magnitudes, and rows just either side of each test that makes a row generic.

The scalar solvers run the stages on Python floats, with numpy only for the
dot products; they must equal the composition of the public stage functions
bit for bit, and ``reference_frame``'s squared baselines must equal the
``np.einsum`` both paths once used.
"""

import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import storage_directory  # noqa: E402
from test_batch import SPECIAL, _Draws, _scalar_losing  # noqa: E402

from tdoaloc import (  # noqa: E402
    AmbiguityResolution,
    LocalizationError,
    LocalizationResult,
    Method,
    NoRealSolutionError,
    SensorArray,
    SingularMatrixError,
    build_five_sensor_system,
    build_four_sensor_system,
    candidate_positions,
    range_differences,
    reference_frame,
    resolve_ambiguity,
    run_instance,
    sample_scenario,
    solve_five_sensor,
    solve_four_sensor,
    solve_reference_range,
)
from tdoaloc._batch import _solve3, solve_scale  # noqa: E402
from tdoaloc.geom3 import solve3_pivoted  # noqa: E402
from tdoaloc.measurement import EPS_SEP, _record  # noqa: E402
from tdoaloc.solver5 import PAIRING_FALLBACKS  # noqa: E402

THRESHOLDS = (1e-6, 1e-3)


def test_hypothesis_stores_nothing_in_the_checkout():
    # conftest.py points hypothesis's storage at a temporary directory.
    home = storage_directory(intent_to_write=False).home_directory.resolve()
    root = Path(__file__).resolve().parents[1]
    assert home != root and root not in home.parents, home


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


@given(data=st.data())
def test_reference_frame_squares_sum_as_einsum(data):
    # Coordinates from 1e-300 to 1e300, of one magnitude (where the order of
    # the three-term sum shows), of nearby ones or of unrelated ones; squares
    # past the float range are inf and those below it 0. The sensors skip
    # SensorArray's checks: the arithmetic is under test, and coordinates
    # below 1e-9 would be rejected as coincident.
    n = data.draw(st.sampled_from([4, 5]))
    base = data.draw(st.integers(-300, 299))
    spread = data.draw(st.sampled_from([0, 2, 600]))
    coordinate = st.builds(
        lambda m, e: m * 10.0 ** min(max(base + e, -300), 299),
        st.floats(-9.999, 9.999), st.integers(-spread, spread),
    )
    rows = data.draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n))
    sensors = _record(SensorArray, positions=np.reshape(rows, (n, 3)))
    rel = reference_frame(sensors)
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = sensors.positions - sensors.positions[0]
        expected = np.einsum("ij,ij->i", offsets, offsets)
    assert _bits(rel.rel_positions) == _bits(offsets), rows
    assert _bits(rel.sq) == _bits(expected), rows


def _outcome(solve):
    """Everything a solve returns, bit-exact, or its error's type and message."""
    try:
        result = solve()
    except Exception as err:
        return type(err), str(err)
    return (
        _bits(result.position), result.method, result.ambiguous,
        result.ambiguity_resolved_by, repr(result.diagnostics),
        [(_bits(c.reference_range), _bits(c.position), _bits(c.residual))
         for c in result.candidates],
    )


def _four_by_stages(sensors, deltas):
    rel = reference_frame(sensors)
    system = build_four_sensor_system(rel, deltas)
    roots = solve_reference_range(system)
    result = resolve_ambiguity(candidate_positions(system, roots, rel.origin), rel, deltas)
    result.diagnostics.update(
        pivots=system.pivots,
        pivot_ratio=min(system.pivots) / max(system.pivots),
        quadratic=(roots.a, roots.b_half, roots.c_coef),
        discriminant=roots.discriminant,
        linear_fallback=roots.linear_fallback,
    )
    return result


def _five_by_stages(sensors, deltas):
    """The first pairing set ``build_five_sensor_system`` picks, solved; a
    singular system there leaves the retries to the solver."""
    rel = reference_frame(sensors)
    system = build_five_sensor_system(rel, deltas)
    x, pivots = solve3_pivoted(system.matrix, system.rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        position = x + rel.origin
    if not np.isfinite(position).all():
        raise NoRealSolutionError("range differences too large for the array: no finite position")
    return LocalizationResult(
        position=position,
        method=Method.FIVE_SENSOR,
        candidates=(),
        ambiguity_resolved_by=AmbiguityResolution.NOT_APPLICABLE,
        diagnostics={
            "pivots": pivots,
            "pivot_ratio": min(pivots) / max(pivots),
            "pairings": system.pairings,
            "scaled_rows": system.scaled_rows,
            "pairing_retries": PAIRING_FALLBACKS.index(system.pairings),
        },
    )


@st.composite
def _solver_inputs(draw, n):
    """Sensors and range differences: a sampled geometry, or one of the
    hand-built tangent, linear-fallback, equidistant and coplanar ones, with
    exact, perturbed, zeroed, repeated or overflowing range differences."""
    scale = 10.0 ** draw(st.integers(-6, 3))
    base = draw(st.sampled_from(["random", *SPECIAL[n]]))
    if base == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        scenario = sample_scenario(np.random.default_rng(seed), n, scale)
    else:
        scenario = sample_scenario(_Draws(SPECIAL[n][base]), n, 1.0)
    sensors = scenario.sensors
    deltas = range_differences(scenario).deltas.copy()
    kind = draw(st.sampled_from(["exact", "noisy", "zeroed", "repeated", "huge"]))
    if kind == "noisy":
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))
        deltas = deltas + np.array(noise) * 10.0 ** draw(st.integers(-12, 0))
    elif kind == "zeroed":
        zeroed = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=n - 1))
        deltas[zeroed] = 0.0
    elif kind == "repeated":
        deltas[:] = deltas[draw(st.integers(0, n - 2))]
    elif kind == "huge":
        deltas = np.array(draw(st.lists(
            st.sampled_from([1e200, -1e200, 1e150, -3e154]), min_size=n - 1, max_size=n - 1
        )))
    return sensors, deltas


@pytest.mark.parametrize("n_sensors", [4, 5])
@given(data=st.data())
def test_solvers_equal_their_stage_functions(n_sensors, data):
    sensors, deltas = data.draw(_solver_inputs(n_sensors))
    if n_sensors == 4:
        solved = _outcome(lambda: solve_four_sensor(sensors, deltas))
        assert solved == _outcome(lambda: _four_by_stages(sensors, deltas)), deltas
        return
    solved = _outcome(lambda: solve_five_sensor(sensors, deltas))
    staged = _outcome(lambda: _five_by_stages(sensors, deltas))
    if staged[0] is not SingularMatrixError:
        assert solved == staged, deltas
        return
    # The solver goes on to the next pairing sets: it may fail there too,
    # but it does not return the singular set's result.
    first = build_five_sensor_system(reference_frame(sensors), deltas).pairings
    try:
        result = solve_five_sensor(sensors, deltas)
    except LocalizationError:
        return
    assert result.diagnostics["pairing_retries"] > PAIRING_FALLBACKS.index(first), staged
