"""Generated properties of the sweep kernel against the scalar path.

The batch kernel (``_batch``) must give, on every row it calls generic,
what ``sample_scenario`` and ``run_instance`` give, bit for bit; its 3x3
elimination must match ``geom3.solve3_pivoted`` on any input, down to which
systems fail the rank test; and each solver helper it calls on columns must
give them, row by row, what it gives Python floats. The examples lean on the edges where the two
paths could part: tied pivots, zero factors, non-finite entries, extreme
magnitudes, and rows just either side of each test that makes a row generic.

The scalar solvers run on Python floats; on any input they must return a
finite position and finite candidates or raise a ``LocalizationError``, and
the reference frame's squared baselines must equal the ``np.einsum`` both
paths once used. Where a four-sensor result has two exact candidates, the
one picked must not change under a rotation, a change of units, a
translation or a reordering of the non-reference sensors.

Scenario documents go through ``load_scenario`` and ``document_deltas``,
which check each value once and build their records without the public
constructors; they must give what those constructors give, bit for bit, and
reject with ``ScenarioFormatError`` what the constructors reject. A valid
document text with characters deleted or inserted, a number replaced by a
non-number, or a value nested past the decoder's depth must still give a
finite position or a ``LocalizationError``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import storage_directory  # noqa: E402
from test_batch import SPECIAL, _Draws, _scalar_losing  # noqa: E402

from tdoaloc import (  # noqa: E402
    DEFAULT_SCALE_GRID,
    SPEED_OF_LIGHT,
    LocalizationError,
    RangeDifferences,
    Scenario,
    ScenarioFormatError,
    SensorArray,
    SingularMatrixError,
    arrival_times_to_range_diffs,
    document_deltas,
    instance_rng,
    load_scenario,
    localize,
    range_differences,
    run_instance,
    sample_scenario,
)
from tdoaloc._batch import _five_sensor, _solve3, solve_scale  # noqa: E402
from tdoaloc.geom3 import solve3_pivoted  # noqa: E402
from tdoaloc.measurement import EPS_SEP, _dot, _frame  # noqa: E402
from tdoaloc.solver4 import _coefficients, _line_rows, _point, _residual  # noqa: E402
from tdoaloc.solver5 import (  # noqa: E402
    EPS_DELTA,
    PAIRING_FALLBACKS,
    _build,
    _cleared_row,
    _literal_row,
)

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
        try:
            xs, _ = solve3_pivoted(system.tolist())
        except SingularMatrixError:
            assert not ok[n], system
            continue
        assert ok[n], system
        expected = np.array(xs).T  # one column per right-hand side
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


# Finite inputs at the edges of the float range: signed zeros, subnormals
# and huge values, whose products overflow to inf and whose sums of inf can
# be NaN.
_EDGE = st.one_of(
    _PLAIN,
    st.sampled_from([0.0, -0.0, math.ulp(0.0), -math.ulp(0.0), 2.2e-308, -1e-310, 1e300, -1e300,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Each rule that the scalar solvers and the batch share, with the shape of
# each argument: () a float, (3,) a 3-vector, (4, 3) the referenced rows.
_SHARED = {
    "dot": (_dot, [(3,), (3,)]),
    "line_rows": (_line_rows, [(4, 3), (4,), (3,)]),
    "coefficients": (_coefficients, [(3,), (3,)]),
    "point": (_point, [(), (3,), (3,), (3,)]),
    "residual": (_residual, [(3,), (4, 3), (3,), (3,)]),
    "literal_row": (_literal_row, [(3,), (3,), (), (), (), ()]),
    "cleared_row": (_cleared_row, [(3,), (3,), (), (), (), ()]),
}


@pytest.mark.parametrize("name", list(_SHARED))
@settings(max_examples=30)
@given(data=st.data())
def test_shared_helpers_give_columns_what_they_give_floats(name, data):
    # The batch calls these helpers on (N,) columns where the solvers call
    # them on Python floats: row by row, the results must agree bit for bit.
    helper, shapes = _SHARED[name]
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        # Values of one magnitude with every mantissa bit in use, where the
        # order of a sum shows in its rounding.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        args = [rng.uniform(-4.0, 4.0, (n, *shape)) for shape in shapes]
    else:
        args = [np.array(data.draw(st.lists(_EDGE, min_size=n * math.prod(shape),
                                            max_size=n * math.prod(shape)))).reshape(n, *shape)
                for shape in shapes]
    # Only the residual takes a square root: math.sqrt on floats, np.sqrt on columns.
    sqrts = ([math.sqrt], [np.sqrt]) if name == "residual" else ([], [])
    with np.errstate(all="ignore"):
        columns = np.array(helper(*[np.moveaxis(a, 0, -1) for a in args], *sqrts[1]))
    for row in range(n):
        try:
            floats = helper(*[a[row].tolist() for a in args], *sqrts[0])
        except ZeroDivisionError:
            # The one place where the two differ: a float division by zero
            # raises, while a column division gives inf or NaN. Only the
            # literal row divides, by dj, and its right-hand side is then NaN
            # (inf or NaN times dj * dj = 0). The batch leaves every such row
            # to the scalar path (test_zero_range_differences_are_never_generic).
            assert name == "literal_row" and args[5][row] == 0.0
            assert math.isnan(columns[3][row])
            continue
        assert _bits(columns[..., row]) == _bits(floats), [a[row].tolist() for a in args]


@settings(max_examples=30)
@given(data=st.data())
def test_zero_range_differences_are_never_generic(data):
    # A zero range difference would make the literal row divide by zero, so
    # no five-sensor row holding one is generic, whatever else it holds.
    n = data.draw(st.integers(1, 4))
    rel = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((5, 3, n)) - 0.5
    d = np.array(data.draw(st.lists(_EDGE, min_size=4 * n, max_size=4 * n))).reshape(4, n)
    zeroed = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, n - 1)), min_size=1))
    for i, row in zeroed:
        d[i, row] = data.draw(st.sampled_from([0.0, -0.0]))
    with np.errstate(all="ignore"):
        generic = _five_sensor(rel, _dot(rel.swapaxes(0, 1), rel.swapaxes(0, 1)), rel[0], d)[0]
    assert not generic[(d == 0.0).any(axis=0)].any()


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
    positions = np.reshape(rows, (n, 3))
    rel, _, sq, _ = _frame(positions.tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = positions - positions[0]
        expected = np.einsum("ij,ij->i", offsets, offsets)
    assert _bits(rel) == _bits(offsets), rows
    assert _bits(sq) == _bits(expected), rows


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


def _first_singular_pairings(sensors, deltas):
    """The first pairing set the five-sensor solver builds, if its system
    fails the rank test; None otherwise."""
    rel, _, sq, baseline = _frame(sensors.positions.tolist())
    d = deltas.tolist()
    for pairings in PAIRING_FALLBACKS:
        built = _build(rel, sq, d, EPS_DELTA * baseline, pairings)
        if built is not None:
            try:
                solve3_pivoted(built[0])
            except SingularMatrixError:
                return pairings
            return None
    return None


@pytest.mark.parametrize("n_sensors", [4, 5])
@given(data=st.data())
def test_solves_give_finite_results_or_typed_errors(n_sensors, data):
    sensors, deltas = data.draw(_solver_inputs(n_sensors))
    try:
        result = localize(sensors, deltas)
    except LocalizationError:
        return
    assert np.isfinite(result.position).all(), deltas
    for c in result.candidates:
        assert np.isfinite([c.reference_range, *c.position, c.residual]).all(), deltas
    if n_sensors == 5:
        # A singular first pairing set is passed over, not returned.
        first = _first_singular_pairings(sensors, deltas)
        if first is not None:
            assert result.diagnostics["pairing_retries"] > PAIRING_FALLBACKS.index(first)


def _pick(sensors, deltas) -> tuple[int, bool, int]:
    """The number of candidates of a four-sensor solve, its ``ambiguous``
    flag and the index of the candidate it picked."""
    result = localize(sensors, deltas)
    index = next(i for i, c in enumerate(result.candidates) if c.position is result.position)
    return len(result.candidates), result.ambiguous, index


@given(data=st.data())
def test_ambiguous_pick_is_invariant(data):
    # The first flagged instance from a drawn one of the acceptance sweep
    # (seed 20260809, 1000 instances per scale; about half are flagged).
    si = data.draw(st.integers(0, len(DEFAULT_SCALE_GRID) - 1))
    ii = data.draw(st.integers(0, 999))
    while True:
        scenario = sample_scenario(instance_rng(20260809, si, ii), 4, DEFAULT_SCALE_GRID[si])
        estimate = run_instance(scenario, THRESHOLDS).estimate
        if estimate is not None and estimate.ambiguous:
            break
        ii += 1
    # Near-equal roots may merge, or swap places, under any change.
    near, far = (c.reference_range for c in estimate.candidates)
    assume(far - near > 1e-6 * far)
    positions, source = scenario.sensors.positions, scenario.source
    deltas = range_differences(scenario).deltas
    expected = _pick(scenario.sensors, deltas)

    q, _ = np.linalg.qr(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((3, 3)))
    rotation = q * np.sign(np.linalg.det(q))
    k = data.draw(st.sampled_from([1e-3, 1e3]))  # m -> km, km -> m
    offset = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)))
    for name, moved_positions, moved_source in [
        ("rotation", positions @ rotation.T, source @ rotation.T),
        ("units", k * positions, k * source),
        ("translation", positions + offset, source + offset),
    ]:
        moved = Scenario(SensorArray(moved_positions), moved_source)
        assert _pick(moved.sensors, range_differences(moved)) == expected, (name, si, ii)
    order = data.draw(st.permutations([1, 2, 3]))
    reordered = SensorArray(positions[[0, *order]])
    assert _pick(reordered, deltas[[i - 1 for i in order]]) == expected, ("reorder", si, ii)


# JSON numbers a document may hold (_FINE): floats, ints (exact as floats or
# not) and negative zero. _BAD: values it must not hold, which JSON writes as
# NaN and Infinity or as ints beyond the float range, and finite ones large
# enough to overflow the forward model or the time conversion.
_FINE = st.one_of(st.floats(-10.0, 10.0), st.integers(-10, 10), st.just(-0.0),
                  st.integers(2**53 + 1, 2**70))
_BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e160]),
    st.integers(2**1024, 10**400).map(lambda v: v * (-1) ** (v % 2)),
)


@st.composite
def _documents(draw, kind):
    """A scenario document of 4 or 5 sensors with a source, range
    differences or arrival times (``kind`` "times" at the default ``c``,
    "times_c" at an explicit one), where one value in four documents is one
    the document must not hold, and others overflow the forward model or
    the time conversion; a source may sit on or next to a sensor."""
    n = draw(st.sampled_from([4, 5]))
    size = {"source": 3, "deltas": n - 1}.get(kind, n)
    values = draw(st.lists(_FINE, min_size=3 * n + size, max_size=3 * n + size))
    if kind.startswith("times"):
        # Arrival times of the size a range difference divided by c would be.
        values[3 * n:] = [v * 1e-8 if isinstance(v, float) else v for v in values[3 * n:]]
    if kind == "source" and draw(st.integers(0, 3)) == 0:
        # On a sensor, or within the separation the clearance check rejects.
        i = draw(st.integers(0, n - 1))
        values[3 * n:] = [float(v) + draw(st.sampled_from([0.0, 1e-10, 1e-6]))
                          for v in values[3 * i: 3 * i + 3]]
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(_BAD)
    doc = {"sensors": [values[3 * i: 3 * i + 3] for i in range(n)],
           kind.removesuffix("_c"): values[3 * n:]}
    if kind == "times_c":
        doc["c"] = draw(st.one_of(
            st.floats(1.0, 1e9), st.integers(1, 10**9), st.sampled_from([343.0, 1e300]),
            st.sampled_from([0, -343.0, -0.0, math.inf, math.nan]),
        ))
    return doc


def _constructed(doc):
    """The positions, the source (or None) and the range differences the
    public constructors give for ``doc``, or None where they reject it. A
    source's range differences come from a numpy forward model, not from
    ``range_differences``, which ``document_deltas`` calls."""
    try:
        sensors = SensorArray(doc["sensors"])
        if "source" in doc:
            source = Scenario(sensors, doc["source"]).source
            with np.errstate(over="ignore", invalid="ignore"):
                ranges = np.sqrt(np.sum((sensors.positions - source) ** 2, axis=1))
                deltas = RangeDifferences(ranges[1:] - ranges[0])
            return sensors.positions, source, deltas.deltas
        if "deltas" in doc:
            return sensors.positions, None, RangeDifferences(doc["deltas"]).deltas
        c = doc.get("c", SPEED_OF_LIGHT)
        deltas = RangeDifferences(arrival_times_to_range_diffs(doc["times"], c))
        return sensors.positions, None, deltas.deltas
    except (ValueError, OverflowError):
        return None


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "scenario.json"


@pytest.mark.parametrize("kind", ["source", "deltas", "times", "times_c"])
@settings(max_examples=50)
@given(data=st.data())
def test_documents_equal_the_public_constructors_bit_for_bit(doc_path, kind, data):
    doc = data.draw(_documents(kind))
    doc_path.write_text(json.dumps(doc))
    expected = _constructed(doc)
    try:
        loaded = load_scenario(doc_path)
        deltas = document_deltas(loaded).deltas
    except ScenarioFormatError:
        assert expected is None, doc
        return
    assert expected is not None, doc
    positions, source, expected_deltas = expected
    assert _bits(loaded.sensors.positions) == _bits(positions), doc
    assert (loaded.source is None) == (source is None), doc
    if source is not None:
        assert _bits(loaded.source) == _bits(source), doc
    assert _bits(deltas) == _bits(expected_deltas), doc
    for array in (loaded.sensors.positions, loaded.source, deltas):
        assert array is None or array.dtype == np.float64, doc
        assert array is None or not array.flags.writeable, doc


# Characters a mutation inserts: JSON punctuation, JSON and non-JSON
# whitespace, and a byte-order mark.
_INSERTS = '{}[],:"' + " \t\n\r\f\u00a0" + "\ufeff"
# A JSON number, and a list holding no list (a sensor row, a source, ...).
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_FLAT_LIST = re.compile(r"\[[^\[\]]*\]")


@st.composite
def _mutated_documents(draw):
    """The text of a valid source, deltas or times document after one to
    three mutations: a character deleted or inserted, a number replaced by
    one of ``true``, ``"1"``, ``1e400`` and ``NaN``, or a number or a list
    wrapped in 2000 brackets."""
    n = draw(st.sampled_from([4, 5]))
    scenario = sample_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, 1.0)
    kind = draw(st.sampled_from(["source", "deltas", "times"]))
    if kind == "source":
        value = scenario.source.tolist()
    elif kind == "deltas":
        value = range_differences(scenario).deltas.tolist()
    else:
        ranges = np.linalg.norm(scenario.sensors.positions - scenario.source, axis=1)
        value = (ranges / SPEED_OF_LIGHT).tolist()
    text = json.dumps({"sensors": scenario.sensors.positions.tolist(), kind: value})
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["delete", "insert", "number", "wrap"]))
        if mutation in ("delete", "insert"):
            i = draw(st.integers(0, len(text)))
            new = "" if mutation == "delete" else draw(st.sampled_from(_INSERTS))
            text = text[:i] + new + text[i + (mutation == "delete"):]
            continue
        spans = [m.span() for m in _NUMBER.finditer(text)]
        if mutation == "wrap":
            spans += [m.span() for m in _FLAT_LIST.finditer(text)]
        if not spans:
            continue
        start, end = draw(st.sampled_from(spans))
        if mutation == "wrap":
            new = "[" * 2000 + text[start:end] + "]" * 2000
        else:
            new = draw(st.sampled_from(["true", '"1"', "1e400", "NaN"]))
        text = text[:start] + new + text[end:]
    return text


@given(text=_mutated_documents())
def test_mutated_documents_give_positions_or_typed_errors(doc_path, text):
    doc_path.write_text(text, encoding="utf-8")
    try:
        doc = load_scenario(doc_path)
        result = localize(doc.sensors, document_deltas(doc))
    except LocalizationError:
        return
    assert np.isfinite(result.position).all(), text
