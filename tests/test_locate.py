"""Scenario documents through load_scenario, document_deltas and localize."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from tdoaloc import (
    LocalizationError,
    Method,
    NoCandidatesError,
    NoRealSolutionError,
    ScenarioFormatError,
    SensorArray,
    document_deltas,
    instance_rng,
    load_scenario,
    localize,
    range_differences,
    sample_scenario,
)
from tdoaloc.measurement import _dot
from tdoaloc.cli import EXIT_DEGENERATE, EXIT_NO_REAL_SOLUTION, EXIT_PARSE_ERROR, main

SEED = 20260809
SCALES = (1e-6, 1e-3, 1.0, 10.0)
SPEED_OF_SOUND = 343.0
UNIT_5 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
# Sensors 0, 1 and 2 as in UNIT_5, the others off its symmetry planes.
SKEW_5 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1.0], [0.9, 0.4, -0.6]]

# SHA-256 over every outcome of _golden_documents(). Performance work must
# leave each localize output bit-identical; never update this digest to
# make a change pass.
LOCATE_DIGEST = "2ef801a397304fce693debdfa7c6bbf994e1a8476bbda83347622f8e7036af4f"


def _golden_documents():
    """Seeded scenarios of both array sizes at several source scales, each
    given as its source, as its range differences and as arrival times
    with ``c`` = 343 m/s, plus documents with vanishing range differences
    (cleared rows and pairing retries)."""
    docs = []
    for n in (4, 5):
        for si, scale in enumerate(SCALES):
            for ii in range(20):
                sc = sample_scenario(instance_rng(SEED, si, ii), n, scale)
                sensors = sc.sensors.positions.tolist()
                deltas = range_differences(sc).deltas
                diff = sc.sensors.positions - sc.source
                ranges = np.sqrt(np.sum(diff * diff, axis=1))
                times = 0.01 * ii + ranges / SPEED_OF_SOUND
                docs.append({"sensors": sensors, "source": sc.source.tolist()})
                docs.append({"sensors": sensors, "deltas": deltas.tolist()})
                docs.append(
                    {"sensors": sensors, "times": times.tolist(), "c": SPEED_OF_SOUND}
                )
    for source in ([0.5, 0.5, 2.0], [0.5, 0.3, 2.0], [0.5, 0.5, -0.7], [0.2, 0.5, 0.5]):
        for sensors in (UNIT_5, SKEW_5, UNIT_5[:4]):
            docs.append({"sensors": sensors, "source": source})
    return docs


def _outcome(doc_path) -> bytes:
    try:
        doc = load_scenario(doc_path)
        result = localize(doc.sensors, document_deltas(doc))
    except LocalizationError as err:
        return f"{type(err).__name__}: {err}\n".encode()
    # How the position was picked, as method and candidate count give it.
    if result.method is Method.FIVE_SENSOR:
        resolved = "not_applicable"
    else:
        resolved = "residual" if len(result.candidates) == 2 else "single_root"
    parts = [
        result.position.tobytes(),
        f"{result.method.value} {resolved} "
        f"{result.ambiguous} {result.diagnostics!r}".encode(),
    ]
    for cand in result.candidates:
        parts.append(cand.position.tobytes())
        parts.append(
            f"{float.hex(cand.reference_range)} {float.hex(cand.residual)}".encode()
        )
    return b"|".join(parts) + b"\n"


def test_localize_golden_digest(tmp_path):
    digest = hashlib.sha256()
    kinds = {"ambiguous": 0, "retries": 0, "cleared": 0, "errors": 0}
    for i, doc in enumerate(_golden_documents()):
        path = tmp_path / f"doc{i:03d}.json"
        path.write_text(json.dumps(doc))
        out = _outcome(path)
        digest.update(out)
        kinds["ambiguous"] += b" True {" in out
        kinds["retries"] += b"'pairing_retries': 0" not in out and b"five_sensor" in out
        kinds["cleared"] += (
            b"'scaled_rows': (False, False, False)" not in out and b"five_sensor" in out
        )
        kinds["errors"] += b"Error: " in out
    # The set covers flagged four-sensor results, five-sensor retries and
    # cleared rows.
    assert min(kinds.values()) > 0, kinds
    assert digest.hexdigest() == LOCATE_DIGEST, kinds


# 3-vector pairs whose dot rounds differently as an FMA chain and as a plain
# sum of products, so the test below tells the two apart.
FMA_DOT_CASES = [
    ([-0.705, -1.397, 0.604], [-1.71, 0.144, -0.537]),
    ([-0.302, 1.307, -1.505], [-1.107, 0.51, 1.791]),
    ([-1.423, -1.529, -0.766], [1.265, -1.277, 0.326]),
    ([0.556, -0.51, 0.191], [-1.749, -1.762, -1.176]),
]


def _fma(a, b, c):
    """``a * b + c`` rounded once, from the exact rational value."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


@pytest.mark.parametrize("x, y", FMA_DOT_CASES)
def test_dot_rounds_as_the_golden_digests_assume(x, y):
    # LOCATE_DIGEST and the sweep digests assume every dot is the plain sum
    # (x0*y0 + x1*y1) + x2*y2, each operation rounded on its own; the scalar
    # path and the batch call the one _dot. An FMA chain (as BLAS ddot
    # rounds) would give other bits on these cases.
    fma_chain = _fma(x[2], y[2], _fma(x[1], y[1], x[0] * y[0]))
    p0, p1, p2 = (float(Fraction(a) * Fraction(b)) for a, b in zip(x, y))
    plain = float(Fraction(float(Fraction(p0) + Fraction(p1))) + Fraction(p2))
    assert plain != fma_chain
    assert _dot(x, y) == plain


def test_locate_directory_parse_error(tmp_path):
    # Reported as open() reports it, with the path.
    with pytest.raises(IsADirectoryError) as opened:
        open(tmp_path, "rb")
    with pytest.raises(ScenarioFormatError) as loaded:
        load_scenario(tmp_path)
    assert str(loaded.value) == f"cannot parse scenario document: {opened.value}"


def test_load_scenario_reads_a_long_file_whole(tmp_path):
    path = tmp_path / "padded.json"
    doc = {"sensors": UNIT_5, "deltas": [0.1, 0.2, 0.3, 0.4]}
    path.write_text(json.dumps(doc) + " " * 100_000)  # read in several chunks
    assert load_scenario(path).deltas.deltas.tolist() == doc["deltas"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, deltas, error, code",
    [
        # Finite range differences far beyond every baseline: their squares
        # overflow while the pivots stay sound.
        (5, [1e200, -1e200, 1e200, 3e200], NoRealSolutionError, EXIT_NO_REAL_SOLUTION),
        (4, [1e200, -1e200, 1e200], NoCandidatesError, EXIT_DEGENERATE),
    ],
    ids=["five_sensors", "four_sensors"],
)
def test_huge_deltas_give_a_typed_error(tmp_path, capsys, n, deltas, error, code):
    with pytest.raises(error):
        localize(SensorArray(UNIT_5[:n]), deltas)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"sensors": UNIT_5[:n], "deltas": deltas}))
    assert main(["locate", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# Nesting beyond the interpreter's recursion limit.
DEEP_SENSORS = '{"sensors": ' + "[" * 5000
DEEP_BARE = "[" * 100_000


@pytest.mark.parametrize(
    "text",
    [
        b'{"sensors": [[0, 0, 0]], "source": "\xe9"}',  # not UTF-8
        b'{"sensors": [[0, 0, 0]], "deltas": [1' + b"0" * 5000 + b"]}",  # too many digits
        DEEP_SENSORS.encode(),
    ],
    ids=["not_utf8", "int_too_long", "too_deep"],
)
def test_locate_unreadable_document_parse_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_bytes(text)
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)
    assert main(["locate", str(path)]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith("error: cannot parse")


EDGE_DOC = '{"sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "deltas": [0.1, 0.2, 0.3]}'
PARSE = "cannot parse scenario document: "
DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
# No message of a rejected document is longer: one quotes at most 40
# characters of the document, however deep or long the value it quotes.
MESSAGE_CHARS = 128


# Document texts at the edges of JSON: each is accepted (None), or rejected
# with the message json.loads gives it, at the same position.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(EDGE_DOC, None, id="plain"),
        pytest.param("   " + EDGE_DOC, None, id="leading_spaces"),
        pytest.param("\t\n\r\n " + EDGE_DOC, None, id="leading_tabs_newlines"),
        pytest.param(EDGE_DOC + "   ", None, id="trailing_spaces"),
        pytest.param(EDGE_DOC + "\t\r\n\n", None, id="trailing_tabs_newlines"),
        pytest.param(EDGE_DOC + " x", PARSE + "Extra data: line 1 column 86 (char 85)",
                     id="trailing_garbage"),
        pytest.param(EDGE_DOC + ",", PARSE + "Extra data: line 1 column 85 (char 84)",
                     id="trailing_comma"),
        pytest.param(EDGE_DOC + EDGE_DOC, PARSE + "Extra data: line 1 column 85 (char 84)",
                     id="two_objects"),
        pytest.param(EDGE_DOC + "\n" + EDGE_DOC + "\n",
                     PARSE + "Extra data: line 2 column 1 (char 85)", id="two_objects_newline"),
        pytest.param("", PARSE + "Expecting value: line 1 column 1 (char 0)", id="empty"),
        pytest.param(" \t\n\r ", PARSE + "Expecting value: line 2 column 3 (char 5)",
                     id="whitespace_only"),
        pytest.param("\ufeff" + EDGE_DOC, PARSE + "Unexpected UTF-8 BOM (decode using "
                     "utf-8-sig): line 1 column 1 (char 0)", id="bom"),
        pytest.param(" \ufeff" + EDGE_DOC, PARSE + "Expecting value: line 1 column 2 (char 1)",
                     id="space_then_bom"),
        # Form feed and no-break space are whitespace to Python, not to JSON.
        pytest.param("\f" + EDGE_DOC, PARSE + "Expecting value: line 1 column 1 (char 0)",
                     id="form_feed"),
        pytest.param(EDGE_DOC + "\u00a0", PARSE + "Extra data: line 1 column 85 (char 84)",
                     id="trailing_nbsp"),
        pytest.param(EDGE_DOC.replace("0.2", "NaN"), "'deltas' must hold finite numbers",
                     id="nan"),
        pytest.param(EDGE_DOC.replace("0.2", "Infinity"), "'deltas' must hold finite numbers",
                     id="infinity"),
        pytest.param(EDGE_DOC.replace("0.2", "-Infinity"), "'deltas' must hold finite numbers",
                     id="minus_infinity"),
        pytest.param(EDGE_DOC[:-1], PARSE + "Expecting ',' delimiter: line 1 column 84 (char 83)",
                     id="truncated"),
        pytest.param(DEEP_SENSORS, PARSE + DEEP, id="deep_sensors"),
        pytest.param(DEEP_BARE, PARSE + DEEP, id="deep_bare"),
        pytest.param(EDGE_DOC.replace("0.2", "[" * 900 + "0.2" + "]" * 900),
                     "'deltas' must hold numbers, got " + "[" * 37 + "...", id="deep_value"),
        pytest.param(EDGE_DOC.replace("0.2", '"' + "x" * 5000 + '"'),
                     "'deltas' must hold numbers, got \"" + "x" * 36 + "...", id="long_string"),
        pytest.param(EDGE_DOC.replace('"deltas"', '"' + "x" * 5000 + '": 0, "deltas"'),
                     "unknown scenario keys: ['" + "x" * 35 + "...", id="long_key"),
    ],
)
def test_document_text_edges(tmp_path, text, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(text.encode())
    if message is None:
        assert load_scenario(path).deltas.deltas.tolist() == [0.1, 0.2, 0.3]
        return
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(path)
    assert str(err.value) == message
    assert len(message) <= MESSAGE_CHARS


def test_nesting_at_every_depth_is_a_format_error(tmp_path):
    # Up to past the recursion limit, wherever the decoder stops: a value
    # nested just below it passes the decoder, and the error message that
    # prints it must neither overflow the stack nor print the whole value.
    path = tmp_path / "scenario.json"
    for depth in range(1, 1100):
        path.write_text(EDGE_DOC.replace("0.2", "[" * depth + "0.2" + "]" * depth))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert len(str(err.value)) <= MESSAGE_CHARS, depth
