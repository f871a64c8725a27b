"""Scenario documents through load_scenario, document_deltas and localize."""

import hashlib
import json

import numpy as np
import pytest

from tdoaloc import (
    LocalizationError,
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
LOCATE_DIGEST = "e1943790eb6f0767db35965223f1d43e997da82c2d0b9fb3e218d4dcf73d8651"


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
    parts = [
        result.position.tobytes(),
        f"{result.method.value} {result.ambiguity_resolved_by.value} "
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


@pytest.mark.parametrize(
    "text",
    [
        b'{"sensors": [[0, 0, 0]], "source": "\xe9"}',  # not UTF-8
        b'{"sensors": [[0, 0, 0]], "deltas": [1' + b"0" * 5000 + b"]}",  # too many digits
    ],
    ids=["not_utf8", "int_too_long"],
)
def test_locate_unreadable_document_parse_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_bytes(text)
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)
    assert main(["locate", str(path)]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith("error: cannot parse")
