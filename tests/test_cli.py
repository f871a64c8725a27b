import hashlib
import json

import numpy as np
import pytest

from tdoaloc import ExperimentConfig, run_sweep
from tdoaloc.cli import (
    CSV_COLUMNS,
    EXIT_INVALID_CONFIG,
    EXIT_NO_REAL_SOLUTION,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_SINGULAR,
    main,
    read_sweep_cells,
)

CANONICAL_5 = {
    "sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "source": [2, 3, 4],
}


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _position_from_report(text):
    for line in text.splitlines():
        if line.startswith("position_m:"):
            return np.array([float(v) for v in line.split(":", 1)[1].split()])
    raise AssertionError(f"no position in report:\n{text}")


def test_locate_canonical_five_sensor(tmp_path, capsys):
    path = _write(tmp_path, CANONICAL_5)
    assert main(["locate", path]) == EXIT_OK
    out = capsys.readouterr().out
    np.testing.assert_allclose(_position_from_report(out), [2, 3, 4], atol=1e-9)
    assert "method: five_sensor" in out


def test_locate_four_sensor_reports_candidates(tmp_path, capsys):
    doc = {
        "sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "source": [2, 3, 4],
    }
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    np.testing.assert_allclose(_position_from_report(out), [2, 3, 4], atol=1e-9)
    assert "method: four_sensor" in out
    assert "candidate[0]:" in out


def test_locate_from_deltas(tmp_path, capsys):
    deltas = [
        -0.28614529354171925,
        -0.486185321568148,
        -0.694749047311074,
        -1.6435074203605624,
    ]
    doc = {"sensors": CANONICAL_5["sensors"], "deltas": deltas}
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    np.testing.assert_allclose(_position_from_report(out), [2, 3, 4], atol=1e-8)


def test_locate_from_times(tmp_path, capsys):
    c = 343.0
    deltas = np.array([
        -0.28614529354171925,
        -0.486185321568148,
        -0.694749047311074,
        -1.6435074203605624,
    ])
    doc = {
        "sensors": CANONICAL_5["sensors"],
        "times": [0.0] + list(deltas / c),
        "c": c,
    }
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    np.testing.assert_allclose(_position_from_report(out), [2, 3, 4], atol=1e-8)


def test_locate_three_sensors_parse_error(tmp_path, capsys):
    doc = {"sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "source": [2, 3, 4]}
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_PARSE_ERROR
    assert "error:" in capsys.readouterr().err


def test_locate_collinear_singular_exit(tmp_path, capsys):
    doc = {
        "sensors": [[0, 0, 0], [1, 2, 3], [2, 4, 6], [3, 6, 9], [4, 8, 12]],
        "source": [0.4, 0.1, 0.3],
    }
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_SINGULAR
    assert "error:" in capsys.readouterr().err


def test_locate_inconsistent_deltas_no_real_solution(tmp_path, capsys):
    doc = {
        "sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "deltas": [0.9, 0.9, -0.9],
    }
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_NO_REAL_SOLUTION
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "doc",
    [
        {"sensors": CANONICAL_5["sensors"], "times": [0.0, 1e-3, 2e-3, 3e-3, 4e-3], "c": "abc"},
        {"sensors": CANONICAL_5["sensors"], "times": [0.0, 1e-3, 2e-3, 3e-3, 4e-3], "c": None},
        {"sensors": CANONICAL_5["sensors"], "times": [0.0, 1e-3, 2e-3, 3e-3, 4e-3], "c": True},
        {**CANONICAL_5, "c": float("inf")},  # written as 1e400, read back as inf
        {"sensors": CANONICAL_5["sensors"], "source": [1e300, 1e300, 1e300]},
        {"sensors": CANONICAL_5["sensors"], "source": [1, 1, 1]},  # on sensor 4
        {"sensors": CANONICAL_5["sensors"], "source": [True, 0.2, 0.3]},
        {"sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [True, 1, 2]],
         "source": [2, 3, 4]},
        {"sensors": CANONICAL_5["sensors"], "deltas": [0.1, False, 0.2, 0.3]},
        {"sensors": CANONICAL_5["sensors"], "times": [0.0, 1e-3, True, 3e-3, 4e-3]},
        {"sensors": CANONICAL_5["sensors"], "times": [0.0, 1e300, 2e-3, 3e-3, 4e-3]},
        # Every value must be a JSON number: no numeric text, and no integer
        # beyond the float range.
        {**CANONICAL_5, "c": "343"},
        {"sensors": [["0", "0", "0"]] + CANONICAL_5["sensors"][1:], "source": [2, 3, 4]},
        {"sensors": CANONICAL_5["sensors"], "deltas": [0.1, "0.2", 0.3, 0.4]},
        {**CANONICAL_5, "c": 10**400},
        {"sensors": [[0, 0, 10**400]] + CANONICAL_5["sensors"][1:], "source": [2, 3, 4]},
        {"sensors": CANONICAL_5["sensors"], "deltas": [0.1, 0.2, 10**400, 0.4]},
    ],
    ids=[
        "c_text", "c_null", "c_bool", "c_infinite", "source_overflows", "source_on_sensor",
        "source_bool", "sensors_bool", "deltas_bool", "times_bool", "times_overflow",
        "c_numeric_text", "sensors_numeric_text", "deltas_numeric_text",
        "c_huge_int", "sensors_huge_int", "deltas_huge_int",
    ],
)
def test_locate_bad_document_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    assert main(["locate", str(path)]) == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_locate_missing_file(capsys):
    assert main(["locate", "/no/such/file.json"]) == EXIT_PARSE_ERROR
    capsys.readouterr()


def test_locate_out_file(tmp_path, capsys):
    path = _write(tmp_path, CANONICAL_5)
    out_path = tmp_path / "report.txt"
    assert main(["locate", path, "--out", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    np.testing.assert_allclose(
        _position_from_report(out_path.read_text()), [2, 3, 4], atol=1e-9
    )


def test_unknown_flag_rejected(capsys):
    assert main(["locate", "x.json", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_rejected(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_sweep_csv_deterministic_and_parseable(tmp_path, capsys):
    args = [
        "sweep", "--sensors", "5", "--instances", "20", "--seed", "7",
        "--scales", "0.01,1.0", "--thresholds", "1e-6,1e-3",
    ]
    assert main(args) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(args) == EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.splitlines()[0] == ",".join(CSV_COLUMNS)

    cells = read_sweep_cells(out1)
    direct = run_sweep(
        ExperimentConfig(
            n_sensors=5, n_instances=20, seed=7,
            thresholds=(1e-6, 1e-3), scale_grid=(0.01, 1.0),
        )
    )
    assert cells == direct.cells  # lossless round trip
    assert {c.threshold for c in cells} == {1e-6, 1e-3}


def test_sweep_json_format(tmp_path):
    out_path = tmp_path / "sweep.json"
    args = [
        "sweep", "--sensors", "4", "--instances", "10", "--seed", "3",
        "--scales", "1.0", "--format", "json", "--out", str(out_path),
    ]
    assert main(args) == EXIT_OK
    records = json.loads(out_path.read_text())
    assert len(records) == 2
    assert set(records[0]) == set(CSV_COLUMNS)
    assert all(r["n_instances"] == 10 for r in records)


def test_sweep_scale_range_flag(tmp_path):
    out_path = tmp_path / "sweep.csv"
    args = [
        "sweep", "--instances", "5", "--scale-range", "1e-4,1,3",
        "--thresholds", "1e-3", "--out", str(out_path), "--seed", "1",
    ]
    assert main(args) == EXIT_OK
    cells = read_sweep_cells(out_path.read_text())
    np.testing.assert_allclose(
        [c.source_scale for c in cells], [1e-4, 1e-2, 1.0], rtol=1e-12
    )


def test_sweep_invalid_configs(capsys):
    assert main(["sweep", "--instances", "0"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    assert main(["sweep", "--thresholds", "0"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    assert main(["sweep", "--scales", "-1"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    assert main(["sweep", "--scale-range", "1,2"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    assert main(["sweep", "--thresholds", "abc"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()


# SHA-256 of `tdoaloc sweep --sensors N --instances 50 --seed 20260809` on the
# default grid and thresholds. Refactors must leave the sweep CSV bit-identical.
SWEEP_DIGESTS = {
    4: "136f1e8695aabffe5aee0cadc8d07a396d64c83dc9f0490078627caec8657d31",
    5: "11caf609ffaa8c069a9af13d2dc8a3803cc15af99001243864e8fbcd9f1ceed4",
}


@pytest.mark.parametrize("n_sensors", sorted(SWEEP_DIGESTS))
def test_sweep_csv_golden_digest(capsys, n_sensors):
    argv = ["sweep", "--sensors", str(n_sensors), "--instances", "50", "--seed", "20260809"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[n_sensors], f"sweep CSV changed:\n{out}"


def test_gen_roundtrip_through_locate(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main(["gen", "--sensors", "5", "--seed", "11", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert len(doc["sensors"]) == 5 and "source" in doc
    assert main(["locate", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    pos = _position_from_report(out)
    truth = np.array(doc["source"])
    assert np.linalg.norm(pos - truth) < 1e-6 * max(np.linalg.norm(truth), 1e-9)


def test_gen_same_seed_identical_files(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--sensors", "4", "--seed", "13", "--out", str(p1)]) == EXIT_OK
    assert main(["gen", "--sensors", "4", "--seed", "13", "--out", str(p2)]) == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_rejects_bad_sensor_count(capsys):
    assert main(["gen", "--sensors", "6"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    assert main(["gen", "--sensors", "5", "--scale", "0"]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
