import csv
import hashlib
import io
import json

import numpy as np
import pytest

from tdoaloc import ExperimentConfig, run_sweep
from tdoaloc.cli import (
    CSV_COLUMNS,
    EXIT_INVALID_CONFIG,
    EXIT_NO_REAL_SOLUTION,
    EXIT_OK,
    EXIT_OUTPUT_ERROR,
    EXIT_PARSE_ERROR,
    EXIT_SINGULAR,
    main,
)

CANONICAL_5 = {
    "sensors": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "source": [2, 3, 4],
}


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _sweep_records(text):
    """The records of a sweep CSV, each a dict of ints (``n_*`` columns) and
    floats keyed by column."""
    header, *rows = csv.reader(io.StringIO(text))
    assert tuple(header) == CSV_COLUMNS
    return [
        {col: (int if col.startswith("n_") else float)(v) for col, v in zip(header, row)}
        for row in rows
    ]


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


def test_locate_ambiguous_source_prints_the_flag(tmp_path, capsys):
    # The four-sensor array and truth of demos/degenerate_and_ambiguous.py,
    # whose deltas two positions meet exactly.
    doc = {
        "sensors": [
            [0.00334112215937421, 0.3078804230035789, 0.10317510756265424],
            [0.04975478029850822, 0.2570131842588753, 0.13361092574612565],
            [-0.43980262272196546, 0.1194958202621309, -0.42458306034530924],
            [0.11166014575491934, -0.03491379501772951, 0.31044102626062253],
        ],
        "source": [0.37290505241303085, 0.48743102622653833, 0.06979966723601316],
    }
    assert main(["locate", _write(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ambiguous: two exact solutions, see candidates\n" in out
    assert "candidate[1]:" in out


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


@pytest.mark.parametrize("command", ["locate", "sweep", "gen"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, command):
    out_path = tmp_path / "missing" / "out.txt"
    args = {
        "locate": ["locate", _write(tmp_path, CANONICAL_5)],
        "sweep": ["sweep", "--scales", "1", "--instances", "2"],
        "gen": ["gen"],
    }[command]
    assert main([*args, "--out", str(out_path)]) == EXIT_OUTPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out_path) in captured.err
    assert not out_path.parent.exists()


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

    records = _sweep_records(out1)
    direct = run_sweep(
        ExperimentConfig(
            n_sensors=5, n_instances=20, seed=7,
            thresholds=(1e-6, 1e-3), scale_grid=(0.01, 1.0),
        )
    )
    # Lossless round trip: every field of every cell, floats to the bit.
    assert records == [{col: getattr(c, col) for col in CSV_COLUMNS} for c in direct]
    assert {r["threshold"] for r in records} == {1e-6, 1e-3}


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
    records = _sweep_records(out_path.read_text())
    np.testing.assert_allclose(
        [r["source_scale"] for r in records], [1e-4, 1e-2, 1.0], rtol=1e-12
    )
    direct = run_sweep(ExperimentConfig(
        n_sensors=5, n_instances=5, seed=1, thresholds=(1e-3,),
        scale_grid=tuple(r["source_scale"] for r in records),
    ))
    assert records == [{col: getattr(c, col) for col in CSV_COLUMNS} for c in direct]
    # A count of 1 is the lower bound alone, exactly.
    args[4] = "0.5,2,1"
    assert main(args) == EXIT_OK
    assert [r["source_scale"] for r in _sweep_records(out_path.read_text())] == [0.5]


def test_scales_and_scale_range_conflict(capsys):
    # Two grids given at once are a usage error, not one silently dropped.
    assert main(["sweep", "--scales", "1", "--scale-range", "1e-3,1,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


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
    assert main(["sweep", "--thresholds", ","]) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == "error: --thresholds needs at least one value\n"
    assert main(["sweep", "--instances", str(2**32 + 1)]) == EXIT_INVALID_CONFIG
    capsys.readouterr()
    # Non-finite and fractional values: one error line each, no traceback.
    for flags in (
        ["--scale-range", "1e-4,1,nan"],
        ["--scale-range", "1e-4,1,inf"],
        ["--scale-range", "1e-4,1,2.5"],
        # Counts past MAX_SCALES, rejected before the grid is allocated.
        ["--scale-range", "1e-4,1,1e300"],
        ["--scale-range", "1e-4,1,1e9"],
        ["--scale-range", "inf,1,3"],
        ["--scales", "inf"],
        ["--scales", "nan"],
        ["--thresholds", "inf"],
    ):
        assert main(["sweep", *flags]) == EXIT_INVALID_CONFIG, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, flags


def test_sweep_far_source_counts_numerical_failures(capsys):
    # Ranges overflow at this scale; every instance is a numerical failure.
    assert main(["sweep", "--scales", "1e300", "--instances", "3"]) == EXIT_OK
    records = _sweep_records(capsys.readouterr().out)
    assert len(records) == 2
    assert all(r["n_numerical"] == 3 and r["success_fraction"] == 0.0 for r in records)


@pytest.mark.parametrize("command", ["sweep", "gen"])
def test_negative_seed_is_invalid_config(capsys, command):
    # numpy's SeedSequence would raise a bare ValueError on a negative seed.
    assert main([command, "--seed", "-1"]) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# SHA-256 of `tdoaloc sweep --sensors N --instances I --seed S` on the
# default grid and thresholds, keyed by test id (N, I, S). Refactors must leave
# the sweep CSV bit-identical. Seed 4294967301 (2**32 + 5) spans two entropy
# words; 1100 instances run a scale in more than one batch.
SWEEP_DIGESTS = {
    "4": (4, 50, 20260809, "828f4e4dba0975142d614be29ffdb89d48aee8d05356a9e68571a947d7e55c1b"),
    "5": (5, 50, 20260809, "11caf609ffaa8c069a9af13d2dc8a3803cc15af99001243864e8fbcd9f1ceed4"),
    "4-1100-two-word-seed": (
        4, 1100, 4294967301, "4186230a27b1aaa0b3d2243626c35b3ab5555323605cbbd3f1a293bf9be97e68"
    ),
    "5-1100-two-word-seed": (
        5, 1100, 4294967301, "8a4cba3f6cc4c8e931960c13c5ddbdf7cd3868949875a53810dce75aca8f865d"
    ),
    "4-1100": (4, 1100, 20260809, "ba5fe9a5513752d936e66d9ce6505fd643ceedab3a15d66aa00bc374db4da49b"),
    "5-1100": (5, 1100, 20260809, "caba314743d1f7ba05b6265de8424ae2603512513cbc0d0b79855ac58bcae19e"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS))
def test_sweep_csv_golden_digest(capsys, case):
    n_sensors, instances, seed, expected = SWEEP_DIGESTS[case]
    argv = ["sweep", "--sensors", str(n_sensors), "--instances", str(instances),
            "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == expected, f"sweep CSV changed:\n{out}"


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
    for scale in ("inf", "nan"):
        assert main(["gen", "--sensors", "5", "--scale", scale]) == EXIT_INVALID_CONFIG
        capsys.readouterr()
