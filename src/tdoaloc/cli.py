"""Command-line interface: locate sources, generate scenarios, run sweeps."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .errors import (
    InvalidConfigError,
    LocalizationError,
    NoRealSolutionError,
    ScenarioFormatError,
    SingularMatrixError,
)
from .locate import localize
from .measurement import document_deltas, load_scenario, write_scenario
from .montecarlo import (
    DEFAULT_SCALE_GRID,
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    SweepCell,
    SweepSummary,
    run_sweep,
    sample_scenario,
)
from .result import LocalizationResult

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_SINGULAR = 3
EXIT_NO_REAL_SOLUTION = 4
EXIT_INVALID_CONFIG = 5
EXIT_DEGENERATE = 6

CSV_COLUMNS = (
    "n_sensors",
    "source_scale",
    "threshold",
    "success_fraction",
    "n_singular",
    "n_wrong_root",
    "n_numerical",
    "n_instances",
)


def _exit_code(err: LocalizationError) -> int:
    if isinstance(err, ScenarioFormatError):
        return EXIT_PARSE_ERROR
    if isinstance(err, SingularMatrixError):
        return EXIT_SINGULAR
    if isinstance(err, NoRealSolutionError):
        return EXIT_NO_REAL_SOLUTION
    if isinstance(err, InvalidConfigError):
        return EXIT_INVALID_CONFIG
    return EXIT_DEGENERATE


def _fmt_vec(v) -> str:
    return " ".join(f"{float(x):.12g}" for x in v)


def _print_report(result: LocalizationResult, out) -> None:
    print(f"method: {result.method.value}", file=out)
    print(f"position_m: {_fmt_vec(result.position)}", file=out)
    print(f"ambiguity_resolved_by: {result.ambiguity_resolved_by.value}", file=out)
    if result.ambiguous:
        print("ambiguous: two exact solutions, see candidates", file=out)
    for i, cand in enumerate(result.candidates):
        print(
            f"candidate[{i}]: reference_range_m={cand.reference_range:.12g} "
            f"position_m=({_fmt_vec(cand.position)}) residual_m2={cand.residual:.6g}",
            file=out,
        )
    diag = result.diagnostics
    if diag:
        parts = []
        for key in sorted(diag):
            parts.append(f"{key}={diag[key]}")
        print("diagnostics: " + " ".join(parts), file=out)


def write_sweep_csv(summary: SweepSummary, out) -> None:
    """One CSV record per (scale, threshold) cell; repr-exact floats."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in summary.cells:
        writer.writerow([repr(getattr(cell, col)) for col in CSV_COLUMNS])


def read_sweep_cells(text: str) -> tuple[SweepCell, ...]:
    """Parse sweep CSV back into cells (lossless for the fields it carries)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ScenarioFormatError(f"unexpected sweep CSV header: {header}")
    cells = []
    for row in reader:
        rec = dict(zip(CSV_COLUMNS, row))
        cells.append(
            SweepCell(
                n_sensors=int(rec["n_sensors"]),
                source_scale=float(rec["source_scale"]),
                threshold=float(rec["threshold"]),
                success_fraction=float(rec["success_fraction"]),
                n_singular=int(rec["n_singular"]),
                n_wrong_root=int(rec["n_wrong_root"]),
                n_numerical=int(rec["n_numerical"]),
                n_instances=int(rec["n_instances"]),
            )
        )
    return tuple(cells)


def write_sweep_json(summary: SweepSummary, out) -> None:
    records = [
        {col: getattr(cell, col) for col in CSV_COLUMNS} for cell in summary.cells
    ]
    json.dump(records, out, indent=2)
    out.write("\n")


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise InvalidConfigError(f"bad {flag} value {text!r}: {err}") from err
    if not values:
        raise InvalidConfigError(f"{flag} needs at least one value")
    return values


def _scale_grid(args) -> tuple[float, ...]:
    if args.scales is not None:
        return tuple(_parse_floats(args.scales, "--scales"))
    if args.scale_range is not None:
        parts = _parse_floats(args.scale_range, "--scale-range")
        if len(parts) != 3 or int(parts[2]) < 1:
            raise InvalidConfigError(
                f"--scale-range wants lo,hi,count with count >= 1, got {args.scale_range!r}"
            )
        lo, hi, count = parts[0], parts[1], int(parts[2])
        if not (lo > 0.0 and hi > 0.0):
            raise InvalidConfigError("--scale-range bounds must be positive")
        if count == 1:
            return (lo,)
        return tuple(
            float(s) for s in np.logspace(np.log10(lo), np.log10(hi), count)
        )
    return DEFAULT_SCALE_GRID


def cmd_locate(args) -> int:
    try:
        doc = load_scenario(args.scenario)
        deltas = document_deltas(doc)
        result = localize(doc.sensors, deltas)
    except LocalizationError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    if args.out:
        with open(args.out, "w") as out:
            _print_report(result, out)
    else:
        _print_report(result, sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        config = ExperimentConfig(
            n_sensors=args.sensors,
            n_instances=args.instances,
            thresholds=tuple(_parse_floats(args.thresholds, "--thresholds")),
            seed=args.seed,
            scale_grid=_scale_grid(args),
        )
    except InvalidConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    summary = run_sweep(config)
    writers = {"csv": write_sweep_csv, "json": write_sweep_json}
    writer = writers[args.format]
    if args.out:
        with open(args.out, "w") as out:
            writer(summary, out)
    else:
        writer(summary, sys.stdout)
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.sensors not in (4, 5):
            raise InvalidConfigError(f"--sensors must be 4 or 5, got {args.sensors}")
        if not args.scale > 0.0:
            raise InvalidConfigError(f"--scale must be positive, got {args.scale}")
        rng = np.random.default_rng(args.seed)
        scenario = sample_scenario(rng, args.sensors, args.scale)
    except LocalizationError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    if args.out:
        with open(args.out, "w") as out:
            write_scenario(out, scenario)
    else:
        write_scenario(sys.stdout, scenario)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdoaloc",
        description="Exact closed-form TDOA source localization (4/5 sensors, 3D)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_locate = sub.add_parser("locate", help="localize a source from a scenario file")
    p_locate.add_argument("scenario", help="scenario JSON file")
    p_locate.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_locate.set_defaults(func=cmd_locate)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo success-fraction sweep")
    p_sweep.add_argument("--sensors", type=int, choices=(4, 5), default=5)
    p_sweep.add_argument("--instances", type=int, default=1000, help="instances per scale")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--scales", default=None, help="comma-separated source scales")
    p_sweep.add_argument(
        "--scale-range", default=None,
        help="lo,hi,count log-spaced source scales (default: 1e-6,1,13)",
    )
    p_sweep.add_argument(
        "--thresholds", default=",".join(repr(t) for t in DEFAULT_THRESHOLDS),
        help="comma-separated relative-error thresholds",
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate a random scenario file with truth source")
    p_gen.add_argument("--sensors", type=int, default=5)
    p_gen.add_argument("--scale", type=float, default=1.0, help="source region scale")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
