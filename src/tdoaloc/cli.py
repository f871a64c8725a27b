"""Command-line interface: locate sources, generate scenarios, run sweeps."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
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
    MAX_SCALES,
    ExperimentConfig,
    SweepCell,
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
EXIT_OUTPUT_ERROR = 7

# The sweep's CSV and JSON columns: SweepCell's fields, in order.
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepCell))


# The exit code of a LocalizationError: that of the first class it is an
# instance of.
_EXIT_CODES = (
    (ScenarioFormatError, EXIT_PARSE_ERROR),
    (SingularMatrixError, EXIT_SINGULAR),
    (NoRealSolutionError, EXIT_NO_REAL_SOLUTION),
    (InvalidConfigError, EXIT_INVALID_CONFIG),
    (LocalizationError, EXIT_DEGENERATE),
)


def _fmt_vec(v) -> str:
    return " ".join(f"{float(x):.12g}" for x in v)


def _print_report(result: LocalizationResult, out) -> None:
    print(f"method: {result.method.value}", file=out)
    print(f"position_m: {_fmt_vec(result.position)}", file=out)
    if result.ambiguous:
        print("ambiguous: two exact solutions, see candidates", file=out)
    for i, cand in enumerate(result.candidates):
        print(
            f"candidate[{i}]: reference_range_m={cand.reference_range:.12g} "
            f"position_m=({_fmt_vec(cand.position)}) residual_m2={cand.residual:.6g}",
            file=out,
        )
    diag = result.diagnostics
    print("diagnostics: " + " ".join(f"{key}={diag[key]}" for key in sorted(diag)), file=out)


def write_sweep_csv(cells: tuple[SweepCell, ...], out) -> None:
    """One CSV record per (scale, threshold) cell; repr-exact floats."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cell in cells:
        writer.writerow([repr(getattr(cell, col)) for col in CSV_COLUMNS])


def write_sweep_json(cells: tuple[SweepCell, ...], out) -> None:
    json.dump([dataclasses.asdict(cell) for cell in cells], out, indent=2)
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
        if len(parts) != 3 or not (parts[2].is_integer() and 1 <= parts[2] <= MAX_SCALES):
            raise InvalidConfigError(
                f"--scale-range wants lo,hi,count, integer count in [1, {MAX_SCALES}], "
                f"got {args.scale_range!r}"
            )
        lo, hi, count = parts[0], parts[1], int(parts[2])
        if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
            raise InvalidConfigError("--scale-range bounds must be finite and positive")
        if count == 1:
            return (lo,)
        return tuple(
            float(s) for s in np.logspace(np.log10(lo), np.log10(hi), count)
        )
    return DEFAULT_SCALE_GRID


def _write_out(path, write) -> int:
    """Call ``write(out)`` on the file ``path``, or on stdout without one.
    Returns the exit code: ``EXIT_OUTPUT_ERROR``, with one error line, if
    the file cannot be opened or written."""
    if not path:
        write(sys.stdout)
        return EXIT_OK
    try:
        with open(path, "w") as out:
            write(out)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return EXIT_OK


def cmd_locate(args) -> int:
    doc = load_scenario(args.scenario)
    result = localize(doc.sensors, document_deltas(doc))
    return _write_out(args.out, functools.partial(_print_report, result))


def cmd_sweep(args) -> int:
    cells = run_sweep(ExperimentConfig(
        n_sensors=args.sensors,
        n_instances=args.instances,
        thresholds=tuple(_parse_floats(args.thresholds, "--thresholds")),
        seed=args.seed,
        scale_grid=_scale_grid(args),
    ))
    writers = {"csv": write_sweep_csv, "json": write_sweep_json}
    return _write_out(args.out, functools.partial(writers[args.format], cells))


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise InvalidConfigError(f"--seed must be >= 0, got {args.seed}")
    scenario = sample_scenario(np.random.default_rng(args.seed), args.sensors, args.scale)
    return _write_out(args.out, lambda out: write_scenario(out, scenario))


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built once per process: each build leaves about 170 objects in
    # reference cycles (argparse's help formatters) for the garbage collector,
    # which adds up when main runs many times in one process.
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
    scales = p_sweep.add_mutually_exclusive_group()
    scales.add_argument("--scales", default=None, help="comma-separated source scales")
    scales.add_argument(
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK
    try:
        return args.func(args)
    except LocalizationError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(err, cls))
