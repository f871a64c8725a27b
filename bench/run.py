"""tdoaloc benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload sweep4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Workloads:

- ``sweep4`` / ``sweep5``: ``tdoaloc sweep --sensors 4|5 --instances 100``
  in-process through ``tdoaloc.cli.main`` (default 13-scale grid and
  thresholds 1e-6 and 1e-3, serial), writing CSV. Each sweep cell is one
  operation, checked against the numpy reference in ``reference.py``.
- ``locate``: a closed loop with one caller over a round of scenario
  documents (``documents.py``), each through ``load_scenario`` ->
  ``document_deltas`` -> ``localize``. Each document is one operation,
  checked against the truth it was built from.

The timed window runs whole rounds (one sweep, or one pass over the
documents) until ``--seconds`` of rounds have run. Every round is bracketed by
runs of the calibration kernel (``calibration.py``), and its times are scaled
by how slow the machine ran at that moment. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps every layer's public functions
(``tracing.py``) and prints the per-layer metrics instead. The last line of
standard output is one JSON object; a record of the run goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import calibration  # noqa: E402
import documents  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("sweep4", "sweep5", "locate")
SETUP_SAMPLES = 15

# Set-up is measured in fresh interpreters: numpy is imported first and not
# counted, then the clock covers importing the program plus one warm-up call.
PROBE = """
import sys, time
src, bench, workload, warm = sys.argv[1:5]
sys.path[:0] = [src, bench]
import numpy, run
t0 = time.perf_counter()
program = run.import_program(workload)
t1 = time.perf_counter()
run.warm_up(program, workload, warm)
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


def import_program(workload: str):
    """Import what the workload calls: the package, and the CLI for sweeps."""
    tdoaloc = importlib.import_module("tdoaloc")
    if workload != "locate":
        importlib.import_module("tdoaloc.cli")
    return tdoaloc


def warm_up(tdoaloc, workload: str, warm: str) -> None:
    """One small call down the workload's path."""
    if workload == "locate":
        doc = tdoaloc.load_scenario(warm)
        tdoaloc.localize(doc.sensors, tdoaloc.document_deltas(doc))
        return
    out = Path(warm)
    argv = ["sweep", "--sensors", workload[-1], "--instances", "1", "--scales", "1",
            "--out", str(out)]
    if sys.modules["tdoaloc.cli"].main(argv) != 0:
        raise RuntimeError("warm-up sweep failed")


def measure_setup(workload: str, warm: Path) -> list[tuple[float, float]]:
    """(import s, import plus warm-up s) per fresh interpreter.

    Not scaled by the calibration kernel: the interpreter may run on the
    other core, and scaling by the kernel timed here made the spread of
    set-up medians no smaller.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(warm)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        imp, total = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((imp, total))
    return samples


def timed_rounds(run_round, seconds: float, digest):
    """Run whole rounds until ``seconds`` of them have run.

    Returns (round seconds, slowdown, digest of the round's output) per round,
    where the slowdown comes from the calibration runs just before and just
    after it. ``digest(output, slowdown)`` runs outside the timed window.
    """
    rounds = []
    before = calibration.measure()
    elapsed = 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        output = run_round()
        took = time.perf_counter() - start
        after = calibration.measure()
        slowdown = calibration.slowdown((before + after) / 2.0)
        rounds.append((took, slowdown, digest(output, slowdown)))
        before = after
        elapsed += took
    return rounds


def sweep_round(workload: str, seed: int, run_dir: Path):
    main = sys.modules["tdoaloc.cli"].main
    out = run_dir / "sweep.csv"
    argv = ["sweep", "--sensors", workload[-1], "--instances", str(reference.N_INSTANCES),
            "--seed", str(seed), "--out", str(out)]

    def run_round():
        out.unlink(missing_ok=True)
        code = main(argv)
        return out.read_text() if code == 0 and out.exists() else None

    return run_round


def check_sweeps(tdoaloc, workload: str, seed: int, outputs):
    """Per round: (cells attempted, cells failed, wrong outputs, messages)."""
    thresholds = reference.THRESHOLDS

    def audit(sensors, sources):
        hits = np.empty((len(sources), len(thresholds)), dtype=bool)
        for i in range(len(sources)):
            scenario = tdoaloc.Scenario(tdoaloc.SensorArray(sensors[i]), sources[i])
            hits[i] = tdoaloc.run_instance(scenario, thresholds).success_at
        return hits

    cells = len(reference.SCALE_GRID) * len(thresholds)
    verdicts = {}
    attempted = failed = wrong = 0
    problems = []
    for text in outputs:
        if text is None:
            attempted += cells
            failed += cells
            problems.append("sweep exited with an error")
            continue
        if text not in verdicts:
            verdicts[text] = reference.check_sweep(text, seed, int(workload[-1]), audit)
        n, bad, why = verdicts[text]
        attempted += n
        failed += bad
        wrong += bad
        problems.extend(why)
    return attempted, failed, wrong, problems


def locate_round(tdoaloc, docs):
    """One pass over the documents: (result, error, ns) per document."""
    load, deltas_of, localize = tdoaloc.load_scenario, tdoaloc.document_deltas, tdoaloc.localize
    clock = time.perf_counter_ns

    def run_round():
        outcomes = []
        for doc in docs:
            t0 = clock()
            result = error = None
            try:
                parsed = load(doc.path)
                result = localize(parsed.sensors, deltas_of(parsed))
            except Exception as exc:  # a raw exception fails the document, it must not end the run
                error = exc
            outcomes.append((result, error, clock() - t0))
        return outcomes

    return run_round


def locate_digest(tdoaloc, docs):
    """Check each document of a round. Returns the scaled per-document times
    to an outcome (ns), the failed and wrong counts and the reasons. Times
    are kept in numpy arrays, not per-document objects, so the records of a
    long run add little to the heap the program's garbage collector walks."""

    def digest(outcomes, slowdown):
        times = np.empty(len(docs))
        failed = wrong = 0
        problems = set()
        for i, (doc, (result, error, ns)) in enumerate(zip(docs, outcomes)):
            why = documents.check(doc, result, error, tdoaloc.ScenarioFormatError)
            times[i] = ns / slowdown
            if why is not None:
                failed += 1
                wrong += error is None
                problems.add(why)
        return times, failed, wrong, problems

    return digest


def percentile_us(medians_ns, q: float) -> float:
    """Nearest-rank percentile over items of each item's median time (ns)
    across the rounds; the median keeps one slow moment of the machine from
    moving an item."""
    ordered = sorted(medians_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


# Timed per-layer metrics: (tracer key, total or self time, unit). Each is
# the mean per call; "<key>.calls" is the call count per round.
TIMED = [
    ("montecarlo.instance_rng", "total", "us"),
    ("montecarlo.sample_scenario", "total", "us"),
    ("montecarlo.run_instance", "self", "us"),
    ("montecarlo.run_sweep", "self", "ms"),
    ("measurement.SensorArray", "total", "us"),
    ("measurement.range_differences", "total", "us"),
    ("measurement.reference_frame", "total", "us"),
    ("measurement.load_scenario", "total", "us"),
    ("measurement.document_deltas", "total", "us"),
    ("geom3.solve3_pivoted", "total", "us"),
    ("solver4.solve_four_sensor", "total", "us"),
    ("solver4.solve_four_sensor", "self", "us"),
    ("solver4.build_four_sensor_system", "total", "us"),
    ("solver4.solve_reference_range", "total", "us"),
    ("solver4.candidate_positions", "total", "us"),
    ("solver4.resolve_ambiguity", "total", "us"),
    ("solver5.solve_five_sensor", "total", "us"),
    ("solver5.solve_five_sensor", "self", "us"),
    ("cli.localize", "total", "us"),
    ("cli.write_sweep_csv", "total", "ms"),
]
SCALE = {"us": 1e3, "ms": 1e6}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    metrics = {}
    for key, field, unit in TIMED:
        calls = tracer.calls.get(key, 0)
        ns = (tracer.total_ns if field == "total" else tracer.self_ns).get(key, 0)
        name = f"{key}.{unit}" if field == "total" else f"{key}.self_{unit}"
        metrics[name] = (ns / calls / SCALE[unit] if calls else 0.0, unit)
    for key in dict.fromkeys(key for key, _, _ in TIMED):
        metrics[f"{key}.calls"] = (tracer.calls.get(key, 0) / rounds, "count")
    solves = tracer.calls["solver4.solve_four_sensor"] + tracer.calls["solver5.solve_five_sensor"]
    metrics["geom3.solve3_pivoted.calls_per_solve"] = (
        tracer.calls["geom3.solve3_pivoted"] / solves if solves else 0.0, "count")
    c = tracer.counters
    for name, counter, base in [
        ("solver4.candidates_per_solve", "solver4.candidates", "solver4.results"),
        ("solver4.ambiguous_per_solve", "solver4.ambiguous", "solver4.results"),
        ("solver5.pairing_attempts_per_solve", "solver5.pairing_attempts", "solver5.results"),
        ("solver5.cleared_rows_per_solve", "solver5.cleared_rows", "solver5.results"),
    ]:
        metrics[name] = (c.get(counter, 0) / c[base] if c.get(base) else 0.0, "ratio")
    return metrics


def install_tracer(tdoaloc) -> Tracer:
    tracer = Tracer(tdoaloc)

    def four(result):
        tracer.count("solver4.results")
        tracer.count("solver4.candidates", len(result.candidates))
        tracer.count("solver4.ambiguous", int(result.ambiguous))

    def five(result):
        tracer.count("solver5.results")
        tracer.count("solver5.pairing_attempts", result.diagnostics["pairing_retries"] + 1)
        tracer.count("solver5.cleared_rows", sum(result.diagnostics["scaled_rows"]))

    tracer.install({"solver4.solve_four_sensor": four, "solver5.solve_five_sensor": five})
    return tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdoaloc" / "__init__.py").is_file():
        print(f"error: no tdoaloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    workload, seed = args.workload, args.seed
    docs = []
    if workload == "locate":
        docs = documents.write_round(seed, run_dir / "docs")
        warm = next(d.path for d in docs if d.truth is not None)
    else:
        warm = run_dir / "warmup.csv"

    tdoaloc = import_program(workload)
    if Path(tdoaloc.__file__).resolve().parent != (SRC / "tdoaloc").resolve():
        print(f"error: imported tdoaloc from {tdoaloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm_up(tdoaloc, workload, str(warm))
    setup = measure_setup(workload, warm)

    # The tracer goes in first: the rounds look up the functions they call.
    tracer = install_tracer(tdoaloc) if args.trace else None
    if workload == "locate":
        run_round, digest = locate_round(tdoaloc, docs), locate_digest(tdoaloc, docs)
        per_round = len(docs)
    else:
        run_round, digest = sweep_round(workload, seed, run_dir), lambda text, _: text
        per_round = len(reference.SCALE_GRID) * reference.N_INSTANCES
    try:
        rounds = timed_rounds(run_round, args.seconds, digest)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "locate":
        digests = [digest for _, _, digest in rounds]
        attempted = len(docs) * len(rounds)
        failed = sum(d[1] for d in digests)
        wrong = sum(d[2] for d in digests)
        problems = sorted(set().union(*(d[3] for d in digests)))
        medians = np.median(np.stack([d[0] for d in digests]), axis=0)
    else:
        attempted, failed, wrong, problems = check_sweeps(
            tdoaloc, workload, seed, [output for _, _, output in rounds])
        # A sweep is one call: its instances cannot be told apart, and each is
        # charged the sweep's mean, so both percentiles read the same.
        medians = [statistics.median(took / slow / per_round * 1e9 for took, slow, _ in rounds)]

    inst_per_s = statistics.median(per_round * slow / took for took, slow, _ in rounds)
    if tracer is None:
        metrics = {
            "inst_per_s": (inst_per_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(total for _, total in setup), "s"),
            "p50_us": (percentile_us(medians, 0.50), "us"),
            "p99_us": (percentile_us(medians, 0.99), "us"),
        }
    else:
        metrics = layer_metrics(tracer, len(rounds))
        metrics["tdoaloc.import_ms"] = (statistics.median(imp for imp, _ in setup) * 1e3, "ms")
        metrics["trace.inst_per_s"] = (inst_per_s, "1/s")

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for why in problems[:20]:
        print(f"check: {why}")
    record = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "round_s": [took for took, _, _ in rounds],
        "slowdown": [slow for _, slow, _ in rounds],
        "setup": setup,
        "problems": problems, "trace_records": tracer.records() if tracer else None,
        "counters": tracer.counters if tracer else None,
    }
    (OUT / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
