#!/usr/bin/env python3
"""Reproduce the noise-free success-fraction curves for both solvers.

Sweeps the source-region scale over a log grid, runs seeded Monte Carlo
instances at each point, and tabulates the fraction localized within each
relative-error threshold. Writes one CSV per sensor count next to this
script, in the columns of ``tdoaloc sweep``, and, when matplotlib is
importable, a PNG with the two curves per solver.

The five-sensor solver is exact almost everywhere. The four-sensor solver
carries an intrinsic two-solution ambiguity for a large share of random
geometries, which shows up as wrong-root failures at every scale.
"""

from pathlib import Path

from tdoaloc import DEFAULT_SCALE_GRID, ExperimentConfig, run_sweep
from tdoaloc.cli import write_sweep_csv

N_INSTANCES = 300  # bump to 1000 for the full experiment
SEED = 20260809

rows = []
for n_sensors in (5, 4):
    config = ExperimentConfig(
        n_sensors=n_sensors,
        n_instances=N_INSTANCES,
        thresholds=(1e-6, 1e-3),
        seed=SEED,
        scale_grid=DEFAULT_SCALE_GRID,
    )
    summary = run_sweep(config)
    rows.extend(summary.cells)

    print(f"\n=== {n_sensors}-sensor solver, {N_INSTANCES} instances per scale ===")
    print(f"{'scale':>10} {'T=1e-6':>8} {'T=1e-3':>8} {'singular':>9} {'wrong':>6} {'numeric':>8}")
    for scale in config.scale_grid:
        cells = {c.threshold: c for c in summary.cells if c.source_scale == scale}
        tight, loose = cells[1e-6], cells[1e-3]
        print(
            f"{scale:>10.2e} {tight.success_fraction:>8.3f} {loose.success_fraction:>8.3f}"
            f" {loose.n_singular:>9d} {loose.n_wrong_root:>6d} {loose.n_numerical:>8d}"
        )

    out_csv = Path(__file__).with_name(f"success_fraction_sweep_{n_sensors}.csv")
    with out_csv.open("w") as out:
        write_sweep_csv(summary, out)
    print(f"wrote {out_csv}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, threshold in zip(axes, (1e-6, 1e-3)):
        for n_sensors, marker in ((5, "o"), (4, "s")):
            pts = sorted(
                (c.source_scale, c.success_fraction)
                for c in rows
                if c.n_sensors == n_sensors and c.threshold == threshold
            )
            ax.plot(*zip(*pts), marker=marker, label=f"{n_sensors} sensors")
        ax.set_xscale("log")
        ax.set_xlabel("source region scale")
        ax.set_title(f"success fraction, threshold {threshold:g}")
        ax.grid(True, alpha=0.3)
    axes[0].set_ylabel("success fraction")
    axes[0].set_ylim(0.0, 1.05)
    axes[0].legend()
    out_png = Path(__file__).with_name("success_fraction_sweep.png")
    fig.tight_layout()
    fig.savefig(out_png, dpi=120)
    print(f"wrote {out_png}")
