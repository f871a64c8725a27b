"""Memory held by a sweep: bounded by the batch size, and small per row."""

import tracemalloc

import pytest

from tdoaloc import DEFAULT_SCALE_GRID, ExperimentConfig, run_sweep
from tdoaloc._batch import solve_scale
from tdoaloc._streams import uniforms
from tdoaloc.montecarlo import BATCH_ROWS

# Peak bytes per row of one four-sensor batch of 1024 rows, as measured with
# numpy 2.4 and rounded up to 10 B (the arrays are float64 and uint64, so the
# count varies little across platforms). A rise means a kernel step holds
# more temporaries; the earlier (N, 3, 3) kernel read 1480 and 1231.
UNIFORMS_BYTES_PER_ROW = 780
SOLVE_BYTES_PER_ROW = 910


def _peak_bytes(fn, *args) -> int:
    """The most memory traced while ``fn(*args)`` runs, above what was
    allocated before."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sweep_peak_is_bounded_by_batch_rows():
    # 3000 instances per scale run as batches of at most BATCH_ROWS rows, so
    # the peak grows with the batch, about BATCH_ROWS / 100 times that of a
    # 100-instance sweep, and not with the 30 times as many instances.
    def sweep(n_instances):
        config = ExperimentConfig(
            n_sensors=4, n_instances=n_instances, seed=3, scale_grid=DEFAULT_SCALE_GRID
        )
        return _peak_bytes(run_sweep, config)

    small, large = sweep(100), sweep(3000)
    assert large <= small * BATCH_ROWS / 100, (small, large)


def test_batch_peak_bytes_per_row():
    n = 1024
    draws = uniforms(11, 0, 0, n, 15)
    assert _peak_bytes(uniforms, 11, 0, 0, n, 15) <= UNIFORMS_BYTES_PER_ROW * n
    assert _peak_bytes(solve_scale, draws, 4, 1e-3) <= SOLVE_BYTES_PER_ROW * n
