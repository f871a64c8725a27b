"""Memory held by a sweep: bounded by the batch size, and small per row;
and memory kept by a solver's result: no more than its records need."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from tdoaloc import (
    DEFAULT_SCALE_GRID,
    ExperimentConfig,
    LocalizationResult,
    localize,
    range_differences,
    run_sweep,
    sample_scenario,
)
from tdoaloc._batch import solve_scale
from tdoaloc.result import Candidate
from tdoaloc._streams import uniforms
import tdoaloc.montecarlo as mc
from tdoaloc.montecarlo import BATCH_ROWS

# Peak bytes per row of one four- or five-sensor batch of 1024 rows, as
# measured with numpy 2.4 and rounded up to 10 B (the arrays are float64 and
# uint64, so the count varies little across platforms). A rise means a kernel
# step holds more temporaries; the earlier (N, 3, 3) kernel read 1480 and 1231.
# Five sensors peak at 905, four at 735. The draws, one pass over the
# batch, peak at 755 (five sensors, width 18) and 659 (four, width 15).
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


def test_sweep_peak_does_not_grow_with_instances(monkeypatch):
    # At a fixed batch size, 32 times as many instances are 32 times as many
    # batches of the same size, so the peak stays that of one batch. Keeping
    # even 2 B per instance past its batch would add a fifth to it; the 15 %
    # allows for interpreter free lists, which fill as batches run.
    monkeypatch.setattr(mc, "BATCH_ROWS", 256)

    def sweep(n_instances):
        config = ExperimentConfig(
            n_sensors=4, n_instances=n_instances, seed=3, scale_grid=DEFAULT_SCALE_GRID[:3]
        )
        return _peak_bytes(run_sweep, config)

    sweep(8192)  # lazy set-up and caches, outside the count
    small, large = sweep(256), sweep(8192)
    assert large <= 1.15 * small, (small, large)


def test_batch_peak_bytes_per_row():
    n = 1024
    draws = uniforms(11, [(0, 0, n)], 15)
    assert _peak_bytes(uniforms, 11, [(0, 0, n)], 15) <= UNIFORMS_BYTES_PER_ROW * n
    assert _peak_bytes(solve_scale, draws, 4, 1e-3) <= SOLVE_BYTES_PER_ROW * n
    draws = uniforms(11, [(0, 0, n)], 18)
    assert _peak_bytes(uniforms, 11, [(0, 0, n)], 18) <= UNIFORMS_BYTES_PER_ROW * n
    assert _peak_bytes(solve_scale, draws, 5, 1e-3) <= SOLVE_BYTES_PER_ROW * n


def _kept_bytes(make, n=2000) -> float:
    """Bytes traced per result for ``n`` results of ``make`` kept alive."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    for _ in range(100):  # lazy set-up and caches, outside the count
        make()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [make() for _ in range(n)]
        return (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()


def _fresh(cls):
    """A new frozen dataclass with the fields of ``cls``. Its constructor
    gives a record the size a ``cls`` constructor gives one; a ``cls``
    record itself may not, once any has been given its own ``__dict__``,
    which on CPython 3.11 can enlarge later instances of the class."""
    names = [field.name for field in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(f"Fresh{cls.__name__}", names, frozen=True)


@pytest.mark.parametrize("n_sensors", [4, 5])
def test_solver_results_keep_no_more_than_constructed_records(n_sensors):
    # A solver's LocalizationResult and Candidate records must keep the size
    # their constructors give them. A fast path that filled them through
    # __dict__.update instead would keep about 200 B more per result. The
    # 1 B allows for allocator noise.
    scenario = sample_scenario(np.random.default_rng(11), n_sensors, 1.0)
    sensors, deltas = scenario.sensors, range_differences(scenario)
    result_cls, candidate_cls = _fresh(LocalizationResult), _fresh(Candidate)

    def constructed():
        # The solver's fields, shared, in records from the constructors.
        r = localize(sensors, deltas)
        candidates = tuple([
            candidate_cls(reference_range=c.reference_range, position=c.position,
                          residual=c.residual)
            for c in r.candidates
        ])
        return result_cls(
            position=r.position, method=r.method, candidates=candidates,
            ambiguous=r.ambiguous, diagnostics=r.diagnostics,
        )

    assert len(localize(sensors, deltas).candidates) == (2 if n_sensors == 4 else 0)
    solved = _kept_bytes(lambda: localize(sensors, deltas))
    assert solved <= _kept_bytes(constructed) + 1.0, solved
