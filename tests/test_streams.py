"""The vectorised per-instance streams against numpy's own generators."""

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from tdoaloc import DEFAULT_SCALE_GRID, ExperimentConfig, instance_rng, run_sweep, sample_scenario
from tdoaloc import _streams
from tdoaloc._streams import MAX_INSTANCE_INDEX, uniforms
from tdoaloc.montecarlo import BATCH_ROWS, MAX_SCALES

SEED = 20260809
# One to five 32-bit entropy words, and random seeds of assorted sizes.
_rand = random.Random(9)
SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 9] + [
    _rand.getrandbits(bits) for bits in (16, 32, 33, 64, 96, 160)
]
# Scale indices of one 32-bit word, up to the largest.
SCALE_INDICES = [0, 1, 12, 2**32 - 1]
# Index ranges that hold 0, 1023, 1024 and the largest one-word index.
INDEX_RANGES = [(0, 3), (1022, 1026), (MAX_INSTANCE_INDEX - 1, MAX_INSTANCE_INDEX + 1)]


def _bits(values: np.ndarray) -> list:
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@pytest.mark.parametrize("width", [15, 18])
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_instance_rng_bit_for_bit(seed, width):
    for si in SCALE_INDICES:
        for first, stop in INDEX_RANGES:
            expected = np.array(
                [instance_rng(seed, si, ii).random(width) for ii in range(first, stop)]
            )
            got = uniforms(seed, [(si, first, stop)], width)
            assert got.shape == (stop - first, width)
            assert _bits(got) == _bits(expected), (seed, si, first)


# Seeds of one to five 32-bit words.
WORD_SEEDS = [7, 2**32 + 5, 2**64 + 11, 2**96 + 13, 2**128 + 17]
# Batches of runs (scale index, first, stop) that cross scale boundaries: a
# run that starts mid-scale, one instance per scale, the two largest one-word
# scale indices in one batch, empty runs, and the last instances of a scale
# whose flat index (si * 2**32 + ii) does not fit in int64.
CROSS_SCALE_BATCHES = [
    [(3, 98, 100), (4, 0, 3)],
    [(si, 0, 1) for si in range(10, 16)],
    [(2**32 - 2, 5, 7), (2**32 - 1, 0, 2)],
    [(0, 4, 4), (1, 0, 2), (2, 0, 0), (12, 0, 1)],
    [(2**32 - 2, MAX_INSTANCE_INDEX - 1, MAX_INSTANCE_INDEX + 1), (2**32 - 1, 0, 2)],
] + [
    [(si, first, first + _rand.randrange(4)) for si, first in zip(
        sorted(_rand.sample(SCALE_INDICES + list(range(2, 12)), 3)),
        (_rand.randrange(1000), 0, 0))]
    for _ in range(4)
]


@pytest.mark.parametrize("width", [15, 18])
@pytest.mark.parametrize("seed", WORD_SEEDS + SEEDS[-2:])
def test_batches_across_scales_equal_instance_rng_bit_for_bit(seed, width):
    for runs in CROSS_SCALE_BATCHES:
        expected = [
            instance_rng(seed, si, ii).random(width)
            for si, first, stop in runs for ii in range(first, stop)
        ]
        got = uniforms(seed, runs, width)
        assert got.shape == (len(expected), width)
        assert _bits(got) == _bits(np.reshape(expected, (-1, width))), (seed, runs)


def test_uniforms_reject_out_of_domain_indices():
    # A scale or instance index above MAX_INSTANCE_INDEX would be two
    # spawn-key words; run_sweep never asks for one (ExperimentConfig caps
    # n_instances and the number of scales).
    with pytest.raises(ValueError):
        uniforms(SEED, [(0, MAX_INSTANCE_INDEX, MAX_INSTANCE_INDEX + 2)], 15)
    for runs in ([(2**32, 0, 2)], [(2**32 + 3, 0, 1)], [(2**32 - 1, 5, 7), (2**32 + 4, 0, 2)]):
        with pytest.raises(ValueError):
            uniforms(SEED, runs, 15)
    with pytest.raises(ValueError):
        uniforms(-1, [(0, 0, 1)], 15)
    with pytest.raises(ValueError):
        uniforms(SEED, [(-1, 0, 1)], 15)
    assert uniforms(SEED, [(0, 5, 5)], 15).shape == (0, 15)


def test_every_scale_index_is_one_word():
    # uniforms mixes the scale index in as one 32-bit word, and a sweep's
    # grid holds at most MAX_SCALES scales.
    assert MAX_SCALES - 1 <= MAX_INSTANCE_INDEX


def test_run_sweep_asks_for_at_most_a_batch_of_one_word_indices(monkeypatch):
    # uniforms computes its draws in one pass over every row it is given, and
    # takes one-word indices only: each call of a multi-batch sweep, those
    # that span scales included, asks for at most BATCH_ROWS rows of them.
    calls = []

    def spy(seed, runs, width):
        calls.append(runs)
        return uniforms(seed, runs, width)

    monkeypatch.setattr(_streams, "uniforms", spy)
    run_sweep(ExperimentConfig(n_sensors=4, n_instances=3000, seed=SEED,
                               scale_grid=(1e-3, 1e-1, 1.0)))
    assert len(calls) == -(-3 * 3000 // BATCH_ROWS)
    assert any(len(runs) > 1 for runs in calls)
    for runs in calls:
        assert sum(stop - first for _, first, stop in runs) <= BATCH_ROWS, runs
        assert all(0 <= si <= MAX_INSTANCE_INDEX for si, _, _ in runs), runs


@pytest.mark.parametrize("n_sensors", [4, 5])
def test_acceptance_scenarios_equal_sample_scenario(n_sensors):
    # Every sensor and source array of the acceptance sweep, as sampled from
    # the streams, equals sample_scenario's on the instance's generator.
    n = 1000
    for si, scale in enumerate(DEFAULT_SCALE_GRID):
        draws = uniforms(SEED, [(si, 0, n)], 3 * n_sensors + 3)
        sensors = draws[:, : 3 * n_sensors].reshape(n, n_sensors, 3) - 0.5
        source = scale * (draws[:, 3 * n_sensors:] - 0.5)
        for ii in range(n):
            scenario = sample_scenario(instance_rng(SEED, si, ii), n_sensors, scale)
            where = f"scale {scale}, instance {ii}"
            assert _bits(scenario.sensors.positions) == _bits(sensors[ii]), where
            assert _bits(scenario.source) == _bits(source[ii]), where


_SWEEP_WITHOUT_NUMPY_RANDOM = textwrap.dedent(
    """
    import sys
    import numpy
    if "numpy.random" in sys.modules:
        print("preloaded")
        raise SystemExit(0)
    import contextlib, io
    from tdoaloc.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        for sensors in ("4", "5"):
            assert main(["sweep", "--sensors", sensors, "--instances", "50",
                         "--seed", "20260809"]) == 0
    print("loaded" if "numpy.random" in sys.modules else "not loaded")
    """
)


def test_generic_sweep_does_not_import_numpy_random():
    # A sweep whose rows are all generic never builds a numpy Generator, so
    # it need not pay for importing numpy.random.
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP_WITHOUT_NUMPY_RANDOM],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
    ).stdout.strip()
    if out == "preloaded":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert out == "not loaded"
