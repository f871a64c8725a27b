"""A fixed CPU workload that tracks how fast the machine runs right now.

On a shared machine the speed available to one process drifts by tens of
percent within seconds, which is wider than any useful regression bound.
The benchmark therefore times this kernel next to every round and scales the
round's times by ``NOMINAL_S / measured``: a round that ran while the kernel
also ran slow is credited for it. The kernel does not use tdoaloc; it mixes
the same kinds of work the program does, so both slow down together. It
tracks them only in part: on the development machine it cut the spread of
15-second throughput medians from about 15 % to about 6 %.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# The fastest kernel time seen on the 2-core development machine (Python
# 3.11, numpy 2.4); it only sets the scale of the reported figures.
NOMINAL_S = 0.0067

ITERATIONS = 100


@dataclass(frozen=True)
class _Record:
    positions: np.ndarray
    spread: float


def _solve3(a: list[list[float]], b: list[float]) -> list[float]:
    a = [row[:] for row in a]
    b = b[:]
    for col in range(3):
        p = max(range(col, 3), key=lambda r: abs(a[r][col]))
        a[col], a[p] = a[p], a[col]
        b[col], b[p] = b[p], b[col]
        for r in range(col + 1, 3):
            f = a[r][col] / a[col][col]
            for c in range(col, 3):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x2 = b[2] / a[2][2]
    x1 = (b[1] - a[1][2] * x2) / a[1][1]
    x0 = (b[0] - a[0][1] * x1 - a[0][2] * x2) / a[0][0]
    return [x0, x1, x2]


def kernel() -> float:
    """JSON round trips, small numpy and linalg calls, dataclasses, and a
    pure-Python elimination: the mix of the program's own work."""
    rng = np.random.default_rng(20260809)
    acc = 0.0
    for _ in range(ITERATIONS):
        sensors = rng.random((5, 3)) - 0.5
        text = json.dumps({"sensors": sensors.tolist(), "source": (rng.random(3) - 0.5).tolist()})
        doc = json.loads(text)
        pos = np.asarray(doc["sensors"], dtype=float)
        if not np.all(np.isfinite(pos)):
            raise ValueError("not finite")
        rel = pos[1:4] - pos[0]
        record = _Record(pos, float(np.linalg.svd(rel, compute_uv=False)[-1]))
        x = np.linalg.solve(rel + np.eye(3), np.asarray(doc["source"]))
        acc += record.spread + float(x.sum()) + sum(_solve3(rel.tolist(), pos[0].tolist()))
    return acc


def measure() -> float:
    """Seconds for one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def slowdown(seconds: float) -> float:
    """How much slower than nominal the machine ran, from a kernel time."""
    return seconds / NOMINAL_S
