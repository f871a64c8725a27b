"""Solver dispatch: one entry point for both array sizes."""

from __future__ import annotations

from .result import LocalizationResult
from .solver4 import solve_four_sensor
from .solver5 import solve_five_sensor


def localize(sensors, deltas) -> LocalizationResult:
    """Dispatch to the exact solver matching the array size."""
    if sensors.n_sensors == 5:
        return solve_five_sensor(sensors, deltas)
    return solve_four_sensor(sensors, deltas)
