"""Solver dispatch: one entry point for both array sizes."""

from __future__ import annotations

from .measurement import as_sensor_array
from .result import LocalizationResult
from .solver4 import solve_four_sensor
from .solver5 import solve_five_sensor


def localize(sensors, deltas) -> LocalizationResult:
    """Dispatch ``sensors`` (a ``SensorArray`` or its rows) to the solver for its size."""
    sensors = as_sensor_array(sensors)
    if sensors.n_sensors == 5:
        return solve_five_sensor(sensors, deltas)
    return solve_four_sensor(sensors, deltas)
