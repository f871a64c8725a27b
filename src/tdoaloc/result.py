"""Shared localization result record for the 4- and 5-sensor solvers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Method(Enum):
    FIVE_SENSOR = "five_sensor"
    FOUR_SENSOR = "four_sensor"


@dataclass(frozen=True)
class Candidate:
    """One candidate source position with its range-difference residual."""

    reference_range: float  # distance source-to-reference-sensor, m
    position: np.ndarray    # absolute, m
    residual: float         # sum of squared range-difference mismatches, m^2


@dataclass(frozen=True)
class LocalizationResult:
    """Estimated source position plus everything needed to audit the choice.

    ``candidates`` retains every candidate position (four-sensor solves can
    produce two) so callers with prior knowledge can re-select; ``ambiguous``
    is set exactly when two candidates are admissible, i.e. both solve the
    unsquared range-difference equations, so the measurements are met exactly
    by two positions and ``position`` is the one with the smaller reference
    range. Only four-sensor solves fill ``candidates``; there ``position`` is
    the chosen candidate's array itself. Every position array is read-only.

    How the position was picked follows from ``method`` and ``candidates``: a
    five-sensor solve has no ambiguity to resolve, two four-sensor candidates
    are told apart by residual unless ``ambiguous``, and one is the only root.
    """

    position: np.ndarray  # absolute, m
    method: Method
    candidates: tuple[Candidate, ...]
    ambiguous: bool
    diagnostics: dict

