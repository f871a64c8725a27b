#!/usr/bin/env python3
"""Show how the edge cases behave: zero deltas, collinear arrays, true duals.

Three situations worth knowing about before trusting any TDOA fix:
  1. A source on the perpendicular bisector plane of two sensors zeroes one
     range difference; the five-sensor builder switches that row to the
     cleared form and localizes anyway.
  2. Collinear sensors cannot span 3D; the solvers refuse with a singular-
     matrix error rather than returning a garbage position.
  3. With only four sensors, some measurement sets are satisfied exactly by
     TWO source positions; the solver flags the result, keeps the candidate
     nearer the reference sensor and reports both, so a caller with prior
     knowledge (approach direction, coverage region) can pick.
"""

import numpy as np

import tdoaloc as tl

print("=== 1. zero range difference (bisector-plane source) ===")
sensors = tl.SensorArray(
    [(-0.8, 0.2, 0.3), (0.8, 0.2, 0.3), (0.1, 1.0, 0.0), (0.0, 0.2, 1.0), (0.7, -0.8, 0.5)]
)
source = np.array([0.0, 0.7, -0.4])  # equidistant from the first two sensors
deltas = tl.range_differences(tl.Scenario(sensors=sensors, source=source))
print("deltas:", deltas.deltas, " (first is exactly zero)")
result = tl.solve_five_sensor(sensors, deltas)
print("cleared rows:", result.diagnostics["scaled_rows"])
print("estimate:", result.position, " error:", np.linalg.norm(result.position - source))

print()
print("=== 2. collinear sensors are rejected, not mislocated ===")
line = tl.SensorArray([(0, 0, 0), (1, 2, 3), (2, 4, 6), (3, 6, 9), (4, 8, 12)])
line_deltas = tl.range_differences(tl.Scenario(sensors=line, source=(0.4, 0.1, 0.3)))
try:
    tl.solve_five_sensor(line, line_deltas)
except tl.SingularMatrixError as err:
    print("refused:", err)

print()
print("=== 3. four sensors, two exact solutions ===")
sensors4 = tl.SensorArray([
    [0.00334112215937421, 0.3078804230035789, 0.10317510756265424],
    [0.04975478029850822, 0.2570131842588753, 0.13361092574612565],
    [-0.43980262272196546, 0.1194958202621309, -0.42458306034530924],
    [0.11166014575491934, -0.03491379501772951, 0.31044102626062253],
])
truth = np.array([0.37290505241303085, 0.48743102622653833, 0.06979966723601316])
deltas4 = tl.range_differences(tl.Scenario(sensors=sensors4, source=truth))
result4 = tl.solve_four_sensor(sensors4, deltas4)
print("truth:", truth)
for i, cand in enumerate(result4.candidates):
    picked = "  <-- selected" if np.array_equal(cand.position, result4.position) else ""
    print(
        f"candidate {i}: range={cand.reference_range:.6f} "
        f"position={np.round(cand.position, 6)} residual={cand.residual:.2e}{picked}"
    )
print("flagged ambiguous:", result4.ambiguous)
print(
    "both candidates reproduce the measured deltas to machine precision, so\n"
    "no rule based on the measurements can tell them apart. The solver keeps\n"
    "the one with the smaller reference range, the same pick under rotation,\n"
    "translation or a change of units; here the source is the other one.\n"
    "A fifth sensor removes the ambiguity:"
)
extra = np.vstack([sensors4.positions, [0.35, -0.41, -0.22]])
sensors5 = tl.SensorArray(extra)
deltas5 = tl.range_differences(tl.Scenario(sensors=sensors5, source=truth))
result5 = tl.solve_five_sensor(sensors5, deltas5)
print("five-sensor estimate:", result5.position,
      " error:", np.linalg.norm(result5.position - truth))
