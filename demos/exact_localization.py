#!/usr/bin/env python3
"""Walk through the exact solvers on a small worked scenario.

Five sensors: pairing range-difference measurements eliminates the unknown
source-to-reference range and the position drops out of one 3x3 linear solve.
Four sensors: the position is pinned to a line parameterized by that range;
one quadratic plus residual scoring picks the physical candidate.
"""

import numpy as np

import tdoaloc as tl

sensors5 = tl.SensorArray([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
source = np.array([2.0, 3.0, 4.0])

print("=== five sensors: one linear solve, no ambiguity ===")
scenario = tl.Scenario(sensors=sensors5, source=source)
deltas = tl.range_differences(scenario)
print("true source:        ", source)
print("range differences m:", np.round(deltas.deltas, 6))

result = tl.solve_five_sensor(sensors5, deltas)
diag = result.diagnostics
print("pairings used:", diag["pairings"], " cleared rows:", diag["scaled_rows"],
      " pairing retries:", diag["pairing_retries"])
print("pivot magnitudes:", np.round(diag["pivots"], 4),
      " pivot ratio:", round(diag["pivot_ratio"], 4))
print("estimate:", result.position, " method:", result.method.value)
print("error:", np.linalg.norm(result.position - source))

print()
print("=== four sensors: linear solve + quadratic + residual choice ===")
sensors4 = tl.SensorArray(sensors5.positions[:4])
scenario4 = tl.Scenario(sensors=sensors4, source=source)
deltas4 = tl.range_differences(scenario4)
result4 = tl.solve_four_sensor(sensors4, deltas4)
diag4 = result4.diagnostics
print("candidate line: position = range * slope - offset, from one 3x3 solve")
print("pivot magnitudes:", np.round(diag4["pivots"], 4))
print("quadratic in the reference range, a*r^2 - 2*b_half*r + c = 0")
print("  (a, b_half, c):", tuple(round(v, 6) for v in diag4["quadratic"]))
print("  discriminant:  ", round(diag4["discriminant"], 6),
      " linear fallback:", diag4["linear_fallback"])
print("retained nonnegative roots:", [c.reference_range for c in result4.candidates],
      " (true source-to-reference range:", np.linalg.norm(source), ")")
print("estimate:", result4.position, " candidates:", len(result4.candidates),
      " ambiguous:", result4.ambiguous)
for i, cand in enumerate(result4.candidates):
    print(f"  candidate {i}: range={cand.reference_range:.6f}"
          f" residual={cand.residual:.3e} position={np.round(cand.position, 9)}")
print("error:", np.linalg.norm(result4.position - source))

print()
print("=== timing measurements instead of ranges ===")
c = tl.SPEED_OF_LIGHT
arrival = np.array([0.0, *(deltas.deltas / c)])  # seconds, reference first
recovered = tl.arrival_times_to_range_diffs(arrival, c)
reresult = tl.solve_five_sensor(sensors5, recovered)
print("arrival-time spreads (ns):", np.round(arrival * 1e9, 3))
print("estimate from times:", reresult.position)
