"""Fixed-size 3D linear algebra kernel: the pivoted 3x3 solve.

Pure: operates on plain numpy arrays (shape ``(3,)``, ``(3, k)`` and
``(3, 3)``) and python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

# Relative pivot threshold separating true rank deficiency from round-off.
EPS_RANK = 1e-12


def solve3_pivoted(matrix, rhs) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Solve a 3x3 linear system, returning the solution and pivot magnitudes.

    Direct Gaussian elimination with partial (row) pivoting; algebraically the
    same as multiplying by the matrix inverse but better behaved near
    degenerate geometries. ``rhs`` is one right-hand side of shape ``(3,)`` or
    ``k`` of them as the columns of a ``(3, k)`` array; the solution has the
    same shape. All right-hand sides share one elimination, and each column
    goes through exactly the floating-point operations a single-column solve
    would, so the result does not depend on how many are solved together.
    Deterministic: identical inputs give bit-identical outputs.

    Raises:
        SingularMatrixError: if any elimination pivot falls below
            ``EPS_RANK`` times the largest entry magnitude of the matrix,
            i.e. the system is numerically rank-deficient, or is NaN.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.asarray(rhs, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if v.shape[:1] != (3,) or v.ndim > 2 or v.size == 0:
        raise ValueError(
            f"expected a (3,) or (3, k) right-hand side, got shape {v.shape}"
        )

    # The right-hand sides as extra columns of the matrix rows.
    xs, pivots = _eliminate(np.hstack((m, v.reshape(3, -1))).tolist())
    x = np.array(xs[0]) if v.ndim == 1 else np.array(xs).T
    return x, pivots


def _eliminate(a: list) -> tuple[list, tuple[float, float, float]]:
    """:func:`solve3_pivoted` on Python floats. ``a`` holds the three rows
    of the augmented system ``[matrix | rhs_1 ... rhs_k]`` as lists, and is
    overwritten. Returns one ``(x0, x1, x2)`` tuple per right-hand side and
    the pivot magnitudes; raises as ``solve3_pivoted`` does."""
    width = len(a[0])
    scale = max(map(abs, a[0][:3] + a[1][:3] + a[2][:3]))
    if scale == 0.0:
        raise SingularMatrixError("all-zero system matrix (rank 0)")
    # At least the least subnormal, so that a zero pivot fails even where
    # EPS_RANK * scale underflows (and would be a division by zero).
    tol = max(EPS_RANK * scale, math.ulp(0.0))

    pivots = []
    for col in range(3):
        p = col
        for r in range(col + 1, 3):
            if abs(a[r][col]) > abs(a[p][col]):  # the first of equal largest
                p = r
        piv = a[p][col]
        if not abs(piv) >= tol:  # a NaN pivot fails too
            raise SingularMatrixError(
                f"elimination pivot {abs(piv):.3e} below {tol:.3e} "
                f"(rank-deficient system)"
            )
        a[col], a[p] = a[p], a[col]
        top = a[col]
        pivots.append(abs(piv))
        for row in a[col + 1:]:
            f = row[col] / piv
            if f != 0.0:
                for c in range(col + 1, width):
                    row[c] -= f * top[c]

    (a00, a01, a02, *b0), (_, a11, a12, *b1), (_, _, a22, *b2) = a
    xs = []
    for k in range(width - 3):
        x2 = b2[k] / a22
        x1 = (b1[k] - a12 * x2) / a11
        x0 = (b0[k] - a01 * x1 - a02 * x2) / a00
        xs.append((x0, x1, x2))
    return xs, (pivots[0], pivots[1], pivots[2])
