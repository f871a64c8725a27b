"""Fixed-size 3D linear algebra kernel: the pivoted 3x3 solve.

Pure: operates on plain numpy arrays (shape ``(3,)``, ``(3, k)`` and
``(3, 3)``) and python floats.
"""

from __future__ import annotations

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

    a = m.tolist()
    cols = [v.tolist()] if v.ndim == 1 else v.T.tolist()
    scale = max(map(abs, a[0] + a[1] + a[2]))
    if scale == 0.0:
        raise SingularMatrixError("all-zero system matrix (rank 0)")
    tol = EPS_RANK * scale

    pivots = []
    for col in range(3):
        column = [abs(row[col]) for row in a[col:]]
        p = col + column.index(max(column))  # the first of equal largest
        piv = a[p][col]
        if not abs(piv) >= tol:  # a NaN pivot fails too
            raise SingularMatrixError(
                f"elimination pivot {abs(piv):.3e} below {tol:.3e} "
                f"(rank-deficient system)"
            )
        if p != col:
            a[col], a[p] = a[p], a[col]
            for b in cols:
                b[col], b[p] = b[p], b[col]
        pivots.append(abs(piv))
        for r in range(col + 1, 3):
            f = a[r][col] / piv
            if f != 0.0:
                for c in range(col + 1, 3):
                    a[r][c] -= f * a[col][c]
                for b in cols:
                    b[r] -= f * b[col]

    xs = []
    for b in cols:
        x2 = b[2] / a[2][2]
        x1 = (b[1] - a[1][2] * x2) / a[1][1]
        x0 = (b[0] - a[0][1] * x1 - a[0][2] * x2) / a[0][0]
        xs.append((x0, x1, x2))
    x = np.array(xs[0]) if v.ndim == 1 else np.array(xs).T
    return x, (pivots[0], pivots[1], pivots[2])
