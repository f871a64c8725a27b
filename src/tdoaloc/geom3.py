"""Fixed-size 3D linear algebra kernel: the pivoted 3x3 solve.

Pure: the solve takes the rows of an augmented system as lists of Python
floats and returns tuples of Python floats; both solvers call it.
"""

from __future__ import annotations

import math

from .errors import SingularMatrixError

# Relative pivot threshold separating true rank deficiency from round-off.
EPS_RANK = 1e-12


def _singular(piv: float, tol: float) -> SingularMatrixError:
    return SingularMatrixError(
        f"elimination pivot {abs(piv):.3e} below {tol:.3e} (rank-deficient system)"
    )


def solve3_pivoted(a: list) -> tuple[list, tuple[float, float, float]]:
    """Solve a 3x3 linear system, returning the solutions and pivot magnitudes.

    ``a`` holds the three rows of the augmented system
    ``[matrix | rhs_1 ... rhs_k]`` as lists of floats; it is not modified.
    Returns one ``(x0, x1, x2)`` tuple per right-hand side and the pivot
    magnitudes.

    Direct Gaussian elimination with partial (row) pivoting; algebraically the
    same as multiplying by the matrix inverse but better behaved near
    degenerate geometries. The matrix entries are eliminated in locals, then
    each right-hand side goes through the same row operations in the same
    order, so every entry sees the floating-point operations of a row-by-row
    elimination and a solution does not depend on how many right-hand sides
    are solved together. Deterministic: identical inputs give bit-identical
    outputs.

    Raises:
        SingularMatrixError: if any elimination pivot falls below
            ``EPS_RANK`` times the largest entry magnitude of the matrix,
            i.e. the system is numerically rank-deficient, or is NaN.
    """
    r0, r1, r2 = a
    scale = max(abs(r0[0]), abs(r0[1]), abs(r0[2]), abs(r1[0]), abs(r1[1]), abs(r1[2]),
                abs(r2[0]), abs(r2[1]), abs(r2[2]))
    if scale == 0.0:
        raise SingularMatrixError("all-zero system matrix (rank 0)")
    # At least the least subnormal, so that a zero pivot fails even where
    # EPS_RANK * scale underflows (and would be a division by zero).
    tol = max(EPS_RANK * scale, math.ulp(0.0))

    # Column 0: the first row of the largest magnitude swaps with row 0.
    p = 1 if abs(r1[0]) > abs(r0[0]) else 0
    if abs(r2[0]) > abs(a[p][0]):
        r0, r2 = r2, r0
    elif p:
        r0, r1 = r1, r0
    piv0, m01, m02, *y0s = r0
    if not abs(piv0) >= tol:  # a NaN pivot fails too
        raise _singular(piv0, tol)
    f1 = r1[0] / piv0
    f2 = r2[0] / piv0
    _, m11, m12, *y1s = r1
    _, m21, m22, *y2s = r2
    if f1 != 0.0:
        m11 -= f1 * m01
        m12 -= f1 * m02
    if f2 != 0.0:
        m21 -= f2 * m01
        m22 -= f2 * m02

    # Column 1: rows 1 and 2 swap if row 2's entry is larger.
    swap = abs(m21) > abs(m11)
    if swap:
        m11, m12, m21, m22 = m21, m22, m11, m12
    if not abs(m11) >= tol:
        raise _singular(m11, tol)
    g = m21 / m11
    if g != 0.0:
        m22 -= g * m12
    if not abs(m22) >= tol:
        raise _singular(m22, tol)

    xs = []
    for y0, y1, y2 in zip(y0s, y1s, y2s):
        if f1 != 0.0:
            y1 -= f1 * y0
        if f2 != 0.0:
            y2 -= f2 * y0
        if swap:
            y1, y2 = y2, y1
        if g != 0.0:
            y2 -= g * y1
        x2 = y2 / m22
        x1 = (y1 - m12 * x2) / m11
        x0 = (y0 - m01 * x1 - m02 * x2) / piv0
        xs.append((x0, x1, x2))
    return xs, (abs(piv0), abs(m11), abs(m22))
