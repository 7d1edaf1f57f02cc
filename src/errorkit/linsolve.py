"""Small dense symmetric linear systems from least-squares assembly.

Raw monomial bases over wide condition ranges produce badly scaled
normal matrices (condition numbers around 1e11 for a cubic over a
140-degree temperature span). Every double is an integer over a power
of two, so each row of ``[A | b]`` scales to integers, and one
fraction-free elimination (Bareiss, "Sylvester's Identity and Multistep
Integer-Preserving Gaussian Elimination", Math. Comp. 22(103), 1968) on
those rows divides exactly at every step. It picks its pivots by scaled
partial pivoting and refuses a system that is rank deficient at working
precision, deciding both exactly by cross-multiplying integers, and each
component of the solution is rounded once. No step depends on the
platform.

Design envelope is k <= 16; the integers grow with k, and nothing here
is meant for large or sparse systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import SingularSystemError

__all__ = ["NormalEquations", "SingularSystemError", "solve"]

# A pivot this much smaller than the largest initial pivot candidate is
# treated as exact rank deficiency.
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class NormalEquations:
    """A k-by-k symmetric system ``matrix @ x = rhs``.

    Instances are produced by the fit assemblers, which compute each
    off-diagonal entry once and mirror it, so the matrix is symmetric
    by construction and the diagonal holds sums of squares.  Symmetry
    is not re-validated here.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        r = np.ascontiguousarray(np.asarray(self.rhs, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if r.shape != (m.shape[0],):
            raise ValueError(
                f"rhs length {r.shape} does not match matrix order {m.shape[0]}"
            )
        m.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", r)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


def solve(eq: NormalEquations) -> np.ndarray:
    """Solve the normal equations: the correctly rounded solution of the
    system as given, with an exact zero as ``+0.0``.

    Each row ``i`` of ``[A | b]`` is scaled by its largest denominator
    ``D_i`` into integers, and one Bareiss elimination runs on those
    rows.  It takes its pivots by scaled partial pivoting and refuses a
    pivot not above ``_SINGULAR_RTOL`` times the largest ``|a_ii|``, both
    decided exactly.  Fraction-free back substitution then gives integers
    ``X`` and ``det`` with ``x = X / det`` exactly, and Python rounds each
    int / int division correctly, subnormals included.  A non-finite
    ``b``, or a solution beyond the double range, gives a vector of NaN,
    once the matrix has passed every pivot test.

    Raises:
        SingularSystemError: the matrix is rank deficient at working
            precision, exactly singular, or has a non-finite entry (at
            step 0); the exception carries the failing pivot index.
    """
    n = eq.k
    a, b = eq.matrix.tolist(), eq.rhs.tolist()
    finite_rhs = all(map(math.isfinite, b))
    rows, scales = [], []  # the integer rows of [A | b]; each row's (D, M)
    try:
        for row, bi in zip(a, b if finite_rhs else [0.0] * n):
            ratios = list(map(float.as_integer_ratio, [*row, bi]))
            d = max(den for _, den in ratios)
            ints = [num * (d // den) for num, den in ratios]
            rows.append(ints)
            scales.append((d, max(map(abs, ints[:n])) or d))
    except (OverflowError, ValueError):  # an infinite or NaN matrix entry
        raise SingularSystemError(0) from None
    threshold = _SINGULAR_RTOL * max([abs(a[i][i]) for i in range(n)], default=0.0)
    t_num, t_den = threshold.as_integer_ratio()
    det = 1  # the last pivot, Bareiss's divisor; at the end, the determinant
    for k in range(n):
        # A float LU would hold rows[i][k] / (det * D_i) here: take the
        # first row with the largest ratio of that to the row's largest
        # entry of A, |rows[i][k]| / M_i, and test it against the threshold.
        p = k
        for i in range(k + 1, n):
            if abs(rows[i][k]) * scales[p][1] > abs(rows[p][k]) * scales[i][1]:
                p = i
        pivot_row = rows[p]
        if not abs(pivot_row[k]) * t_den > t_num * abs(det) * scales[p][0]:
            raise SingularSystemError(k)
        rows[k], rows[p] = pivot_row, rows[k]
        scales[k], scales[p] = scales[p], scales[k]
        for row in rows[k + 1 :]:
            m = row[k]
            for j in range(k + 1, n + 1):  # exact: Sylvester's identity
                row[j] = (pivot_row[k] * row[j] - m * pivot_row[j]) // det
        det = pivot_row[k]
    if not finite_rhs:
        return np.full(n, math.nan)
    x = [0] * n
    for k in reversed(range(n)):
        row = rows[k]
        rest = sum(row[j] * x[j] for j in range(k + 1, n))
        x[k] = (det * row[n] - rest) // row[k]  # exact: det * x_k is an integer
    try:
        return np.array([v / det if v else 0.0 for v in x])
    except OverflowError:  # a solution beyond the double range
        return np.full(n, math.nan)
