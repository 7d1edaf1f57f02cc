"""Small dense symmetric linear systems from least-squares assembly.

Raw monomial bases over wide condition ranges produce badly scaled
normal matrices (condition numbers around 1e11 for a cubic over a
140-degree temperature span). Gaussian elimination with scaled partial
pivoting, on Python floats, picks the row order and refuses a system
that is rank deficient at working precision. The solve itself is exact:
every double is an integer over a power of two, so fraction-free
elimination (Bareiss, "Sylvester's Identity and Multistep
Integer-Preserving Gaussian Elimination", Math. Comp. 22(103), 1968) on
integer rows divides exactly at every step, and each component of the
solution is rounded once. No step depends on the platform.

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


def _factor(a: np.ndarray) -> list:
    """LU factorization with scaled partial pivoting, on lists of floats.

    Returns perm, which maps factored row -> original row.
    Raises SingularSystemError when the best available pivot falls
    below the rank-deficiency threshold.
    """
    lu = a.tolist()
    n = len(lu)
    perm = list(range(n))
    scale = [max(map(abs, row)) or 1.0 for row in lu]
    threshold = _SINGULAR_RTOL * max([abs(lu[i][i]) for i in range(n)], default=0.0)

    for k in range(n):
        p, best = k, -1.0
        for i in range(k, n):
            ratio = abs(lu[i][k]) / scale[i]
            if ratio > best:  # the first largest, as np.argmax picks
                p, best = i, ratio
        if not abs(lu[p][k]) > threshold:  # NaN as well, so no pivot is 0
            raise SingularSystemError(k)
        lu[k], lu[p] = lu[p], lu[k]
        perm[k], perm[p] = perm[p], perm[k]
        scale[k], scale[p] = scale[p], scale[k]
        pivot_row = lu[k]
        for row in lu[k + 1 :]:
            m = row[k] = row[k] / pivot_row[k]
            for j in range(k + 1, n):
                row[j] -= m * pivot_row[j]
    return perm


def solve(eq: NormalEquations) -> np.ndarray:
    """Solve the normal equations: the correctly rounded solution of the
    system as given, with an exact zero as ``+0.0``.

    Each row of ``[A | b]``, taken in :func:`_factor`'s order, is scaled
    by its largest denominator into integers. Bareiss elimination and
    fraction-free back substitution then give integers ``X`` and ``det``
    with ``x = X / det`` exactly, and Python rounds each int / int
    division correctly, subnormals included. A non-finite entry, or a
    solution beyond the double range, gives a vector of NaN.

    Raises:
        SingularSystemError: the matrix is rank deficient at working
            precision, or exactly singular; the exception carries the
            failing pivot index.
    """
    perm = _factor(eq.matrix)
    n = len(perm)
    ab = [[*row, bi] for row, bi in zip(eq.matrix.tolist(), eq.rhs.tolist())]
    rows = []
    try:
        for i in perm:
            ratios = list(map(float.as_integer_ratio, ab[i]))
            d = max(den for _, den in ratios)
            rows.append([num * (d // den) for num, den in ratios])
    except (OverflowError, ValueError):  # an infinite or NaN entry
        return np.full(n, math.nan)
    det = 1  # the last pivot, Bareiss's divisor; at the end, the determinant
    for k in range(n):
        # An exact pivot can be 0 where the float one was rounding noise.
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise SingularSystemError(k)
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        for row in rows[k + 1 :]:
            m = row[k]
            for j in range(k + 1, n + 1):  # exact: Sylvester's identity
                row[j] = (pivot_row[k] * row[j] - m * pivot_row[j]) // det
        det = pivot_row[k]
    x = [0] * n
    for k in reversed(range(n)):
        row = rows[k]
        rest = sum(row[j] * x[j] for j in range(k + 1, n))
        x[k] = (det * row[n] - rest) // row[k]  # exact: det * x_k is an integer
    try:
        return np.array([v / det if v else 0.0 for v in x])
    except OverflowError:  # a solution beyond the double range
        return np.full(n, math.nan)
