"""Small dense symmetric linear systems from least-squares assembly.

Raw monomial bases over wide condition ranges produce badly scaled
normal matrices (condition numbers around 1e11 for a cubic over a
140-degree temperature span), so the solver combines Gaussian
elimination with scaled partial pivoting, on Python floats, with two
sweeps of iterative refinement. Each sweep's residual is exact before
its one rounding: an error-free dot product (Ogita, Rump and Oishi,
"Accurate Sum and Dot Product", SIAM J. Sci. Comput. 26(6), 2005) or
exact rationals, so no step depends on the platform's ``long double``.

Design envelope is k <= 16; nothing here is meant for large or sparse
systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import SingularSystemError

__all__ = ["NormalEquations", "SingularSystemError", "solve"]

# A pivot this much smaller than the largest initial pivot candidate is
# treated as exact rank deficiency.
_SINGULAR_RTOL = 1e-12

_REFINEMENT_SWEEPS = 2


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


def _factor(a: np.ndarray):
    """LU factorization with scaled partial pivoting, on lists of floats.

    Returns (lu, perm) where perm maps factored row -> original row.
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
    return lu, perm


def _solve_factored(lu: list, perm: list, b: list) -> list:
    n = len(lu)
    x = [b[i] for i in perm]
    for k, row in enumerate(lu):
        for j in range(k):
            x[k] -= row[j] * x[j]
    for k in reversed(range(n)):
        row = lu[k]
        for j in range(k + 1, n):
            x[k] -= row[j] * x[j]
        x[k] /= row[k]
    return x


def _split(values: list) -> tuple[list, list] | None:
    """(hi, lo): each ``v`` split by Veltkamp into ``hi + lo`` with at
    most 26 significant bits in each half, or None when a nonzero
    magnitude lies outside [2**-484, 2**484). Inside that window a
    product of two halves is exact: it neither overflows nor loses a
    bit to underflow."""
    mags = sorted(map(abs, values))
    if not (2.0**-484 <= next(filter(None, mags), 1.0) and mags[-1] < 2.0**484):
        return None
    hi, lo = [], []
    for v in values:
        c = 134217729.0 * v  # 2**27 + 1
        hi.append(c - (c - v))
        lo.append(v - hi[-1])
    return hi, lo


def _exact_dot(u: list, v: list) -> float:
    """``u @ v`` rounded once, from exact rationals: ``float`` of a
    Fraction divides two integers, which CPython rounds correctly.
    Raises OverflowError for a result beyond the double range, or a
    value that is not finite."""
    from fractions import Fraction  # 2 ms to import; only this path needs it

    if not all(map(math.isfinite, u + v)):
        raise OverflowError("a dot product of values that are not finite")
    return float(sum(map(mul, map(Fraction, u), map(Fraction, v))))


def _residual(ab: list, rows: list, x: list) -> list:
    """``b - a @ x``, each component exact before its one rounding: the
    dot product of row ``i`` of ``ab``, ``a[i]`` followed by ``b[i]``,
    with ``[-x, 1]``. ``rows`` is ``list(map(_split, ab))``. Inside the
    window of :func:`_split`, each product is four exact half products
    (Dekker) that :func:`math.fsum` adds without error; outside it,
    :func:`_exact_dot` computes the component. Raises OverflowError for
    a residual beyond the double range."""
    x = [-v for v in x] + [1.0]
    split_x = None if None in rows else _split(x)
    if split_x is None:
        return [_exact_dot(row, x) for row in ab]
    x_hi, x_lo = split_x
    halves = x_hi + x_lo + x_hi + x_lo
    return [math.fsum(map(mul, hi + hi + lo + lo, halves)) for hi, lo in rows]


def solve(eq: NormalEquations) -> np.ndarray:
    """Solve the normal equations.

    The tests hold the result to an exact rational solve. It is the
    correctly rounded solution on the bundled fits, and on generated
    systems, raw-monomial normal matrices among them, whose diagonally
    equilibrated cond_1 is at most 1e9. The first misses seen were near
    cond_1 = 4e10, by up to 160 ulps, where the long-double refinement
    this replaced was off by 1e6 ulps or more. Each refinement residual
    is exact before its one rounding, for any finite system.

    Raises:
        SingularSystemError: the matrix is rank deficient at working
            precision; the exception carries the failing pivot index.
    """
    lu, perm = _factor(eq.matrix)
    b = eq.rhs.tolist()
    x = _solve_factored(lu, perm, b)
    ab = [[*row, bi] for row, bi in zip(eq.matrix.tolist(), b)]
    rows = list(map(_split, ab))
    for _ in range(_REFINEMENT_SWEEPS):
        try:
            residual = _residual(ab, rows, x)
        except OverflowError:  # x overflowed, or misses b by more than 1e308
            return np.full(len(x), math.nan)
        x = [v + c for v, c in zip(x, _solve_factored(lu, perm, residual))]
    return np.array(x)
