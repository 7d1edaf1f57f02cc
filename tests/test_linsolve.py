import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errorkit import dataset, regression
from errorkit.linsolve import NormalEquations, SingularSystemError, solve

import reference_values as ref


def relative_error(x, expected):
    return np.max(np.abs(x - expected)) / np.max(np.abs(expected))


class TestNormalEquationsContainer:
    def test_k_property(self):
        system = NormalEquations(np.eye(3), np.ones(3))
        assert system.k == 3

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            NormalEquations(np.ones((2, 3)), np.ones(2))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError, match="does not match matrix order"):
            NormalEquations(np.eye(3), np.ones(2))

    def test_arrays_are_read_only(self):
        system = NormalEquations(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            system.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            system.rhs[0] = 5.0


class TestSolveKnownSystems:
    def test_two_by_two(self):
        system = NormalEquations(
            np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0])
        )
        x = solve(system)
        assert x == pytest.approx([1.0, 3.0], abs=1e-14)

    def test_identity_returns_rhs(self):
        rhs = np.array([3.0, -1.0, 0.5, 7.0])
        x = solve(NormalEquations(np.eye(4), rhs))
        assert np.array_equal(x, rhs)

    def test_reference_quartic_power_sum_system(self):
        # integer 4x4 system published for the cubic fit; solving A x for a
        # known x must come back to x within a tight relative bound
        a = np.array(ref.CUBIC_MATRIX, dtype=float)
        x_true = np.array([1.0, -2.0, 0.5, 3.0])
        system = NormalEquations(a, a @ x_true)
        x = solve(system)
        assert relative_error(x, x_true) <= 1e-8

    def test_reference_sinusoid_system(self):
        a = np.array(ref.DIFF_MATRIX, dtype=float)
        x_true = np.array([0.3, -0.7, 1.1])
        x = solve(NormalEquations(a, a @ x_true))
        assert relative_error(x, x_true) <= 1e-8

    def test_rows_needing_pivoting(self):
        # leading zero forces a row swap
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve(NormalEquations(a, np.array([2.0, 3.0])))
        assert x == pytest.approx([3.0, 2.0], abs=1e-14)

    def test_badly_conditioned_diagonal(self):
        # condition number 1e11 sits just inside the rank threshold and
        # still yields a usable solution thanks to iterative refinement
        a = np.diag([1.0, 1e-11])
        x_true = np.array([1.0, 2.0])
        x = solve(NormalEquations(a, a @ x_true))
        assert relative_error(x, x_true) <= 1e-8


class TestSingularSystems:
    def test_zero_matrix(self):
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(np.zeros((3, 3)), np.ones(3)))
        assert excinfo.value.pivot_index == 0
        assert "elimination step" in str(excinfo.value)

    def test_duplicate_rows(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(a, np.array([1.0, 1.0])))
        assert excinfo.value.pivot_index == 1

    def test_threshold_edge(self):
        # relative pivot threshold is 1e-12 of the largest initial diagonal
        # entry: 1e-11 is still solvable, 1e-13 is treated as singular
        ok = NormalEquations(np.diag([1.0, 1e-11]), np.array([1.0, 1e-11]))
        assert solve(ok) == pytest.approx([1.0, 1.0])

        bad = NormalEquations(np.diag([1.0, 1e-13]), np.array([1.0, 1e-13]))
        with pytest.raises(SingularSystemError) as excinfo:
            solve(bad)
        assert excinfo.value.pivot_index == 1

    @pytest.mark.parametrize("diagonal", [[np.nan, 0.0], [0.0, np.nan]])
    def test_nan_pivot_is_singular(self, diagonal):
        # A NaN threshold or pivot fails the pivot test, so no step
        # divides a Python float by a zero pivot.
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(np.diag(diagonal), np.ones(2)))
        assert excinfo.value.pivot_index == 0


@st.composite
def spd_systems(draw, max_cond_exponent=8.0):
    """Random symmetric positive definite systems with bounded conditioning."""
    k = draw(st.integers(min_value=2, max_value=6))
    cond_exponent = draw(st.floats(min_value=0.0, max_value=max_cond_exponent))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    spectrum = np.logspace(0.0, -cond_exponent, k)
    a = q @ np.diag(spectrum) @ q.T
    a = 0.5 * (a + a.T)
    x_true = rng.uniform(-10.0, 10.0, size=k)
    return a, x_true


class TestSolveProperties:
    @settings(max_examples=60)
    @given(spd_systems())
    def test_spd_solution_accuracy(self, case):
        a, x_true = case
        x = solve(NormalEquations(a, a @ x_true))
        assert relative_error(x, x_true) <= 1e-8

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_residual_after_refinement_is_tiny(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        a = rng.uniform(-5.0, 5.0, size=(k, k)) + k * np.eye(k)
        rhs = rng.uniform(-5.0, 5.0, size=k)
        x = solve(NormalEquations(a, rhs))
        residual = np.max(np.abs(a @ x - rhs))
        assert residual <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def exact_solution(a, b) -> list[Fraction]:
    """Gaussian elimination on the exact rational values of ``a`` and ``b``."""
    n = len(b)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a.tolist(), b.tolist())]
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])
        m[k], m[p] = m[p], m[k]
        for row in m[k + 1 :]:
            f = row[k] / m[k][k]
            for j in range(k, n + 1):
                row[j] -= f * m[k][j]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return x


def correctly_rounded(a, b) -> list[float]:
    # Fraction -> float divides two ints, which Python rounds correctly.
    return [float(v) for v in exact_solution(a, b)]


def ulps_off(x, a, b) -> Fraction:
    """Largest distance of ``x`` from the exact solution, in ulps of the
    correctly rounded solution."""
    return max(
        abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))
        for got, want in zip(x.tolist(), exact_solution(a, b))
    )


def reference_solve(a, b):
    """Reference solver: numpy elimination with the same pivoting,
    refined twice on ``np.longdouble`` residuals. Where ``long double``
    is plain double, its refinement gains nothing."""
    n = a.shape[0]
    lu, perm = a.copy(), np.arange(n)
    scale = np.abs(lu).max(axis=1)
    scale[scale == 0.0] = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k]) / scale[k:]))
        lu[[k, p]], perm[[k, p]], scale[[k, p]] = lu[[p, k]], perm[[p, k]], scale[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])

    def substitute(rhs):
        x = rhs[perm].astype(float)
        for k in range(1, n):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
        return x

    x = substitute(b)
    a_long, b_long = a.astype(np.longdouble), b.astype(np.longdouble)
    for _ in range(2):
        correction = substitute((b_long - a_long @ x.astype(np.longdouble)).astype(float))
        x = np.asarray(x.astype(np.longdouble) + correction.astype(np.longdouble), dtype=float)
    return x


def bundled_systems():
    """The normal equations of the three fits the command line runs on the
    bundled tables: whole-ppm poly3, cycle and cycle-diff at 20 m."""
    series = dataset.load_series(dataset.bundled_path("table1.csv"))
    condition, error = dataset.to_error_samples(series, "mean-reference").columns
    whole_ppm = dataset.ErrorSamples(condition, np.round(error) + 0.0)
    cycle = dataset.to_error_samples(
        dataset.load_series(dataset.bundled_path("table2.csv")), "explicit-reference")
    pairs = dataset.load_differential(dataset.bundled_path("table3.csv"))
    return {
        "poly3": regression.fit_polynomial(whole_ppm, degree=3).normal,
        "cycle": regression.fit_cycle_direct(cycle, 20.0).normal,
        "cycle-diff": regression.fit_cycle_differential(pairs, 20.0).normal,
    }


def assert_matches_oracle(a, b):
    """Up to cond_1 = 1e12, ``solve`` is never further from the exact
    solution than the reference solver. Where the diagonally equilibrated
    cond_1 is at most 1e9 it is the correctly rounded solution; the
    first systems seen to miss it were near 3e10."""
    assume(np.linalg.cond(a, 1) <= 1e12)
    x = solve(NormalEquations(a, b))
    assert ulps_off(x, a, b) <= ulps_off(reference_solve(a, b), a, b)
    d = 1.0 / np.sqrt(np.abs(np.diag(a)))
    if np.linalg.cond(a * np.outer(d, d), 1) <= 1e9:
        assert x.tolist() == correctly_rounded(a, b)


class TestExactOracle:
    @pytest.mark.parametrize("name", ["poly3", "cycle", "cycle-diff"])
    def test_bundled_fits_are_correctly_rounded(self, name):
        eq = bundled_systems()[name]
        assert solve(eq).tolist() == correctly_rounded(eq.matrix, eq.rhs)

    @settings(max_examples=150)
    @given(
        degree=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=1, max_value=30),
        start=st.floats(min_value=-100.0, max_value=100.0),
        span=st.floats(min_value=0.5, max_value=150.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_raw_monomial_systems(self, degree, extra, start, span, seed):
        rng = np.random.default_rng(seed)
        n = degree + 1 + extra
        samples = dataset.ErrorSamples(start + span * rng.random(n), 10.0 * rng.standard_normal(n))
        try:
            eq = regression.fit_polynomial(samples, degree=degree).normal
        except SingularSystemError:
            assume(False)
        assert_matches_oracle(eq.matrix, eq.rhs)

    @settings(max_examples=150)
    @given(spd_systems(max_cond_exponent=12.0))
    def test_spd_systems(self, case):
        a, x_true = case
        assert_matches_oracle(a, a @ x_true)


class TestExtremeScales:
    """Power-of-two scaling keeps the exact residual finite and exact at
    the ends of the double range, where the split alone would overflow
    or lose its error terms to underflow."""

    @staticmethod
    def assert_correctly_rounded(a, b):
        x = solve(NormalEquations(a, b))
        assert x.tolist() == correctly_rounded(a, b)
        assert np.all(np.isfinite(reference_solve(a, b)))
        return x

    @pytest.mark.parametrize("s", [1e300, 2.0**996, 2.0**1000, 1e-300])
    def test_scaled_two_by_two(self, s):
        x = self.assert_correctly_rounded(np.array([[2 * s, s], [s, 3 * s]]), np.array([5 * s, 10 * s]))
        assert x == pytest.approx([1.0, 3.0], rel=1e-15)

    def test_rows_2_to_the_1500_apart(self):
        t = 2.0**750
        x = self.assert_correctly_rounded(np.array([[1 / t, 3 / t], [t, 0.0]]), np.array([10 / t, t]))
        assert x.tolist() == [1.0, 3.0]

    def test_overflowed_solution_is_nan(self):
        # 1e300 / 1e-300 is beyond the double range: no residual exists
        a = np.diag([1e-300, 1e-300])
        x = solve(NormalEquations(a, np.array([1e300, 1.0])))
        assert np.all(np.isnan(x))
