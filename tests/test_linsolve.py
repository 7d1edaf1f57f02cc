import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from errorkit import dataset, regression
from errorkit.linsolve import _SINGULAR_RTOL, NormalEquations, SingularSystemError, solve

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
        # still yields a usable solution
        a = np.diag([1.0, 1e-11])
        x_true = np.array([1.0, 2.0])
        x = solve(NormalEquations(a, a @ x_true))
        assert relative_error(x, x_true) <= 1e-8

    def test_exact_zeros(self):
        # cond_1 = 62; a float solve leaves about 1e-45 in the zeros
        a = np.array([[-17.0, 2.0, -4.0, 12.0], [2.0, -26.0, -25.0, 9.0],
                      [-4.0, -25.0, -43.0, -5.0], [12.0, 9.0, -5.0, -43.0]])
        x = solve(NormalEquations(a, np.array([-20.0, 7.0, 53.0, 91.0])))
        assert x.tolist() == [0.0, 0.0, -1.0, -2.0]
        assert not np.signbit(x[:2]).any()

    def test_an_exact_zero_is_positive(self):
        x = solve(NormalEquations(np.array([[-1.0]]), np.array([0.0])))
        assert x.tolist() == [0.0] and not np.signbit(x[0])


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

    def test_a_pivot_equal_to_the_threshold_is_refused(self):
        t = _SINGULAR_RTOL * 1.0
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(np.diag([1.0, t]), np.array([1.0, t])))
        assert excinfo.value.pivot_index == 1
        above = np.nextafter(t, np.inf)
        x = solve(NormalEquations(np.diag([1.0, above]), np.array([1.0, above])))
        assert x.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("diagonal", [[np.nan, 0.0], [0.0, np.nan]])
    def test_nan_pivot_is_singular(self, diagonal):
        # A NaN entry is refused before any pivot test.
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(np.diag(diagonal), np.ones(2)))
        assert excinfo.value.pivot_index == 0

    def test_an_infinite_entry_off_the_diagonal_is_singular(self):
        a = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(a, np.ones(2)))
        assert excinfo.value.pivot_index == 0

    def test_an_exactly_zero_last_pivot_under_a_zero_threshold(self):
        # The zero diagonal makes the threshold 0, and the last pivot is
        # exactly 0, though in floats it is fl(fl(1/3) * 3) - fl(fl(1/49) * 49).
        a = np.array([[0.0, 3.0, -3.0], [49.0, 0.0, 49.0], [1.0, 1.0, 0.0]])
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(a, np.ones(3)))
        assert excinfo.value.pivot_index == 2

    @pytest.mark.parametrize("rhs", [[np.nan, 1.0], [1.0, np.inf]])
    def test_non_finite_rhs_gives_nan(self, rhs):
        x = solve(NormalEquations(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array(rhs)))
        assert np.all(np.isnan(x))

    def test_a_singular_matrix_is_refused_before_a_non_finite_rhs(self):
        with pytest.raises(SingularSystemError) as excinfo:
            solve(NormalEquations(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([np.nan, 1.0])))
        assert excinfo.value.pivot_index == 1


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

    @settings(max_examples=60)
    @given(spd_systems(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_permuting_rows_and_columns_permutes_the_solution(self, case, seed):
        a, x_true = case
        b = a @ x_true
        p = np.random.default_rng(seed).permutation(len(b))
        x = solve(NormalEquations(a, b))
        assert solve(NormalEquations(a[p][:, p], b[p])).tobytes() == x[p].tobytes()

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
    """Gaussian elimination on the exact rational values of ``a`` and ``b``.
    Raises ZeroDivisionError when ``a`` is exactly singular."""
    n = len(b)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a.tolist(), b.tolist())]
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), k)
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


def refusal_step(a):
    """The elimination step at which ``solve`` refuses ``a``, or None."""
    try:
        solve(NormalEquations(a, np.zeros(len(a))))
    except SingularSystemError as exc:
        return exc.pivot_index
    return None


def float_refusal_step(a):
    """The reference rule for ``solve``'s refusals: Gaussian elimination
    with scaled partial pivoting on Python floats, refusing at the first
    step whose chosen pivot is not above the threshold.  Returns that
    step, or None."""
    lu = a.tolist()
    n = len(lu)
    scale = [max(map(abs, row)) or 1.0 for row in lu]
    threshold = _SINGULAR_RTOL * max([abs(lu[i][i]) for i in range(n)], default=0.0)
    for k in range(n):
        p, best = k, -1.0
        for i in range(k, n):
            ratio = abs(lu[i][k]) / scale[i]
            if ratio > best:  # the first largest
                p, best = i, ratio
        if not abs(lu[p][k]) > threshold:
            return k
        lu[k], lu[p] = lu[p], lu[k]
        scale[k], scale[p] = scale[p], scale[k]
        pivot_row = lu[k]
        for row in lu[k + 1 :]:
            m = row[k] = row[k] / pivot_row[k]
            for j in range(k + 1, n):
                row[j] -= m * pivot_row[j]
    return None


def assembled_matrix(fit, *args):
    """The normal matrix that ``fit(*args)`` assembles, solvable or not."""
    matrices = []
    with mock.patch.object(regression, "solve",
                           lambda eq: matrices.append(eq.matrix) or np.zeros(eq.k)):
        fit(*args)
    return matrices[0]


def raw_monomial_matrix(rng):
    degree = int(rng.integers(1, 6))
    n = degree + 1 + int(rng.integers(1, 31))
    t = rng.uniform(-100.0, 100.0) + rng.uniform(0.5, 250.0) * rng.random(n)
    samples = dataset.ErrorSamples(t, 10.0 * rng.standard_normal(n))
    return assembled_matrix(regression.fit_polynomial, samples, degree)


def cycle_basis_matrix(rng):
    # Readings whole wavelengths apart, give or take 1e-12 m to 1 m.
    n = int(rng.integers(3, 30))
    s = (rng.uniform(0.0, 100.0) + 20.0 * rng.integers(0, 10, n)
         + rng.normal(0.0, 10.0 ** -rng.uniform(0.0, 12.0), n))
    samples = dataset.ErrorSamples(s, rng.standard_normal(n))
    return assembled_matrix(regression.fit_cycle_direct, samples, 20.0)


def spd_matrix(rng):
    k = int(rng.integers(2, 7))
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    a = q @ np.diag(np.logspace(0.0, -rng.uniform(0.0, 17.0), k)) @ q.T
    return 0.5 * (a + a.T)


class TestRefusalParity:
    @pytest.mark.parametrize("family", [raw_monomial_matrix, cycle_basis_matrix, spd_matrix])
    def test_refuses_where_the_float_rule_refuses(self, family):
        rng = np.random.default_rng(2017)
        steps = [(float_refusal_step(a), refusal_step(a))
                 for a in (family(rng) for _ in range(2000))]
        assert [pair for pair in steps if pair[0] != pair[1]] == []
        refused = sum(want is not None for want, _ in steps)
        assert 200 <= refused <= 1800  # both outcomes are exercised


def assert_matches_oracle(a, b):
    """At any cond_1, ``solve`` is the correctly rounded solution."""
    assert solve(NormalEquations(a, b)).tolist() == correctly_rounded(a, b)


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
        assume(refusal_step(a) is None)
        assert_matches_oracle(a, a @ x_true)


def signed(magnitudes):
    return st.one_of(magnitudes, st.just(0.0)).flatmap(lambda v: st.sampled_from([v, -v]))


def binades(lo, hi):
    """Doubles with any significand, from the binades 2**lo to 2**hi."""
    return signed(st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                            st.integers(lo, hi)))


# Moderate magnitudes, the binades 2**-560...2**-470 and 2**440...2**530,
# where a product of two entries can leave the double range, and any
# finite double: subnormals and the largest magnitudes too.
ELEMENTS = [
    signed(st.floats(min_value=1e-70, max_value=1e70)),
    binades(-560, -470),
    binades(440, 530),
    signed(st.floats(min_value=5e-324, max_value=1.7e308)),
]


@st.composite
def whole_range_systems(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(draw(st.sampled_from(ELEMENTS)), min_size=k, max_size=k)
    a, b = draw(st.lists(vector, min_size=k, max_size=k)), draw(vector)
    if draw(st.booleans()):
        # b as a @ x rounded: the exact solution is then x moved by the
        # rounding error alone, which rests on every low bit.
        x = draw(vector)
        try:
            b = [float(sum(Fraction(v) * Fraction(w) for v, w in zip(row, x))) for row in a]
        except OverflowError:
            pass
    return np.array(a), np.array(b)


class TestWholeDoubleRange:
    @settings(max_examples=400)
    @given(whole_range_systems())
    def test_accepted_systems_are_correctly_rounded(self, case):
        a, b = case
        assume(refusal_step(a) is None)
        eq = NormalEquations(a, b)
        try:
            want = correctly_rounded(a, b)  # int / int: correctly rounded
        except ZeroDivisionError:  # exactly singular
            with pytest.raises(SingularSystemError):
                solve(eq)
            return
        except OverflowError:
            assert np.all(np.isnan(solve(eq)))
            return
        assert solve(eq).tolist() == want

    def test_rows_spanning_the_double_range(self):
        # A float solve scaled by each row's largest entry loses the tiny
        # entries to underflow, and x0 to 8.7e-25.
        a = np.array([[1e-12, 1e300, -1.0], [1.7e308, 2.5, -1.0], [1e300, 5e-324, 0.0]])
        b = np.array([-1.7e308, -1e300, 1.0])
        x = solve(NormalEquations(a, b))
        assert x.tolist() == correctly_rounded(a, b)
        assert x[0] == pytest.approx(1e-300, rel=1e-15)


class TestExtremeScales:
    """At the ends of the double range, where products of two entries
    overflow or underflow, the solve stays exact."""

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
