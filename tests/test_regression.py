import json
import math
import os
import signal
import statistics
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import regression
from errorkit.dataset import (
    DifferentialRows,
    ErrorSamples,
    MalformedRowError,
    bundled_path,
    _cycle_phase,
    load_series,
    to_error_samples,
)
from errorkit.linsolve import NormalEquations, SingularSystemError
from errorkit.regression import (
    InsufficientDataError,
    PolynomialErrorModel,
    RandomModelEstimate,
    fit_cycle_differential,
    fit_cycle_direct,
    fit_polynomial,
    random_model,
    to_report,
)

import reference_values as ref

TWO_PI = 2.0 * math.pi


def circular_difference(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


class TestRandomModel:
    def test_frequency_sweep_statistics(self):
        est = random_model(ref.TABLE1_FREQS)
        assert est.n == 15
        assert est.mean == pytest.approx(statistics.mean(ref.TABLE1_FREQS), rel=1e-14)
        assert est.std == pytest.approx(statistics.stdev(ref.TABLE1_FREQS), rel=1e-12)
        assert f"{est.mean:.6f}" == "5.000050"
        assert 15.7 <= est.relative_std_ppm <= 15.9

    def test_identical_values(self):
        est = random_model([5.0, 5.0, 5.0])
        assert est.mean == 5.0
        assert est.std == 0.0

    @pytest.mark.parametrize("values", [[], [1.0]])
    def test_too_few_values(self, values):
        with pytest.raises(InsufficientDataError, match="at least 2"):
            random_model(values)

    def test_relative_std_undefined_at_zero_mean(self):
        est = random_model([-1.0, 1.0, 0.0])
        assert est.mean == 0.0
        assert est.relative_std_ppm is None

    def test_relative_std_definition(self):
        est = RandomModelEstimate(mean=-2.0, std=1.0, n=5)
        assert est.relative_std_ppm == 5e5

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=8, max_size=8),
        st.integers(min_value=-1024, max_value=1024),
    )
    def test_translation_equivariance_exact_on_dyadic_input(self, values, shift):
        # integer values, a power-of-two count and an integer shift keep
        # every intermediate exactly representable, so the mean must
        # shift bit for bit and the spread must not move at all
        base = random_model(values)
        moved = random_model([v + shift for v in values])
        assert moved.mean == base.mean + shift
        assert moved.std == base.std

    def test_translation_equivariance_general(self):
        values = [4.9999, 5.0001, 5.0003, 4.9997, 5.0]
        base = random_model(values)
        moved = random_model([v + 3.7 for v in values])
        assert moved.mean == pytest.approx(base.mean + 3.7, rel=1e-12)
        assert moved.std == pytest.approx(base.std, rel=1e-9)

    def test_array_tuple_and_generator_agree_bit_for_bit(self):
        values = np.random.default_rng(11).normal(5.0, 1e-4, 10_000)
        from_array = random_model(values)
        assert random_model(tuple(values.tolist())) == from_array
        assert random_model(v for v in values.tolist()) == from_array


class TestFitPolynomial:
    def test_normal_equations_match_published_integers(self, integer_ppm_samples):
        model = fit_polynomial(integer_ppm_samples, degree=3)
        assert np.array_equal(model.normal.matrix, ref.CUBIC_MATRIX)
        assert np.array_equal(model.normal.rhs, ref.CUBIC_RHS)

    def test_coefficients_match_published_values(self, integer_ppm_samples):
        model = fit_polynomial(integer_ppm_samples, degree=3)
        for got, published in zip(model.coeffs, ref.CUBIC_COEFFS):
            assert got == pytest.approx(published, abs=1e-6)

    def test_coefficients_frozen(self, integer_ppm_samples):
        model = fit_polynomial(integer_ppm_samples, degree=3)
        frozen = (
            9.983250736191913,
            -0.01351839881251646,
            -0.018600786468433526,
            0.00021445031003854533,
        )
        for got, want in zip(model.coeffs, frozen):
            assert got == pytest.approx(want, rel=1e-9)
        assert model.residual_std == pytest.approx(2.2848603741608504, rel=1e-9)
        assert model.dof == 11
        assert model.domain == (-40.0, 100.0)

    def test_against_numpy_polyfit(self, integer_ppm_samples):
        t, r = integer_ppm_samples.columns
        oracle = np.polynomial.polynomial.polyfit(t, r, 3)
        model = fit_polynomial(integer_ppm_samples, degree=3)
        assert np.max(np.abs(np.array(model.coeffs) - oracle)) <= 1e-9

    def test_residual_orthogonality(self, integer_ppm_samples):
        # least squares leaves residuals orthogonal to every basis column
        model = fit_polynomial(integer_ppm_samples, degree=3)
        t, r = integer_ppm_samples.columns
        residuals = r - np.array([model(x) for x in t])
        for k in range(4):
            bound = 1e-6 * np.sum(np.abs(residuals)) * max(1.0, np.max(np.abs(t)) ** k)
            assert abs(float(residuals @ t**k)) <= bound

    def test_degree_one_exact_line(self):
        samples = ErrorSamples(range(6), [1.0 + 2.0 * t for t in range(6)])
        model = fit_polynomial(samples, degree=1)
        assert model.coeffs == (1.0, 2.0)
        assert model.residual_std == 0.0
        assert model.dof == 4

    def test_too_few_samples(self):
        samples = ErrorSamples(range(4), [0.0] * 4)
        with pytest.raises(InsufficientDataError, match="at least 5"):
            fit_polynomial(samples, degree=3)

    def test_degenerate_conditions(self):
        samples = ErrorSamples([20.0] * 8, range(8))
        with pytest.raises(SingularSystemError):
            fit_polynomial(samples, degree=3)

    def test_report_shape(self, integer_ppm_samples):
        report = to_report(fit_polynomial(integer_ppm_samples, degree=3))
        assert report["model"] == "polynomial-deg3"
        assert len(report["coefficients"]) == 4
        assert report["dof"] == 11
        json.dumps(report)

    @pytest.mark.parametrize("degree", [-1, 2.5, True, False, "3", None, np.int64(-1)])
    def test_degree_must_be_a_non_negative_int(self, integer_ppm_samples, degree):
        with pytest.raises(ValueError) as excinfo:
            fit_polynomial(integer_ppm_samples, degree=degree)
        assert str(excinfo.value) == f"degree must be a non-negative int, got {degree!r}"
        # The degree is checked before the samples are read.
        with pytest.raises(ValueError, match="degree must be"):
            fit_polynomial(None, degree=degree)

    @pytest.mark.parametrize("degree", [0, np.int64(0)])
    def test_degree_zero_fits_the_mean(self, degree):
        model = fit_polynomial(ErrorSamples([1.0, 2.0, 4.0], [3.0, 5.0, 10.0]), degree=degree)
        assert model.coeffs == (6.0,)
        assert model.dof == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_cubic_is_near_the_exact_least_squares_fit(self, seed):
        # 2000 conditions over -40...100 degC to 0.01 degC, a cubic
        # in ppm plus noise.  The exact least-squares coefficients of the
        # float data come from rational arithmetic.  Power sums and
        # right-hand sides summed pairwise along contiguous rows land
        # within 44-308 ulp of them on these seeds; the strided column
        # sums of a Vandermonde table were 2243-7264 ulp off.
        rng = np.random.default_rng(seed)
        t = np.round(rng.uniform(-40.0, 100.0, 2000), 2)
        r = 10.0 - 0.02 * t - 0.02 * t**2 + 2e-4 * t**3 + rng.normal(0.0, 0.5, t.size)
        got = fit_polynomial(ErrorSamples(t, r), degree=3).coeffs
        exact = exact_least_squares(t.tolist(), r.tolist(), degree=3)
        ulps = [abs(Fraction(g) - w) / Fraction(math.ulp(float(w))) for g, w in zip(got, exact)]
        assert max(ulps) <= 600


def exact_least_squares(t, r, degree):
    """The least-squares polynomial coefficients of the points ``(t, r)``,
    taken as exact rationals: normal equations solved by elimination."""
    t = [Fraction(v) for v in t]
    r = [Fraction(v) for v in r]
    powers = [[Fraction(1)] * len(t)]
    for _ in range(2 * degree):
        powers.append([p * v for p, v in zip(powers[-1], t)])
    sums = [sum(row) for row in powers]
    k = degree + 1
    m = [[sums[i + j] for j in range(k)] + [sum(p * v for p, v in zip(powers[i], r))]
         for i in range(k)]
    for c in range(k):
        for row in m[c + 1:]:
            f = row[c] / m[c][c]
            for j in range(c, k + 1):
                row[j] -= f * m[c][j]
    x = [Fraction(0)] * k
    for c in reversed(range(k)):
        x[c] = (m[c][k] - sum(m[c][j] * x[j] for j in range(c + 1, k))) / m[c][c]
    return x


class TestPolynomialModelCall:
    def test_published_coefficients_at_zero(self):
        model = PolynomialErrorModel(
            coeffs=ref.CUBIC_COEFFS,
            domain=(-40.0, 100.0),
            residual_std=0.0,
            dof=11,
            normal=NormalEquations(np.eye(4), np.zeros(4)),
        )
        assert model(0.0) == ref.CUBIC_COEFFS[0]

    def test_cold_end_prediction_matches_measurement(self, table1_series):
        # fit the unrounded relative errors, then reconstruct the
        # reading at the cold end of the sweep from the mean frequency
        samples = to_error_samples(table1_series, "mean-reference")
        model = fit_polynomial(samples, degree=3)
        f0 = random_model(table1_series.columns.observed).mean
        assert f0 * (1.0 + model(-40.0) * 1e-6) == pytest.approx(4.999900, rel=3e-6)


class TestFitCycleDirect:
    @pytest.fixture()
    def calibration_samples(self, table2_series):
        return to_error_samples(table2_series, "explicit-reference")

    def test_calibration_fit(self, calibration_samples):
        model = fit_cycle_direct(calibration_samples, wavelength=20.0)
        assert f"{model.amplitude:.4f}" == "5.7235"
        assert f"{math.degrees(model.phase):.2f}" == "255.14"
        assert model.dof == 19
        assert model.amplitude_unit == "mm"
        assert model.offset_s0 is None
        assert 0.8 <= model.residual_std <= 1.0

    def test_calibration_fit_against_lstsq(self, calibration_samples):
        s, y = calibration_samples.columns
        theta = TWO_PI * s / 20.0
        basis = np.column_stack([np.sin(theta), np.cos(theta)])
        (a, b), *_ = np.linalg.lstsq(basis, y, rcond=None)
        model = fit_cycle_direct(calibration_samples, wavelength=20.0)
        assert model.amplitude == pytest.approx(math.hypot(a, b), rel=1e-9)
        assert circular_difference(model.phase, math.atan2(b, a) % TWO_PI) <= 1e-9

    def test_noiseless_recovery(self):
        amplitude, phase = 5.0, 0.7853981633974483
        samples = ErrorSamples(
            range(20), [amplitude * math.sin(TWO_PI * s / 20.0 + phase) for s in range(20)])
        model = fit_cycle_direct(samples, wavelength=20.0)
        assert model.amplitude == pytest.approx(amplitude, abs=1e-10)
        assert circular_difference(model.phase, phase) <= 1e-10
        assert model.residual_std <= 1e-12

    def test_zero_errors_give_zero_amplitude(self):
        samples = ErrorSamples(range(5), [0.0] * 5)
        model = fit_cycle_direct(samples, wavelength=20.0)
        assert model.amplitude == 0.0

    def test_too_few_samples(self):
        samples = ErrorSamples([0.0] * 2, [0.0] * 2)
        with pytest.raises(InsufficientDataError, match="at least 3"):
            fit_cycle_direct(samples, wavelength=20.0)

    @pytest.mark.parametrize("wavelength", [0.0, -20.0])
    def test_bad_wavelength(self, wavelength):
        samples = ErrorSamples(range(5), [0.0] * 5)
        with pytest.raises(ValueError, match="wavelength"):
            fit_cycle_direct(samples, wavelength=wavelength)

    @pytest.mark.parametrize("wavelength", [math.inf, -math.inf, math.nan])
    def test_nonfinite_wavelength_names_the_value(self, wavelength):
        samples = ErrorSamples(range(5), [0.0] * 5)
        with pytest.raises(ValueError, match=f"wavelength must be .*{wavelength}"):
            fit_cycle_direct(samples, wavelength=wavelength)

    @pytest.mark.parametrize("wavelength", [5e-324, 1e-320])
    def test_phase_beyond_the_double_range(self, wavelength):
        samples = ErrorSamples(range(5), [0.0] * 5)
        with pytest.raises(ValueError) as raised:
            fit_cycle_direct(samples, wavelength=wavelength)
        # s = 0 gives phase 0; the first reading that overflows is s = 1.
        assert str(raised.value) == (
            f"wavelength {wavelength!r} puts the phase 2*pi*s/wavelength "
            "beyond the double range at s = 1.0"
        )

    def test_congruent_conditions_are_degenerate(self):
        samples = ErrorSamples([0.0, 20.0, 40.0, 60.0], [1.0] * 4)
        with pytest.raises(SingularSystemError):
            fit_cycle_direct(samples, wavelength=20.0)

    def test_call_is_the_scalar_formula(self, calibration_samples):
        model = fit_cycle_direct(calibration_samples, wavelength=20.0)
        want = model.amplitude * math.sin(TWO_PI * 3.0 / 20.0 + model.phase)
        assert float(model(3.0)).hex() == want.hex()

    @settings(max_examples=60)
    @given(
        amplitude=st.floats(min_value=1e-3, max_value=100.0),
        phase=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
        n=st.integers(min_value=5, max_value=40),
        start=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_noiseless_recovery_property(self, amplitude, phase, n, start):
        # equally spaced conditions covering one full cycle keep the
        # basis well conditioned for any amplitude, phase, and offset
        step = 20.0 / n
        conditions = [start + i * step for i in range(n)]
        samples = ErrorSamples(
            conditions, [amplitude * math.sin(TWO_PI * s / 20.0 + phase) for s in conditions])
        model = fit_cycle_direct(samples, wavelength=20.0)
        assert model.amplitude == pytest.approx(amplitude, rel=1e-9)
        assert circular_difference(model.phase, phase) <= 1e-9

    def test_report_shape(self, calibration_samples):
        report = to_report(fit_cycle_direct(calibration_samples, wavelength=20.0))
        assert report["model"] == "cycle"
        assert report["amplitude_unit"] == "mm"
        assert "offset_s0" not in report["coefficients"]
        json.dumps(report)


class TestFitCycleDifferential:
    def test_campaign_fit_frozen(self, table3_rows):
        model = fit_cycle_differential(table3_rows, wavelength=20.0)
        assert model.offset_s0 == pytest.approx(8.000010920024636, rel=1e-9)
        assert model.amplitude == pytest.approx(0.0049937345906997275, rel=1e-9)
        assert model.phase == pytest.approx(0.7816916763733172, rel=1e-9)
        assert model.residual_std == pytest.approx(4.248604309574699e-5, rel=1e-9)
        assert model.dof == 12
        assert model.amplitude_unit == "m"

    def test_campaign_fit_near_published_values(self, table3_rows):
        model = fit_cycle_differential(table3_rows, wavelength=20.0)
        assert abs(model.amplitude - 0.00499) < 5e-5
        assert circular_difference(model.phase, math.pi / 4.0) < 0.01
        assert abs(model.offset_s0 - 8.0) < 0.0014

    def test_campaign_normal_equations_near_published(self, table3_rows):
        model = fit_cycle_differential(table3_rows, wavelength=20.0)
        matrix_dev = np.abs(model.normal.matrix - ref.DIFF_MATRIX) / np.abs(
            ref.DIFF_MATRIX
        )
        rhs_dev = np.abs(model.normal.rhs - ref.DIFF_RHS) / np.abs(ref.DIFF_RHS)
        assert np.max(matrix_dev) <= 1e-4
        assert np.max(rhs_dev) <= 1e-4

    def test_zero_cycle_rows_recover_pure_offset(self):
        s2 = np.array([10.0, 12.5, 17.0, 23.5, 31.0])
        rows = DifferentialRows(s2 + 8.0, s2)
        model = fit_cycle_differential(rows, wavelength=20.0)
        assert model.offset_s0 == pytest.approx(8.0, abs=1e-12)
        assert model.amplitude == pytest.approx(0.0, abs=1e-12)
        assert model.residual_std == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_layout(self):
        # every leg congruent modulo the wavelength: the sin/cos
        # difference columns are constant and the system cannot pivot
        k = np.arange(4.0)
        rows = DifferentialRows(18.0 + 20.0 * k, 10.0 + 20.0 * k)
        with pytest.raises(SingularSystemError, match="degenerate distance layout"):
            fit_cycle_differential(rows, wavelength=20.0)

    def test_too_few_rows(self):
        rows = DifferentialRows([18.0, 20.0], [10.0, 12.0])
        with pytest.raises(InsufficientDataError, match="at least 3"):
            fit_cycle_differential(rows, wavelength=20.0)

    def test_bad_wavelength(self, table3_rows):
        with pytest.raises(ValueError, match="wavelength"):
            fit_cycle_differential(table3_rows, wavelength=0.0)

    @pytest.mark.parametrize("wavelength", [math.inf, 5e-324, 1e-320])
    def test_unusable_wavelength_is_an_input_error(self, table3_rows, wavelength):
        with pytest.raises(ValueError, match=f"wavelength {wavelength}|got {wavelength}"):
            fit_cycle_differential(table3_rows, wavelength=wavelength)

    def test_huge_wavelength_is_a_degenerate_layout(self, table3_rows):
        # At 1e308 m every phase is ~0: the design is degenerate, not invalid.
        with pytest.raises(SingularSystemError, match="degenerate distance layout"):
            fit_cycle_differential(table3_rows, wavelength=1e308)

    def test_report_shape(self, table3_rows):
        report = to_report(fit_cycle_differential(table3_rows, wavelength=20.0))
        assert report["model"] == "cycle-differential"
        assert report["amplitude_unit"] == "m"
        assert report["coefficients"]["offset_s0"] == pytest.approx(8.0, abs=1e-3)
        json.dumps(report)


# Each record's 4th row is bad. Its columnar type refuses it, so no fit
# ever sees it.
@pytest.mark.parametrize("fit, build, error, message", [
    (lambda samples: fit_polynomial(samples, degree=3),
     lambda: ErrorSamples(range(8), [math.nan if t == 3 else float(t) for t in range(8)]),
     ValueError, "row 4: error must be finite, got nan"),
    (lambda samples: fit_cycle_direct(samples, wavelength=20.0),
     lambda: ErrorSamples(range(8), [-math.inf if s == 3 else 1.0 for s in range(8)]),
     ValueError, "row 4: error must be finite, got -inf"),
    (lambda rows: fit_cycle_differential(rows, wavelength=20.0),
     lambda: DifferentialRows([s + (0.0 if s == 9.0 else 8.0)
                               for s in (10.0, 12.5, 17.0, 9.0, 31.0)],
                              [10.0, 12.5, 17.0, 9.0, 31.0]),
     MalformedRowError, "row 4, column 's1': require s1 > s2, got s1=9.0 s2=9.0"),
], ids=["polynomial", "cycle", "cycle-differential"])
def test_a_bad_record_is_refused_by_its_columnar_type(fit, build, error, message):
    with pytest.raises(ValueError) as excinfo:
        fit(build())
    assert (excinfo.type, str(excinfo.value)) == (error, message)


@pytest.mark.parametrize("fit", [
    lambda samples: fit_polynomial(samples, degree=3),
    lambda samples: fit_cycle_direct(samples, wavelength=20.0),
], ids=["polynomial", "cycle"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_nonfinite_condition_is_refused_before_the_fit(fit, value):
    # Without the check the polynomial fit ends in SingularSystemError and
    # the cycle fit blames the wavelength.
    with pytest.raises(ValueError) as excinfo:
        fit(ErrorSamples([value, 1.0, 2.0, 3.0, 4.0, 5.0],
                         [0.5, 1.0, -0.5, 0.25, 2.0, 1.5]))
    assert (excinfo.type, str(excinfo.value)) == (
        ValueError, f"row 1: condition must be finite, got {value!r}")


@pytest.mark.parametrize("table, fit, conditions", [
    ("table1.csv",
     lambda series: fit_polynomial(to_error_samples(series, "mean-reference"), degree=3),
     np.linspace(-45.0, 105.0, 301)),
    ("table2.csv",
     lambda series: fit_cycle_direct(
         to_error_samples(series, "explicit-reference"), wavelength=20.0),
     np.linspace(-30.0, 90.0, 301)),
], ids=["polynomial", "cycle"])
def test_a_model_called_on_an_array_is_its_calls_on_each_element(table, fit, conditions):
    model = fit(load_series(bundled_path(table)))
    each = [float(model(c)).hex() for c in conditions.tolist()]
    assert [v.hex() for v in model(conditions).tolist()] == each


class TestReport:
    def test_unknown_model_type(self):
        with pytest.raises(TypeError, match="no report form"):
            to_report(object())


def large_samples(n=10**4, seed=35):
    """A generated cycle-fit input of ``n`` samples (m, mm)."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(5.0, 60.0, n)
    y = 0.3 * np.sin(TWO_PI * s / 20.0 + 1.0) + rng.normal(0.0, 0.05, n)
    return ErrorSamples(s, y)


def large_rows(n=10**4, seed=36):
    """A generated differential campaign of ``n`` reading pairs (m)."""
    rng = np.random.default_rng(seed)
    s2 = rng.uniform(10.0, 50.0, n)
    s1 = s2 + 8.0 + 3e-4 * (np.sin(TWO_PI * (s2 + 8.0) / 20.0 + 1.0)
                            - np.sin(TWO_PI * s2 / 20.0 + 1.0))
    return DifferentialRows(s1 + rng.normal(0.0, 5e-5, n), s2)


def serial_basis(s, wavelength=20.0):
    theta = _cycle_phase(s, wavelength)
    return np.sin(theta).tobytes(), np.cos(theta).tobytes()


class TestSineHelper:
    """From ``_HELPER_MIN_PHASES`` phases on, the sines are computed on a
    helper thread: bit-identical results, one thread, errors and the
    error state carried across, and a fresh helper after ``fork``."""

    @pytest.mark.parametrize("n", [regression._HELPER_MIN_PHASES - 1,
                                   regression._HELPER_MIN_PHASES, 10**4, 10**5])
    def test_basis_is_the_serial_one_byte_for_byte(self, monkeypatch, n):
        s = np.random.default_rng(n).uniform(0.0, 1e3, n)
        threads = []
        sin = np.sin

        def recording_sin(*args, **kwargs):
            threads.append(threading.current_thread())
            return sin(*args, **kwargs)

        monkeypatch.setattr(np, "sin", recording_sin)
        got = regression._cycle_basis(s, 20.0)
        monkeypatch.undo()
        assert (threads == [threading.current_thread()]) == (n < regression._HELPER_MIN_PHASES)
        assert tuple(a.tobytes() for a in got) == serial_basis(s)

    def test_basis_of_a_read_only_column(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("# units: m\ncondition,observed\n" + "".join(
            f"{5 + i * 1e-3!r},{5.00001 + i * 1e-3!r}\n" for i in range(10**4)))
        s = load_series(path).columns.condition
        assert not s.flags.writeable
        got = regression._cycle_basis(s, 20.0)
        assert tuple(a.tobytes() for a in got) == serial_basis(s)

    def test_large_fit_reports_do_not_depend_on_the_helper(self, monkeypatch):
        def reports():
            return json.dumps([to_report(fit_cycle_direct(large_samples(), 20.0)),
                               to_report(fit_cycle_differential(large_rows(), 20.0))])

        monkeypatch.setattr(regression, "_HELPER_MIN_PHASES", math.inf)
        serial = reports()
        monkeypatch.setattr(regression, "_HELPER_MIN_PHASES", 1)
        assert reports() == serial

    def test_fitting_the_bundled_tables_starts_no_thread(
            self, monkeypatch, table1_series, table2_series, table3_rows):
        monkeypatch.setattr(regression, "_helper", [])
        before = threading.active_count()
        fit_polynomial(to_error_samples(table1_series, "mean-reference"), degree=3)
        fit_cycle_direct(to_error_samples(table2_series, "explicit-reference"), 20.0)
        fit_cycle_differential(table3_rows, 20.0)
        assert threading.active_count() == before
        assert regression._helper == []

    def test_fifty_large_fits_start_at_most_one_thread(self, monkeypatch):
        samples = large_samples(regression._HELPER_MIN_PHASES)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        expected = [] if regression._helper else ["errorkit-sin"]
        for _ in range(50):
            fit_cycle_direct(samples, 20.0)
        assert started == expected

    def test_an_error_on_the_helper_reaches_the_caller(self, monkeypatch):
        s = np.linspace(0.0, 100.0, regression._HELPER_MIN_PHASES)
        regression._cycle_basis(s, 20.0)
        jobs = list(regression._helper)

        class Boom(Exception):
            pass

        def boom(*args, **kwargs):
            raise Boom("raised on the helper")

        with monkeypatch.context() as m:
            m.setattr(np, "sin", boom)
            with pytest.raises(Boom, match="raised on the helper"):
                regression._cycle_basis(s, 20.0)
        got = regression._cycle_basis(s, 20.0)
        assert regression._helper == jobs
        assert tuple(a.tobytes() for a in got) == serial_basis(s)

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_the_helper_runs_under_the_callers_error_state(self, monkeypatch, state):
        samples, rows = large_samples(), large_rows()

        def reports():
            return [to_report(fit_cycle_direct(samples, 20.0)),
                    to_report(fit_cycle_differential(rows, 20.0))]

        want = reports()
        seen = []
        sin = np.sin

        def recording_sin(*args, **kwargs):
            seen.append(np.geterr())
            return sin(*args, **kwargs)

        monkeypatch.setattr(np, "sin", recording_sin)
        with np.errstate(all=state):
            got = reports()
            caller = np.geterr()
        assert got == want
        assert seen == [caller] * 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self):
        s = np.random.default_rng(7).uniform(0.0, 1e3, regression._HELPER_MIN_PHASES)
        regression._cycle_basis(s, 20.0)
        assert regression._helper
        want = serial_basis(s)
        with warnings.catch_warnings():
            # Python >= 3.12 warns that a multi-threaded process forks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            # The child: one more large fit, then out past pytest's teardown;
            # the alarm turns a hang into a failure.
            status = 1
            try:
                signal.alarm(30)
                forgotten = regression._helper == []
                got = regression._cycle_basis(s, 20.0)
                if forgotten and tuple(a.tobytes() for a in got) == want:
                    status = 0
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0
