"""Random-model and function-model processing of error samples.

Two complementary treatments of the same data:

* random model: ignore the conditions, estimate by the arithmetic mean,
  characterize by the standard deviation (n-1 denominator).
* function model: fit the error as an explicit function of the
  condition (a cubic in temperature, a sinusoid in distance), correct
  for it, and hand the residuals back to the random model.

The sinusoid fits linearize ``A*sin(theta + phi)`` over the sin/cos
basis ``a*sin(theta) + b*cos(theta)`` with a known wavelength, so every
fit in this module reduces to a small symmetric normal-equation system
solved by :mod:`errorkit.linsolve`.  Assembled systems are kept on the
fitted model objects for inspection.

Unit conventions follow the data tables this package ships: polynomial
models work in ppm over degrees Celsius; the direct cycle fit works in
mm over metres; the differential cycle fit works in metres throughout.
Each sinusoidal model carries an explicit ``amplitude_unit`` tag.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import (DifferentialRows, ErrorSamples, _cycle_phase, _polynomial,
                      _sinusoid)
from .linsolve import NormalEquations, SingularSystemError, solve

__all__ = [
    "InsufficientDataError",
    "RandomModelEstimate",
    "PolynomialErrorModel",
    "SinusoidalErrorModel",
    "random_model",
    "fit_polynomial",
    "fit_cycle_direct",
    "fit_cycle_differential",
    "to_report",
]

TWO_PI = 2.0 * math.pi


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimate or fit."""


@dataclass(frozen=True)
class RandomModelEstimate:
    """Mean and dispersion of a value set, conditions ignored."""

    mean: float
    std: float
    n: int

    @property
    def relative_std_ppm(self) -> float | None:
        """Standard deviation as ppm of the mean; None (undefined) at mean 0."""
        if self.mean == 0.0:
            return None
        return self.std / abs(self.mean) * 1e6


@dataclass(frozen=True)
class PolynomialErrorModel:
    """Error as a polynomial in the condition, coefficients in ppm.

    ``coeffs[k]`` multiplies ``T**k``: the basis is the raw monomials.
    ``domain`` is the fitted condition range; the model evaluates
    outside it too.  Calling the model evaluates it at a condition or
    an array of them.
    """

    coeffs: tuple[float, ...]
    domain: tuple[float, float]
    residual_std: float
    dof: int
    normal: NormalEquations

    def __call__(self, t):
        return _polynomial(self.coeffs, t)


@dataclass(frozen=True)
class SinusoidalErrorModel:
    """Cycle error ``y(S) = amplitude * sin(2*pi*S/wavelength + phase)``.

    The phase is normalized to [0, 2*pi).  ``offset_s0`` is populated
    by the differential fit only, where the model additionally
    estimates the underlying constant difference.  ``amplitude_unit``
    records whether amplitude and residuals are in mm (direct fit on
    mm-scale errors) or m (differential fit on metre readings).
    Calling the model evaluates it at a reading or an array of them.
    """

    amplitude: float
    wavelength: float
    phase: float
    residual_std: float
    dof: int
    normal: NormalEquations
    amplitude_unit: str = "mm"
    offset_s0: float | None = None

    def __call__(self, s):
        return _sinusoid(self.amplitude, self.wavelength, self.phase, s)


def _columns(items, kind):
    """The columns of ``items``, a ``kind`` (``ErrorSamples`` or
    ``DifferentialRows``) or an iterable of its records.

    Records are built into a ``kind`` first, so a bad one raises the
    error ``kind`` raises for it, naming its 1-based row.
    """
    if not isinstance(items, kind):
        items = list(items)
        items = kind(*([getattr(x, f) for x in items] for f in kind._columns._fields))
    return items.columns


def random_model(values) -> RandomModelEstimate:
    """Mean and standard deviation (n-1 denominator) of a value list.

    ``values`` is an array, a sequence or any other iterable of numbers.
    """
    if not isinstance(values, (np.ndarray, Sequence)):
        values = list(values)
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise InsufficientDataError(f"need at least 2 values, got {v.size}")
    mean = float(v.mean())
    std = float(v.std(ddof=1))
    return RandomModelEstimate(mean=mean, std=std, n=int(v.size))


def _normalize_phase(phi: float) -> float:
    return phi % TWO_PI


def fit_polynomial(samples, degree: int = 3) -> PolynomialErrorModel:
    """Least-squares polynomial over the raw monomial basis ``T**k``.

    Args:
        samples: ErrorSamples or ErrorSample items; condition is the abscissa.
        degree: polynomial degree (3 for the canonical temperature
            workflow, but any degree with n > degree + 1 works).

    Raises:
        ValueError: a degree that is not a non-negative integer (an
            ``int`` or a numpy integer; bool is refused).
        InsufficientDataError: fewer than degree + 2 samples.
        SingularSystemError: degenerate conditions (e.g. all equal).
    """
    try:
        index = operator.index(degree)
    except TypeError:
        index = -1
    if index < 0 or isinstance(degree, bool):
        raise ValueError(f"degree must be a non-negative int, got {degree!r}")
    degree = index
    t, r = _columns(samples, ErrorSamples)
    n = len(t)
    if n <= degree + 1:
        raise InsufficientDataError(
            f"degree {degree} needs at least {degree + 2} samples, got {n}"
        )

    # The normal matrix over the monomial basis is the Hankel matrix of
    # condition power sums, so tabulate t^0 .. t^(2*degree) once, one
    # contiguous row per power, each the row before times t (the powers
    # np.vander makes, bit for bit), and index into the row sums; this
    # keeps the matrix symmetric bit for bit.  numpy sums a contiguous
    # row pairwise, which is more accurate than a strided column sum.
    all_powers = np.empty((2 * degree + 1, n))
    all_powers[0] = 1.0
    for prev, row in zip(all_powers, all_powers[1:]):
        np.multiply(prev, t, out=row)
    power_sums = all_powers.sum(axis=1)
    k = degree + 1
    matrix = np.array([[power_sums[i + j] for j in range(k)] for i in range(k)])
    powers = all_powers[:k]
    rhs = (powers * r).sum(axis=1)
    eq = NormalEquations(matrix=matrix, rhs=rhs)
    coeffs = solve(eq)

    residuals = r - coeffs @ powers
    dof = n - (degree + 1)
    residual_std = float(np.sqrt((residuals**2).sum() / dof))
    return PolynomialErrorModel(
        coeffs=tuple(float(c) for c in coeffs),
        # + 0.0 reports a -0.0 condition as 0.0, as the domain always has.
        domain=(float(t.min()) + 0.0, float(t.max()) + 0.0),
        residual_std=residual_std,
        dof=dof,
        normal=eq,
    )


def _cycle_basis(s: np.ndarray, wavelength: float):
    """sin and cos of the phase ``2*pi*s/wavelength`` at each reading.

    Raises ValueError for a wavelength that is not positive and finite,
    or that puts a phase beyond the double range.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    if not math.isfinite(wavelength):
        raise ValueError(f"wavelength must be finite, got {wavelength!r}")
    theta = _cycle_phase(s, wavelength)
    return np.sin(theta), np.cos(theta)


def fit_cycle_direct(samples, wavelength: float) -> SinusoidalErrorModel:
    """Fit ``y = a*sin(2*pi*S/wl) + b*cos(2*pi*S/wl)`` to error samples.

    The sample condition must be the instrument reading (the reading is
    what drives the cycle phase); errors are in mm.  The basis is the
    sin and cos columns alone, with no constant term.  Amplitude is
    ``hypot(a, b)`` and phase ``atan2(b, a)``, normalized to [0, 2*pi).

    Args:
        samples: ErrorSamples or ErrorSample items (condition m, error mm).
        wavelength: cycle length in m, known a priori.

    Raises:
        InsufficientDataError: fewer than 3 samples.
        ValueError: a wavelength that is not positive and finite, or
            one that puts ``2*pi*S/wl`` beyond the double range.
        SingularSystemError: all conditions congruent modulo the
            wavelength, so the basis is degenerate.
    """
    s, y = _columns(samples, ErrorSamples)
    if len(s) < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {len(s)}")
    basis = np.column_stack(_cycle_basis(s, wavelength))
    eq = NormalEquations(matrix=basis.T @ basis, rhs=basis.T @ y)
    sol = solve(eq)
    a, b = float(sol[0]), float(sol[1])

    residuals = y - basis @ sol
    dof = len(s) - 2  # at least 1
    residual_std = float(np.sqrt((residuals**2).sum() / dof))
    return SinusoidalErrorModel(
        amplitude=math.hypot(a, b),
        wavelength=wavelength,
        phase=_normalize_phase(math.atan2(b, a)),
        residual_std=residual_std,
        dof=dof,
        normal=eq,
        amplitude_unit="mm",
    )


def fit_cycle_differential(rows, wavelength: float) -> SinusoidalErrorModel:
    """Fit a cycle error through differential reading pairs.

    Each row observes ``S_i = s1_i - s2_i`` where both legs carry the
    same cycle error function.  With basis differences
    ``A_i = sin(theta1) - sin(theta2)`` and ``B_i = cos(theta1) -
    cos(theta2)``, the model ``S_i = S0 + a*A_i + b*B_i`` is linear in
    (S0, a, b) and its 3x3 normal system is solved directly.  Amplitude,
    phase and residuals are in metres; the constant difference estimate
    lands in ``offset_s0``.  ``rows`` is DifferentialRows or
    DifferentialRow items.

    Raises:
        InsufficientDataError: fewer than 3 rows.
        ValueError: a wavelength that is not positive and finite, or
            one that puts ``2*pi*S/wl`` beyond the double range.
        SingularSystemError: the distance layout is degenerate; the
            legs must sample diverse cycle phases for the sin/cos
            differences to span the basis.
    """
    s1, s2 = _columns(rows, DifferentialRows)
    n = len(s1)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 rows, got {n}")
    si = s1 - s2

    sin1, cos1 = _cycle_basis(s1, wavelength)
    sin2, cos2 = _cycle_basis(s2, wavelength)
    ai = sin1 - sin2
    bi = cos1 - cos2

    sum_a = ai.sum()
    sum_b = bi.sum()
    sum_ab = float(ai @ bi)
    matrix = np.array(
        [
            [n, sum_a, sum_b],
            [sum_a, float(ai @ ai), sum_ab],
            [sum_b, sum_ab, float(bi @ bi)],
        ]
    )
    rhs = np.array([si.sum(), float(ai @ si), float(bi @ si)])
    eq = NormalEquations(matrix=matrix, rhs=rhs)
    try:
        s0, a, b = (float(x) for x in solve(eq))
    except SingularSystemError as exc:
        raise SingularSystemError(
            exc.pivot_index,
            "degenerate distance layout; legs must sample diverse phases",
        ) from exc

    residuals = si - s0 - a * ai - b * bi
    dof = n - 3
    residual_std = float(np.sqrt((residuals**2).sum() / dof)) if dof > 0 else 0.0
    return SinusoidalErrorModel(
        amplitude=math.hypot(a, b),
        wavelength=wavelength,
        phase=_normalize_phase(math.atan2(b, a)),
        residual_std=residual_std,
        dof=dof,
        normal=eq,
        amplitude_unit="m",
        offset_s0=s0,
    )


def to_report(model) -> dict:
    """Serialize a fitted model to the documented report shape.

    The shape is ``{model, coefficients, residual_std, dof,
    normal_matrix, rhs}`` plus model-specific extras (domain, phase in
    degrees, offset).  A polynomial's ``basis_offset`` is always 0: the
    basis is the raw monomials.
    """
    if isinstance(model, PolynomialErrorModel):
        return {
            "model": f"polynomial-deg{len(model.coeffs) - 1}",
            "coefficients": list(model.coeffs),
            "residual_std": model.residual_std,
            "dof": model.dof,
            "normal_matrix": model.normal.matrix.tolist(),
            "rhs": model.normal.rhs.tolist(),
            "domain": list(model.domain),
            "basis_offset": 0.0,
        }
    if isinstance(model, SinusoidalErrorModel):
        report = {
            "model": "cycle-differential" if model.offset_s0 is not None else "cycle",
            "coefficients": {
                "amplitude": model.amplitude,
                "phase_rad": model.phase,
                "phase_deg": math.degrees(model.phase),
                "wavelength": model.wavelength,
            },
            "residual_std": model.residual_std,
            "dof": model.dof,
            "normal_matrix": model.normal.matrix.tolist(),
            "rhs": model.normal.rhs.tolist(),
            "amplitude_unit": model.amplitude_unit,
        }
        if model.offset_s0 is not None:
            report["coefficients"]["offset_s0"] = model.offset_s0
        return report
    raise TypeError(f"no report form for {type(model).__name__}")
