"""Uncertainty synthesis by the covariance propagation law.

A measurement result's total error is the algebraic superposition of
independent component errors (an additive offset, a scale error acting
through the operating point, a periodic term, a readout term, ...).
With the components independent and zero-mean, the total standard
deviation is

    sigma(total) = sqrt( sum_i (c_i * sigma_i)**2 )

where ``c_i`` resolves each component's sensitivity at the operating
point.  ``monte_carlo_std`` re-derives the same number from scratch by
drawing the components with their declared distribution shapes, which
makes it an independent numerical check on the closed form.

Units are explicit per component. A "mm" component enters as is; a
"ppm" component is proportional to the operating point S (in m) and
enters as ``std_ppm * S * 1e-3`` mm, since 1 ppm over 1 m is 1 um.

Budget files are JSON::

    {"operating_point_m": 1000.0,
     "components": [
        {"name": "additive", "std": 1.0, "unit": "mm",
         "sensitivity": "constant", "shape": "gaussian"},
        {"name": "scale", "std": 2.0, "unit": "ppm",
         "sensitivity": "proportional"}]}
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._jsonfile import _is_finite, compile_schema, gc_paused, read_json, shorten
from .distributions import ArcsineDistribution, sample

__all__ = [
    "BudgetError",
    "UnitResolutionError",
    "BudgetComponent",
    "ErrorBudget",
    "total_std",
    "monte_carlo_std",
    "load_budget",
    "BUDGET_SCHEMA",
]

SHAPES = ("gaussian", "arcsine", "uniform")

# monte_carlo_std reduces CHUNK_DRAWS draws at a time in one buffer
# allocated once, and adds each component's draws into it BLOCK_DRAWS at
# a time (a divisor of CHUNK_DRAWS), so it holds about 0.6 MiB at any n;
# MAX_DRAWS bounds its run time instead.
CHUNK_DRAWS = 1 << 16
BLOCK_DRAWS = 1 << 12
MAX_DRAWS = 10**9

BUDGET_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["components"],
    "properties": {
        "operating_point_m": {"type": "number", "exclusiveMinimum": 0},
        "components": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "std", "unit"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "std": {"type": "number", "minimum": 0},
                    "unit": {"enum": ["mm", "ppm"]},
                    "sensitivity": {
                        "anyOf": [
                            {"enum": ["constant", "proportional"]},
                            {"type": "number"},
                        ]
                    },
                    "shape": {"enum": list(SHAPES)},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}
_CHECK_BUDGET = compile_schema(BUDGET_SCHEMA)


class BudgetError(ValueError):
    """Invalid budget definition."""


class UnitResolutionError(BudgetError):
    """A component's unit and sensitivity cannot be combined; carries
    the component name."""

    def __init__(self, component: str, detail: str):
        self.component = component
        super().__init__(f"component {component!r}: {detail}")


@dataclass(frozen=True)
class BudgetComponent:
    """One independent error component.

    ``sensitivity`` is "proportional" (coefficient equals the operating
    point) for a ppm std, and "constant" (coefficient 1) or a custom
    numeric coefficient for a mm std; left out, it follows the unit.
    ``std`` is stored as a float.  Any other pair of unit and
    sensitivity raises UnitResolutionError when the component is built.
    """

    name: str
    std: float
    unit: str = "mm"
    sensitivity: str | float | None = None
    shape: str = "gaussian"

    def __post_init__(self):
        if not _is_finite(self.std):
            raise BudgetError(f"component {self.name!r}: std must be finite, "
                              f"got {shorten(repr(self.std))}")
        object.__setattr__(self, "std", float(self.std))
        if self.std < 0:
            raise BudgetError(f"component {self.name!r}: std must be >= 0")
        if self.unit not in ("mm", "ppm"):
            raise BudgetError(f"component {self.name!r}: unknown unit {self.unit!r}")
        if self.shape not in SHAPES:
            raise BudgetError(
                f"component {self.name!r}: unknown shape {self.shape!r}; "
                f"expected one of {SHAPES}"
            )
        if self.sensitivity is None:
            object.__setattr__(self, "sensitivity",
                               "proportional" if self.unit == "ppm" else "constant")
        if isinstance(self.sensitivity, str) and self.sensitivity not in (
            "constant",
            "proportional",
        ):
            raise BudgetError(
                f"component {self.name!r}: unknown sensitivity {self.sensitivity!r}"
            )
        if not isinstance(self.sensitivity, str) and not _is_finite(self.sensitivity):
            raise BudgetError(f"component {self.name!r}: sensitivity must be finite")
        if (self.unit == "ppm") != (self.sensitivity == "proportional"):
            raise UnitResolutionError(self.name, (
                "proportional sensitivity requires a ppm std" if self.unit == "mm"
                else "a ppm std is only meaningful through the operating point; "
                "use sensitivity 'proportional'" if self.sensitivity == "constant"
                else "ppm components take no custom coefficient"))


@dataclass(frozen=True)
class ErrorBudget:
    """A set of independent components at one operating point (m), which
    must be finite, and positive when any component is in ppm."""

    components: tuple[BudgetComponent, ...]
    operating_point_m: float = 0.0

    def __post_init__(self):
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise BudgetError(f"component names must be unique, got {names}")
        if not _is_finite(self.operating_point_m):
            raise BudgetError("operating_point_m must be finite, "
                              f"got {shorten(repr(self.operating_point_m))}")
        if any(c.unit == "ppm" for c in self.components) and not self.operating_point_m > 0:
            raise BudgetError(
                "operating_point_m must be positive when any component is "
                "proportional to it"
            )


def _coefficient_mm(c: BudgetComponent, operating_point_m: float) -> float:
    """Coefficient turning the component's native std into mm."""
    if c.sensitivity == "proportional":
        return operating_point_m * 1e-3  # 1 ppm of 1 m is 1e-3 mm
    return 1.0 if c.sensitivity == "constant" else float(c.sensitivity)


def total_std(budget: ErrorBudget) -> float:
    """Analytic total standard deviation in mm."""
    acc = 0.0
    for c in budget.components:
        contribution = _coefficient_mm(c, budget.operating_point_m) * c.std
        acc += contribution * contribution
    return math.sqrt(acc)


def _chunk_draws(c: BudgetComponent, rng):
    """``draw(m)``: the component's next m draws in its native unit, or
    None for a component that adds nothing (a zero-std arcsine, since
    ArcsineDistribution refuses a zero amplitude)."""
    if c.shape == "gaussian":
        return lambda m: rng.normal(0.0, c.std, m)
    if c.shape == "arcsine":
        # amplitude with std A/sqrt(2) equal to the component std
        amplitude = c.std * math.sqrt(2.0)
        if not amplitude:
            return None
        law = ArcsineDistribution(amplitude)
        return lambda m: sample(law, m, rng)
    # uniform: half-width sqrt(3)*std for matching variance
    half = c.std * math.sqrt(3.0)
    if not math.isfinite(2.0 * half):  # rng.uniform needs a finite high - low
        raise OverflowError(
            f"component {c.name!r}: uniform range of half-width {half:.6g} "
            f"{c.unit} leaves the range of double precision")
    return lambda m: rng.uniform(-half, half, m)


def monte_carlo_std(budget: ErrorBudget, n: int, seed: int) -> float:
    """Sample standard deviation of the synthesized total error.

    Each component gets its own child stream spawned from the seed, so
    the result is bit-reproducible for a given (budget, n, seed) no
    matter how or in what order the components are evaluated.

    The draws are made and reduced in chunks of ``CHUNK_DRAWS`` (2^16),
    each component's generator continuing from one chunk to the next.
    The chunk's totals live in one buffer of 2^16 doubles, allocated
    once; each component's scaled draws are added into it in blocks of
    ``BLOCK_DRAWS`` (2^12), so one block per component is in flight and
    about 0.6 MiB is traced at any n. Each chunk's total is reduced to a
    count, a mean and a sum of squared deviations (M2), and the chunks
    are merged by the pairwise update of Chan, Golub and LeVeque
    (1983). The draws are those of one whole-length call per component,
    and the result agrees with their ``std(ddof=1)`` to within a few ulp.

    The coefficients are scaled once by an even power of two, 2^-k,
    that brings the largest contribution std (coefficient times std)
    near 1, and the result is scaled back by 2^k after the square root.
    The scaling is exact, so the result is the same, but the squared
    totals cannot overflow where the closed form (:func:`total_std`)
    does not.

    Args:
        n: number of draws, from 10**4 to ``MAX_DRAWS`` (10**9).
        seed: root seed for the per-component substreams.

    Raises:
        BudgetError: n out of range.
        OverflowError: a uniform component whose range, twice its
            half-width, is not a finite double.
    """
    if n < 10**4:
        raise BudgetError(f"need n >= 10^4 draws for a stable estimate, got {n}")
    if n > MAX_DRAWS:
        raise BudgetError(
            f"need n <= 10^9 draws, the limit of the Monte Carlo check, got {n}"
        )
    import numpy as np

    n = int(n)
    children = np.random.SeedSequence(seed).spawn(len(budget.components))
    streams, largest = [], 0.0
    for c, child in zip(budget.components, children):
        rng = np.random.Generator(np.random.PCG64(child))
        draw = _chunk_draws(c, rng)
        if draw is not None:
            coefficient = _coefficient_mm(c, budget.operating_point_m)
            streams.append((coefficient, draw))
            largest = max(largest, abs(coefficient) * c.std)
    k = math.frexp(largest)[1] // 2 * 2
    streams = [(math.ldexp(coefficient, -k), draw) for coefficient, draw in streams]
    buffer = np.empty(min(CHUNK_DRAWS, n))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, CHUNK_DRAWS):
        m = min(CHUNK_DRAWS, n - start)
        delta = buffer[:m]
        delta.fill(0.0)
        for coefficient, draw in streams:
            for at in range(0, m, BLOCK_DRAWS):
                size = min(BLOCK_DRAWS, m - at)
                delta[at:at + size] += coefficient * draw(size)
        chunk_mean = float(delta.mean())
        delta -= chunk_mean
        chunk_m2 = float(np.square(delta, out=delta).sum())
        total = count + m
        shift = chunk_mean - mean
        mean += shift * m / total
        m2 += chunk_m2 + shift * shift * count * m / total
        count = total
    return math.ldexp(math.sqrt(m2 / (n - 1)), k)


@gc_paused
def load_budget(path) -> ErrorBudget:
    """Load and validate a budget JSON file.  Each component object is
    passed to :class:`BudgetComponent` as written, which supplies its
    defaults (the sensitivity follows the unit) and checks its unit rule."""
    raw = read_json(path, _CHECK_BUDGET, BudgetError)
    return ErrorBudget(
        components=tuple(BudgetComponent(**c) for c in raw["components"]),
        operating_point_m=float(raw.get("operating_point_m", 0.0)),
    )
