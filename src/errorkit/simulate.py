"""Repeated-measurement simulator and effect classification.

The same physical error source can deviate a result, scatter it, or
leave it untouched, depending entirely on how the measurement
conditions move between repeats. A cycle error at a fixed distance
adds the same offset every time (a systematic effect); the identical
source sampled at random distances scatters the readings (a random
effect); an additive constant observed through a difference of two
legs drops out completely (no effect). This module makes that
trichotomy executable: configurable sources, condition schedules,
series generation for both direct and differential designs, and a
classifier that names each source's effect from its contribution
sequence alone.

Both run modes evaluate a source through one array evaluator,
``_contribution_mm``: a repeated run asks for one contribution per
repeat of the true value, a differential run for one per leg of each
pair, as an ``(n, 2)`` array. Only the conditions differ, which is the
point of the trichotomy.

Unit conventions: distances and legs are in meters, per-source
contributions are tracked in millimeters, and observed values are
meters (series) or meters per leg (differential rows).

Design notes:

* Cycle phase is evaluated at the nominal (scheduled or true)
  distance, not at the perturbed reading.
* Differential legs and their difference are snapped to a binary grid
  of 2**-30 m (about a nanometer) before any readout rounding. On
  that grid ``s1 - s2`` reproduces the constructed difference bit for
  bit, so common-mode sources cancel exactly rather than to within
  float noise.
* Readout rounding to 0.1 mm (half up) is opt-in via
  ``round_readings`` so analytic tests can stay unrounded.
* numpy and ``dataset`` are imported by each function that uses them,
  not with the module: ``load_scenario`` reads the file, walks its
  schema, builds its sources and checks its mode with the standard
  library alone, so a file it refuses there costs no numpy import,
  which is most of a command's time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from ._jsonfile import compile_schema, gc_paused, read_json, shorten

__all__ = [
    "ConfigurationError",
    "ScenarioError",
    "ErrorSource",
    "ConditionSchedule",
    "RepeatedRun",
    "DifferentialRun",
    "SourceEffect",
    "EffectReport",
    "simulate_repeated",
    "simulate_differential",
    "classify_effects",
    "Scenario",
    "load_scenario",
    "SCENARIO_SCHEMA",
    "DEFAULT_EPS_ABS_MM",
]

# The conditions each source kind may depend on; the first is the one a
# source gets when it names none.
_KIND_CONDITIONS = {
    "additive-constant": ("none",),
    "multiplicative": ("distance", "none"),
    "cycle": ("distance", "none"),
    "temperature-polynomial": ("temperature",),
    "gaussian-noise": ("none",),
}

SOURCE_KINDS = tuple(_KIND_CONDITIONS)

CONDITION_NAMES = ("none", "distance", "temperature")

_CONDITION_UNITS = {"temperature": "degC", "distance": "m"}

DEFAULT_EPS_ABS_MM = 1e-6

# Binary grid for differential legs: fine enough to be invisible at
# readout precision, coarse enough that sums of grid values up to
# ~100 m stay exactly representable in a double.
_GRID = float(2**30)


class ConfigurationError(ValueError):
    """A run's sources do not fit it: two share a name, one depends on a
    condition the run does not provide, the differential driver is not
    a cycle, a cycle's wavelength puts its phase beyond the double
    range at a distance the run measures, or a source's contribution
    to some reading, or the sum of contributions it leaves, is not
    finite."""


class ScenarioError(ValueError):
    """A scenario file is structurally valid JSON but semantically wrong."""


@dataclass(frozen=True)
class ErrorSource:
    """One configurable error source.

    The per-kind parameter fields double as documentation of the five
    supported mechanisms; unused fields stay at their zero defaults.
    ``depends_on`` names the schedule condition that drives the
    source, or "none" for condition-free sources; left out, it follows
    the kind: "distance" for multiplicative and cycle sources,
    "temperature" for a temperature polynomial, "none" for the rest
    ("none" freezes a multiplicative or cycle source at the true
    value).  Every parameter must be finite.
    """

    name: str
    kind: str
    depends_on: str | None = None
    c_mm: float = 0.0
    r_ppm: float = 0.0
    amplitude_mm: float = 0.0
    wavelength_m: float = 20.0
    phase_rad: float = 0.0
    coeffs_ppm: tuple[float, ...] = ()
    sigma_mm: float = 0.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(
                f"source {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {SOURCE_KINDS}"
            )
        if self.depends_on is None:
            object.__setattr__(self, "depends_on", _KIND_CONDITIONS[self.kind][0])
        if self.depends_on not in CONDITION_NAMES:
            raise ValueError(
                f"source {self.name!r}: unknown condition {self.depends_on!r}"
            )
        if self.depends_on not in _KIND_CONDITIONS[self.kind]:
            raise ValueError(
                f"source {self.name!r}: kind {self.kind!r} cannot depend on "
                f"{self.depends_on!r}"
            )
        object.__setattr__(self, "coeffs_ppm", tuple(self.coeffs_ppm))
        numbers = {f: getattr(self, f) for f in (
            "c_mm", "r_ppm", "amplitude_mm", "wavelength_m", "phase_rad", "sigma_mm")}
        numbers.update((f"coeffs_ppm[{i}]", c) for i, c in enumerate(self.coeffs_ppm))
        for field_name, value in numbers.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"source {self.name!r}: {field_name} must be finite, got {value!r}")
        if self.kind == "cycle" and not self.wavelength_m > 0:
            raise ValueError(f"source {self.name!r}: wavelength must be positive")
        if self.kind == "gaussian-noise" and self.sigma_mm < 0:
            raise ValueError(f"source {self.name!r}: sigma must be >= 0")

    @classmethod
    def additive_constant(cls, c_mm: float, name: str = "constant"):
        return cls(name=name, kind="additive-constant", c_mm=c_mm)

    @classmethod
    def multiplicative(
        cls, r_ppm: float, name: str = "scale", depends_on: str | None = None
    ):
        return cls(name=name, kind="multiplicative", r_ppm=r_ppm, depends_on=depends_on)

    @classmethod
    def cycle(
        cls,
        amplitude_mm: float,
        wavelength_m: float = 20.0,
        phase_rad: float = 0.0,
        name: str = "cycle",
        depends_on: str | None = None,
    ):
        return cls(
            name=name,
            kind="cycle",
            amplitude_mm=amplitude_mm,
            wavelength_m=wavelength_m,
            phase_rad=phase_rad,
            depends_on=depends_on,
        )

    @classmethod
    def temperature_polynomial(
        cls, coeffs_ppm: Sequence[float], name: str = "temperature"
    ):
        return cls(name=name, kind="temperature-polynomial", coeffs_ppm=coeffs_ppm)

    @classmethod
    def gaussian_noise(cls, sigma_mm: float, name: str = "noise"):
        return cls(name=name, kind="gaussian-noise", sigma_mm=sigma_mm)


def _ndim(values) -> int:
    """``np.ndim(values)`` without importing numpy: an array's ``ndim``,
    1 more than its deepest item's for a sequence but a string, else 0."""
    if hasattr(values, "ndim"):
        return values.ndim
    if isinstance(values, Sequence) and not isinstance(values, (str, bytes)):
        return 1 + max(map(_ndim, values), default=0)
    return 0


@dataclass(frozen=True)
class ConditionSchedule:
    """How the measurement conditions move across ``repeats`` repeats.

    generator "constant": ``conditions`` maps each name to a scalar.
    generator "listed": ``conditions`` maps each name to a sequence of
    exactly ``repeats`` values.
    generator "uniform-random": ``ranges`` maps each name to (lo, hi)
    and values are drawn uniformly per repeat, reproducibly per
    ``seed`` (one substream per condition, in sorted name order).
    """

    repeats: int
    generator: str = "constant"
    conditions: Mapping[str, object] = field(default_factory=dict)
    ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.generator not in ("constant", "listed", "uniform-random"):
            raise ValueError(f"unknown schedule generator {self.generator!r}")
        if self.generator == "uniform-random":
            if not self.ranges:
                raise ValueError("uniform-random schedule needs at least one range")
            if self.seed is None:
                raise ValueError("uniform-random schedule needs a seed")
            for name, (lo, hi) in self.ranges.items():
                if not hi >= lo:
                    raise ValueError(f"range for {name!r} is empty: ({lo}, {hi})")
                if not math.isfinite(hi - lo):
                    raise ValueError(
                        f"range for {name!r} is wider than the double range: ({lo}, {hi})")
        else:
            # A number per constant condition, a list per listed one.
            listed = self.generator == "listed"
            for name, values in self.conditions.items():
                if _ndim(values) != listed:
                    raise ValueError(
                        f"{self.generator} schedule for {name!r} needs "
                        f"{'a list' if listed else 'a number'}, got {values!r}"
                    )
                if listed and len(values) != self.repeats:
                    raise ValueError(
                        f"listed schedule for {name!r} has {len(values)} values, "
                        f"expected {self.repeats}"
                    )

    @classmethod
    def constant(cls, repeats: int, **conditions: float):
        return cls(repeats=repeats, generator="constant", conditions=conditions)

    @classmethod
    def listed(cls, **conditions: Sequence[float]):
        lengths = {len(v) for v in conditions.values()}
        if len(lengths) != 1:
            raise ValueError("listed conditions must all have the same length")
        return cls(repeats=lengths.pop(), generator="listed", conditions=conditions)

    @classmethod
    def uniform_random(cls, repeats: int, seed: int, **ranges: tuple[float, float]):
        return cls(
            repeats=repeats, generator="uniform-random", ranges=ranges, seed=seed
        )

    def resolve(self) -> dict[str, np.ndarray]:
        """Per-condition value vectors, each of length ``repeats``."""
        import numpy as np

        n = self.repeats
        if self.generator == "constant":
            return {
                name: np.full(n, float(value))
                for name, value in self.conditions.items()
            }
        if self.generator == "listed":
            return {
                name: np.asarray(values, dtype=float)
                for name, values in self.conditions.items()
            }
        names = sorted(self.ranges)
        children = np.random.SeedSequence(self.seed).spawn(len(names))
        out = {}
        for name, child in zip(names, children):
            lo, hi = self.ranges[name]
            rng = np.random.Generator(np.random.PCG64(child))
            out[name] = rng.uniform(lo, hi, n)
        return out


@dataclass(frozen=True)
class RepeatedRun:
    """A generated series plus the per-source contribution ledger (mm)."""

    series: MeasurementSeries
    contributions: dict[str, np.ndarray]


@dataclass(frozen=True)
class DifferentialRun:
    """Differential rows plus per-source contributions to s1 - s2 (mm)."""

    rows: DifferentialRows
    diff_contributions: dict[str, np.ndarray]


def _contribution_mm(
    source: ErrorSource,
    conditions: Mapping[str, np.ndarray],
    nominal_m: np.ndarray,
    noise_seed: int,
    position: int,
) -> np.ndarray:
    """This source's contribution (mm) to each reading.

    ``nominal_m`` holds the true value each reading measures, in any
    shape; the conditions and the result have the same shape. A noise
    source draws from the child of ``noise_seed`` at ``position``, as
    ``spawn`` makes it, built only here: a noise-free run never loads
    ``numpy.random``.  A contribution that is not finite is a
    ConfigurationError naming its 1-based row (repeat or pair).
    """
    import numpy as np

    from .dataset import _polynomial, _sinusoid

    if source.depends_on != "none" and source.depends_on not in conditions:
        raise ConfigurationError(
            f"source {source.name!r} depends on condition "
            f"{source.depends_on!r}, which the run does not provide"
        )
    if source.kind == "additive-constant":
        return np.full(nominal_m.shape, source.c_mm)
    s = conditions["distance"] if source.depends_on == "distance" else nominal_m
    if source.kind == "cycle":
        try:
            return _sinusoid(source.amplitude_mm, source.wavelength_m, source.phase_rad, s)
        except ValueError as exc:
            raise ConfigurationError(f"source {source.name!r}: {exc}") from None
    # Only these kinds can leave the double range; that is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if source.kind == "multiplicative":
            c = source.r_ppm * s * 1e-3
        elif source.kind == "temperature-polynomial":
            r_ppm = _polynomial(source.coeffs_ppm, conditions["temperature"])
            c = r_ppm * nominal_m * 1e-3
        else:  # gaussian-noise: a fresh draw per reading
            seed = np.random.SeedSequence(noise_seed, spawn_key=(position,))
            c = np.random.default_rng(seed).normal(0.0, source.sigma_mm, nominal_m.shape)
    _check_finite(source, "contribution", c)
    return c


def _check_finite(source: ErrorSource, what: str, values: np.ndarray) -> None:
    """A ConfigurationError naming the source and the 1-based row (repeat
    or pair) of the first of ``values`` that is not finite."""
    import numpy as np

    from .dataset import _first_false

    bad = _first_false(np.isfinite(values))  # a flat index: argmin flattens
    if bad is not None:
        raise ConfigurationError(
            f"source {source.name!r}: row {np.unravel_index(bad, values.shape)[0] + 1}: "
            f"{what} must be finite, got {float(values.flat[bad])!r}")


def _check_unique_names(sources: Sequence[ErrorSource]) -> None:
    """Refuse two sources of one name, before any source is evaluated."""
    names = [source.name for source in sources]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigurationError(f"duplicate source name {name!r}")


def simulate_repeated(
    sources: Sequence[ErrorSource],
    schedule: ConditionSchedule,
    true_value: float,
    *,
    noise_seed: int = 0,
    label: str = "simulated",
) -> RepeatedRun:
    """Generate a repeated-measurement series of a fixed true value (m).

    observed_i = true_value + sum over sources of contribution_i, with
    contributions converted from mm. The per-source contribution
    vectors are retained for classification.

    Noise sources draw from substreams spawned off ``noise_seed`` (one
    per source position), so runs are reproducible per seed. A source
    whose contribution takes the running sum beyond the double range is
    a ConfigurationError naming it and the repeat.
    """
    import numpy as np

    from .dataset import MeasurementSeries

    _check_unique_names(sources)
    conditions = schedule.resolve()
    n = schedule.repeats
    nominal_m = np.full(n, float(true_value))
    contributions: dict[str, np.ndarray] = {}
    total_mm = np.zeros(n)
    for position, source in enumerate(sources):
        c = _contribution_mm(source, conditions, nominal_m, noise_seed, position)
        contributions[source.name] = c
        with np.errstate(over="ignore"):
            total_mm = total_mm + c
        _check_finite(source, "sum of contributions", total_mm)
    observed = true_value + total_mm * 1e-3

    if len(conditions) == 1:
        cond_name = next(iter(conditions))
        cond_values = conditions[cond_name]
        cond_unit = _CONDITION_UNITS.get(cond_name, "")
    else:
        cond_values = np.arange(1, n + 1, dtype=float)
        cond_unit = "n"
    series = MeasurementSeries.from_columns(
        cond_values, observed, condition_unit=cond_unit, value_unit="m", label=label
    )
    return RepeatedRun(series=series, contributions=contributions)


def _round_half_up(x: np.ndarray, per_m: float) -> np.ndarray:
    """Round half up to the grid of ``1/per_m`` m.  A value too large to
    scale by ``per_m`` is a whole number of metres and is kept."""
    import numpy as np

    with np.errstate(over="ignore"):
        scaled = x * per_m
    return np.where(np.isfinite(scaled), np.floor(scaled + 0.5) / per_m, x)


def simulate_differential(
    cycle: ErrorSource,
    pairs: LegPairs,
    extra_sources: Sequence[ErrorSource] = (),
    *,
    round_readings: bool = False,
    noise_seed: int = 0,
) -> DifferentialRun:
    """Generate two-leg differential readings from nominal leg pairs.

    ``pairs`` is a :class:`~errorkit.dataset.LegPairs`, as
    :func:`load_scenario` and
    :func:`~errorkit.dataset.load_differential_pairs` return it; build
    one from (s_ab, s_ac) pairs with ``LegPairs(*zip(*pairs))``, which
    checks that s_ac > s_ab.  Each pair yields readings
    s2 = s_ab + y(s_ab) and s1 = s_ac + y(s_ac), y being the cycle
    error evaluated at the nominal leg, plus any extra-source
    contributions per leg. ``round_readings`` additionally rounds both
    readings to 0.1 mm, emulating an instrument readout.

    Construction guarantee: legs land on a 2**-30 m binary grid and s1
    is built as s2 plus the (grid) difference, so without readout
    rounding s1 - s2 is bit-identical to the sum of per-source
    difference contributions. Common-mode sources therefore cancel
    exactly, not approximately.

    A reading that is not finite, or ``s1 <= s2``, raises
    ``MalformedRowError`` (a ``ValueError``) naming the 1-based row; a
    source whose two legs' contributions differ by more than the
    double range, or whose contribution takes a running sum beyond it,
    ConfigurationError naming it and the row.
    """
    import numpy as np

    from .dataset import DifferentialRows

    if cycle.kind != "cycle":
        raise ConfigurationError(
            f"differential driver must be a cycle source, got {cycle.kind!r}"
        )
    sources = (cycle, *extra_sources)
    _check_unique_names(sources)
    legs = np.column_stack(pairs.columns)
    # Column 0 is the short leg s_ab (reading s2), column 1 the long leg.
    conditions = {"distance": legs}
    diff_contributions = {}
    total2_mm = np.zeros(len(legs))
    diff_mm = np.zeros(len(legs))
    for position, source in enumerate(sources):
        c = _contribution_mm(source, conditions, legs, noise_seed, position)
        with np.errstate(over="ignore"):
            dc = c[:, 1] - c[:, 0]
        _check_finite(source, "contribution difference", dc)
        diff_contributions[source.name] = dc
        with np.errstate(over="ignore"):
            total2_mm = total2_mm + c[:, 0]
            diff_mm = diff_mm + dc
        _check_finite(source, "sum of contributions", total2_mm)
        _check_finite(source, "sum of contribution differences", diff_mm)
    s2 = _round_half_up(legs[:, 0] + total2_mm * 1e-3, _GRID)
    s1 = s2 + _round_half_up((legs[:, 1] - legs[:, 0]) + diff_mm * 1e-3, _GRID)
    if round_readings:  # to the 0.1 mm readout grid
        s2 = _round_half_up(s2, 1e4)
        s1 = _round_half_up(s1, 1e4)
    return DifferentialRun(
        rows=DifferentialRows(s1, s2), diff_contributions=diff_contributions
    )


@dataclass(frozen=True)
class SourceEffect:
    """One source's contribution sequence and its classification."""

    name: str
    contributions: tuple[float, ...]
    mean: float
    std: float
    max_abs: float
    classification: str


@dataclass(frozen=True)
class EffectReport:
    effects: tuple[SourceEffect, ...]
    eps_abs: float

    def by_name(self) -> dict[str, SourceEffect]:
        return {e.name: e for e in self.effects}


def classify_effects(
    contributions: Mapping[str, Sequence[float]],
    eps_abs: float = DEFAULT_EPS_ABS_MM,
) -> EffectReport:
    """Name each source's effect from its contribution sequence (mm).

    A source whose contributions never exceed ``eps_abs`` in magnitude
    is a non-effect. Otherwise it is random if the contributions
    scatter (sample std above ``eps_abs``) and systematic if they hold
    still. The rules are checked in that order.

    ``eps_abs`` defaults to 1e-6 mm, which suits noiseless
    simulations; with gaussian noise in play the caller must choose a
    threshold, since classifying a noisy mixture is inherently
    threshold-relative. ``eps_abs`` must be positive and finite, and
    so must every contribution: a ValueError names the first that is not.
    """
    import numpy as np

    from .dataset import _first_false

    if not 0 < eps_abs < math.inf:
        raise ValueError(f"eps_abs must be positive and finite, got {eps_abs}")
    effects = []
    for name, seq in contributions.items():
        values = np.asarray(seq, dtype=float)
        if values.size == 0:
            raise ValueError(f"source {name!r} has an empty contribution sequence")
        bad = _first_false(np.isfinite(values))
        if bad is not None:
            raise ValueError(f"source {name!r}: row {bad + 1}: contribution must be "
                             f"finite, got {float(values[bad])!r}")
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        max_abs = float(np.abs(values).max())
        if max_abs <= eps_abs:
            classification = "non-effect"
        elif std > eps_abs:
            classification = "random"
        else:
            classification = "systematic"
        effects.append(
            SourceEffect(
                name=name,
                contributions=tuple(values.tolist()),
                mean=mean,
                std=std,
                max_abs=max_abs,
                classification=classification,
            )
        )
    return EffectReport(effects=tuple(effects), eps_abs=eps_abs)


# --- scenario files ---------------------------------------------------------

_SOURCE_SCHEMA = {
    "type": "object",
    "required": ["name", "kind"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "kind": {"enum": list(SOURCE_KINDS)},
        "depends_on": {"enum": list(CONDITION_NAMES)},
        "c_mm": {"type": "number"},
        "r_ppm": {"type": "number"},
        "amplitude_mm": {"type": "number"},
        "wavelength_m": {"type": "number", "exclusiveMinimum": 0},
        "phase_rad": {"type": "number"},
        "coeffs_ppm": {"type": "array", "items": {"type": "number"}},
        "sigma_mm": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["sources"],
    "properties": {
        "label": {"type": "string"},
        "true_value": {"type": "number"},
        "eps_abs_mm": {"type": "number", "exclusiveMinimum": 0},
        "sources": {"type": "array", "items": _SOURCE_SCHEMA, "minItems": 1},
        "schedule": {
            "type": "object",
            "required": ["repeats", "generator"],
            "properties": {
                "repeats": {"type": "integer", "minimum": 1},
                "generator": {"enum": ["constant", "listed", "uniform-random"]},
                "conditions": {
                    "type": "object",
                    "additionalProperties": {
                        "anyOf": [
                            {"type": "number"},
                            {"type": "array", "items": {"type": "number"}},
                        ]
                    },
                },
                "ranges": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "seed": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "differential": {
            "type": "object",
            "required": ["pairs"],
            "properties": {
                # Each pair is checked by the pair loop in load_scenario.
                "pairs": {"type": "array", "minItems": 1},
                "round_readings": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}
_CHECK_SCENARIO = compile_schema(SCENARIO_SCHEMA)


_JSON_NUMBER = frozenset({int, float})


def _leg_pairs(pairs: list) -> LegPairs:
    """The parsed ``differential.pairs`` array as checked leg columns.

    Well-formed pairs are converted as whole columns, which
    :class:`~errorkit.dataset.LegPairs` checks.  If any check fails, the
    pairs are read one at a time to find the first bad one, which raises
    ScenarioError naming its index.
    """
    import numpy as np

    from .dataset import LegPairs, MalformedRowError

    # type() rather than isinstance: a bool is not a JSON number.
    # read_json has already rejected numbers that are not finite.
    if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= _JSON_NUMBER):
        legs = np.fromiter(chain.from_iterable(pairs), float, count=2 * len(pairs))
        try:
            return LegPairs(legs[0::2], legs[1::2])
        except MalformedRowError:
            pass  # the loop below words the error
    for i, pair in enumerate(pairs):
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) in _JSON_NUMBER
            and type(pair[1]) in _JSON_NUMBER
        ):
            raise ScenarioError(
                f"at /differential/pairs/{i}: expected two numbers "
                f"[s_ab, s_ac], got {shorten(json.dumps(pair))}"
            )
        if not float(pair[1]) > float(pair[0]):
            raise ScenarioError(
                f"at /differential/pairs/{i}: need s_ac > s_ab, "
                f"got {json.dumps(pair)}"
            )
    raise AssertionError("unreachable: the loop accepts what the column checks refuse")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded, semantically validated scenario file.

    ``differential_pairs`` holds a differential scenario's nominal leg
    pairs as :class:`~errorkit.dataset.LegPairs` columns (None in
    repeated mode).  A scenario compares and hashes by identity, in
    both modes: compare two by their fields, the pairs by their
    ``columns``.
    """

    label: str
    sources: tuple[ErrorSource, ...]
    true_value: float | None = None
    schedule: ConditionSchedule | None = None
    differential_pairs: LegPairs | None = None
    round_readings: bool = False
    eps_abs_mm: float | None = None

    @property
    def is_differential(self) -> bool:
        return self.differential_pairs is not None

    @property
    def has_noise(self) -> bool:
        return any(
            s.kind == "gaussian-noise" and s.sigma_mm > 0 for s in self.sources
        )


@gc_paused
def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.

    The file describes exactly one of two run modes: a repeated-series
    mode (``true_value`` plus ``schedule``) or a differential mode
    (``differential`` with nominal leg pairs).
    """
    raw = read_json(path, _CHECK_SCENARIO, ScenarioError)

    sources = tuple(ErrorSource(**s) for s in raw["sources"])

    has_schedule = "schedule" in raw
    has_differential = "differential" in raw
    if has_schedule == has_differential:
        raise ScenarioError(
            "a scenario must define exactly one of 'schedule' or 'differential'"
        )

    label = raw["label"] if "label" in raw else Path(path).stem
    eps = raw.get("eps_abs_mm")

    if has_differential:
        diff = raw["differential"]
        pairs = _leg_pairs(diff["pairs"])
        if sources[0].kind != "cycle":
            raise ScenarioError(
                "a differential scenario lists the driving cycle source first"
            )
        return Scenario(
            label=label,
            sources=sources,
            differential_pairs=pairs,
            round_readings=bool(diff.get("round_readings", False)),
            eps_abs_mm=eps,
        )

    if "true_value" not in raw:
        raise ScenarioError("a schedule scenario requires 'true_value'")
    sched = raw["schedule"]
    seed = sched.get("seed")
    try:
        schedule = ConditionSchedule(
            # JSON Schema's integer admits integral floats such as 1.0.
            repeats=int(sched["repeats"]),
            generator=sched["generator"],
            conditions=sched.get("conditions", {}),
            ranges={
                k: (float(v[0]), float(v[1]))
                for k, v in sched.get("ranges", {}).items()
            },
            seed=None if seed is None else int(seed),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return Scenario(
        label=label,
        sources=sources,
        true_value=float(raw["true_value"]),
        schedule=schedule,
        eps_abs_mm=eps,
    )
