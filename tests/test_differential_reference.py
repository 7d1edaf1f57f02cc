"""The array differential simulator against a scalar per-pair reference.

``reference_differential`` is the per-pair loop ``simulate_differential``
used before it shared ``_contribution_mm`` with ``simulate_repeated``:
one scalar evaluation per source, leg and pair, ``math.sin`` and
``math.floor``.  The array code must give the same readings and
difference contributions bit for bit.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import dataset
from errorkit.cli import main
from errorkit.dataset import LegPairs, MalformedRowError
from errorkit.simulate import ConfigurationError, ErrorSource, simulate_differential

GRID = float(2**30)


def reference_differential(sources, pairs, round_readings, noise_seed):
    """(s1 list, s2 list, diff contributions) or, for the first pair whose
    readings DifferentialRows would refuse, (index, None, None)."""
    children = np.random.SeedSequence(noise_seed).spawn(max(len(sources), 1))
    draws = {}
    for s, child in zip(sources, children):
        if s.kind == "gaussian-noise":
            rng = np.random.Generator(np.random.PCG64(child))
            draws[s.name] = rng.normal(0.0, s.sigma_mm, (len(pairs), 2))

    def leg_mm(source, s_m, i, leg):
        if source.kind == "additive-constant":
            return source.c_mm
        if source.kind == "multiplicative":
            return source.r_ppm * s_m * 1e-3
        if source.kind == "cycle":
            return source.amplitude_mm * math.sin(
                2.0 * math.pi * s_m / source.wavelength_m + source.phase_rad
            )
        return float(draws[source.name][i, leg])

    def snap(x):
        return math.floor(x * GRID + 0.5) / GRID

    def round_tenth_mm(x):
        return math.floor(x * 1e4 + 0.5) / 1e4

    s1s, s2s = [], []
    diff_contributions = {s.name: np.zeros(len(pairs)) for s in sources}
    for i, (s_ab, s_ac) in enumerate(pairs):
        total2_mm = 0.0
        diff_mm = 0.0
        for source in sources:
            c2 = leg_mm(source, s_ab, i, 0)
            c1 = leg_mm(source, s_ac, i, 1)
            dc = c1 - c2
            diff_contributions[source.name][i] = dc
            total2_mm += c2
            diff_mm += dc
        s2 = snap(s_ab + total2_mm * 1e-3)
        diff = snap((s_ac - s_ab) + diff_mm * 1e-3)
        s1 = s2 + diff
        if round_readings:
            s2 = round_tenth_mm(s2)
            s1 = round_tenth_mm(s1)
        if not s1 > s2:
            return i, None, None
        s1s.append(s1)
        s2s.append(s2)
    return s1s, s2s, diff_contributions


finite = dict(allow_nan=False, allow_infinity=False)
amplitudes = st.floats(-10.0, 10.0, **finite)
phases = st.floats(-2 * math.pi, 2 * math.pi, **finite)
wavelengths = st.floats(0.5, 50.0, **finite)
leg_conditions = st.sampled_from(["distance", "none"])

cycles = st.builds(
    ErrorSource, name=st.just("cycle"), kind=st.just("cycle"), amplitude_mm=amplitudes,
    wavelength_m=wavelengths, phase_rad=phases, depends_on=leg_conditions,
)

extra_source = st.one_of(
    st.builds(ErrorSource, name=st.just("constant"), kind=st.just("additive-constant"),
              c_mm=st.floats(-10.0, 10.0, **finite)),
    st.builds(ErrorSource, name=st.just("scale"), kind=st.just("multiplicative"),
              r_ppm=st.floats(-50.0, 50.0, **finite), depends_on=leg_conditions),
    cycles,
    st.builds(ErrorSource, name=st.just("noise"), kind=st.just("gaussian-noise"),
              sigma_mm=st.floats(0.0, 5.0, **finite)),
)

pair = st.tuples(
    st.floats(0.0, 1000.0, **finite), st.floats(1e-3, 100.0, **finite)
).map(lambda p: (p[0], p[0] + p[1]))


@settings(max_examples=120)
@given(
    cycle=cycles,
    extras=st.lists(extra_source, max_size=3),
    pairs=st.lists(pair, min_size=1, max_size=60),
    round_readings=st.booleans(),
    noise_seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_scalar_reference_bit_for_bit(
    cycle, extras, pairs, round_readings, noise_seed
):
    extras = [
        ErrorSource(**{**vars(s), "name": f"extra{k}"}) for k, s in enumerate(extras)
    ]
    sources = [cycle, *extras]
    want_s1, want_s2, want_dc = reference_differential(
        sources, pairs, round_readings, noise_seed
    )
    pairs = LegPairs(*zip(*pairs))
    if want_s2 is None:
        # The reference's first refused pair is the first refused row.
        with pytest.raises(MalformedRowError) as info:
            simulate_differential(
                cycle, pairs, extras, round_readings=round_readings,
                noise_seed=noise_seed,
            )
        assert info.value.row_index == want_s1 + 1
        return
    run = simulate_differential(
        cycle, pairs, extras, round_readings=round_readings, noise_seed=noise_seed
    )
    assert run.rows.columns.s1.tobytes() == np.array(want_s1).tobytes()
    assert run.rows.columns.s2.tobytes() == np.array(want_s2).tobytes()
    assert list(run.diff_contributions) == list(want_dc)
    for name, dc in want_dc.items():
        assert run.diff_contributions[name].tobytes() == dc.tobytes()


def test_emitted_table3_is_the_bundled_file(tmp_path):
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(
        main, ["simulate", "table3_scenario.json", "--emit-series", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == dataset.bundled_path("table3.csv").read_bytes()


# The long leg is finite, but s1 = s2 + (s_ac - s_ab) is not: s2 carries
# the 1e305 m offset, which the difference cancels.
OVERFLOWING_SCENARIO = (
    '{"sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0},'
    ' {"name": "offset", "kind": "additive-constant", "c_mm": 1e308}],'
    ' "differential": {"pairs": [[1.0, 1.797e308]]}}'
)


def test_overflowing_legs_are_an_input_error(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(OVERFLOWING_SCENARIO)
    result = CliRunner().invoke(main, ["simulate", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "row 1, column 's1': must be finite, got inf" in result.stderr


def test_overflowing_legs_raise_a_located_value_error():
    cycle = ErrorSource(name="cycle", kind="cycle", amplitude_mm=5.0)
    offset = ErrorSource(name="constant", kind="additive-constant", c_mm=1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="row 1, column 's1'"):
            simulate_differential(cycle, LegPairs([1.0], [1.797e308]), [offset])


def test_temperature_source_is_refused():
    oven = ErrorSource(name="oven", kind="temperature-polynomial", coeffs_ppm=[1.0])
    with pytest.raises(ConfigurationError, match="'oven'.*'temperature'"):
        simulate_differential(ErrorSource(name="cycle", kind="cycle", amplitude_mm=5.0),
                              LegPairs([1.0], [2.0]), [oven])
