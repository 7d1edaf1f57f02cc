"""Operations and output checks of the three in-process workloads.

Each workload is a pool of items, one item per operation, cycled in
order. ``run`` is the timed operation; ``check`` runs after the timer
stops and returns the problems it found, an empty list when the output
is right. errorkit is reached through its modules (``dataset.load_series``,
not ``from errorkit import load_series``), so the tracer's wrappers are
seen by the workloads exactly as by the command line front end.

Recovery tolerances are six standard errors of the fitted parameter,
computed from the generating noise and the design at hand with numpy,
independently of errorkit's own solver.
"""

from __future__ import annotations

import math

import numpy as np

import errorkit.budget as budget
import errorkit.dataset as dataset
import errorkit.regression as regression
import errorkit.simulate as simulate

import gen

WAVELENGTH_M = gen.WAVELENGTH_M
SIGMAS = 6.0
# Readout quantization (uniform over one step) as a standard deviation.
TENTH_MM_Q = 1e-4 / math.sqrt(12.0)


def _close(problems, label, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r} +- {tol:.3g}")


def _same(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _phase_gap(a, b):
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _std_errors(design: np.ndarray, sigma: float) -> np.ndarray:
    """Least-squares standard errors for columns of ``design``."""
    scale = np.abs(design).max(axis=0)
    scaled = design / scale
    cov = np.linalg.inv(scaled.T @ scaled)
    return sigma * np.sqrt(np.diag(cov)) / scale


def _poly_expect(temps, r_ppm, coeffs, sigma_ppm):
    """The cubic a mean-referenced fit should recover: the generating
    cubic with the sample mean of the errors moved into ``a``."""
    want = [coeffs[0] - float(np.mean(r_ppm)), *coeffs[1:]]
    se = _std_errors(np.vander(np.asarray(temps, float), 4, increasing=True), sigma_ppm)
    # The fit divides by the sample mean rather than the nominal frequency,
    # which scales every coefficient by about 1 - mean(r) * 1e-6.
    return want, [SIGMAS * s + 1e-4 * abs(w) for s, w in zip(se, want)]


def _cycle_expect(conditions, amp, sigma):
    theta = 2.0 * math.pi * np.asarray(conditions, float) / WAVELENGTH_M
    se = _std_errors(np.column_stack([np.sin(theta), np.cos(theta)]), sigma)
    amp_tol = SIGMAS * math.hypot(*se)
    return amp_tol, amp_tol / amp


def _diff_expect(s1, s2, amp_m, sigma_m):
    t1 = 2.0 * math.pi * np.asarray(s1) / WAVELENGTH_M
    t2 = 2.0 * math.pi * np.asarray(s2) / WAVELENGTH_M
    design = np.column_stack([np.ones(len(s1)), np.sin(t1) - np.sin(t2),
                              np.cos(t1) - np.cos(t2)])
    se = _std_errors(design, sigma_m)
    # The generator evaluates the cycle at the nominal leg, the fit at
    # the reading; the two differ by up to amplitude * slope.
    bias = 2.0 * amp_m * amp_m * 2.0 * math.pi / WAVELENGTH_M
    amp_tol = SIGMAS * math.hypot(se[1], se[2]) + bias
    return SIGMAS * se[0] + bias, amp_tol, amp_tol / amp_m


def _csv_rows(path) -> list[list[str]]:
    """Data rows of a file written by ``gen`` (units line, header, rows)."""
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[2:]]


def _check_poly(problems, model, want, tols, label):
    for k, (got, w, tol) in enumerate(zip(model.coeffs, want, tols)):
        _close(problems, f"{label} coeff {k}", got, w, tol)


def _check_cycle(problems, model, amp, phase, amp_tol, phase_tol, label):
    _close(problems, f"{label} amplitude", model.amplitude, amp, amp_tol)
    gap = _phase_gap(model.phase, phase)
    if not gap <= phase_tol:
        problems.append(f"{label} phase off by {gap:.3g} rad (tol {phase_tol:.3g})")


# --- tables-batch -------------------------------------------------------------

# The README's published figures for the bundled tables.
PUBLISHED = {
    "poly": ["+9.983251", "-0.013518", "-0.018601", "+0.000214"],
    "poly_residual": "2.28486", "poly_dof": 11,
    "cycle": ("5.7235", "255.14", "0.912", 19),
    "cycle_diff": ("8.00001", "0.004994", "44.79", "4.249e-05", 12),
    "regen": ("8.001433", "0.00632892"),
    "total_std": "3.873",
}


def tables_prepare(s: dict) -> dict:
    item = dict(s)
    if not s["published"]:
        # Gaussian noise, whole-ppm rounding, and the 1e-6 MHz cells (0.2 ppm).
        sigma1 = math.sqrt(gen.TABLE1_NOISE_PPM**2 + (1.0 / math.sqrt(12.0)) ** 2
                           + (0.2 / math.sqrt(12.0)) ** 2)
        item["poly_want"], item["poly_tol"] = _poly_expect(
            gen.TABLE1_TEMPS, s["poly_r_ppm"], s["poly_coeffs"], sigma1)
        readings = [float(r[0]) for r in _csv_rows(s["table2"])]
        sigma2 = math.hypot(gen.TABLE2_NOISE_MM, TENTH_MM_Q * 1e3)
        item["cycle2_tol"] = _cycle_expect(readings, s["cycle2"][0], sigma2)
        rows = _csv_rows(s["table3"])
        item["cycle3_tol"] = _diff_expect([float(r[3]) for r in rows],
                                          [float(r[2]) for r in rows],
                                          s["cycle3"][0] * 1e-3,
                                          math.sqrt(2.0) * TENTH_MM_Q)
    return item


def tables_run(item: dict):
    series1 = dataset.load_series(item["table1"])
    # Whole-ppm errors, as in the documented poly3 workflow.
    samples1 = [dataset.ErrorSample(s.condition, float(round(s.error)))
                for s in dataset.to_error_samples(series1, "mean-reference")]
    poly = regression.fit_polynomial(samples1, degree=3)
    series2 = dataset.load_series(item["table2"])
    cycle = regression.fit_cycle_direct(
        dataset.to_error_samples(series2, "explicit-reference"), WAVELENGTH_M)
    rows3 = dataset.load_differential(item["table3"])
    cycle_diff = regression.fit_cycle_differential(rows3, WAVELENGTH_M)
    scenario = simulate.load_scenario(item["scenario"])
    run = simulate.simulate_differential(
        scenario.sources[0], scenario.differential_pairs, scenario.sources[1:],
        round_readings=scenario.round_readings)
    effects = simulate.classify_effects(run.diff_contributions)
    total = budget.total_std(budget.load_budget(item["budget"]))
    return poly, cycle, cycle_diff, rows3, run, effects, total


def tables_check(item: dict, result) -> list[str]:
    poly, cycle, cycle_diff, rows3, run, effects, total = result
    p: list[str] = []
    _same(p, "simulated pairs", len(run.rows), 15)
    _same(p, "cycle effect", effects.by_name()["cycle"].classification, "random")
    if item["published"]:
        _same(p, "poly3 coefficients", ["%+.6f" % c for c in poly.coeffs],
              PUBLISHED["poly"])
        _same(p, "poly3 residual std", "%.6g" % poly.residual_std,
              PUBLISHED["poly_residual"])
        _same(p, "poly3 dof", poly.dof, PUBLISHED["poly_dof"])
        _same(p, "cycle fit", ("%.4f" % cycle.amplitude,
                               "%.2f" % math.degrees(cycle.phase),
                               "%.4g" % cycle.residual_std, cycle.dof),
              PUBLISHED["cycle"])
        _same(p, "cycle-diff fit", ("%.5f" % cycle_diff.offset_s0,
                                    "%.6f" % cycle_diff.amplitude,
                                    "%.2f" % math.degrees(cycle_diff.phase),
                                    "%.4g" % cycle_diff.residual_std, cycle_diff.dof),
              PUBLISHED["cycle_diff"])
        matches = sum(("%.4f" % got.s2 == "%.4f" % want.s2)
                      + ("%.4f" % got.s1 == "%.4f" % want.s1)
                      for got, want in zip(run.rows, rows3))
        _same(p, "regenerated table3 values", matches, 30)
        diffs = np.array([r.s1 - r.s2 for r in run.rows])
        _same(p, "regenerated mean/std", ("%.6f" % diffs.mean(),
                                          "%.6g" % diffs.std(ddof=1)),
              PUBLISHED["regen"])
        _same(p, "total std", "%.4g" % total, PUBLISHED["total_std"])
        return p
    _check_poly(p, poly, item["poly_want"], item["poly_tol"], "poly3")
    amp2, phase2 = item["cycle2"]
    _check_cycle(p, cycle, amp2, phase2, *item["cycle2_tol"], "cycle")
    amp3, phase3 = item["cycle3"]
    s0_tol, amp_tol, phase_tol = item["cycle3_tol"]
    _close(p, "cycle-diff base distance", cycle_diff.offset_s0, 8.0, s0_tol)
    _check_cycle(p, cycle_diff, amp3 * 1e-3, phase3, amp_tol, phase_tol, "cycle-diff")
    s_ab, s_ac = item["pairs"]
    legs = np.array([[r.s2, r.s1] for r in run.rows])
    nominal = np.column_stack([s_ab, s_ac])
    want = nominal + amp3 * 1e-3 * np.sin(2.0 * math.pi * nominal / WAVELENGTH_M + phase3)
    worst = float(np.abs(legs - want).max())
    if not worst <= 0.5e-4 + 1e-8:
        p.append(f"simulated legs off the cycle by {worst:.3g} m")
    _close(p, "total std", total, item["budget_total_mm"],
           1e-12 * item["budget_total_mm"])
    return p


# --- simulate-scale -----------------------------------------------------------

def simulate_run(m: dict):
    rep_sc = simulate.load_scenario(m["repeated"])
    rep = simulate.simulate_repeated(rep_sc.sources, rep_sc.schedule, rep_sc.true_value,
                                     noise_seed=m["noise_seed"], label=rep_sc.label)
    rep_effects = simulate.classify_effects(rep.contributions, rep_sc.eps_abs_mm)
    dataset.write_series_csv(rep.series, m["repeated_csv"])
    diff_sc = simulate.load_scenario(m["differential"])
    diff = simulate.simulate_differential(
        diff_sc.sources[0], diff_sc.differential_pairs, diff_sc.sources[1:],
        round_readings=diff_sc.round_readings, noise_seed=m["noise_seed"])
    diff_effects = simulate.classify_effects(diff.diff_contributions, diff_sc.eps_abs_mm)
    dataset.write_differential_csv(diff_sc.differential_pairs, diff.rows,
                                   m["differential_csv"])
    return rep, rep_effects, diff, diff_effects


def _line_count(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def simulate_check(m: dict, result) -> list[str]:
    rep, rep_effects, diff, diff_effects = result
    n = m["rows"]
    p: list[str] = []
    _same(p, "repeated rows", len(rep.series), n)
    _same(p, "differential rows", len(diff.rows), n)
    _same(p, "repeated classes",
          {e.name: e.classification for e in rep_effects.effects},
          {"constant": "systematic", "temperature": "random", "noise": "random"})
    _same(p, "differential classes",
          {e.name: e.classification for e in diff_effects.effects},
          {"cycle": "random", "constant": "non-effect", "noise": "random"})
    if not np.all(diff.diff_contributions["constant"] == 0.0):
        p.append("the common-mode constant does not cancel exactly")
    _same(p, "written series lines", _line_count(m["repeated_csv"]), n + 2)
    _same(p, "written differential lines", _line_count(m["differential_csv"]), n + 2)
    return p


# --- analyze-scale ------------------------------------------------------------

def analyze_prepare(manifest: dict) -> dict:
    m = dict(manifest)
    temps = [float(r[0]) for r in _csv_rows(m["temperature"])]
    readings = [float(r[0]) for r in _csv_rows(m["distance"])]
    rows = _csv_rows(m["differential"])
    observed = np.array(m["observed_mhz"])
    m["poly_want"], m["poly_tol"] = _poly_expect(
        temps, (observed / gen.F0_MHZ - 1.0) * 1e6, m["poly_coeffs"],
        gen.SCALE_TEMP_NOISE_PPM)
    m["cycle_tol"] = _cycle_expect(readings, m["cycle"][0], gen.SCALE_DIST_NOISE_MM)
    s2 = [float(r[2]) for r in rows]
    s1 = [float(r[3]) for r in rows]
    m["cycle_diff_tol"] = _diff_expect(s1, s2, m["cycle_diff"][0] * 1e-3,
                                       math.sqrt(2.0) * gen.SCALE_LEG_NOISE_MM * 1e-3)
    m["mean_std"] = (float(observed.mean()), float(observed.std(ddof=1)))
    return m


def analyze_run(m: dict):
    temperature = dataset.load_series(m["temperature"])
    poly = regression.fit_polynomial(
        dataset.to_error_samples(temperature, "mean-reference"), degree=3)
    spread = regression.random_model(temperature.observed)
    distance = dataset.load_series(m["distance"])
    cycle = regression.fit_cycle_direct(
        dataset.to_error_samples(distance, "explicit-reference"), WAVELENGTH_M)
    rows = dataset.load_differential(m["differential"])
    cycle_diff = regression.fit_cycle_differential(rows, WAVELENGTH_M)
    return poly, spread, cycle, cycle_diff, len(temperature), len(distance), len(rows)


def analyze_check(m: dict, result) -> list[str]:
    poly, spread, cycle, cycle_diff, *counts = result
    p: list[str] = []
    _same(p, "rows parsed", counts, [m["rows"]] * 3)
    _check_poly(p, poly, m["poly_want"], m["poly_tol"], "poly3")
    mean, std = m["mean_std"]
    _close(p, "random-model mean", spread.mean, mean, 1e-12 * mean)
    _close(p, "random-model std", spread.std, std, 1e-6 * std)
    _check_cycle(p, cycle, *m["cycle"], *m["cycle_tol"], "cycle")
    amp, phase, base = m["cycle_diff"]
    s0_tol, amp_tol, phase_tol = m["cycle_diff_tol"]
    _close(p, "cycle-diff base distance", cycle_diff.offset_s0, base, s0_tol)
    _check_cycle(p, cycle_diff, amp * 1e-3, phase, amp_tol, phase_tol, "cycle-diff")
    return p


def items(manifest: dict) -> list[dict]:
    """The operation pool: one item per table set, or the one scale input."""
    return manifest.get("sets", [manifest])


def _no_expectations(item: dict) -> dict:
    return item


# name -> (prepare: item -> item with expectations, run, check,
#          per-op counts the traced run must reproduce)
WORKLOADS = {
    "tables-batch": (tables_prepare, tables_run, tables_check,
                     lambda m: {"fits": 3, "rows_parsed": 15 + 21 + 15,
                                "rows_generated": 15, "rows_written": 0, "draws": 0}),
    "simulate-scale": (_no_expectations, simulate_run, simulate_check,
                       lambda m: {"fits": 0, "rows_parsed": 0,
                                  "rows_generated": 2 * m["rows"],
                                  "rows_written": 2 * m["rows"], "draws": 0}),
    "analyze-scale": (analyze_prepare, analyze_run, analyze_check,
                      lambda m: {"fits": 3, "rows_parsed": 3 * m["rows"],
                                 "rows_generated": 0, "rows_written": 0, "draws": 0}),
}
