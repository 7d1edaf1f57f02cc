"""Seeded input generation for the benchmark workloads.

Every input a workload reads is written here, from the seed, before any
timing starts. The files are formatted by this module's own code, never
by errorkit's writers, so a change to those writers cannot change what
the read-side workloads parse. Each generator returns a manifest: the
file paths plus the generating parameters the output checks compare
against.

No generated input is non-finite, has a zero mean, or is otherwise one
of the known-bad inputs of the exit-code contract; a ``fail_ratio`` of 0
says nothing about how those are handled.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

WAVELENGTH_M = 20.0
TABLE1_TEMPS = [float(t) for t in range(-40, 101, 10)]
F0_MHZ = 5.0

# Noise of the perturbed table sets, chosen near the published residuals.
TABLE1_NOISE_PPM = 2.0
TABLE2_NOISE_MM = 0.3
# Noise of the scale series.
SCALE_TEMP_NOISE_PPM = 1.0
SCALE_DIST_NOISE_MM = 0.2
SCALE_LEG_NOISE_MM = 0.05

BUNDLED = ("table1.csv", "table2.csv", "table3.csv", "table3_scenario.json",
           "budget_example.json")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _cubic(coeffs, t):
    a, b, c, d = coeffs
    return a + t * (b + t * (c + t * d))


def _cycle_mm(amplitude_mm, phase, s):
    return amplitude_mm * np.sin(2.0 * math.pi * np.asarray(s) / WAVELENGTH_M + phase)


def _round_tenth_mm(x):
    return np.floor(np.asarray(x) * 1e4 + 0.5) / 1e4


def _budget_doc(stds):
    names = ("additive", "scale", "cycle", "resolution")
    units = ("mm", "ppm", "mm", "mm")
    return {
        "operating_point_m": 1000.0,
        "components": [
            {"name": n, "std": float(s), "unit": u,
             "sensitivity": "proportional" if u == "ppm" else "constant"}
            for n, s, u in zip(names, stds, units)
        ],
    }


def budget_total_mm(doc) -> float:
    """Covariance-law total of a generated budget, computed independently."""
    acc = 0.0
    for c in doc["components"]:
        coef = doc["operating_point_m"] * 1e-3 if c["unit"] == "ppm" else 1.0
        acc += (coef * c["std"]) ** 2
    return math.sqrt(acc)


# --- tables-batch -----------------------------------------------------------

def _table_set(rng: np.random.Generator, out: Path) -> dict:
    """One perturbed set shaped like the bundled tables."""
    out.mkdir(parents=True)
    # table1: cubic temperature error of a 5 MHz oscillator, whole-ppm rounded
    # by the workload before fitting.
    coeffs = [rng.uniform(5.0, 15.0), rng.uniform(-0.03, 0.0),
              rng.uniform(-0.03, -0.01), rng.uniform(1e-4, 3e-4)]
    t = np.array(TABLE1_TEMPS)
    r_ppm = _cubic(coeffs, t) + rng.normal(0.0, TABLE1_NOISE_PPM, t.size)
    freq = F0_MHZ * (1.0 + r_ppm * 1e-6)
    t1 = _write(out / "table1.csv",
                ["# units: condition=degC observed=MHz", "condition,observed"]
                + ["%g,%.6f" % (ti, fi) for ti, fi in zip(t, freq)])

    # table2: readings about 1 m apart against a reference standard.
    amp2, phase2 = rng.uniform(3.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
    reading = 6.0 + np.arange(21.0) + rng.uniform(0.0, 0.05, 21)
    err_mm = _cycle_mm(amp2, phase2, reading) + rng.normal(0.0, TABLE2_NOISE_MM, 21)
    reading_cells = ["%.4f" % s for s in reading]
    t2 = _write(out / "table2.csv",
                ["# units: condition=m observed=m reference=m",
                 "condition,observed,reference"]
                + ["%s,%s,%.4f" % (c, c, float(c) + e * 1e-3)
                   for c, e in zip(reading_cells, err_mm)])

    # table3 + scenario: 8 m differential pairs through a cycle error,
    # readings rounded to 0.1 mm.
    amp3, phase3 = rng.uniform(3.0, 7.0), rng.uniform(0.0, 2.0 * math.pi)
    s_ab = rng.choice(np.arange(5, 60), 15, replace=False).astype(float)
    s_ac = s_ab + 8.0
    s2 = _round_tenth_mm(s_ab + _cycle_mm(amp3, phase3, s_ab) * 1e-3)
    s1 = _round_tenth_mm(s_ac + _cycle_mm(amp3, phase3, s_ac) * 1e-3)
    t3 = _write(out / "table3.csv",
                ["# units: m", "s_ab,s_ac,s2,s1"]
                + ["%g,%g,%.4f,%.4f" % row for row in zip(s_ab, s_ac, s2, s1)])
    scenario = {
        "label": "two-leg-cycle",
        "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": amp3,
                     "wavelength_m": WAVELENGTH_M, "phase_rad": phase3}],
        "differential": {"pairs": [[a, b] for a, b in zip(s_ab, s_ac)],
                         "round_readings": True},
    }
    sc = _write(out / "scenario.json", [json.dumps(scenario, indent=1)])

    budget = _budget_doc(rng.uniform(0.5, 3.0, 4))
    bu = _write(out / "budget.json", [json.dumps(budget, indent=1)])
    return {
        "table1": t1, "table2": t2, "table3": t3, "scenario": sc, "budget": bu,
        "poly_coeffs": coeffs, "poly_r_ppm": r_ppm.tolist(),
        "cycle2": [amp2, phase2], "cycle3": [amp3, phase3],
        "pairs": [s_ab.tolist(), s_ac.tolist()],
        "budget_total_mm": budget_total_mm(budget),
        "published": False,
    }


def tables_batch(seed: int, out: Path, data_dir: Path, pool: int) -> dict:
    """Set 0 is the bundled tables verbatim; sets 1.. are seeded perturbations."""
    rng = _rng(seed, 1)
    first = out / "set00"
    first.mkdir(parents=True)
    for name in BUNDLED:
        shutil.copyfile(data_dir / name, first / name)
    sets = [{
        "table1": str(first / "table1.csv"), "table2": str(first / "table2.csv"),
        "table3": str(first / "table3.csv"),
        "scenario": str(first / "table3_scenario.json"),
        "budget": str(first / "budget_example.json"),
        "published": True,
    }]
    sets += [_table_set(rng, out / ("set%02d" % k)) for k in range(1, pool)]
    return {"sets": sets}


# --- simulate-scale ---------------------------------------------------------

def simulate_scale(seed: int, out: Path, rows: int) -> dict:
    """A repeated and a differential scenario of ``rows`` readings each."""
    rng = _rng(seed, 2)
    repeated = {
        "label": "scale-repeated",
        "true_value": round(float(rng.uniform(50.0, 150.0)), 3),
        "eps_abs_mm": 1e-3,
        "sources": [
            {"name": "constant", "kind": "additive-constant",
             "c_mm": round(float(rng.uniform(1.0, 3.0)), 4)},
            {"name": "temperature", "kind": "temperature-polynomial",
             "coeffs_ppm": [round(float(rng.uniform(-2.0, 2.0)), 4),
                            round(float(rng.uniform(0.2, 0.8)), 4),
                            round(float(rng.uniform(-0.02, 0.02)), 5)]},
            {"name": "noise", "kind": "gaussian-noise",
             "sigma_mm": round(float(rng.uniform(0.1, 0.5)), 4)},
        ],
        "schedule": {"repeats": rows, "generator": "uniform-random",
                     "ranges": {"temperature": [-10.0, 40.0]},
                     "seed": int(rng.integers(0, 2**31))},
    }
    s_ab = np.round(rng.uniform(5.0, 100.0, rows), 3)
    s_ac = np.round(s_ab + rng.uniform(2.0, 30.0, rows), 3)
    differential = {
        "label": "scale-differential",
        "eps_abs_mm": 1e-3,
        "sources": [
            {"name": "cycle", "kind": "cycle",
             "amplitude_mm": round(float(rng.uniform(3.0, 7.0)), 4),
             "wavelength_m": WAVELENGTH_M,
             "phase_rad": round(float(rng.uniform(0.0, 2.0 * math.pi)), 6)},
            {"name": "constant", "kind": "additive-constant",
             "c_mm": round(float(rng.uniform(1.0, 3.0)), 4)},
            {"name": "noise", "kind": "gaussian-noise",
             "sigma_mm": round(float(rng.uniform(0.02, 0.1)), 4)},
        ],
        "differential": {"pairs": [[a, b] for a, b in zip(s_ab.tolist(), s_ac.tolist())],
                         "round_readings": True},
    }
    return {
        "rows": rows,
        "repeated": _write(out / "repeated.json", [json.dumps(repeated)]),
        "differential": _write(out / "differential.json", [json.dumps(differential)]),
        "repeated_csv": str(out / "repeated_out.csv"),
        "differential_csv": str(out / "differential_out.csv"),
        "noise_seed": int(rng.integers(0, 2**31)),
    }


# --- analyze-scale ----------------------------------------------------------

def analyze_scale(seed: int, out: Path, rows: int) -> dict:
    """Three CSVs of ``rows`` rows: temperature, distance, differential."""
    rng = _rng(seed, 3)
    coeffs = [rng.uniform(5.0, 15.0), rng.uniform(-0.03, 0.0),
              rng.uniform(-0.03, -0.01), rng.uniform(1e-4, 3e-4)]
    temp = np.round(rng.uniform(-40.0, 100.0, rows), 4)
    r_ppm = _cubic(coeffs, temp) + rng.normal(0.0, SCALE_TEMP_NOISE_PPM, rows)
    freq_cells = ["%.9f" % f for f in F0_MHZ * (1.0 + r_ppm * 1e-6)]
    temp_csv = _write(out / "temperature.csv",
                      ["# units: condition=degC observed=MHz", "condition,observed"]
                      + ["%.4f,%s" % (t, f) for t, f in zip(temp, freq_cells)])

    amp, phase = rng.uniform(3.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
    reading = np.round(rng.uniform(2.0, 200.0, rows), 7)
    err_mm = _cycle_mm(amp, phase, reading) + rng.normal(0.0, SCALE_DIST_NOISE_MM, rows)
    dist_csv = _write(out / "distance.csv",
                      ["# units: condition=m observed=m reference=m",
                       "condition,observed,reference"]
                      + ["%.7f,%.7f,%.7f" % (s, s, s + e * 1e-3)
                         for s, e in zip(reading, err_mm)])

    amp_d, phase_d = rng.uniform(3.0, 7.0), rng.uniform(0.0, 2.0 * math.pi)
    base = 8.0
    s_ab = np.round(rng.uniform(5.0, 100.0, rows), 3)
    s_ac = s_ab + base
    noise = rng.normal(0.0, SCALE_LEG_NOISE_MM, (rows, 2))
    s2 = s_ab + (_cycle_mm(amp_d, phase_d, s_ab) + noise[:, 0]) * 1e-3
    s1 = s_ac + (_cycle_mm(amp_d, phase_d, s_ac) + noise[:, 1]) * 1e-3
    diff_csv = _write(out / "differential.csv",
                      ["# units: m", "s_ab,s_ac,s2,s1"]
                      + ["%.3f,%.3f,%.7f,%.7f" % row for row in zip(s_ab, s_ac, s2, s1)])
    return {
        "rows": rows,
        "temperature": temp_csv, "distance": dist_csv, "differential": diff_csv,
        "poly_coeffs": coeffs, "cycle": [amp, phase],
        "cycle_diff": [amp_d, phase_d, base],
        "observed_mhz": [float(f) for f in freq_cells],
    }


# --- cli-mix ----------------------------------------------------------------

def cli_mix(seed: int, out: Path) -> dict:
    """The two error-path inputs; the documented commands use the bundled data.

    ``bad_scenario.json`` violates the scenario schema (exit 2).
    ``degenerate.csv`` places every leg pair exactly one wavelength apart,
    so the differential cycle basis vanishes and the solve is singular
    (exit 3).
    """
    rng = _rng(seed, 4)
    bad = {"sources": [{"name": "cycle", "kind": "cycle",
                        "amplitude_mm": round(float(rng.uniform(1.0, 5.0)), 3),
                        "wobble_mm": 1.0}],
           "differential": {"pairs": [[10.0, 18.0]]}}
    s2 = np.round(rng.uniform(5.0, 60.0, 15), 4)
    lines = ["# units: m", "s_ab,s_ac,s2,s1"]
    lines += ["%.4f,%.4f,%.4f,%.4f" % (s, s + WAVELENGTH_M, s, s + WAVELENGTH_M)
              for s in s2]
    return {
        "bad_scenario": _write(out / "bad_scenario.json", [json.dumps(bad)]),
        "degenerate": _write(out / "degenerate.csv", lines),
        "degenerate_rows": len(s2),
    }
