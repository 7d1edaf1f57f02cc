"""The cli-mix workload: the README commands on the bundled fixtures,
plus one schema violation and one singular fit.

One operation is one ``errorkit`` command in a fresh interpreter. The
documented commands must print the README text exactly; the variants
the README does not show (``--column diff``, ``--emit-matrix``,
``--json``, ``--classify``) are pinned to the output of the same
numbers. The error commands must exit 2 or 3 with an ``error:`` line on
standard error.
"""

from __future__ import annotations

import json

RANDOM_MODEL_TABLE1 = """\
n        15
mean     5.000050 MHz
std      7.88413e-05 MHz
rel. std 15.8 ppm
"""

RANDOM_MODEL_DIFF = """\
n        15
mean     8.001433 m
std      0.00632892 m
rel. std 791.0 ppm
"""

FIT_POLY3_MATRIX = """\
a +9.983251
b -0.013518
c -0.018601
d +0.000214
residual std 2.28486 ppm
dof 11
normal matrix:
  15  450  41500  2925000
  450  41500  2925000  256870000
  41500  2925000  256870000  2.19525e+10
  2925000  256870000  2.19525e+10  1.983295e+12
rhs: -1  4610  304500  42713000
"""

FIT_CYCLE_DIFF = """\
base distance 8.00001 m
amplitude 0.004994 m
phase     44.79 deg
residual std 4.249e-05 m
dof 12
"""

SIMULATE_REGEN_CLASSIFY = """\
n pairs  15
mean s1-s2 8.001433 m
std  s1-s2 0.00632892 m
30/30 values match
cycle: random (mean 1.42371 mm, std 6.33558 mm)
"""

PROPAGATE_MC = """\
total std 3.873 mm
monte-carlo std 3.877 mm (relative discrepancy 0.113%)
"""


def _cycle_json(stdout: str) -> list[str]:
    """``fit table2.csv --model cycle --json`` carries the README figures
    (amplitude 5.7235 mm, phase 255.14 deg, residual std 0.912 mm, dof 19)."""
    try:
        results = json.loads(stdout)["results"]
        got = ("%.4f" % results["coefficients"]["amplitude"],
               "%.2f" % results["coefficients"]["phase_deg"],
               "%.4g" % results["residual_std"], results["dof"],
               results["amplitude_unit"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report: {exc!r}"]
    want = ("5.7235", "255.14", "0.912", 19, "mm")
    return [] if got == want else [f"JSON report {got} != {want}"]


def commands(inputs: dict) -> list[tuple[list[str], int, object]]:
    """``(argv, exit code, expected stdout or a checking function)``;
    ``None`` for the error commands, whose stdout is not checked."""
    return [
        (["random-model", "table1.csv"], 0, RANDOM_MODEL_TABLE1),
        (["random-model", "table3.csv", "--column", "diff"], 0, RANDOM_MODEL_DIFF),
        (["fit", "table1.csv", "--model", "poly3", "--emit-matrix"], 0, FIT_POLY3_MATRIX),
        (["fit", "table2.csv", "--model", "cycle", "--json"], 0, _cycle_json),
        (["fit", "table3.csv", "--model", "cycle-diff"], 0, FIT_CYCLE_DIFF),
        (["simulate", "table3_scenario.json", "--regen-table3", "--classify"], 0,
         SIMULATE_REGEN_CLASSIFY),
        (["propagate", "budget_example.json", "--monte-carlo", "1000000",
          "--seed", "20260819"], 0, PROPAGATE_MC),
        (["simulate", inputs["bad_scenario"]], 2, None),
        (["fit", inputs["degenerate"], "--model", "cycle-diff"], 3, None),
    ]


def check(command, returncode: int, stdout: str, stderr: str) -> list[str]:
    argv, want_code, want_out = command
    problems = []
    if returncode != want_code:
        problems.append(f"{argv[0]} {argv[1]}: exit {returncode}, want {want_code}: "
                        f"{stderr.strip()[-300:]}")
    elif want_out is None:
        if not any(line.startswith("error:") for line in stderr.splitlines()):
            problems.append(f"{argv[0]} {argv[1]}: no error: line on stderr")
        if "Traceback" in stderr:
            problems.append(f"{argv[0]} {argv[1]}: traceback on stderr")
    elif callable(want_out):
        problems += want_out(stdout)
    elif stdout != want_out:
        problems.append(f"{' '.join(argv)}: stdout {stdout!r} != {want_out!r}")
    return problems


def expected_counts(inputs: dict) -> dict[str, float]:
    """Per-cycle counts the traced commands must produce."""
    return {
        # poly3, cycle, cycle-diff and the singular cycle-diff
        "fits": 4,
        # table1 twice, table3 three times (random-model --column diff,
        # fit cycle-diff, simulate --regen-table3), table2, degenerate.csv
        "rows_parsed": 15 * 2 + 15 * 3 + 21 + inputs["degenerate_rows"],
        "rows_generated": 15,
        "rows_written": 0,
        "draws": 1_000_000,
    }
