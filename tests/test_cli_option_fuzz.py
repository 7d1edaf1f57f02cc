"""Edge values for every numeric command-line option.

The test walks ``errorkit.cli.main.commands`` and runs each ``FLOAT``,
``INT`` or ``IntRange`` option on the bundled fixtures with values at
and past the edges of a double, so an option added later is covered
without editing this file. The fixtures are good, so a run must exit 0
or 2 (the value is the user's), never 3, with no traceback, and a run
that exits 0 must print no ``nan`` or ``inf``.
"""

import click
import pytest
from click.testing import CliRunner

from errorkit.cli import main

from test_cli_fuzz import NONFINITE_TOKEN

FLOATS = ("0", "-0.0", "5e-324", "1e-320", "1e308", "inf", "-inf", "nan", "-1", str(2**63))
# The integral ones. No draw count between the ceiling's 10**9 and a few
# million is tried: --monte-carlo 10**9 is valid and runs for minutes.
INTEGERS = ("0", "-1", str(2**63))

# Fixture command lines each option is appended to, per command. A
# command with a numeric option must be listed here.
BASES = {
    "fit": (
        ("fit", "table1.csv", "--model", "poly3"),
        ("fit", "table2.csv", "--model", "cycle"),
        ("fit", "table3.csv", "--model", "cycle-diff"),
    ),
    "simulate": (("simulate", "table3_scenario.json", "--classify"),),
    # --seed only matters with draws; 10^4 is the smallest count allowed.
    "propagate": (("propagate", "budget_example.json", "--monte-carlo", "10000"),),
}

# A finite wavelength far beyond the readings' span (1e308, and 2**63
# too) leaves every phase equal: a degenerate design, so a numerical
# error by decision.
EXIT_3 = {
    (*base, "--wavelength", value)
    for base in BASES["fit"][1:]
    for value in ("1e308", str(2**63))
}


def _numeric_options():
    for name, command in sorted(main.commands.items()):
        for param in command.params:
            # FloatRange and IntRange are subclasses of these.
            if isinstance(param.type, click.types.FloatParamType):
                yield name, param.opts[0], FLOATS
            elif isinstance(param.type, click.types.IntParamType):
                yield name, param.opts[0], INTEGERS


CASES = [
    (*base, option, value)
    for name, option, values in _numeric_options()
    for base in BASES[name]
    for value in values
]


def test_the_walk_finds_the_numeric_options():
    options = {(name, option) for name, option, _ in _numeric_options()}
    assert options >= {
        ("fit", "--wavelength"), ("simulate", "--seed"), ("simulate", "--eps-abs"),
        ("propagate", "--monte-carlo"), ("propagate", "--seed"),
    }
    assert EXIT_3 <= set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_edge_values_keep_the_exit_code_contract(argv, extra):
    result = CliRunner().invoke(main, [*argv, *extra])
    context = f"{[*argv, *extra]}\n{result.output}"
    assert result.exception is None or isinstance(result.exception, SystemExit), context
    assert "Traceback" not in result.output, context
    if argv in EXIT_3:
        assert result.exit_code == 3, context
        assert result.stderr.startswith("error: singular system"), context
    else:
        assert result.exit_code in (0, 2), context
    if result.exit_code == 0:
        assert not NONFINITE_TOKEN.search(result.stdout), context
    else:
        assert result.stdout == "", context
