"""Every ```python block of README.md runs, and prints what it says, and
every ``$ errorkit ...`` line of its ```text blocks prints the lines
that follow it.

A block runs in a namespace of its own.  A ``print(...)`` line ends with
a comment giving the line it prints, and the block must print exactly
those lines.  A command runs through click's ``CliRunner`` and must exit
0 and print exactly the lines up to the next blank line, ``$`` line or
the end of its block.  The file is found next to this test's directory,
so the test also runs against an installed errorkit from outside the
source tree.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from errorkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
# (command line, the lines it prints) of each "$ errorkit" line.
COMMANDS = [command
            for block in re.findall(r"^```text\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
            for command in re.findall(r"^\$ errorkit (.*)\n((?:(?!\$ ).+\n)*)", block,
                                      re.MULTILINE)]


def _promised(block):
    """The output lines that the comments of the block's print lines give."""
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.lstrip().startswith("print(") and "#" in line]


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs_and_prints_its_comments(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == _promised(block)


def test_the_readme_has_six_commands():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("command, printed", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_the_lines_that_follow_it(command, printed):
    result = CliRunner().invoke(main, shlex.split(command))
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == printed.splitlines()
