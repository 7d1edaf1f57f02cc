"""Every ```python block of README.md runs, and prints what it says.

A block runs in a namespace of its own.  A ``print(...)`` line ends with
a comment giving the line it prints, and the block must print exactly
those lines.  The file is found next to this test's directory, so the
test also runs against an installed errorkit from outside the source
tree.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def _promised(block):
    """The output lines that the comments of the block's print lines give."""
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(") and "#" in line]


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs_and_prints_its_comments(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == _promised(block)
