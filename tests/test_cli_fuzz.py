"""Mutated bundled fixtures through every subcommand.

Each example changes one or two cells of a bundled CSV, or one or two
numbers of a bundled JSON file, and runs the subcommands that read it,
with and without ``--json``.  Whatever the input, a run must end with
exit 0, 2 (input error) or 3 (numerical error), never with an uncaught
exception, and a run that exits 0 must print no ``nan`` or ``inf``.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import dataset
from errorkit.cli import main

CSV_CELLS = (
    "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "", "text",
    "1" * 40, "9" * 400,
)
JSON_NUMBERS = (0, -1, 1e308, 5e-324, 2**63)

# Commands per fixture; the input path replaces "{}".
COMMANDS = {
    "table1.csv": (
        ["random-model", "{}"],
        ["fit", "{}", "--model", "poly3"],
        ["fit", "{}", "--model", "poly3", "--raw-errors", "--emit-matrix"],
    ),
    "table2.csv": (
        ["random-model", "{}"],
        ["fit", "{}", "--model", "cycle", "--emit-matrix"],
        ["fit", "{}", "--model", "poly3"],
    ),
    "table3.csv": (
        ["random-model", "{}", "--column", "diff"],
        ["fit", "{}", "--model", "cycle-diff"],
    ),
    "table3_scenario.json": (
        ["simulate", "{}", "--classify"],
        ["simulate", "{}", "--regen-table3"],
    ),
    "budget_example.json": (
        ["propagate", "{}"],
        ["propagate", "{}", "--monte-carlo", "20000"],
    ),
}

NONFINITE_TOKEN = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


def _numeric_paths(node, path=()):
    """Paths to every number (not bool) in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if type(node) in (int, float):
            yield path
        return
    for key, child in items:
        yield from _numeric_paths(child, (*path, key))


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def mutated_fixture(draw):
    """(fixture name, mutated text) with one or two changed values."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    text = dataset.bundled_path(name).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 2))):
        if name.endswith(".json"):
            doc = json.loads(text)
            path = draw(st.sampled_from(list(_numeric_paths(doc))))
            _set(doc, path, draw(st.sampled_from(JSON_NUMBERS)))
            text = json.dumps(doc)
        else:
            lines = text.splitlines()
            # Line 0 is the units comment, line 1 the header.
            i = draw(st.integers(2, len(lines) - 1))
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(CSV_CELLS)
            )
            lines[i] = ",".join(cells)
            text = "\n".join(lines) + "\n"
    return name, text


@settings(max_examples=150)
@given(mutated_fixture())
def test_mutated_inputs_keep_the_exit_code_contract(case):
    name, text = case
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS[name]:
            argv = [str(path) if arg == "{}" else arg for arg in command]
            for extra in ([], ["--json"]):
                result = runner.invoke(main, argv + extra)
                context = f"{argv + extra}\n{text}\n{result.output}"
                assert result.exception is None or isinstance(
                    result.exception, SystemExit
                ), context
                assert result.exit_code in (0, 2, 3), context
                if result.exit_code == 0:
                    assert not NONFINITE_TOKEN.search(result.stdout), context


# Values put in place of one node of a bundled scenario or budget: wrong
# types, bounds and names, and containers and strings far longer than
# an error line.
NODE_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "distance", "random", 0, -1, 0.5,
                     1e308, 2**63, [], [1.0], {}, {"x": 1}]),
    st.integers(100, 3000).map(lambda n: [[10.0, 18.0]] * n),
    st.integers(100, 3000).map(lambda n: "x" * n),
    st.integers(10, 300).map(lambda n: {f"key{i}": i for i in range(n)}),
)
ERROR_LINE_MAX = 200


def _node_paths(node, path=()):
    """Paths to the root, every value under a key and the first three
    items of each list."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = list(enumerate(node))[:3]
    else:
        return
    for key, child in items:
        yield from _node_paths(child, (*path, key))


@st.composite
def replaced_node(draw):
    """(fixture name, text) of a bundled JSON file with one node replaced."""
    name = draw(st.sampled_from(["table3_scenario.json", "budget_example.json"]))
    doc = json.loads(dataset.bundled_path(name).read_text(encoding="utf-8"))
    path = draw(st.sampled_from(list(_node_paths(doc))))
    value = draw(NODE_VALUES)
    if path:
        _set(doc, path, value)
    else:
        doc = value
    return name, json.dumps(doc)


@settings(max_examples=150)
@given(replaced_node())
def test_an_input_error_is_one_short_line(case):
    name, text = case
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS[name]:
            argv = [str(path) if arg == "{}" else arg for arg in command]
            for extra in ([], ["--json"]):
                result = runner.invoke(main, argv + extra)
                context = f"{argv + extra}\n{text[:500]}\n{result.stderr[:500]}"
                assert isinstance(result.exception, (SystemExit, type(None))), context
                assert result.exit_code in (0, 2, 3), context
                if result.exit_code == 2:
                    assert result.stderr.count("\n") == 1, context
                    assert len(result.stderr) <= ERROR_LINE_MAX, context


def _deep_budget(depth):
    return '{"components": ' + "[" * depth + "1e999" + "]" * depth + "}"


def _long_key_scenario(value):
    return json.dumps({
        "true_value": 10.0,
        "sources": [{"name": "c", "kind": "additive-constant", "c_mm": 0.1}],
        "schedule": {"repeats": 3, "generator": "uniform-random", "seed": 1,
                     "ranges": {"x" * 3000: value}},
    })


@pytest.mark.parametrize("command, name, text", [
    ("propagate", "budget_example.json", _deep_budget(600)),
    ("simulate", "table3_scenario.json", _long_key_scenario([1.0, "a"])),
    ("simulate", "table3_scenario.json", _long_key_scenario([1.0, 1e999])),
], ids=["deep non-finite", "long key violation", "long key non-finite"])
def test_a_long_pointer_still_makes_one_short_line(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    for extra in ([], ["--json"]):
        result = CliRunner().invoke(main, [command, str(path), *extra])
        assert result.exit_code == 2, result.output
        assert result.stderr.count("\n") == 1, result.stderr[:500]
        assert len(result.stderr) <= ERROR_LINE_MAX, result.stderr[:500]
