"""The five loaders run with the cyclic garbage collector paused.

The collector's state after a call is its state before, whether the
loader returns or raises; no collection runs during a 10^4-pair
scenario or a 10^4-row gappy series; and each result equals the one
read with the collector on.
"""

import dataclasses
import gc
import json

import pytest

from errorkit import budget, dataset, simulate

from test_dataset import _scale_rows, _write_rows

LOADERS = {
    "load_series": (dataset.load_series, "table1.csv"),
    "load_differential": (dataset.load_differential, "table3.csv"),
    "load_differential_pairs": (dataset.load_differential_pairs, "table3.csv"),
    "load_scenario": (simulate.load_scenario, "table3_scenario.json"),
    "load_budget": (budget.load_budget, "budget_example.json"),
}


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """The collector switched on or off for the test, as it was after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _bad_csv(header):
    return f"# units: m\n{header}\n1.0,2.0,3.0,4.0\n2.0,text,3.0,4.0\n".encode()


# (loader, file name, content): each one raises its loader's ValueError.
RAISING = {
    "series malformed row": (dataset.load_series, "s.csv",
                             _bad_csv("condition,observed,reference,x")),
    "differential malformed row": (dataset.load_differential, "d.csv",
                                   _bad_csv("s_ab,s1,s2,s_ac")),
    "pairs malformed row": (dataset.load_differential_pairs, "d.csv",
                            _bad_csv("s1,s_ab,s_ac,s2")),
    "series not UTF-8": (dataset.load_series, "s.csv",
                         b"# units: m\ncondition,observed\n1,2\xff\n"),
    "scenario schema violation": (simulate.load_scenario, "s.json", b'{"sources": []}'),
    "budget schema violation": (budget.load_budget, "b.json", b'{"components": {}}'),
    "scenario nested too deeply": (simulate.load_scenario, "s.json",
                                   b"[" * 10**5 + b"]" * 10**5),
    "budget nested too deeply": (budget.load_budget, "b.json",
                                 b"[" * 10**5 + b"]" * 10**5),
    "scenario not UTF-8": (simulate.load_scenario, "s.json", b'{"label": "caf\xe9"}'),
    "budget not UTF-8": (budget.load_budget, "b.json", b'{"components": ["\xe9"]}'),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_state_is_kept_after_a_load(collector, name):
    load, fixture = LOADERS[name]
    load(dataset.bundled_path(fixture))
    assert gc.isenabled() is collector


@pytest.mark.parametrize("case", sorted(RAISING))
def test_state_is_kept_after_a_raising_load(collector, tmp_path, case):
    load, name, content = RAISING[case]
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ValueError):
        load(path)
    assert gc.isenabled() is collector


def _value(result):
    """A loaded result as values that compare with ``==``: readings and
    leg pairs as the lists of their columns, in a scenario too."""
    if isinstance(result, (dataset.DifferentialRows, dataset.LegPairs)):
        return [c.tolist() for c in result.columns]
    if isinstance(result, simulate.Scenario):
        return {f.name: _value(getattr(result, f.name)) for f in dataclasses.fields(result)}
    return result


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_result_is_the_same_with_the_collector_on_or_off(name):
    load, fixture = LOADERS[name]
    was = gc.isenabled()
    try:
        gc.enable()
        on = load(dataset.bundled_path(fixture))
        gc.disable()
        off = load(dataset.bundled_path(fixture))
    finally:
        (gc.enable if was else gc.disable)()
    assert _value(on) == _value(off)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_name_and_docstring_are_the_loaders(name):
    load, _ = LOADERS[name]
    assert load.__name__ == name
    assert load.__doc__.startswith(("Load", "Return"))
    assert load.__wrapped__.__doc__ == load.__doc__


def _large_inputs(tmp_path):
    doc = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
    doc["differential"]["pairs"] = [[10.0 + i % 997 / 4, 18.0 + i % 997 / 4]
                                    for i in range(10**4)]
    scenario = tmp_path / "pairs.json"
    scenario.write_text(json.dumps(doc))
    rows = _scale_rows(10**4)
    rows[9998][2] = ""
    series = _write_rows(tmp_path / "gappy.csv", "condition,observed,reference", rows)
    return ((lambda: len(simulate.load_scenario(scenario).differential_pairs)),
            (lambda: len(dataset.load_series(series))))


@pytest.mark.parametrize("which", [0, 1], ids=["10^4 pairs", "10^4-row gappy series"])
def test_no_collection_runs_during_a_large_load(tmp_path, which):
    load_and_count = _large_inputs(tmp_path)[which]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        rows = load_and_count()
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert rows == 10**4
    assert starts == []
