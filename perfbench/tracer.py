"""Spans around errorkit's public functions, and what they add up to.

The benchmark records spans from its own files: it replaces each target
function at the attribute its callers look up, so neither errorkit nor
the command line front end needs any tracing code. The lookup site
matters:

* ``errorkit.regression.solve``: ``regression`` imports ``solve`` by
  name, so patching ``errorkit.linsolve.solve`` would record nothing.
* ``jsonschema.validate``: ``load_scenario`` and ``load_budget`` import
  ``jsonschema`` inside the function and look ``validate`` up per call.
* the other targets are module attributes that both the benchmark and
  ``errorkit.cli`` reach through the module (``dataset.load_series``).

A span is ``[name, start, end, parent, op, rows]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation
number, ``rows`` the rows or draws the call handled. Garbage
collections are spans too (``runtime.gc``), nested under whatever call
triggered them. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import re
import statistics
from time import perf_counter

GC = "runtime.gc"
CLI_MAIN = "cli.main"


def _len_result(args, kwargs, result):
    return len(result)


TARGETS = (
    ("errorkit.dataset", "load_series", "dataset.load_series", _len_result),
    ("errorkit.dataset", "load_differential", "dataset.load_differential", _len_result),
    ("errorkit.dataset", "to_error_samples", "dataset.to_error_samples", _len_result),
    ("errorkit.dataset", "write_series_csv", "dataset.write_series_csv",
     lambda a, k, r: len(a[0])),
    ("errorkit.dataset", "write_differential_csv", "dataset.write_differential_csv",
     lambda a, k, r: len(a[1])),
    ("errorkit.simulate", "load_scenario", "simulate.load_scenario", None),
    ("errorkit.simulate", "simulate_repeated", "simulate.simulate_repeated",
     lambda a, k, r: len(r.series)),
    ("errorkit.simulate", "simulate_differential", "simulate.simulate_differential",
     lambda a, k, r: len(r.rows)),
    ("errorkit.simulate", "classify_effects", "simulate.classify_effects", None),
    ("errorkit.regression", "fit_polynomial", "regression.fit_polynomial", None),
    ("errorkit.regression", "fit_cycle_direct", "regression.fit_cycle_direct", None),
    ("errorkit.regression", "fit_cycle_differential",
     "regression.fit_cycle_differential", None),
    ("errorkit.regression", "random_model", "regression.random_model", None),
    ("errorkit.regression", "solve", "linsolve.solve", None),
    ("errorkit.budget", "load_budget", "budget.load_budget", None),
    ("errorkit.budget", "total_std", "budget.total_std", None),
    ("errorkit.budget", "monte_carlo_std", "budget.monte_carlo_std",
     lambda a, k, r: int(a[1] if len(a) > 1 else k["n"])),
    ("jsonschema", "validate", "jsonschema.validate", None),
)

FITS = ("regression.fit_polynomial", "regression.fit_cycle_direct",
        "regression.fit_cycle_differential")


class Tracer:
    """Collects spans while ``enabled``; installed wrappers cost one test
    of that flag when it is off."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, rows=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if rows is not None:
                span[5] = rows(args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._open(GC)
        elif self.stack and self.spans[self.stack[-1]][0] == GC:
            self._close(self.spans[self.stack[-1]])

    def install(self) -> None:
        for module_name, attr, name, rows in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), rows))
        gc.callbacks.append(self._on_gc)


def dump(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path, op: int, base: int) -> list[list]:
    """A child's spans, tagged with operation ``op`` and renumbered to
    follow ``base`` spans already collected."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            span[3] = span[3] + base if span[3] >= 0 else -1
            span[4] = op
            spans.append(span)
    return spans


def totals(spans: list[list], speed: list[float]) -> dict[str, list]:
    """``{key: [self seconds, calls, rows]}``. A span's self time is its
    duration minus that of its direct children, times ``speed[op]``, the
    rescaling of its operation. Schema validation is keyed by its caller,
    as ``jsonschema.validate<-simulate.load_scenario``."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    out: dict[str, list] = {}
    for i, (name, start, end, parent, op, rows) in enumerate(spans):
        key = name
        if name == "jsonschema.validate" and parent >= 0:
            key = f"{name}<-{spans[parent][0]}"
        entry = out.setdefault(key, [0.0, 0, 0])
        entry[0] += (end - start - child[i]) * speed[op]
        entry[1] += 1
        entry[2] += rows
    return out


# --- -X importtime ------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")
THIRD_PARTY = ("numpy", "jsonschema", "click")


def import_times_ms(stderr: str) -> dict[str, float]:
    """Per-package import cost from ``-X importtime`` output.

    numpy, jsonschema and click: the cumulative time of the package's
    first import. errorkit: the cumulative time of its outermost modules
    minus the third-party packages imported inside them, so the four
    figures do not overlap.
    """
    out = {name: 0.0 for name in (*THIRD_PARTY, "errorkit")}
    seen = set()
    outer_depth = None  # depth of the errorkit entry being attributed
    # importtime prints a module after its children, so walk backwards:
    # a parent then comes before its children.
    for line in reversed(stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative_ms = int(m.group(2)) / 1000.0
        depth = len(m.group(3)) // 2
        name = m.group(4)
        top = name.split(".")[0]
        if outer_depth is not None and depth <= outer_depth:
            outer_depth = None
        if top == "errorkit" and outer_depth is None:
            outer_depth = depth
            out["errorkit"] += cumulative_ms
        elif name in THIRD_PARTY and name not in seen:
            seen.add(name)
            out[name] += cumulative_ms
            if outer_depth is not None:
                out["errorkit"] -= cumulative_ms
    return out


def median_imports(samples: list[dict[str, float]]) -> dict[str, float]:
    if not samples:
        return {name: 0.0 for name in (*THIRD_PARTY, "errorkit")}
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


# --- per-layer metrics ----------------------------------------------------------

SELF, CALLS, ROWS = 0, 1, 2
PARSERS = ("dataset.load_series", "dataset.load_differential")
SIMULATORS = ("simulate.simulate_repeated", "simulate.simulate_differential")
WRITERS = ("dataset.write_series_csv", "dataset.write_differential_csv")
# Counts checked against the workload's expectation: (field, span names).
COUNTS = {
    "fits": (CALLS, FITS),
    "rows_parsed": (ROWS, PARSERS),
    "rows_generated": (ROWS, SIMULATORS),
    "rows_written": (ROWS, WRITERS),
    "draws": (ROWS, ("budget.monte_carlo_std",)),
}


def _sum(tot: dict, field: int, *names: str):
    return sum(tot[n][field] for n in names if n in tot)


def layer_metrics(tot: dict, ops: int, imports: dict, interp_ms: float,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced operation, from rescaled span totals."""

    def per_op_ms(*names):
        return _sum(tot, SELF, *names) * 1e3 / ops

    def per_unit(scale, name, count):
        return _sum(tot, SELF, name) * scale / count if count else 0.0

    def us_per_row(name):
        return per_unit(1e6, name, _sum(tot, ROWS, name))

    solve_calls = _sum(tot, CALLS, "linsolve.solve")
    draws = _sum(tot, ROWS, "budget.monte_carlo_std")
    return {
        "cli.interp_start_ms": (interp_ms, "ms"),
        "cli.import.numpy_ms": (imports["numpy"], "ms"),
        "cli.import.jsonschema_ms": (imports["jsonschema"], "ms"),
        "cli.import.click_ms": (imports["click"], "ms"),
        "cli.import.errorkit_ms": (imports["errorkit"], "ms"),
        "cli.command_ms": (per_op_ms(CLI_MAIN), "ms"),
        "simulate.load_scenario.self_ms": (per_op_ms("simulate.load_scenario"), "ms"),
        "simulate.validate_ms": (
            per_op_ms("jsonschema.validate<-simulate.load_scenario"), "ms"),
        "simulate.simulate_repeated.us_per_row": (
            us_per_row("simulate.simulate_repeated"), "us/row"),
        "simulate.simulate_differential.us_per_row": (
            us_per_row("simulate.simulate_differential"), "us/row"),
        "simulate.classify_effects.self_ms": (
            per_op_ms("simulate.classify_effects"), "ms"),
        "simulate.rows_generated": (_sum(tot, ROWS, *SIMULATORS) / ops, "rows/op"),
        "dataset.load_series.us_per_row": (us_per_row("dataset.load_series"), "us/row"),
        "dataset.load_differential.us_per_row": (
            us_per_row("dataset.load_differential"), "us/row"),
        "dataset.to_error_samples.us_per_row": (
            us_per_row("dataset.to_error_samples"), "us/row"),
        "dataset.write_series_csv.us_per_row": (
            us_per_row("dataset.write_series_csv"), "us/row"),
        "dataset.write_differential_csv.us_per_row": (
            us_per_row("dataset.write_differential_csv"), "us/row"),
        "dataset.rows_parsed": (_sum(tot, ROWS, *PARSERS) / ops, "rows/op"),
        "dataset.rows_written": (_sum(tot, ROWS, *WRITERS) / ops, "rows/op"),
        "regression.fit.self_ms": (per_op_ms(*FITS), "ms"),
        "regression.random_model.self_ms": (per_op_ms("regression.random_model"), "ms"),
        "linsolve.solve.calls": (solve_calls / ops, "calls/op"),
        "linsolve.solve.us_per_call": (per_unit(1e6, "linsolve.solve", solve_calls),
                                       "us/call"),
        "budget.load_budget.self_ms": (per_op_ms("budget.load_budget"), "ms"),
        "budget.validate_ms": (per_op_ms("jsonschema.validate<-budget.load_budget"), "ms"),
        "budget.monte_carlo_std.ns_per_draw": (
            per_unit(1e9, "budget.monte_carlo_std", draws), "ns/draw"),
        "budget.draws": (draws / ops, "draws/op"),
        "runtime.gc_ms_per_op": (per_op_ms(GC), "ms"),
        "runtime.gc_collections": (_sum(tot, CALLS, GC) / ops, "count/op"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def count_problems(tot: dict, ops: int, expected: dict[str, float]) -> list[str]:
    """Counts that must come out exactly: solves against fits performed,
    and rows and draws against what the workload's inputs hold."""
    problems = []
    solves, fits = _sum(tot, CALLS, "linsolve.solve"), _sum(tot, CALLS, *FITS)
    if solves != fits:
        problems.append(f"linsolve.solve calls {solves} != fits {fits}")
    for key, per_op in expected.items():
        field, names = COUNTS[key]
        got, want = _sum(tot, field, *names), per_op * ops
        if got != round(want):
            problems.append(f"{key}: traced {got} over {ops} ops, expected {want:g}")
    return problems
