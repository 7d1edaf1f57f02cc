"""Machine-speed probes, and times rescaled to a reference speed.

On a shared machine the speed of the same code drifts by a factor of
about 1.5 over a few seconds, and CPU time drifts with wall time, so it
is not scheduling. Raw wall times of two runs of the same code then
differ by more than any useful regression bound. The benchmark therefore
runs a fixed probe next to every timed operation and reports times
rescaled to the speed at which the probe takes its reference time:

    reported = measured * reference / probe time nearby

Two probes, matched to what they rescale:

* ``probe``: a pure-Python loop, next to in-process operations;
* ``spawn_probe``: a child interpreter that imports errorkit's three
  dependencies, next to commands and set-up interpreters. Start-up and
  import cost drift unlike pure Python (file reads, page cache), and a
  bare ``python -c pass`` tracks them worse.

Neither touches errorkit, so a change to errorkit moves the rescaled
times exactly as it moves the raw ones. The raw probe time of each run
is reported as the per-layer metric ``runtime.probe_ms``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

# Probe times at the fast end of the drift on the machine the baseline in
# spec.json was measured on (x86_64, 2 cores, Python 3.11).
PROBE_REFERENCE_S = 0.002
SPAWN_REFERENCE_S = 0.2
SPAWN_PROBE_CODE = "import numpy, jsonschema, click"
# Probes on each side of an operation whose median rescales it.
WINDOW = 2


def probe() -> float:
    """Seconds taken by a fixed mix of formatting, parsing, hashing and
    float arithmetic, the kind of interpreter work errorkit does per row."""
    start = perf_counter()
    table = {}
    for i in range(3000):
        cell = "%.6f" % (i * 0.37)
        value = float(cell)
        table[cell] = (value, value * value)
    sum(a + b for a, b in table.values())
    return perf_counter() - start


def spawn_probe() -> float:
    """Seconds taken by an interpreter that imports numpy, jsonschema and
    click, then exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE_CODE], check=True, timeout=60)
    return perf_counter() - start


def rescale(times: list[float], probes: list[float], reference: float,
            every: int = 1) -> list[float]:
    """Each time rescaled by the median probe of its neighbourhood;
    ``probes[k]`` was taken after operation ``k * every``."""
    out = []
    for i, t in enumerate(times):
        k = i // every
        near = probes[max(0, k - WINDOW): k + WINDOW + 1]
        out.append(t * reference / statistics.median(near))
    return out
