"""Benchmark child process: a set-up probe or the measured loop.

    python3 perfbench/worker.py CONFIG_JSON

``run.py`` writes the config. In ``setup`` mode the process imports
errorkit (``errorkit.cli`` for cli-mix), runs one operation and exits;
its wall time, spawn to exit, is one set-up sample. In ``loop`` mode it
runs one untimed warm-up operation, then operations one at a time (one
client, closed loop) until the time is up, always ending on a whole
pass over the workload's pool of operations, and writes what it
measured to the config's ``out`` path.

With tracing on, passes alternate between untraced and traced, so the
tracing overhead is measured under the same machine conditions.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

import calib
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


class Loop:
    """Bookkeeping shared by the in-process and command-line loops."""

    def __init__(self, cfg: dict, pool: int, probe, reference: float, every: int):
        self.cfg = cfg
        self.pool = pool
        self.probe = probe
        self.reference = reference
        self.every = every
        self.times: list[float] = []
        self.probes: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.problems: list[str] = []

    def passes(self):
        """Yield ``(op index, traced)`` until the run has lasted
        ``seconds``, has ``min_ops`` operations and (traced) both kinds of
        pass, stopping only between passes."""
        cfg = self.cfg
        start = perf_counter()
        i = 0
        while True:
            traced = bool(cfg["trace"]) and (i // self.pool) % 2 == 1
            yield i, traced
            i += 1
            if i % self.pool:
                continue
            passes = i // self.pool
            if (perf_counter() - start >= cfg["seconds"] and i >= cfg["min_ops"]
                    and passes >= (2 if cfg["trace"] else 1)):
                return

    def record(self, seconds: float, traced: bool, problems: list[str]) -> None:
        """Keep one operation's time and check result, and after every
        ``every``-th operation probe the machine's speed."""
        if len(self.times) % self.every == 0:
            self.probes.append(self.probe())
        self.times.append(seconds)
        self.traced.append(traced)
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:5]

    def result(self, maxrss_kb: int, spans: list, imports: list,
               expected: dict) -> dict:
        """What run.py needs. Span self times are totalled with each span
        rescaled like its operation's time (see calib.py)."""
        speed = calib.rescale([1.0] * len(self.times), self.probes, self.reference,
                              self.every)
        return {
            "times": self.times, "probes": self.probes,
            "probe_reference_s": self.reference, "probe_every": self.every,
            "traced": self.traced,
            "failed": self.failed, "problems": self.problems, "maxrss_kb": maxrss_kb,
            "totals": tracer.totals(spans, speed), "imports": imports,
            "expected_per_op": expected,
        }


def inproc(cfg: dict) -> dict | None:
    import inproc as workloads

    prepare, run, check, counts = workloads.WORKLOADS[cfg["workload"]]
    raw = workloads.items(cfg["manifest"])
    if cfg["mode"] == "setup":
        run(raw[0])
        return None
    items = [prepare(item) for item in raw]
    t = tracer.Tracer()
    if cfg["trace"]:
        t.install()
    loop = Loop(cfg, len(items), calib.probe, calib.PROBE_REFERENCE_S, 1)
    warm = check(items[0], run(items[0]))
    loop.problems.extend(f"warm-up: {p}" for p in warm[:3])
    for i, traced in loop.passes():
        item = items[i % len(items)]
        t.op = i
        t.enabled = traced
        start = perf_counter()
        try:
            result = run(item)
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = perf_counter() - start
            t.enabled = False
            loop.record(elapsed, traced, [f"op {i}: {exc!r}"])
            continue
        elapsed = perf_counter() - start
        t.enabled = False
        loop.record(elapsed, traced, check(item, result))
        del result
    if cfg["trace"]:
        tracer.dump(t.spans, cfg["spans_out"])
    return loop.result(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       t.spans, [], counts(cfg["manifest"]))


def cli(cfg: dict) -> dict | None:
    import climix

    commands = climix.commands(cfg["manifest"])
    if cfg["mode"] == "setup":
        import errorkit.cli

        argv, _code, _out = commands[0]
        errorkit.cli.main(args=argv, prog_name="errorkit", standalone_mode=False)
        return None
    env = dict(os.environ)
    warm = subprocess.run([sys.executable, "-m", "errorkit.cli", *commands[0][0]],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    # The spawn probe costs most of a command, so it runs after every other one.
    loop = Loop(cfg, len(commands), calib.spawn_probe, calib.SPAWN_REFERENCE_S, 2)
    loop.problems.extend(f"warm-up: {p}" for p in climix.check(
        commands[0], warm.returncode, warm.stdout, warm.stderr))
    imports = []
    spans: list = []
    spans_dir = cfg["spans_out"] + ".d"
    for i, traced in loop.passes():
        command = commands[i % len(commands)]
        if traced:
            os.makedirs(spans_dir, exist_ok=True)
            spans_file = os.path.join(spans_dir, "op%06d.jsonl" % i)
            argv = [sys.executable, "-X", "importtime",
                    os.path.join(HERE, "cli_child.py"), spans_file, *command[0]]
        else:
            argv = [sys.executable, "-m", "errorkit.cli", *command[0]]
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start
        stderr = proc.stderr
        if traced:
            imports.append(tracer.import_times_ms(stderr))
            stderr = "\n".join(line for line in stderr.splitlines()
                               if not line.startswith("import time:"))
            spans += tracer.load_spans(spans_file, op=i, base=len(spans))
            os.remove(spans_file)
        loop.record(elapsed, traced, climix.check(command, proc.returncode,
                                                  proc.stdout, stderr))
    if cfg["trace"]:
        os.rmdir(spans_dir)
        tracer.dump(spans, cfg["spans_out"])
    per_pass = climix.expected_counts(cfg["manifest"])
    return loop.result(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                       spans, imports,
                       {k: v / len(commands) for k, v in per_pass.items()})


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    result = (cli if cfg["workload"] == "cli-mix" else inproc)(cfg)
    if result is not None:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    main()
