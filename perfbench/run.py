"""errorkit benchmark: four seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from anywhere inside a source checkout; the package is imported from
``src/`` (``PYTHONPATH=src``), since no console script need be installed.
Workloads, their operations and why each exists are described in
``perfbench/spec.json``, which also sets the sizes this script uses.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics (``setup_s``, ``op_p50_ms``, ``op_tail_ms``,
``ops_per_s``, ``peak_rss_mb``); with ``--trace 1`` it carries the
per-layer metrics of a separate traced run instead. ``attempted`` and
``failed`` count the operations run and the ones that errored, exited
with the wrong code or failed their output check (the fail ratio is
their quotient). Every input is generated from ``--seed`` before timing
starts; ``--smoke`` runs every workload at tiny sizes, traced and
untraced, and checks that every metric is emitted and every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import tracer  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; its wall time and the finished process."""
    start = perf_counter()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, **kwargs)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        detail = proc.stderr if isinstance(proc.stderr, str) else ""
        raise BenchmarkError(f"{' '.join(argv[:4])}... exited {proc.returncode}: "
                             f"{detail.strip()[-2000:]}")
    return elapsed, proc


def generate(workload: str, seed: int, out: Path, size: dict) -> dict:
    import gen

    if workload == "cli-mix":
        return gen.cli_mix(seed, out)
    if workload == "tables-batch":
        return gen.tables_batch(seed, out, SRC / "errorkit" / "data", size["table_sets"])
    if workload == "simulate-scale":
        return gen.simulate_scale(seed, out, size["scale_rows"])
    return gen.analyze_scale(seed, out, size["scale_rows"])


def _worker(cfg: dict, work: Path, *, importtime: bool = False):
    path = work / ("worker-%s.json" % cfg["mode"])
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            str(HERE / "worker.py"), str(path)]
    return _spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: dict) -> dict:
    spec = SPEC["workloads"][workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        manifest = generate(workload, seed, work, size)
        cfg = {"workload": workload, "manifest": manifest, "seconds": seconds,
               "trace": int(trace), "min_ops": size["min_ops"][workload],
               "out": str(work / "result.json"),
               "spans_out": str(WORK / f"spans-{workload}-seed{seed}.jsonl")}
        setup_s, imports = [], []
        if not trace or workload != "cli-mix":
            before = calib.spawn_probe()
            for _ in range(size["setup_repeats"]):
                elapsed, proc = _worker(dict(cfg, mode="setup"), work, importtime=trace)
                after = calib.spawn_probe()
                # Rescaled by the spawn probes just before and after.
                setup_s.append(elapsed * calib.SPAWN_REFERENCE_S / ((before + after) / 2.0))
                before = after
                if trace:
                    imports.append(tracer.import_times_ms(proc.stderr))
        _worker(dict(cfg, mode="loop"), work)
        res = json.loads(Path(cfg["out"]).read_text(encoding="utf-8"))
        if trace:
            interp = statistics.median(_spawn([sys.executable, "-c", "pass"])[0] * 1e3
                                       for _ in range(size["setup_repeats"]))
            return _traced_result(res, imports, interp)
        return _result(spec, res, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _result(spec: dict, res: dict, setup_s: list[float]) -> dict:
    times = calib.rescale(res["times"], res["probes"], res["probe_reference_s"],
                          res["probe_every"])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (_percentile(times, spec["tail_percentile"]) * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    return _line(res, [], metrics)


def _traced_result(res: dict, setup_imports: list, interp_ms: float) -> dict:
    times = calib.rescale(res["times"], res["probes"], res["probe_reference_s"],
                          res["probe_every"])
    on = [t for t, flag in zip(times, res["traced"]) if flag]
    off = [t for t, flag in zip(times, res["traced"]) if not flag]
    overhead = (statistics.median(on) / statistics.median(off) - 1.0) * 100.0
    # cli-mix imports come from its traced commands, the others' from set-up;
    # both are rescaled by the loop's median probe. interp_ms stays raw: it
    # is the floor under every command, and under the spawn probe too.
    probe_s = statistics.median(res["probes"])
    speed = res["probe_reference_s"] / probe_s
    imports = {name: ms * speed for name, ms in
               tracer.median_imports(res["imports"] or setup_imports).items()}
    problems = tracer.count_problems(res["totals"], len(on), res["expected_per_op"])
    metrics = tracer.layer_metrics(res["totals"], len(on), imports, interp_ms, overhead)
    metrics["runtime.probe_ms"] = (probe_s * 1e3, "ms")
    return _line(res, problems, metrics)


def _line(res: dict, problems: list[str], metrics: dict) -> dict:
    for problem in res["problems"] + problems:
        print("check failed: " + problem, file=sys.stderr)
    return {
        "correct": res["failed"] == 0 and not res["problems"] and not problems,
        "attempted": len(res["times"]),
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: every check
    passes and exactly the metrics BENCHMARK.json names are emitted, with
    its units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {trace: {m["name"]: m["unit"] for m in declared[key]}
              for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    bad = 0
    for key, names in (("workloads", SPEC["workloads"]), ("end_to_end", SPEC["end_to_end"]),
                       ("per_layer", SPEC["layer_map"])):
        if [m["name"] for m in declared[key]] != list(names):
            print(f"FAIL BENCHMARK.json and spec.json list different {key}")
            bad += 1
    for workload in SPEC["workloads"]:
        for trace in (False, True):
            line = run_workload(workload, 1, 0.0, trace, SPEC["sizes"]["smoke"])
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            wrong = sorted(n for n in wanted[trace].keys() | got.keys()
                           if wanted[trace].get(n) != got.get(n))
            ok = line["correct"] and not wrong
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={int(trace)} "
                  f"ops={line['attempted']} failed={line['failed']}"
                  + (f" missing, unexpected or wrong unit: {wrong}" if wrong else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "errorkit" / "__init__.py").is_file():
        print(f"error: errorkit sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        size = SPEC["sizes"]["full"]
        if args.workload == "all":
            for workload in SPEC["workloads"]:
                line = run_workload(workload, args.seed, args.seconds,
                                    bool(args.trace), size)
                print(workload, json.dumps(line))
            return 0
        line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            size)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
