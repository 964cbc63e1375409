"""Child process of the benchmark: makes a workload's inputs, or runs its
timed passes, and writes a JSON report for run.py.

    python3 perfbench/worker.py setup --workload W --seed N --dir D --trace T --report R
    python3 perfbench/worker.py run   --workload W --seed N --dir D --trace T --report R --seconds S

Set-up and the timed passes run in separate processes, so the peak
resident memory of ``run`` counts no set-up data.  ``run`` keeps starting
passes while the next one is expected to end within ``--seconds`` and
always runs at least one.  With ``--trace 1`` it then runs the same number
of seconds again with every program layer wrapped by spans.Tracer.  Pass
seconds are reported as measured and scaled to the reference speed of the
probe in speed.py; throughput and the tracing overhead use the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _phase(workload, seconds: float, traced: bool, first: int) -> list[dict]:
    passes = []
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        tracer, probe = Tracer(), Probe(workload.probe_kernel)
        if traced:
            layers.instrument(tracer)
        try:
            result = workload.run_pass(first + len(passes), probe)
        finally:
            tracer.restore()
        walls.append(time.perf_counter() - t0)
        passes.append({
            "traced": traced,
            "seconds": result.seconds,
            "probe_ms": 1000.0 * probe.median(),
            "scaled_seconds": probe.scale(result.seconds),
            "work": result.work,
            "ops": result.ops,
            "info": result.info,
            "layers": layers.layer_metrics(tracer.spans, result.files) if traced else None,
        })
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run(args) -> dict:
    import slicevuln.cli  # noqa: F401  imported here so that no pass pays for it

    workload = WORKLOADS[args.workload](args.seed, args.dir)
    passes = _phase(workload, args.seconds, False, 0)
    untraced = statistics.median(p["scaled_seconds"] for p in passes)
    report = {
        "throughput": statistics.median(p["work"] / p["scaled_seconds"] for p in passes),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _environment(),
    }
    if args.trace:
        traced = _phase(workload, args.seconds, True, len(passes))
        layer = _median_of([p["layers"] for p in traced])
        overhead = statistics.median(p["scaled_seconds"] for p in traced) - untraced
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_pct"] = 100.0 * overhead / untraced
        for sid in layers.STRATEGIES:  # deterministic for a seed: the last pass will do
            layer[f"experiments.f1_pct.{sid}"] = traced[-1]["info"].get(f"f1_pct.{sid}", 0.0)
        report["layers"] = layer
        passes += traced
    report["passes"] = [{k: p[k] for k in ("traced", "seconds", "probe_ms", "scaled_seconds",
                                          "work")} for p in passes]
    ops = [op for p in passes for op in p["ops"]]
    report["attempted"] = len(ops)
    report["failures"] = [op for op in ops if op is not None]
    report["info"] = passes[-1]["info"]
    return report


def setup(args) -> dict:
    args.dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    if args.trace:
        layers.instrument_setup(tracer)
    try:
        WORKLOADS[args.workload].setup(args.seed, args.dir)
    finally:
        tracer.restore()
    return {"layers": layers.setup_metrics(tracer.spans)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    report = run(args) if args.mode == "run" else setup(args)
    args.report.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
