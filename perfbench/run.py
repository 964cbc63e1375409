"""slicevuln benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload desk-strategies --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 42 --seconds 25 [--trace 1]

Run from the root of a checkout.  For each workload the inputs are made
from the seed in child processes (several times, to time set-up), then a
fresh child runs timed passes for --seconds and checks every output.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones (setup_s, peak_rss_mb, throughput); with --trace 1 they are the
per-layer ones plus the tracing overhead.  Lines before it, each starting
with '#', give the environment, the passes, and what failed.  --all runs
every workload and prints one such object per workload.

Only the standard library is used here; the program is imported in the
children.  The BLAS thread variables are set to 1 for the children unless
the caller set them.  Times in the metrics are scaled to the reference
speed of the probe in speed.py, sampled around every timed call; the '#'
lines give them as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import UNITS as LAYER_UNITS  # noqa: E402
from speed import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "items/s"}
# Set-up runs at least SETUP_MIN times and, while the set-ups so far took
# under SETUP_BUDGET_S, up to SETUP_MAX times: short set-ups are noisy.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    found = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        env.setdefault(v, "1")
    return env, found


def _child(argv: list[str], env: dict, timeout: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{argv[0]} did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; returns the result object."""
    start = time.perf_counter()
    env, found = _child_env()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed), "--dir", str(work),
              "--trace", str(trace)]
    try:
        setup_times, setup_scaled, setup_layers = [], [], []
        while len(setup_times) < SETUP_MIN or (
                len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S):
            i = len(setup_times)
            shutil.rmtree(work, ignore_errors=True)
            report = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}-setup{i}.json"
            probe = Probe()
            for _ in range(3):
                probe.sample()
            t0 = time.perf_counter()
            _child(["setup", *common, "--report", str(report)], env, 60)
            setup_times.append(time.perf_counter() - t0)
            for _ in range(3):
                probe.sample()
            setup_scaled.append(probe.scale(setup_times[-1]))
            setup_layers.append(json.loads(report.read_text(encoding="utf-8"))["layers"])
            report.unlink()
        report = work / "run-report.json"
        _child(["run", *common, "--report", str(report), "--seconds", str(seconds)], env,
               RUN_LIMIT_S - (time.perf_counter() - start))
        run = json.loads(report.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    if trace:
        values = dict(run["layers"])
        for key in setup_layers[0]:
            values[key] = statistics.median(s[key] for s in setup_layers)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setup_scaled),
                  "peak_rss_mb": run["peak_rss_mb"], "throughput": run["throughput"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return {
        "workload": name,
        "env": {**run["env"], "thread_vars_found": found,
                "thread_vars_used": {v: env[v] for v in THREAD_VARS}},
        "setup_s_each": setup_times,
        "passes": run["passes"],
        "throughput_counts": WORKLOADS[name].unit_of_work,
        "failures": run["failures"],
        "info": run["info"],
        "line": {"correct": not run["failures"], "attempted": run["attempted"],
                 "failed": len(run["failures"]), "metrics": metrics},
    }


def _print_notes(result: dict) -> None:
    print(f"# workload {result['workload']}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# setup seconds {[round(t, 3) for t in result['setup_s_each']]}")
    for p in result["passes"]:
        print(f"# pass traced={int(p['traced'])} seconds={p['seconds']:.3f} "
              f"probe_ms={p['probe_ms']:.2f} scaled_seconds={p['scaled_seconds']:.3f} "
              f"work={p['work']:g}")
    print(f"# throughput counts {result['throughput_counts']}")
    if result["info"]:
        print(f"# info {json.dumps(result['info'], sort_keys=True)}")
    for reason in result["failures"][:20]:
        print(f"# FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slicevuln" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'slicevuln'}; "
              "run from the root of a slicevuln checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.all else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        _print_notes(result)
    if args.all:
        for result in results:
            line = result["line"]
            print(f"# {result['workload']}: attempted {line['attempted']}, "
                  f"failed {line['failed']}")
            for k, m in line["metrics"].items():
                print(f"#   {k} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({r["workload"]: r["line"] for r in results}))
    else:
        print(json.dumps(results[0]["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
