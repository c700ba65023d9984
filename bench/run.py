"""polarfactor benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep,large,series,query} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the package is imported from ../src.  Each pass of
the workload runs in a fresh, single-threaded process (bench/worker.py).
A run repeats passes over the same seeded inputs for about S seconds,
at least three.  Wall time, set-up time, memory and each item's latency
are medians over the passes; latency percentiles are taken over the
items.

With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; the line before it
records the machine, the tail percentile, the error rate and the first
problems found.  The process exits 1 without a result when a pass
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep", "large", "series", "query")

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10

UNITS = {"oracle_series.match_ratio": "ratio", "cli.output_bytes": "bytes"}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_implementation()
            + " " + platform.python_version(), "cpu": model}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)


def one_pass(workload: str, seed: int, size: str, traced: bool, env: dict,
             spans: Path | None = None) -> dict:
    args = [str(BENCH / "worker.py"), workload, str(seed), size, "1" if traced else "0"]
    if spans is not None:
        args.append(str(spans))
    proc = run_child(args, env)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    # Every pass repeats the same items in the same order.  The machine's
    # speed swings by tens of percent in bursts, so each item's latency,
    # like the wall time, is its median over the passes.
    typical = [statistics.median(rep) for rep in zip(*(p["latencies_ms"] for p in passes))]
    if not typical:  # a sweep whose verify_classes raised streams no rows
        typical = [statistics.median(p["wall_s"] for p in passes) * 1e3]
    tail_ms, pct = tail(typical)
    metrics = {
        "setup_s": metric(statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": metric(statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
        "latency_p50_ms": metric(statistics.median(typical), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, {"latency_tail_percentile": pct, "latency_samples": len(typical)}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    # The figures come from the traced pass of median wall time, so one
    # pass's breakdown is reported whole.
    mid = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    metrics = {}
    for name, layer in mid["layers"].items():
        metrics[f"{name}.calls"] = metric(layer["calls"], "count")
        metrics[f"{name}.self_s"] = metric(layer["self_s"], "s")
    for name, value in mid["counts"].items():
        metrics[name] = metric(value, UNITS.get(name, "count"))
    for name, value in mid["cache_hit_ratio"].items():
        metrics[name] = metric(value, "ratio")
    metrics["trace.overhead_ratio"] = metric(
        mid["wall_s"] / statistics.median(p["wall_s"] for p in plain), "ratio")
    return metrics, mid["absent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    env = child_env()
    try:
        # Compile the package once so no measured pass pays for bytecode.
        if run_child(["-c", "import polarfactor.cli"], env).returncode != 0:
            raise RuntimeError("cannot import polarfactor from src/")
        plain, traced = [], []
        spans = OUT / f"{args.workload}.spans.tsv"
        if args.trace:
            OUT.mkdir(exist_ok=True)
        start = time.perf_counter()
        # Passes (untraced and traced in turn with --trace 1) go on while
        # one more fits in the time, and at least MIN_PASSES of each run.
        while True:
            plain.append(one_pass(args.workload, args.seed, args.size, False, env))
            if args.trace:
                traced.append(one_pass(args.workload, args.seed, args.size, True, env,
                                       None if traced else spans))
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_PASSES and elapsed * (1 + 1 / len(plain)) > args.seconds:
                break
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted = sum(p["items"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    details = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "passes": len(plain), "machine": machine(),
               "error_rate": failed / attempted,
               "problems": [msg for p in runs for msg in p["problems"]][:10]}
    if args.trace:
        metrics, details["absent"] = per_layer(plain, traced)
        details["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(plain)
        details.update(extra)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
