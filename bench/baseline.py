"""Run the benchmark over many seeds and summarise it, with provenance.

    python3 bench/baseline.py --seeds 1-10 --repeat-seeds 11-20 \
        --out bench/results/BENCH_0.json

Every workload in BENCHMARK.json runs for its run_seconds.  For every
workload, each seed gets one untraced run; the summary gives the
median, the quartiles and the spread (interquartile range over the median)
of every end-to-end metric, next to its bound in BENCHMARK.json, and keeps
each run's raw (unscaled) times and host-speed kernel time.  With
`--repeat-seeds`, a second set of runs checks that the two medians agree
within the bound.  One traced run per workload gives the per-layer metrics
and the share of op time each module takes.
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

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["notes"] = {line.split(" ", 2)[1]: line.split(" ", 2)[2]
                       for line in lines[:-1] if line.startswith("# ")}
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    names = runs[0]["metrics"]
    return {
        "seeds": seeds,
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "tail_percentiles": [r["notes"].get("latency_tail") for r in runs],
        "inputs": [json.loads(r["notes"]["inputs"]) for r in runs],
        "host_kernel_ms": [json.loads(r["notes"]["host_kernel_ms"])
                           for r in runs],
        "raw": [json.loads(r["notes"]["raw"]) for r in runs],
        "metrics": {name: summarise([r["metrics"][name]["value"]
                                     for r in runs]) for name in names},
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--repeat-seeds", type=seed_range)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = declared["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    report = {
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": seconds,
            "command": declared["command"],
        },
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        entry = {"runs": run_set(workload, args.seeds, seconds)}
        if args.repeat_seeds:
            entry["repeat"] = run_set(workload, args.repeat_seeds, seconds)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {name: m["value"]
                              for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        sets = [entry["runs"]] + ([entry["repeat"]] if "repeat" in entry
                                  else [])
        for name, s in entry["runs"]["metrics"].items():
            line = (f"{workload:14} {name:18} median {s['median']:10.4f}  "
                    f"spread {s['spread']:.4f}  bound {bounds[name]}")
            if "repeat" in entry:
                r = entry["repeat"]["metrics"][name]
                change = (r["median"] - s["median"]) / s["median"]
                line += (f"  repeat median {r['median']:10.4f} "
                         f"({change:+.4f}) spread {r['spread']:.4f}")
                if (change if lower[name] else -change) > bounds[name]:
                    ok = False
                    line += "  REPEAT WORSE THAN BOUND"
            if any(run["metrics"][name]["spread"] > bounds[name]
                   for run in sets):
                ok = False
                line += "  SPREAD OVER BOUND"
            print(line, flush=True)
        for run in sets:
            if any(run["failed"]):
                ok = False
                print(f"{workload}: failed ops {run['failed']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", "utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
