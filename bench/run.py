"""The conceptds benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload lattice-scale --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

The package is imported from the `src/` directory beside this one, never
from an installed copy; without it the benchmark exits with code 2.  It also
refuses to run when CONCEPTDS_UNSAFE_SCALE is set, so that an input a later
capacity bound rejects shows up as failed ops.

With `--trace 0`, ops run untraced in a closed loop for `--seconds` and the
run reports the end-to-end metrics.  Their times are scaled to a reference
host speed measured around every op (see `host.py`); the raw times are
printed beside them.  After the loop, the memory metrics come from one more
run of a few items' ops: `peak_rss_mb` is the peak resident memory of the
process the ops run in, and `peak_heap_mb` the largest peak of Python heap
one op allocates, traced with tracemalloc in a fresh process, so that the
timed loop is not slowed.  With `--trace 1`, untraced and traced
ops alternate for `--seconds` (in process, for the CLI workload) and the run
reports per-layer metrics, per traced op, plus the tracing overhead; the spans
are written to `.bench_out/`.  Every op is checked exactly against the
references in `refs.py` after the loop; a mismatch or an exception counts as
a failed op.  `--self-test` checks that gate: clean runs must report no
failures, and the same runs with one reference value corrupted must fail.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it, starting with `#`,
give the same figures for people, with the tail percentile, `failed_ratio`
and the input sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from spans import ROOT as ROOT_SPAN
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
TAIL_BEYOND = 10
STARTUP_SAMPLES = 15
SELF_TEST_SECONDS = 1.0

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "peak_heap_mb": "MiB",
    "setup_s": "s",
}
MODULES = ("context", "lattice", "evidence", "combine", "probspace",
           "represent", "oracle", "cases", "cli")
LAYER_CALLS = (
    "context.load_document",
    "lattice.enumerate_concepts",
    "lattice.covers",
    "evidence.resolve_mass",
    "evidence.belief_table",
    "evidence.mass_from_bel_lattice",
    "evidence.mass_from_bel_set",
    "combine.combine_many",
    "probspace.measure_tables",
    "represent.normalize_with_mass",
    "represent.represent_concepts",
    "represent.structural_checks",
    "represent.represent_concepts_frame",
    "represent.represent_set",
    "oracle.check_axioms",
    "cases.build_case",
    "cli.run",
)
LAYER_COUNTS = {
    "lattice.concepts": "1/op",
    "lattice.cover_edges": "1/op",
    "evidence.focal_elements": "1/op",
    "combine.pairs": "1/op",
    "combine.max_denominator_bits": "bits",
    "combine.useful_pair_ratio": "ratio",
    "oracle.axiom_tuples": "1/op",
}
LAYER_OTHER = {
    "op.self_s": "s/op",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.call_s": "s",
    "cli.import_share": "ratio",
    "trace.untraced_ops_s": "1/s",
    "trace.traced_ops_s": "1/s",
    "trace.overhead_ops_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_CALLS:
        units.update({f"{name}.calls": "1/op", f"{name}.self_s": "s/op",
                      f"{name}.failed": "count"})
    units.update(LAYER_COUNTS)
    units.update({f"share.{m}": "ratio" for m in MODULES})
    units.update(LAYER_OTHER)
    return units


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Outcomes and the correctness gate

class Outcomes:
    """What every op returned, grouped by input item, checked after the loop.

    Ops on the same item must return equal digests, so only the distinct
    digests of an item are kept, with their counts.
    """

    def __init__(self) -> None:
        self.by_item: dict[int, Counter] = defaultdict(Counter)
        self.raised = 0
        self.first_error: str | None = None

    def record(self, item: int, digest) -> None:
        self.by_item[item][digest] += 1

    def record_error(self, exc: Exception) -> None:
        self.raised += 1
        if self.first_error is None:
            self.first_error = f"{type(exc).__name__}: {exc}"

    def check(self, wl, corrupt: bool = False):
        """Failed ops, mismatches per layer, and each seen item's stats."""
        failed = self.raised
        layers: Counter = Counter()
        stats = {}
        for k in sorted(self.by_item):
            try:
                expected, stats[k] = wl.reference(wl.items[k])
            except Exception as exc:
                # Without a reference no op on this item can pass.
                self.record_error(exc)
                count = sum(self.by_item[k].values())
                failed += count
                layers["reference"] += count
                continue
            if corrupt and k == min(self.by_item):
                expected = _corrupt(expected)
            want = dict(expected)
            for digest, count in self.by_item[k].items():
                got = dict(digest)
                bad = [layer for layer in want.keys() | got.keys()
                       if got.get(layer, None) != want.get(layer, None)]
                if bad:
                    failed += count
                    layers.update({layer: count for layer in bad})
        return failed, layers, stats


def _corrupt(value):
    """`value` with its first number, searched depth first, changed."""
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            changed = _corrupt(v)
            if changed is not v:
                return value[:i] + (changed,) + value[i + 1:]
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value + 1
    return value


# ---------------------------------------------------------------------------
# Loops

def run_op(wl, op, k: int, tr, outcomes: Outcomes) -> float:
    start = time.perf_counter()
    try:
        with tr.span(ROOT_SPAN):
            digest = op(wl.items[k], tr)
    except Exception as exc:
        outcomes.record_error(exc)
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    outcomes.record(k, digest)
    return elapsed


def measure(wl, seconds: float):
    """Untraced closed loop over the item pool for `seconds` of wall time.

    Returns each op's raw latency, its latency scaled to the reference host
    speed, every speed-kernel time, and the outcomes.
    """
    tr = NullTracer()
    outcomes = Outcomes()
    speed = wl.speed()
    latencies, scaled = [], []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        latency = run_op(wl, wl.op, len(latencies) % len(wl.items), tr,
                         outcomes)
        latencies.append(latency)
        scaled.append(latency * speed.scale())
    return latencies, scaled, speed.kernels, outcomes


def measure_traced(wl, seconds: float):
    """Untraced and traced ops alternate, each item once of each kind."""
    null, tracer = NullTracer(), Tracer()
    outcomes = Outcomes()
    times: dict[bool, list[float]] = {False: [], True: []}
    traced_items: Counter = Counter()
    start = time.perf_counter()
    i = 0
    while i % 2 or not times[True] or time.perf_counter() - start < seconds:
        k = (i // 2) % len(wl.items)
        traced = i % 2 == 1
        tracer.op_id = i
        times[traced].append(run_op(wl, wl.in_process_op, k,
                                    tracer if traced else null, outcomes))
        traced_items[k] += traced
        i += 1
    return times, tracer, traced_items, outcomes


def startup_times(wl, samples: int) -> tuple[float, float, float, float]:
    """Median seconds of a bare interpreter, of `import conceptds`, and of a
    whole CLI call, and the median share of a call the import takes.

    The three are taken in turn, round after round, and the share is taken
    within each round, so that it does not depend on how the host's speed
    drifts between rounds.
    """
    from workloads import CLI_TIMEOUT_S
    bare, imported, calls = [], [], []
    for i in range(samples):
        for code, out in (("pass", bare), ("import conceptds", imported)):
            start = time.perf_counter()
            # Output is captured, as an op's is: a wait with a timeout and
            # no pipes to read polls, and notices the exit up to 50 ms late.
            subprocess.run([sys.executable, "-c", code], env=wl.env,
                           capture_output=True, check=True,
                           timeout=CLI_TIMEOUT_S)
            out.append(time.perf_counter() - start)
        calls.append(run_op(wl, wl.op, i % len(wl.items), NullTracer(),
                            Outcomes()))
    return (statistics.median(bare), statistics.median(imported),
            statistics.median(calls),
            statistics.median(i / c for i, c in zip(imported, calls)))


# ---------------------------------------------------------------------------
# Memory

def peak_rss_mib() -> float:
    """This process's peak resident memory so far, in MiB.

    Read from /proc, not from getrusage: a process's ru_maxrss also counts
    the peak of the process that started it.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# Runs one CLI call in process, then prints as the last line of standard
# error the process's peak resident KiB (argument "rss"), or the peak bytes of
# Python heap traced from before the package import (argument "heap").
_CLI_PROBE = """import sys
if sys.argv[1] == "heap":
    import tracemalloc
    tracemalloc.start()
try:
    import conceptds.cli
    code = conceptds.cli.run(sys.argv[2:])
finally:
    sys.stdout.flush()
    if sys.argv[1] == "heap":
        print(tracemalloc.get_traced_memory()[1], file=sys.stderr)
    else:
        print(next(line.split()[1] for line in open("/proc/self/status")
                   if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _cli_probe(wl, what: str) -> int:
    """The largest figure `_CLI_PROBE` prints over the probed calls."""
    from workloads import CLI_TIMEOUT_S
    peaks = []
    for call in wl.items[:wl.probed]:
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_PROBE, what, *call.argv], env=wl.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        peaks.append(int(proc.stderr.split()[-1]))
    return max(peaks)


def peak_rss(wl) -> float:
    """Peak resident MiB of the process an op runs in: this process, or for
    CLI calls the largest over one more run of each probed call."""
    if wl.subprocess_ops:
        return _cli_probe(wl, "rss") / 1024
    return peak_rss_mib()


def heap_probe(wl, items_path: Path) -> int:
    """Run in a fresh process: print the largest peak of Python heap, in
    MiB, that one op on one of the given items allocates."""
    items = pickle.loads(items_path.read_bytes())
    tracemalloc.start()
    peaks = []
    for item in items:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        wl.op(item, NullTracer())
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
    print(max(peaks) / 2 ** 20)
    return 0


def peak_heap_mib(wl) -> float:
    """The largest peak of Python heap one op allocates, in MiB.

    It is measured after the timed loop, in fresh processes with tracemalloc
    on, over the workload's probed items.  In-process ops run in one process
    that loads those items.  Each CLI call runs in a child of its own, and
    its peak includes the package import, which is part of every call.
    """
    from workloads import CLI_TIMEOUT_S, OUT
    if wl.subprocess_ops:
        return _cli_probe(wl, "heap") / 2 ** 20
    OUT.mkdir(exist_ok=True)
    path = OUT / f"items-{wl.name}-{os.getpid()}.pickle"
    path.write_bytes(pickle.dumps(wl.items[:wl.probed]))
    try:
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             wl.name, "--heap-probe", str(path)],
            capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S)
    finally:
        path.unlink()
    return float(probe.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Metrics

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def input_stats(stats: dict[int, dict]) -> dict:
    out = {"items": len(stats)}
    for key in sorted({k for s in stats.values() for k in s}):
        values = [s[key] for s in stats.values() if key in s]
        out[key] = {"min": min(values), "mean": statistics.mean(values),
                    "max": max(values)}
    return out


def end_to_end(wl, seconds: float, setup: list[float],
               setup_scaled: list[float]) -> tuple[dict, dict, int, int]:
    latencies, scaled, kernels, outcomes = measure(wl, seconds)
    peak_mib = peak_rss(wl)
    heap_mib = peak_heap_mib(wl)
    failed, layers, stats = outcomes.check(wl)
    n = len(latencies)
    tail_s, percentile, beyond = tail(scaled)
    values = {
        "throughput_ops_s": n / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_mib,
        "peak_heap_mb": heap_mib,
        "setup_s": statistics.median(setup_scaled),
    }
    notes = {
        "latency_tail": f"p{percentile:.1f}, {beyond} of {n} samples beyond",
        "failed_ratio": f"{failed / n} ({failed} of {n} ops)",
        "failed_layers": dict(layers),
        "first_error": outcomes.first_error,
        "inputs": input_stats(stats),
        "host_kernel_ms": 1000 * statistics.median(kernels),
        "raw": {"throughput_ops_s": n / sum(latencies),
                "latency_p50_ms": 1000 * statistics.median(latencies),
                "latency_tail_ms": 1000 * tail(latencies)[0],
                "setup_s": statistics.median(setup)},
    }
    return values, notes, n, failed


def per_layer(wl, seconds: float, trace_path: Path) -> tuple[dict, dict, int,
                                                             int]:
    bare = imported = call = share = 0.0
    if wl.subprocess_ops:
        bare, imported, call, share = startup_times(wl, STARTUP_SAMPLES)
    times, tracer, traced_items, outcomes = measure_traced(wl, seconds)
    failed, layers, stats = outcomes.check(wl)
    tracer.write(trace_path)
    summary = tracer.summary()
    n_traced = len(times[True])
    values: dict[str, float] = {}
    for name in LAYER_CALLS:
        s = summary.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        values[f"{name}.calls"] = s["calls"] / n_traced
        values[f"{name}.self_s"] = s["self_s"] / n_traced
        values[f"{name}.failed"] = s["failed"] + layers.get(name, 0)
    for name in ("lattice.concepts", "lattice.cover_edges",
                 "evidence.focal_elements", "oracle.axiom_tuples"):
        values[name] = tracer.counts.get(name, 0) / n_traced
    pairs = sum(traced_items[k] * stats[k].get("pairs", 0) for k in stats)
    useful = sum(traced_items[k] * stats[k].get("useful_pairs", 0)
                 for k in stats)
    values["combine.pairs"] = pairs / n_traced
    values["combine.useful_pair_ratio"] = useful / pairs if pairs else 0.0
    values["combine.max_denominator_bits"] = tracer.maxima.get(
        "combine.max_denominator_bits", 0)
    op_total = summary[ROOT_SPAN]["total_s"]
    for module in MODULES:
        values[f"share.{module}"] = sum(
            s["self_s"] for name, s in summary.items()
            if name.startswith(module + ".")) / op_total
    values["op.self_s"] = summary[ROOT_SPAN]["self_s"] / n_traced
    values["cli.interpreter_s"] = bare
    values["cli.import_s"] = imported
    values["cli.call_s"] = call
    values["cli.import_share"] = share
    untraced = len(times[False]) / sum(times[False])
    traced = n_traced / sum(times[True])
    values["trace.untraced_ops_s"] = untraced
    values["trace.traced_ops_s"] = traced
    values["trace.overhead_ops_s"] = untraced - traced
    values["trace.overhead_ratio"] = (untraced - traced) / untraced
    attempted = len(times[False]) + n_traced
    notes = {
        "failed_ratio": f"{failed / attempted} ({failed} of {attempted} ops)",
        "failed_layers": dict(layers),
        "first_error": outcomes.first_error,
        "inputs": input_stats(stats),
        "spans": str(trace_path.relative_to(ROOT)),
    }
    return values, notes, attempted, failed


# ---------------------------------------------------------------------------
# Entry points

def self_test() -> int:
    from workloads import WORKLOADS
    ok = True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for key, units in (("end_to_end", END_TO_END),
                       ("per_layer", per_layer_units())):
        names = {(m["name"], m["unit"]) for m in declared[key]}
        if names != set(units.items()):
            print(f"BENCHMARK.json {key} differs from what the run reports: "
                  f"{sorted(names ^ set(units.items()))}")
            ok = False
    mapped = json.loads((ROOT / "bench" / "interactions.json")
                        .read_text("utf-8"))
    covered = {m for group in mapped["per_layer"] for m in group["metrics"]}
    if covered != set(per_layer_units()):
        print(f"interactions.json differs from the per-layer metrics: "
              f"{sorted(covered ^ set(per_layer_units()))}")
        ok = False
    for name, cls in WORKLOADS.items():
        wl = cls()
        try:
            wl.setup(0)
            latencies, _, _, outcomes = measure(wl, SELF_TEST_SECONDS)
            clean = outcomes.check(wl)[0]
            corrupted = outcomes.check(wl, corrupt=True)[0]
        finally:
            wl.close()
        passed = clean == 0 and corrupted > 0
        ok &= passed
        n = len(latencies)
        print(f"{name}: failed_ratio {clean / n} clean, {corrupted / n} with "
              f"one reference value corrupted: {'PASS' if passed else 'FAIL'}")
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the correctness gate and exit")
    parser.add_argument("--heap-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("CONCEPTDS_UNSAFE_SCALE"):
        return fail("CONCEPTDS_UNSAFE_SCALE is set; the benchmark only "
                    "measures inputs inside the documented bounds")
    if not (SRC / "conceptds" / "__init__.py").is_file():
        return fail(f"no conceptds source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import conceptds
    if Path(conceptds.__file__).resolve().parent != SRC / "conceptds":
        return fail(f"imported conceptds from {conceptds.__file__}, "
                    f"not from {SRC}")
    from workloads import OUT, WORKLOADS
    if hasattr(os, "sched_setaffinity"):
        # Ops, their child processes and the speed kernel share one CPU, so
        # the kernel sees the speed the ops see.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.self_test:
        return self_test()
    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.heap_probe:
        return heap_probe(WORKLOADS[args.workload](), args.heap_probe)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    wl = WORKLOADS[args.workload]()
    try:
        setup, setup_scaled = [], []
        speed = wl.speed()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(args.seed)
            setup.append(time.perf_counter() - start)
            setup_scaled.append(setup[-1] * speed.scale())
        if args.trace:
            OUT.mkdir(exist_ok=True)
            values, notes, attempted, failed = per_layer(
                wl, args.seconds, OUT / f"spans-{wl.name}-{args.seed}.json")
            units = per_layer_units()
        else:
            values, notes, attempted, failed = end_to_end(
                wl, args.seconds, setup, setup_scaled)
            units = END_TO_END
    finally:
        wl.close()

    for name, value in values.items():
        print(f"# {name} {value} {units[name]}")
    for name, note in notes.items():
        print(f"# {name} {json.dumps(note)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
