#!/usr/bin/env python3
"""mvadder benchmark: closed-loop workloads with one client in one process.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics, including the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (samples,
fingerprint, ``mvadder.USE_NUMBA``, spans) go to ``.bench_out/``.

The package is imported from ``src/`` next to this directory, never from
anywhere else; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for set-up (after one untimed one that fills the
#: bytecode cache); the median is reported.
SETUP_PROBES = 7

#: End-to-end times are host times normalised to a reference speed. On a
#: shared host (measured on a 2-vCPU virtual machine) the same operation's
#: time drifts by up to 1.8x within seconds. A fixed task that does not
#: touch mvadder is timed before, between the stages of, and after every
#: operation; each stage's time is scaled by REFERENCE_S over the mean of
#: the task's times on either side, so the figures read as if the task
#: always took REFERENCE_S.
REFERENCE_S = 0.005
REFERENCE_ROUNDS = 12

# name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "netlist.build_s": "s/op",
    "netlist.validate_s": "s/op",
    "netlist.validate_calls": "count/op",
    "netlist.json_s": "s/op",
    "netlist.area_s": "s/op",
    "kernel.compile_s": "s/op",
    "kernel.compile_calls": "count/op",
    "kernel.compile_hit_ratio": "ratio",
    "engine.settle_s": "s/op",
    "engine.settle_vectors": "count/op",
    "engine.settle_us_per_vector": "us",
    "engine.simulate_s": "s/op",
    "engine.sim_records": "count/op",
    "engine.simulate_us_per_record": "us",
    "engine.measure_s": "s/op",
    "timing.sta_s": "s/op",
    "timing.sta_calls": "count/op",
    "report.compare_s": "s/op",
    "report.serialize_s": "s/op",
    "verify.oracle_s": "s/op",
    "bench.self_s": "s/op",
    "bench.traced_op_s": "s/op",
    "bench.trace_overhead": "ratio",
}


def import_package():
    """Import mvadder (and its CLI module) from this checkout's ``src``."""
    if not (SRC / "mvadder" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: mvadder sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mvadder
    import mvadder.cli  # noqa: F401  (CLI import time is part of set-up)

    if Path(mvadder.__file__).resolve().parent != (SRC / "mvadder").resolve():
        raise SystemExit(f"perfbench: imported mvadder from {mvadder.__file__}, not {SRC}")
    return mvadder


def prepare(workload: str, seed: int, pinned: dict):
    import workloads

    return workloads.WORKLOADS[workload](seed, pinned["fingerprints"][workload])


def reference_s() -> float:
    """Seconds for a fixed mix of dict, sort and small-array work, with the
    garbage collector off so the program's heap does not leak into it."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        arr = np.arange(64, dtype=np.int64)
        for _ in range(REFERENCE_ROUNDS):
            nodes = {f"n{i}": ((i * 7) % 97, (i * 13) % 89, i) for i in range(300)}
            order = sorted(nodes, key=lambda k: nodes[k][0] * 100 + nodes[k][1])
            acc: dict = {}
            for k in order:
                a, b, c = nodes[k]
                acc[a] = acc.get(a, 0) + b * c
            m = np.zeros((32, 4))
            for i in range(32):
                m[i, i & 3] = arr[i] * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def setup_probe(workload: str, seed: int, pinned: dict) -> tuple:
    """Seconds a fresh process spends importing mvadder and preparing
    inputs, and the reference task's time in that process."""
    t0 = time.perf_counter()
    import_package()
    prepare(workload, seed, pinned)
    setup = time.perf_counter() - t0
    return setup, statistics.median(reference_s() for _ in range(3))


def measure_setup(args) -> tuple:
    """Normalised set-up seconds per probe, and the raw (seconds, reference)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    raw = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            raw.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return [setup * REFERENCE_S / ref for setup, ref in raw], raw


def peak_rss_mb() -> float:
    """High-water resident set of this process. getrusage's ru_maxrss would
    also count the parent's memory when it started us with vfork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _no_mark() -> None:
    pass


def run_op(wl, index: int, failures: list, mark=_no_mark):
    """One operation; a failure is recorded, never raised."""
    try:
        return wl.op(index, mark)
    except Exception as exc:  # any error is a failed operation
        failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        return None


def fingerprint_op(wl, tracing, failures: list) -> dict:
    """Operation 0: the warm-up, traced for its simulated statistics."""
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        facts = run_op(wl, 0, failures)
    finally:
        tracer.end_op()
        tracer.uninstall()
    return {
        "engine.settle_vectors": tracer.counts["engine.settle_vectors"],
        "engine.sim_records": tracer.counts["engine.sim_records"],
        **(facts or {}),
    }


class SegmentClock:
    """Times operations in stages separated by reference samples. The
    reference time is left out of the operation's time."""

    def __init__(self):
        self.refs = [reference_s()]
        self.start()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.t0 = time.perf_counter()

    def mark(self) -> None:
        stage = time.perf_counter() - self.t0
        self.refs.append(reference_s())
        self.raw += stage
        self.scaled += stage * 2 * REFERENCE_S / (self.refs[-2] + self.refs[-1])
        self.t0 = time.perf_counter()


def measure_untraced(wl, seconds: float, failures: list):
    """Normalised operation seconds, raw ones, and the reference times."""
    clock = SegmentClock()
    raw, scaled = [], []
    start = time.perf_counter()
    while True:
        clock.start()
        run_op(wl, len(raw) + 1, failures, clock.mark)
        clock.mark()
        raw.append(clock.raw)
        scaled.append(clock.scaled)
        if time.perf_counter() - start >= seconds and len(raw) >= 2:
            return scaled, raw, clock.refs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(wl, tracing, seconds: float, failures: list):
    """Odd operations traced, even ones not, until both kinds have run."""
    tracer = tracing.Tracer()
    traced_s = untraced_s = 0.0
    n_traced = n_untraced = 0
    index = 1
    start = time.perf_counter()
    while True:
        if index % 2:
            tracer.install()
            tracer.begin_op(index)
            try:
                run_op(wl, index, failures)
            finally:
                traced_s += tracer.end_op()
                tracer.uninstall()
            n_traced += 1
        else:
            t0 = time.perf_counter()
            run_op(wl, index, failures)
            untraced_s += time.perf_counter() - t0
            n_untraced += 1
        index += 1
        if time.perf_counter() - start >= seconds and n_untraced:
            break

    own = {name: s / n_traced for name, s in tracer.self_s.items()}
    c = {name: n / n_traced for name, n in tracer.counts.items()}
    # Every span's self time is one metric, so together they add up to
    # bench.traced_op_s; the root span's own time is the benchmark's.
    metrics = {("bench.self" if span == "bench.op" else span) + "_s": own.get(span, 0.0)
               for span in tracing.SPAN_NAMES}
    compile_calls = c.get("kernel.compile.calls", 0.0)
    metrics.update({
        "netlist.validate_calls": c.get("netlist.validate.calls", 0.0),
        "kernel.compile_calls": compile_calls,
        "kernel.compile_hit_ratio":
            1.0 - _ratio(c.get("kernel.compile_misses", 0.0), compile_calls),
        "engine.settle_vectors": c.get("engine.settle_vectors", 0.0),
        "engine.settle_us_per_vector":
            1e6 * _ratio(metrics["engine.settle_s"], c.get("engine.settle_vectors", 0.0)),
        "engine.sim_records": c.get("engine.sim_records", 0.0),
        "engine.simulate_us_per_record":
            1e6 * _ratio(metrics["engine.simulate_s"], c.get("engine.sim_records", 0.0)),
        "timing.sta_calls": c.get("timing.sta.calls", 0.0),
        "bench.traced_op_s": traced_s / n_traced,
        "bench.trace_overhead": (traced_s / n_traced) / (untraced_s / n_untraced) - 1.0,
    })
    return metrics, tracer, n_traced + n_untraced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "compare", "scale"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    pinned = json.loads((HERE / "fingerprints.json").read_text())

    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed, pinned)))
        return 0

    mvadder = import_package()
    setup_samples, setup_raw = measure_setup(args) if not args.trace else ([], [])
    import tracing

    wl = prepare(args.workload, args.seed, pinned)
    failures: list = []
    fingerprint = fingerprint_op(wl, tracing, failures)
    want = pinned["fingerprints"][args.workload]
    pinned_seed = args.seed == pinned["default_seed"]
    fingerprint_ok = not pinned_seed or fingerprint == want

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, tracer, attempted = measure_traced(wl, tracing, args.seconds, failures)
        tracer.dump(f"{stem}-spans.json")
        specs, samples, note = PER_LAYER, {}, "per-layer times are host times"
    else:
        latencies, raw, refs = measure_untraced(wl, args.seconds, failures)
        attempted = len(latencies)
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "throughput_ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * deciles[8],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        specs = END_TO_END
        samples = {"latency_s": latencies, "latency_raw_s": raw, "reference_s": refs,
                   "setup_s": setup_samples, "setup_raw_s_reference_s": setup_raw}
        note = (f"host p50 before normalising {1e3 * statistics.median(raw):.6g} ms; "
                f"reference task median {1e3 * statistics.median(refs):.4g} ms, "
                f"normalised to {1e3 * REFERENCE_S:g} ms")
    attempted += 1  # the fingerprint operation
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs.items()}
    correct = not failures and fingerprint_ok

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"use_numba {mvadder.USE_NUMBA} operations {attempted}")
    print(note)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted})")
    status = ("not pinned for this seed" if not pinned_seed
              else "pinned: match" if fingerprint_ok else "pinned: MISMATCH")
    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)} ({status})")
    for line in failures[:5]:
        print("FAILED " + line, file=sys.stderr)
    if pinned_seed and not fingerprint_ok:
        print("FAILED fingerprint differs from the pinned one: "
              + json.dumps(want, sort_keys=True), file=sys.stderr)
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "use_numba": bool(mvadder.USE_NUMBA),
                   "python": sys.version.split()[0], "correct": correct,
                   "attempted": attempted, "failed": len(failures), "failures": failures,
                   "fingerprint": fingerprint, "metrics": metrics, "samples": samples},
                  fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
