#!/usr/bin/env python3
"""Smoke test for the benchmark. Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json briefly, untraced and traced, prints
each run's metrics by name with their units, and checks that:
- every metric BENCHMARK.json names is printed, by name and with its unit;
- no operation failed (error_rate 0) and the default seed's fingerprint
  matches the pinned one;
- layer self times plus bench.self_s add up to the traced operation time;
- each workload stresses the layer it was chosen for;
- the benchmark fails, printing no result, without the mvadder sources.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_layers(workload: str, m: dict) -> None:
    own = {k: v for k, v in m.items() if k.endswith("_s") and k != "bench.traced_op_s"}
    total = m["bench.traced_op_s"]
    assert math.isclose(sum(own.values()), total, rel_tol=1e-9), (sum(own.values()), total)
    largest = max(own, key=own.get)
    if workload == "verify":
        assert largest == "engine.settle_s", largest
    elif workload == "compare":
        assert largest == "engine.simulate_s", largest
    elif workload == "scale":
        setup_layers = sum(v for k, v in own.items() if k.startswith("netlist."))
        setup_layers += own["kernel.compile_s"] + own["timing.sta_s"]
        assert setup_layers > 0.5 * total, (setup_layers, total)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, f"{where}: {proc.stderr}"
            assert result["attempted"] >= 1, where
            printed = {parts[0]: parts[1:3] for parts in
                       (line.split() for line in lines[:-1] if line.startswith("  "))}
            assert printed.pop("error_rate")[0] == "0", where
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            assert got == want, f"{where}: metrics {got} != {want}"
            printed = {name: unit for name, (_, unit) in printed.items()}
            assert printed == want, f"{where}: printed {printed} != {want}"
            if trace:
                check_layers(wl["name"], {k: v["value"] for k, v in result["metrics"].items()})
            print("\n".join(lines[:-1]))
            print(f"ok {where}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without mvadder sources"
    shutil.rmtree(bare)
    print("ok without sources: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
