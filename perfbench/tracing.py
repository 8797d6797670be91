"""Layer spans and counts recorded from outside the package.

The tracer rebinds the public functions of each mvadder module, in every
mvadder module namespace that holds them, to wrappers that record a span
(name, start, end, parent) and count calls. Calls between modules therefore
pass through the wrappers, e.g. ``engine.simulate`` calling ``validate``
and ``compile_circuit``. Spans and counts stay in memory; ``dump`` writes
them out when the run ends.

Spans nest through one call stack, so they assume a single thread (the
benchmark runs ``compare`` with ``threads=1``). A span's self time is its
duration minus the durations of its direct children. Every span belongs to one operation, whose root span is
``bench.op``; the root's self time is the benchmark's own work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name). Each span name is one layer metric.
TARGETS = (
    ("netlist", "build_qfa", "netlist.build"),
    ("netlist", "build_bfa", "netlist.build"),
    ("netlist", "build_binary_slice", "netlist.build"),
    ("netlist", "build_cpa", "netlist.build"),
    ("netlist", "validate", "netlist.validate"),
    ("netlist", "to_json", "netlist.json"),
    ("netlist", "from_json", "netlist.json"),
    ("netlist", "area_report", "netlist.area"),
    ("_kernel", "compile_circuit", "kernel.compile"),
    ("engine", "settle_matrix", "engine.settle"),
    ("engine", "simulate", "engine.simulate"),
    ("engine", "step_response_delays", "engine.measure"),
    ("engine", "measure_power", "engine.measure"),
    ("timing", "sta", "timing.sta"),
    ("report", "compare", "report.compare"),
    ("report", "rows_to_json", "report.serialize"),
    ("report", "rows_to_csv", "report.serialize"),
    ("verify", "verify_cpa", "verify.oracle"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + ("bench.op",)

# Work counted from a call's result, at the same boundary as its span.
_RESULT_COUNTS = {
    "engine.settle": ("engine.settle_vectors", lambda out: out.shape[0]),
    "engine.simulate": ("engine.sim_records", lambda out: len(out.times)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (op, name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list = []  # [span index, seconds covered by children]
        self._op = -1
        self._patches = self._plan()

    def _plan(self) -> list:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mvadder" or n.startswith("mvadder.")]
        patches = []
        for mod_name, attr, span in TARGETS:
            original = getattr(importlib.import_module(f"mvadder.{mod_name}"), attr)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, name, original, wrapped))
        kernel = importlib.import_module("mvadder._kernel")
        base = kernel.CompiledCircuit
        counts = self.counts

        class CountedCompile(base):
            def __init__(self, circuit):
                counts["kernel.compile_misses"] += 1
                super().__init__(circuit)

        patches.append((kernel, "CompiledCircuit", base, CountedCompile))
        return patches

    def install(self) -> None:
        for mod, name, _, wrapped in self._patches:
            setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((self._op, name, time.perf_counter(), None, parent))
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        _, covered = self._stack.pop()
        op, name, start, _, parent = self.spans[idx]
        self.spans[idx] = (op, name, start, end, parent)
        duration = end - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _wrap(self, span: str, fn):
        calls = span + ".calls"
        counted = _RESULT_COUNTS.get(span)

        def traced(*args, **kwargs):
            idx = self._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[calls] += 1
            if counted is not None:
                self.counts[counted[0]] += counted[1](out)
            return out

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._root = self._open("bench.op")

    def end_op(self) -> float:
        """Close the operation's root span; returns its duration."""
        self.counts["bench.op.calls"] += 1
        return self._close(self._root)

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["op", "name", "start_s", "end_s", "parent"],
                "spans": [[op, name, start - t0, end - t0, parent]
                          for op, name, start, end, parent in self.spans],
                "counts": dict(sorted(self.counts.items())),
                "self_s": dict(sorted(self.self_s.items())),
            }, fh)
