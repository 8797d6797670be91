"""The benchmark's tracer reads the package from outside: the functions it
traces, the compiled-circuit class whose instances it counts, and the
results it counts work from. A change to any of these fails here, in
seconds, as well as in the benchmark's own smoke run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import mvadder.cli  # noqa: F401  (every module, loaded before the tracer, as the benchmark does)
from mvadder import _kernel, engine
from mvadder.netlist import build_cpa, build_qfa

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded by its path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_resolves_its_targets_and_counts_their_work():
    tracing = _tracing()
    tracer = tracing.Tracer()
    originals = {id(original) for _, _, original, _ in tracer._patches}
    for module, attr, _ in tracing.TARGETS:
        assert id(getattr(importlib.import_module(f"mvadder.{module}"), attr)) in originals
    [(_, _, base, counted)] = [p for p in tracer._patches if p[1] == "CompiledCircuit"]
    assert base is _kernel.CompiledCircuit and issubclass(counted, base)
    cell, cpa = build_qfa("qfa2", 0.9), build_cpa(build_qfa("qfa2", 0.9), 3)
    vectors = np.zeros((5, 7), np.int64)
    tracer.install()
    try:
        trace = engine.simulate(cell, engine.worst_case_stimulus("input_to_carry", "qfa2"))
        engine.settle_matrix(cpa, ["C0", "A0", "A1", "A2", "B0", "B1", "B2"], vectors)
    finally:
        tracer.uninstall()
    assert engine.simulate.__name__ == "simulate" and _kernel.CompiledCircuit is base
    counts = tracer.counts
    assert counts["engine.simulate.calls"] == counts["engine.settle.calls"] == 1
    assert counts["engine.sim_records"] == len(trace.records) > 0
    assert counts["engine.settle_vectors"] == len(vectors)
    assert counts["kernel.compile_misses"] == 2  # each circuit compiled once, counted
