"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them).

Timed criteria measure model work only; the session fixture has already
compiled the kernels.
"""

import time

import numpy as np
import pytest

from mvadder.engine import Stimulus, simulate, step_response_delays, worst_case_stimulus
from mvadder.gates import DIAMETER_NM, TransistorInventory, inventory_area
from mvadder.levels import Level
from mvadder.netlist import (
    area_report,
    build_bfa,
    build_binary_slice,
    build_cpa,
    build_qfa,
)
from mvadder.report import AdderConfig, compare, rows_to_csv, rows_to_json
from mvadder.timing import sta
from mvadder.verify import verify_adder_cell, verify_cpa

L = Level


def _result(n, desc):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n} FAIL: {desc}")
                raise
            print(f"criterion {n} PASS: {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@_result(1, "QFA1/QFA2 match all 32 truth-table rows, BFA1/BFA2 all 8, under 1 s")
def test_criterion_1_truth_table_fidelity():
    t0 = time.perf_counter()
    for variant in ("qfa1", "qfa2"):
        assert verify_adder_cell(build_qfa(variant, 0.9)) == []
    for variant in ("bfa1", "bfa2"):
        assert verify_adder_cell(build_bfa(variant, 0.9)) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@_result(2, "CPA equals the integer oracle: exhaustive N<=2, 10k vectors at "
            "N=4/8/16, under 30 s")
def test_criterion_2_cpa_correctness():
    t0 = time.perf_counter()
    for n in (1, 2):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n)
        assert verify_cpa(cpa, n, exhaustive=True) == []
    for n in (4, 8, 16):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
        assert verify_cpa(cpa, n, vectors=10_000, seed=n) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@_result(3, "QFA2 Cin->Cout critical path is [mux2, inv]; a 2-bit binary "
            "slice crosses 2 adder cells")
def test_criterion_3_carry_path_structure():
    rep = sta(build_qfa("qfa2", 0.9, cl=2e-15), ("Cin",), ("Cout",))
    assert [a.kind for a in rep.critical_path] == ["mux2", "inv"]
    assert rep.stage_gate_arcs == 2
    slice_rep = sta(build_binary_slice("bfa2", 0.9, cl=2e-15), ("Cin",), ("Cout",))
    assert slice_rep.stage_cells == 2


@_result(4, "full-swing carry wins: delay(QFA2 Cin->Cout) < delay(QFA1), "
            "by STA and by sensitized simulation at A=2 B=1")
def test_criterion_4_carry_swing_ordering():
    measured = {}
    arrivals = {}
    for kind in ("qfa1", "qfa2"):
        cell = build_qfa(kind, 0.9, cl=2e-15)
        arrivals[kind] = sta(cell, ("Cin",), ("Cout",)).worst_arrival_ps
        tr = simulate(cell, worst_case_stimulus("carry_to_carry", kind))
        measured[kind] = max(d for _, d in step_response_delays(tr, "Cout")
                             if d is not None)
    assert arrivals["qfa2"] < arrivals["qfa1"]
    assert measured["qfa2"] < measured["qfa1"]


@_result(5, "halving the supply quarters BFA2x2 power: ratio 0.25 +/- 0.02 "
            "under the shared stimulus")
def test_criterion_5_power_scaling():
    rows = compare([AdderConfig("bfa2x2", 0.9), AdderConfig("bfa2x2", 0.45)])
    ratio = rows[1].power_uw / rows[0].power_uw
    assert abs(ratio - 0.25) <= 0.02, f"ratio {ratio}"


@_result(6, "diameter table to 3 decimals, additive sigma-Di, "
            "QFA2/BFA2x2 ratio within [3, 5]")
def test_criterion_6_area_metric():
    expected = {8: 0.626, 10: 0.783, 13: 1.017, 19: 1.487, 29: 2.270, 37: 2.896}
    assert set(DIAMETER_NM) == set(expected)
    for n, d in expected.items():
        assert round(DIAMETER_NM[n], 3) == d
    a = TransistorInventory((("N", 8, 3), ("P", 29, 1)))
    b = TransistorInventory((("P", 37, 2),))
    assert inventory_area(a + b) == pytest.approx(inventory_area(a) + inventory_area(b))
    ratio = (area_report(build_qfa("qfa2", 0.9)).total_sigma_di_nm
             / area_report(build_binary_slice("bfa2", 0.9)).total_sigma_di_nm)
    assert 3.0 <= ratio <= 5.0, f"ratio {ratio}"


@_result(7, "1000 random stimuli per cell never beat the STA bound; the "
            "sensitized worst case equals it within 0.1 ps")
def test_criterion_7_sta_simulation_bracket():
    rng = np.random.default_rng(2024)
    cells = {
        "qfa1": build_qfa("qfa1", 0.9, cl=2e-15),
        "qfa2": build_qfa("qfa2", 0.9, cl=2e-15),
        "bfa1": build_bfa("bfa1", 0.9, cl=2e-15),
        "bfa2": build_bfa("bfa2", 0.9, cl=2e-15),
    }
    for name, cell in cells.items():
        inputs = sorted(p.name for p in cell.input_ports())
        outputs = sorted(p.name for p in cell.output_ports())
        bound = sta(cell, tuple(inputs), tuple(outputs)).arrivals_ps
        radix = {p.name: p.encoding.radix for p in cell.input_ports()}
        for _ in range(1000):
            initial = {p: L(int(rng.integers(0, radix[p]))) for p in inputs}
            events = []
            t = 1000.0
            for _k in range(4):
                port = inputs[int(rng.integers(0, len(inputs)))]
                events.append((t, port, L(int(rng.integers(0, radix[port])))))
                t += 1000.0
            tr = simulate(cell, Stimulus(initial=initial, events=tuple(events),
                                         duration_ps=t + 1000.0))
            for out in outputs:
                for _, d in step_response_delays(tr, out):
                    if d is not None:
                        assert d <= bound[out] + 1e-9, (name, out, d, bound[out])
    for kind in ("qfa1", "qfa2"):
        cell = build_qfa(kind, 0.9, cl=2e-15)
        arrival = sta(cell, ("Cin",), ("Cout",)).worst_arrival_ps
        tr = simulate(cell, worst_case_stimulus("carry_to_carry", kind))
        measured = max(d for _, d in step_response_delays(tr, "Cout")
                       if d is not None)
        assert abs(measured - arrival) <= 0.1 + 1e-9, (kind, measured, arrival)


@_result(8, "ripple arrival is affine in digit count with the per-cell "
            "carry delay as slope, exactly, for N in {1,2,4,8,16}")
def test_criterion_8_linear_ripple_scaling():
    arrivals = {}
    for n in (1, 2, 4, 8, 16):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
        arrivals[n] = sta(cpa, ("C0",), (f"C{n}",)).worst_arrival_ps
    slope = arrivals[2] - arrivals[1]
    assert slope > 0
    for n, arrival in arrivals.items():
        assert arrival == arrivals[1] + (n - 1) * slope  # exact in ticks


@_result(9, "the four-config comparison is byte-identical across repeated "
            "runs and thread counts")
def test_criterion_9_determinism():
    configs = [AdderConfig("qfa1", 0.9), AdderConfig("qfa2", 0.9),
               AdderConfig("bfa2x2", 0.9), AdderConfig("bfa2x2", 0.45)]
    runs = [compare(configs, threads=t) for t in (1, 1, 4, 8)]
    blobs_json = {rows_to_json(r).encode() for r in runs}
    blobs_csv = {rows_to_csv(r).encode() for r in runs}
    assert len(blobs_json) == 1
    assert len(blobs_csv) == 1
