import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvadder
from mvadder import _kernel, engine
from mvadder.engine import (
    SimulationTimeoutError,
    Stimulus,
    StimulusError,
    STEP_PS,
    UnsettledOutputError,
    measure_delay,
    measure_power,
    settle_matrix,
    simulate,
    step_response_delays,
    stimulus_step_ps,
    worst_case_stimulus,
)
from mvadder.gates import (
    KIND_SPECS,
    KINDS,
    CellLibrary,
    CellSpec,
    eval_primitive,
    kind_table,
    switching_energy,
)
from mvadder.levels import (
    DigitVector,
    DomainError,
    Level,
    binary_full,
    cpa_oracle,
    cpa_oracle_rows,
    quaternary,
)
from mvadder.netlist import (
    _Builder,
    build_bfa,
    build_binary_slice,
    build_cpa,
    build_qfa,
    from_json,
    to_json,
    validate,
)
from mvadder.timing import sta
from circuit_edits import UNBIND, edited
from random_circuits import random_circuit

L = Level


def single_inv(cl=2e-15, vdd=0.9):
    b = _Builder("inv1", CellLibrary.default())
    enc = binary_full(vdd)
    a = b.port("A", "in", enc)
    y = b.port("Y", "out", enc, net="n_y", external_load=cl)
    b.inst("inv", "inv", vdd, enc, {"a": a, "y": y})
    return b.finalize(vdd=vdd)


def inv_chain(n, cl=2e-15, vdd=0.9):
    b = _Builder(f"chain{n}", CellLibrary.default())
    enc = binary_full(vdd)
    prev = b.port("A", "in", enc)
    for i in range(n - 1):
        nxt = b.net(f"n{i}", enc)
        b.inst(f"inv{i}", "inv", vdd, enc, {"a": prev, "y": nxt})
        prev = nxt
    y = b.port("Y", "out", enc, net="n_y", external_load=cl)
    b.inst(f"inv{n-1}", "inv", vdd, enc, {"a": prev, "y": y})
    return b.finalize(vdd=vdd)


# --------------------------------------------------------------------------
# Basic stepping and delay measurement


def test_single_inverter_step_delay_21ps():
    # 1 ps intrinsic + 10 kOhm * 2 fF = 21 ps
    c = single_inv()
    stim = Stimulus(initial={"A": L.L0}, events=((1000.0, "A", L.L1),),
                    duration_ps=2000.0)
    tr = simulate(c, stim)
    assert measure_delay(tr, "A", 0, "Y") == pytest.approx(21.0)
    assert tr.final_level("Y") is L.L0


def test_qfa2_cin_step_matches_truth_table_row():
    # A=2, B=1: Cin 0->1 drives Sum 3->0 and Cout 0->1
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    stim = Stimulus(initial={"A": L.L2, "B": L.L1, "Cin": L.L0},
                    events=((1000.0, "Cin", L.L1),), duration_ps=3000.0)
    tr = simulate(c, stim)
    assert tr.final_level("Sum") is L.L0
    assert tr.final_level("Cout") is L.L1
    assert measure_delay(tr, "Cin", 0, "Cout") == pytest.approx(24.0)


def test_doubling_load_increases_measured_delay():
    delays = []
    for cl in (2e-15, 4e-15):
        c = build_qfa("qfa2", 0.9, cl=cl)
        stim = worst_case_stimulus("carry_to_carry", "qfa2")
        tr = simulate(c, stim)
        delays.append(measure_delay(tr, "Cin", 0, "Cout"))
    assert delays[1] > delays[0]


def test_unaffected_output_reports_no_transition():
    # A=0, B=0: Cin toggle flips Sum but never Cout (0+0+1 < 4)
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    stim = Stimulus(initial={"A": L.L0, "B": L.L0, "Cin": L.L0},
                    events=((1000.0, "Cin", L.L1),), duration_ps=3000.0)
    tr = simulate(c, stim)
    assert measure_delay(tr, "Cin", 0, "Cout") is None
    assert measure_delay(tr, "Cin", 0, "Sum") is not None


def test_measure_delay_bad_event_index():
    c = single_inv()
    tr = simulate(c, Stimulus(initial={"A": L.L0}, events=((100.0, "A", L.L1),),
                              duration_ps=500.0))
    with pytest.raises(DomainError):
        measure_delay(tr, "A", 3, "Y")


# --------------------------------------------------------------------------
# Quiescence, settle accounting, errors


def test_constant_stimulus_settles_with_no_measurement_activity():
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    stim = Stimulus(initial={"A": L.L2, "B": L.L1, "Cin": L.L1}, duration_ps=1000.0)
    tr = simulate(c, stim)
    assert tr.measurement_energy == 0.0
    assert tr.total_energy == tr.settle_energy
    assert tr.total_energy > 0.0
    assert (tr.times[tr.n_settle:] .size) == 0
    # settled outputs follow the truth table: 2+1+1 = 0 carry 1
    assert tr.final_level("Sum") is L.L0
    assert tr.final_level("Cout") is L.L1


def test_timeout_when_duration_too_short():
    c = inv_chain(6)
    stim = Stimulus(initial={"A": L.L0}, events=((10.0, "A", L.L1),),
                    duration_ps=12.0)  # six gate delays cannot fit in 2 ps
    with pytest.raises(SimulationTimeoutError, match=r"1 nets still pending at tick \d+: \['n0'\]"):
        simulate(c, stim)


def test_carry_to_carry_stimulus_of_a_binary_cell():
    assert worst_case_stimulus("carry_to_carry", "bfa1") == Stimulus(
        initial={"A": L.L0, "B": L.L1, "Cin": L.L0},
        events=((2000.0, "Cin", L.L1), (4000.0, "Cin", L.L0)), duration_ps=6000.0)


def test_input_to_carry_stimuli_step_every_step_ps_with_b_at_three():
    q = worst_case_stimulus("input_to_carry", "qfa2")
    assert q.initial == {"A": L.L0, "B": L.L3, "Cin": L.L0}
    assert [t for t, _, _ in q.events] == [k * STEP_PS for k in range(1, 7)] == [
        2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0]
    assert q.duration_ps == 7 * STEP_PS
    s = worst_case_stimulus("input_to_carry", "bfa2x2")
    assert (s.initial["B0"], s.initial["B1"]) == (L.L1, L.L1)


def test_stimulus_step_is_step_ps_or_one_tick_past_the_sta_arrival():
    assert stimulus_step_ps(None) == stimulus_step_ps(435.0) == STEP_PS
    assert stimulus_step_ps(1999.9) == STEP_PS
    assert stimulus_step_ps(2000.0) == 2000.1
    assert stimulus_step_ps(14004.0) == 14004.1
    c = worst_case_stimulus("carry_to_carry", "qfa2", step_ps=2004.1)
    assert [t for t, _, _ in c.events] == [2004.1, 4008.2] and c.duration_ps == 3 * 2004.1
    q = worst_case_stimulus("input_to_carry", "bfa2x2", step_ps=3000.0)
    assert {t for t, _, _ in q.events} == {3000.0 * k for k in range(1, 7)}
    assert q.duration_ps == 21000.0


def test_stimulus_step_is_keyword_only():
    # a stale positional supply (the parameter it replaced) must not become a step
    with pytest.raises(TypeError):
        worst_case_stimulus("carry_to_carry", "qfa2", 0.9)


def test_stimulus_validation():
    c = single_inv()
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={}, duration_ps=100.0))
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.L0, "B": L.L0}, duration_ps=100.0))
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.L2}, duration_ps=100.0))  # binary port
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.X}, duration_ps=100.0))
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.L0},
                             events=((50.0, "Y", L.L1),), duration_ps=100.0))
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.L0},
                             events=((50.0, "A", L.L1), (50.0, "A", L.L0)),
                             duration_ps=100.0))
    with pytest.raises(StimulusError):
        simulate(c, Stimulus(initial={"A": L.L0},
                             events=((500.0, "A", L.L1),), duration_ps=100.0))
    with pytest.raises(StimulusError):
        # distinct ps times that land on the same 0.1 ps tick
        simulate(c, Stimulus(initial={"A": L.L0},
                             events=((50.01, "A", L.L1), (50.02, "A", L.L0)),
                             duration_ps=100.0))


def test_stimulus_times_must_be_finite_and_in_tick_range():
    c = single_inv()
    for stim, field in (
        (Stimulus(initial={"A": L.L0}, duration_ps=1e300), "duration_ps"),
        (Stimulus(initial={"A": L.L0}, duration_ps=float("nan")), "duration_ps"),
        (Stimulus(initial={"A": L.L0}, duration_ps=-1.0), "duration_ps"),
        (Stimulus(initial={"A": L.L0}, events=((float("nan"), "A", L.L1),),
                  duration_ps=100.0), "event at nan"),
        (Stimulus(initial={"A": L.L0}, events=((float("inf"), "A", L.L1),),
                  duration_ps=float("inf")), "duration_ps"),
    ):
        with pytest.raises(StimulusError, match=field):
            simulate(c, stim)


def test_stimulus_levels_must_be_whole_numbers():
    c = single_inv()
    for initial, events in (({"A": 2.7}, []), ({"A": 0}, [[50.0, "A", 0.5]]),
                            ({"A": "x"}, []), ({"A": float("inf")}, []),
                            ({"A": "1"}, []), ({"A": True}, []), ({"A": 0}, [[50.0, "A", "1"]])):
        blob = {"initial": initial, "events": events, "duration_ps": 100.0}
        with pytest.raises(StimulusError, match="A: .* is not a logic level"):
            Stimulus.from_json(blob)
        with pytest.raises(StimulusError, match="A: .* is not a logic level"):
            simulate(c, Stimulus(initial=initial, events=tuple(map(tuple, events)),
                                 duration_ps=100.0))
    # a numpy number is a number through the Python API
    stim = Stimulus(initial={"A": np.int64(1)}, events=((50.0, "A", np.float64(0.0)),))
    assert simulate(c, stim).final_level("Y") == L.L1
    stim = Stimulus.from_json({"initial": {"A": 1.0}, "events": [], "duration_ps": 10.0})
    assert stim.initial == {"A": L.L1}


# --------------------------------------------------------------------------
# Determinism


def test_traces_are_bit_identical_across_runs():
    c = build_qfa("qfa1", 0.9, cl=2e-15)
    stim = worst_case_stimulus("input_to_carry", "qfa1")
    t1 = simulate(c, stim)
    t2 = simulate(c, stim)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.nets, t2.nets)
    assert np.array_equal(t1.levels, t2.levels)
    assert np.array_equal(t1.energies, t2.energies)
    assert t1.total_energy == t2.total_energy
    assert t1.origin_ticks == t2.origin_ticks


# --------------------------------------------------------------------------
# Energy ledger


def test_energy_ledger_consistency():
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    stim = worst_case_stimulus("input_to_carry", "qfa2")
    tr = simulate(c, stim)
    comp = tr.compiled
    # recompute every ledger entry from the waveform: walk transitions per
    # net and apply C*(dV)^2/2
    last_v = {}
    total = 0.0
    for t, n, lvl, e, s in zip(tr.times, tr.nets, tr.levels, tr.energies, tr.srcs):
        v_to = c.nets[comp.net_ids[n]].encoding.level_voltages[lvl] if lvl >= 0 else 0.0
        v_from = last_v.get(int(n), 0.0)
        expect = 0.5 * comp.net_cap[n] * (v_to - v_from) ** 2 if s == 0 else 0.0
        assert e == pytest.approx(expect, abs=1e-25)
        last_v[int(n)] = v_to
        total += e
    assert tr.total_energy == pytest.approx(total)


def test_input_transitions_carry_no_energy():
    c = single_inv()
    stim = Stimulus(initial={"A": L.L0}, events=((100.0, "A", L.L1),),
                    duration_ps=400.0)
    tr = simulate(c, stim)
    assert tr.energies[tr.srcs == 1].sum() == 0.0
    assert tr.energies[tr.srcs == 0].sum() > 0.0


def test_energy_scales_linearly_with_capacitance():
    def scaled_lib(alpha):
        lib = CellLibrary.default()
        cells = {}
        for kind, spec in lib.cells.items():
            cells[kind] = CellSpec(
                input_cap_per_pin=spec.input_cap_per_pin * alpha,
                drive_resistance_ref=spec.drive_resistance_ref,
                intrinsic_delay=spec.intrinsic_delay,
                threshold_voltage=spec.threshold_voltage,
                inventory=spec.inventory,
            )
        return CellLibrary(cells)

    stim = worst_case_stimulus("carry_to_carry", "qfa2")
    base = simulate(build_qfa("qfa2", 0.9, cl=2e-15), stim).total_energy
    for alpha in (0.5, 2.0, 3.0):
        c = build_qfa("qfa2", 0.9, scaled_lib(alpha), cl=2e-15 * alpha)
        assert simulate(c, stim).total_energy == pytest.approx(alpha * base)


def test_halving_swing_quarters_power_exactly():
    # same logical stimulus at vdd and vdd/2 with identical activity
    def run(vdd):
        c = build_bfa("bfa2", vdd, cl=2e-15)
        stim = worst_case_stimulus("input_to_carry", "bfa2")
        tr = simulate(c, stim)
        acts = [(int(n), int(l)) for n, l, s in zip(tr.nets, tr.levels, tr.srcs)
                if s == 0]
        return measure_power(tr, (0.0, stim.duration_ps)), acts

    p_full, act_full = run(0.9)
    p_half, act_half = run(0.45)
    assert act_full == act_half  # unchanged switching activity
    assert p_half / p_full == pytest.approx(0.25, rel=1e-12)


def test_measure_power_examples():
    c = single_inv()
    # quiescent window -> 0 W
    tr = simulate(c, Stimulus(initial={"A": L.L0}, duration_ps=1000.0))
    assert measure_power(tr, (0.0, 1000.0)) == 0.0
    # one 0->0.9 V edge on a 2 fF net in a 1 ns window -> 0.81 uW
    stim = Stimulus(initial={"A": L.L1}, events=((100.0, "A", L.L0),),
                    duration_ps=1000.0)
    tr = simulate(c, stim)
    assert measure_power(tr, (0.0, 1000.0)) == pytest.approx(0.81e-6)
    with pytest.raises(DomainError):
        measure_power(tr, (500.0, 500.0))
    with pytest.raises(DomainError):
        measure_power(tr, (0.0, 5000.0))


# --------------------------------------------------------------------------
# Inertial filtering


def test_pulse_shorter_than_gate_delay_is_absorbed():
    c = single_inv()  # delay 21 ps
    stim = Stimulus(initial={"A": L.L0},
                    events=((100.0, "A", L.L1), (110.0, "A", L.L0)),
                    duration_ps=400.0)
    tr = simulate(c, stim)
    assert tr.transition_count("Y") == 0
    # and a pulse longer than the delay gets through (both edges)
    stim2 = Stimulus(initial={"A": L.L0},
                     events=((100.0, "A", L.L1), (200.0, "A", L.L0)),
                     duration_ps=500.0)
    tr2 = simulate(c, stim2)
    assert tr2.transition_count("Y") == 2


def test_emitted_glitch_energy_is_counted():
    # reconvergent paths: a 10-buffer detour (30 ps) into one XOR leg beats
    # the XOR's own 21 ps output delay, so the hazard pulse is emitted and
    # both of its edges must land in the ledger
    b = _Builder("glitchy", CellLibrary.default())
    enc = binary_full(0.9)
    a = b.port("A", "in", enc)
    prev = a
    for i in range(10):
        nxt = b.net(f"n_slow{i}", enc)
        b.inst(f"buf{i}", "buf", 0.9, enc, {"a": prev, "y": nxt})
        prev = nxt
    y = b.port("Y", "out", enc, net="n_y", external_load=2e-15)
    b.inst("x", "xor_tg", 0.9, enc, {"a": a, "b": prev, "y": y,
                                     "yb": b.net("n_yb", enc)})
    c = b.finalize()
    stim = Stimulus(initial={"A": L.L0}, events=((100.0, "A", L.L1),),
                    duration_ps=800.0)
    tr = simulate(c, stim)
    assert tr.transition_count("Y") == 2
    y_net = tr.net_index("Y")
    mask = (tr.nets == y_net) & (tr.srcs == 0)
    assert tr.energies[mask].sum() == pytest.approx(2 * 0.5 * 2e-15 * 0.81)


def test_short_reconvergent_hazard_is_absorbed():
    # same shape but a 2-buffer detour (6 ps) is shorter than the XOR's
    # 21 ps delay: inertial filtering swallows the pulse entirely
    b = _Builder("quiet", CellLibrary.default())
    enc = binary_full(0.9)
    a = b.port("A", "in", enc)
    prev = a
    for i in range(2):
        nxt = b.net(f"n_slow{i}", enc)
        b.inst(f"buf{i}", "buf", 0.9, enc, {"a": prev, "y": nxt})
        prev = nxt
    y = b.port("Y", "out", enc, net="n_y", external_load=2e-15)
    b.inst("x", "xor_tg", 0.9, enc, {"a": a, "b": prev, "y": y,
                                     "yb": b.net("n_yb", enc)})
    c = b.finalize()
    stim = Stimulus(initial={"A": L.L0}, events=((100.0, "A", L.L1),),
                    duration_ps=800.0)
    tr = simulate(c, stim)
    assert tr.transition_count("Y") == 0


# --------------------------------------------------------------------------
# Worst-case stimuli


def test_input_to_carry_walks_seven_plateaus():
    stim = worst_case_stimulus("input_to_carry", "qfa2")
    assert stim.initial == {"A": L.L0, "B": L.L3, "Cin": L.L0}
    seq = [int(l) for _, p, l in stim.events if p == "A"]
    assert seq == [1, 2, 3, 2, 1, 0]
    assert all(p == "A" for _, p, _ in stim.events)


def test_carry_to_carry_rail_voltages():
    s1 = worst_case_stimulus("carry_to_carry", "qfa1")
    s2 = worst_case_stimulus("carry_to_carry", "qfa2")
    assert s1.initial == {"A": L.L2, "B": L.L1, "Cin": L.L0}
    c1 = build_qfa("qfa1", 0.9)
    c2 = build_qfa("qfa2", 0.9)
    enc1 = c1.ports["Cin"].encoding
    enc2 = c2.ports["Cin"].encoding
    # same logical 0->1->0 toggle; rails at 0.3 V vs 0.9 V
    assert [int(l) for _, _, l in s1.events] == [1, 0]
    assert enc1.level_voltages[1] == pytest.approx(0.3)
    assert enc2.level_voltages[1] == pytest.approx(0.9)


def test_slice_stimulus_uses_bit_encoded_equivalents():
    stim = worst_case_stimulus("carry_to_carry", "bfa2x2")
    assert stim.initial == {"A0": L.L0, "A1": L.L1, "B0": L.L1, "B1": L.L0,
                            "Cin": L.L0}
    sl = build_binary_slice("bfa2", 0.9, cl=2e-15)
    tr = simulate(sl, stim)
    # fully sensitized: the carry ripples through both cells on each toggle
    assert measure_delay(tr, "Cin", 0, "Cout") is not None


# --------------------------------------------------------------------------
# Batch settle and file formats


def test_settle_matrix_agrees_with_simulate_on_every_qfa1_input():
    c = build_qfa("qfa1", 0.9)
    vectors = list(itertools.product(range(4), range(4), range(2)))
    got = settle_matrix(c, ["A", "B", "Cin"], vectors, ["Sum", "Cout"])
    assert got.shape == (32, 2)
    for row, settled in zip(vectors, got):
        tr = _settled_by_simulate(c, ["A", "B", "Cin"], row)
        assert [tr.final_level("Sum"), tr.final_level("Cout")] == settled.tolist()


def _settled_by_simulate(c, in_ports, row):
    initial = {p: L(int(v)) for p, v in zip(in_ports, row)}
    return simulate(c, Stimulus(initial=initial, duration_ps=100.0))


@pytest.mark.parametrize("kind", ["qfa1", "qfa2", "bfa1", "bfa2"])
def test_settle_matrix_agrees_with_simulate_on_cpas(kind):
    build = build_qfa if kind.startswith("qfa") else build_bfa
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        cpa = build_cpa(build(kind, 0.9), n, cl=2e-15)
        radix = cpa.ports["A0"].encoding.radix
        in_ports = ["C0"] + [f"A{i}" for i in range(n)] + [f"B{i}" for i in range(n)]
        vectors = np.column_stack([rng.integers(0, 2, 12),
                                   rng.integers(0, radix, (12, 2 * n))])
        out_ports = sorted(p.name for p in cpa.output_ports())
        got = settle_matrix(cpa, in_ports, vectors, out_ports)
        assert got.dtype == np.int64 and got.shape == (12, n + 1)
        for row, settled in zip(vectors, got):
            tr = _settled_by_simulate(cpa, in_ports, row)
            assert [tr.final_level(p) for p in out_ports] == settled.tolist()


def test_settle_matrix_across_block_boundary_equals_array_oracle():
    n = 6
    rows = _kernel._BLOCK_ROWS + 476  # 1500: one full block and a partial one
    cpa = build_cpa(build_qfa("qfa2", 0.9), n)
    rng = np.random.default_rng(9)
    vectors = np.column_stack([rng.integers(0, 2, rows), rng.integers(0, 4, (rows, 2 * n))])
    in_ports = ["C0"] + [f"A{i}" for i in range(n)] + [f"B{i}" for i in range(n)]
    got = settle_matrix(cpa, in_ports, vectors, [f"S{i}" for i in range(n)] + [f"C{n}"])
    sums, couts = cpa_oracle_rows(vectors[:, 1: 1 + n], vectors[:, 1 + n:], vectors[:, 0], 4)
    assert got.tolist() == np.column_stack([sums, couts]).tolist()


def test_settle_matrix_range_check_names_the_first_bad_port():
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    in_ports = ["C0", "A0", "A1", "B0", "B1"]
    for row, port in (([0, 0, 0, 0, -1], "B1: levels outside 4"),
                      ([0, 4, 0, 0, 9], "A0: levels outside 4"),
                      ([2, 0, 0, 0, 0], "C0: levels outside 2")):
        with pytest.raises(StimulusError, match=port):
            settle_matrix(cpa, in_ports, [[0] * 5, row])
    assert settle_matrix(cpa, in_ports, np.zeros((0, 5), np.int64)).shape == (0, 3)


@pytest.mark.parametrize("run", [
    lambda c: settle_matrix(c, ["A", "B", "Cin"], [[0, 0, 0]]),
    lambda c: simulate(c, worst_case_stimulus("carry_to_carry", "qfa2")),
    lambda c: sta(c, ["no_such_port"], ["Cout"]),  # validity is checked first
], ids=["settle_matrix", "simulate", "sta"])
def test_invalid_circuit_is_rejected_by_name_before_compiling(run):
    c = edited(build_qfa("qfa2", 0.9), pins={"inv_cout.a": UNBIND})
    with pytest.raises(DomainError, match=r"circuit invalid: .*inv_cout: pin a unbound"):
        run(c)


def tie_off_circuit(mix_port=False, vdd=0.9):
    """Y0 = inv(A). dead = inv(const 1) and dom = nand(dead, const 0) are fed
    only by constant nets; mix = nand(A, dead) and tail = nand(mix, const 0)
    are decided by them. ``mix_port`` makes mix the output port Y1."""
    b = _Builder("tieoff", CellLibrary.default())
    enc = binary_full(vdd)
    a = b.port("A", "in", enc)
    one = b.const("k1", L.L1, enc)
    zero = b.const("k0", L.L0, enc)
    dead = b.net("dead", enc)
    mix = b.port("Y1", "out", enc, net="mix") if mix_port else b.net("mix", enc)
    b.inst("g_dead", "inv", vdd, enc, {"a": one, "y": dead})
    b.inst("g_dom", "nand", vdd, enc, {"a": dead, "b": zero, "y": b.net("dom", enc)})
    b.inst("g_mix", "nand", vdd, enc, {"a": a, "b": dead, "y": mix})
    b.inst("g_tail", "nand", vdd, enc, {"a": mix, "b": zero, "y": b.net("tail", enc)})
    b.inst("g_y0", "inv", vdd, enc, {"a": a, "y": b.port("Y0", "out", enc)})
    return b.finalize(vdd=vdd)


def test_constant_fed_gates_settle_alike_in_both_engines():
    c = tie_off_circuit()
    comp = _kernel.compile_circuit(c)
    assert [comp.gate_kind[g] for g in comp.const_gates] == ["inv", "nand", "nand"]
    for a in (0, 1):
        tr = _settled_by_simulate(c, ["A"], [a])
        final = {nid: int(tr.final_levels[i]) for nid, i in comp.net_index.items()}
        assert [final[n] for n in ("dead", "dom", "mix", "tail")] == [0, 1, 1, 1]
        settled = _kernel.settle_batch(comp, np.array([comp.in_port_net["A"]]),
                                       np.array([[a]]), np.arange(comp.n_nets))
        assert settled[0].tolist() == tr.final_levels.tolist()
    # Y1 = nand(A, inv(const 1)) is 1 whatever A is
    c = tie_off_circuit(mix_port=True)
    assert validate(c) == []
    assert settle_matrix(c, ["A"], [[0], [1]], ["Y0", "Y1"]).tolist() == [[1, 1], [0, 1]]
    assert _settled_by_simulate(c, ["A"], [1]).final_level("Y1") is L.L1


def test_unsettled_batch_output_names_ports_and_first_row():
    c = nand_l2_circuit(y_port=True)  # Y1 is X exactly when A >= 2 and B = 1
    with pytest.raises(UnsettledOutputError,
                       match=r"outputs \['Y1'\] settled to X .* first at vector row 2"):
        settle_matrix(c, ["A", "B"], [[1, 1], [2, 0], [2, 1], [0, 0], [3, 1]], ["Y0", "Y1"])


def test_unsettled_simulate_output_names_the_x_ports():
    c = nand_l2_circuit(y_port=True)
    with pytest.raises(UnsettledOutputError, match=r"outputs \['Y1'\] still X"):
        _settled_by_simulate(c, ["A", "B"], [3, 1])


def test_the_event_loop_raises_each_failure_with_its_full_message():
    """The unsettled, timeout and event-budget errors, raised by the event
    loop where it finds them."""
    with pytest.raises(UnsettledOutputError) as err:
        _settled_by_simulate(nand_l2_circuit(y_port=True), ["A", "B"], [3, 1])
    assert str(err.value) == "outputs ['Y1'] still X at the end of the settle phase"
    with pytest.raises(SimulationTimeoutError) as err:
        simulate(inv_chain(6), Stimulus({"A": L.L0}, ((10.0, "A", L.L1),), 12.0))
    assert str(err.value) == ("circuit not quiescent within duration (12.0 ps); "
                              "1 nets still pending at tick 10490: ['n0']")
    comp = _kernel.compile_circuit(build_qfa("qfa2", 0.9))
    initial = sorted((net, 0) for net in comp.in_port_net.values())
    with pytest.raises(SimulationTimeoutError) as err:
        _kernel._run_single(comp, initial, [], 100.0, 10, max_events=4)
    assert str(err.value) == (
        "event budget exceeded; circuit appears unstable; 7 nets still pending at tick 30: "
        "['n_sum', 'b_lt1', 'b_lt2', 'b_lt3', 'a_plus1', 'a_plus2', 'a_plus3']")
    origin, n_settle, records, cur = _kernel._run_single(comp, initial, [], 100.0, 10, 10_000)
    assert n_settle == len(records) and origin == records[-1][0] + 10
    assert [cur[comp.out_port_net[p]] for p in ("Sum", "Cout")] == [0, 0]
    for name in ("SimulationTimeoutError", "UnsettledOutputError"):
        assert getattr(mvadder, name) is getattr(engine, name) is getattr(_kernel, name)


@pytest.mark.parametrize("kind", KINDS)
def test_kind_table_rows_equal_eval_primitive(kind):
    """Row r is eval_primitive at the levels whose codes (level + 1),
    weighted by the kind's weights, sum to r; the first pin is the most
    significant base-5 digit, so the rows run in itertools.product order."""
    spec = KIND_SPECS[kind]
    table = kind_table(kind)
    n_in, n_out = len(spec.inputs), len(spec.outputs)
    assert table.shape == (5 ** n_in, 2)
    assert spec.weights == tuple(5 ** (n_in - 1 - j) for j in range(n_in))
    combos = itertools.product(range(-1, 4), repeat=n_in)
    for r, (row, levels) in enumerate(zip(table.tolist(), combos)):
        assert sum(w * (lvl + 1) for w, lvl in zip(spec.weights, levels)) == r
        try:
            want = [int(v) for v in eval_primitive(kind, levels)]
        except DomainError:
            want = [-1] * n_out
        assert row == want + [-1] * (2 - n_out), levels


@pytest.mark.parametrize("kind", KINDS)
def test_kind_table_outputs_stay_decided_when_an_x_input_is_resolved(kind):
    """Replacing an X input by any level never changes a non-X output. So
    in the settle phase every net moves at most once, from X to its final
    level, which settle_batch's one topological pass relies on."""
    weights = KIND_SPECS[kind].weights
    table = kind_table(kind)
    for r, codes in enumerate(itertools.product(range(5), repeat=len(weights))):
        for j, code in enumerate(codes):
            if code == 0:
                weight = weights[j]
                decided = table[r] >= 0
                for lvl in range(4):
                    resolved = table[r + (lvl + 1) * weight]
                    assert (resolved[decided] == table[r][decided]).all(), codes


def nand_l2_circuit(y_port, vdd=0.9):
    """n = nand(A, B) with A quaternary, outside nand's binary domain
    unless B = 0 decides it; Y0 = inv(B). ``y_port`` makes n the output
    port Y1."""
    b = _Builder("nand_l2", CellLibrary.default())
    enc = binary_full(vdd)
    a = b.port("A", "in", quaternary(vdd))
    bb = b.port("B", "in", enc)
    n = b.port("Y1", "out", enc, net="n") if y_port else b.net("n", enc)
    b.inst("g_n", "nand", vdd, enc, {"a": a, "b": bb, "y": n})
    b.inst("g_y0", "inv", vdd, enc, {"a": bb, "y": b.port("Y0", "out", enc)})
    return b.finalize(vdd=vdd)


def test_gate_fed_outside_its_domain_gives_x_in_both_engines():
    c = nand_l2_circuit(y_port=False)
    comp = _kernel.compile_circuit(c)
    n = comp.net_index["n"]
    in_nets = np.array([comp.in_port_net["A"], comp.in_port_net["B"]])
    for a, bv, want in ((1, 1, 0), (2, 0, 1), (2, 1, -1), (3, 1, -1)):
        tr = _settled_by_simulate(c, ["A", "B"], [a, bv])
        settled = _kernel.settle_batch(comp, in_nets, np.array([[a, bv]]),
                                       np.arange(comp.n_nets))
        assert settled[0].tolist() == tr.final_levels.tolist()
        assert tr.final_levels[n] == want
    c = nand_l2_circuit(y_port=True)
    assert settle_matrix(c, ["A", "B"], [[1, 1]], ["Y1"]).tolist() == [[0]]
    with pytest.raises(UnsettledOutputError):
        _settled_by_simulate(c, ["A", "B"], [2, 1])
    with pytest.raises(UnsettledOutputError):
        settle_matrix(c, ["A", "B"], [[2, 1]])


def reference_settle(c, assign):
    """Every net's settled level from eval_primitive, gates evaluated
    after their drivers (X where a DomainError is raised)."""
    level = {nid: L(net.driver[1]) for nid, net in c.nets.items()
             if net.driver is not None and net.driver[0] == "const"}
    level.update({c.ports[p].net: L(int(v)) for p, v in assign.items()})
    driver = {inst.pins[p]: inst for inst in c.instances.values()
              for p in KIND_SPECS[inst.primitive.kind].outputs}

    def settle(nid):
        if nid not in level:
            inst = driver[nid]
            ins = [settle(inst.pins[p]) for p in KIND_SPECS[inst.primitive.kind].inputs]
            opins = KIND_SPECS[inst.primitive.kind].outputs
            try:
                outs = eval_primitive(inst.primitive.kind, ins)
            except DomainError:
                outs = [L.X] * len(opins)
            level.update({inst.pins[p]: v for p, v in zip(opins, outs)})
        return level[nid]

    return {nid: int(settle(nid)) for nid in c.nets}


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_batch_settle_agrees_with_event_engine_on_random_circuits(seed):
    """On every net, the batch settle, the event engine's settle and
    reference_settle agree."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    comp = _kernel.compile_circuit(c)
    in_ports = sorted(comp.in_port_net)
    in_nets = np.array([comp.in_port_net[p] for p in in_ports])
    vectors = np.column_stack(
        [rng.integers(0, comp.port_encoding[p].radix, 4) for p in in_ports])
    batch = _kernel.settle_batch(comp, in_nets, vectors, np.arange(comp.n_nets))
    for row, settled in zip(vectors, batch):
        ref = reference_settle(c, dict(zip(in_ports, row)))
        want = [ref[nid] for nid in comp.net_ids]
        assert settled.tolist() == want
        tr = _settled_by_simulate(c, in_ports, row)
        assert tr.final_levels.tolist() == want
        assert tr.levels.min(initial=0) >= -1  # nothing below X


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_random_stimuli_on_random_circuits(seed, data):
    """simulate ends at settle_batch's levels for the final input vector;
    every gate-driven record's energy is switching_energy of its net's load
    between the compiled rail voltages of its levels; each step delay is the
    last transition after the step up to the next, read record by record;
    and the circuit reloaded from JSON simulates to the identical trace."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    comp = _kernel.compile_circuit(c)
    ports = sorted(comp.in_port_net)
    level = {p: data.draw(st.integers(0, comp.port_encoding[p].radix - 1)) for p in ports}
    initial = {p: L(v) for p, v in level.items()}
    events = []
    # half-ps steps land events within a gate delay of each other
    for t in sorted(data.draw(st.lists(st.integers(0, 400), max_size=8, unique=True))):
        p = data.draw(st.sampled_from(ports))
        level[p] = data.draw(st.integers(0, comp.port_encoding[p].radix - 1))
        events.append((t * 0.5, p, L(level[p])))
    stim = Stimulus(initial=initial, events=tuple(events), duration_ps=1e5)
    tr = simulate(c, stim)

    final = np.array([[level[p] for p in ports]])
    in_nets = np.array([comp.in_port_net[p] for p in ports])
    settled = _kernel.settle_batch(comp, in_nets, final, np.arange(comp.n_nets))
    assert tr.final_levels.tolist() == settled[0].tolist()

    cur = comp.net_init.tolist()
    for n, lvl, energy, src in zip(tr.nets, tr.levels, tr.energies, tr.srcs):
        if src == 0:
            v_from, v_to = comp.net_rail[n][cur[n]], comp.net_rail[n][lvl]
            assert energy == switching_energy(float(comp.net_cap[n]), v_from, v_to)
        cur[n] = lvl

    steps = sorted({t for t, _, _ in tr.stim_events})
    ends = [*steps[1:], tr.origin_ticks + tr.duration_ticks]
    for ni, net in enumerate(comp.net_ids):  # no output ports: every net instead
        want = []
        for t, end in zip(steps, ends):
            moves = [int(x) for x, n in zip(tr.times, tr.nets) if n == ni and t < x <= end]
            want.append(((t - tr.origin_ticks) * _kernel.TICK_PS,
                         (max(moves) - t) * _kernel.TICK_PS if moves else None))
        assert step_response_delays(tr, net) == want
        by_tick = dict(zip(steps, (d for _, d in want)))
        for src in ports:
            ticks = [t for t, p, _ in tr.stim_events if p == src]
            assert [measure_delay(tr, src, k, net) for k in range(len(ticks))] == [
                by_tick[t] for t in ticks]

    again = simulate(from_json(json.loads(json.dumps(to_json(c)))), stim)
    for name in ("times", "nets", "levels", "energies", "srcs"):
        assert np.array_equal(getattr(again, name), getattr(tr, name)), name


def test_stimulus_json_roundtrip(tmp_path):
    stim = worst_case_stimulus("input_to_carry", "qfa2")
    path = tmp_path / "stim.json"
    stim.save(path)
    loaded = Stimulus.load(path)
    assert loaded == stim
    blob = json.loads(path.read_text())
    assert set(blob) == {"initial", "events", "duration_ps"}


def test_trace_and_energy_csv(tmp_path):
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    tr = simulate(c, worst_case_stimulus("carry_to_carry", "qfa2"))
    trace_path = tmp_path / "trace.csv"
    energy_path = tmp_path / "energy.csv"
    tr.write_csv(trace_path)
    tr.write_energy_csv(energy_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "time_ps,net,level,voltage"
    assert len(lines) == len(tr.times) + 1
    for line in lines[1:]:
        t, net, level, voltage = line.split(",")
        float(t)
        int(level)
        assert net in tr.compiled.net_ids
        if voltage:
            float(voltage)
    elines = energy_path.read_text().splitlines()
    assert elines[0] == "time_ps,net,joules"
    for line in elines[1:]:
        float(line.split(",")[0])
    total = sum(float(l.split(",")[2]) for l in elines[1:])
    assert total == pytest.approx(tr.total_energy)


def test_waveform_times_strictly_increasing_per_net():
    c = build_qfa("qfa1", 0.9, cl=2e-15)
    tr = simulate(c, worst_case_stimulus("input_to_carry", "qfa1"))
    for nid in tr.compiled.net_ids:
        times = [t for t, _, _ in tr.waveform(nid)]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_compiled_delays_equal_per_gate_propagation_delay():
    from mvadder.gates import propagation_delay
    from mvadder.netlist import from_json, to_json

    c = from_json(to_json(build_cpa(build_qfa("qfa1", 0.9), 6, cl=2e-15)))
    comp = _kernel.compile_circuit(c)
    load = {nid: net.external_load for nid, net in c.nets.items()}
    for inst in c.instances.values():
        for pin in KIND_SPECS[inst.primitive.kind].inputs:
            load[inst.pins[pin]] += inst.primitive.params.input_cap_per_pin
    load.update({nid: 0.0 for nid, net in c.nets.items() if net.driver})  # supply ties
    assert comp.net_cap.tolist() == [load[nid] for nid in comp.net_ids]
    want = [
        tuple(max(1, round(propagation_delay(inst.primitive, load[inst.pins[pin]])
                           / (_kernel.TICK_PS * 1e-12)))
              for pin in KIND_SPECS[inst.primitive.kind].outputs)
        for inst in c.instances.values()
    ]
    assert comp.gate_delay == want


def test_long_carry_path_settles_with_keys_past_2_to_the_62():
    """Every gate delay is within the per-gate bound, but the settle keys
    (tick * nets + net) of the whole ripple pass 2**62; the exhausted-stream
    sentinel still compares above them."""
    slow = {kind: dataclasses.replace(spec, drive_resistance_ref=2e17)
            for kind, spec in CellLibrary.default().cells.items()}
    n = 64
    c = build_cpa(build_qfa("qfa2", 0.9, CellLibrary(slow)), n)
    rng = np.random.default_rng(7)
    a, b = (DigitVector(4, tuple(int(d) for d in rng.integers(0, 4, n))) for _ in "ab")
    initial = {"C0": L.L1, **{f"A{i}": L(a.digits[i]) for i in range(n)},
               **{f"B{i}": L(b.digits[i]) for i in range(n)}}
    tr = simulate(c, Stimulus(initial=initial, duration_ps=0.0))
    assert tr.origin_ticks * tr.compiled.n_nets > 2 ** 62
    want_sum, want_cout = cpa_oracle(a, b, 1)
    assert tuple(int(tr.final_level(f"S{i}")) for i in range(n)) == want_sum.digits
    assert int(tr.final_level(f"C{n}")) == want_cout
