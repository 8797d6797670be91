import dataclasses
import itertools
import json
import re

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
    _cpa_sums,
    binary_full,
    cpa_oracle,
    quaternary,
)
from mvadder.netlist import (
    Circuit,
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


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_step_delays_equal_a_scan_of_the_records_on_random_circuits(seed):
    """Per step, a net's delay is its last transition after the step and at
    or before the next step (or the window's end), or None. The first step
    drives two ports at once; a later step falls on the tick of a gate
    transition of the trace so far, when there is one, or on a half-ps
    step; one window in two ends on the last transition; and the constant
    nets never move."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    comp = _kernel.compile_circuit(c)
    ports = sorted(comp.in_port_net)
    level = {p: int(rng.integers(comp.port_encoding[p].radix)) for p in ports}
    initial = {p: L(v) for p, v in level.items()}
    events, t = [], 1

    def run(duration_ps: float):
        return simulate(c, Stimulus(initial=initial, events=tuple(events),
                                    duration_ps=duration_ps))

    for k in range(int(rng.integers(1, 6))):
        tr = run(1e5)
        later = [x - tr.origin_ticks for x, _, _, _, src in tr.records
                 if src == 0 and x - tr.origin_ticks > t]
        t = int(rng.choice(later)) if later and rng.integers(2) else t + 5 * int(rng.integers(1, 400))
        for p in rng.choice(ports, 2 if k == 0 else 1, replace=False).tolist():
            radix = comp.port_encoding[p].radix
            level[p] = (level[p] + int(rng.integers(1, radix))) % radix
            events.append((t / 10, p, L(level[p])))
    tr = run(1e5)
    if rng.integers(2):
        tr = run((tr.records[-1][0] - tr.origin_ticks) / 10)
    steps = sorted({t for t, _, _ in tr.stim_events})
    ends = [*steps[1:], tr.origin_ticks + tr.duration_ticks]
    for ni, net in enumerate(comp.net_ids):
        want = []
        for t, end in zip(steps, ends):
            moves = [x for x, n, *_ in tr.records if n == ni and t < x <= end]
            want.append(((t - tr.origin_ticks) * _kernel.TICK_PS,
                         (max(moves) - t) * _kernel.TICK_PS if moves else None))
        assert step_response_delays(tr, net) == want
        if net.startswith("k"):
            assert all(d is None for _, d in want)
        by_tick = dict(zip(steps, (d for _, d in want)))
        for src in ports:
            ticks = [t for t, p, _ in tr.stim_events if p == src]
            assert [measure_delay(tr, src, k, net) for k in range(len(ticks))] == [
                by_tick[t] for t in ticks]


# --------------------------------------------------------------------------
# Quiescence, settle accounting, errors


def test_constant_stimulus_settles_with_no_measurement_activity():
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    stim = Stimulus(initial={"A": L.L2, "B": L.L1, "Cin": L.L1}, duration_ps=1000.0)
    tr = simulate(c, stim)
    assert tr.measurement_energy == 0.0
    assert tr.total_energy == tr.settle_energy
    assert tr.total_energy > 0.0
    assert len(tr.records) == tr.n_settle
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


def _steps(step, *levels):
    """Events at ``step``, 2 ``step``, ...: one (port, level) tuple per step."""
    return tuple((step * k, port, L(v)) for k, changes in enumerate(levels, 1)
                 for port, v in changes)


@pytest.mark.parametrize("step", [2000.0, 2104.0])
def test_worst_case_stimuli_of_every_kind(step):
    """Both targets for all six kinds, written out level by level; a slice
    drives each A and B digit as two bits, least significant first, and a
    step drives only the bits that change."""
    quat_walk = _steps(step, *([("A", v)] for v in (1, 2, 3, 2, 1, 0)))
    bin_walk = _steps(step, *([("A", v)] for v in (1, 0, 1, 0, 1, 0)))
    bit_walk = _steps(step, [("A0", 1)], [("A0", 0), ("A1", 1)], [("A0", 1)], [("A0", 0)],
                      [("A0", 1), ("A1", 0)], [("A0", 0)])
    pulse = _steps(step, [("Cin", 1)], [("Cin", 0)])
    want = {
        "qfa": ({"A": 0, "B": 3, "Cin": 0}, quat_walk, {"A": 2, "B": 1, "Cin": 0}),
        "bfa": ({"A": 0, "B": 1, "Cin": 0}, bin_walk, {"A": 0, "B": 1, "Cin": 0}),
        "x2": ({"A0": 0, "A1": 0, "B0": 1, "B1": 1, "Cin": 0}, bit_walk,
               {"A0": 0, "A1": 1, "B0": 1, "B1": 0, "Cin": 0}),
    }
    for kind in ("qfa1", "qfa2", "bfa1", "bfa2", "bfa1x2", "bfa2x2"):
        walk_init, walk, pulse_init = want["x2" if kind.endswith("x2") else kind[:3]]
        for target, initial, events, steps in [("input_to_carry", walk_init, walk, 7),
                                                ("carry_to_carry", pulse_init, pulse, 3)]:
            got = worst_case_stimulus(target, kind, step_ps=step)
            assert got == Stimulus({p: L(v) for p, v in initial.items()}, events, step * steps)
            assert list(got.initial) == list(initial)


@pytest.mark.parametrize("target, kind, message", [
    ("carry_to_sum", "qfa2", "unknown stimulus target 'carry_to_sum'"),
    ("input_to_carry", "qfa3", "unknown cell kind 'qfa3'"),
])
def test_worst_case_stimulus_rejects_an_unknown_target_or_kind(target, kind, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        worst_case_stimulus(target, kind)


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


@pytest.mark.parametrize("step_ps", [True, float("nan"), -5.0, "1"])
def test_worst_case_stimulus_takes_a_step_of_finite_ps_above_zero(step_ps):
    """True is no 1 ps step, and "1" no string to repeat into the duration."""
    with pytest.raises(DomainError, match=f"^step_ps must be a finite number > 0, "
                                          f"got {re.escape(repr(step_ps))}$"):
        worst_case_stimulus("carry_to_carry", "qfa2", step_ps=step_ps)


def test_stimulus_step_is_keyword_only():
    # a stale positional supply (the parameter it replaced) must not become a step
    with pytest.raises(TypeError):
        worst_case_stimulus("carry_to_carry", "qfa2", 0.9)


def test_rejections_name_the_port_and_the_rule():
    c = build_qfa("qfa2", 0.9)
    trace = simulate(c, worst_case_stimulus("carry_to_carry", "qfa2"))
    with pytest.raises(DomainError, match="^unknown net or port 'nope'$"):
        trace.final_level("nope")
    stim = Stimulus(initial={"A": L.L0, "B": L.L0, "Cin": L.L0},
                    events=((20.0, "A", L.L1), (10.0, "A", L.L2)), duration_ps=100.0)
    with pytest.raises(StimulusError, match=r"^events\[1\]: events on 'A' not in time order$"):
        simulate(c, stim)
    with pytest.raises(StimulusError, match=r"^in_ports must cover exactly the input ports "
                                            r"\['A', 'B', 'Cin'\]$"):
        settle_matrix(c, ["A", "B"], np.zeros((1, 2), np.int64), ["Sum"])


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
        *[(Stimulus(initial={"A": L.L0}, events=((t, "A", L.L1),), duration_ps=100.0),
           rf"^events\[0\]: time must be a number in \[0, duration_ps=100\.0\] ps, "
           rf"got {re.escape(repr(t))}$")  # one message for NaN and infinities of any width
          for t in (float("nan"), np.float32("nan"), np.float16("nan"), np.float32("-inf"))],
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
            simulate(c, Stimulus.from_json(blob))  # from_json reads only the shape
        with pytest.raises(StimulusError, match="A: .* is not a logic level"):
            simulate(c, Stimulus(initial=initial, events=tuple(map(tuple, events)),
                                 duration_ps=100.0))
    # a numpy number is a number through the Python API
    stim = Stimulus(initial={"A": np.int64(1)}, events=((50.0, "A", np.float64(0.0)),))
    assert simulate(c, stim).final_level("Y") == L.L1
    stim = Stimulus.from_json({"initial": {"A": 1.0}, "events": [], "duration_ps": 10.0})
    assert stim.initial == {"A": L.L1} and simulate(c, stim).final_level("Y") == L.L0


_ZEROS = {"A": L.L0, "B": L.L0, "Cin": L.L0}
_TIME = r"time must be a number in \[0, duration_ps=100\.0\] ps, got "
_FORM = r"expected \(time_ps, input port, level\), got "


@pytest.mark.parametrize("initial, events, duration_ps, match", [
    (_ZEROS, (("5", "A", 1),), 100.0, rf"events\[0\]: {_TIME}'5'$"),
    (_ZEROS, ((10.0, "B", 1), (None, "A", 1)), 100.0, rf"events\[1\]: {_TIME}None$"),
    (_ZEROS, ((True, "A", 1),), 100.0, rf"events\[0\]: {_TIME}True$"),
    (_ZEROS, ((float("nan"), "A", 1),), 100.0, rf"events\[0\]: {_TIME}nan$"),
    (_ZEROS, ((-1.0, "A", 1),), 100.0, rf"events\[0\]: {_TIME}-1\.0$"),
    (_ZEROS, ((10.0, "B", 1), (100.5, "A", 1)), 100.0, rf"events\[1\]: {_TIME}100\.5$"),
    (_ZEROS, ((5.0, ["A"], 1),), 100.0, rf"events\[0\]: {_FORM}\(5\.0, \['A'\], 1\)$"),
    (_ZEROS, ((5.0, "A"),), 100.0, rf"events\[0\]: {_FORM}\(5\.0, 'A'\)$"),
    (_ZEROS, (5.0,), 100.0, rf"events\[0\]: {_FORM}5\.0$"),
    (_ZEROS, 5, 100.0, rf"events must be a list of \(time_ps, input port, level\), got 5$"),
    (_ZEROS, None, 100.0, r"events must be a list of \(time_ps, input port, level\), got None$"),
    (_ZEROS, ((5.0, "Sum", 1),), 100.0, r"events\[0\]: 'Sum' is not an input port$"),
    (_ZEROS, ((20.0, "A", 1), (10.0, "A", 2)), 100.0,
     r"events\[1\]: events on 'A' not in time order$"),
    (_ZEROS, ((50.01, "A", 1), (50.02, "A", 2)), 100.0,
     r"events\[1\]: events on 'A' collide at 50\.02 ps \(0\.1 ps ticks\)$"),
    ({**_ZEROS, "A": 2.7}, (), 100.0, r"initial: A: 2\.7 is not a logic level$"),
    ({**_ZEROS, "A": "2"}, (), 100.0, r"initial: A: '2' is not a logic level$"),
    ({**_ZEROS, "Cin": 2}, (), 100.0, r"initial: Cin: level 2 outside 2-level encoding "),
    (_ZEROS, ((50.0, "Cin", True),), 100.0, r"events\[0\]: Cin: True is not a logic level$"),
    (_ZEROS, ((50.0, "A", -1),), 100.0, r"events\[0\]: A: inputs cannot be driven to X$"),
    (_ZEROS, (), "5", r"duration_ps must be a time in \[0, .*\] ps, got '5'$"),
    (_ZEROS, (), None, r"duration_ps must be a time in \[0, .*\] ps, got None$"),
    (_ZEROS, (), True, r"duration_ps must be a time in \[0, .*\] ps, got True$"),
    (_ZEROS, (), float("nan"), r"duration_ps must be a time in \[0, .*\] ps, got nan$"),
    (_ZEROS, (), -1.0, r"duration_ps must be a time in \[0, .*\] ps, got -1\.0$"),
    (_ZEROS, (), 1e300, r"duration_ps must be a time in \[0, .*\] ps, got 1e\+300$"),
    (None, (), 100.0, "initial levels must be a map of the input ports to levels, got None$"),
    (["A", "B", "Cin"], (), 100.0, "initial levels must be a map of the input ports to levels"),
    ([], (), 100.0, r"initial levels must cover exactly the input ports; "
                    r"missing \['A', 'B', 'Cin'\], extra \[\]$"),
    ("ABC", (), 100.0, r"initial levels must cover exactly the input ports; "
                       r"missing \['Cin'\], extra \['C'\]$"),
], ids=["time-str", "time-none", "time-bool", "time-nan", "time-negative", "time-past",
        "port-list", "pair", "scalar", "events-int", "events-none", "port", "order", "collision",
        "level-fraction", "level-str", "level-encoding", "level-bool", "level-x",
        "duration-str", "duration-none", "duration-bool", "duration-nan", "duration-negative",
        "duration-huge", "initial-none", "initial-names", "initial-empty", "initial-str"])
def test_simulate_names_the_stimulus_field_at_fault(initial, events, duration_ps, match):
    """The Python API and the JSON path raise the same text, which starts with
    its field: ``Stimulus.from_json`` reads only the shape."""
    qfa2 = build_qfa("qfa2", 0.9)
    with pytest.raises(StimulusError, match=f"^{match}") as api:
        simulate(qfa2, Stimulus(initial, events, duration_ps))
    blob = json.loads(json.dumps({"initial": initial, "events": events,
                                  "duration_ps": duration_ps}))
    with pytest.raises(StimulusError) as via_json:
        simulate(qfa2, Stimulus.from_json(blob))
    assert str(via_json.value) == str(api.value)


def test_stimulus_json_is_read_for_its_shape_only():
    """Values pass on as given; a missing field or an events that is not a
    list is named."""
    stim = Stimulus.from_json({"initial": {"A": "x"}, "events": [[1, ["B"], 2.5], 7],
                               "duration_ps": "soon"})
    assert stim == Stimulus({"A": "x"}, ((1, ["B"], 2.5), 7), "soon")
    for blob, match in [
        ([1], "^a stimulus is an object of initial, events and duration_ps, got \\[1\\]$"),
        ({"events": [], "duration_ps": 1.0}, "^initial: missing$"),
        ({"initial": {}, "duration_ps": 1.0}, "^events: missing$"),
        ({"initial": {}, "events": []}, "^duration_ps: missing$"),
        ({"initial": {}, "events": "abc", "duration_ps": 1.0},
         r"^events must be a list of \(time_ps, input port, level\), got 'abc'$"),
    ]:
        with pytest.raises(StimulusError, match=match):
            Stimulus.from_json(blob)


def test_stimulus_checks_keep_their_order():
    """Each event's port and time come before any level; initial levels
    before event levels."""
    c = build_qfa("qfa2", 0.9)
    for initial, events, match in [
        (_ZEROS, ((5.0, "A", 9), (500.0, "A", L.L1)),
         r"events\[1\]: time must be a number in \[0, duration_ps=100\.0\] ps, got 500\.0"),
        (_ZEROS, ((5.0, "A", 9), (7.0, "Sum", L.L1)), r"events\[1\]: 'Sum' is not an input port"),
        ({**_ZEROS, "Cin": 3}, ((5.0, "A", 9),), "initial: Cin: level 3 outside 2-level encoding"),
        (_ZEROS, ((5.0, "A", L.X), (6.0, "Cin", 2)),
         r"events\[0\]: A: inputs cannot be driven to X"),
        (_ZEROS, ((5.0, "Cin", 2), (6.0, "A", L.X)),
         r"events\[0\]: Cin: level 2 outside 2-level encoding"),
    ]:
        with pytest.raises(StimulusError, match=f"^{match}"):
            simulate(c, Stimulus(initial, events, 100.0))


def test_measurements_name_the_argument_at_fault():
    c = build_qfa("qfa2", 0.9)
    trace = simulate(c, worst_case_stimulus("carry_to_carry", "qfa2"))
    for window in [(0, "x"), (0, 1, 2), None, (False, True), (0.0, None), 5.0]:
        with pytest.raises(DomainError, match=r"^window must be a \(start_ps, end_ps\) pair"):
            measure_power(trace, window)
    for call in (lambda: step_response_delays(trace, ["Cout"]),
                 lambda: trace.final_level(["Cout"]),
                 lambda: measure_delay(trace, "Cin", 0, ["Cout"])):
        with pytest.raises(DomainError, match=r"^unknown net or port \['Cout'\]$"):
            call()
    for index in ("0", True, 1.0, None):
        with pytest.raises(DomainError, match=f"^src_event_index must be a whole number, "
                                              f"got {re.escape(repr(index))}$"):
            measure_delay(trace, "Cin", index, "Cout")
    one = measure_delay(trace, "Cin", 1, "Cout")
    assert one is not None and measure_delay(trace, "Cin", np.int64(1), "Cout") == one
    assert measure_power(trace, (np.float64(0.0), 6000)) == measure_power(trace, (0.0, 6000.0))


# --------------------------------------------------------------------------
# Determinism


def test_traces_are_bit_identical_across_runs():
    c = build_qfa("qfa1", 0.9, cl=2e-15)
    stim = worst_case_stimulus("input_to_carry", "qfa1")
    t1 = simulate(c, stim)
    t2 = simulate(c, stim)
    assert t1.records == t2.records
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
    for t, n, lvl, e, s in tr.records:
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
    assert sum(e for _, _, _, e, src in tr.records if src == 1) == 0.0
    assert sum(e for _, _, _, e, src in tr.records if src == 0) > 0.0


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
        acts = [(n, l) for _, n, l, _, s in tr.records if s == 0]
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
    assert [r[1] for r in tr.records[tr.n_settle:]].count(tr.net_index("Y")) == 0
    # and a pulse longer than the delay gets through (both edges)
    stim2 = Stimulus(initial={"A": L.L0},
                     events=((100.0, "A", L.L1), (200.0, "A", L.L0)),
                     duration_ps=500.0)
    tr2 = simulate(c, stim2)
    assert [r[1] for r in tr2.records[tr2.n_settle:]].count(tr2.net_index("Y")) == 2


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
    y_net = tr.net_index("Y")
    assert [r[1] for r in tr.records[tr.n_settle:]].count(y_net) == 2
    energy = sum(e for _, n, _, e, src in tr.records if n == y_net and src == 0)
    assert energy == pytest.approx(2 * 0.5 * 2e-15 * 0.81)


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
    assert [r[1] for r in tr.records[tr.n_settle:]].count(tr.net_index("Y")) == 0


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
    assert got.tolist() == _cpa_sums(vectors, 4).tolist()


def test_settle_matrix_range_check_names_the_first_bad_port():
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    in_ports = ["C0", "A0", "A1", "B0", "B1"]
    for row, port in (([0, 0, 0, 0, -1], "B1: levels outside 4"),
                      ([0, 4, 0, 0, 9], "A0: levels outside 4"),
                      ([2, 0, 0, 0, 0], "C0: levels outside 2")):
        with pytest.raises(StimulusError, match=port):
            settle_matrix(cpa, in_ports, [[0] * 5, row])
    assert settle_matrix(cpa, in_ports, np.zeros((0, 5), np.int64)).shape == (0, 3)


_ABC = ["A", "B", "Cin"]


@pytest.mark.parametrize("in_ports, vectors, out_ports, match", [
    (_ABC, [[0, 0, 0], [1.5, 0, 0]], None, "A: 1.5 is not a logic level, at vector row 1"),
    (_ABC, [[0, "1", 0]], None, "B: '1' is not a logic level, at vector row 0"),
    (_ABC, [[0, 0, True]], None, "Cin: True is not a logic level, at vector row 0"),
    (_ABC, np.array([[True, False, False]]), None, "A: True is not a logic level, at vector row 0"),
    (_ABC, [[0, 0, 0], [0, 0, float("nan")]], None,
     "Cin: nan is not a logic level, at vector row 1"),
    (_ABC, [[0, 0, 0], [0, 1e300, 0]], None,
     "B: levels outside 4-level encoding, first at vector row 1"),
    (_ABC, np.array([[0, 0, 0], [0, 0, 2 ** 64 - 1]], np.uint64), None,
     "Cin: levels outside 2-level encoding, first at vector row 1"),
    (_ABC, [[0, 0], [0, 0, 0]], None, "vectors must be"),
    (_ABC, [[0, 0, 0]], ["Nope"], "out_ports: 'Nope' is not an output port"),
    (_ABC, [[0, 0, 0]], ["Sum", "A"], "out_ports: 'A' is not an output port"),
    (_ABC, [[0, 0, 0]], [["Sum"]], r"out_ports: \['Sum'\] is not an output port"),
    ([["A"], "B", "Cin"], [[0, 0, 0]], None, r"in_ports: \['A'\] is not an input port"),
], ids=["fraction", "string", "bool", "bool-array", "nan", "1e300", "uint64", "ragged",
        "unknown-out", "input-out", "list-out", "list-in"])
def test_settle_matrix_names_the_port_and_row_at_fault(in_ports, vectors, out_ports, match):
    c = build_qfa("qfa2", 0.9)
    with pytest.raises(StimulusError, match=match):
        settle_matrix(c, in_ports, vectors, out_ports)


def _cpa2():
    """A 2-digit QFA2 CPA, its input and output ports, and two rows for them."""
    c = build_cpa(build_qfa("qfa2", 0.9), 2)
    return c, ["C0", "A0", "A1", "B0", "B1"], ["S0", "S1", "C2"], np.array(
        [[1, 3, 2, 1, 0], [0, 0, 3, 3, 3]])


def test_settle_matrix_reuses_the_plan_of_equal_port_lists(monkeypatch):
    """Equal lists, as new objects, reuse the kept plan: the port checks,
    which read the circuit's ports, run for the first call alone."""
    c, ins, outs, vectors = _cpa2()
    comp = _kernel.compile_circuit(c)
    assert comp.port_plan is None
    cold = settle_matrix(c, ins, vectors, outs)
    kept = comp.port_plan
    assert kept[0] == (tuple(ins), tuple(outs))
    again = ["".join(p) for p in ins]  # equal strs, not the same objects
    assert again == ins and again[0] is not ins[0]
    monkeypatch.setattr(comp, "in_port_net", None)  # a port check would fail on these
    monkeypatch.setattr(comp, "out_port_net", None)
    # 11 + 1 + 1 = 13 and 12 + 15 = 27, in base-4 digits and a carry
    assert settle_matrix(c, again, vectors, tuple(outs)).tolist() == cold.tolist() == [
        [1, 3, 0], [3, 2, 1]]
    assert comp.port_plan is kept


def test_settle_matrix_keeps_the_last_checked_pair_of_port_lists():
    """A new pair that passes every port check replaces the kept one, even
    when the vectors then fail; out_ports omitted is a pair of its own."""
    c, ins, outs, vectors = _cpa2()
    comp = _kernel.compile_circuit(c)
    want = settle_matrix(c, ins, vectors, outs).tolist()
    for order in itertools.islice(itertools.permutations(range(5)), 6):
        got = settle_matrix(c, [ins[i] for i in order], vectors[:, order], outs)
        assert got.tolist() == want
        assert comp.port_plan[0] == (tuple(ins[i] for i in order), tuple(outs))
    everything = settle_matrix(c, ins, vectors)
    assert comp.port_plan[0] == (tuple(ins), None)
    assert everything.tolist() == [[0, 1, 3], [1, 3, 2]]  # C2, S0, S1: in name order
    with pytest.raises(StimulusError, match="^A1: levels outside 4-level encoding"):
        settle_matrix(c, ins, vectors + [[0, 0, 1, 0, 0]], ["C2"])
    assert comp.port_plan[0] == (tuple(ins), ("C2",))


def test_settle_matrix_keeps_its_plan_through_a_pair_that_fails_a_port_check():
    """Every bad call, before and after a good one, raises its own error
    every time and leaves the kept plan as it was; a list holding a list or
    an array is refused as any entry other than a port name is."""
    c, ins, outs, vectors = _cpa2()
    comp = _kernel.compile_circuit(c)
    everything = r"in_ports must cover exactly the input ports \['A0', 'A1', 'B0', 'B1', 'C0'\]"
    bad = [
        ([["C0"], *ins[1:]], vectors, outs, r"in_ports: \['C0'\] is not an input port"),
        ([np.array(["C0"]), *ins[1:]], vectors, outs,
         r"in_ports: array\(\['C0'\], dtype='<U2'\) is not an input port"),
        ([np.array(["C0", "A0"]), *ins[1:]], vectors, outs, r"in_ports: array\(\['C0', 'A0'\]"),
        ([True, *ins[1:]], vectors, outs, "in_ports: True is not an input port"),
        (ins[:-1], vectors[:, :-1], outs, everything),
        ([*ins, "S0"], vectors[:, [0, 1, 2, 3, 4, 4]], outs, everything),
        (ins, vectors, ["S0", "A0"], "out_ports: 'A0' is not an output port"),
        (ins, vectors, [["S0"]], r"out_ports: \['S0'\] is not an output port"),
        (ins, vectors, [np.array(["S0"])], r"out_ports: array\(\['S0'\]"),
    ]
    for kept in (None, "checked"):
        if kept:
            settle_matrix(c, ins, vectors, outs)
            kept = comp.port_plan
        for in_ports, rows, out_ports, match in bad:
            for _ in range(2):
                with pytest.raises(StimulusError, match=f"^{match}"):
                    settle_matrix(c, in_ports, rows, out_ports)
                assert comp.port_plan is kept
    assert settle_matrix(c, ins, vectors, outs).tolist() == [[1, 3, 0], [3, 2, 1]]


@pytest.mark.parametrize("in_ports, out_ports, match", [
    (None, None, "^in_ports: expected a list, got None$"),
    ("ABC", None, "^in_ports: expected a list, got 'ABC'$"),
    (_ABC, 5, "^out_ports: expected a list, got 5$"),
    (_ABC, "Sum", "^out_ports: expected a list, got 'Sum'$"),
], ids=["none-in", "str-in", "int-out", "str-out"])
def test_settle_matrix_names_a_port_list_that_is_not_a_list(in_ports, out_ports, match):
    with pytest.raises(DomainError, match=match):
        settle_matrix(build_qfa("qfa2", 0.9), in_ports, [[0, 0, 0]], out_ports)


def test_settle_matrix_checks_the_ports_before_the_vectors_and_keeps_only_checked_lists():
    c = build_qfa("qfa2", 0.9)
    comp = _kernel.compile_circuit(c)
    for out_ports in (["Nope"], [["Sum"]]):
        with pytest.raises(StimulusError, match="^out_ports: "):
            settle_matrix(c, _ABC, [[0, 0]], out_ports)
    assert comp.port_plan is None
    with pytest.raises(StimulusError, match="^vectors must be"):
        settle_matrix(c, _ABC, [[0, 0]], ["Sum"])
    assert comp.port_plan[0] == (tuple(_ABC), ("Sum",))


def test_settle_matrix_checks_levels_entry_by_entry_only_off_integer_arrays(monkeypatch):
    c = build_qfa("qfa2", 0.9)
    want = settle_matrix(c, ["A", "B", "Cin"], [[2, 1, 1], [3, 3, 0]]).tolist()
    assert settle_matrix(c, ["A", "B", "Cin"], [[2.0, 1, 1], [3, 3.0, 0]]).tolist() == want
    monkeypatch.setattr(engine, "whole", None)  # an integer array never calls it
    for dtype in (np.int64, np.uint8, np.int32):
        vectors = np.array([[2, 1, 1], [3, 3, 0]], dtype)
        assert settle_matrix(c, ["A", "B", "Cin"], vectors).tolist() == want


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
        final = {nid: tr.final_levels[i] for nid, i in comp.net_index.items()}
        assert [final[n] for n in ("dead", "dom", "mix", "tail")] == [0, 1, 1, 1]
        settled = _kernel.settle_batch(comp, np.array([comp.in_port_net["A"]]),
                                       np.array([[a]]), np.arange(comp.n_nets))
        assert settled[0].tolist() == tr.final_levels
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
    table = np.array(kind_table(kind)).T  # (rows, outputs)
    n_in, n_out = len(spec.inputs), len(spec.outputs)
    assert table.shape == (5 ** n_in, n_out)
    assert spec.weights == tuple(5 ** (n_in - 1 - j) for j in range(n_in))
    combos = itertools.product(range(-1, 4), repeat=n_in)
    for r, (row, levels) in enumerate(zip(table.tolist(), combos)):
        assert sum(w * (lvl + 1) for w, lvl in zip(spec.weights, levels)) == r
        try:
            want = [int(v) for v in eval_primitive(kind, levels)]
        except DomainError:
            want = [-1] * n_out
        assert row == want, levels
    # X on every input decides no output; CompiledCircuit.const_gates relies on it
    assert table[0].tolist() == [-1] * n_out


@pytest.mark.parametrize("kind", KINDS)
def test_kind_table_outputs_stay_decided_when_an_x_input_is_resolved(kind):
    """Replacing an X input by any level never changes a non-X output. So
    in the settle phase every net moves at most once, from X to its final
    level, which settle_batch's one topological pass relies on."""
    weights = KIND_SPECS[kind].weights
    table = np.array(kind_table(kind)).T  # (rows, outputs)
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
        assert settled[0].tolist() == tr.final_levels
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
        assert tr.final_levels == want
        assert min((r[2] for r in tr.records), default=0) >= -1  # nothing below X


def riders_circuit(vdd=0.9):
    """Single-input gates in each place the settle plan composes them:
    on input ports and a constant; on det2.yb (a host's output 1); two on
    one output of x1, whose step partner x2 has none; and the chain
    inv_c1 -> buf_c -> inv_c2, whose buffer rides on nothing since its
    driver rides. nand gates two levels up read the port and constant riders."""
    b = _Builder("riders", CellLibrary.default())
    enc, quat = binary_full(vdd), quaternary(vdd)
    a = b.port("A", "in", quat)
    bb, c = b.port("B", "in", enc), b.port("C", "in", enc)
    k1 = b.const("k1", L.L1, enc)

    def gate(name, kind, pins, out_enc=enc, outputs=("y",)):
        nets = {pin: b.net(f"{name}_{pin}", out_enc) for pin in outputs}
        b.inst(name, kind, vdd, out_enc, {**pins, **nets})
        return [nets[pin] for pin in outputs]

    [a1] = gate("succ_a", "succ1", {"a": a}, quat)
    [nb] = gate("inv_b", "inv", {"a": bb})
    [nc] = gate("inv_c1", "inv", {"a": c})
    [k1b] = gate("buf_k", "buf", {"a": k1})
    _, ge2 = gate("det_a", "det2", {"a": a1}, outputs=("y", "yb"))
    gate("inv_ge2", "inv", {"a": ge2})
    x1, x1b = gate("x1", "xor_tg", {"a": bb, "b": c}, outputs=("y", "yb"))
    gate("x2", "xor_tg", {"a": c, "b": k1}, outputs=("y", "yb"))
    gate("inv_x1a", "inv", {"a": x1})
    gate("inv_x1b", "inv", {"a": x1})
    gate("inv_x1yb", "inv", {"a": x1b})
    [bc] = gate("buf_c", "buf", {"a": nc})
    gate("inv_c2", "inv", {"a": bc})
    gate("nand_b", "nand", {"a": nb, "b": x1})
    gate("nand_k", "nand", {"a": k1b, "b": nc})
    return b.finalize(vdd=vdd)


def test_settle_plan_composes_single_input_gates_into_their_hosts():
    """Every net of riders_circuit, at every input, equals reference_settle;
    the plan takes 3 steps (9 with one step per level and kind; buf_k, fed
    by a constant alone, is folded into nand_k's table, which then joins
    inv_c1's unit), x1's three inverters sit in x1's unit, and every row
    writes a net of the circuit."""
    c = riders_circuit()
    comp = _kernel.compile_circuit(c)
    assert len(comp.settle_plan) == 3
    net_of = np.argsort(comp.settle_row)  # per row, its net
    gate = {g: comp.gate_out[comp.gate_ids.index(g)] for g in comp.gate_ids}
    [outs] = [net_of[outs] for *_, outs in comp.settle_plan if gate["x1"][0] in net_of[outs]]
    [unit] = [col for col in outs.T.tolist() if gate["x1"][0] in col]
    assert {o for g in ("x1", "inv_x1a", "inv_x1b", "inv_x1yb") for o in gate[g]} <= set(unit)
    assert all(0 <= outs.min() and outs.max() < comp.n_nets for *_, outs in comp.settle_plan)
    [buf_k] = gate["buf_k"]
    assert comp.settle_row[buf_k] >= comp.n_nets - len(comp.settle_init)  # a tail row
    assert comp.settle_init[comp.settle_row[buf_k] - comp.n_nets, 0] == 2  # L1's code
    in_ports = ["A", "B", "C"]
    vectors = np.array(list(itertools.product(range(4), range(2), range(2))))
    in_nets = np.array([comp.in_port_net[p] for p in in_ports])
    batch = _kernel.settle_batch(comp, in_nets, vectors, np.arange(comp.n_nets))
    for row, settled in zip(vectors.tolist(), batch.tolist()):
        ref = reference_settle(c, dict(zip(in_ports, row)))
        assert settled == [ref[nid] for nid in comp.net_ids], row


@pytest.mark.parametrize("cell, n, steps", [("qfa2", 4, 5), ("qfa2", 8, 6), ("qfa2", 16, 8),
                                            ("bfa2", 32, 11)])
def test_settle_plan_steps_of_the_verify_cpas(cell, n, steps):
    """Carry nets hold three codes (X, 0 and 1), so the carry logic of
    four digits (a carry in and two three-code nets each, 3**9 rows) shares
    one table: QFA2 takes three steps of its own units at level 0 (the
    first digit's carry among them), one per four later digits and one for
    the sum muxes. BFA2 takes two at level 0, then one per four cells; its
    last carry mux feeds no gate and settles with the sum muxes."""
    build = build_qfa if cell.startswith("qfa") else build_bfa
    comp = _kernel.compile_circuit(build_cpa(build(cell, 0.9), n))
    assert len(comp.settle_plan) == steps


def test_steps_of_one_form_share_one_read_only_table():
    """Two CPAs of one cell share their step tables: each of an 8-digit
    QFA2 CPA's six is one of a 16-digit one's eight, whose three full carry
    steps (four digits each, 3**9 rows) share one. No table can be written,
    and the table cache stays within its bound."""
    cell = build_qfa("qfa2", 0.9)
    eight, sixteen = ([table for _, _, table, _ in _kernel.compile_circuit(
        build_cpa(cell, n)).settle_plan] for n in (8, 16))
    assert [any(t is u for u in sixteen) for t in eight] == [True] * 6
    assert sixteen[3] is sixteen[4] is sixteen[5] and sixteen[3].shape[1] == 3 ** 9
    assert len({id(t) for t in sixteen}) == 6
    assert not any(table.flags.writeable for table in sixteen)
    with pytest.raises(ValueError, match="read-only"):
        sixteen[0][0, 0] = 1
    info = _kernel._step_table.cache_info()
    assert 0 < info.currsize <= info.maxsize


def test_settle_plan_settles_the_sum_muxes_of_a_qfa2_cpa_in_one_last_step():
    """The S{i} muxes feed no gate and read the carry in, which their
    digit's sum unit does not read, so they wait for the last step."""
    n = 6
    comp = _kernel.compile_circuit(build_cpa(build_qfa("qfa2", 0.9), n))
    sums = sorted(comp.settle_row[comp.out_port_net[f"S{i}"]] for i in range(n))
    *rest, (_, _, table, outs) = comp.settle_plan
    assert sorted(outs.ravel().tolist()) == sums and table.shape[0] == 1
    assert not set(sums) & {o for *_, outs in rest for o in outs.ravel().tolist()}


def layout_circuits():
    """The verify CPAs, other CPAs, riders_circuit and random circuits."""
    yield from (build_cpa(build(kind, 0.9), n) for build, kind, n in (
        (build_qfa, "qfa2", 4), (build_qfa, "qfa2", 16), (build_bfa, "bfa2", 32),
        (build_qfa, "qfa1", 3), (build_bfa, "bfa1", 5)))
    yield riders_circuit()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        yield random_circuit(rng, n_gates=int(rng.integers(1, 40)))


def test_settle_rows_tile_the_written_rows_and_read_only_rows_already_set():
    """settle_row numbers every net once; each step writes the rows right
    after the previous step's, outputs-major, so the steps' rows tile the
    rows before the tail and no row is written twice; every pin row is a
    tail row or one an earlier step wrote; and the tail starts at each
    net's initial code, a constant's or X, unless a gate the constants
    alone feed drives it."""
    for c in layout_circuits():
        comp = _kernel.compile_circuit(c)
        assert sorted(comp.settle_row.tolist()) == list(range(comp.n_nets))
        top = comp.n_nets - len(comp.settle_init)
        row = 0
        for ins, _, table, outs in comp.settle_plan:
            assert outs.shape[0] == len(table)
            assert outs.ravel().tolist() == list(range(row, row + outs.size))
            assert ((ins < row) | (ins >= top)).all()
            row += outs.size
        assert row == top
        driven = {o for outs in comp.gate_out for o in outs}
        for net, code in zip(np.argsort(comp.settle_row)[top:], comp.settle_init[:, 0]):
            assert net in driven or code == comp.net_init[net] + 1


def pin_widths(weights, table) -> list:
    """Each pin's width of a step, read from its mixed-radix weights: the
    last weight is 1, and each width is the weight before it (the table
    width before the first) over its own."""
    above = [table.shape[1], *weights.tolist()]
    assert weights.tolist()[-1:] in ([], [1])
    assert all(a % w == 0 for a, w in zip(above, above[1:]))
    return [a // w for a, w in zip(above, above[1:])]


def test_code_dtype_holds_every_table_index():
    """settle_batch computes each table index in its code dtype, so the last
    row of every kind table and the last column of every step table must
    fit it: a wider kind fails here instead of wrapping silently. A step's
    last column is its pins' highest codes (width - 1) times their weights,
    and no step table has more than _ROWS columns (the carry steps of an
    8-digit CPA reach 3**9)."""
    top = np.iinfo(_kernel.CODE).max
    for kind in KINDS:
        assert len(kind_table(kind)[0]) - 1 <= top, kind
    assert _kernel._ROWS - 1 <= top
    cells = [riders_circuit()] + [build_cpa(build(v, 0.9), 8) for build, v in (
        (build_qfa, "qfa1"), (build_qfa, "qfa2"), (build_bfa, "bfa1"), (build_bfa, "bfa2"))]
    for c in cells:
        for ins, weights, table, outs in _kernel.compile_circuit(c).settle_plan:
            assert weights.dtype == table.dtype == _kernel.CODE
            hosts = outs.shape[1]  # input nets are unit-major, one-pin steps one per unit
            assert ins.shape == ((hosts,) if len(weights) == 1 else (hosts, len(weights)))
            widths = pin_widths(weights, table)
            assert sum((w - 1) * int(x) for w, x in zip(widths, weights)) == (
                table.shape[1] - 1) < _kernel._ROWS


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_settled_codes_stay_within_their_pins_widths(seed):
    """On random circuits and vectors with X on some inputs, each pin of
    each step holds a code (level + 1) below the width its weights give it,
    so no pin's code spills into another's place in the table index."""
    rng = np.random.default_rng(seed)
    comp = _kernel.compile_circuit(random_circuit(rng, n_gates=int(rng.integers(1, 30))))
    in_ports = sorted(comp.in_port_net)
    in_nets = np.array([comp.in_port_net[p] for p in in_ports])
    vectors = np.column_stack(
        [rng.integers(-1, comp.port_encoding[p].radix, 16) for p in in_ports])
    net_of = np.argsort(comp.settle_row)  # codes by row, as the plan reads them
    codes = _kernel.settle_batch(comp, in_nets, vectors, net_of).T + 1
    for ins, weights, table, _ in comp.settle_plan:
        pins = ins.reshape(len(ins), -1)  # (units, pins)
        for j, width in enumerate(pin_widths(weights, table)):
            assert codes[pins[:, j]].max(initial=0) < width


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
    assert tr.final_levels == settled[0].tolist()

    cur = comp.net_init.copy()
    for _, n, lvl, energy, src in tr.records:
        if src == 0:
            v_from, v_to = comp.net_rail[n][cur[n]], comp.net_rail[n][lvl]
            assert energy == switching_energy(comp.net_cap[n], v_from, v_to)
        cur[n] = lvl

    steps = sorted({t for t, _, _ in tr.stim_events})
    ends = [*steps[1:], tr.origin_ticks + tr.duration_ticks]
    for ni, net in enumerate(comp.net_ids):  # no output ports: every net instead
        want = []
        for t, end in zip(steps, ends):
            moves = [x for x, n, *_ in tr.records if n == ni and t < x <= end]
            want.append(((t - tr.origin_ticks) * _kernel.TICK_PS,
                         (max(moves) - t) * _kernel.TICK_PS if moves else None))
        assert step_response_delays(tr, net) == want
        by_tick = dict(zip(steps, (d for _, d in want)))
        for src in ports:
            ticks = [t for t, p, _ in tr.stim_events if p == src]
            assert [measure_delay(tr, src, k, net) for k in range(len(ticks))] == [
                by_tick[t] for t in ticks]

    again = simulate(from_json(json.loads(json.dumps(to_json(c)))), stim)
    assert again.records == tr.records


def test_stimulus_json_roundtrip(tmp_path):
    stim = worst_case_stimulus("input_to_carry", "qfa2")
    path = tmp_path / "stim.json"
    stim.save(path)
    loaded = Stimulus.load(path)
    assert loaded == stim
    blob = json.loads(path.read_text())
    assert set(blob) == {"initial", "events", "duration_ps"}


def test_compile_and_the_trace_keep_the_event_loops_lists():
    """One form of each fact between compile, the event loop and the trace."""
    tr = simulate(build_qfa("qfa2", 0.9), worst_case_stimulus("input_to_carry", "qfa2"))
    comp = tr.compiled
    for name in ("net_cap", "net_init", "gate_row"):
        assert type(getattr(comp, name)) is list, name
    assert {type(x) for x in comp.net_cap} == {float} and not hasattr(comp, "in_port_radix")
    assert type(tr.final_levels) is list and {type(v) for v in tr.final_levels} == {int}
    assert {type(lvl) for _, _, lvl in tr.stim_events} == {int}
    [compiled] = [f for f in dataclasses.fields(tr) if f.name == "compiled"]
    assert compiled.default is dataclasses.MISSING


@pytest.mark.parametrize("stim, message", [
    (Stimulus({**_ZEROS, "A": 2.5}), "initial: A: 2.5 is not a logic level"),
    (Stimulus({**_ZEROS, "B": True}), "initial: B: True is not a logic level"),
    (Stimulus({**_ZEROS, "A": "1"}), "initial: A: '1' is not a logic level"),
    (Stimulus({**_ZEROS, "A": "x"}), "initial: A: 'x' is not a logic level"),
    (Stimulus({**_ZEROS, "A": float("inf")}), "initial: A: inf is not a logic level"),
    (Stimulus({1: 0}), "initial: 1 is not a port name"),
    (Stimulus(None), "initial levels must be a map of ports to levels, got None"),
    (Stimulus(_ZEROS, ((True, "A", 1),)), "events[0]: time must be a number, got True"),
    (Stimulus(_ZEROS, ((1.0, "A", 1), (2.0, "A", 2.5))),
     "events[1]: A: 2.5 is not a logic level"),
    (Stimulus(_ZEROS, ((1.0, ("A",), 1),)), "events[0]: ('A',) is not a port name"),
    (Stimulus(_ZEROS, 5), "events must be a list of (time_ps, input port, level), got 5"),
    (Stimulus(_ZEROS, ((1.0, "A"),)),
     "events[0]: expected (time_ps, input port, level), got (1.0, 'A')"),
    (Stimulus(_ZEROS, (), "soon"), "duration_ps must be a number, got 'soon'"),
    (Stimulus(_ZEROS, (), 10 ** 400), f"duration_ps must be a number, got {10 ** 400!r}"),
], ids=["fraction", "bool", "str-level", "text", "inf", "int-port", "initial-none",
        "time-bool", "event-level", "tuple-port", "events-int", "pair", "duration-str",
        "duration-huge"])
def test_stimulus_to_json_names_a_value_it_cannot_write_as_it_is(stim, message):
    """Nothing is rewritten on the way to JSON: a value that is not written
    as it is raises, starting with its field."""
    with pytest.raises(StimulusError) as info:
        stim.to_json()
    assert str(info.value) == message


def test_stimulus_to_json_writes_levels_as_ints_and_times_as_floats():
    stim = Stimulus({"A": L.L2, "B": np.int64(1), "Cin": np.float64(0.0)},
                    ((np.float32(1.5), "A", np.uint8(3)), (2, "B", 2 ** 63),
                     (float("nan"), "Cin", 1.0)), np.int64(5))
    blob = stim.to_json()
    assert json.dumps(blob) == json.dumps({
        "initial": {"A": 2, "B": 1, "Cin": 0},
        "events": [[1.5, "A", 3], [2.0, "B", 2 ** 63], [float("nan"), "Cin", 1]],
        "duration_ps": 5.0})
    assert [type(v) for v in blob["initial"].values()] == [int] * 3
    assert [type(x) for e in blob["events"] for x in e] == [float, str, int] * 3


def test_trace_and_energy_csv(tmp_path):
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    tr = simulate(c, worst_case_stimulus("carry_to_carry", "qfa2"))
    trace_path = tmp_path / "trace.csv"
    energy_path = tmp_path / "energy.csv"
    tr.write_csv(trace_path)
    tr.write_energy_csv(energy_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "time_ps,net,level,voltage"
    assert len(lines) == len(tr.records) + 1
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


def test_transition_times_strictly_increasing_per_net():
    c = build_qfa("qfa1", 0.9, cl=2e-15)
    tr = simulate(c, worst_case_stimulus("input_to_carry", "qfa1"))
    for ni in range(tr.compiled.n_nets):
        times = [t for t, n, *_ in tr.records if n == ni]
        assert all(a < b for a, b in zip(times, times[1:]))


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
    assert comp.net_cap == [load[nid] for nid in comp.net_ids]
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


def test_a_circuit_without_nets_simulates_to_an_empty_trace():
    """The tick budget of a circuit with no nets is that of one net: no
    division by its zero nets."""
    c = Circuit("e", {}, {}, {})
    trace = simulate(c, Stimulus({}, (), 100.0))
    assert len(trace.times) == len(trace.final_levels) == trace.n_settle == 0
    assert trace.records == [] and trace.times.dtype == np.int64
    assert trace.total_energy == 0.0 and trace.duration_ticks == 1000
    assert _kernel.compile_circuit(c).max_ticks == 2 ** 61
    with pytest.raises(StimulusError, match=r"duration_ps must be a time in \[0, 2\.30584e\+17\]"):
        simulate(c, Stimulus({}, (), 1e300))
