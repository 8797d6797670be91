import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mvadder._kernel import TICK_PS, compile_circuit
from mvadder.engine import Stimulus, simulate, step_response_delays, worst_case_stimulus
from mvadder.gates import KIND_SPECS
from mvadder.levels import DomainError, Level
from mvadder.netlist import build_bfa, build_binary_slice, build_cpa, build_qfa
from mvadder.timing import TimingArc, sta

from random_circuits import INPUTS, random_circuit
from test_engine import single_inv

L = Level


def test_sta_single_inverter_equals_gate_delay():
    c = single_inv(cl=2e-15)
    rep = sta(c, ("A",), ("Y",))
    assert rep.arrivals_ps["Y"] == pytest.approx(21.0)
    assert rep.stage_gate_arcs == 1


def test_qfa2_carry_path_is_mux2_then_inv():
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    rep = sta(c, ("Cin",), ("Cout",))
    kinds = [a.kind for a in rep.critical_path]
    assert kinds == ["mux2", "inv"]
    insts = [a.instance for a in rep.critical_path]
    assert insts == ["mux2_cout", "inv_cout"]
    assert (rep.stage_cells, rep.stage_gate_arcs) == (1, 2)


def test_carry_swing_ordering_qfa2_beats_qfa1():
    r1 = sta(build_qfa("qfa1", 0.9, cl=2e-15), ("Cin",), ("Cout",))
    r2 = sta(build_qfa("qfa2", 0.9, cl=2e-15), ("Cin",), ("Cout",))
    assert r2.worst_arrival_ps < r1.worst_arrival_ps


def test_sta_rejects_non_ports():
    c = build_qfa("qfa2", 0.9)
    with pytest.raises(DomainError):
        sta(c, ("Cin",), ("nosuch",))
    with pytest.raises(DomainError):
        sta(c, ("n_ncout",), ("Cout",))


def test_unreachable_sink_reports_none():
    c = build_qfa("qfa2", 0.9, cl=2e-15)
    rep = sta(c, ("Cin",), ("Cout", "Sum"))
    assert rep.arrivals_ps["Cout"] is not None
    # Sum is reachable from Cin (sum mux2 select), so use a source that
    # cannot reach Cout's inverter chain... there is none; instead check a
    # sink from an input that never fans there: A cannot reach nothing, so
    # craft the reverse: sources={Cin} reaches both outputs here.
    assert rep.arrivals_ps["Sum"] is not None
    rep2 = sta(single_inv(), ("A",), ("A",))
    assert rep2.arrivals_ps["A"] == pytest.approx(0.0)


def test_a_sink_no_source_reaches_reads_none_and_is_never_worst():
    rep = sta(build_cpa(build_qfa("qfa2", 0.9), 2), ("A1",), ("S0", "C2"))
    assert rep.arrivals_ps == {"S0": None, "C2": 7.0}
    assert (rep.worst_sink, rep.worst_arrival_ps) == ("C2", 7.0)
    assert [a.instance for a in rep.critical_path] == [
        "d1.mux_ncout0", "d1.mux2_cout", "d1.inv_cout"]


def test_cpa_critical_path_visits_every_carry():
    cpa = build_cpa(build_qfa("qfa2", 0.9), 4, cl=2e-15)
    rep = sta(cpa, ("C0", "A0", "B0"), ("C4", "S3"))
    nets_on_path = [a.to_net for a in rep.critical_path]
    for mid in ("C1", "C2", "C3"):
        assert mid in nets_on_path
    assert rep.worst_sink in ("C4", "S3")


def test_stage_counts():
    q = build_qfa("qfa2", 0.9, cl=2e-15)
    rep = sta(q, ("Cin",), ("Cout",))
    assert (rep.stage_cells, rep.stage_gate_arcs) == (1, 2)
    sl = build_binary_slice("bfa2", 0.9, cl=2e-15)
    rep = sta(sl, ("Cin",), ("Cout",))
    assert rep.stage_cells == 2
    for n in (1, 3, 5):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
        rep = sta(cpa, ("C0",), (f"C{n}",))
        assert rep.stage_cells == n


def test_cpa_arrival_affine_in_digit_count():
    arrivals = {}
    for n in (1, 2, 4, 8, 16):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
        arrivals[n] = sta(cpa, ("C0",), (f"C{n}",)).worst_arrival_ps
    slope = arrivals[2] - arrivals[1]
    assert slope > 0
    for n in (1, 2, 4, 8, 16):
        assert arrivals[n] == pytest.approx(arrivals[1] + (n - 1) * slope, abs=1e-9)
    # independent slope derivation: the internal per-cell carry delay is
    # mux2 driving the inverter pin (0.2 fF) plus the inverter driving the
    # next cell's two mux2 select pins (0.4 fF), tick-quantized
    from mvadder.gates import propagation_delay
    from mvadder._kernel import TICK_PS

    cell = build_qfa("qfa2", 0.9)
    mux2 = cell.instances["mux2_cout"].primitive
    inv = cell.instances["inv_cout"].primitive
    pin = mux2.params.input_cap_per_pin

    def ticks_ps(seconds):
        return max(1, round(seconds / (TICK_PS * 1e-12))) * TICK_PS

    expected = ticks_ps(propagation_delay(mux2, pin)) + ticks_ps(
        propagation_delay(inv, 2 * pin))
    assert slope == pytest.approx(expected)


def test_sta_upper_bounds_random_simulation():
    rng = np.random.default_rng(123)
    cells = {
        "qfa1": build_qfa("qfa1", 0.9, cl=2e-15),
        "qfa2": build_qfa("qfa2", 0.9, cl=2e-15),
        "bfa2": build_bfa("bfa2", 0.9, cl=2e-15),
    }
    for name, cell in cells.items():
        inputs = sorted(p.name for p in cell.input_ports())
        outputs = sorted(p.name for p in cell.output_ports())
        rep = sta(cell, tuple(inputs), tuple(outputs))
        bound = {o: rep.arrivals_ps[o] for o in outputs}
        radix = {p.name: p.encoding.radix for p in cell.input_ports()}
        for _ in range(100):
            initial = {p: L(int(rng.integers(0, radix[p]))) for p in inputs}
            events = []
            t = 1000.0
            for _k in range(6):
                port = inputs[int(rng.integers(0, len(inputs)))]
                lvl = int(rng.integers(0, radix[port]))
                events.append((t, port, L(lvl)))
                t += 1000.0
            tr = simulate(cell, Stimulus(initial=initial, events=tuple(events),
                                         duration_ps=t + 1000.0))
            for out in outputs:
                for _, d in step_response_delays(tr, out):
                    if d is not None:
                        assert d <= bound[out] + 1e-9, (name, out)


def test_sensitized_worst_case_equals_sta_to_the_tick():
    for kind in ("qfa1", "qfa2"):
        cell = build_qfa(kind, 0.9, cl=2e-15)
        rep = sta(cell, ("Cin",), ("Cout",))
        tr = simulate(cell, worst_case_stimulus("carry_to_carry", kind))
        delays = [d for _, d in step_response_delays(tr, "Cout") if d is not None]
        assert delays, kind
        assert max(delays) == pytest.approx(rep.worst_arrival_ps, abs=0.1)


def test_report_as_dict_is_json_ready():
    import json

    rep = sta(build_qfa("qfa2", 0.9, cl=2e-15), ("Cin", "A", "B"), ("Cout", "Sum"))
    blob = json.dumps(rep.as_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["stages"]["gate_arcs"] == len(parsed["critical_path"])
    assert set(parsed["arrivals_ps"]) == {"Cout", "Sum"}


@pytest.mark.parametrize("sources, sinks, field", [
    ((), ("Cout",), "sources"),
    (("Cin",), [], "sinks"),
])
def test_sta_rejects_an_empty_workload(sources, sinks, field):
    with pytest.raises(DomainError, match=f"{field}: expected at least one port"):
        sta(build_qfa("qfa2", 0.9), sources, sinks)


@pytest.mark.parametrize("sources, sinks, message", [
    (None, ("Cout",), "sources: expected a list, got None"),
    ("Cin", "Cout", "sources: expected a list, got 'Cin'"),
    ([["A"]], ("Cout",), "sources: ['A'] is not a port of 'qfa2'"),
    (("Cin",), 5, "sinks: expected a list, got 5"),
    (("Cin",), ("Cout", 1), "sinks: 1 is not a port of 'qfa2'"),
    (("Cin",), ("Carry",), "sinks: 'Carry' is not a port of 'qfa2'"),
], ids=["none", "str", "nested", "int", "int-port", "unknown-port"])
def test_sta_names_the_port_list_at_fault(sources, sinks, message):
    """A port list is an iterable of port names, not a str of letters."""
    with pytest.raises(DomainError) as info:
        sta(build_qfa("qfa2", 0.9), sources, sinks)
    assert str(info.value) == message


# --------------------------------------------------------------------------
# Random circuits


def test_every_kind_lists_its_pins_in_name_order():
    """sta keeps the first of equal candidates in pin order, which is then
    the least (instance, from_pin, to_pin) arc."""
    for kind, spec in KIND_SPECS.items():
        assert list(spec.inputs) == sorted(spec.inputs), kind
        assert list(spec.outputs) == sorted(spec.outputs), kind


def brute_force_sta(c, sources, sinks):
    """(arrivals_ps, worst_sink, critical path as TimingArcs) from every arc
    scored with its explicit key: arrivals relax over all arcs to a fixed
    point, then each net keeps the least (instance, from_pin, to_pin) of the
    arcs that give its arrival. Also returns whether any such choice was a
    tie between arcs."""
    comp = compile_circuit(c)
    arcs = []  # (key, from net, to net, ticks, instance)
    for inst, delays in zip(c.instances.values(), comp.gate_delay):
        spec = KIND_SPECS[inst.primitive.kind]
        arcs += [((inst.id, i, o), inst.pins[i], inst.pins[o], d, inst)
                 for o, d in zip(spec.outputs, delays) for i in spec.inputs]
    arrival = {c.ports[s].net: 0 for s in sources}
    changed = True
    while changed:
        changed = False
        for _, src, dst, d, _ in arcs:
            if src in arrival and arrival[src] + d > arrival.get(dst, -1):
                arrival[dst], changed = arrival[src] + d, True
    pred, tie = {}, False
    for key, src, dst, d, inst in sorted(arcs, key=lambda a: a[0]):
        if src in arrival and arrival[src] + d == arrival[dst]:
            tie |= dst in pred
            pred.setdefault(dst, (key, src, d, inst))
    sink_ticks = {s: arrival.get(c.ports[s].net) for s in sinks}
    reached = [s for s, t in sink_ticks.items() if t is not None]
    worst = min(reached, key=lambda s: (-sink_ticks[s], s), default=None)
    path, net = [], worst and c.ports[worst].net
    while net in pred:
        (iid, i, o), src, d, inst = pred[net]
        path.insert(0, TimingArc(iid, inst.primitive.kind, i, o, src, net, d * TICK_PS,
                                 inst.cell_tag))
        net = src
    arrivals = {s: None if t is None else t * TICK_PS for s, t in sink_ticks.items()}
    return arrivals, worst, tuple(path), tie


def test_sta_agrees_with_a_brute_force_over_every_arc_on_random_circuits():
    rng = np.random.default_rng(2024)
    shared_pins = ties = 0
    for _ in range(150):
        rows = np.column_stack([rng.integers(0, r, 3) for r in INPUTS.values()])
        c = random_circuit(rng, n_gates=int(rng.integers(1, 30)), vectors=rows)
        ports = sorted(c.ports)
        shared_pins += any(len(set(i.pins.values())) < len(i.pins) for i in c.instances.values())
        for _ in range(3):
            sources = list(rng.choice(ports, int(rng.integers(1, 4))))
            sinks = list(rng.choice(ports, int(rng.integers(1, len(ports) + 1))))
            rep = sta(c, sources, sinks)
            arrivals, worst, path, tie = brute_force_sta(c, sources, sinks)
            assert (rep.arrivals_ps, rep.worst_sink, rep.critical_path) == (arrivals, worst, path)
            assert rep.worst_arrival_ps == (worst and arrivals[worst])
            ties += tie
    assert shared_pins > 20 and ties > 20  # the tie-break was exercised


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_step_delays_are_bracketed_by_sta_on_random_circuits(seed):
    """Each step's measured delay to an output is at most the STA arrival
    from the ports that step toggled; an output STA cannot reach from them
    does not move."""
    rng = np.random.default_rng(seed)
    level = {p: int(rng.integers(r)) for p, r in INPUTS.items()}
    initial, rows, steps = dict(level), [list(level.values())], []
    for _ in range(int(rng.integers(1, 6))):
        ports = rng.choice(list(INPUTS), int(rng.integers(1, 4)), replace=False)
        step = {str(p): int(rng.integers(INPUTS[p])) for p in ports}
        steps.append((step, sorted(p for p, v in step.items() if v != level[p])))
        level.update(step)
        rows.append(list(level.values()))
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)), vectors=np.array(rows))
    outputs = sorted(p.name for p in c.output_ports())
    assume(outputs)
    # steps further apart than any arrival: each settles before the next
    settle = sta(c, list(INPUTS), outputs).worst_arrival_ps or 0.0
    gap = float(int(settle) + 100)
    events = tuple((gap * (k + 1), p, L(v)) for k, (step, _) in enumerate(steps)
                   for p, v in sorted(step.items()))
    tr = simulate(c, Stimulus({p: L(v) for p, v in initial.items()}, events,
                              duration_ps=gap * (len(steps) + 1)))
    for out in outputs:
        measured = step_response_delays(tr, out)
        assert len(measured) == len(steps)
        for (_, toggled), (_, delay) in zip(steps, measured):
            bound = sta(c, toggled, [out]).arrivals_ps[out] if toggled else None
            if bound is None:
                assert delay is None, (out, toggled)
            elif delay is not None:
                assert delay <= bound + 1e-9, (out, toggled)
