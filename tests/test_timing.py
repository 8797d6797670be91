import numpy as np
import pytest

from mvadder.engine import Stimulus, simulate, step_response_delays, worst_case_stimulus
from mvadder.levels import DomainError, Level
from mvadder.netlist import build_bfa, build_binary_slice, build_cpa, build_qfa
from mvadder.timing import sta

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
        tr = simulate(cell, worst_case_stimulus("carry_to_carry", kind, 0.9))
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
