"""A slow reference event simulator checks every record of ``simulate``.

The reference is written from the docstring of ``_kernel._run_single``, not
from its code: pending events in a dict per net, ticks walked in order with
a tick's due events taken in net order (an input event before a gate event
on the same net), gates evaluated with ``eval_primitive``, records priced
with ``switching_energy``, and a start that schedules every gate whose
outputs the constants alone decide. From the compiled circuit it reads only
net indices, loads and gate delays, which other tests check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvadder import _kernel
from mvadder.engine import (
    _MAX_EVENTS_PER_NET,
    SETTLE_GAP_TICKS,
    SimulationTimeoutError,
    Stimulus,
    UnsettledOutputError,
    simulate,
    worst_case_stimulus,
)
from mvadder.gates import KIND_SPECS, eval_primitive, switching_energy
from mvadder.levels import DomainError, Level
from mvadder.netlist import CELL_KINDS, build_cell, build_cpa, build_qfa, from_json, to_json
from random_circuits import INPUTS, random_circuit

X = -1
FIELDS = ("records", "origin_ticks", "n_settle", "final_levels")


def reference_simulate(circuit, stim: Stimulus) -> dict:
    """The trace fields of ``simulate(circuit, stim)``, one event at a time."""
    comp = _kernel.compile_circuit(circuit)
    index, cap = comp.net_index, comp.net_cap
    nets = list(circuit.nets.values())
    level = [net.driver[1] if net.driver else X for net in nets]
    gates = []  # (kind, input nets, output nets, output delays in ticks)
    readers: dict = {}  # net -> the gates with an input pin on it
    for g, (inst, delays) in enumerate(zip(circuit.instances.values(), comp.gate_delay)):
        spec = KIND_SPECS[inst.primitive.kind]
        ins = [index[inst.pins[p]] for p in spec.inputs]
        gates.append((inst.primitive.kind, ins, [index[inst.pins[p]] for p in spec.outputs],
                      delays))
        for n in ins:
            readers.setdefault(n, set()).add(g)
    pending: dict = {}  # net -> (tick, level)
    records = []

    def volts(n, lvl):
        return nets[n].encoding.level_voltages[lvl] if lvl != X else 0.0

    def update(g, t):
        """Recompute gate ``g`` at tick ``t``: per output, keep a pending event
        that agrees, cancel one whose target is the net's level, replace the
        rest; schedule a target other than the net's level."""
        kind, ins, outs, delays = gates[g]
        try:
            targets = [int(v) for v in eval_primitive(kind, [Level(level[n]) for n in ins])]
        except DomainError:
            targets = [X] * len(outs)
        for o, target, d in zip(outs, targets, delays):
            if o in pending:
                if pending[o][1] == target:
                    continue
                del pending[o]
            if target != level[o]:
                pending[o] = (t + d, target)

    n_events = 0
    max_events = _MAX_EVENTS_PER_NET * (len(nets) + len(stim.events) + 1)

    def play(stream, t_end) -> int:
        """Process ``stream`` [(tick, net, level)] and the pending events until
        none is left; the tick of the last level change, or 0."""
        nonlocal n_events
        stream, last = sorted(stream), 0
        while stream or pending:
            due = [(t, n, 1) for n, (t, _) in pending.items()]
            due += [(t, n, 0) for t, n, _ in stream[:1]]
            t, n, from_gate = min(due)
            if from_gate:
                lvl = pending.pop(n)[1]
                if t > t_end:
                    raise SimulationTimeoutError(f"gate event at tick {t} past {t_end}")
                n_events += 1
                if n_events > max_events:
                    raise SimulationTimeoutError("event budget exceeded")
                records.append((t, n, lvl, switching_energy(cap[n], volts(n, level[n]),
                                                            volts(n, lvl)), 0))
            else:
                lvl = stream.pop(0)[2]
                if lvl == level[n]:
                    continue
                records.append((t, n, lvl, 0.0, 1))
            level[n], last = lvl, t
            for g in sorted(readers.get(n, ())):
                update(g, t)
        return last

    for g in range(len(gates)):  # all outputs are X: only decided ones are scheduled
        update(g, 0)
    port_net = {p.name: index[p.net] for p in circuit.ports.values()}
    settled = play([(0, port_net[p], int(lvl)) for p, lvl in stim.initial.items()], float("inf"))
    x_ports = [p.name for p in circuit.output_ports() if level[port_net[p.name]] == X]
    if x_ports:
        raise UnsettledOutputError(f"outputs {x_ports} still X")
    origin = settled + SETTLE_GAP_TICKS
    n_settle = len(records)
    play([(origin + _kernel._ticks(t), port_net[p], int(lvl)) for t, p, lvl in stim.events],
         origin + _kernel._ticks(stim.duration_ps))
    return dict(zip(FIELDS, [records, origin, n_settle, level]))


def simulated(circuit, stim: Stimulus) -> dict:
    tr = simulate(circuit, stim)
    return {name: getattr(tr, name) for name in FIELDS}


def outcome(run, circuit, stim):
    """``run``'s fields, or the class of what it raised."""
    try:
        return run(circuit, stim)
    except Exception as exc:
        return type(exc)


def assert_agree(circuit, stim: Stimulus) -> dict | type:
    want = outcome(reference_simulate, circuit, stim)
    got = outcome(simulated, circuit, stim)
    if isinstance(want, dict) and isinstance(got, dict):
        for name in FIELDS:
            assert got[name] == want[name], name
    else:
        assert got == want
    return got


def shuffled_nets(circuit, rng):
    """``circuit`` reloaded with its nets in a random order, so that input
    ports and gate outputs interleave in net index."""
    data = json.loads(json.dumps(to_json(circuit)))
    rng.shuffle(data["nets"])
    return from_json(data)


def random_case(rng):
    """A random circuit with its nets shuffled, so input ports and gate
    outputs interleave in net index, and a stimulus for it. Each event
    changes its port's level (I2, the quaternary one, is drawn twice as
    often) a few half-ps steps or a sum of gate delays after the one before.
    Output ports are the nets that settle at the initial vector and a random
    one, or, one time in eight, at the random one only, which may leave an
    output X. One window in four is short, and may end before the circuit is
    quiet. Then a few events more are put on ticks where the reference has
    gate events, so input and gate events meet on one tick."""
    level = {p: int(rng.integers(r)) for p, r in INPUTS.items()}
    other = [int(rng.integers(r)) for r in INPUTS.values()]
    vectors = [other] if rng.integers(8) == 0 else [list(level.values()), other]
    c = shuffled_nets(random_circuit(rng, n_gates=int(rng.integers(1, 30)), vectors=vectors), rng)
    delays = sorted({d for ds in _kernel.compile_circuit(c).gate_delay for d in ds})
    initial = {p: Level(v) for p, v in level.items()}

    def event(t: int) -> tuple:
        p = str(rng.choice(["I0", "I1", "I2", "I2"]))
        level[p] = (level[p] + int(rng.integers(1, INPUTS[p]))) % INPUTS[p]
        return (t / 10, p, Level(level[p]))

    events, t = [], 0
    for _ in range(int(rng.integers(0, 17))):
        if rng.integers(2):
            t += 5 * int(rng.integers(1, 41))
        else:
            t += sum(int(rng.choice(delays)) for _ in range(int(rng.integers(1, 4))))
        events.append(event(t))
    end = t / 10 + (float(rng.choice([0.0, 5.0, 30.0])) if rng.integers(4) == 0 else 1e5)
    probe = outcome(reference_simulate, c, Stimulus(initial, tuple(events), end))
    if isinstance(probe, dict):
        origin = probe["origin_ticks"]
        ticks = sorted({t - origin for t, _, _, _, src in probe["records"]
                        if src == 0 and t > origin})
        for t in rng.permutation(ticks)[: rng.integers(0, 5)].tolist():
            e = event(t)
            if e[:2] not in {x[:2] for x in events}:
                events.append(e)
    events.sort(key=lambda e: e[0])
    return c, Stimulus(initial=initial, events=tuple(events), duration_ps=end)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reference_simulator_agrees_on_random_circuits(seed):
    assert_agree(*random_case(np.random.default_rng(seed)))


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("target", ["input_to_carry", "carry_to_carry"])
def test_reference_simulator_agrees_on_each_cell_under_worst_case_stimuli(kind, target):
    got = assert_agree(build_cell(kind, 0.9, cl=2e-15), worst_case_stimulus(target, kind))
    assert isinstance(got, dict) and got["n_settle"] < len(got["records"])


def test_reference_simulator_agrees_on_a_cpa_ripple():
    n = 4
    cpa = build_cpa(build_qfa("qfa2", 0.9), n, cl=2e-15)
    initial = {"C0": Level.L0}
    for i, a in enumerate((0, 3, 1, 2)):
        initial[f"A{i}"], initial[f"B{i}"] = Level(a), Level(3 - a)
    stim = Stimulus(initial=initial, events=((2000.0, "C0", Level.L1),), duration_ps=6000.0)
    got = assert_agree(cpa, stim)
    carry = _kernel.compile_circuit(cpa).net_index[f"C{n}"]
    assert [lvl for _, net, lvl, _, _ in got["records"] if net == carry][-1] == 1


def test_reference_simulator_raises_as_the_kernel_does():
    """An X output and a window too short fail alike on both sides."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    initial = {p: Level.L0 for p in ("A0", "A1", "B0", "B1", "C0")}
    short = Stimulus(initial=initial, events=((1.0, "A0", Level.L3),), duration_ps=2.0)
    assert assert_agree(cpa, short) is SimulationTimeoutError
    rng = np.random.default_rng(3)
    for _ in range(40):  # until a random circuit leaves an output X at the initial vector
        c = random_circuit(rng, vectors=[[1, 1, 3]])
        if assert_agree(c, Stimulus(initial={"I0": Level.L0, "I1": Level.L0, "I2": Level.L0},
                                    duration_ps=10.0)) is UnsettledOutputError:
            break
    else:
        pytest.fail("no random circuit left an output X")
