"""Deterministic event-driven simulation and measurement helpers.

All nets start at X except the constants. A settle phase evaluates the
gates the constants alone decide, applies the stimulus's initial levels
and runs to quiescence; stimulus events then play out in a measurement
window whose time origin sits one nanosecond after the settle finished.
Settle energy is kept in the ledger but reported separately so it never
contaminates power comparisons.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _kernel
from ._kernel import SimulationTimeoutError as SimulationTimeoutError  # re-exported
from ._kernel import TICK_PS, UnsettledOutputError, _ticks, compile_circuit
from .levels import DomainError, Level, is_finite, listed, whole
from .netlist import CELL_KINDS, Circuit, gc_paused

#: Quiet gap inserted between settle quiescence and the stimulus origin.
SETTLE_GAP_TICKS = 10_000  # 1 ns

_MAX_EVENTS_PER_NET = 10_000

#: The least time between the steps of a worst-case stimulus.
STEP_PS = 2000.0

_EVENTS_FORM = "events must be a list of (time_ps, input port, level), got {!r}"


class StimulusError(ValueError):
    """Stimulus inconsistent with the circuit's input ports."""


@dataclass(frozen=True)
class Stimulus:
    """Initial input levels plus timed input events.

    ``events`` entries are (time_ps, port, level) with time measured from
    the stimulus origin (after settle). ``duration_ps`` bounds the
    measurement window; the circuit must be quiescent again by then.
    """

    initial: dict
    events: tuple = ()
    duration_ps: float = 1000.0

    def to_json(self) -> dict:
        """The stimulus as a JSON object, each value as it is: a level as an
        int (a whole number), a time as a float (any float, or a finite
        number) and a port as a str. A StimulusError, starting with its
        field, for a value that is none of these; :func:`simulate` checks
        the rest."""
        duration, initial = _json_time("duration_ps", self.duration_ps), self.initial
        if not isinstance(initial, Mapping):
            raise StimulusError(f"initial levels must be a map of ports to levels, got {initial!r}")
        initial = {p: _json_level("initial", p, lvl) for p, lvl in initial.items()}
        events = [[_json_time(f"events[{k}]: time", t), p, _json_level(f"events[{k}]", p, lvl)]
                  for k, t, p, lvl in _events(self.events)]
        return {"initial": initial, "events": events, "duration_ps": duration}

    @classmethod
    def from_json(cls, data: dict) -> "Stimulus":
        """The stimulus a JSON object holds, its values as given: only the
        shape is checked here, :func:`simulate` checks the rest. Raises
        StimulusError naming a missing field, or ``events`` if not a list."""
        if not isinstance(data, dict):
            raise StimulusError(f"a stimulus is an object of initial, events and duration_ps, "
                                f"got {data!r}")
        for name in ("initial", "events", "duration_ps"):
            if name not in data:
                raise StimulusError(f"{name}: missing")
        events = data["events"]
        if not isinstance(events, (list, tuple)):
            raise StimulusError(_EVENTS_FORM.format(events))
        events = tuple(tuple(e) if isinstance(e, list) else e for e in events)
        return cls(data["initial"], events, data["duration_ps"])

    @classmethod
    def load(cls, path: str | Path) -> "Stimulus":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


def _json_time(field: str, t) -> float:
    if isinstance(t, float) or is_finite(t):
        return float(t)
    raise StimulusError(f"{field} must be a number, got {t!r}")


def _json_level(field: str, port, value) -> int:
    if not isinstance(port, str):
        raise StimulusError(f"{field}: {port!r} is not a port name")
    try:
        return whole(port, value, floats=True)
    except DomainError:
        raise StimulusError(f"{field}: {port}: {value!r} is not a logic level") from None


def _events(events):
    """Per entry of ``events``: its index, time, port and level. A
    StimulusError naming ``events``, or ``events[k]`` for an entry not of
    that form or with an unhashable port."""
    try:
        given = enumerate(events)
    except TypeError:  # not iterable
        raise StimulusError(_EVENTS_FORM.format(events)) from None
    for k, event in given:
        try:
            t, port, lvl = event
            hash(port)
        except (TypeError, ValueError):  # not a triple, or an unhashable port
            raise StimulusError(f"events[{k}]: expected (time_ps, input port, level), "
                                f"got {event!r}") from None
        yield k, t, port, lvl


def _joules(records) -> float:
    """The joules of trace ``records``, summed as numpy sums a float64 array:
    pairwise (a Python sum rounds otherwise)."""
    return float(np.array([r[3] for r in records], np.float64).sum())


@dataclass
class Trace:
    """Time-ordered transition record plus the per-transition energy ledger.

    ``records`` is the event kernel's list of (tick, net, level, joules,
    src) tuples, in time order: ticks are absolute (settle included) and
    ``origin_ticks`` marks the stimulus origin; ``src`` tells externally
    driven input transitions (1, zero energy) from gate-driven ones (0).
    The measurements, the energy sums and the CSV writers read the records;
    ``times`` is their ticks as an int64 numpy array, built on first read.
    """

    circuit: Circuit
    records: list = field(repr=False)  # [(tick, net, level, joules, src)]
    origin_ticks: int
    n_settle: int
    duration_ticks: int
    stim_events: tuple  # (abs_ticks, port, level as an int), sorted
    final_levels: list  # the kernel's last level per net, as an int (-1 for X)
    compiled: object = field(repr=False)  # the circuit's _kernel.CompiledCircuit

    times = cached_property(lambda trace: np.array([r[0] for r in trace.records], np.int64))

    @property
    def total_energy(self) -> float:
        return _joules(self.records)

    @property
    def settle_energy(self) -> float:
        return _joules(self.records[: self.n_settle])

    @property
    def measurement_energy(self) -> float:
        return _joules(self.records[self.n_settle:])

    def net_index(self, name: str) -> int:
        """The index of a net, named by its id or by a port on it."""
        if isinstance(name, str):  # a list is unhashable
            port = self.circuit.ports.get(name)
            index = self.compiled.net_index.get(name if port is None else port.net)
            if index is not None:
                return index
        raise DomainError(f"unknown net or port {name!r}")

    def final_level(self, port: str) -> Level:
        return Level(self.final_levels[self.net_index(port)])

    def write_csv(self, path: str | Path) -> None:
        rail = self.compiled.net_rail
        self._write(path, ["level", "voltage"], (
            (t, n, l, repr(float(rail[n][l])) if l >= 0 else "")
            for t, n, l, _, _ in self.records))

    def write_energy_csv(self, path: str | Path) -> None:
        """Gate-driven transitions only."""
        self._write(path, ["joules"], ((t, n, repr(e)) for t, n, _, e, s in self.records
                                       if s == 0))

    def _write(self, path: str | Path, header: list, rows) -> None:
        """One line per row of (tick, net, more...): time (ps), net id, more."""
        names = self.compiled.net_ids
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_ps", "net", *header])
            w.writerows([repr(t * TICK_PS), names[n], *more] for t, n, *more in rows)


def _cover_error(comp, initial) -> StimulusError:
    """Why ``initial`` is not a map of exactly the input ports to levels."""
    inputs = set(comp.in_port_net)
    try:
        given = set(initial)
    except TypeError:  # not iterable, or an unhashable entry
        given = None
    if given is None or given == inputs:  # no map, or not one
        return StimulusError(f"initial levels must be a map of the input ports to levels, "
                             f"got {initial!r}")
    return StimulusError(f"initial levels must cover exactly the input ports; "
                         f"missing {sorted(inputs - given)}, extra {sorted(given - inputs)}")


def _level(comp, port: str, value) -> int:
    """``value`` as the level it drives on input ``port``, if it can drive it:
    a Level, or a whole number naming one (2.0, not 2.7, "2" or True)."""
    lvl = value
    if type(lvl) is not Level:  # ints, floats: checked
        try:
            lvl = whole(port, value, floats=True, low=-1, high=3)
        except DomainError:
            raise StimulusError(f"{port}: {value!r} is not a logic level") from None
    enc = comp.port_encoding[port]
    if 0 <= lvl < enc.radix:
        return int(lvl)
    if lvl == Level.X:
        raise StimulusError(f"{port}: inputs cannot be driven to X")
    raise StimulusError(
        f"{port}: level {int(lvl)} outside {enc.radix}-level encoding {enc.name!r}")


def _check_stimulus(comp, stim: Stimulus) -> tuple:
    """The stimulus checked against the compiled circuit, in one pass, the one
    home of every stimulus rule: its initial levels as [(net, level)] sorted
    by net, and its events as [(tick, net, level, port)] sorted by (tick,
    net), levels as ints.

    The checks run in this order, the first failure raised as a
    StimulusError that starts with its field: the window, the ports of the
    initial levels, then per event its form, port, time, order and tick; the
    levels come last, initial first."""
    duration = stim.duration_ps
    max_ps = comp.max_ticks / _kernel.TICKS_PER_PS  # a window within the tick budget
    if not (is_finite(duration) and 0 <= duration <= max_ps):
        raise StimulusError(
            f"duration_ps must be a time in [0, {max_ps:g}] ps, got {duration!r}")
    in_net, initial = comp.in_port_net, stim.initial
    if not (isinstance(initial, Mapping) and initial.keys() == in_net.keys()):
        raise _cover_error(comp, initial)
    seen: dict = {}  # per port: its last event's (time, tick)
    events = []
    bad = None  # the first event level that cannot drive its port
    for k, t, port, lvl in _events(stim.events):
        net = in_net.get(port)
        if net is None:
            raise StimulusError(f"events[{k}]: {port!r} is not an input port")
        if not (is_finite(t) and 0 <= t <= duration):  # NaN and infinities of any width
            raise StimulusError(f"events[{k}]: time must be a number in "
                                f"[0, duration_ps={duration}] ps, got {t!r}")
        tick = _ticks(t)
        last = seen.get(port)
        if last is not None:
            if t < last[0]:
                raise StimulusError(f"events[{k}]: events on {port!r} not in time order")
            # compare at tick resolution: distinct ps times that quantize to the
            # same tick would double-toggle the net within one tick
            if tick == last[1]:
                raise StimulusError(f"events[{k}]: events on {port!r} collide at {t} ps "
                                    f"(0.1 ps ticks)")
        seen[port] = t, tick
        try:
            lvl = _level(comp, port, lvl)
        except StimulusError as exc:  # raised after the initial levels' checks
            bad, lvl = bad or StimulusError(f"events[{k}]: {exc}"), -1
        events.append((tick, net, lvl, port))
    try:
        start = [(in_net[port], _level(comp, port, lvl)) for port, lvl in initial.items()]
    except StimulusError as exc:
        raise StimulusError(f"initial: {exc}") from None
    if bad is not None:
        raise bad
    start.sort()
    events.sort()  # (tick, net) is unique: ports have their own nets, ticks do not collide
    return start, events


@gc_paused
def simulate(circuit: Circuit, stimulus: Stimulus) -> Trace:
    """Run one stimulus; returns the full trace with the energy ledger."""
    comp = compile_circuit(circuit)
    initial, events = _check_stimulus(comp, stimulus)
    max_events = _MAX_EVENTS_PER_NET * (comp.n_nets + len(events) + 1)
    origin, n_settle, records, cur = _kernel._run_single(
        comp, initial, [e[:3] for e in events], stimulus.duration_ps, SETTLE_GAP_TICKS,
        max_events)
    return Trace(
        circuit=circuit,
        records=records,
        origin_ticks=origin,
        n_settle=n_settle,
        duration_ticks=_ticks(stimulus.duration_ps),
        stim_events=tuple((tick + origin, port, lvl) for tick, _, lvl, port in events),
        final_levels=cur,
        compiled=comp,
    )


def _port_plan(comp, key: tuple) -> tuple:
    """The :func:`_kernel.settle_batch` plan of the port lists ``key``, (in_ports,
    out_ports or None): (in_ports, radix, in_nets, out_ports, out_nets), ``comp.port_plan``'s
    if it holds these lists, else checked and kept there once every check passes."""
    kept = comp.port_plan
    # its very lists, or equal lists of str alone (an array's == gives no bool)
    if kept and (kept[0][0] is key[0] and kept[0][1] is key[1] or all(
            type(p) is str for p in key[0] + (key[1] or ())) and kept[0] == key):
        return kept[1]
    in_ports, out_ports = key[0], tuple(sorted(comp.out_port_net)) if key[1] is None else key[1]
    for p in in_ports:
        if not isinstance(p, str):  # a list is unhashable
            raise StimulusError(f"in_ports: {p!r} is not an input port of the circuit")
    if set(in_ports) != set(comp.in_port_net) or len(in_ports) != len(comp.in_port_net):
        raise StimulusError(
            f"in_ports must cover exactly the input ports {sorted(comp.in_port_net)}")
    for p in out_ports:
        if not isinstance(p, str) or p not in comp.out_port_net:  # a list is unhashable
            raise StimulusError(f"out_ports: {p!r} is not an output port of the circuit")
    plan = (in_ports, np.array([comp.port_encoding[p].radix for p in in_ports], np.uint64),
            np.array([comp.in_port_net[p] for p in in_ports], np.intp), out_ports,
            np.array([comp.out_port_net[p] for p in out_ports], np.intp))
    comp.port_plan = key, plan
    return plan


def settle_matrix(circuit: Circuit, in_ports, vectors, out_ports=None) -> np.ndarray:
    """Low-overhead batch settle: ``vectors[r, i]`` is the level driven on
    ``in_ports[i]``; returns an int64 matrix aligned to ``out_ports``
    (all outputs, sorted, when omitted). This is the hot path for
    exhaustive and random functional verification.

    The settle is one levelized pass, vectorized over the gate units of a
    step and over the rows (see :func:`_kernel.settle_batch`); it gives the
    final levels :func:`simulate` reaches after its settle phase: every gate
    at its truth-table entry for its settled inputs, with X where no input
    combination decides it. This is the port and vector checks, then
    :func:`_settle_ports`. The compiled circuit keeps the last checked port
    lists with their arrays; the vectors are checked after them, every call."""
    comp = compile_circuit(circuit)
    in_ports = listed("in_ports", in_ports)
    key = (in_ports, None if out_ports is None else listed("out_ports", out_ports))
    radix = (plan := _port_plan(comp, key))[1]
    # tested first: an integer array takes no extra pass; anything else, a
    # list too, is checked entry by entry as given (so True is not taken for 1)
    if not (isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iu"):
        vectors = np.array(vectors, dtype=object)
        if vectors.ndim == 2 and vectors.shape[1] == len(in_ports):
            rows = []
            for r, row in enumerate(vectors.tolist()):
                for p, v in zip(in_ports, row):
                    try:  # clamped: a level outside every encoding is the range check's to name
                        rows.append(min(max(whole(p, v, floats=True), -1), 4))
                    except DomainError:
                        raise StimulusError(f"{p}: {v!r} is not a logic level, "
                                            f"at vector row {r}") from None
            vectors = np.array(rows, np.int64).reshape(vectors.shape)
    if vectors.ndim != 2 or vectors.shape[1] != len(in_ports):
        raise StimulusError("vectors must be (n_vectors, n_input_ports)")
    vectors = np.ascontiguousarray(vectors, dtype=np.int64)
    # as uint64 a negative level is huge, so one comparison checks both ends
    bad = vectors.view(np.uint64).max(axis=0, initial=0) >= radix
    if bad.any():
        col = int(bad.argmax())
        row = int((vectors[:, col].view(np.uint64) >= radix[col]).argmax())
        raise StimulusError(f"{in_ports[col]}: levels outside {radix[col]}-level encoding, "
                            f"first at vector row {row}")
    return _settle_ports(comp, plan, vectors)


def _settle_ports(comp, plan: tuple, vectors: np.ndarray) -> np.ndarray:
    """:func:`settle_matrix` of ``vectors`` it would accept on the ports of the
    :func:`_port_plan` ``plan``: the batch settle and its X check, naming a row."""
    _, _, in_nets, out_ports, out_nets = plan
    out_lvls = _kernel.settle_batch(comp, in_nets, vectors, out_nets)
    if out_lvls.size and out_lvls.min() < 0:  # min(): no row-sized temporary
        x = out_lvls < 0
        ports = [p for p, is_x in zip(out_ports, x.any(axis=0)) if is_x]
        raise UnsettledOutputError(f"outputs {ports} settled to X during batch evaluation, "
                                   f"first at vector row {int(x.any(axis=1).argmax())}")
    return out_lvls


# --------------------------------------------------------------------------
# Measurements


def measure_delay(trace: Trace, src_port: str, src_event_index: int,
                  dst_port: str) -> float | None:
    """Delay from a stimulus event to the LAST transition it causes on
    ``dst_port`` (ps). Returns None when the destination never moves —
    distinct from a zero delay."""
    index = whole("src_event_index", src_event_index)
    events = [t for t, p, _ in trace.stim_events if p == src_port]
    if index < 0 or index >= len(events):
        raise DomainError(f"{src_port!r} has {len(events)} stimulus events; "
                          f"index {src_event_index}")
    return _step_delays(trace, dst_port)[events[index]]


def step_response_delays(trace: Trace, dst_port: str) -> list:
    """Per stimulus step (grouped by event time): (time_ps, delay_ps|None)
    to the last caused transition on ``dst_port``."""
    return [((t_src - trace.origin_ticks) * TICK_PS, d)
            for t_src, d in _step_delays(trace, dst_port).items()]


def _step_delays(trace: Trace, dst_port: str) -> dict:
    """{step tick: delay (ps)} to the net's last transition after the step, up
    to the next step or the window's end; None when the net does not move.
    Settle records fall before every step, so only the window's are read."""
    steps = sorted({t for t, _, _ in trace.stim_events})
    net = trace.net_index(dst_port)
    times = [t for t, n, _, _, _ in trace.records[trace.n_settle:] if n == net]  # in time order
    ends = [*steps[1:], trace.origin_ticks + trace.duration_ticks]
    return {t: float((times[h - 1] - t) * TICK_PS)
            if (h := bisect_right(times, end)) and times[h - 1] > t else None
            for t, end in zip(steps, ends)}


def measure_power(trace: Trace, window: tuple) -> float:
    """Average power (W) over a window given in measurement-frame ps.

    Only gate-driven transitions count; the window [w0, w1) excludes the
    settle phase by construction (measurement time 0 = stimulus origin).
    """
    try:
        w0, w1 = window
    except (TypeError, ValueError):
        w0 = w1 = None
    if not (is_finite(w0) and is_finite(w1)):
        raise DomainError(f"window must be a (start_ps, end_ps) pair of numbers, got {window!r}")
    if not (0 <= w0 < w1 <= trace.duration_ticks * TICK_PS):
        raise DomainError(f"window {window} empty or outside the trace")
    t0 = trace.origin_ticks + _ticks(w0)
    t1 = trace.origin_ticks + _ticks(w1)
    energy = _joules(r for r in trace.records[trace.n_settle:] if r[4] == 0 and t0 <= r[0] < t1)
    return energy / ((w1 - w0) * 1e-12)


# --------------------------------------------------------------------------
# Worst-case stimuli


def stimulus_step_ps(arrival_ps: float | None) -> float:
    """The step of a worst-case stimulus for a circuit whose worst STA arrival
    is ``arrival_ps`` (None if nothing is reached): :data:`STEP_PS`, or one
    tick past the arrival if later. STA bounds when the event kernel last
    moves a net after an input step, so each step's response ends in time."""
    ticks = -1 if arrival_ps is None else _ticks(arrival_ps)
    return max(STEP_PS, (ticks + 1) / _kernel.TICKS_PER_PS)


def worst_case_stimulus(target: str, kind: str, *, step_ps: float = STEP_PS) -> Stimulus:
    """The stressing input sequences used for delay/power comparisons.

    Steps fall every ``step_ps``. ``input_to_carry`` walks A through
    0,1,2,3,2,1,0 with Cin held low and B at 3, which toggles the carry on
    every step; ``carry_to_carry`` pulses Cin with A=2, B=1 held, the
    combination that sensitizes the carry path end to end. Binary cells
    walk A through 0,1,0,... with B at 1, and pulse Cin with A=0, B=1. A
    two-cell binary slice takes each A and B digit as two bits, least
    significant first, and a step drives only the bits that change.
    """
    kind = kind.lower() if isinstance(kind, str) else kind
    if target not in ("input_to_carry", "carry_to_carry"):
        raise DomainError(f"unknown stimulus target {target!r}")
    if kind not in CELL_KINDS:
        raise DomainError(f"unknown cell kind {kind!r}")
    if not (is_finite(step_ps) and step_ps > 0):
        raise DomainError(f"step_ps must be a finite number > 0, got {step_ps!r}")
    binary, bit_slice = kind in ("bfa1", "bfa2"), kind.endswith("x2")

    def digit(port: str, value: int) -> dict:
        if bit_slice and port != "Cin":
            return {f"{port}0": Level(value & 1), f"{port}1": Level(value >> 1)}
        return {port: Level(value)}

    if target == "carry_to_carry":
        port, seq, a, b = "Cin", (1, 0), 0 if binary else 2, 1
    else:
        port, seq, a, b = "A", (1, 0) * 3 if binary else (1, 2, 3, 2, 1, 0), 0, 1 if binary else 3
    prev = initial = {**digit("A", a), **digit("B", b), **digit("Cin", 0)}
    events = []
    for i, value in enumerate(seq):
        now = digit(port, value)
        events += [(step_ps * (i + 1), net, v) for net, v in now.items() if prev[net] != v]
        prev = now
    return Stimulus(initial=initial, events=tuple(events),
                    duration_ps=step_ps * (len(seq) + 1))
