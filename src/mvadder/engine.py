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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernel
from ._kernel import SimulationTimeoutError as SimulationTimeoutError  # re-exported
from ._kernel import TICK_PS, UnsettledOutputError, _ticks, compile_circuit
from .levels import DomainError, Level, real_number
from .netlist import CELL_KINDS, Circuit, gc_paused

#: Quiet gap inserted between settle quiescence and the stimulus origin.
SETTLE_GAP_TICKS = 10_000  # 1 ns

_MAX_EVENTS_PER_NET = 10_000

#: The least time between the steps of a worst-case stimulus.
STEP_PS = 2000.0


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
        return {
            "initial": {p: int(l) for p, l in self.initial.items()},
            "events": [[float(t), p, int(l)] for t, p, l in self.events],
            "duration_ps": float(self.duration_ps),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Stimulus":
        """Raises StimulusError naming ``initial``, ``events[i]`` or
        ``duration_ps`` when that field is missing or malformed."""
        if not isinstance(data, dict):
            raise StimulusError(f"a stimulus is an object of initial, events and duration_ps, "
                                f"got {data!r}")
        where = "initial"
        try:
            if not isinstance(data[where], dict):
                raise TypeError(f"expected an object of port levels, got {data[where]!r}")
            initial = {p: _as_level(p, l) for p, l in data[where].items()}
            where, events = "events", []
            for k, event in enumerate(data[where]):
                where = f"events[{k}]"
                t, p, l = event
                if not isinstance(p, str):
                    raise TypeError(f"port must be a name, got {p!r}")
                events.append((float(real_number(t)), p, _as_level(p, l)))
            where = "duration_ps"
            return cls(initial, tuple(events), float(real_number(data[where])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # StimulusError too
            why = "missing" if isinstance(exc, KeyError) else exc
            raise StimulusError(f"stimulus field {where}: {why}") from None

    @classmethod
    def load(cls, path: str | Path) -> "Stimulus":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)


@dataclass
class Trace:
    """Time-ordered transition record plus the per-transition energy ledger.

    ``times`` are absolute ticks (settle included); ``origin_ticks`` marks
    the stimulus origin. ``srcs`` distinguishes externally driven input
    transitions (1, zero energy) from gate-driven ones (0).
    """

    circuit: Circuit
    times: np.ndarray
    nets: np.ndarray
    levels: np.ndarray
    energies: np.ndarray
    srcs: np.ndarray
    origin_ticks: int
    n_settle: int
    duration_ticks: int
    stim_events: tuple  # (abs_ticks, port, level), sorted
    final_levels: np.ndarray
    compiled: object = field(repr=False, default=None)  # the circuit's _kernel.CompiledCircuit

    @property
    def total_energy(self) -> float:
        return float(self.energies.sum())

    @property
    def settle_energy(self) -> float:
        return float(self.energies[: self.n_settle].sum())

    @property
    def measurement_energy(self) -> float:
        return float(self.energies[self.n_settle:].sum())

    def net_index(self, name: str) -> int:
        comp = self.compiled
        if name in self.circuit.ports:
            name = self.circuit.ports[name].net
        if name not in comp.net_index:
            raise DomainError(f"unknown net or port {name!r}")
        return comp.net_index[name]

    def waveform(self, name: str) -> list:
        """[(time_ps, Level, voltage)] for a net or port, settle included."""
        ni = self.net_index(name)
        comp = self.compiled
        mask = self.nets == ni
        out = []
        for t, lvl in zip(self.times[mask], self.levels[mask]):
            v = float(comp.net_rail[ni][lvl]) if lvl >= 0 else float("nan")
            out.append((float(t) * TICK_PS, Level(int(lvl)), v))
        return out

    def final_level(self, port: str) -> Level:
        return Level(int(self.final_levels[self.net_index(port)]))

    def transition_count(self, name: str, measurement_only: bool = True) -> int:
        ni = self.net_index(name)
        lo = self.n_settle if measurement_only else 0
        return int((self.nets[lo:] == ni).sum())

    def write_csv(self, path: str | Path) -> None:
        self._write(path, ["level", "voltage"], lambda l, e, s, rail:
                    (int(l), repr(float(rail[l])) if l >= 0 else ""))

    def write_energy_csv(self, path: str | Path) -> None:
        """Gate-driven transitions only."""
        self._write(path, ["joules"], lambda l, e, s, rail: (repr(float(e)),) if s == 0 else None)

    def _write(self, path: str | Path, header: list, columns) -> None:
        """Per record: time, net and ``columns(level, joules, src, rail)``, if not None."""
        comp = self.compiled
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_ps", "net", *header])
            for t, n, l, e, s in zip(self.times, self.nets, self.levels, self.energies, self.srcs):
                more = columns(l, e, s, comp.net_rail[n])
                if more is not None:
                    w.writerow([repr(float(t) * TICK_PS), comp.net_ids[n], *more])


def _as_level(port: str, value) -> Level:
    """``value`` as a Level, if it is a whole number (2.0, not 2.7 or "2") naming one."""
    try:
        if float(real_number(value)) == int(value):
            return Level(int(value))
    except (TypeError, ValueError, OverflowError):
        pass
    raise StimulusError(f"{port}: {value!r} is not a logic level")


def _check_stimulus(comp, stim: Stimulus) -> None:
    # settle ends within 2**61 ticks (n_nets gates at most on a path, each within
    # _kernel.CompiledCircuit's bound); this adds at most 2**61: ticks fit int64
    max_ps = 2 ** 62 // (2 * comp.n_nets) / _kernel.TICKS_PER_PS
    if not 0 <= stim.duration_ps <= max_ps:  # NaN fails too
        raise StimulusError(
            f"duration_ps must be a time in [0, {max_ps:g}] ps, got {stim.duration_ps!r}"
        )
    inputs = set(comp.in_port_net)
    given = set(stim.initial)
    if given != inputs:
        raise StimulusError(
            f"initial levels must cover exactly the input ports; "
            f"missing {sorted(inputs - given)}, extra {sorted(given - inputs)}"
        )
    seen: dict = {}
    for t, port, lvl in stim.events:
        if port not in inputs:
            raise StimulusError(f"event on non-input port {port!r}")
        if not 0 <= t <= stim.duration_ps:  # NaN fails too
            raise StimulusError(f"event at {t} ps outside [0, {stim.duration_ps}] ps")
        last = seen.get(port)
        if last is not None and t < last:
            raise StimulusError(f"events on {port!r} not in time order")
        # compare at tick resolution: distinct ps times that quantize to the
        # same tick would double-toggle the net within one tick
        if last is not None and _ticks(t) == _ticks(last):
            raise StimulusError(f"events on {port!r} collide at {t} ps (0.1 ps ticks)")
        seen[port] = t
    for port, lvl in list(stim.initial.items()) + [(p, l) for _, p, l in stim.events]:
        lvl = _as_level(port, lvl)
        if lvl == Level.X:
            raise StimulusError(f"{port}: inputs cannot be driven to X")
        enc = comp.port_encoding[port]
        if int(lvl) >= enc.radix:
            raise StimulusError(
                f"{port}: level {int(lvl)} outside {enc.radix}-level encoding {enc.name!r}"
            )


@gc_paused
def simulate(circuit: Circuit, stimulus: Stimulus) -> Trace:
    """Run one stimulus; returns the full trace with the energy ledger."""
    comp = compile_circuit(circuit)
    _check_stimulus(comp, stimulus)

    initial = sorted((comp.in_port_net[p], int(l)) for p, l in stimulus.initial.items())
    ev = sorted(
        ((_ticks(t), comp.in_port_net[p], int(l), p) for t, p, l in stimulus.events),
        key=lambda e: (e[0], e[1]),
    )
    max_events = _MAX_EVENTS_PER_NET * (comp.n_nets + len(ev) + 1)
    origin, n_settle, records, cur = _kernel._run_single(
        comp, initial, [e[:3] for e in ev], stimulus.duration_ps, SETTLE_GAP_TICKS, max_events)

    columns = list(zip(*records)) or [()] * 5
    times, nets, levels, energies, srcs = (
        np.array(col, dtype) for col, dtype in
        zip(columns, (np.int64, np.int64, np.int64, np.float64, np.int64)))
    return Trace(
        circuit=circuit,
        times=times,
        nets=nets,
        levels=levels,
        energies=energies,
        srcs=srcs,
        origin_ticks=origin,
        n_settle=n_settle,
        duration_ticks=_ticks(stimulus.duration_ps),
        stim_events=tuple((tick + origin, port, Level(lvl)) for tick, _, lvl, port in ev),
        final_levels=np.array(cur, np.int64),
        compiled=comp,
    )


def settle_matrix(circuit: Circuit, in_ports, vectors, out_ports=None) -> np.ndarray:
    """Low-overhead batch settle: ``vectors[r, i]`` is the level driven on
    ``in_ports[i]``; returns an int64 matrix aligned to ``out_ports``
    (all outputs, sorted, when omitted). This is the hot path for
    exhaustive and random functional verification.

    The settle is one levelized pass, vectorized over the gates of a level
    and over the rows (see :func:`_kernel.settle_batch`); it gives the final
    levels :func:`simulate` reaches after its settle phase: every gate at
    its truth-table entry for its settled inputs, with X where no input
    combination decides it."""
    comp = compile_circuit(circuit)
    in_ports = list(in_ports)
    if set(in_ports) != set(comp.in_port_net) or len(in_ports) != len(comp.in_port_net):
        raise StimulusError(
            f"in_ports must cover exactly the input ports {sorted(comp.in_port_net)}"
        )
    vectors = np.ascontiguousarray(vectors, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[1] != len(in_ports):
        raise StimulusError("vectors must be (n_vectors, n_input_ports)")
    radix = np.array([comp.port_encoding[p].radix for p in in_ports], np.uint64)
    # as uint64 a negative level is huge, so one comparison checks both ends
    bad = np.flatnonzero(vectors.view(np.uint64).max(axis=0, initial=0) >= radix)
    if len(bad):
        raise StimulusError(f"{in_ports[bad[0]]}: levels outside {radix[bad[0]]}-level encoding")

    in_nets = np.array([comp.in_port_net[p] for p in in_ports], np.int64)
    if out_ports is None:
        out_ports = sorted(comp.out_port_net)
    out_nets = np.array([comp.out_port_net[p] for p in out_ports], np.int64)
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
    events = [t for t, p, _ in trace.stim_events if p == src_port]
    if src_event_index < 0 or src_event_index >= len(events):
        raise DomainError(f"{src_port!r} has {len(events)} stimulus events; "
                          f"index {src_event_index}")
    return _step_delays(trace, dst_port)[events[src_event_index]]


def step_response_delays(trace: Trace, dst_port: str) -> list:
    """Per stimulus step (grouped by event time): (time_ps, delay_ps|None)
    to the last caused transition on ``dst_port``."""
    return [((t_src - trace.origin_ticks) * TICK_PS, d)
            for t_src, d in _step_delays(trace, dst_port).items()]


def _step_delays(trace: Trace, dst_port: str) -> dict:
    """{step tick: delay (ps)} to the net's last transition after the step, up
    to the next step or the window's end; None when the net does not move."""
    steps = sorted({t for t, _, _ in trace.stim_events})
    times = trace.times[trace.nets == trace.net_index(dst_port)]  # in time order
    ends = [*steps[1:], trace.origin_ticks + trace.duration_ticks]
    lo, hi = (np.searchsorted(times, x, side="right") for x in (steps, ends))
    return {t: float((times[h - 1] - t) * TICK_PS) if h > l else None
            for t, l, h in zip(steps, lo.tolist(), hi.tolist())}


def measure_power(trace: Trace, window: tuple) -> float:
    """Average power (W) over a window given in measurement-frame ps.

    Only gate-driven transitions count; the window [w0, w1) excludes the
    settle phase by construction (measurement time 0 = stimulus origin).
    """
    w0, w1 = window
    if not (0 <= w0 < w1 <= trace.duration_ticks * TICK_PS):
        raise DomainError(f"window {window} empty or outside the trace")
    t0 = trace.origin_ticks + _ticks(w0)
    t1 = trace.origin_ticks + _ticks(w1)
    mask = (trace.srcs == 0) & (trace.times >= t0) & (trace.times < t1)
    energy = float(trace.energies[mask].sum())
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
    combination that sensitizes the carry path end to end. Two-cell binary
    slices get the bit-encoded equivalents.
    """
    kind = kind.lower()
    L = Level
    if target not in ("input_to_carry", "carry_to_carry"):
        raise DomainError(f"unknown stimulus target {target!r}")
    if kind not in CELL_KINDS:
        raise DomainError(f"unknown cell kind {kind!r}")
    quaternary, bit_slice = kind.startswith("qfa"), kind.endswith("x2")

    if target == "carry_to_carry":
        if quaternary:
            initial = {"A": L.L2, "B": L.L1}
        elif bit_slice:
            initial = {"A0": L.L0, "A1": L.L1, "B0": L.L1, "B1": L.L0}
        else:
            initial = {"A": L.L0, "B": L.L1}
        return Stimulus(initial={**initial, "Cin": L.L0},
                        events=((step_ps, "Cin", L.L1), (2 * step_ps, "Cin", L.L0)),
                        duration_ps=3 * step_ps)

    seq = (1, 0, 1, 0, 1, 0) if kind in ("bfa1", "bfa2") else (1, 2, 3, 2, 1, 0)
    if bit_slice:
        initial = {"A0": L.L0, "A1": L.L0, "B0": L.L1, "B1": L.L1}
        events, prev = [], (0, 0)
        for i, d in enumerate(seq):
            bits = (d & 1, d >> 1 & 1)
            events += [(step_ps * (i + 1), f"A{j}", L(bits[j])) for j in (0, 1) if bits[j] != prev[j]]
            prev = bits
    else:
        initial = {"A": L.L0, "B": L.L3 if quaternary else L.L1}
        events = [(step_ps * (i + 1), "A", L(v)) for i, v in enumerate(seq)]
    return Stimulus(initial={**initial, "Cin": L.L0}, events=tuple(events),
                    duration_ps=step_ps * (len(seq) + 1))
