"""Flattened-circuit representation, the event-loop kernel and the
levelized batch settle.

Both engines evaluate gates by table lookup. :func:`gates.kind_table`
tabulates :func:`gates.eval_primitive`, the one definition of gate logic,
as one tuple per output; a gate's row in it is the sum of its input codes
(level + 1, so X is 0) times its kind's :attr:`gates.KindSpec.weights`.

Both engines settle by one rule: every net starts at X except the
constants, and a gate's outputs are its table entries at its inputs. The
event loop (:func:`_run_single`) is plain Python over the compiled lists,
read as they are, with a ``heapq`` event queue and one output plan per gate
(net, table tuple, delay; :attr:`CompiledCircuit.event_plan`). It starts
by evaluating the gates the constants alone decide, then applies the input
levels at t = 0, and raises :class:`UnsettledOutputError` or
:class:`SimulationTimeoutError` where it finds the failure. The batch
settle (:func:`settle_batch`) is one levelized pass, vectorized with numpy
over input vectors: each step is one gather from a table composed from the
kind tables of a unit of gates, over its pins' codes, for every unit of one
form (:attr:`CompiledCircuit.settle_plan`), written in place to the step's
own rows of the codes. The net indices of every pin,
the fan-out and the gate order come from the one pass of
:func:`netlist._analyse`, which each circuit runs at most once.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property, lru_cache

import numpy as np

from .gates import KIND_SPECS, kind_table, propagation_delay
from .levels import DomainError
from .netlist import _analysed

#: Event-time quantum: one tick is 0.1 ps. All delays are integer ticks,
#: which keeps event ordering exact and runs deterministic.
TICK_PS = 0.1
TICKS_PER_PS = 10

LVL_X = -1
_END = float("inf")  # event key of an exhausted input stream, above every real key


class SimulationTimeoutError(RuntimeError):
    """Circuit failed to reach quiescence within the stimulus duration."""


class UnsettledOutputError(RuntimeError):
    """An output port was still X after the settle phase."""


def _ticks(ps: float) -> int:
    return int(round(ps * TICKS_PER_PS))


class CompiledCircuit:
    """A circuit as lists per net and gate; ``DomainError`` names an invalid one's diagnostics.

    The circuit's one pass of :func:`netlist._analyse` gives the integer graph
    (``net_index``, ``gate_in``, ``gate_out`` and ``fanout``, whose weights
    step a gate's table row when an input changes), each net's load
    ``net_cap`` (its list, shared) and the Kahn order ``topo_order`` (every
    gate after the drivers of its inputs). Compiling adds the output delays
    in ticks, the initial levels ``net_init`` and table rows ``gate_row``
    (which the event loop copies), the net rails, the gates the constants
    alone decide, and ``max_ticks``, the longest gate delay or stimulus
    window that keeps every tick in int64. ``port_plan`` is the one slot in
    which :func:`engine.settle_matrix` keeps its last checked port lists."""

    def __init__(self, circuit):
        a = _analysed(circuit)
        if a.diags:
            raise DomainError(f"circuit invalid: {a.diags}")
        self.net_index, cap, self.gate_in, self.gate_out, self.fanout, self.topo_order = a[1:7]
        nets = list(circuit.nets.values())
        self.net_ids = list(circuit.nets)
        n = self.n_nets = len(nets)
        self.net_cap = cap  # shared with the analysis, never mutated
        const = {i: net.driver[1] for i, net in enumerate(nets) if net.driver}
        init = self.net_init = [LVL_X] * n
        for i, lvl in const.items():
            init[i] = lvl
        # per net: its level voltages padded to four levels, then 0 V for X
        # (index -1); the nets of one encoding object share one tuple, padded
        # once (keyed by id(): the circuit keeps every encoding alive)
        rails: dict = {}
        self.net_rail = [rails.get(id(e)) or rails.setdefault(
                             id(e), tuple(e.level_voltages) + (0.0,) * (5 - e.radix))
                         for e in [net.encoding for net in nets]]

        insts = list(circuit.instances.values())
        self.gate_ids = list(circuit.instances)
        kinds = self.gate_kind = [inst.primitive.kind for inst in insts]
        self.gate_delay = []  # per gate: its output delays in ticks
        ticks: dict = {}  # (id(primitive), output load) -> delay in ticks
        # the int64 tick budget: a gate delay or a stimulus window is at most
        # max_ticks; no path has more than n gates, so the settle phase ends
        # within 2**61 ticks and the window within 2**62
        max_ticks = self.max_ticks = 2 ** 62 // max(2, 2 * n)
        for inst, outs in zip(insts, self.gate_out):
            prim = inst.primitive
            delays = []
            for o in outs:
                delay = ticks.get((id(prim), cap[o]))
                if delay is None:  # a load summed past float range delays without end
                    delay_s = propagation_delay(prim, cap[o]) if cap[o] < math.inf else math.inf
                    delay = delay_s / (TICK_PS * 1e-12)
                    if not 0 <= delay <= max_ticks:  # NaN fails too
                        pin = KIND_SPECS[prim.kind].outputs[outs.index(o)]
                        raise DomainError(f"{inst.id}.{pin}: gate delay {delay_s!r} s is not a "
                                          f"finite number of ticks up to {max_ticks}")
                    # floor at one tick: zero-delay events would break the
                    # one-transition-per-net-per-tick invariant
                    delay = ticks[id(prim), cap[o]] = max(1, round(delay))
                delays.append(delay)
            self.gate_delay.append(tuple(delays))

        # per gate: its row of its kind's table at the initial levels; only
        # the constants' codes (level + 1) are not 0, and a row of X inputs
        # is X on every output, so the constants alone decide only gates
        # they feed; the event loop evaluates those before anything else
        row = [0] * len(insts)
        for i, lvl in const.items():
            for g, w in self.fanout[i]:
                row[g] += w * (lvl + 1)
        self.gate_row = row
        self.const_gates = sorted({g for i in const for g, _ in self.fanout[i]
                                   if any(c[row[g]] != LVL_X for c in kind_table(kinds[g]))})

        self.in_port_net = {p.name: self.net_index[p.net] for p in circuit.input_ports()}
        self.out_port_net = {p.name: self.net_index[p.net] for p in circuit.output_ports()}
        self.port_encoding = {p.name: p.encoding for p in circuit.ports.values()}
        self.port_plan = None  # (key, plan), from engine._port_plan

    @cached_property
    def event_plan(self) -> list:
        """Per gate: (output net, its table tuple, delay in ticks) per output."""
        tables = {kind: kind_table(kind) for kind in set(self.gate_kind)}
        return [tuple(zip(outs, tables[kind], delays))
                for outs, kind, delays in zip(self.gate_out, self.gate_kind, self.gate_delay)]

    @cached_property
    def _settle(self) -> tuple:
        """The steps for :func:`settle_batch` in level order, one table gather
        each: (pin rows (units, k), or (units,) for one pin; the k table index
        weights; output codes (outputs, rows); output rows (outputs, units));
        each net's row: each step's outputs, outputs-major, follow the
        previous step's, then come the nets no step writes in net order (the
        tail: ports, constants and what they alone drive, undriven nets); and
        the tail's codes.

        Gates settle in units, each read from one table over its pins' codes
        in mixed radix, first pin most significant. A net's width is the
        number of codes it can hold: an input port's radix + 1, a gate
        output's 1 + its kind table's highest code over its inputs' code
        ranges; constants, and so the gates the constants alone feed, are
        folded into the tables. In topological order, a gate joins a unit
        that writes or reads as a pin one of its inputs, if each other input
        is a pin or output of that unit, a constant, or set at an earlier
        step (a port, or an output of a lower-level unit), and the unit's
        rows stay within ``_ROWS`` (3**9, four carry digits). Else it starts
        a unit one level above those writing its pins (0 if all are ports); a
        gate feeding no gate joins only a unit it adds no pin to, else it
        settles at the last level. The units of one level and form (pin
        widths, gate kinds, input sources) share a step, and every step of a
        form shares one read-only table tabulated from the kind tables
        (:func:`_step_table`). Exact, since both engines take a gate's table
        entry at its inputs' settled codes, X included."""
        kind, gate_in, gate_out = self.gate_kind, self.gate_in, self.gate_out
        const = self.net_init.copy()  # per net not set by a step: its level
        width = {n: self.port_encoding[p].radix + 1 for p, n in self.in_port_net.items()}
        at = dict.fromkeys(width, -1)  # per net a step sets: its level, -1 for a port
        near: dict = {}  # per net: the units writing it or reading it as a pin
        units, last = [], []  # [level, pins, gates, rows]; (gate, pins) settled last

        def add(u, g, new):  # gate g and its pins not yet in unit u join it
            unit = units[u]
            unit[1] += new
            unit[2].append(g)
            for n in new:
                unit[3] *= width[n]
                near.setdefault(n, []).append(u)
            spans = tuple(range(width[n]) if n in at else range(const[n] + 1, const[n] + 2)
                          for n in gate_in[g])
            for o, w in zip(gate_out[g], _widths(kind[g], spans)):
                width[o], at[o], near[o] = w, unit[0], [u]

        for g in self.topo_order:
            ins = [n for n in dict.fromkeys(gate_in[g]) if n in at]  # its pins: no constants
            if not ins:  # the constants alone feed it: its outputs are constants too
                for o, c in zip(gate_out[g], _codes(kind[g], [const[n] + 1 for n in gate_in[g]])):
                    const[o] = int(c) - 1
                continue
            sink = not any(self.fanout[o] for o in gate_out[g])
            for u in dict.fromkeys(u for n in ins for u in near.get(n, ())):
                level, _, _, rows = units[u]
                new = [n for n in ins if u not in near.get(n, ())]
                for n in new:
                    rows *= width[n]
                if rows <= _ROWS and not (sink and new) and all(at[n] < level for n in new):
                    break
            else:
                if sink:
                    last.append((g, ins))
                    continue
                u, new = len(units), ins
                units.append([1 + max([at[n] for n in ins], default=-1), [], [], 1])
            add(u, g, new)
        top = 1 + max([unit[0] for unit in units], default=-1)
        for g, ins in last:
            units.append([top, [], [], 1])
            add(len(units) - 1, g, ins)

        steps: dict = {}  # (level, form) -> per unit: (pins, output nets)
        for level, pins, gates, _ in units:
            outs = [o for g in gates for o in gate_out[g]]
            src = {n: j for j, n in enumerate(pins + outs)}  # a constant's source is (level,)
            form = (tuple(width[n] for n in pins),
                    tuple((kind[g], tuple(src.get(n, (const[n],)) for n in gate_in[g]))
                          for g in gates))
            steps.setdefault((level, form), []).append((pins, outs))
        plan = []
        for ((_, form), members) in sorted(steps.items(), key=lambda kv: kv[0][0]):
            table = _step_table(form)
            weights = table.shape[1] // np.cumprod(form[0], dtype=np.intp)  # mixed radix
            ins = np.array([m[0] for m in members], np.intp)
            plan.append((ins[:, 0] if len(weights) == 1 else ins, np.array(weights, CODE),
                         table, np.array([m[1] for m in members], np.intp).T))
        order = [o for *_, outs in plan for o in outs.ravel().tolist()]  # the written nets
        tail = sorted(set(range(self.n_nets)).difference(order))
        row = np.argsort(order + tail)  # per net, its row
        return ([(row[ins], weights, table, row[outs]) for ins, weights, table, outs in plan],
                row, (np.array([const[n] for n in tail]) + 1).astype(CODE)[:, None])

    settle_plan = property(lambda self: self._settle[0], doc="The steps; see :attr:`_settle`.")
    settle_row = property(lambda self: self._settle[1], doc="Per net, its row of the codes.")
    settle_init = property(lambda self: self._settle[2], doc="The tail rows' initial codes.")


def compile_circuit(circuit) -> CompiledCircuit:
    """Compile (see :class:`CompiledCircuit`) once; the circuit keeps it."""
    if circuit._compiled is None:
        object.__setattr__(circuit, "_compiled", CompiledCircuit(circuit))
    return circuit._compiled


# --------------------------------------------------------------------------
# Levelized batch settle. Levels are held as codes, level + 1 (X is 0), in
# CODE, the one signed dtype of codes, weights and step tables; it holds the
# last row index of the widest step table, _ROWS - 1, so no index is cast.
# _ROWS fits four carry digits (a carry in and two three-code nets each) and
# is above every kind table's rows (a mux4's 3125), so each gate fits a unit.

_ROWS = 3 ** 9
CODE = np.min_scalar_type(-_ROWS)
_BLOCK_ROWS = 1024  # vectors settled together; bounds working memory


@lru_cache(maxsize=64)
def _step_table(form: tuple) -> np.ndarray:
    """The read-only table of a step of ``form`` (see :attr:`CompiledCircuit._settle`):
    per output of its gates, its code at each row of its pins' codes. One
    table per form, shared by every step and circuit of that form."""
    widths, gates = form
    codes = list(np.ix_(*map(np.arange, widths)))  # per source: pins, then outputs
    for kind, src in gates:
        codes += _codes(kind, [codes[j] if type(j) is int else j[0] + 1 for j in src])
    table = np.array([np.broadcast_to(c, widths).ravel() for c in codes[len(widths):]], CODE)
    table.flags.writeable = False
    return table


def _codes(kind: str, ins) -> list:
    """Per output of gate ``kind``, its codes at input codes ``ins`` (ints or arrays)."""
    row = sum(c * w for c, w in zip(ins, KIND_SPECS[kind].weights))
    return [np.array(col, CODE)[row] + 1 for col in kind_table(kind)]


@lru_cache(maxsize=256)
def _widths(kind: str, spans: tuple) -> tuple:
    """Per output of gate ``kind``, 1 + its highest code at input codes in ``spans`` (ranges)."""
    mesh = np.ix_(*(np.arange(s.start, s.stop) for s in spans))
    return tuple(int(c.max()) + 1 for c in _codes(kind, mesh))


def settle_batch(comp: CompiledCircuit, in_nets, vectors, out_nets) -> np.ndarray:
    """Settled levels on ``out_nets`` (int64, -1 for X), one row per row of
    ``vectors``, an integer matrix whose columns are the levels driven on
    ``in_nets``, input port nets: within each port's radix or -1, as
    :func:`engine.settle_matrix` checks, so every code is below its net's width.

    One pass over :attr:`CompiledCircuit.settle_plan`, level by level; each
    step is one table gather for a group of units over a block of vectors,
    written in place to the step's rows. A unit reads only rows set at
    earlier steps or in the tail, and its table evaluates its gates in
    order, so every gate ends at its table entry for its final inputs.
    That is the event loop's quiescent state
    for an acyclic circuit: in its settle every net leaves X at most once
    (resolving an X input never changes a decided entry of a kind table),
    and the gates it never evaluates are those whose table entry at the
    constants and X is X on every output.
    """
    plan, net_row, init = comp._settle
    in_rows, out_rows = net_row[in_nets], net_row[out_nets]
    out = np.empty((len(vectors), len(out_rows)), np.int64)
    for r0 in range(0, len(vectors), _BLOCK_ROWS):
        block = vectors[r0: r0 + _BLOCK_ROWS]
        codes = np.empty((comp.n_nets, len(block)), CODE)
        codes[comp.n_nets - len(init):] = init  # the tail
        codes[in_rows] = block.T + 1
        row = 0
        for ins, weights, table, outs in plan:  # take(): codes[ins], (units, k, vectors)
            idx = codes.take(ins, axis=0)
            idx = idx if ins.ndim == 1 else weights @ idx
            slab, row = codes[row: row + outs.size], row + outs.size
            table.take(idx, axis=1, out=slab.reshape(len(table), *idx.shape))
        np.subtract(codes.take(out_rows, axis=0).T, 1, out=out[r0: r0 + len(block)])
    return out


# --------------------------------------------------------------------------
# Event loop


def _timeout(why: str, comp: CompiledCircuit, pend_t: list, t: int) -> SimulationTimeoutError:
    """The error for an event loop stopped at tick ``t``, naming its
    pending nets (``pend_t``: per net, the tick of its pending event or -1)."""
    nets = [comp.net_ids[n] for n, p in enumerate(pend_t) if p >= 0]
    return SimulationTimeoutError(f"{why}; {len(nets)} nets still pending at tick {t}: {nets[:8]}")


def _run_single(comp: CompiledCircuit, initial, stimulus, duration_ps: float,
                gap_ticks: int, max_events: int) -> tuple:
    """Settle from the initial assignment, then play the stimulus.

    ``initial`` is [(net, level)] sorted by net, applied at t = 0;
    ``stimulus`` is [(tick, net, level)] sorted by (tick, net), with ticks
    counted from the origin. Returns (origin_ticks, n_settle, records,
    cur): ``records`` is [(tick, net, level, energy, src)] and ``cur`` the
    final level per net. Raises :class:`UnsettledOutputError` when an
    output port is X after the settle phase, and
    :class:`SimulationTimeoutError` when an event falls after the
    measurement window of ``duration_ps`` or the events outnumber
    ``max_events``.

    The queue holds keys tick * n_nets + net. Each phase merges a stream of
    input events with it on that key, the stream first on a tie, so
    simultaneous events are processed in net order. The settle phase
    starts by scheduling the gates the constants alone decide; its stream
    is the initial assignment at t = 0, ahead of every gate event since
    delays are at least one tick. The measurement phase's stream is the
    stimulus, offset to the origin.

    Inertial behavior: per output in the plan of a gate an event fans out
    to (net, table column and delay; :attr:`CompiledCircuit.event_plan`), a
    pending event is kept if the target read from the column agrees,
    cancelled if the target reverted to the net's current level (pulse
    absorbed), and replaced otherwise. Cancelled and replaced entries stay
    queued and are skipped when popped.
    """
    n_nets = comp.n_nets
    plan, fanout = comp.event_plan, comp.fanout
    cap, volt = comp.net_cap, comp.net_rail
    cur = comp.net_init.copy()
    row = comp.gate_row.copy()
    pend_t = [-1] * n_nets
    pend_v = [0] * n_nets
    heap: list = []
    records: list = []
    push, pop, record = heapq.heappush, heapq.heappop, records.append
    for g in comp.const_gates:  # outputs are all X, nothing is pending
        for o, col, d in plan[g]:
            if (target := col[row[g]]) != LVL_X:
                pend_t[o], pend_v[o] = d, target
                push(heap, d * n_nets + o)

    events = origin = n_settle = t = 0
    t_end = _END
    stream = [(0, net, lvl) for net, lvl in initial]
    for phase in (0, 1):
        keys = [tick * n_nets + net for tick, net, _ in stream] + [_END]
        si = 0
        while True:
            if heap and heap[0] < keys[si]:
                t, net = divmod(pop(heap), n_nets)
                if pend_t[net] != t:
                    continue  # cancelled or replaced
                if t > t_end:
                    raise _timeout(f"circuit not quiescent within duration ({duration_ps} ps)",
                                   comp, pend_t, t)
                lvl = pend_v[net]
                pend_t[net] = -1
                events += 1
                if events > max_events:
                    raise _timeout("event budget exceeded; circuit appears unstable",
                                   comp, pend_t, t)
                vf, vt = volt[net][cur[net]], volt[net][lvl]
                record((t, net, lvl, 0.5 * cap[net] * (vt - vf) * (vt - vf), 0))
            elif si < len(stream):
                t, net, lvl = stream[si]
                si += 1
                if lvl == cur[net]:
                    continue
                record((t, net, lvl, 0.0, 1))
            else:
                break
            delta = lvl - cur[net]
            cur[net] = lvl
            for g, w in fanout[net]:
                r = row[g] = row[g] + delta * w
                for o, col, d in plan[g]:
                    target = col[r]
                    if pend_t[o] >= 0:
                        if target == pend_v[o]:
                            continue
                        pend_t[o] = -1
                    if target != cur[o]:
                        pend_t[o], pend_v[o] = t + d, target
                        push(heap, (t + d) * n_nets + o)
        if phase == 0:
            x_ports = [p for p, o in sorted(comp.out_port_net.items()) if cur[o] == LVL_X]
            if x_ports:
                raise UnsettledOutputError(
                    f"outputs {x_ports} still X at the end of the settle phase")
            origin = (records[-1][0] if records else 0) + gap_ticks
            n_settle = len(records)
            stream = [(tick + origin, net, lvl) for tick, net, lvl in stimulus]
            t_end = origin + _ticks(duration_ps)
    return origin, n_settle, records, cur
