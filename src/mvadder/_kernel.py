"""Flattened-circuit representation, the event-loop kernel and the
levelized batch settle.

Both engines evaluate gates by table lookup. :func:`kind_table` tabulates
:func:`gates.eval_primitive`, the one definition of gate logic, over every
combination of input levels; a gate's row in it is the base-5 number
formed by its input codes (level + 1, so X is 0).

Both engines settle by one rule: every net starts at X except the
constants, and a gate's outputs are its table entries at its inputs. The
event loop (:func:`_run_single`) is plain Python over lists with a
``heapq`` event queue; it starts by evaluating the gates the constants
alone decide, then applies the input levels at t = 0. The batch settle
(:func:`settle_batch`) is one levelized pass, vectorized over the gates of
a level and over input vectors with numpy. The net indices of every pin,
the fan-out, the gate order and the logic levels come from the one pass
of :func:`netlist._analyse`, which each circuit runs at most once.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property, lru_cache

import numpy as np

from .gates import KINDS, eval_primitive, input_pins, output_pins, propagation_delay
from .levels import DomainError
from .netlist import _CODES, _analysed

#: Event-time quantum: one tick is 0.1 ps. All delays are integer ticks,
#: which keeps event ordering exact and runs deterministic.
TICK_PS = 0.1
TICKS_PER_PS = 10

# Status codes returned by the event kernel.
OK = 0
ERR_EVENT_CAP = 1
ERR_TIMEOUT = 2
ERR_UNSETTLED = 3

LVL_X = -1
_END = float("inf")  # event key of an exhausted input stream, above every real key


@lru_cache(maxsize=None)
def kind_table(kind: str) -> np.ndarray:
    """Output levels (-1 for X) of gate ``kind``, shape (5 ** inputs, 2),
    for every combination of input levels. The base-5 digits of a row
    number are the input codes, level + 1, first input pin most
    significant; single-output kinds leave column 1 at X. Tabulated from
    :func:`gates.eval_primitive` on first use. Inputs outside a gate's
    domain (``DomainError``, e.g. ``inv`` on L2) give X on every output."""
    n_in = len(input_pins(kind))
    table = np.full((_CODES ** n_in, 2), LVL_X, np.int64)
    for r, levels in enumerate(itertools.product(range(LVL_X, _CODES - 1), repeat=n_in)):
        try:
            outs = eval_primitive(kind, levels)
        except DomainError:
            continue
        table[r, : len(outs)] = outs
    return table


@lru_cache(maxsize=None)
def gate_tables() -> tuple:
    """The kind tables of every kind in ``KINDS`` stacked in one array, and
    each kind's first row in it."""
    table = np.concatenate([kind_table(kind) for kind in KINDS])
    sizes = [_CODES ** len(input_pins(kind)) for kind in KINDS]
    return table, dict(zip(KINDS, np.cumsum([0] + sizes).tolist()))


class CompiledCircuit:
    """Kernel array form of a circuit; ``DomainError`` names an invalid one's diagnostics.

    The circuit's one pass of :func:`netlist._analyse` gives the integer graph
    (``net_index``, ``gate_in``, ``gate_out`` and ``fanout``, whose weights
    step a gate's table row when an input changes), each net's load
    ``net_cap``, the Kahn order ``topo_order`` (gate indices, every gate
    after the drivers of its inputs) and ``gate_level``. Compiling adds the
    output delays in ticks, each gate's table row at the initial levels,
    the net rails, and the gates the constants alone decide."""

    def __init__(self, circuit):
        a = _analysed(circuit)
        if a.diags:
            raise DomainError(f"circuit invalid: {a.diags}")
        (self.net_index, cap, self.gate_in, self.gate_out, self.fanout, self.topo_order,
         self.gate_level) = a[1:8]
        nets = list(circuit.nets.values())
        self.net_ids = list(circuit.nets)
        n = self.n_nets = len(nets)
        self.net_cap = np.array(cap, np.float64)
        const = {i: net.driver[1] for i, net in enumerate(nets) if net.driver}
        self.net_init = np.full(n, LVL_X, np.int64)
        self.net_init[list(const)] = list(const.values())
        # per net: its level voltages padded to four levels, then 0 V for X
        # (index -1); the nets of one encoding object share one tuple, padded
        # once (keyed by id(): the circuit keeps every encoding alive)
        rails: dict = {}
        self.net_rail = [rails.get(id(e)) or rails.setdefault(
                             id(e), tuple(e.level_voltages) + (0.0,) * (5 - e.radix))
                         for e in [net.encoding for net in nets]]

        insts = list(circuit.instances.values())
        self.gate_ids = list(circuit.instances)
        self.gate_kind = [inst.primitive.kind for inst in insts]
        self.gate_delay = []  # per gate: its output delays in ticks
        ticks: dict = {}  # (id(primitive), output load) -> delay in ticks
        # no path has more than n gates, so the settle phase ends within 2**61
        # ticks; engine._check_stimulus bounds the rest so ticks fit int64
        max_ticks = 2 ** 62 // max(2, 2 * n)
        for inst, outs in zip(insts, self.gate_out):
            prim = inst.primitive
            delays = []
            for o in outs:
                delay = ticks.get((id(prim), cap[o]))
                if delay is None:
                    delay_s = propagation_delay(prim, cap[o])
                    delay = delay_s / (TICK_PS * 1e-12)
                    if not 0 <= delay <= max_ticks:  # NaN fails too
                        pin = prim.output_pins[outs.index(o)]
                        raise DomainError(f"{inst.id}.{pin}: gate delay {delay_s!r} s is not a "
                                          f"finite number of ticks up to {max_ticks}")
                    # floor at one tick: zero-delay events would break the
                    # one-transition-per-net-per-tick invariant
                    delay = ticks[id(prim), cap[o]] = max(1, round(delay))
                delays.append(delay)
            self.gate_delay.append(tuple(delays))

        # per gate: its row of the stacked table at the initial levels; only
        # the constants' codes (level + 1) are not 0
        table, first_row = gate_tables()
        row = [first_row[kind] for kind in self.gate_kind]
        for i, lvl in const.items():
            for g, w in self.fanout[i]:
                row[g] += w * (lvl + 1)
        self.gate_row = np.array(row, np.int64)
        # gates whose outputs the constants alone decide, from one gather;
        # the event loop evaluates them before anything else
        self.const_gates = np.flatnonzero((table[self.gate_row] >= 0).any(axis=1)).tolist()

        self.in_port_net = {p.name: self.net_index[p.net] for p in circuit.input_ports()}
        self.out_port_net = {p.name: self.net_index[p.net] for p in circuit.output_ports()}
        self.port_encoding = {p.name: p.encoding for p in circuit.ports.values()}
        self.port_radix = {p.name: p.encoding.radix for p in circuit.ports.values()}

    @cached_property
    def settle_plan(self) -> list:
        """Steps for :func:`settle_batch` in level order, one per group of
        gates of one kind and one logic level. A step is (input nets
        (k, gates); the k table index weights; the kind's output codes
        (nout, 5 ** k) from :func:`kind_table`; output nets (nout, gates))."""
        groups: dict = {}
        for gi in self.topo_order:
            groups.setdefault((self.gate_level[gi], self.gate_kind[gi]), []).append(gi)
        plan = []
        for (_, kind), gates in sorted(groups.items(), key=lambda kv: kv[0][0]):
            ins = np.array([self.gate_in[gi] for gi in gates], np.int64).T
            outs = np.array([self.gate_out[gi] for gi in gates], np.int64).T
            weights = _CODES ** np.arange(len(ins) - 1, -1, -1)
            codes = (kind_table(kind)[:, : len(output_pins(kind))].T + 1).astype(np.uint8)
            plan.append((ins, weights, codes, outs))
        return plan


def compile_circuit(circuit) -> CompiledCircuit:
    """Compile (see :class:`CompiledCircuit`) once; the circuit keeps it."""
    if circuit._compiled is None:
        object.__setattr__(circuit, "_compiled", CompiledCircuit(circuit))
    return circuit._compiled


# --------------------------------------------------------------------------
# Levelized batch settle. Levels are held as uint8 codes, level + 1: X is
# code 0, so the codes of a gate's inputs index its kind table directly.

_BLOCK_ROWS = 1024  # vectors settled together; bounds working memory


def settle_batch(comp: CompiledCircuit, in_nets, vectors, out_nets) -> np.ndarray:
    """Settled levels on ``out_nets`` (int64, -1 for X), one row per row of
    ``vectors``, whose columns are the levels driven on ``in_nets``.

    One pass over :attr:`CompiledCircuit.settle_plan`, level by level; each
    step is one table gather for a group of gates over a block of vectors.
    No gate feeds another of its level, so every gate ends at its table
    entry for its final inputs. That is the event loop's quiescent state
    for an acyclic circuit: in its settle every net leaves X at most once
    (resolving an X input never changes a decided entry of a kind table),
    and the gates it never evaluates are those whose table entry at the
    constants and X is X on every output.
    """
    plan = comp.settle_plan
    init = (comp.net_init + 1).astype(np.uint8)[:, None]
    out = np.empty((len(vectors), len(out_nets)), np.int64)
    for r0 in range(0, len(vectors), _BLOCK_ROWS):
        block = vectors[r0: r0 + _BLOCK_ROWS]
        codes = np.repeat(init, len(block), axis=1)
        codes[in_nets] = block.T + 1
        for ins, weights, table, outs in plan:
            idx = weights @ codes[ins].reshape(len(ins), -1)
            codes[outs] = table[:, idx].reshape(outs.shape + (len(block),))
        out[r0: r0 + len(block)] = codes[out_nets].T
    out -= 1
    return out


# --------------------------------------------------------------------------
# Event loop


@lru_cache(maxsize=None)
def _table_rows() -> list:
    """The stacked table of :func:`gate_tables` as nested lists."""
    return gate_tables()[0].tolist()


def _run_single(comp: CompiledCircuit, initial, stimulus, duration_ticks: int,
                gap_ticks: int, max_events: int) -> tuple:
    """Settle from the initial assignment, then play the stimulus.

    ``initial`` is [(net, level)] sorted by net, applied at t = 0;
    ``stimulus`` is [(tick, net, level)] sorted by (tick, net), with ticks
    counted from the origin. Returns (status, tick, origin_ticks, n_settle,
    records, cur, pend_t): ``records`` is [(tick, net, level, energy, src)],
    ``cur`` the final level per net, and ``tick`` and ``pend_t`` (per net,
    the tick of its pending event or -1) locate a timeout.

    The queue holds keys tick * n_nets + net. Each phase merges a stream of
    input events with it on that key, the stream first on a tie, so
    simultaneous events are processed in net order. The settle phase
    starts by scheduling the gates the constants alone decide; its stream
    is the initial assignment at t = 0, ahead of every gate event since
    delays are at least one tick. The measurement phase's stream is the
    stimulus, offset to the origin.

    Inertial behavior: a pending event is kept if a gate's recomputed
    target agrees, cancelled if the target reverted to the net's current
    level (pulse absorbed), and replaced otherwise. Cancelled and replaced
    entries stay queued and are skipped when popped.
    """
    n_nets = comp.n_nets
    table = _table_rows()
    gout, gdelay, fanout = comp.gate_out, comp.gate_delay, comp.fanout
    cap, volt = comp.net_cap.tolist(), comp.net_rail
    cur = comp.net_init.tolist()
    row = comp.gate_row.tolist()
    pend_t = [-1] * n_nets
    pend_v = [0] * n_nets
    heap: list = []
    records: list = []
    push, pop, record = heapq.heappush, heapq.heappop, records.append
    for g in comp.const_gates:  # outputs are all X, nothing is pending
        for o, target, d in zip(gout[g], table[row[g]], gdelay[g]):
            if target != LVL_X:
                pend_t[o], pend_v[o] = d, target
                push(heap, d * n_nets + o)

    status = OK
    events = origin = n_settle = t = t_q = 0
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
                    status = ERR_TIMEOUT
                    break
                lvl = pend_v[net]
                pend_t[net] = -1
                events += 1
                if events > max_events:
                    status = ERR_EVENT_CAP
                    break
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
            t_q = t
            for g, w in fanout[net]:
                r = row[g] = row[g] + delta * w
                for o, target, d in zip(gout[g], table[r], gdelay[g]):
                    if pend_t[o] >= 0:
                        if target == pend_v[o]:
                            continue
                        pend_t[o] = -1
                    if target != cur[o]:
                        pend_t[o], pend_v[o] = t + d, target
                        push(heap, (t + d) * n_nets + o)
        if status != OK:
            break
        if phase == 0:
            origin = t_q + gap_ticks
            n_settle = len(records)
            if any(cur[o] == LVL_X for o in comp.out_port_net.values()):
                status = ERR_UNSETTLED
                break
            stream = [(tick + origin, net, lvl) for tick, net, lvl in stimulus]
            t_end = origin + duration_ticks
    return status, t, origin, n_settle, records, cur, pend_t
