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
over the gates of a level and kind and over input vectors, on the only
table arrays, built from those tuples at its first use; a gate with one
input pin rides along as extra rows of the step that sets its input, read
from a composed table (:attr:`CompiledCircuit.settle_plan`). The net
indices of every pin, the fan-out, the gate order and the logic levels
come from the one pass of :func:`netlist._analyse`, which each circuit
runs at most once.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property

import numpy as np

from .gates import _CODES, KIND_SPECS, kind_table, propagation_delay
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
    ``net_cap`` (its list, shared), the Kahn order ``topo_order`` (every
    gate after the drivers of its inputs) and ``gate_level``. Compiling adds
    the output delays in ticks, the initial levels ``net_init`` and table
    rows ``gate_row`` (which the event loop copies), the net rails, the gates
    the constants alone decide, and ``max_ticks``, the longest gate delay or
    stimulus window that keeps every tick in int64."""

    def __init__(self, circuit):
        a = _analysed(circuit)
        if a.diags:
            raise DomainError(f"circuit invalid: {a.diags}")
        (self.net_index, cap, self.gate_in, self.gate_out, self.fanout, self.topo_order,
         self.gate_level) = a[1:8]
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
                if delay is None:
                    delay_s = propagation_delay(prim, cap[o])
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
        self.port_plans: dict = {}  # engine.settle_matrix's checked port lists and their arrays

    @cached_property
    def event_plan(self) -> list:
        """Per gate: (output net, its table tuple, delay in ticks) per output."""
        return [tuple(zip(outs, kind_table(kind), delays))
                for outs, kind, delays in zip(self.gate_out, self.gate_kind, self.gate_delay)]

    @cached_property
    def settle_plan(self) -> list:
        """Steps for :func:`settle_batch` in level order, one table gather each:
        (input nets (hosts, k), or (hosts,) for one pin; the k table index
        weights; output codes (rows, 5 ** k); output nets (rows, hosts)).

        A gate with one input pin rides on the step that sets its input
        net, unless that net's driver rides itself: its outputs are extra
        rows of that step, read from the composed table: each rider output's
        tuple at the host output's level + 1. Exact, since both engines
        take a gate's table entry at its inputs' settled codes, X included.
        The other gates are hosts, one step per logic level and kind, and
        every host of a step gets the extra rows of all its riders; a host
        without a rider for a row writes it to the scratch net ``n_nets``.
        Riders on an input port or a constant form level-0 steps, one per
        multiset of rider kinds, indexed by the net's own code."""
        driver = {o: g for g, outs in enumerate(self.gate_out) for o in outs}
        riders: dict = {}  # per net: the gates riding on it
        rides = set()
        for g in self.topo_order:
            if len(self.gate_in[g]) == 1 and driver.get(self.gate_in[g][0]) not in rides:
                rides.add(g)
                riders.setdefault(self.gate_in[g][0], []).append(g)
        kind = self.gate_kind
        groups: dict = {}  # (level, gate kind or rider kinds) -> host gates or nets
        for n, gs in riders.items():
            if n not in driver:
                groups.setdefault((0, tuple(sorted(kind[g] for g in gs))), []).append(n)
        for g in self.topo_order:
            if g not in rides:
                groups.setdefault((self.gate_level[g], kind[g]), []).append(g)

        identity = (tuple(range(LVL_X, 4)),)  # a net host's level at each of its codes
        plan = []
        for (level, key), hosts in sorted(groups.items(), key=lambda kv: kv[0][0]):
            if level == 0:  # hosts are nets, which set no rows of their own
                ins, weights, table = [[n] for n in hosts], (1,), identity
                own, codes = [[] for _ in hosts], []
            else:
                ins, weights = [self.gate_in[g] for g in hosts], KIND_SPECS[key].weights
                own = [self.gate_out[g] for g in hosts]
                table = kind_table(key)
                codes = list(table)
            # per host, its riders as (host output, rider kind, rider), sorted
            carried = [sorted((k, kind[r], r) for k, o in enumerate(outs)
                              for r in riders.get(o, ()))
                       for outs in (ins if level == 0 else own)]
            need = Counter()  # (host output, rider kind) slots: the most any host fills
            for rs in carried:
                need |= Counter(r[:2] for r in rs)
            slots = sorted(need.elements())
            for k, rk in slots:
                codes += [[col[lvl + 1] for lvl in table[k]] for col in kind_table(rk)]
            outs = []
            for row, rs in zip(own, carried):  # rs fills the slots of its keys, in order
                row = list(row)
                for k, rk in slots:
                    if rs and rs[0][:2] == (k, rk):
                        row += self.gate_out[rs.pop(0)[2]]
                    else:
                        row += [self.n_nets] * len(KIND_SPECS[rk].outputs)
                outs.append(row)
            ins = np.array(ins, np.intp)
            plan.append((ins[:, 0] if len(weights) == 1 else ins, np.array(weights, CODE),
                         (np.array(codes) + 1).astype(CODE), np.array(outs, np.intp).T))
        return plan

    @cached_property
    def settle_init(self) -> np.ndarray:
        """:func:`settle_batch`'s initial codes: per net, then the scratch net."""
        return (np.append(self.net_init, LVL_X) + 1).astype(CODE)[:, None]


def compile_circuit(circuit) -> CompiledCircuit:
    """Compile (see :class:`CompiledCircuit`) once; the circuit keeps it."""
    if circuit._compiled is None:
        object.__setattr__(circuit, "_compiled", CompiledCircuit(circuit))
    return circuit._compiled


# --------------------------------------------------------------------------
# Levelized batch settle. Levels are held as codes, level + 1 (X is 0), in
# CODE, the one signed dtype of codes, weights and step tables; it holds the
# widest kind table's last row index (a mux4's 3124), so no index is cast.

CODE = np.min_scalar_type(-max(_CODES ** len(s.inputs) for s in KIND_SPECS.values()))
_BLOCK_ROWS = 1024  # vectors settled together; bounds working memory


def settle_batch(comp: CompiledCircuit, in_nets, vectors, out_nets) -> np.ndarray:
    """Settled levels on ``out_nets`` (int64, -1 for X), one row per row of
    ``vectors``, whose columns are the levels driven on ``in_nets``.

    One pass over :attr:`CompiledCircuit.settle_plan`, level by level; each
    step is one table gather for a group of gates over a block of vectors,
    its riders' rows included. The codes hold one more row than the nets,
    the scratch net that takes the rows a host has no rider for. No host
    feeds another of its step and a rider reads its host through the
    composed table, so every gate ends at its table entry for its final
    inputs. That is the event loop's quiescent state
    for an acyclic circuit: in its settle every net leaves X at most once
    (resolving an X input never changes a decided entry of a kind table),
    and the gates it never evaluates are those whose table entry at the
    constants and X is X on every output.
    """
    plan, init = comp.settle_plan, comp.settle_init
    out = np.empty((len(vectors), len(out_nets)), np.int64)
    for r0 in range(0, len(vectors), _BLOCK_ROWS):
        block = vectors[r0: r0 + _BLOCK_ROWS]
        codes = np.repeat(init, len(block), axis=1)
        codes[in_nets] = block.T + 1
        for ins, weights, table, outs in plan:  # take(): codes[ins], (hosts, k, vectors)
            idx = codes.take(ins, axis=0)
            codes[outs] = table.take(idx if ins.ndim == 1 else weights @ idx, axis=1)
        out[r0: r0 + len(block)] = codes.take(out_nets, axis=0).T
    out -= 1
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
