"""Flattened-circuit representation, the event-loop kernel and the
levelized batch settle.

Both engines evaluate gates by table lookup. :func:`kind_table` tabulates
:func:`gates.eval_primitive`, the one definition of gate logic, over every
combination of input levels; a gate's row in it is the base-5 number
formed by its input codes (level + 1, so X is 0).

The event loop runs over plain int64/float64 arrays so it can be
JIT-compiled when numba is installed. Set ``MVADDER_DISABLE_NUMBA=1``
before import to run the same code as interpreted Python/numpy; results
are bit-identical in both modes. Batch settle (:func:`settle_batch`) is one
levelized pass, vectorized over gates of a level and over input vectors
with numpy, and does not depend on numba.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property, lru_cache

import numpy as np

from .gates import eval_primitive, input_pins, propagation_delay
from .levels import DomainError

USE_NUMBA = os.environ.get("MVADDER_DISABLE_NUMBA", "").lower() not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra
        USE_NUMBA = False
if not USE_NUMBA:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco

#: Event-time quantum: one tick is 0.1 ps. All delays are integer ticks,
#: which keeps event ordering exact and runs deterministic.
TICK_PS = 0.1
TICKS_PER_PS = 10

# Status codes returned by the kernels.
OK = 0
ERR_EVENT_CAP = 1
ERR_TIMEOUT = 2
ERR_UNSETTLED = 3

LVL_X = -1
_CODES = 5  # input codes: X, L0..L3


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


class CompiledCircuit:
    """Array form of a validated circuit, ready for the kernels."""

    def __init__(self, circuit):
        net_ids = list(circuit.nets)
        self.net_index = {nid: i for i, nid in enumerate(net_ids)}
        self.net_ids = net_ids
        n = len(net_ids)
        self.n_nets = n

        self.net_cap = np.zeros(n, np.float64)
        self.net_volt = np.zeros((n, 4), np.float64)
        self.net_init = np.full(n, LVL_X, np.int64)
        for nid, net in circuit.nets.items():
            i = self.net_index[nid]
            self.net_cap[i] = net.total_cap
            volts = net.encoding.level_voltages
            self.net_volt[i, : len(volts)] = volts
            if net.driver is not None and net.driver[0] == "const":
                self.net_init[i] = net.driver[1]

        insts = list(circuit.instances.values())
        g = len(insts)
        self.n_gates = g
        self.gate_kind = [inst.primitive.kind for inst in insts]
        # The kind tables of this circuit stacked in one array; a gate's row
        # is its kind's first row plus its input codes in base 5.
        tables = {kind: kind_table(kind) for kind in dict.fromkeys(self.gate_kind)}
        first_row = dict(zip(tables, np.cumsum([0] + [len(t) for t in tables.values()]).tolist()))
        self.table = np.concatenate([np.empty((0, 2), np.int64), *tables.values()])
        gate_row = []
        init_code = (self.net_init + 1).tolist()
        self.gate_nout = np.zeros(g, np.int64)
        self.gate_in = np.full((g, 5), -1, np.int64)
        self.gate_out = np.full((g, 2), -1, np.int64)
        self.gate_delay = np.zeros((g, 2), np.int64)
        # per net: {gate it feeds: summed base-5 weights of the pins it drives}
        fanout: list[dict] = [{} for _ in range(n)]
        for gi, inst in enumerate(insts):
            ipins = inst.primitive.input_pins
            opins = inst.primitive.output_pins
            self.gate_nout[gi] = len(opins)
            row = first_row[inst.primitive.kind]
            for j, pin in enumerate(ipins):
                ni = self.net_index[inst.pins[pin]]
                self.gate_in[gi, j] = ni
                weight = _CODES ** (len(ipins) - 1 - j)
                row += weight * init_code[ni]
                fanout[ni][gi] = fanout[ni].get(gi, 0) + weight
            gate_row.append(row)
            for j, pin in enumerate(opins):
                ni = self.net_index[inst.pins[pin]]
                self.gate_out[gi, j] = ni
                delay_s = propagation_delay(inst.primitive, circuit.nets[inst.pins[pin]].total_cap)
                # floor at one tick: zero-delay events would break the
                # one-transition-per-net-per-tick invariant
                self.gate_delay[gi, j] = max(1, round(delay_s / (TICK_PS * 1e-12)))

        self.gate_row = np.array(gate_row, np.int64)
        self.fan_ptr = np.cumsum([0] + [len(f) for f in fanout], dtype=np.int64)
        self.fan_gate = np.array([gi for f in fanout for gi in f], np.int64)
        self.fan_w = np.array([w for f in fanout for w in f.values()], np.int64)

        self.in_port_net = {p.name: self.net_index[p.net] for p in circuit.input_ports()}
        self.out_port_net = {p.name: self.net_index[p.net] for p in circuit.output_ports()}
        self.out_nets = np.array(sorted(self.out_port_net.values()), np.int64)
        self.port_encoding = {p.name: p.encoding for p in circuit.ports.values()}

    @cached_property
    def topo_order(self) -> list:
        """Gate indices in Kahn order, every gate after the drivers of its
        inputs; nets become ready last-in first-out. Built on first use."""
        n_wait = np.bincount(self.fan_gate, minlength=self.n_gates).tolist()  # input nets
        fan_ptr, fan_gate = self.fan_ptr.tolist(), self.fan_gate.tolist()
        gate_out = [[ni for ni in row if ni >= 0] for row in self.gate_out.tolist()]
        produced = {ni for row in gate_out for ni in row}
        ready = [ni for ni in reversed(range(self.n_nets)) if ni not in produced]
        order = []
        while ready:
            ni = ready.pop()
            for gi in fan_gate[fan_ptr[ni]: fan_ptr[ni + 1]]:
                n_wait[gi] -= 1
                if n_wait[gi] == 0:
                    order.append(gi)
                    ready.extend(gate_out[gi])
        return order

    @cached_property
    def settle_plan(self) -> list:
        """Steps for :func:`settle_batch` in level order, one per group of
        gates with the same logic level (1 + the highest level of its input
        nets; port and constant nets are 0) and :func:`_gate_table`. A step
        is (live, i.e. non-constant, input nets (k, gates); the k table
        index weights; the table; output nets (nout, gates)). Gates with no
        live input are left out: they stay X."""
        net_level = np.zeros(self.n_nets, np.int64)
        groups: dict = {}
        for gi in self.topo_order:
            pins = self.gate_in[gi][self.gate_in[gi] >= 0]
            nout = int(self.gate_nout[gi])
            outs = self.gate_out[gi, :nout]
            net_level[outs] = level = 1 + net_level[pins].max()
            live = pins[self.net_init[pins] == LVL_X]
            if len(live):
                key = (level, self.gate_kind[gi], tuple(self.net_init[pins].tolist()), nout)
                groups.setdefault(key, []).append((live, outs))
        plan = []
        for (_, kind, inputs, nout), gates in sorted(groups.items(), key=lambda kv: kv[0][0]):
            live, outs = (np.array(nets).T for nets in zip(*gates))
            weights = _CODES ** np.arange(len(live) - 1, -1, -1)
            plan.append((live, weights, _gate_table(kind, inputs, nout), outs))
        return plan


def compile_circuit(circuit) -> CompiledCircuit:
    """Compile (and cache on the circuit) the kernel array form."""
    cached = getattr(circuit, "_compiled", None)
    if cached is None:
        cached = CompiledCircuit(circuit)
        circuit._compiled = cached
    return cached


# --------------------------------------------------------------------------
# Levelized batch settle. Levels are held as uint8 codes, level + 1: X is
# code 0, so a gate's table index is 0 exactly when its live inputs are X.

_BLOCK_ROWS = 1024  # vectors settled together; bounds working memory


@lru_cache(maxsize=None)
def _gate_table(kind: str, inputs: tuple, nout: int) -> np.ndarray:
    """Output codes of one gate, shape (nout, 5 ** live inputs), for every
    combination of its live inputs (``inputs`` entries of LVL_X; the others
    are constant levels): the slice of :func:`kind_table` at the constant
    inputs' codes. Entry 0, all live inputs X, stays X: the event loop never
    evaluates such a gate."""
    index = tuple(slice(None) if lvl == LVL_X else lvl + 1 for lvl in inputs)
    table = kind_table(kind).reshape((_CODES,) * len(inputs) + (2,))[index]
    table = (table.reshape(-1, 2)[:, :nout].T + 1).astype(np.uint8)
    table[:, 0] = 0
    return table


def settle_batch(comp: CompiledCircuit, in_nets, vectors, out_nets) -> np.ndarray:
    """Settled levels on ``out_nets`` (int64, -1 for X), one row per row of
    ``vectors``, whose columns are the levels driven on ``in_nets``.

    One pass over :attr:`CompiledCircuit.settle_plan`, level by level; each
    step is one table gather for a group of gates over a block of vectors.
    No gate feeds another of its level, and for an acyclic circuit this is
    the event loop's quiescent state: every gate it evaluates ends at its
    function of its final inputs. Inputs leave X once and no gate output
    returns to X (resolving an X input never changes a decided entry of a
    kind table), so the gates it never evaluates are those whose
    non-constant inputs all stay X; they stay X here too.
    """
    plan = comp.settle_plan
    init = (comp.net_init + 1).astype(np.uint8)[:, None]
    out = np.empty((len(vectors), len(out_nets)), np.int64)
    for r0 in range(0, len(vectors), _BLOCK_ROWS):
        block = vectors[r0: r0 + _BLOCK_ROWS]
        codes = np.repeat(init, len(block), axis=1)
        codes[in_nets] = block.T + 1
        for live, weights, table, outs in plan:
            idx = weights @ codes[live].reshape(len(live), -1)
            codes[outs] = table[:, idx].reshape(outs.shape + (len(block),))
        out[r0: r0 + len(block)] = codes[out_nets].T
    out -= 1
    return out


# --------------------------------------------------------------------------
# Kernels. Everything below must stay numba-compilable.


@njit(cache=True)
def _hpush(keys, vals, n, key, val):
    if n >= keys.shape[0]:
        nk = np.empty(keys.shape[0] * 2, np.int64)
        nk[:n] = keys[:n]
        keys = nk
        nv = np.empty(vals.shape[0] * 2, np.int64)
        nv[:n] = vals[:n]
        vals = nv
    keys[n] = key
    vals[n] = val
    i = n
    n += 1
    while i > 0:
        p = (i - 1) >> 1
        if keys[p] <= keys[i]:
            break
        keys[p], keys[i] = keys[i], keys[p]
        vals[p], vals[i] = vals[i], vals[p]
        i = p
    return keys, vals, n


@njit(cache=True)
def _hpop(keys, vals, n):
    key = keys[0]
    val = vals[0]
    n -= 1
    keys[0] = keys[n]
    vals[0] = vals[n]
    i = 0
    while True:
        l = 2 * i + 1
        if l >= n:
            break
        m = l
        r = l + 1
        if r < n and keys[r] < keys[l]:
            m = r
        if keys[i] <= keys[m]:
            break
        keys[i], keys[m] = keys[m], keys[i]
        vals[i], vals[m] = vals[m], vals[i]
        i = m
    return key, val, n


@njit(cache=True)
def _propagate(net, delta, t, n_nets, cur, row, pend_t, pend_v, hk, hv, hn,
               table, gout, nout, gdelay, fan_ptr, fan_gate, fan_w):
    """Move the table row of every gate fed by ``net``, which changed by
    ``delta`` levels, and (re)schedule its output events.

    Inertial behavior: a pending event is kept if the recomputed target
    agrees, cancelled if the target reverted to the current value (pulse
    absorbed), and replaced otherwise.
    """
    for fi in range(fan_ptr[net], fan_ptr[net + 1]):
        g = fan_gate[fi]
        row[g] += delta * fan_w[fi]
        for j in range(nout[g]):
            o = gout[g, j]
            target = table[row[g], j]
            if pend_t[o] >= 0:
                if target == pend_v[o]:
                    continue
                pend_t[o] = -1
                if target != cur[o]:
                    tt = t + gdelay[g, j]
                    pend_t[o] = tt
                    pend_v[o] = target
                    hk, hv, hn = _hpush(hk, hv, hn, tt * n_nets + o, o)
            else:
                if target != cur[o]:
                    tt = t + gdelay[g, j]
                    pend_t[o] = tt
                    pend_v[o] = target
                    hk, hv, hn = _hpush(hk, hv, hn, tt * n_nets + o, o)
    return hk, hv, hn


@njit(cache=True)
def _rec(rt, rn, rl, re, rs, nr, t, net, lvl, energy, src):
    if nr >= rt.shape[0]:
        cap = rt.shape[0] * 2
        t2 = np.empty(cap, np.int64); t2[:nr] = rt[:nr]; rt = t2
        n2 = np.empty(cap, np.int64); n2[:nr] = rn[:nr]; rn = n2
        l2 = np.empty(cap, np.int64); l2[:nr] = rl[:nr]; rl = l2
        e2 = np.empty(cap, np.float64); e2[:nr] = re[:nr]; re = e2
        s2 = np.empty(cap, np.int64); s2[:nr] = rs[:nr]; rs = s2
    rt[nr] = t
    rn[nr] = net
    rl[nr] = lvl
    re[nr] = energy
    rs[nr] = src
    return rt, rn, rl, re, rs, nr + 1


@njit(cache=True)
def _volt(net_volt, net, lvl):
    if lvl < 0:
        return 0.0
    return net_volt[net, lvl]


@njit(cache=True)
def _run_single(table, gate_row, gout, nout, gdelay, fan_ptr, fan_gate, fan_w,
                net_cap, net_volt, net_init, out_nets,
                init_net, init_lvl, stim_net, stim_time, stim_lvl,
                duration_ticks, gap_ticks, max_events):
    """Settle from the initial assignment, then play the stimulus.

    Returns (status, origin_ticks, n_settle, n_rec, records..., cur).
    Each phase merges a stream of input events with the event heap on the
    key (time, net index), so simultaneous events are processed in that
    order. The settle phase's stream is the initial assignment at t = 0,
    ahead of every gate event since delays are at least one tick; the
    measurement phase's is the stimulus, offset to the origin.
    """
    n_nets = net_cap.shape[0]
    cur = net_init.copy()
    row = gate_row.copy()
    pend_t = np.full(n_nets, -1, np.int64)
    pend_v = np.zeros(n_nets, np.int64)
    hk = np.empty(64, np.int64)
    hv = np.empty(64, np.int64)
    hn = 0
    cap0 = 256
    rt = np.empty(cap0, np.int64)
    rn = np.empty(cap0, np.int64)
    rl = np.empty(cap0, np.int64)
    re = np.empty(cap0, np.float64)
    rs = np.empty(cap0, np.int64)
    nr = 0
    events = 0
    big = np.int64(2 ** 62)
    s_net, s_time, s_lvl = init_net, np.zeros_like(init_net), init_lvl
    origin = np.int64(0)
    n_settle = 0
    t_end = big
    t_q = 0
    for phase in range(2):
        si = 0
        while True:
            sk = (s_time[si] + origin) * n_nets + s_net[si] if si < s_net.shape[0] else big
            hk0 = hk[0] if hn > 0 else big
            if sk == big and hk0 == big:
                break
            if sk <= hk0:
                t = s_time[si] + origin
                net = s_net[si]
                lvl = s_lvl[si]
                si += 1
                if lvl == cur[net]:
                    continue
                e = 0.0
                src = 1
            else:
                key, net, hn = _hpop(hk, hv, hn)
                t = key // n_nets
                if pend_t[net] != t:
                    continue
                if t > t_end:
                    return (ERR_TIMEOUT, origin, n_settle, nr, rt, rn, rl, re, rs, cur)
                lvl = pend_v[net]
                pend_t[net] = -1
                events += 1
                if events > max_events:
                    return (ERR_EVENT_CAP, origin, n_settle, nr, rt, rn, rl, re, rs, cur)
                vf = _volt(net_volt, net, cur[net])
                vt = _volt(net_volt, net, lvl)
                e = 0.5 * net_cap[net] * (vt - vf) * (vt - vf)
                src = 0
            rt, rn, rl, re, rs, nr = _rec(rt, rn, rl, re, rs, nr, t, net, lvl, e, src)
            delta = lvl - cur[net]
            cur[net] = lvl
            t_q = t
            hk, hv, hn = _propagate(net, delta, t, n_nets, cur, row, pend_t, pend_v,
                                    hk, hv, hn, table, gout, nout, gdelay,
                                    fan_ptr, fan_gate, fan_w)
        if phase == 0:
            origin = t_q + gap_ticks
            n_settle = nr
            for i in range(out_nets.shape[0]):
                if cur[out_nets[i]] < 0:
                    return (ERR_UNSETTLED, origin, n_settle, nr, rt, rn, rl, re, rs, cur)
            s_net, s_time, s_lvl = stim_net, stim_time, stim_lvl
            t_end = origin + duration_ticks
    return (OK, origin, n_settle, nr, rt, rn, rl, re, rs, cur)


def warm_up() -> None:
    """JIT-compile the event-loop kernel on a toy problem, one inverter
    (batch settle is numpy)."""
    gout = np.array([[1, -1]], np.int64)
    nout = np.ones(1, np.int64)
    gdelay = np.ones((1, 2), np.int64)
    fan_ptr = np.array([0, 1, 1], np.int64)
    fan = np.array([0], np.int64)
    net_cap = np.array([0.0, 1e-15], np.float64)
    net_volt = np.zeros((2, 4), np.float64)
    net_volt[:, 1] = 0.9
    net_init = np.full(2, -1, np.int64)
    out_nets = np.array([1], np.int64)
    ins = np.array([0], np.int64)
    lvls = np.array([0], np.int64)
    _run_single(kind_table("inv"), np.zeros(1, np.int64), gout, nout, gdelay,
                fan_ptr, fan, np.ones(1, np.int64),
                net_cap, net_volt, net_init, out_nets,
                ins, lvls, np.array([0], np.int64), np.array([10], np.int64),
                np.array([1], np.int64), np.int64(100), np.int64(10),
                np.int64(10_000))
