"""Circuit graph plus generators for the adder cells and ripple chains.

A :class:`Circuit` stores ports, nets and gate instances whose pins name
nets by id; a net stores its id, encoding, external load and, for a supply
tie, its level. The rest (each net's driver and load, validity, gate order
and logic levels) is derived from the pins by the one pass of
:func:`_analyse` when a circuit is validated or compiled, so a circuit
compiles alike however it was built, loaded or edited (before compiling,
which caches). Generators assign deterministic identifiers so reports and
traces are reproducible run to run.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .gates import (
    KINDS,
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    TransistorInventory,
    _parse_inventory,
    inventory_area,
)
from .levels import DomainError, Level, SignalEncoding, binary_full, quaternary, third_swing


class NetlistError(ValueError):
    """Structural problem that prevents building or using a circuit."""


@dataclass
class Net:
    """A wire. ``driver`` is None, or ("const", level) for a supply tie, the
    level an int below the encoding's radix. The port or gate that drives
    any other net, and each net's load, are derived from the pins by
    :func:`_analyse`."""

    id: str
    encoding: SignalEncoding
    driver: tuple | None = None
    external_load: float = 0.0

    def __post_init__(self):
        try:
            ok = 0 <= self.external_load < math.inf  # NaN fails too
        except TypeError:  # not a number
            ok = False
        if not ok:
            raise NetlistError(f"net {self.id!r}: external_load must be a finite number >= 0, "
                               f"got {self.external_load!r}")
        d = self.driver
        if d is not None and not (len(d) == 2 and d[0] == "const" and type(d[1]) is int
                                  and 0 <= d[1] < self.encoding.radix):
            raise NetlistError(f"net {self.id!r}: driver must be ('const', level) with an int "
                               f"level in [0, {self.encoding.radix}), got {d!r}")


@dataclass
class Instance:
    id: str
    primitive: GatePrimitive
    pins: dict  # pin name -> net id (inputs and outputs)
    pin_encodings: dict  # input pin name -> SignalEncoding expected there
    cell_tag: str = "cell0"


@dataclass
class Port:
    name: str
    direction: str  # "in" | "out"
    encoding: SignalEncoding
    net: str


@dataclass
class Circuit:
    name: str
    ports: dict  # name -> Port
    nets: dict  # id -> Net
    instances: dict  # id -> Instance
    metadata: dict = field(default_factory=dict)

    def input_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "in"]

    def output_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "out"]


class _Builder:
    def __init__(self, name: str, lib: CellLibrary):
        self.name = name
        self.lib = lib
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self.ports: dict[str, Port] = {}
        self.metadata: dict = {}

    def net(self, nid: str, encoding: SignalEncoding, external_load: float = 0.0,
            driver: tuple | None = None) -> str:
        if nid in self.nets:
            raise NetlistError(f"duplicate net id {nid!r}")
        self.nets[nid] = Net(nid, encoding, driver, external_load)
        return nid

    def const(self, nid: str, level: Level, encoding: SignalEncoding) -> str:
        return self.net(nid, encoding, driver=("const", int(level)))

    def port(self, name: str, direction: str, encoding: SignalEncoding,
             net: str | None = None, external_load: float = 0.0) -> str:
        nid = net if net is not None else name
        if nid not in self.nets:
            self.net(nid, encoding, external_load=external_load)
        self.ports[name] = Port(name, direction, encoding, nid)
        return nid

    def inst(self, iid: str, kind: str, supply: float, out_enc: SignalEncoding,
             pins: Mapping[str, str], cell_tag: str = "cell0",
             inventory: TransistorInventory | None = None,
             sel_enc: SignalEncoding | None = None,
             data_enc: SignalEncoding | None = None) -> Instance:
        """Add one gate. Input pin expectations default to the bound nets'
        encodings; pass sel/data encodings where the contract is stricter."""
        if iid in self.instances:
            raise NetlistError(f"duplicate instance id {iid!r}")
        prim = self.lib.make_primitive(kind, supply, out_enc, inventory)
        pin_enc = {}
        for pin in prim.input_pins:
            if pin == "sel" and sel_enc is not None:
                pin_enc[pin] = sel_enc
            elif pin.startswith("d") and data_enc is not None:
                pin_enc[pin] = data_enc
            else:
                pin_enc[pin] = self.nets[pins[pin]].encoding
        inst = self.instances[iid] = Instance(iid, prim, dict(pins), pin_enc, cell_tag)
        return inst

    def copy_cell(self, cell: Circuit, prefix: str, tag: str,
                  port_nets: Mapping[str, str]) -> None:
        """Instantiate ``cell`` with every internal id prefixed; cell ports
        are stitched onto existing builder nets per ``port_nets``."""
        mapped = {port.net: port_nets[name] for name, port in cell.ports.items()}
        for nid, net in cell.nets.items():
            if nid not in mapped:
                mapped[nid] = self.net(prefix + nid, net.encoding, driver=net.driver)
        for iid, inst in cell.instances.items():
            new_iid = prefix + iid
            new_pins = {pin: mapped[nid] for pin, nid in inst.pins.items()}
            self.instances[new_iid] = Instance(
                new_iid, inst.primitive, new_pins, dict(inst.pin_encodings), tag)
        for _, inv in cell.metadata.get("cell_inventory_overrides", {}).items():
            self.metadata.setdefault("cell_inventory_overrides", {})[tag] = inv
        kinds = cell.metadata.get("cell_kinds", {})
        self.metadata.setdefault("cell_kinds", {})[tag] = next(
            iter(kinds.values()), cell.metadata.get("variant", cell.name))

    def finalize(self, **metadata) -> Circuit:
        self.metadata.update(metadata)
        return Circuit(self.name, self.ports, self.nets, self.instances, self.metadata)


# --------------------------------------------------------------------------
# Generators


def build_qfa(variant: str, vdd: float = 0.9, lib: CellLibrary | None = None,
              cl: float = 0.0) -> Circuit:
    """Single-stage MUX-tree quaternary full adder.

    Both variants share the structure: threshold detectors on B, successor
    circuits on A, a MUX4 pair for the two conditional sums, a MUX4 pair
    over constant/detector rails for the two complemented conditional
    carries, and a Cin-controlled MUX2 pair feeding the final carry
    inverter. QFA1 runs that inverter from vdd/3 (reduced carry swing),
    QFA2 from vdd (full carry swing).
    """
    variant = variant.lower()
    if variant not in ("qfa1", "qfa2"):
        raise NetlistError(f"unknown quaternary variant {variant!r}")
    if vdd <= 0:
        raise NetlistError("vdd must be > 0")
    lib = lib or CellLibrary.default()
    enc_q = quaternary(vdd)
    enc_b = binary_full(vdd)
    carry_enc = third_swing(vdd) if variant == "qfa1" else binary_full(vdd)
    inv_supply = vdd / 3.0 if variant == "qfa1" else vdd

    b = _Builder(variant, lib)
    a_net = b.port("A", "in", enc_q)
    b_net = b.port("B", "in", enc_q)
    cin = b.port("Cin", "in", carry_enc)
    sum_net = b.port("Sum", "out", enc_q, net="n_sum", external_load=cl)
    cout = b.port("Cout", "out", carry_enc, net="n_cout", external_load=cl)

    one = b.const("const1", Level.L1, enc_b)
    zero = b.const("const0", Level.L0, enc_b)

    # Detector rails on B: y = [B < k] (the low-true rail the carry muxes
    # consume), yb = buffered [B >= k].
    rails = {}
    for k in (1, 2, 3):
        y = b.net(f"b_lt{k}", enc_b)
        yb = b.net(f"b_ge{k}", enc_b)
        b.inst(f"det{k}", f"det{k}", vdd, enc_b, {"a": b_net, "y": y, "yb": yb})
        rails[k] = y

    # Successors of A feed the conditional-sum muxes.
    succ = {}
    for k in (1, 2, 3):
        out = b.net(f"a_plus{k}", enc_q)
        b.inst(f"succ{k}", f"succ{k}", vdd, enc_q, {"a": a_net, "y": out})
        succ[k] = out

    sum0 = b.net("n_sum0", enc_q)
    sum1 = b.net("n_sum1", enc_q)
    b.inst("mux_sum0", "mux4", vdd, enc_q,
           {"d0": a_net, "d1": succ[1], "d2": succ[2], "d3": succ[3],
            "sel": b_net, "y": sum0})
    b.inst("mux_sum1", "mux4", vdd, enc_q,
           {"d0": succ[1], "d1": succ[2], "d2": succ[3], "d3": a_net,
            "sel": b_net, "y": sum1})

    # Complemented conditional carries, selected by A over the B rails:
    # ~cout0 = [A+B < 4], ~cout1 = [A+B+1 < 4].
    ncout0 = b.net("n_ncout0", enc_b)
    ncout1 = b.net("n_ncout1", enc_b)
    b.inst("mux_ncout0", "mux4", vdd, enc_b,
           {"d0": one, "d1": rails[3], "d2": rails[2], "d3": rails[1],
            "sel": a_net, "y": ncout0}, sel_enc=enc_q, data_enc=enc_b)
    b.inst("mux_ncout1", "mux4", vdd, enc_b,
           {"d0": rails[3], "d1": rails[2], "d2": rails[1], "d3": zero,
            "sel": a_net, "y": ncout1}, sel_enc=enc_q, data_enc=enc_b)

    ncout = b.net("n_ncout", enc_b)
    b.inst("mux2_sum", "mux2", vdd, enc_q,
           {"d0": sum0, "d1": sum1, "sel": cin, "y": sum_net},
           sel_enc=carry_enc, data_enc=enc_q)
    b.inst("mux2_cout", "mux2", vdd, enc_b,
           {"d0": ncout0, "d1": ncout1, "sel": cin, "y": ncout},
           sel_enc=carry_enc, data_enc=enc_b)
    # Carry-swing conversion point: this inverter's supply fixes the Cout rail.
    b.inst("inv_cout", "inv", inv_supply, carry_enc, {"a": ncout, "y": cout})

    return b.finalize(variant=variant, vdd=vdd, mux4_count=4, adder_cell=True,
                      cell_kinds={"cell0": variant})


_BFA1_CELL_INVENTORY = TransistorInventory((("N", 19, 14), ("P", 19, 14)))
_TG_MUX2_INVENTORY = TransistorInventory((("N", 19, 2), ("P", 19, 2)))


def build_bfa(variant: str, vdd: float = 0.9, lib: CellLibrary | None = None,
              cl: float = 0.0) -> Circuit:
    """Binary full adder cell.

    BFA1 is the static 28T style: majority gate plus restoring buffer for
    the carry, NAND network for the sum; the 28T inventory is attached at
    cell level because the behavioral gate set has no inverting complex
    gates. BFA2 is the 14T transmission-gate style: a dual-rail XOR and two
    select-inverter-free TG muxes.
    """
    variant = variant.lower()
    if variant not in ("bfa1", "bfa2"):
        raise NetlistError(f"unknown binary variant {variant!r}")
    if vdd <= 0:
        raise NetlistError("vdd must be > 0")
    lib = lib or CellLibrary.default()
    enc = binary_full(vdd)

    b = _Builder(variant, lib)
    a = b.port("A", "in", enc)
    bb = b.port("B", "in", enc)
    cin = b.port("Cin", "in", enc)
    s = b.port("Sum", "out", enc, net="n_sum", external_load=cl)
    cout = b.port("Cout", "out", enc, net="n_cout", external_load=cl)

    meta: dict = {"variant": variant, "vdd": vdd, "adder_cell": True,
                  "cell_kinds": {"cell0": variant}}

    if variant == "bfa2":
        x = b.net("n_x", enc)
        xb = b.net("n_xb", enc)
        b.inst("xor_ab", "xor_tg", vdd, enc, {"a": a, "b": bb, "y": x, "yb": xb})
        # Sum = cin ? ~x : x; Cout = x ? cin : a. Both muxes are bare TG
        # pairs steered by the XOR's dual rails, hence the 4T inventories.
        b.inst("mux_sum", "mux2", vdd, enc,
               {"d0": x, "d1": xb, "sel": cin, "y": s},
               inventory=_TG_MUX2_INVENTORY)
        b.inst("mux_cout", "mux2", vdd, enc,
               {"d0": a, "d1": cin, "sel": x, "y": cout},
               inventory=_TG_MUX2_INVENTORY)
        return b.finalize(**meta)

    # bfa1
    maj = b.net("n_maj", enc)
    b.inst("maj", "maj3", vdd, enc, {"a": a, "b": bb, "c": cin, "y": maj})
    b.inst("buf_cout", "buf", vdd, enc, {"a": maj, "y": cout})
    n1 = b.net("n_nand_ab", enc)
    n2 = b.net("n_nand_a", enc)
    n3 = b.net("n_nand_b", enc)
    x1 = b.net("n_xor_ab", enc)
    b.inst("nand1", "nand", vdd, enc, {"a": a, "b": bb, "y": n1})
    b.inst("nand2", "nand", vdd, enc, {"a": a, "b": n1, "y": n2})
    b.inst("nand3", "nand", vdd, enc, {"a": bb, "b": n1, "y": n3})
    b.inst("nand4", "nand", vdd, enc, {"a": n2, "b": n3, "y": x1})
    m1 = b.net("n_nand_xc", enc)
    m2 = b.net("n_nand_x", enc)
    m3 = b.net("n_nand_c", enc)
    b.inst("nand5", "nand", vdd, enc, {"a": x1, "b": cin, "y": m1})
    b.inst("nand6", "nand", vdd, enc, {"a": x1, "b": m1, "y": m2})
    b.inst("nand7", "nand", vdd, enc, {"a": cin, "b": m1, "y": m3})
    b.inst("nand8", "nand", vdd, enc, {"a": m2, "b": m3, "y": s})
    meta["cell_inventory_overrides"] = {"cell0": _BFA1_CELL_INVENTORY}
    return b.finalize(**meta)


_ADDER_PORTS = {"A", "B", "Cin", "Sum", "Cout"}


def build_cpa(cell: Circuit, n_digits: int, cl: float = 0.0) -> Circuit:
    """Ripple chain of ``n_digits`` copies of a 1-digit adder cell.

    Ports: A0..A{n-1}, B0.., C0 in; S0.., C{n} out. The external load
    ``cl`` hangs on every sum output and on the final carry.
    """
    if n_digits < 1:
        raise NetlistError("n_digits must be >= 1")
    missing = _ADDER_PORTS - set(cell.ports)
    if missing:
        raise NetlistError(f"cell lacks adder ports: {sorted(missing)}")
    enc_d = cell.ports["A"].encoding
    enc_c = cell.ports["Cin"].encoding
    if cell.ports["Cout"].encoding.level_voltages != enc_c.level_voltages:
        raise NetlistError("cell carry-in and carry-out encodings differ; not chainable")

    b = _Builder(f"{cell.name}_cpa{n_digits}", CellLibrary.default())
    carries = [b.port("C0", "in", enc_c)]
    for i in range(1, n_digits):
        carries.append(b.net(f"C{i}", enc_c))
    carries.append(b.port(f"C{n_digits}", "out", enc_c, external_load=cl))
    for i in range(n_digits):
        a = b.port(f"A{i}", "in", enc_d)
        bb = b.port(f"B{i}", "in", enc_d)
        s = b.port(f"S{i}", "out", enc_d, external_load=cl)
        b.copy_cell(cell, f"d{i}.", f"d{i}",
                    {"A": a, "B": bb, "Cin": carries[i],
                     "Sum": s, "Cout": carries[i + 1]})
    meta = {k: v for k, v in cell.metadata.items()
            if k not in ("adder_cell", "cell_kinds", "cell_inventory_overrides")}
    return b.finalize(n_digits=n_digits, cl=cl, **meta)


def build_binary_slice(variant: str, vdd: float = 0.9,
                       lib: CellLibrary | None = None, cl: float = 0.0) -> Circuit:
    """Two chained binary cells covering one quaternary digit.

    Ports A0/A1, B0/B1 (bit 0 = LSB), Cin, S0/S1, Cout.
    """
    cell = build_bfa(variant, vdd, lib)
    b = _Builder(f"{variant}x2", CellLibrary.default())
    enc = cell.ports["A"].encoding
    cin = b.port("Cin", "in", enc)
    mid = b.net("C1", enc)
    cout = b.port("Cout", "out", enc, external_load=cl)
    for i, carry_out in ((0, mid), (1, cout)):
        a = b.port(f"A{i}", "in", enc)
        bb = b.port(f"B{i}", "in", enc)
        s = b.port(f"S{i}", "out", enc, external_load=cl)
        b.copy_cell(cell, f"b{i}.", f"b{i}",
                    {"A": a, "B": bb, "Cin": cin if i == 0 else mid,
                     "Sum": s, "Cout": carry_out})
    return b.finalize(variant=f"{variant}x2", vdd=vdd, cl=cl)


CELL_KINDS = ("qfa1", "qfa2", "bfa1", "bfa2", "bfa1x2", "bfa2x2")


def build_cell(kind: str, vdd: float = 0.9, lib: CellLibrary | None = None,
               cl: float = 0.0) -> Circuit:
    """The adder cell of ``kind``, one of :data:`CELL_KINDS`: a quaternary or
    binary cell, or (``bfa1x2``, ``bfa2x2``) a two-cell binary slice."""
    kind = kind.lower()
    if kind not in CELL_KINDS:
        raise NetlistError(f"unknown cell kind {kind!r}")
    if kind.endswith("x2"):
        return build_binary_slice(kind[:4], vdd, lib, cl)
    return (build_qfa if kind.startswith("qfa") else build_bfa)(kind, vdd, lib, cl)


# --------------------------------------------------------------------------
# Validation


def validate(c: Circuit) -> list[str]:
    """Structural diagnostics; empty list means the circuit is usable. A
    cycle diagnostic names the gates on it, not those behind it. This is the
    first result of :func:`_analyse`; computing delays is left to compiling."""
    return _analyse(c)[0]


_CODES = 5  # codes of one input pin: X, L0..L3; a gate's pins are its base-5 digits


def _analyse(c: Circuit) -> tuple:
    """One pass that resolves every pin of ``c`` to a net index exactly once.

    Returns ``(diags, net_index, net_cap, gate_in, gate_out, fanout, order,
    level)``: :func:`validate`'s diagnostics; each net id's index (``c.nets``
    order); per net its load, the external load plus the input cap of each
    pin it feeds, summed in instance and pin order (0 for a supply tie,
    which switches nothing); per gate (``c.instances`` order) its input nets
    in pin order and its output nets; per net the gates it feeds as (gate,
    summed base-5 weight of the pins it drives), the first of k input pins
    weighing 5 ** (k - 1); the gate indices in Kahn order, every gate after
    the drivers of its inputs; and per gate its logic level, 1 + its inputs'
    highest (an undriven net is 0), or 0 for a gate never ordered.

    Kahn's algorithm runs in waves of nets, and a gate is released when the
    weights of its arrived inputs sum to its bound pins' weights, so a
    gate's level is the wave that brings its last input. The gates it never
    releases lie on or behind a cycle; those feeding no other such gate are
    peeled from the sinks back, in linear time, and each one left is named
    by a cycle diagnostic. The graph is meaningful only when ``diags`` is
    empty (an unbound input pin reads net -1 in ``gate_in``)."""
    diags: list[str] = []
    nets, net_ids = list(c.nets.values()), list(c.nets)
    index = {nid: i for i, nid in enumerate(net_ids)}
    encs = [net.encoding for net in nets]
    drivers = [[net.driver] if net.driver else [] for net in nets]
    cap = [net.external_load for net in nets]
    for port in c.ports.values():
        i = _index_of(index, port.net)
        if i < 0:
            diags.append(f"port {port.name}: net {port.net!r} does not exist")
        elif port.direction == "in":
            drivers[i].append(("port", port.name))

    plans: dict = {}  # id(primitive) -> its pins, their weights and cap, its output encoding
    gate_in, gate_out, wait = [], [], []  # wait: the weights of a gate's inputs yet to arrive
    fanout: list[list] = [[] for _ in nets]
    for g, inst in enumerate(c.instances.values()):
        prim, pins = inst.primitive, inst.pins
        plan = plans.get(id(prim))
        if plan is None:
            weights = [_CODES ** j for j in range(len(prim.input_pins) - 1, -1, -1)]
            plan = plans[id(prim)] = (prim.input_pins, prim.output_pins, weights, sum(weights),
                                      prim.params.input_cap_per_pin, prim.params.output_encoding)
        in_pins, out_pins, weights, total, pin_cap, out_enc = plan
        try:
            ins = [index[pins[pin]] for pin in in_pins]
            outs = [index[pins[pin]] for pin in out_pins]
            bound_in, bound_out = zip(in_pins, ins, weights), zip(out_pins, outs)
        except (KeyError, TypeError):  # report each pin unbound or bound to no net; skip it
            ins, outs = ([_index_of(index, pins.get(p)) for p in ps] for ps in (in_pins, out_pins))
            for pin, i in zip(in_pins + out_pins, ins + outs):
                if i < 0:
                    diags.append(f"{inst.id}.{pin}: net {pins[pin]!r} does not exist"
                                 if pin in pins else f"{inst.id}: pin {pin} unbound")
            bound_in = [(pin, i, w) for pin, i, w in zip(in_pins, ins, weights) if i >= 0]
            bound_out = [(pin, o) for pin, o in zip(out_pins, outs) if o >= 0]
            outs = [o for _, o in bound_out]
            total = sum(w for _, _, w in bound_in)
        pin_enc = inst.pin_encodings
        for pin, i, w in bound_in:
            cap[i] += pin_cap
            feeds = fanout[i]
            if feeds and feeds[-1][0] == g:  # one net on two pins of a gate
                feeds[-1] = (g, feeds[-1][1] + w)
            else:
                feeds.append((g, w))
            want, got = pin_enc.get(pin), encs[i]
            if want is not None and want is not got and want.level_voltages != got.level_voltages:
                diags.append(f"encoding-mismatch: {inst.id}.{pin} expects {want.name}, "
                             f"net {net_ids[i]} carries {got.name}")
        for pin, o in bound_out:
            drivers[o].append(("inst", inst.id, pin))
            got = encs[o]
            if got is not out_enc and got.level_voltages != out_enc.level_voltages:
                diags.append(f"encoding-mismatch: {inst.id}.{pin} drives {out_enc.name}, "
                             f"net {net_ids[o]} declared {got.name}")
        gate_in.append(ins)
        gate_out.append(outs)
        wait.append(total)

    cap = [0.0 if net.driver else x for net, x in zip(nets, cap)]  # a supply tie switches nothing
    for nid, dr in zip(net_ids, drivers):
        if not dr:
            diags.append(f"undriven net {nid!r}")
        elif len(dr) > 1:
            diags.append(f"multiple-driver net {nid!r}: {sorted(str(d) for d in dr)}")

    if c.metadata.get("adder_cell") and not _ADDER_PORTS <= set(c.ports):
        diags.append(f"adder cell missing ports {sorted(_ADDER_PORTS - set(c.ports))}")

    driven = set(itertools.chain.from_iterable(gate_out))
    wave = [i for i in range(len(nets)) if i not in driven]
    arrived = bytearray(len(nets))
    order: list[int] = []
    level = [0] * len(gate_in)
    depth = 0
    while wave:
        depth += 1
        nxt: list[int] = []
        for i in wave:
            if arrived[i]:  # a net driven twice arrives with its first driver
                continue
            arrived[i] = 1
            for g, w in fanout[i]:
                wait[g] -= w
                if not wait[g]:
                    order.append(g)
                    level[g] = depth
                    nxt += gate_out[g]
        wave = nxt

    if len(order) < len(gate_in):  # peel the gates feeding none left stuck, sinks first
        stuck = set(range(len(gate_in))) - set(order)
        stuck_drivers: dict = {}
        for g in stuck:
            for o in gate_out[g]:
                stuck_drivers.setdefault(o, []).append(g)
        n_fed = {g: sum(h in stuck for o in gate_out[g] for h, _ in fanout[o]) for g in stuck}
        peel = [g for g in stuck if not n_fed[g]]
        for g in peel:  # grows as gates lose their last stuck sink
            stuck.remove(g)
            for i in set(gate_in[g]):
                for f in stuck_drivers.get(i, ()):
                    if f in stuck:
                        n_fed[f] -= 1
                        if not n_fed[f]:
                            peel.append(f)
        ids = list(c.instances)
        diags += [f"combinational cycle through instance {iid!r}"
                  for iid in sorted(ids[g] for g in stuck)]
    return diags, index, cap, gate_in, gate_out, fanout, order, level


def _index_of(index: dict, nid) -> int:
    """Net ``nid``'s index, or -1 where ``nid`` names no net (unhashable too)."""
    try:
        return index.get(nid, -1)
    except TypeError:
        return -1


# --------------------------------------------------------------------------
# Area


@dataclass(frozen=True)
class KindArea:
    instances: int
    transistors: int
    sigma_di_nm: float
    share: float


@dataclass(frozen=True)
class AreaReport:
    total_sigma_di_nm: float
    transistor_count: int
    by_kind: dict

    def as_dict(self) -> dict:
        return {
            "total_sigma_di_nm": self.total_sigma_di_nm,
            "transistor_count": self.transistor_count,
            "by_kind": {
                k: {
                    "instances": v.instances,
                    "transistors": v.transistors,
                    "sigma_di_nm": v.sigma_di_nm,
                    "share": v.share,
                }
                for k, v in self.by_kind.items()
            },
        }


def area_report(c: Circuit) -> AreaReport:
    """Diameter-sum area breakdown per gate kind.

    Cells with an inventory override (cell_inventory_overrides metadata)
    contribute their declared inventory as one "<kind>_cell" entry instead
    of their gates' summed inventories.
    """
    overrides: dict = c.metadata.get("cell_inventory_overrides", {})
    cell_kinds: dict = c.metadata.get("cell_kinds", {})
    counts: dict[str, list] = {}

    def bump(label: str, instances: int, transistors: int, sigma: float):
        row = counts.setdefault(label, [0, 0, 0.0])
        row[0] += instances
        row[1] += transistors
        row[2] += sigma

    # canonical accumulation order: totals are invariant under instance
    # reordering despite float addition
    for iid in sorted(c.instances):
        inst = c.instances[iid]
        if inst.cell_tag in overrides:
            continue
        inv = inst.primitive.inventory
        bump(inst.primitive.kind, 1, inv.total_count, inventory_area(inv))
    for tag in sorted(overrides):
        inv = overrides[tag]
        label = f"{cell_kinds.get(tag, tag)}_cell"
        bump(label, 1, inv.total_count, inventory_area(inv))

    total_sigma = sum(row[2] for row in counts.values())
    total_t = sum(row[1] for row in counts.values())
    by_kind = {
        label: KindArea(row[0], row[1], row[2],
                        row[2] / total_sigma if total_sigma else 0.0)
        for label, row in sorted(counts.items())
    }
    return AreaReport(total_sigma, total_t, by_kind)


# --------------------------------------------------------------------------
# JSON interchange


# ElectricalParams' numbers, in field order
_PARAMS = ("supply_voltage", "input_cap_per_pin", "drive_resistance_ref",
           "intrinsic_delay", "threshold_voltage")


def _inv_to_json(inv: TransistorInventory) -> list:
    return [list(e) for e in inv.entries]


def to_json(c: Circuit) -> dict:
    """Lossless netlist interchange form. Each port, net and instance entry,
    and an instance's ``pins`` and ``pin_encodings``, is a dict of its own;
    the nested encoding dicts and inventory lists are formatted once per
    distinct encoding or primitive and shared: copy one to change it. A
    net's ``driver`` is derived by :func:`_drivers`, null for none."""
    # keyed by id(): the circuit keeps every encoding and primitive alive
    encs: dict = {}
    prims: dict = {}
    driven = _drivers(c)

    def enc(e: SignalEncoding) -> dict:
        return encs.get(id(e)) or encs.setdefault(
            id(e), {"name": e.name, "level_voltages": list(e.level_voltages)})

    def prim(p: GatePrimitive) -> dict:
        return prims.get(id(p)) or prims.setdefault(id(p), {
            "kind": p.kind, **{f: getattr(p.params, f) for f in _PARAMS},
            "output_encoding": enc(p.params.output_encoding),
            "inventory": _inv_to_json(p.inventory)})

    meta = dict(c.metadata)
    if "cell_inventory_overrides" in meta:
        meta["cell_inventory_overrides"] = {
            tag: _inv_to_json(inv)
            for tag, inv in meta["cell_inventory_overrides"].items()
        }
    return {
        "name": c.name,
        "ports": [
            {"name": p.name, "direction": p.direction, "encoding": enc(p.encoding), "net": p.net}
            for p in c.ports.values()
        ],
        "nets": [
            {"id": n.id, "encoding": enc(n.encoding), "driver": driven.get(n.id),
             "external_load": n.external_load}
            for n in c.nets.values()
        ],
        "instances": [
            {"id": i.id, **prim(i.primitive), "pins": dict(i.pins),
             "pin_encodings": {p: enc(e) for p, e in i.pin_encodings.items()},
             "cell_tag": i.cell_tag}
            for i in c.instances.values()
        ],
        "metadata": meta,
    }


def _drivers(c: Circuit, strict: bool = False) -> dict:
    """Each driven net id's interchange ``driver`` entry: its constant, else
    the first input port on it, else the first gate output bound to it. An
    unhashable binding drives nothing; ``strict`` raises NetlistError
    naming a net that a gate output drives again."""
    driven = {n.id: list(n.driver) for n in c.nets.values() if n.driver}
    bound = [(p.net, ["port", p.name]) for p in c.input_ports()]
    bound += [(i.pins.get(pin), ["inst", i.id, pin])
              for i in c.instances.values() for pin in i.primitive.output_pins]
    for nid, entry in bound:
        try:
            if driven.setdefault(nid, entry) is not entry and strict and entry[0] == "inst":
                raise NetlistError(f"net {nid!r} already driven")
        except TypeError:
            pass
    return driven


# what a malformed field raises while an interchange entry is parsed
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError)
_KIND_SET = frozenset(KINDS)
# the fields of each kind of entry, read at once: a KeyError names the one missing
_NET_FIELDS = operator.itemgetter("id", "encoding", "driver", "external_load")
_INSTANCE_FIELDS = operator.itemgetter("id", "kind", *_PARAMS, "output_encoding", "inventory",
                                       "pins", "pin_encodings", "cell_tag")
_PORT_FIELDS = operator.itemgetter("name", "direction", "encoding", "net")


def _malformed(kind: str, entry, key: str | None, exc: Exception) -> NetlistError:
    """The NetlistError for a ``kind`` entry (or the whole netlist) whose
    field ``key`` raised ``exc`` while parsed. ``key`` is None while the
    fields are read (a KeyError names the missing one) and where the
    message names the field."""
    name = "name" if kind == "port" else "id"
    what = kind if kind == "netlist" else (
        f"{kind} {entry.get(name)!r}" if isinstance(entry, dict) else f"{kind} {entry!r}")
    why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return NetlistError(f"{what}: {why}" if key is None else f"{what}: field {key!r}: {why}")


def from_json(data: dict) -> Circuit:
    """Rebuild a circuit from its interchange form. Equal encodings become
    one :class:`SignalEncoding`, and instances with equal kind, electrical
    numbers, output encoding and inventory share one :class:`GatePrimitive`,
    as in a :func:`build_cpa` chain. Raises NetlistError naming the port,
    net or instance and the field on a missing or malformed field, a
    duplicate id, a bad number, a constant level outside its net's
    encoding, a pin unbound or bound to a missing net, a second driver, or
    a net's ``driver`` other than the one :func:`_drivers` derives."""
    encs: dict = {}
    prims: dict = {}

    def enc(d: dict) -> SignalEncoding:
        key = (d["name"], tuple(d["level_voltages"]))
        return encs.get(key) or encs.setdefault(key, SignalEncoding(*key))

    kind, entry, key = "netlist", data, None  # what is being parsed, for _malformed
    nets, instances, ports = {}, {}, {}
    try:
        name = data["name"]
        for key in ("ports", "nets", "instances"):
            if not isinstance(data.get(key), list):
                raise TypeError(f"expected a list, got {data.get(key)!r}")
        key = "metadata"
        meta = dict(data.get(key, {}))
        if "cell_inventory_overrides" in meta:
            meta["cell_inventory_overrides"] = {
                tag: _parse_inventory(raw)
                for tag, raw in meta["cell_inventory_overrides"].items()
            }

        kind = "net"
        for entry in data["nets"]:
            key = None
            nid, encoding, driver, load = _NET_FIELDS(entry)
            key = "id"
            if nid in nets:
                raise ValueError("another net has this id")
            key = "encoding"
            encoding = enc(encoding)
            key = "driver"
            if driver is not None and not isinstance(driver, list):
                raise TypeError(f"expected null or a list, got {driver!r}")
            driver = tuple(driver) if driver and driver[0] == "const" else None
            nets[nid] = Net(nid, encoding, driver, load)

        kind = "instance"
        for entry in data["instances"]:
            key = None
            iid, gate, *nums, out_enc, rows, pins, pin_encodings, tag = _INSTANCE_FIELDS(entry)
            key = "id"
            if iid in instances:
                raise ValueError("another instance has this id")
            key = "kind"
            if gate not in _KIND_SET:
                raise ValueError(f"unknown gate kind {gate!r}")
            key = "output_encoding"
            out_enc = enc(out_enc)
            key = "inventory"
            pkey = (gate, *nums, out_enc, tuple(map(tuple, rows)))
            try:
                prim = prims.get(pkey)
            except TypeError:  # a value that is no number: parsing below names it
                prim = None
            if prim is None:
                inventory = _parse_inventory(rows)
                key = None  # ElectricalParams names the field
                prim = prims[pkey] = GatePrimitive(gate, ElectricalParams(*nums, out_enc), inventory)
            key = "pin_encodings"
            pin_encodings = {p: enc(e) for p, e in pin_encodings.items()}
            key = "pins"
            pins = dict(pins)
            for pin in prim.input_pins + prim.output_pins:
                if pins.get(pin) not in nets:
                    what = f"bound to missing net {pins[pin]!r}" if pin in pins else "unbound"
                    raise NetlistError(f"instance {iid!r} pin {pin!r} {what}")
            instances[iid] = Instance(iid, prim, pins, pin_encodings, tag)

        kind = "port"
        for entry in data["ports"]:
            key = None
            pname, direction, encoding, net = _PORT_FIELDS(entry)
            key = "name"
            if pname in ports:
                raise ValueError("another port has this name")
            key = "direction"
            if direction not in ("in", "out"):
                raise ValueError(f"expected 'in' or 'out', got {direction!r}")
            key = "encoding"
            ports[pname] = Port(pname, direction, enc(encoding), net)

        circuit = Circuit(name, ports, nets, instances, meta)
        driven = _drivers(circuit, strict=True)
        kind, key = "net", "driver"
        for entry in data["nets"]:
            if entry["driver"] != driven.get(entry["id"]):
                raise ValueError(f"got {entry['driver']!r}, but the netlist gives "
                                 f"{driven.get(entry['id'])!r}")
    except NetlistError:
        raise
    except _MALFORMED as exc:
        raise _malformed(kind, entry, key, exc) from None
    return circuit


def dump_netlist(c: Circuit, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(c), fh, indent=2, sort_keys=True)


def load_netlist(path: str | Path) -> Circuit:
    with open(path) as fh:
        return from_json(json.load(fh))
