"""Circuit graph plus generators for the adder cells and ripple chains.

A :class:`Circuit` stores ports, nets and gate instances whose pins name
nets by id; a net stores its id, encoding, external load and, for a supply
tie, its level. The rest (each net's driver and load, validity, gate order
and logic levels) is derived from the pins by the one pass of
:func:`_analyse`, run at most once per circuit and stored on it. A circuit
is a value: its records and maps are read-only, so what is derived from it
cannot go stale. To edit one, build new records and call
``dataclasses.replace(circuit, instances=...)``; the copy is analysed and
compiled afresh. Generators assign deterministic identifiers so reports
and traces are reproducible run to run.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .gates import (
    KINDS,
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    TransistorInventory,
    _parse_inventory,
    input_pins,
    inventory_area,
    output_pins,
)
from .levels import DomainError, Level, SignalEncoding, binary_full, quaternary, third_swing


class NetlistError(ValueError):
    """Structural problem that prevents building or using a circuit."""


def _frozen(m) -> MappingProxyType:
    """A read-only map over a private copy of ``m``; ``copy()`` where it has
    one, as ``dict()`` of a mappingproxy is several times slower."""
    return MappingProxyType(m.copy() if type(m) in (dict, MappingProxyType) else dict(m))


# NamedTuple's own _make, which _replace calls, would skip a subclass's __new__
_MAKE = classmethod(lambda cls, fields: cls(*fields))


class Net(namedtuple("Net", "id encoding driver external_load", defaults=(None, 0.0))):
    """A wire (immutable). ``driver`` is None, or ("const", level) for a
    supply tie, the level an int below the encoding's radix. The port or
    gate that drives any other net, and each net's load, are derived from
    the pins by :func:`_analyse`."""

    __slots__ = ()
    _make = _MAKE

    def __new__(cls, id, encoding, driver=None, external_load=0.0):
        try:
            ok = 0 <= external_load < math.inf  # NaN fails too
        except TypeError:  # not a number
            ok = False
        if not ok:
            raise NetlistError(f"net {id!r}: external_load must be a finite number >= 0, "
                               f"got {external_load!r}")
        if driver is not None and not (len(driver) == 2 and driver[0] == "const"
                                       and type(driver[1]) is int
                                       and 0 <= driver[1] < encoding.radix):
            raise NetlistError(f"net {id!r}: driver must be ('const', level) with an int "
                               f"level in [0, {encoding.radix}), got {driver!r}")
        return tuple.__new__(cls, (id, encoding, driver, external_load))


class Instance(namedtuple("Instance", "id primitive pins pin_encodings cell_tag",
                          defaults=("cell0",))):
    """A gate (immutable). ``pins`` maps each pin to a net id and
    ``pin_encodings`` each input pin to the SignalEncoding expected there;
    both are read-only maps over copies of the maps given."""

    __slots__ = ()
    _make = _MAKE

    def __new__(cls, id, primitive, pins, pin_encodings, cell_tag="cell0"):
        return tuple.__new__(cls, (id, primitive, _frozen(pins), _frozen(pin_encodings), cell_tag))


def _instance(*fields) -> Instance:
    """An Instance over read-only maps that this module made or took from a
    record, shared as they are, without the constructor's copies."""
    return tuple.__new__(Instance, fields)


#: A circuit terminal (immutable): ``direction`` is "in" or "out".
Port = namedtuple("Port", "name direction encoding net")


@dataclass(frozen=True)
class Circuit:
    """A circuit (immutable), its maps read-only copies of the maps given.
    Its one pass and compiled form are derived on first use and kept; a
    copy made by ``dataclasses.replace`` starts without them."""

    name: str
    ports: Mapping  # name -> Port
    nets: Mapping  # id -> Net
    instances: Mapping  # id -> Instance
    metadata: Mapping = field(default_factory=dict)
    _analysis = None  # not fields: set on first use by _analysed
    _compiled = None  # and by _kernel.compile_circuit

    def __post_init__(self):
        for name in ("ports", "nets", "instances", "metadata"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

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
             data_enc: SignalEncoding | None = None) -> None:
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
        self.instances[iid] = _instance(iid, prim, MappingProxyType(dict(pins)),
                                        MappingProxyType(pin_enc), cell_tag)

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
            self.instances[new_iid] = _instance(new_iid, inst.primitive,
                                                MappingProxyType(new_pins), inst.pin_encodings, tag)
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
    cycle diagnostic names the gates on it, not those behind it. A fresh
    copy of the diagnostics of :func:`_analyse`; computing delays is left to
    compiling."""
    return list(_analysed(c).diags)


_CODES = 5  # codes of one input pin: X, L0..L3; a gate's pins are its base-5 digits


def _kind_plan(kind: str, ins: tuple) -> tuple:
    """A kind's input and output pins, its input pins' base-5 weights and
    their sum, and the positions of its data inputs if it is a mux."""
    weights = [_CODES ** j for j in range(len(ins) - 1, -1, -1)]
    data = [k for k, pin in enumerate(ins) if kind.startswith("mux") and pin[0] == "d"]
    return ins, output_pins(kind), weights, sum(weights), data


_KIND_PLANS = {kind: _kind_plan(kind, input_pins(kind)) for kind in KINDS}


# what _analyse derives from a circuit's pins; see there
_Analysis = namedtuple("_Analysis", "diags net_index net_cap gate_in gate_out fanout order level "
                                    "driver bad_pins again")


def _analysed(c: Circuit) -> _Analysis:
    """The one pass of :func:`_analyse` over ``c``, run on first use and
    stored on it (a circuit cannot change)."""
    if c._analysis is None:
        object.__setattr__(c, "_analysis", _analyse(c))
    return c._analysis


def _analyse(c: Circuit) -> _Analysis:
    """One pass that resolves every pin of ``c`` to a net index exactly once.

    Gives :func:`validate`'s diagnostics; each net id's index (``c.nets``
    order); per net its load, the external load plus the input cap of each
    pin it feeds, summed in instance and pin order (0 for a supply tie,
    which switches nothing); per gate (``c.instances`` order) its input nets
    in pin order and its output nets; per net the gates it feeds as (gate,
    summed base-5 weight of the pins it drives), the first of k input pins
    weighing 5 ** (k - 1); the gate indices in Kahn order, every gate after
    the drivers of its inputs; per gate its logic level, 1 + its inputs'
    highest (an undriven net is 0), or 0 for a gate never ordered; per net
    its first driver (its constant, else the first input port, else the
    first gate output on it) or None; each (instance id, pin) unbound or
    bound to no net; and each (net, driver) after a net's first.

    Kahn's algorithm runs in waves of nets, and a gate is released when the
    weights of its arrived inputs sum to its bound pins' weights, so a
    gate's level is the wave that brings its last input. The gates it never
    releases lie on or behind a cycle; those feeding no other such gate are
    peeled from the sinks back, in linear time, and each one left is named
    by a cycle diagnostic. The graph is meaningful only when ``diags`` is
    empty (an unbound input pin reads net -1 in ``gate_in``)."""
    diags: list[str] = []
    net_ids = list(c.nets)
    index = {nid: i for i, nid in enumerate(net_ids)}
    _, encs, const, cap = zip(*c.nets.values()) if net_ids else [()] * 4  # the nets' fields
    driver, cap = list(const), list(cap)
    again: list = []  # (net, driver) past a net's first
    bad_pins: list = []
    for port in c.ports.values():
        i = _index_of(index, port.net)
        if i < 0:
            diags.append(f"port {port.name}: net {port.net!r} does not exist")
        elif port.direction == "in":
            if driver[i] is None:
                driver[i] = ("port", port.name)
            else:
                again.append((i, ("port", port.name)))

    gate_in, gate_out, wait = [], [], []  # wait: the weights of a gate's inputs yet to arrive
    fanout: list[list] = [[] for _ in net_ids]
    for g, (iid, prim, pins, pin_enc, _) in enumerate(c.instances.values()):
        in_pins, out_pins, weights, total, data = _KIND_PLANS[prim.kind]
        pin_cap, out_enc = prim.params.input_cap_per_pin, prim.params.output_encoding
        try:
            ins = [index[pins[pin]] for pin in in_pins]
            outs = [index[pins[pin]] for pin in out_pins]
            bound_in, bound_out = zip(in_pins, ins, weights), zip(out_pins, outs)
        except (KeyError, TypeError):  # report each pin unbound or bound to no net; skip it
            ins, outs = ([_index_of(index, pins.get(p)) for p in ps] for ps in (in_pins, out_pins))
            for pin, i in zip(in_pins + out_pins, ins + outs):
                if i < 0:
                    bad_pins.append((iid, pin))
                    diags.append(f"{iid}.{pin}: net {pins[pin]!r} does not exist"
                                 if pin in pins else f"{iid}: pin {pin} unbound")
            bound_in = [(pin, i, w) for pin, i, w in zip(in_pins, ins, weights) if i >= 0]
            bound_out = [(pin, o) for pin, o in zip(out_pins, outs) if o >= 0]
            outs = [o for _, o in bound_out]
            total = sum(w for _, _, w in bound_in)
        for pin, i, w in bound_in:
            cap[i] += pin_cap
            feeds = fanout[i]
            if feeds and feeds[-1][0] == g:  # one net on two pins of a gate
                feeds[-1] = (g, feeds[-1][1] + w)
            else:
                feeds.append((g, w))
            want, got = pin_enc.get(pin), encs[i]
            if want is not None and want is not got and want.level_voltages != got.level_voltages:
                diags.append(f"encoding-mismatch: {iid}.{pin} expects {want.name}, "
                             f"net {net_ids[i]} carries {got.name}")
        for k in data:  # a mux passes its data through: none may have more levels than its output
            got = encs[ins[k]]
            if got is not out_enc and ins[k] >= 0 and got.radix > out_enc.radix:
                diags.append(f"mux-data-too-wide: {iid}.{in_pins[k]} carries {got.name}, "
                             f"more levels than its output {out_enc.name}")
        for pin, o in bound_out:
            if driver[o] is None:
                driver[o] = ("inst", iid, pin)
            else:
                again.append((o, ("inst", iid, pin)))
            got = encs[o]
            if got is not out_enc and got.level_voltages != out_enc.level_voltages:
                diags.append(f"encoding-mismatch: {iid}.{pin} drives {out_enc.name}, "
                             f"net {net_ids[o]} declared {got.name}")
        gate_in.append(ins)
        gate_out.append(outs)
        wait.append(total)

    cap = [0.0 if k else x for k, x in zip(const, cap)]  # a supply tie switches nothing
    more: dict = {}
    for i, d in again:
        more.setdefault(i, [driver[i]]).append(d)
    for i in sorted([i for i, d in enumerate(driver) if d is None] + list(more)):
        diags.append(f"undriven net {net_ids[i]!r}" if driver[i] is None else
                     f"multiple-driver net {net_ids[i]!r}: {sorted(str(d) for d in more[i])}")

    if c.metadata.get("adder_cell") and not _ADDER_PORTS <= set(c.ports):
        diags.append(f"adder cell missing ports {sorted(_ADDER_PORTS - set(c.ports))}")

    driven = set(itertools.chain.from_iterable(gate_out))
    wave = [i for i in range(len(net_ids)) if i not in driven]
    arrived = bytearray(len(net_ids))
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
    return _Analysis(diags, index, cap, gate_in, gate_out, fanout, order, level, driver,
                     bad_pins, again)


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
        return asdict(self)


def area_report(c: Circuit) -> AreaReport:
    """Diameter-sum area breakdown per gate kind.

    Cells with an inventory override (cell_inventory_overrides metadata)
    contribute their declared inventory as one "<kind>_cell" entry instead
    of their gates' summed inventories.
    """
    overrides: dict = c.metadata.get("cell_inventory_overrides", {})
    cell_kinds: dict = c.metadata.get("cell_kinds", {})
    counts: dict[str, list] = {}
    # canonical accumulation order: totals are invariant under instance
    # reordering despite float addition
    parts = [(inst.primitive.kind, inst.primitive.inventory)
             for _, inst in sorted(c.instances.items()) if inst.cell_tag not in overrides]
    parts += [(f"{cell_kinds.get(tag, tag)}_cell", overrides[tag]) for tag in sorted(overrides)]
    for label, inv in parts:
        row = counts.setdefault(label, [0, 0, 0.0])
        row[0] += 1
        row[1] += inv.total_count
        row[2] += inventory_area(inv)

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
    net's ``driver`` is its first driver from :func:`_analyse`, null for
    none."""
    # keyed by id(): the circuit keeps every encoding and primitive alive
    encs: dict = {}
    prims: dict = {}
    driver = _analysed(c).driver

    def enc(e: SignalEncoding) -> dict:
        return encs.get(id(e)) or encs.setdefault(
            id(e), {"name": e.name, "level_voltages": list(e.level_voltages)})

    def prim(p: GatePrimitive) -> dict:
        return prims.get(id(p)) or prims.setdefault(id(p), {
            "kind": p.kind, **{f: getattr(p.params, f) for f in _PARAMS},
            "output_encoding": enc(p.params.output_encoding),
            "inventory": _inv_to_json(p.inventory)})

    meta = c.metadata.copy()
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
            {"id": n.id, "encoding": enc(n.encoding), "driver": d and list(d),
             "external_load": n.external_load}
            for n, d in zip(c.nets.values(), driver)
        ],
        "instances": [
            {"id": i.id, **prim(i.primitive), "pins": i.pins.copy(),
             "pin_encodings": {p: enc(e) for p, e in i.pin_encodings.items()},
             "cell_tag": i.cell_tag}
            for i in c.instances.values()
        ],
        "metadata": meta,
    }


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
    as in a :func:`build_cpa` chain. Interning looks an entry up by a cheap
    key, an encoding's name or an instance's kind, numbers and interned
    output encoding, and confirms the hit by comparing the stored voltages
    or inventory rows with ``==``; a miss falls back to the full value key.
    No input dict is keyed by identity, so a dict parsed from a file loads
    by the same path as one shared by :func:`to_json`. Raises NetlistError
    naming the port, net or instance and the field on a missing or
    malformed field, a duplicate id, a bad number, a constant level outside
    its net's encoding, and, from the circuit's one pass, a pin unbound or
    bound to a missing net, a gate output on a net already driven, or a
    net's ``driver`` other than its first driver."""
    encs: dict = {}  # (name, voltages) -> SignalEncoding
    by_name: dict = {}  # name -> (voltages as given, SignalEncoding)
    prims: dict = {}  # (kind, *numbers, output encoding, inventory) -> primitive entry
    by_numbers: dict = {}  # (kind, *numbers, id(output encoding)) -> primitive entry
    # a primitive entry: (inventory rows as given, GatePrimitive)
    pin_maps: dict = {}  # (*pins, *ids of their encodings) -> one read-only pin_encodings map

    def enc(d: dict) -> SignalEncoding:
        name, volts = d["name"], d["level_voltages"]
        try:
            hit = by_name.get(name)
            if hit is not None and hit[0] == volts:
                return hit[1]
        except (TypeError, ValueError):  # the value key below names what is wrong
            pass
        key = (name, tuple(volts))
        e = encs.get(key) or encs.setdefault(key, SignalEncoding(*key))
        by_name[name] = (volts, e)
        return e

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
            try:
                cheap = (gate, *nums, id(out_enc))
                hit = by_numbers.get(cheap)
                if hit is not None and hit[0] != rows:
                    hit = None
            except (TypeError, ValueError):  # a value that is no number: parsing below names it
                cheap = hit = None
            if hit is None:
                pkey = (gate, *nums, out_enc, tuple(map(tuple, rows)))
                try:
                    hit = prims.get(pkey)
                except TypeError:
                    pass
                if hit is None:
                    inventory = _parse_inventory(rows)
                    key = None  # ElectricalParams names the field
                    prim = GatePrimitive(gate, ElectricalParams(*nums, out_enc), inventory)
                    hit = prims[pkey] = (rows, prim)
                if cheap is not None:
                    by_numbers[cheap] = hit
            prim = hit[1]
            key = "pin_encodings"
            pin_encodings = {p: enc(e) for p, e in pin_encodings.items()}
            shared = (*pin_encodings, *map(id, pin_encodings.values()))
            pin_encodings = pin_maps.get(shared) or pin_maps.setdefault(
                shared, MappingProxyType(pin_encodings))
            key = "pins"
            instances[iid] = _instance(iid, prim, MappingProxyType(dict(pins)), pin_encodings, tag)

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
        a = _analysed(circuit)
        for iid, pin in a.bad_pins[:1]:
            kind, entry, key, pins = "instance", {"id": iid}, "pins", instances[iid].pins
            hash(pins.get(pin))  # a net id that cannot be one is a malformed field
            what = f"bound to missing net {pins[pin]!r}" if pin in pins else "unbound"
            raise NetlistError(f"instance {iid!r} pin {pin!r} {what}")
        for i, d in a.again:
            if d[0] == "inst":
                raise NetlistError(f"net {list(nets)[i]!r} already driven")
        kind, key = "net", "driver"
        for entry, d in zip(data["nets"], a.driver):
            got = entry["driver"]
            if (got and tuple(got)) != d:
                raise ValueError(f"got {got!r}, but the netlist gives {d and list(d)!r}")
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
