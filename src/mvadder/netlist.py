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

import contextlib
import gc
import itertools
import json
import math
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .gates import (
    ELECTRICAL_NUMBERS,
    KIND_SPECS,
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    TransistorInventory,
    _parse_inventory,
    inventory_area,
)
from .levels import (MAX_DIGITS, Level, SignalEncoding, binary_full, is_finite, quaternary,
                     third_swing, whole)


class NetlistError(ValueError):
    """Structural problem that prevents building or using a circuit."""


class _CollectorPause(contextlib.ContextDecorator):
    """Pauses the cyclic garbage collector over a ``with gc_paused:`` block
    or, as ``@gc_paused``, over each call. mvadder pauses it inside its bulk
    netlist, STA and simulate calls: a circuit's many records are acyclic
    and long-lived, so a full collection walks them all and frees nothing.
    The caller's state comes back on exit, on an exception too: the
    outermost pause turns the collector off only if it was on and on again
    only then. Pauses nest and are safe across threads: one lock and one
    depth count serve all of them. It never collects, freezes or retunes the
    collector; those are the caller's process-wide choices."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0  # pauses open, in all threads
        self._restore = False  # whether the collector was on when the outermost opened

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore:
                gc.enable()


gc_paused = _CollectorPause()


def _frozen(m) -> MappingProxyType:
    """A read-only map over a private copy of ``m``; ``copy()`` where it has
    one, as ``dict()`` of a mappingproxy is several times slower."""
    return MappingProxyType(m.copy() if type(m) in (dict, MappingProxyType) else dict(m))


def _deep_frozen(v):
    """``v`` read-only at every depth: a map becomes a read-only map and a
    list or tuple a tuple, each over frozen copies of its values. One frame
    per level (``map``, no comprehension), so any nesting ``json`` parses fits."""
    if isinstance(v, (dict, MappingProxyType)):
        return MappingProxyType(dict(zip(v, map(_deep_frozen, v.values()))))
    return tuple(map(_deep_frozen, v)) if type(v) in (list, tuple) else v


def _thawed(v):
    """A value frozen by :func:`_deep_frozen` as plain dicts and lists, and
    an inventory as its rows."""
    if type(v) is MappingProxyType:
        return dict(zip(v, map(_thawed, v.values())))
    v = v.entries if type(v) is TransistorInventory else v
    return list(map(_thawed, v)) if type(v) is tuple else v


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
        if not (type(external_load) is float and 0.0 <= external_load < math.inf
                or is_finite(external_load) and external_load >= 0):
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
    """A circuit (immutable). Its maps are read-only copies of those given,
    and so is its metadata at every depth: a map in it is a read-only map
    and a list a tuple.
    Its one pass and compiled form are derived on first use and kept; a
    copy made by ``dataclasses.replace`` starts without them."""

    name: str
    ports: Mapping  # name -> Port
    nets: Mapping  # id -> Net
    instances: Mapping  # id -> Instance
    metadata: Mapping = field(default_factory=dict)
    _analysis = None  # not fields: set on first use by _analysed
    _compiled = None  # and by _kernel.compile_circuit
    _adder_ports = None  # and by verify._adder_ports

    def __post_init__(self):
        for name in ("ports", "nets", "instances"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "metadata", _deep_frozen(dict(self.metadata)))

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
             pins: Mapping[str, str], inventory: TransistorInventory | None = None) -> None:
        """Add one gate; each input pin expects the encoding of the net bound to it."""
        if iid in self.instances:
            raise NetlistError(f"duplicate instance id {iid!r}")
        prim = self.lib.make_primitive(kind, supply, out_enc, inventory)
        pin_enc = {pin: self.nets[pins[pin]].encoding for pin in KIND_SPECS[kind].inputs}
        self.instances[iid] = _instance(iid, prim, MappingProxyType(dict(pins)),
                                        MappingProxyType(pin_enc), "cell0")

    def copy_cell(self, cell: Circuit, prefix: str, tag: str,
                  port_nets: Mapping[str, str]) -> None:
        """Instantiate ``cell`` with every internal id prefixed; cell ports
        are stitched onto existing builder nets per ``port_nets``. A copied
        net is the cell's checked record under its new id, load and all."""
        mapped = {port.net: port_nets[name] for name, port in cell.ports.items()}
        for nid, net in cell.nets.items():
            if nid not in mapped:
                new_id = mapped[nid] = prefix + nid
                if new_id in self.nets:
                    raise NetlistError(f"duplicate net id {new_id!r}")
                self.nets[new_id] = tuple.__new__(Net, (new_id, *net[1:]))
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


def _check_vdd(vdd) -> None:
    """A NetlistError naming ``vdd`` unless it is an int or float (not a bool), finite and > 0."""
    if not (isinstance(vdd, (int, float)) and is_finite(vdd) and vdd > 0):
        raise NetlistError(f"vdd must be a finite number > 0, got {vdd!r}")


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
    variant = variant.lower() if isinstance(variant, str) else variant
    if variant not in ("qfa1", "qfa2"):
        raise NetlistError(f"unknown quaternary variant {variant!r}")
    _check_vdd(vdd)
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
            "sel": a_net, "y": ncout0})
    b.inst("mux_ncout1", "mux4", vdd, enc_b,
           {"d0": rails[3], "d1": rails[2], "d2": rails[1], "d3": zero,
            "sel": a_net, "y": ncout1})

    ncout = b.net("n_ncout", enc_b)
    b.inst("mux2_sum", "mux2", vdd, enc_q,
           {"d0": sum0, "d1": sum1, "sel": cin, "y": sum_net})
    b.inst("mux2_cout", "mux2", vdd, enc_b,
           {"d0": ncout0, "d1": ncout1, "sel": cin, "y": ncout})
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
    variant = variant.lower() if isinstance(variant, str) else variant
    if variant not in ("bfa1", "bfa2"):
        raise NetlistError(f"unknown binary variant {variant!r}")
    _check_vdd(vdd)
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


@gc_paused
def build_cpa(cell: Circuit, n_digits: int, cl: float = 0.0) -> Circuit:
    """Ripple chain of ``n_digits`` copies of a 1-digit adder cell.

    Ports: A0..A{n-1}, B0.., C0 in; S0.., C{n} out. Each copy keeps the
    external load of each of the cell's internal nets. The external load
    ``cl`` hangs on every sum output and on the final carry.
    """
    n_digits = whole("n_digits", n_digits, low=1, high=MAX_DIGITS)
    missing = _ADDER_PORTS - set(cell.ports)
    if missing:
        raise NetlistError(f"cell lacks adder ports: {sorted(missing)}")
    if cell.ports["Cout"].encoding.level_voltages != cell.ports["Cin"].encoding.level_voltages:
        raise NetlistError("cell carry-in and carry-out encodings differ; not chainable")

    b = _chain(f"{cell.name}_cpa{n_digits}", cell, [f"C{i}" for i in range(n_digits + 1)],
               "d", cl)
    meta = {k: v for k, v in cell.metadata.items()
            if k not in ("adder_cell", "cell_kinds", "cell_inventory_overrides")}
    return b.finalize(n_digits=n_digits, cl=cl, **meta)


def _chain(name: str, cell: Circuit, carries, prefix: str, cl: float) -> _Builder:
    """A builder holding copy i of ``cell`` (ids prefixed ``{prefix}{i}.``,
    tagged ``{prefix}{i}``) for each link ``carries[i]`` -> ``carries[i + 1]``
    of the carry chain, with ports A{i}, B{i} in and S{i} out. The first
    carry is an in port, the last an out port; ``cl`` loads every out port."""
    enc_d, enc_c = cell.ports["A"].encoding, cell.ports["Cin"].encoding
    b = _Builder(name, CellLibrary.default())
    b.port(carries[0], "in", enc_c)
    for nid in carries[1:-1]:
        b.net(nid, enc_c)
    b.port(carries[-1], "out", enc_c, external_load=cl)
    for i in range(len(carries) - 1):
        a = b.port(f"A{i}", "in", enc_d)
        bb = b.port(f"B{i}", "in", enc_d)
        s = b.port(f"S{i}", "out", enc_d, external_load=cl)
        b.copy_cell(cell, f"{prefix}{i}.", f"{prefix}{i}",
                    {"A": a, "B": bb, "Cin": carries[i], "Sum": s, "Cout": carries[i + 1]})
    return b


def build_binary_slice(variant: str, vdd: float = 0.9,
                       lib: CellLibrary | None = None, cl: float = 0.0) -> Circuit:
    """Two chained binary cells covering one quaternary digit.

    Ports A0/A1, B0/B1 (bit 0 = LSB), Cin, S0/S1, Cout.
    """
    variant = variant.lower() if isinstance(variant, str) else variant
    b = _chain(f"{variant}x2", build_bfa(variant, vdd, lib), ("Cin", "C1", "Cout"), "b", cl)
    return b.finalize(variant=f"{variant}x2", vdd=vdd, cl=cl)


CELL_KINDS = ("qfa1", "qfa2", "bfa1", "bfa2", "bfa1x2", "bfa2x2")


def build_cell(kind: str, vdd: float = 0.9, lib: CellLibrary | None = None,
               cl: float = 0.0) -> Circuit:
    """The adder cell of ``kind``, one of :data:`CELL_KINDS`: a quaternary or
    binary cell, or (``bfa1x2``, ``bfa2x2``) a two-cell binary slice."""
    kind = kind.lower() if isinstance(kind, str) else kind
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


# what _analyse derives from a circuit's pins; see there
_Analysis = namedtuple("_Analysis", "diags net_index net_cap gate_in gate_out fanout order "
                                    "driver bad_pins again")


def _analysed(c: Circuit) -> _Analysis:
    """The one pass of :func:`_analyse` over ``c``, run on first use and
    stored on it (a circuit cannot change)."""
    if c._analysis is None:
        object.__setattr__(c, "_analysis", _analyse(c))
    return c._analysis


@gc_paused
def _analyse(c: Circuit) -> _Analysis:
    """One pass that resolves every pin of ``c`` to a net index exactly once.

    Gives :func:`validate`'s diagnostics; each net id's index (``c.nets``
    order); per net its load as a float, the external load plus the input
    cap of each pin it feeds, summed in instance and pin order (0 for a
    supply tie, which switches nothing); per gate (``c.instances`` order)
    its input nets in pin order and its output nets; per net the gates it
    feeds as (gate, summed row weight of the pins it drives, see
    :class:`gates.KindSpec`); the gate indices in Kahn order, every gate
    after the drivers of its inputs; per net its first driver (its
    constant, else the first input port, else the first gate output on it)
    or None; each (instance id, pin) unbound or bound to no net; and each
    (net, driver) after a net's first.

    Kahn's algorithm runs in waves of nets, and a gate is released when the
    weights of its arrived inputs sum to its bound pins' weights. The gates
    it never releases lie on or behind a cycle; those feeding no other such
    gate are peeled from the sinks back, in linear time, and each one left
    is named by a cycle diagnostic. The graph is meaningful only when ``diags`` is
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
            continue
        want, got = port.encoding, encs[i]
        if want is not got and want.level_voltages != got.level_voltages:
            diags.append(f"encoding-mismatch: port {port.name} expects {want.name}, "
                         f"net {net_ids[i]} carries {got.name}")
        if port.direction == "in":
            if driver[i] is None:
                driver[i] = ("port", port.name)
            else:
                again.append((i, ("port", port.name)))

    gate_in, gate_out, wait = [], [], []  # wait: the weights of a gate's inputs yet to arrive
    fanout: list[list] = [[] for _ in net_ids]
    for g, (iid, prim, pins, pin_enc, _) in enumerate(c.instances.values()):
        (in_pins, out_pins, weights, data), in_get, out_get, total = _KIND_PLANS[prim.kind]
        pin_cap, out_enc = prim.params.input_cap_per_pin, prim.params.output_encoding
        try:
            ins = list(map(index.__getitem__, in_get(pins)))
            outs = list(map(index.__getitem__, out_get(pins)))
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

    cap = [0.0 if k else float(x) for k, x in zip(const, cap)]  # a supply tie switches nothing
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
    while wave:
        nxt: list[int] = []
        for i in wave:
            if arrived[i]:  # a net driven twice arrives with its first driver
                continue
            arrived[i] = 1
            for g, w in fanout[i]:
                wait[g] -= w
                if not wait[g]:
                    order.append(g)
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
    return _Analysis(diags, index, cap, gate_in, gate_out, fanout, order, driver, bad_pins, again)


def _tuple_getter(pins: tuple):
    """A getter of ``pins`` from a map, as a tuple for one pin too."""
    return operator.itemgetter(*pins) if len(pins) > 1 else lambda m, pin=pins[0]: (m[pin],)


# per gate kind: its KindSpec, getters of its input and output pins' nets, its inputs' weight
_KIND_PLANS = {kind: (spec, _tuple_getter(spec.inputs), _tuple_getter(spec.outputs),
                      sum(spec.weights)) for kind, spec in KIND_SPECS.items()}


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


#: The ``format`` of the interchange form that :func:`to_json` writes
FORMAT = "mvadder-netlist-2"


@gc_paused
def to_json(c: Circuit) -> dict:
    """Lossless netlist interchange form, :data:`FORMAT`. Each distinct
    encoding, primitive and ``pin_encodings`` map (by :func:`_table_key`:
    values equal but of other types, as 1 and 1.0, are distinct) is one
    entry of its table, in order of first use, named by its index. Every
    entry is a dict of its own. A net's ``driver`` is its first driver from
    :func:`_analyse`, null for none."""
    tables: dict = {"encodings": [], "primitives": [], "pin_maps": []}
    seen: dict = {}  # id(object), then (table, _table_key) -> the index of its entry

    def index(table: str, obj, entry) -> int:
        rows = tables[table]
        i = seen[id(obj)] = seen.setdefault((table, _table_key(obj, enc)), len(rows))
        if i == len(rows):
            rows.append(entry)
        return i

    def enc(e: SignalEncoding) -> int:
        if id(e) in seen:  # the circuit keeps each object alive: its id names no other
            return seen[id(e)]
        return index("encodings", e, {"name": e.name, "level_voltages": list(e.level_voltages)})

    def primitive(prim: GatePrimitive) -> int:
        out = enc(prim.params.output_encoding)  # its entry first, as the key reads it
        return index("primitives", prim, {
            "kind": prim.kind, **{f: getattr(prim.params, f) for f in ELECTRICAL_NUMBERS},
            "output_encoding": out, "inventory": [list(r) for r in prim.inventory.entries]})

    def pin_map(m: Mapping) -> int:  # keyed in any pin order: dump_netlist sorts the pins
        return index("pin_maps", m, {pin: enc(e) for pin, e in m.items()})

    data = {
        "format": FORMAT,
        "name": c.name,
        **tables,
        "ports": [
            {"name": p.name, "direction": p.direction, "encoding": enc(p.encoding), "net": p.net}
            for p in c.ports.values()
        ],
        "nets": [
            {"id": n.id, "encoding": seen[e] if (e := id(n.encoding)) in seen else enc(n.encoding),
             "driver": d and list(d), "external_load": n.external_load}
            for n, d in zip(c.nets.values(), _analysed(c).driver)
        ],
        "instances": [],
        "metadata": _thawed(c.metadata),
    }
    add = data["instances"].append  # after the nets: that order keeps the peak RSS down
    for iid, prim, pins, pin_enc, tag in c.instances.values():
        p, m = seen.get(id(prim)), seen.get(id(pin_enc))
        if p is None or m is None:
            p, m = primitive(prim), pin_map(pin_enc)
        add({"id": iid, "primitive": p, "pin_encodings": m, "pins": pins.copy(), "cell_tag": tag})
    return data


def _table_key(obj, enc) -> tuple | frozenset:
    """What makes two entries of one table one entry: an encoding's, a
    primitive's or a pin map's values and their types (1, 1.0 and True
    differ), its encodings by ``enc(encoding)``."""
    if isinstance(obj, SignalEncoding):
        v = obj.level_voltages
        return obj.name, v, *map(type, v)
    if isinstance(obj, GatePrimitive):
        nums, rows = [getattr(obj.params, f) for f in ELECTRICAL_NUMBERS], obj.inventory.entries
        return (obj.kind, *nums, *map(type, nums), enc(obj.params.output_encoding), rows,
                *map(type, itertools.chain(*rows)))
    return frozenset((pin, enc(e)) for pin, e in obj.items())


# what a malformed field raises while an interchange entry is parsed
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError)
# the fields of each kind of entry, read at once: a KeyError names the one missing
_PRIMITIVE_FIELDS = operator.itemgetter("kind", *ELECTRICAL_NUMBERS, "output_encoding", "inventory")
_NET_FIELDS = operator.itemgetter("id", "encoding", "driver", "external_load")
_INSTANCE_FIELDS = operator.itemgetter("id", "primitive", "pin_encodings", "pins", "cell_tag")
_PORT_FIELDS = operator.itemgetter("name", "direction", "encoding", "net")


def _malformed(kind: str, entry, key: str | None, exc: Exception) -> NetlistError:
    """The NetlistError for a ``kind`` entry (or the whole netlist) whose
    field ``key`` raised ``exc`` while parsed. A table entry is named by its
    index, passed as ``entry``. ``key`` is None while the fields are read (a
    KeyError names the missing one) and where the message names the field."""
    name = "name" if kind == "port" else "id"
    what = kind if kind == "netlist" else (
        f"{kind} {entry.get(name)!r}" if isinstance(entry, dict) else f"{kind} {entry!r}")
    why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return NetlistError(f"{what}: {why}" if key is None else f"{what}: field {key!r}: {why}")


@gc_paused
def from_json(data: dict) -> Circuit:
    """Rebuild a circuit from :func:`to_json`'s form. Each table entry is
    built and checked once, as one object that every index of it shares.
    Raises NetlistError naming the entry and field of a missing or malformed
    field, a bad index or number, a duplicate id, a constant level outside
    its net's encoding, a table entry equal to an earlier one (by
    :func:`_table_key`), and, from the circuit's one pass, a pin unbound or
    bound to a missing net, a second gate driving a net, or a stored
    ``driver`` other than the net's first; then a table entry named before a
    lower-numbered one, or nowhere. (to_json would merge, renumber or drop them.)"""
    kind, entry, key = "netlist", data, None  # what is being parsed, for _malformed
    encs, prims, pin_maps, nets, instances, ports = [], [], [], {}, {}, {}
    firsts: dict = {}  # (kind, _table_key) -> the index of the first such entry

    def at(table: list, i):
        if type(i) is int and 0 <= i < len(table):  # else whole checks and names it
            return table[i]
        return table[whole("index", i, low=0, high=len(table) - 1)]

    def add(table: list, obj) -> None:  # one of equal entries, to_json's twins, would merge
        first = firsts.setdefault((kind, _table_key(obj, id)), entry)  # entries: distinct objects
        if first != entry:
            raise ValueError(f"equal to {kind} {first}")
        table.append(obj)

    try:
        name = data["name"]
        key = "format"
        if data.get(key) != FORMAT:
            raise ValueError(f"expected {FORMAT!r}, got {data.get(key)!r}")
        for key in ("encodings", "primitives", "pin_maps", "ports", "nets", "instances"):
            if not isinstance(data.get(key), list):
                raise TypeError(f"expected a list, got {data.get(key)!r}")
        key = "metadata"
        meta = dict(data.get(key, {}))
        if "cell_inventory_overrides" in meta:
            meta["cell_inventory_overrides"] = {
                tag: _parse_inventory(raw)
                for tag, raw in meta["cell_inventory_overrides"].items()
            }

        kind = "encoding"
        for entry, raw in enumerate(data["encodings"]):
            key = None
            ename, volts = raw["name"], raw["level_voltages"]
            key = "level_voltages"
            volts = tuple(volts)
            key = None  # SignalEncoding names the field
            add(encs, SignalEncoding(ename, volts))

        kind = "primitive"
        for entry, raw in enumerate(data["primitives"]):
            key = None
            gate, *nums, out_enc, rows = _PRIMITIVE_FIELDS(raw)
            key = "kind"
            if gate not in KIND_SPECS:
                raise ValueError(f"unknown gate kind {gate!r}")
            key = "output_encoding"
            out_enc = at(encs, out_enc)
            key = "inventory"
            inventory = _parse_inventory(rows)
            key = None  # ElectricalParams names the field
            add(prims, GatePrimitive(gate, ElectricalParams(*nums, out_enc), inventory))

        kind = "pin_map"
        for entry, raw in enumerate(data["pin_maps"]):
            key, pin_map = None, {}
            for key, i in raw.items():  # key: the pin, which names the field
                pin_map[key] = at(encs, i)
            key = None
            add(pin_maps, MappingProxyType(pin_map))

        kind = "net"
        for entry in data["nets"]:
            key = None
            nid, encoding, driver, load = _NET_FIELDS(entry)
            key = "id"
            if nid in nets:
                raise ValueError("another net has this id")
            key = "encoding"
            encoding = at(encs, encoding)
            key = "driver"
            if driver is not None and not isinstance(driver, list):
                raise TypeError(f"expected null or a list, got {driver!r}")
            driver = tuple(driver) if driver and driver[0] == "const" else None
            nets[nid] = Net(nid, encoding, driver, load)

        kind = "instance"
        for entry in data["instances"]:
            key = None
            iid, prim, pin_map, pins, tag = _INSTANCE_FIELDS(entry)
            key = "id"
            if iid in instances:
                raise ValueError("another instance has this id")
            key = "primitive"
            prim = at(prims, prim)
            key = "pin_encodings"
            pin_map = at(pin_maps, pin_map)
            key = "pins"
            instances[iid] = _instance(iid, prim, MappingProxyType(dict(pins)), pin_map, tag)

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
            ports[pname] = Port(pname, direction, at(encs, encoding), net)

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
        key, tables = None, {"primitive": prims, "pin_map": pin_maps, "encoding": encs}
        index = {id(obj): (k, i) for k, table in tables.items() for i, obj in enumerate(table)}
        met = dict.fromkeys(tables, 0)  # per table: its entries met, as to_json numbers them
        wires = itertools.takewhile(lambda _: met["encoding"] < len(encs),
                                    itertools.chain(ports.values(), nets.values()))
        for obj in itertools.chain((w.encoding for w in wires), (  # to_json's order of first use
                o for g in instances.values() for o in (g.primitive.params.output_encoding,
                g.primitive, *g.pin_encodings.values(), g.pin_encodings))):
            if id(obj) in index:
                kind, entry = index.pop(id(obj))
                if entry != met[kind]:
                    raise ValueError(f"first named before {kind} {met[kind]}")
                met[kind] += 1
                if not index:  # a valid netlist names each entry early on: few are read
                    break
        # never met: a primitive or pin map first, as the encodings it alone names are unmet too
        for kind, entry in itertools.islice(index.values(), 1):
            raise ValueError("no index names this entry")
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
