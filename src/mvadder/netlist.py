"""Circuit graph plus generators for the adder cells and ripple chains.

A :class:`Circuit` is a flat netlist of gate instances. Generators assign
deterministic identifiers so reports and traces are reproducible run to
run. Circuits are treated as immutable once built and validated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .gates import (
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    TransistorInventory,
    inventory_area,
)
from .levels import DomainError, Level, SignalEncoding, binary_full, quaternary, third_swing


class NetlistError(ValueError):
    """Structural problem that prevents building or using a circuit."""


@dataclass
class Net:
    """Single-driver wire. ``driver`` is ("inst", id, pin), ("port", name)
    or ("const", level). ``total_cap`` is the external load plus the input
    caps of the sinks, added as instances are wired; constant rails are
    supply ties with zero switching cost, so theirs stays 0."""

    id: str
    encoding: SignalEncoding
    driver: tuple | None = None
    sinks: list = field(default_factory=list)  # (inst_id, pin)
    external_load: float = 0.0
    total_cap: float = field(init=False)

    def __post_init__(self):
        try:
            ok = 0 <= self.external_load < math.inf  # NaN fails too
        except TypeError:  # not a number
            ok = False
        if not ok:
            raise NetlistError(f"net {self.id!r}: external_load must be a finite number >= 0, "
                               f"got {self.external_load!r}")
        self.total_cap = 0.0 if self.driver and self.driver[0] == "const" else self.external_load


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

    def net(self, nid: str, encoding: SignalEncoding, external_load: float = 0.0) -> str:
        if nid in self.nets:
            raise NetlistError(f"duplicate net id {nid!r}")
        self.nets[nid] = Net(nid, encoding, external_load=external_load)
        return nid

    def const(self, nid: str, level: Level, encoding: SignalEncoding) -> str:
        self.net(nid, encoding)
        self.nets[nid].driver = ("const", int(level))
        return nid

    def port(self, name: str, direction: str, encoding: SignalEncoding,
             net: str | None = None, external_load: float = 0.0) -> str:
        nid = net if net is not None else name
        if nid not in self.nets:
            self.net(nid, encoding, external_load=external_load)
        if direction == "in":
            self.nets[nid].driver = ("port", name)
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
        _wire(self.nets, inst)
        return inst

    def copy_cell(self, cell: Circuit, prefix: str, tag: str,
                  port_nets: Mapping[str, str]) -> None:
        """Instantiate ``cell`` with every internal id prefixed; cell ports
        are stitched onto existing builder nets per ``port_nets``."""
        mapped = {}
        for pname, pport in cell.ports.items():
            mapped[pport.net] = port_nets[pname]
        for nid, net in cell.nets.items():
            if nid in mapped:
                continue
            new_id = prefix + nid
            mapped[nid] = new_id
            self.net(new_id, net.encoding)
            if net.driver is not None and net.driver[0] == "const":
                self.nets[new_id].driver = net.driver
        for iid, inst in cell.instances.items():
            new_iid = prefix + iid
            new_pins = {pin: mapped[nid] for pin, nid in inst.pins.items()}
            self.instances[new_iid] = new_inst = Instance(
                new_iid, inst.primitive, new_pins, dict(inst.pin_encodings), tag)
            _wire(self.nets, new_inst)
        for _, inv in cell.metadata.get("cell_inventory_overrides", {}).items():
            self.metadata.setdefault("cell_inventory_overrides", {})[tag] = inv
        kinds = cell.metadata.get("cell_kinds", {})
        self.metadata.setdefault("cell_kinds", {})[tag] = next(
            iter(kinds.values()), cell.metadata.get("variant", cell.name))

    def finalize(self, **metadata) -> Circuit:
        self.metadata.update(metadata)
        return Circuit(self.name, self.ports, self.nets, self.instances, self.metadata)


def _wire(nets: dict, inst: Instance) -> None:
    """Attach ``inst`` to its nets: a sink (and its pin cap) on each input
    net, the driver of each output net. Raises NetlistError naming the
    instance and the pin on an unbound pin or a missing net, and naming the
    net when it is already driven."""
    prim, pins = inst.primitive, inst.pins
    n_in = len(prim.input_pins)
    for k, pin in enumerate(prim.input_pins + prim.output_pins):
        net = nets.get(pins.get(pin))
        if net is None:
            what = f"bound to missing net {pins[pin]!r}" if pin in pins else "unbound"
            raise NetlistError(f"instance {inst.id!r} pin {pin!r} {what}")
        if k < n_in:
            net.sinks.append((inst.id, pin))
            if net.driver is None or net.driver[0] != "const":
                net.total_cap += prim.params.input_cap_per_pin
        elif net.driver is not None:
            raise NetlistError(f"net {net.id!r} already driven")
        else:
            net.driver = ("inst", inst.id, pin)


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


# --------------------------------------------------------------------------
# Validation


def validate(c: Circuit) -> list[str]:
    """Structural diagnostics; empty list means the circuit is usable. A
    cycle diagnostic names the gates on it, not those behind it (:func:`_analyse`)."""
    return _analyse(c)[0]


def _analyse(c: Circuit) -> tuple[list[str], list[str], dict[str, int]]:
    """:func:`validate`'s diagnostics, the instance ids in Kahn order and each
    ordered gate's logic level (1 + its inputs' highest; an undriven net is 0)."""
    diags: list[str] = []
    drivers: dict[str, list] = {nid: [] for nid in c.nets}
    feeds: dict[str, list] = {nid: [] for nid in c.nets}  # gates fed, one entry per pin
    n_wait = dict.fromkeys(c.instances, 0)  # per gate: its input pins bound to a net
    outs: dict[str, list] = {iid: [] for iid in c.instances}  # per gate: the nets it drives
    for port in c.ports.values():
        if port.net not in c.nets:
            diags.append(f"port {port.name}: net {port.net!r} does not exist")
            continue
        if port.direction == "in":
            drivers[port.net].append(("port", port.name))

    for inst in c.instances.values():
        prim = inst.primitive
        for pin in prim.input_pins + prim.output_pins:
            if pin not in inst.pins:
                diags.append(f"{inst.id}: pin {pin} unbound")
            elif inst.pins[pin] not in c.nets:
                diags.append(f"{inst.id}.{pin}: net {inst.pins[pin]!r} does not exist")
        for pin in prim.input_pins:
            nid = inst.pins.get(pin)
            if nid not in c.nets:
                continue
            feeds[nid].append(inst.id)
            n_wait[inst.id] += 1
            expected = inst.pin_encodings.get(pin)
            actual = c.nets[nid].encoding
            if expected is not None and actual.level_voltages != expected.level_voltages:
                diags.append(
                    f"encoding-mismatch: {inst.id}.{pin} expects {expected.name}, "
                    f"net {nid} carries {actual.name}"
                )
        out_enc = prim.params.output_encoding
        for pin in prim.output_pins:
            nid = inst.pins.get(pin)
            if nid in c.nets:
                drivers[nid].append(("inst", inst.id, pin))
                outs[inst.id].append(nid)
                net_enc = c.nets[nid].encoding
                if net_enc.level_voltages != out_enc.level_voltages:
                    diags.append(
                        f"encoding-mismatch: {inst.id}.{pin} drives {out_enc.name}, "
                        f"net {nid} declared {net_enc.name}"
                    )

    for nid, net in c.nets.items():
        dr = list(drivers[nid])
        if net.driver is not None and net.driver[0] == "const":
            dr.append(net.driver)
        if not dr:
            diags.append(f"undriven net {nid!r}")
        elif len(dr) > 1:
            diags.append(f"multiple-driver net {nid!r}: {sorted(str(d) for d in dr)}")

    if c.metadata.get("adder_cell") and not _ADDER_PORTS <= set(c.ports):
        diags.append(f"adder cell missing ports {sorted(_ADDER_PORTS - set(c.ports))}")

    # Kahn's algorithm in waves of nets: a gate's level is the wave bringing its last input
    driven = {nid for nets in outs.values() for nid in nets}
    wave = [nid for nid in c.nets if nid not in driven]
    level: dict[str, int] = {}  # in Kahn order
    depth = 0
    while wave:
        depth += 1
        nxt = []
        for nid in wave:
            for iid in feeds[nid]:
                n_wait[iid] -= 1
                if not n_wait[iid]:
                    level[iid] = depth
                    nxt += outs[iid]
        wave = nxt

    # gates never reached lie on or behind a cycle; peel those feeding none, sinks first
    stuck = set(c.instances) - level.keys()
    n_fed = {g: sum(h in stuck for nid in outs[g] for h in feeds[nid]) for g in stuck}
    peel = [g for g in stuck if not n_fed[g]]
    for g in peel:  # grows as gates lose their last stuck sink
        stuck.remove(g)
        inst = c.instances[g]
        for nid in map(inst.pins.get, inst.primitive.input_pins):
            for f in [d[1] for d in drivers.get(nid, ()) if d[0] == "inst" and d[1] in stuck]:
                n_fed[f] -= 1
                if not n_fed[f]:
                    peel.append(f)
    diags += [f"combinational cycle through instance {iid!r}" for iid in sorted(stuck)]
    return diags, list(level), level


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


def _inv_from_json(raw) -> TransistorInventory:
    return TransistorInventory(tuple((str(d), int(n), int(c)) for d, n, c in raw))


def to_json(c: Circuit) -> dict:
    """Lossless netlist interchange form. Each port, net and instance entry,
    and an instance's ``pins`` and ``pin_encodings``, is a dict of its own;
    the nested encoding dicts and inventory lists are formatted once per
    distinct encoding or primitive and shared: copy one to change it."""
    # keyed by id(): the circuit keeps every encoding and primitive alive
    encs: dict = {}
    prims: dict = {}

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
            {"id": n.id, "encoding": enc(n.encoding),
             "driver": list(n.driver) if n.driver else None,
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


def from_json(data: dict) -> Circuit:
    """Rebuild a circuit from its interchange form. Equal encodings become
    one :class:`SignalEncoding`, and instances with equal kind, electrical
    numbers, output encoding and inventory share one :class:`GatePrimitive`,
    as in a :func:`build_cpa` chain. Net drivers come from the instances'
    pins. Raises NetlistError naming the net or instance on a missing field,
    a bad number, a pin unbound or bound to a missing net, or a second driver."""
    encs: dict = {}
    prims: dict = {}

    def enc(d: dict) -> SignalEncoding:
        key = (d["name"], tuple(d["level_voltages"]))
        return encs.get(key) or encs.setdefault(key, SignalEncoding(*key))

    def prim(d: dict) -> GatePrimitive:
        key = (d["kind"], *(d[f] for f in _PARAMS), enc(d["output_encoding"]),
               tuple(map(tuple, d["inventory"])))
        return prims.get(key) or prims.setdefault(key, GatePrimitive(
            d["kind"], ElectricalParams(*key[1:7]), _inv_from_json(d["inventory"])))

    nets = {}
    for nd in data["nets"]:
        try:
            driver = tuple(nd["driver"]) if nd["driver"] and nd["driver"][0] != "inst" else None
            nets[nd["id"]] = Net(nd["id"], enc(nd["encoding"]),
                                 driver=driver, external_load=nd["external_load"])
        except KeyError as exc:
            raise NetlistError(f"net {nd.get('id')!r}: missing field {exc}") from None
    instances = {}
    for idd in data["instances"]:
        try:
            inst = instances[idd["id"]] = Instance(
                idd["id"], prim(idd), dict(idd["pins"]),
                {p: enc(e) for p, e in idd["pin_encodings"].items()}, idd["cell_tag"])
        except (KeyError, DomainError) as exc:
            why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise NetlistError(f"instance {idd.get('id')!r}: {why}") from None
        _wire(nets, inst)
    ports = {
        pd["name"]: Port(pd["name"], pd["direction"], enc(pd["encoding"]), pd["net"])
        for pd in data["ports"]
    }
    meta = dict(data.get("metadata", {}))
    if "cell_inventory_overrides" in meta:
        meta["cell_inventory_overrides"] = {
            tag: _inv_from_json(raw)
            for tag, raw in meta["cell_inventory_overrides"].items()
        }
    return Circuit(data["name"], ports, nets, instances, meta)


def dump_netlist(c: Circuit, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(c), fh, indent=2, sort_keys=True)


def load_netlist(path: str | Path) -> Circuit:
    with open(path) as fh:
        return from_json(json.load(fh))
