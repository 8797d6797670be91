"""Behavioral gate primitive library.

Each primitive bundles a logic function, an electrical model (lumped-RC
delay, switched-capacitance energy) and a transistor inventory used only
for the diameter-sum area metric. Gate internals are behavioral: the
inventory declares what a transmission-gate realization would cost, it is
not a switch-level netlist.

Each gate kind has one :class:`KindSpec` record in :data:`KIND_SPECS`: its
pins and the row format of its truth table, :func:`kind_table`, in which
both simulation engines look gates up.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .levels import DomainError, Level, SignalEncoding, is_finite, real_number

# Chirality index -> nanotube diameter (nm). Diameter sets the device
# threshold, so threshold detectors and successor circuits need specific
# entries from this table; everything else defaults to n=19.
DIAMETER_NM: dict[int, float] = {
    8: 0.626,
    10: 0.783,
    13: 1.017,
    19: 1.487,
    29: 2.270,
    37: 2.896,
}

#: Reference supply at which drive_resistance_ref is specified.
V_REF = 0.9


class LibraryError(ValueError):
    """Malformed cell library or unknown inventory entry."""


class NonFunctionalGateError(ValueError):
    """Gate biased below threshold: it cannot switch at all."""


@dataclass(frozen=True)
class TransistorInventory:
    """Multiset of (device_type, chirality, count) transistor entries."""

    entries: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        for dev, n, count in self.entries:
            if dev not in ("N", "P"):
                raise LibraryError(f"device type must be N or P, got {dev!r}")
            if count < 1:
                raise LibraryError(f"count must be >= 1, got {count}")
            if int(n) < 1:
                raise LibraryError(f"chirality must be positive, got {n}")

    @property
    def total_count(self) -> int:
        return sum(c for _, _, c in self.entries)

    def __add__(self, other: "TransistorInventory") -> "TransistorInventory":
        return TransistorInventory(self.entries + other.entries)


def inventory_area(inv: TransistorInventory) -> float:
    """Sum of transistor diameters (nm); additive over concatenation."""
    total = 0.0
    for _, n, count in inv.entries:
        try:
            total += count * DIAMETER_NM[n]
        except KeyError:
            raise LibraryError(f"chirality {n} not in the diameter table") from None
    return total


@dataclass(frozen=True)
class ElectricalParams:
    """Per-gate electrical model parameters.

    ``supply_voltage`` is per gate, not global: reduced-swing carry
    inverters run from a lower rail than the rest of their cell.
    """

    supply_voltage: float
    input_cap_per_pin: float
    drive_resistance_ref: float
    intrinsic_delay: float
    threshold_voltage: float
    output_encoding: SignalEncoding

    def __post_init__(self):
        for field in ("supply_voltage", "input_cap_per_pin", "drive_resistance_ref",
                      "intrinsic_delay", "threshold_voltage"):
            value = getattr(self, field)
            if not (is_finite(value) and value > 0):
                raise DomainError(f"{field} must be finite and > 0, got {value!r}")


class KindSpec(NamedTuple):
    """One gate kind's pins and truth-table row format.

    A gate's row in its kind table (:func:`kind_table`) is the sum of its
    input codes (level + 1, so X is 0) times ``weights``: base 5, first
    input pin most significant. ``data`` holds the positions of a mux's
    data inputs (its ``d`` pins), which it passes through to its output.
    """

    inputs: tuple
    outputs: tuple
    weights: tuple
    data: tuple


_CODES = 5  # codes of one input pin: X, L0..L3


def _spec(inputs: str, outputs: str = "y") -> KindSpec:
    ins = tuple(inputs.split())
    return KindSpec(ins, tuple(outputs.split()),
                    tuple(_CODES ** j for j in range(len(ins) - 1, -1, -1)),
                    tuple(k for k, pin in enumerate(ins) if pin[0] == "d"))


# Gate kinds. det{k}: inverting threshold detector plus buffered
# complement; succ{k}: (in + k) mod 4; the rest are conventional.
# det/xor_tg expose a complementary second output ("yb"): the detector's
# buffered complement rail, and the dual rail a transmission-gate XOR
# produces for free.
KIND_SPECS: dict[str, KindSpec] = {
    "det1": _spec("a", "y yb"), "det2": _spec("a", "y yb"), "det3": _spec("a", "y yb"),
    "succ1": _spec("a"), "succ2": _spec("a"), "succ3": _spec("a"),
    "mux4": _spec("d0 d1 d2 d3 sel"), "mux2": _spec("d0 d1 sel"),
    "inv": _spec("a"), "buf": _spec("a"), "nand": _spec("a b"), "nor": _spec("a b"),
    "xor_tg": _spec("a b", "y yb"), "maj3": _spec("a b c"),
}
KINDS = tuple(KIND_SPECS)


@dataclass(frozen=True)
class GatePrimitive:
    kind: str
    params: ElectricalParams
    inventory: TransistorInventory

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LibraryError(f"unknown gate kind {self.kind!r}")


_X = Level.X


def _bit(name: str, v: Level) -> int:
    if v not in (Level.L0, Level.L1):
        raise DomainError(f"{name} must be binary 0/1, got {v}")
    return int(v)


def eval_primitive(kind: str, inputs: Sequence[Level]) -> tuple[Level, ...]:
    """Evaluate one gate on logical levels.

    X propagates only when it can influence the result: an X on an
    unselected MUX data input does not poison the output, and a
    controlling 0/1 on NAND/NOR/MAJ3 decides the output regardless of X
    or an out-of-domain level elsewhere. So replacing an X input by a
    level never turns a decided output into X or into a DomainError.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown gate kind {kind!r}")
    spec = KIND_SPECS[kind]
    ins = [Level(v) for v in inputs]
    if len(ins) != len(spec.inputs):
        raise DomainError(f"{kind} takes {len(spec.inputs)} inputs, got {len(ins)}")

    if kind.startswith(("det", "succ")):
        k, v = int(kind[-1]), ins[0]
        if v is _X:
            return (_X,) * len(spec.outputs)
        if kind.startswith("det"):
            low = int(v) < k
            return (Level(low), Level(1 - low))
        return (Level((int(v) + k) % 4),)

    if kind.startswith("mux"):
        sel = ins[-1]
        if sel is _X:
            return (_X,)
        return (ins[int(sel) if kind == "mux4" else _bit("sel", sel)],)

    if kind in ("inv", "buf"):
        v = ins[0]
        if v is _X:
            return (_X,)
        return (Level(_bit("in", v) ^ (kind == "inv")),)

    if kind in ("nand", "nor"):
        ctrl = Level.L0 if kind == "nand" else Level.L1  # decides the output alone
        if ctrl in ins:
            return (Level(1 - ctrl),)
        [_bit("in", v) for v in ins if v is not _X]  # out-of-domain levels raise
        return (_X,) if _X in ins else (ctrl,)

    if kind == "xor_tg":
        if _X in ins:
            return (_X, _X)
        y = _bit("a", ins[0]) ^ _bit("b", ins[1])
        return (Level(y), Level(1 - y))

    if kind == "maj3":
        if ins.count(Level.L1) >= 2:
            return (Level.L1,)
        if ins.count(Level.L0) >= 2:
            return (Level.L0,)
        [_bit("in", v) for v in ins if v is not _X]  # out-of-domain levels raise
        return (_X,)

    raise AssertionError(kind)


@lru_cache(maxsize=None)
def kind_table(kind: str) -> np.ndarray:
    """Output levels (-1 for X) of gate ``kind``, shape (5 ** inputs, 2),
    for every combination of input levels, each at the row its codes give
    by the kind's ``weights`` (see :class:`KindSpec`); single-output kinds
    leave column 1 at X. Tabulated from :func:`eval_primitive` on first
    use. Inputs outside a gate's domain (``DomainError``, e.g. ``inv`` on
    L2) give X on every output."""
    weights = KIND_SPECS[kind].weights
    table = np.full((_CODES ** len(weights), 2), -1, np.int64)
    for levels in itertools.product(range(-1, _CODES - 1), repeat=len(weights)):
        try:
            outs = eval_primitive(kind, levels)
        except DomainError:
            continue
        table[sum(w * (lvl + 1) for w, lvl in zip(weights, levels)), : len(outs)] = outs
    return table


def propagation_delay(gate: GatePrimitive, load_cap: float) -> float:
    """Lumped-RC gate delay in seconds for a given output load.

    The drive resistance is referenced at V_REF and scales with gate
    overdrive, so a reduced supply slows the gate:
    R_eff = R_ref * (V_REF - V_th) / (V_supply - V_th).
    """
    if not load_cap >= 0:  # NaN fails too
        raise DomainError(f"load_cap must be >= 0, got {load_cap!r}")
    p = gate.params
    if p.supply_voltage <= p.threshold_voltage:
        raise NonFunctionalGateError(
            f"{gate.kind}: supply {p.supply_voltage} V at or below threshold "
            f"{p.threshold_voltage} V"
        )
    r_eff = p.drive_resistance_ref * (V_REF - p.threshold_voltage) / (
        p.supply_voltage - p.threshold_voltage
    )
    return p.intrinsic_delay + r_eff * load_cap


def switching_energy(node_cap: float, v_from: float, v_to: float) -> float:
    """Energy charged to the ledger for one transition: C*(dV)^2/2.

    Symmetric in direction; both edges of a pulse are counted.
    """
    if not node_cap >= 0:  # NaN fails too
        raise DomainError(f"node_cap must be >= 0, got {node_cap!r}")
    dv = v_to - v_from
    return 0.5 * node_cap * dv * dv


# --------------------------------------------------------------------------
# Cell library: per-kind electrical parameters and inventories, overridable
# from a JSON file.

_E = lambda entries: TransistorInventory(tuple(entries))  # noqa: E731

# Default inventories. Detector and successor cells mix chiralities (their
# thresholds are diameter-set); multiplexers are transmission-gate trees at
# n=13/19. The mix is calibrated so a full quaternary adder lands near 4x
# the diameter sum of a pair of 14T binary adders.
DEFAULT_INVENTORIES: dict[str, TransistorInventory] = {
    "inv": _E([("N", 19, 1), ("P", 19, 1)]),
    "buf": _E([("N", 19, 2), ("P", 19, 2)]),
    "nand": _E([("N", 19, 2), ("P", 19, 2)]),
    "nor": _E([("N", 19, 2), ("P", 19, 2)]),
    "xor_tg": _E([("N", 19, 3), ("P", 19, 3)]),
    "maj3": _E([("N", 19, 5), ("P", 19, 5)]),
    "mux2": _E([("N", 19, 3), ("P", 19, 3)]),
    "mux4": _E([("N", 13, 8), ("P", 13, 8), ("N", 19, 1), ("P", 19, 1)]),
    "det1": _E([("N", 37, 1), ("P", 37, 1), ("N", 29, 2), ("P", 29, 2)]),
    "det2": _E([("N", 29, 1), ("P", 29, 1), ("N", 29, 2), ("P", 29, 2)]),
    "det3": _E([("N", 10, 1), ("P", 10, 1), ("N", 29, 2), ("P", 29, 2)]),
    "succ1": _E([("N", 13, 2), ("P", 29, 2), ("N", 19, 2), ("P", 19, 2)]),
    "succ2": _E([("N", 10, 2), ("P", 37, 2), ("N", 19, 2), ("P", 19, 2)]),
    "succ3": _E([("N", 8, 2), ("P", 29, 2), ("N", 19, 2), ("P", 19, 2)]),
}

DEFAULT_INPUT_CAP_F = 0.2e-15
DEFAULT_DRIVE_RESISTANCE_OHM = 10e3
DEFAULT_INTRINSIC_DELAY_S = 1e-12
DEFAULT_THRESHOLD_V = 0.2


@dataclass(frozen=True)
class CellSpec:
    """Supply-independent part of a primitive's model."""

    input_cap_per_pin: float
    drive_resistance_ref: float
    intrinsic_delay: float
    threshold_voltage: float
    inventory: TransistorInventory


# Specs are frozen, so every default library shares these.
_DEFAULT_CELLS = {
    kind: CellSpec(
        input_cap_per_pin=DEFAULT_INPUT_CAP_F,
        drive_resistance_ref=DEFAULT_DRIVE_RESISTANCE_OHM,
        intrinsic_delay=DEFAULT_INTRINSIC_DELAY_S,
        threshold_voltage=DEFAULT_THRESHOLD_V,
        inventory=DEFAULT_INVENTORIES[kind],
    )
    for kind in KINDS
}


class CellLibrary:
    """Per-kind :class:`CellSpec` table used by the circuit generators."""

    def __init__(self, cells: Mapping[str, CellSpec]):
        missing = [k for k in KINDS if k not in cells]
        if missing:
            raise LibraryError(f"library missing kinds: {missing}")
        self.cells = dict(cells)
        self._primitives: dict = {}  # (kind, supply, encoding name, inventory) -> (spec, primitive)

    @classmethod
    def default(cls) -> "CellLibrary":
        return cls(_DEFAULT_CELLS)

    def make_primitive(
        self,
        kind: str,
        supply_voltage: float,
        output_encoding: SignalEncoding,
        inventory: TransistorInventory | None = None,
    ) -> GatePrimitive:
        """The primitive of ``kind``; equal requests for one spec and encoding object share one."""
        spec = self.cells[kind]
        key = (kind, supply_voltage, output_encoding.name, inventory)
        hit = self._primitives.get(key)
        if hit is not None and hit[0] is spec and hit[1].params.output_encoding is output_encoding:
            return hit[1]
        params = ElectricalParams(
            supply_voltage=supply_voltage,
            input_cap_per_pin=spec.input_cap_per_pin,
            drive_resistance_ref=spec.drive_resistance_ref,
            intrinsic_delay=spec.intrinsic_delay,
            threshold_voltage=spec.threshold_voltage,
            output_encoding=output_encoding,
        )
        hit = self._primitives[key] = spec, GatePrimitive(kind, params, inventory or spec.inventory)
        return hit[1]


# library file key -> CellSpec field, for the number-valued keys
_LIB_NUMBERS = {
    "input_cap_per_pin_f": "input_cap_per_pin",
    "drive_resistance_ohm": "drive_resistance_ref",
    "intrinsic_delay_s": "intrinsic_delay",
    "threshold_voltage_v": "threshold_voltage",
}


def _parse_inventory(raw) -> TransistorInventory:
    if not isinstance(raw, list):
        raise LibraryError(f"inventory must be a list of [device, chirality, count]: {raw!r}")
    entries = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise LibraryError(f"inventory entry must be [device, chirality, count]: {item!r}")
        dev, n, count = item
        try:
            n, count = real_number(n), real_number(count)
            if float(n) == int(n) and float(count) == int(count):  # int() truncates 19.5
                entries.append((str(dev), int(n), int(count)))
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        raise LibraryError(f"inventory entry must hold whole numbers: {item!r}")
    inv = TransistorInventory(tuple(entries))
    inventory_area(inv)  # reject unknown chiralities up front
    return inv


def load_library(path: str | Path) -> CellLibrary:
    """Load a cell library JSON file of per-kind overrides.

    Schema: ``{kind: {input_cap_per_pin_f, drive_resistance_ohm,
    intrinsic_delay_s, threshold_voltage_v, inventory}}`` where
    ``inventory`` is a list of ``[device, chirality, count]`` triples.
    Unknown kinds or fields are rejected, as are numbers that are not
    finite and > 0 (JSON ``NaN`` and ``Infinity`` included).
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise LibraryError("library file must be a JSON object keyed by gate kind")
    lib = CellLibrary.default()
    for kind, fields in raw.items():
        if kind not in KINDS:
            raise LibraryError(f"unknown gate kind {kind!r} in library file")
        if not isinstance(fields, dict):
            raise LibraryError(f"{kind}: overrides must be a JSON object")
        unknown = set(fields) - {*_LIB_NUMBERS, "inventory"}
        if unknown:
            raise LibraryError(f"{kind}: unknown library keys {sorted(unknown)}")
        spec = lib.cells[kind]
        kwargs = {}
        for key, value in fields.items():
            if key == "inventory":
                kwargs["inventory"] = _parse_inventory(value)
                continue
            try:
                number = float(real_number(value))
            except (TypeError, OverflowError):  # an int past float range too
                number = math.nan
            if not 0 < number < math.inf:  # NaN fails too
                raise LibraryError(f"{kind}: {key} must be a finite number > 0, got {value!r}")
            kwargs[_LIB_NUMBERS[key]] = number
        lib.cells[kind] = replace(spec, **kwargs)
    return lib
