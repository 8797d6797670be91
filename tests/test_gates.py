import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvadder.gates import (
    DIAMETER_NM,
    ELECTRICAL_NUMBERS,
    KINDS,
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    LibraryError,
    NonFunctionalGateError,
    TransistorInventory,
    eval_primitive,
    inventory_area,
    load_library,
    propagation_delay,
    switching_energy,
)
from mvadder import gates
from mvadder.levels import DomainError, Level, SignalEncoding, binary_full
from mvadder.netlist import build_cell

X = Level.X
L = Level


# --------------------------------------------------------------------------
# Diameter table and inventories


def test_diameter_table_values():
    assert DIAMETER_NM == {
        8: 0.626, 10: 0.783, 13: 1.017, 19: 1.487, 29: 2.270, 37: 2.896,
    }


def test_diameter_linearity_half_percent():
    for n, d in DIAMETER_NM.items():
        assert abs(d / n - 0.0783) / 0.0783 < 0.005


def test_inventory_area_examples():
    assert inventory_area(TransistorInventory((("N", 19, 2),))) == pytest.approx(2.974)
    assert inventory_area(
        TransistorInventory((("N", 8, 1), ("P", 37, 1)))
    ) == pytest.approx(3.522)
    assert inventory_area(TransistorInventory(())) == 0.0


def test_inventory_area_unknown_chirality():
    with pytest.raises(LibraryError):
        inventory_area(TransistorInventory((("N", 12, 1),)))


def test_inventory_rejects_bad_entries():
    with pytest.raises(LibraryError):
        TransistorInventory((("Q", 19, 1),))
    with pytest.raises(LibraryError):
        TransistorInventory((("N", 19, 0),))
    # whole numbers, as levels.whole takes them: library JSON reads 2.0 as 2 before this
    for n, count, message in [(True, 1, "chirality must be a whole number, got True"),
                              ("x", 1, "chirality must be a whole number, got 'x'"),
                              (19, 2.5, "count must be a whole number, got 2.5"),
                              (19, 2.0, "count must be a whole number, got 2.0"),
                              (19, "2", "count must be a whole number, got '2'")]:
        with pytest.raises(LibraryError, match=f"^{re.escape(message)}$"):
            TransistorInventory((("N", n, count),))
    inv = TransistorInventory((("N", np.int64(19), np.int64(2)),))
    assert inv.total_count == 2 and inventory_area(inv) == pytest.approx(2.974)


@pytest.mark.parametrize("entries", [None, 5, "N19", (("N", 19),), (("N", 19, 1, 1),),
                                     [("N", 19, 1)], (["N", 19, 1],)],
                         ids=["none", "int", "str", "pair", "quad", "list", "list-entry"])
def test_inventory_entries_are_a_tuple_of_triples(entries):
    """As DigitVector takes its digits: a list of entries, or a list as an
    entry, would leave the inventory unhashable."""
    message = (f"entries must be a tuple of (device type, chirality, count) tuples, "
               f"got {entries!r}")
    with pytest.raises(LibraryError, match=f"^{re.escape(message)}$"):
        TransistorInventory(entries)


_entry = st.tuples(st.sampled_from("NP"), st.sampled_from(sorted(DIAMETER_NM)),
                   st.integers(min_value=1, max_value=10))


@given(st.lists(_entry, max_size=6), st.lists(_entry, max_size=6))
def test_inventory_area_additive(e1, e2):
    a = TransistorInventory(tuple(e1))
    b = TransistorInventory(tuple(e2))
    assert inventory_area(a + b) == pytest.approx(inventory_area(a) + inventory_area(b))
    assert (a + b).total_count == a.total_count + b.total_count


# --------------------------------------------------------------------------
# Logic evaluation


def test_threshold_detectors_step_functions():
    for k in (1, 2, 3):
        for v in range(4):
            low, ge = eval_primitive(f"det{k}", [L(v)])
            assert int(low) == (1 if v < k else 0)
            assert int(ge) == 1 - int(low)
    assert eval_primitive("det2", [L.L3]) == (L.L0, L.L1)
    assert eval_primitive("det1", [X]) == (X, X)


def test_succ_circuits():
    assert eval_primitive("succ3", [L.L2]) == (L.L1,)
    for k in (1, 2, 3):
        for v in range(4):
            assert int(eval_primitive(f"succ{k}", [L(v)])[0]) == (v + k) % 4
    assert eval_primitive("succ1", [X]) == (X,)


def test_succ_composition():
    # succ(j) then succ(k) == succ((j+k) mod 4) pointwise
    def succ(k, v):
        return ((v + k) % 4) if k else v

    for j in (1, 2, 3):
        for k in (1, 2, 3):
            for v in range(4):
                via_two = eval_primitive(f"succ{k}", eval_primitive(f"succ{j}", [L(v)]))
                jk = (j + k) % 4
                direct = L(succ(jk, v)) if jk else L(v)
                assert via_two[0] == direct


def test_mux4_is_table_lookup_exhaustive():
    # all 4^5 data/select combinations
    for combo in itertools.product(range(4), repeat=5):
        d0, d1, d2, d3, sel = combo
        out = eval_primitive("mux4", [L(d0), L(d1), L(d2), L(d3), L(sel)])
        assert int(out[0]) == combo[sel]


def test_mux_x_rules():
    # X on an unselected data input does not poison the output
    assert eval_primitive("mux4", [L.L1, X, X, X, L.L0]) == (L.L1,)
    assert eval_primitive("mux4", [X, L.L2, X, X, L.L1]) == (L.L2,)
    # X select poisons
    assert eval_primitive("mux4", [L.L0, L.L0, L.L0, L.L0, X]) == (X,)
    assert eval_primitive("mux2", [L.L1, X, L.L0]) == (L.L1,)
    assert eval_primitive("mux2", [X, L.L1, L.L1]) == (L.L1,)
    assert eval_primitive("mux2", [L.L0, L.L1, X]) == (X,)
    # selected X passes through
    assert eval_primitive("mux2", [X, L.L1, L.L0]) == (X,)


def test_mux2_example_carry_selection():
    # intermediate carries (cout0=0, cout1=1) muxed by cin=1 -> 1
    assert eval_primitive("mux2", [L.L0, L.L1, L.L1]) == (L.L1,)


def test_inv_buf_and_double_inversion():
    for v in (0, 1):
        inv = eval_primitive("inv", [L(v)])
        assert int(inv[0]) == 1 - v
        assert eval_primitive("inv", inv)[0] == L(v)
        assert eval_primitive("buf", [L(v)]) == (L(v),)
    assert eval_primitive("inv", [X]) == (X,)
    with pytest.raises(DomainError):
        eval_primitive("inv", [L.L2])


def test_binary_gate_semantics_with_x():
    assert eval_primitive("nand", [L.L0, X]) == (L.L1,)
    assert eval_primitive("nand", [L.L1, X]) == (X,)
    assert eval_primitive("nand", [L.L1, L.L1]) == (L.L0,)
    assert eval_primitive("nor", [L.L1, X]) == (L.L0,)
    assert eval_primitive("nor", [L.L0, X]) == (X,)
    assert eval_primitive("nor", [L.L0, L.L0]) == (L.L1,)
    assert eval_primitive("maj3", [L.L1, L.L1, X]) == (L.L1,)
    assert eval_primitive("maj3", [L.L0, X, L.L0]) == (L.L0,)
    assert eval_primitive("maj3", [L.L1, L.L0, X]) == (X,)
    assert eval_primitive("xor_tg", [L.L1, L.L0]) == (L.L1, L.L0)
    assert eval_primitive("xor_tg", [L.L1, X]) == (X, X)


def test_eval_arity_errors():
    with pytest.raises(DomainError):
        eval_primitive("mux4", [L.L0, L.L0])
    with pytest.raises(DomainError):
        eval_primitive("nosuch", [L.L0])


@pytest.mark.parametrize("value", [True, False, 7, -2, 2 ** 63, "0", None, 1.0, [1]],
                         ids=repr)
def test_eval_primitive_names_the_input_at_fault(value):
    with pytest.raises(DomainError, match=r"^inputs\[1\] must be a level -1\.\.3, got "):
        eval_primitive("nand", [L.L1, value])


def test_eval_primitive_takes_a_level_or_a_whole_number_naming_one():
    for value in (L.L2, 2, np.int64(2), np.uint8(2)):
        assert eval_primitive("succ1", [value]) == (L.L3,)
    assert eval_primitive("succ1", (v for v in [-1])) == (X,)
    with pytest.raises(DomainError, match="^inputs: expected a list, got None$"):
        eval_primitive("succ1", None)


@pytest.mark.parametrize("kind", KINDS)
def test_eval_primitive_evaluates_every_kind(kind):
    """X in gives X out, and L1 on every input gives a level on every output."""
    spec = gates.KIND_SPECS[kind]
    assert eval_primitive(kind, [X] * len(spec.inputs)) == (X,) * len(spec.outputs)
    out = eval_primitive(kind, [L.L1] * len(spec.inputs))
    assert len(out) == len(spec.outputs) and X not in out


def test_kind_table_is_one_tuple_of_ints_per_output():
    for kind in KINDS:
        table = gates.kind_table(kind)
        assert type(table) is tuple and len(table) == len(gates.KIND_SPECS[kind].outputs)
        assert {type(col) for col in table} == {tuple}
        assert {type(v) for col in table for v in col} == {int}
    with pytest.raises(DomainError, match="^unknown gate kind 'zz'$"):
        gates.kind_table("zz")
    # an unhashable kind is named as eval_primitive names it, not hashed first
    for bad in (["inv"], {"inv": 1}):
        for table_or_eval in (gates.kind_table, lambda k: eval_primitive(k, [0])):
            with pytest.raises(DomainError, match=fr"^unknown gate kind {re.escape(repr(bad))}$"):
                table_or_eval(bad)


# --------------------------------------------------------------------------
# Electrical model


def _prim(kind="inv", supply=0.9, r=10e3, tint=1e-12, vth=0.2):
    lib = CellLibrary.default()
    p = lib.make_primitive(kind, supply, binary_full(max(supply, 0.9)))
    params = ElectricalParams(
        supply_voltage=supply,
        input_cap_per_pin=p.params.input_cap_per_pin,
        drive_resistance_ref=r,
        intrinsic_delay=tint,
        threshold_voltage=vth,
        output_encoding=p.params.output_encoding,
    )
    return GatePrimitive(kind, params, p.inventory)


def test_propagation_delay_examples():
    # R_eff at 0.9 V equals R_ref: 1 ps + 10 kOhm * 2 fF = 21 ps
    assert propagation_delay(_prim(supply=0.9), 2e-15) == pytest.approx(21e-12)
    # at 0.3 V supply R_eff = 10k * 0.7/0.1 = 70 kOhm: 141 ps
    assert propagation_delay(_prim(supply=0.3), 2e-15) == pytest.approx(141e-12)
    # zero load leaves the intrinsic delay
    assert propagation_delay(_prim(), 0.0) == pytest.approx(1e-12)


def test_propagation_delay_monotonicity():
    g = _prim(supply=0.9)
    d1 = propagation_delay(g, 1e-15)
    d2 = propagation_delay(g, 2e-15)
    d3 = propagation_delay(g, 3e-15)
    assert d1 < d2 < d3
    assert d3 - d2 == pytest.approx(d2 - d1)  # affine in load
    # strictly decreasing in supply above threshold
    delays = [propagation_delay(_prim(supply=v), 2e-15) for v in (0.3, 0.45, 0.9, 1.2)]
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_non_functional_gate():
    with pytest.raises(NonFunctionalGateError):
        propagation_delay(_prim(supply=0.15, vth=0.2), 1e-15)
    with pytest.raises(DomainError):
        propagation_delay(_prim(), -1e-15)
    with pytest.raises(DomainError, match="load_cap must be >= 0, got nan"):
        propagation_delay(_prim(), float("nan"))


def test_switching_energy_examples():
    assert switching_energy(2e-15, 0.0, 0.9) == pytest.approx(0.81e-15)
    assert switching_energy(2e-15, 0.0, 0.3) == pytest.approx(0.09e-15)
    assert switching_energy(5e-15, 0.7, 0.7) == 0.0
    # symmetric in direction
    assert switching_energy(2e-15, 0.9, 0.0) == switching_energy(2e-15, 0.0, 0.9)
    with pytest.raises(DomainError):
        switching_energy(-1e-15, 0.0, 0.9)
    with pytest.raises(DomainError, match="node_cap must be >= 0, got nan"):
        switching_energy(float("nan"), 0.0, 1.0)


def test_quadratic_swing_scaling():
    e_full = switching_energy(2e-15, 0.0, 0.9)
    e_half = switching_energy(2e-15, 0.0, 0.45)
    e_third = switching_energy(2e-15, 0.0, 0.3)
    assert e_half / e_full == pytest.approx(0.25)
    assert e_third / e_full == pytest.approx(1 / 9)


# --------------------------------------------------------------------------
# Cell library file


def test_default_library_covers_all_kinds():
    lib = CellLibrary.default()
    from mvadder.gates import KINDS

    assert set(lib.cells) == set(KINDS)


def test_default_inventory_transistor_counts():
    lib = CellLibrary.default()
    expected = {
        "inv": 2, "buf": 4, "nand": 4, "nor": 4, "xor_tg": 6, "maj3": 10,
        "mux2": 6, "mux4": 18,
        "det1": 6, "det2": 6, "det3": 6,
        "succ1": 8, "succ2": 8, "succ3": 8,
    }
    for kind, count in expected.items():
        assert lib.cells[kind].inventory.total_count == count, kind


def test_load_library_overrides(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({
        "inv": {"drive_resistance_ohm": 20e3, "inventory": [["N", 29, 1], ["P", 29, 1]]},
        "mux2": {"intrinsic_delay_s": 2e-12},
    }))
    lib = load_library(path)
    assert lib.cells["inv"].drive_resistance_ref == 20e3
    assert inventory_area(lib.cells["inv"].inventory) == pytest.approx(2 * 2.270)
    assert lib.cells["mux2"].intrinsic_delay == 2e-12
    # untouched kinds keep defaults
    assert lib.cells["mux4"].drive_resistance_ref == 10e3


def test_load_library_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad1.json"
    path.write_text(json.dumps({"inv": {"resistance": 1}}))
    with pytest.raises(LibraryError):
        load_library(path)
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"not_a_gate": {}}))
    with pytest.raises(LibraryError):
        load_library(path2)
    path3 = tmp_path / "bad3.json"
    path3.write_text(json.dumps({"inv": {"inventory": [["N", 12, 1]]}}))
    with pytest.raises(LibraryError):
        load_library(path3)


@pytest.mark.parametrize("inventory, message", [
    ([["N", 0, 1]], "chirality must be >= 1, got 0"),
    ([["Q", 19, 1]], "device type must be N or P, got 'Q'"),
    ([["N", 19, 0]], "count must be >= 1, got 0"),
    ([["N", 12, 1]], "chirality 12 not in the diameter table"),
    ([["N", 19]], r"inventory entry must be \[device, chirality, count\]: \['N', 19\]"),
    ({"N": 19}, r"inventory must be a list of \[device, chirality, count\]: \{'N': 19\}"),
])
def test_library_inventory_errors_name_the_kind_and_the_field(inventory, message, tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"nand": {"inventory": inventory}}))
    with pytest.raises(LibraryError, match=f"^nand: inventory: {message}$"):
        load_library(path)


def test_a_library_needs_every_kind_and_a_primitive_a_known_one():
    with pytest.raises(LibraryError, match=re.escape(f"library missing kinds: {list(KINDS)}")):
        CellLibrary({})
    p = CellLibrary.default().make_primitive("nand", 0.9, binary_full(0.9))
    with pytest.raises(LibraryError, match="^unknown gate kind 'flux'$"):
        GatePrimitive("flux", p.params, p.inventory)


@pytest.mark.parametrize("kind", ["zz", None, ["inv"]], ids=repr)
def test_make_primitive_names_an_unknown_kind(kind):
    with pytest.raises(LibraryError, match=re.escape(f"unknown gate kind {kind!r}")):
        CellLibrary.default().make_primitive(kind, 0.9, binary_full(0.9))


@pytest.mark.parametrize("field", ELECTRICAL_NUMBERS)
def test_electrical_numbers_reject_bools_and_take_numpy_floats(field):
    p = CellLibrary.default().make_primitive("nand", np.float64(0.9), binary_full(0.9)).params
    assert p.supply_voltage == 0.9
    assert getattr(replace(p, **{field: np.float32(0.5)}), field) == 0.5
    for value in (True, "0.9"):
        with pytest.raises(DomainError, match=f"^{field} must be finite and > 0, got {value!r}"):
            replace(p, **{field: value})


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh primitive memo, so that whether a request hits does not
    depend on what earlier tests left in the shared one."""
    monkeypatch.setattr(gates, "_primitives", {})


def test_make_primitive_shares_one_primitive_per_equal_request(empty_memo):
    lib = CellLibrary.default()
    bit = binary_full(0.9)
    nand = lib.make_primitive("nand", 0.9, bit)
    assert lib.make_primitive("nand", 0.9, bit) is nand
    assert CellLibrary.default().make_primitive("nand", 0.9, bit) is nand  # across libraries
    # nor's spec equals nand's, but the kind is part of the request
    nor = lib.make_primitive("nor", 0.9, bit)
    assert nor is not nand and nor.kind == "nor" and nor.params == nand.params
    assert lib.make_primitive("nand", 0.9, bit) is nand
    assert lib.make_primitive("nand", 0.7, bit) is not nand
    inv = TransistorInventory((("N", 19, 1),))
    assert lib.make_primitive("nand", 0.9, bit, inv).inventory is inv
    assert lib.make_primitive("nand", 0.9, bit) is nand
    lib.cells["nand"] = replace(lib.cells["nand"], intrinsic_delay=2e-12)  # a changed spec
    slower = lib.make_primitive("nand", 0.9, bit)
    assert slower.params.intrinsic_delay == 2e-12
    other = SignalEncoding("bin@0.9", (0.0, 0.9))  # an equal encoding, but another object
    assert other == bit and other is not bit
    assert lib.make_primitive("nand", 0.9, other).params.output_encoding is other
    assert lib.make_primitive("nand", 0.9, bit).params.output_encoding is bit
    assert CellLibrary.default().make_primitive("nand", 0.9, bit) == nand


def test_the_primitive_memo_stays_within_its_bound(empty_memo):
    lib, bit = CellLibrary.default(), binary_full(0.9)
    for supply in (0.5 + k / 1000 for k in range(300)):
        assert lib.make_primitive("inv", supply, bit).params.supply_voltage == supply
        assert len(gates._primitives) <= gates._PRIMITIVES_KEPT < 300


def test_supplies_1_and_1_0_get_different_primitives(empty_memo):
    lib, bit = CellLibrary.default(), binary_full(1.0)
    one_f, one = lib.make_primitive("nand", 1.0, bit), lib.make_primitive("nand", 1, bit)
    assert one is not one_f and one == one_f  # as 1 == 1.0, but they dump as 1 and 1.0
    assert type(one.params.supply_voltage) is int and type(one_f.params.supply_voltage) is float
    assert lib.make_primitive("nand", 1.0, bit) is one_f


def test_a_library_override_never_gets_a_default_librarys_primitive(tmp_path, empty_memo):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"nand": {"intrinsic_delay_s": 3e-12}}))
    bit = binary_full(0.9)
    default = CellLibrary.default().make_primitive("nand", 0.9, bit)
    slow = load_library(path).make_primitive("nand", 0.9, bit)
    assert slow.params.intrinsic_delay == 3e-12 and default.params.intrinsic_delay == 1e-12
    assert CellLibrary.default().make_primitive("nand", 0.9, bit) == default
    # a kind the file leaves alone keeps the default spec, and shares its primitive
    nor = CellLibrary.default().make_primitive("nor", 0.9, bit)
    assert load_library(path).make_primitive("nor", 0.9, bit) is nor
    for lib, delay in ((None, 1e-12), (load_library(path), 3e-12), (None, 1e-12)):
        cell = build_cell("bfa1", 0.9, lib)
        assert {i.primitive.params.intrinsic_delay for i in cell.instances.values()
                if i.primitive.kind == "nand"} == {delay}


def test_make_primitive_keeps_kinds_apart_when_they_share_one_spec():
    spec = CellLibrary.default().cells["inv"]
    lib = CellLibrary({kind: spec for kind in KINDS})
    bit = binary_full(0.9)
    assert [lib.make_primitive(k, 0.9, bit).kind for k in ("inv", "buf", "inv")] == [
        "inv", "buf", "inv"]
