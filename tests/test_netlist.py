import dataclasses
import json
import re
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvadder import netlist
from mvadder._kernel import compile_circuit
from mvadder.gates import KIND_SPECS, CellLibrary, GatePrimitive, TransistorInventory
from mvadder.levels import DomainError, SignalEncoding, binary_full, quaternary
from mvadder.netlist import (
    CELL_KINDS,
    Instance,
    Net,
    NetlistError,
    Port,
    _Builder,
    area_report,
    build_bfa,
    build_binary_slice,
    build_cell,
    build_cpa,
    build_qfa,
    from_json,
    to_json,
    validate,
)
from mvadder.timing import sta
from mvadder.verify import adder_mismatches, verify_cpa
from circuit_edits import UNBIND, edited
from random_circuits import random_circuit


# --------------------------------------------------------------------------
# Generators: structure


def test_qfa_ports_and_encodings():
    c = build_qfa("qfa2", 0.9)
    assert set(c.ports) == {"A", "B", "Cin", "Sum", "Cout"}
    assert c.ports["A"].encoding.level_voltages == (0.0, 0.3, 0.6, 0.9)
    assert c.ports["Cout"].encoding.level_voltages == (0.0, 0.9)
    c1 = build_qfa("qfa1", 0.9)
    assert c1.ports["Cout"].encoding.level_voltages == (0.0, 0.3)
    assert c1.ports["Cin"].encoding.level_voltages == (0.0, 0.3)


def test_qfa_metadata_records_mux4_choice():
    c = build_qfa("qfa2", 0.9)
    assert c.metadata["mux4_count"] == 4
    assert sum(1 for i in c.instances.values() if i.primitive.kind == "mux4") == 4


def test_qfa1_carry_inverter_runs_from_third_supply():
    c = build_qfa("qfa1", 0.9)
    inv = c.instances["inv_cout"]
    assert inv.primitive.params.supply_voltage == pytest.approx(0.3)
    c2 = build_qfa("qfa2", 0.9)
    assert c2.instances["inv_cout"].primitive.params.supply_voltage == pytest.approx(0.9)


def test_generated_circuits_validate_clean():
    for c in (
        build_qfa("qfa1", 0.9),
        build_qfa("qfa2", 0.9),
        build_bfa("bfa1", 0.9),
        build_bfa("bfa2", 0.45),
        build_binary_slice("bfa2", 0.9),
        build_binary_slice("bfa1", 0.9),
        build_cpa(build_qfa("qfa2", 0.9), 4, cl=2e-15),
        *(build_cpa(build_cell(kind, 0.9), 3) for kind in ("qfa1", "bfa1", "bfa2")),
    ):
        assert validate(c) == []


def test_bfa_transistor_counts():
    assert area_report(build_bfa("bfa2", 0.9)).transistor_count == 14
    assert area_report(build_bfa("bfa1", 0.9)).transistor_count == 28


def test_build_rejects_unknown_variants():
    with pytest.raises(NetlistError):
        build_qfa("qfa3", 0.9)
    with pytest.raises(NetlistError):
        build_bfa("bfa9", 0.9)
    with pytest.raises(NetlistError):
        build_qfa("qfa2", -0.9)


def test_the_builder_rejects_a_second_net_or_instance_of_one_id():
    b = _Builder("twice", CellLibrary.default())
    enc = binary_full(0.9)
    a, y = b.port("A", "in", enc), b.net("y", enc)
    with pytest.raises(NetlistError, match="^duplicate net id 'y'$"):
        b.net("y", enc)
    with pytest.raises(NetlistError, match="^duplicate net id 'A'$"):
        b.const("A", 0, enc)
    b.inst("g", "inv", 0.9, enc, {"a": a, "y": y})
    with pytest.raises(NetlistError, match="^duplicate instance id 'g'$"):
        b.inst("g", "buf", 0.9, enc, {"a": a, "y": y})
    assert list(b.nets) == ["A", "y"] and list(b.instances) == ["g"]


# --------------------------------------------------------------------------
# Functional equivalence (steady state vs oracles)


def test_qfa_variants_match_oracle_exhaustively():
    assert adder_mismatches(build_qfa("qfa1", 0.9)) == ([], 0)
    assert adder_mismatches(build_qfa("qfa2", 0.9)) == ([], 0)


def test_bfa_variants_match_oracle_exhaustively():
    assert adder_mismatches(build_bfa("bfa1", 0.9)) == ([], 0)
    assert adder_mismatches(build_bfa("bfa2", 0.9)) == ([], 0)
    assert adder_mismatches(build_bfa("bfa2", 0.45)) == ([], 0)


def test_binary_slice_equals_quaternary_digit():
    assert adder_mismatches(build_binary_slice("bfa1", 0.9)) == ([], 0)
    assert adder_mismatches(build_binary_slice("bfa2", 0.9)) == ([], 0)


def test_qfa_works_at_other_supplies():
    assert adder_mismatches(build_qfa("qfa2", 1.2)) == ([], 0)


# --------------------------------------------------------------------------
# CPA


def test_cpa_structure():
    cell = build_qfa("qfa2", 0.9)
    cpa = build_cpa(cell, 4, cl=2e-15)
    assert set(cpa.ports) == {
        "A0", "A1", "A2", "A3", "B0", "B1", "B2", "B3",
        "C0", "S0", "S1", "S2", "S3", "C4",
    }
    # carry chain C0 -> C1 -> C2 -> C3 -> C4 via four inverters
    for i in (1, 2, 3, 4):
        assert cpa.instances[f"d{i-1}.inv_cout"].pins["y"] == f"C{i}"
    tags = {i.cell_tag for i in cpa.instances.values()}
    assert tags == {"d0", "d1", "d2", "d3"}
    # external load present on sums and last carry only
    assert cpa.nets["S2"].external_load == 2e-15
    assert cpa.nets["C4"].external_load == 2e-15
    assert cpa.nets["C2"].external_load == 0.0


def test_cpa_single_digit_is_the_cell_with_renamed_ports():
    cell = build_qfa("qfa2", 0.9)
    cpa = build_cpa(cell, 1)
    assert len(cpa.instances) == len(cell.instances)
    assert set(cpa.ports) == {"A0", "B0", "C0", "S0", "C1"}
    assert verify_cpa(cpa, 1) == []


def _loaded_cell():
    """A qfa2 cell (cl 2 fF) whose internal net b_lt1 carries a 5 fF load."""
    blob = to_json(build_qfa("qfa2", 0.9, cl=2e-15))
    _entry(blob, "nets", "b_lt1")["external_load"] = 5e-15
    return from_json(blob)


def test_a_cpa_copy_keeps_each_internal_net_load():
    cell = _loaded_cell()
    want = sta(cell, ("A", "B", "Cin"), ("Cout", "Sum")).arrivals_ps
    got = sta(build_cpa(cell, 1, cl=2e-15), ("A0", "B0", "C0"), ("C1", "S0")).arrivals_ps
    assert got == {"C1": want["Cout"], "S0": want["Sum"]}
    assert want["Cout"] > sta(build_qfa("qfa2", 0.9, cl=2e-15), ("A", "B", "Cin"),
                              ("Cout",)).arrivals_ps["Cout"]  # the load is felt
    blob = to_json(build_cpa(cell, 3))
    assert [_entry(blob, "nets", f"d{i}.b_lt1")["external_load"] for i in range(3)] == [5e-15] * 3
    assert {n["external_load"] for n in blob["nets"] if ".b_lt1" not in n["id"]} == {0.0}


@pytest.mark.parametrize("chain", [lambda: build_cpa(build_qfa("qfa2", 0.9), 3, cl=1e-15),
                                   lambda: build_cpa(_loaded_cell(), 3, cl=1e-15),
                                   lambda: build_binary_slice("bfa2", 0.9, cl=1e-15)],
                         ids=["qfa2_cpa", "loaded_qfa2_cpa", "bfa2x2"])
def test_every_net_of_a_chain_of_copies_is_a_checked_net_record(chain):
    for n in chain().nets.values():
        assert type(n) is Net and Net(*n) == n


def test_copying_a_cell_twice_under_one_prefix_names_the_duplicate_net():
    cell = build_qfa("qfa2", 0.9)
    b = _Builder("twice", CellLibrary.default())
    ports = {name: b.port(name, p.direction, p.encoding) for name, p in cell.ports.items()}
    b.copy_cell(cell, "d0.", "d0", ports)
    with pytest.raises(NetlistError, match=r"^duplicate net id 'd0\.const1'$"):
        b.copy_cell(cell, "d0.", "d0", ports)


def test_cpa_requires_adder_ports():
    cell = build_qfa("qfa2", 0.9)
    broken = edited(cell, ports={n: p for n, p in cell.ports.items() if n != "Cout"})
    with pytest.raises(NetlistError):
        build_cpa(broken, 2)
    with pytest.raises(DomainError, match=r"^n_digits must be >= 1, got 0$"):
        build_cpa(cell, 0)


def test_cpa_exhaustive_small_and_random_medium():
    for n in (1, 2):
        cpa = build_cpa(build_qfa("qfa2", 0.9), n)
        assert verify_cpa(cpa, n) == []
    cpa4 = build_cpa(build_qfa("qfa1", 0.9), 4, cl=2e-15)
    assert verify_cpa(cpa4, 4, vectors=2000, seed=7) == []
    cpa8 = build_cpa(build_qfa("qfa2", 0.9), 8)
    assert verify_cpa(cpa8, 8, vectors=1000, seed=3) == []


def test_binary_cpa_matches_oracle():
    cpa = build_cpa(build_bfa("bfa2", 0.9), 8)
    assert verify_cpa(cpa, 8, vectors=1000, seed=11) == []
    cpa1 = build_cpa(build_bfa("bfa1", 0.45), 4)
    assert verify_cpa(cpa1, 4, vectors=500, seed=2) == []


# --------------------------------------------------------------------------
# Validation diagnostics


def test_validate_flags_carry_rail_mismatch():
    # QFA1 drives a 0.3 V carry rail; a QFA2-style Cin expects 0.9 V
    c = edited(build_qfa("qfa1", 0.9), pin_encodings={"mux2_cout.sel": binary_full(0.9)})
    diags = validate(c)
    assert any("encoding-mismatch" in d for d in diags)


def test_validate_flags_qfa1_cout_into_qfa2_cin():
    # chain a reduced-swing carry output into a full-swing carry input
    from mvadder.gates import CellLibrary
    from mvadder.levels import quaternary
    from mvadder.netlist import _Builder

    q1 = build_qfa("qfa1", 0.9)
    q2 = build_qfa("qfa2", 0.9)
    b = _Builder("mixed", CellLibrary.default())
    enc_q = quaternary(0.9)
    carry01 = b.net("carry01", q1.ports["Cout"].encoding)  # 0.3 V rail
    nets = {}
    for name in ("A0", "B0", "A1", "B1"):
        nets[name] = b.port(name, "in", enc_q)
    cin = b.port("Cin", "in", q1.ports["Cin"].encoding)
    s0 = b.port("S0", "out", enc_q)
    s1 = b.port("S1", "out", enc_q)
    cout = b.port("Cout", "out", q2.ports["Cout"].encoding)
    b.copy_cell(q1, "d0.", "d0", {"A": nets["A0"], "B": nets["B0"],
                                  "Cin": cin, "Sum": s0, "Cout": carry01})
    b.copy_cell(q2, "d1.", "d1", {"A": nets["A1"], "B": nets["B1"],
                                  "Cin": carry01, "Sum": s1, "Cout": cout})
    mixed = b.finalize()
    diags = validate(mixed)
    assert any("encoding-mismatch" in d and "carry01" in d for d in diags)


def test_validate_flags_a_port_whose_encoding_differs_from_its_nets():
    cell = build_qfa("qfa2", 0.9)

    def with_cin(encoding):
        return edited(cell, ports={**cell.ports, "Cin": cell.ports["Cin"]._replace(
            encoding=encoding)})

    c = with_cin(quaternary(0.9))
    assert validate(c) == ["encoding-mismatch: port Cin expects quat@0.9, net Cin carries bin@0.9"]
    with pytest.raises(DomainError, match="encoding-mismatch: port Cin"):
        compile_circuit(c)
    assert validate(with_cin(SignalEncoding("renamed", (0.0, 0.9)))) == []  # equal voltages


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_every_port_and_pin_of_a_built_circuit_shares_its_nets_encoding(kind):
    for c in (build_cell(kind, 0.9), build_cpa(build_cell(kind[:4], 0.9), 2)):
        assert validate(c) == []
        assert all(p.encoding is c.nets[p.net].encoding for p in c.ports.values())
        assert all(e is c.nets[inst.pins[pin]].encoding
                   for inst in c.instances.values() for pin, e in inst.pin_encodings.items())


def test_validate_names_a_port_on_no_net_and_missing_adder_ports():
    c = build_qfa("qfa2", 0.9)
    ports = {n: p for n, p in c.ports.items() if n != "Sum"}
    ports["Extra"] = Port("Extra", "in", c.ports["A"].encoding, "nowhere")
    assert validate(edited(c, ports=ports)) == [
        "port Extra: net 'nowhere' does not exist", "adder cell missing ports ['Sum']"]


def test_validate_flags_multiple_drivers_and_undriven():
    # second driver onto an internal net
    c = edited(build_qfa("qfa2", 0.9), pins={"succ1.y": "n_sum0"})
    diags = validate(c)
    assert any("multiple-driver" in d for d in diags)
    assert any("undriven" in d for d in diags)  # a_plus1 lost its driver


def test_validate_flags_cycle():
    c = build_qfa("qfa2", 0.9)
    # feed the carry inverter output back into the carry mux data pin
    c = edited(c, pins={"mux2_cout.d0": "n_cout"},
               pin_encodings={"mux2_cout.d0": c.nets["n_cout"].encoding})
    diags = validate(c)
    assert any("cycle" in d for d in diags)


def _cycle_diags(c) -> list:
    return [d for d in validate(c) if "cycle" in d]


def test_cycle_diagnostic_names_exactly_the_cycle_members():
    c = build_cpa(build_qfa("qfa2", 0.9), 3)
    # d0's carry out fed back into its own carry mux; d1 and d2 lie downstream
    c = edited(c, pins={"d0.mux2_cout.d0": c.instances["d0.inv_cout"].pins["y"]})
    assert _cycle_diags(c) == ["combinational cycle through instance 'd0.inv_cout'",
                               "combinational cycle through instance 'd0.mux2_cout'"]


def test_unbound_pin_and_cycle_are_reported_together():
    # succ1, unbound, and the sum muxes it feeds are never ordered
    c = edited(build_qfa("qfa2", 0.9), pins={"mux2_cout.d0": "n_cout", "succ1.a": UNBIND})
    diags = validate(c)
    assert "succ1: pin a unbound" in diags
    assert _cycle_diags(c) == ["combinational cycle through instance 'inv_cout'",
                               "combinational cycle through instance 'mux2_cout'"]
    with pytest.raises(DomainError, match="pin a unbound.*cycle through instance 'inv_cout'"):
        compile_circuit(c)


def test_a_cycle_behind_a_net_driven_twice_is_named_exactly():
    c = edited(build_qfa("qfa2", 0.9), pins={
        "succ2.y": "b_lt2",  # b_lt2 now has det2 and succ2 as drivers
        "mux_ncout1.d2": "n_ncout",  # mux_ncout1 -> mux2_cout -> mux_ncout1
    })
    diags = validate(c)
    assert any(d.startswith("multiple-driver net 'b_lt2'") for d in diags)
    # b_lt2 arrives once, so mux_ncout0, which it feeds, is not named
    assert _cycle_diags(c) == ["combinational cycle through instance 'mux2_cout'",
                               "combinational cycle through instance 'mux_ncout1'"]


def _upstream(c) -> dict:
    """Per instance: the instances driving its input nets."""
    driver = {inst.pins[p]: iid for iid, inst in c.instances.items()
              for p in KIND_SPECS[inst.primitive.kind].outputs}
    return {iid: [driver[inst.pins[p]] for p in KIND_SPECS[inst.primitive.kind].inputs
                  if inst.pins[p] in driver]
            for iid, inst in c.instances.items()}


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kahn_pass_orders_levels_and_finds_cycles_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    ups = _upstream(c)
    comp = compile_circuit(c)
    position = {comp.gate_ids[gi]: k for k, gi in enumerate(comp.topo_order)}
    assert sorted(position) == sorted(c.instances)
    assert all(position[u] < position[iid] for iid in ups for u in ups[iid])

    # one back edge: an input of v, upstream of u or u itself, now reads u
    u = str(rng.choice(list(c.instances)))
    above, todo = {u}, [u]
    while todo:
        for w in ups[todo.pop()]:
            if w not in above:
                above.add(w)
                todo.append(w)
    v = c.instances[str(rng.choice(sorted(above)))]
    u_out = c.instances[u].pins[str(rng.choice(KIND_SPECS[c.instances[u].primitive.kind].outputs))]
    c = edited(c, pins={f"{v.id}.{rng.choice(KIND_SPECS[v.primitive.kind].inputs)}": u_out})
    ups = _upstream(c)

    def on_cycle(iid):
        seen, todo = set(), list(ups[iid])
        while todo:
            w = todo.pop()
            if w == iid:
                return True
            if w not in seen:
                seen.add(w)
                todo += ups[w]
        return False

    members = sorted(iid for iid in c.instances if on_cycle(iid))
    assert u in members and v.id in members
    assert _cycle_diags(c) == [f"combinational cycle through instance {iid!r}" for iid in members]


# --------------------------------------------------------------------------
# Area report


def test_area_additive_over_cpa():
    cell = build_qfa("qfa2", 0.9)
    one = area_report(cell).total_sigma_di_nm
    four = area_report(build_cpa(cell, 4)).total_sigma_di_nm
    assert four == pytest.approx(4 * one)


def test_area_report_breakdown_shares_sum_to_one():
    rep = area_report(build_qfa("qfa2", 0.9))
    assert sum(k.share for k in rep.by_kind.values()) == pytest.approx(1.0)
    assert rep.by_kind["mux4"].instances == 4


def test_area_ratio_quaternary_vs_binary_pair():
    q = area_report(build_qfa("qfa2", 0.9)).total_sigma_di_nm
    b = area_report(build_binary_slice("bfa2", 0.9)).total_sigma_di_nm
    assert 3.0 <= q / b <= 5.0


def test_area_invariant_under_instance_reordering():
    c = build_qfa("qfa2", 0.9)
    rep1 = area_report(c)
    reordered = edited(c, instances=dict(reversed(list(c.instances.items()))))
    rep2 = area_report(reordered)
    assert rep1.total_sigma_di_nm == rep2.total_sigma_di_nm
    assert rep1.transistor_count == rep2.transistor_count


def test_bfa1_cell_inventory_attached_at_cell_level():
    c = build_bfa("bfa1", 0.9)
    rep = area_report(c)
    assert list(rep.by_kind) == ["bfa1_cell"]
    assert rep.by_kind["bfa1_cell"].transistors == 28
    # and it replicates across a chain
    rep2 = area_report(build_cpa(c, 3))
    assert rep2.transistor_count == 84
    assert rep2.by_kind["bfa1_cell"].instances == 3


# --------------------------------------------------------------------------
# JSON interchange


@pytest.mark.parametrize("factory", [
    lambda: build_qfa("qfa1", 0.9, cl=2e-15),
    lambda: build_bfa("bfa1", 0.45),
    lambda: build_cpa(build_qfa("qfa2", 0.9), 2, cl=2e-15),
    lambda: build_binary_slice("bfa2", 0.9),
])
def test_netlist_json_roundtrip_lossless(factory):
    c = factory()
    blob = to_json(c)
    # must survive an actual serialization, not just dict equality
    c2 = from_json(json.loads(json.dumps(blob)))
    assert to_json(c2) == blob
    assert validate(c2) == []
    assert compile_circuit(c2).net_cap == compile_circuit(c).net_cap


def _with_primitive(c, iid, inventory=None, **params):
    """``c`` with instance ``iid`` given a new primitive: its old one with
    the ``params`` fields and the ``inventory`` given."""
    inst = c.instances[iid]
    p = inst.primitive
    prim = GatePrimitive(p.kind, dataclasses.replace(p.params, **params), inventory or p.inventory)
    return edited(c, instances={**c.instances, iid: inst._replace(primitive=prim)})


def _zero_first(e):
    """An encoding equal to ``e`` whose first voltage is the int 0."""
    return SignalEncoding(e.name, (0, *e.level_voltages[1:]))


def test_numbers_equal_in_value_but_not_type_round_trip_byte_for_byte():
    """1 and 1.0 are equal dict keys, but each dumps as written: an
    instance whose supply differs from its twin's only in type has a
    primitive entry of its own, and keeps it."""
    c = _with_primitive(build_qfa("qfa2", 1), "mux_sum1", supply_voltage=1.0)
    blob = to_json(c)
    sum0, sum1 = (blob["primitives"][_entry(blob, "instances", iid)["primitive"]]
                  for iid in ("mux_sum0", "mux_sum1"))
    assert type(sum0["supply_voltage"]) is int and type(sum1["supply_voltage"]) is float
    c = from_json(json.loads(json.dumps(blob)))
    assert c.instances["mux_sum0"].primitive is not c.instances["mux_sum1"].primitive
    assert json.dumps(to_json(c), sort_keys=True) == json.dumps(blob, sort_keys=True)


@pytest.mark.parametrize("nid", ["n_sum", "A"])
def test_voltages_equal_in_value_but_not_type_round_trip_byte_for_byte(nid):
    """0 == 0.0, but each dumps as written: a net whose encoding starts at
    0 has an encoding entry of its own, whether it comes after its 0.0
    twins (n_sum) or before them (A), and the 0.0 nets keep theirs."""
    cell = build_qfa("qfa2", 0.9)
    net = cell.nets[nid]
    blob = to_json(edited(cell, nets={**cell.nets, nid: net._replace(
        encoding=_zero_first(net.encoding))}))
    assert len(blob["encodings"]) == 3
    c = from_json(json.loads(json.dumps(blob)))
    assert json.dumps(to_json(c), sort_keys=True) == json.dumps(blob, sort_keys=True)
    assert c.nets[nid].encoding is not c.nets["B" if nid == "A" else "A"].encoding


@pytest.mark.parametrize("iid", ["d1.mux2_sum", "d0.mux2_sum"])
@pytest.mark.parametrize("field", ["output_encoding", "pin_encodings"])
def test_instance_voltages_equal_in_value_but_not_type_round_trip_byte_for_byte(iid, field):
    """An instance whose output or first pin encoding starts at 0 where its
    twin in the other digit has 0.0 shares neither primitive nor pin map
    with it, whichever comes first, and the reload dumps the edit as made."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    inst = cpa.instances[iid]
    if field == "output_encoding":
        c = _with_primitive(cpa, iid,
                            output_encoding=_zero_first(inst.primitive.params.output_encoding))
    else:
        pin, e = next(iter(inst.pin_encodings.items()))
        c = edited(cpa, pin_encodings={f"{iid}.{pin}": _zero_first(e)})
    text = json.dumps(to_json(c))
    for data in (to_json(c), json.loads(text)):
        c = from_json(data)
        assert json.dumps(to_json(c)) == text
        twin = c.instances["d0.mux2_sum" if iid == "d1.mux2_sum" else "d1.mux2_sum"]
        assert c.instances[iid].primitive is not twin.primitive or (
            c.instances[iid].pin_encodings is not twin.pin_encodings)


@pytest.mark.parametrize("second", [True, False])
def test_an_inventory_count_equal_to_its_twins_but_a_bool_is_rejected(second):
    """True == 1, but a bool is no count: in the second of two primitive
    entries equal but for it, as in the first. Two equal entries, which
    to_json would merge, are refused."""
    blob = json.loads(json.dumps(to_json(build_cpa(build_qfa("qfa2", 0.9), 2))))
    k, twin = _entry(blob, "instances", "d0.mux2_sum")["primitive"], len(blob["primitives"])
    blob["primitives"][k]["inventory"][0][2] = 1
    blob["primitives"].append(json.loads(json.dumps(blob["primitives"][k])))
    _entry(blob, "instances", "d1.mux2_sum")["primitive"] = twin
    with pytest.raises(NetlistError, match=fr"^primitive {twin}: equal to primitive {k}$"):
        from_json(json.loads(json.dumps(blob)))
    bad = twin if second else k
    blob["primitives"][bad]["inventory"][0][2] = True
    with pytest.raises(NetlistError, match=fr"^primitive {bad}: field 'inventory': inventory "
                                           r"entry must hold whole numbers: \['N', 19, True\]$"):
        from_json(blob)


def _named_twice(blob, table: str) -> str:
    """Give the qfa2 cell's ``table`` a last entry equal to its first;
    returns the expected refusal."""
    blob[table].append(json.loads(json.dumps(blob[table][0])))
    return f"^{table[:-1]} {len(blob[table]) - 1}: equal to {table[:-1]} 0$"


def _named_nowhere(blob, table: str) -> str:
    """Give the qfa2 cell's ``table`` a last entry, of its own value, that no
    index names; returns the expected refusal."""
    entry = json.loads(json.dumps(blob[table][0]))
    if table == "encodings":
        entry["level_voltages"][-1] += 0.1
    elif table == "primitives":
        entry["supply_voltage"] += 0.1
    else:
        entry = {"spare": 0}
    blob[table].append(entry)
    return f"^{table[:-1]} {len(blob[table]) - 1}: no index names this entry$"


def _named_out_of_order(blob, table: str) -> str:
    """Swap the qfa2 cell's first two ``table`` entries, and every index of
    them; returns the expected refusal."""
    refs = {"encodings": [(e, "encoding") for e in blob["ports"] + blob["nets"]]
                         + [(p, "output_encoding") for p in blob["primitives"]]
                         + [(m, pin) for m in blob["pin_maps"] for pin in m],
            "primitives": [(i, "primitive") for i in blob["instances"]],
            "pin_maps": [(i, "pin_encodings") for i in blob["instances"]]}[table]
    for entry, key in refs:
        if entry[key] < 2:
            entry[key] = 1 - entry[key]
    blob[table][:2] = blob[table][1::-1]
    return f"^{table[:-1]} 1: first named before {table[:-1]} 0$"


@pytest.mark.parametrize("table", ["encodings", "primitives", "pin_maps"])
@pytest.mark.parametrize("edit", [_named_twice, _named_nowhere, _named_out_of_order])
def test_from_json_refuses_a_table_entry_that_would_not_dump_as_written(edit, table):
    """to_json writes each distinct entry once (values and their types),
    only those an index names, and numbers each table in order of first
    use: an entry equal to an earlier one of its table, named nowhere, or
    named before a lower-numbered one would not reload to its own bytes."""
    blob = json.loads(json.dumps(to_json(build_qfa("qfa2", 0.9))))
    message = edit(blob, table)
    with pytest.raises(NetlistError, match=message):
        from_json(blob)


# a mux4's pins all share one encoding: a reversed order keeps each position's encoding
@pytest.mark.parametrize("iid", ["d1.mux2_sum", "d0.mux2_sum", "d1.mux_sum0"])
def test_pin_encodings_in_another_order_than_the_twins_round_trip_byte_for_byte(iid):
    """A map is the same value in any pin order: it shares its twins' entry,
    and the file that dump_netlist writes (pins sorted) reloads to itself."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    inst = cpa.instances[iid]
    blob = to_json(edited(cpa, instances={**cpa.instances, iid: inst._replace(
        pin_encodings=dict(reversed(inst.pin_encodings.items())))}))
    assert len(blob["pin_maps"]) == len(to_json(cpa)["pin_maps"]) and blob == to_json(cpa)
    text = json.dumps(blob)
    for data in (blob, json.loads(text)):  # the dump as to_json gives it, or parsed
        assert json.dumps(to_json(from_json(data))) == text
    sorted_text = json.dumps(blob, sort_keys=True)
    assert json.dumps(to_json(from_json(json.loads(sorted_text))), sort_keys=True) == sorted_text


def test_an_encoding_name_that_cannot_be_a_key_names_the_field():
    blob = to_json(build_qfa("qfa2", 0.9))
    blob["encodings"][0] = {"name": ["quat"], "level_voltages": [0.0, 0.9]}
    with pytest.raises(NetlistError,
                       match=r"^encoding 0: encoding name must be a string, got \['quat'\]$"):
        from_json(blob)


def test_cpa_rejects_a_cell_whose_carries_differ():
    cell, e = build_qfa("qfa2", 0.9), binary_full(0.8)
    c = edited(cell, ports={**cell.ports, "Cout": cell.ports["Cout"]._replace(encoding=e)},
               nets={**cell.nets, "n_cout": cell.nets["n_cout"]._replace(encoding=e)})
    with pytest.raises(NetlistError, match="^cell carry-in and carry-out encodings differ; "
                                           "not chainable$"):
        build_cpa(c, 2)


def test_roundtripped_circuit_still_verifies():
    c = from_json(to_json(build_qfa("qfa2", 0.9)))
    assert adder_mismatches(c) == ([], 0)


# dump_netlist bytes (SHA-256) of circuits whose JSON form must not drift
DUMP_SHA256 = {
    "qfa2_cpa32": "d95f46ed43532f396a04edfd6ced1e83e6c552d77967523f76dace111c0ccf11",
    "bfa2x2": "aa68d40fd4234fb63bc16fac9c80e17fc1e740fe36de4ccd0dcf705e46375168",
}


@pytest.mark.parametrize("factory", [
    lambda: build_cpa(build_qfa("qfa2", 0.9), 32, cl=2e-15),
    lambda: build_binary_slice("bfa2", 0.9, cl=2e-15),
])
def test_dump_bytes_survive_a_json_round_trip(factory, tmp_path):
    import hashlib

    from mvadder.netlist import dump_netlist, load_netlist

    c = factory()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    dump_netlist(c, first)
    assert hashlib.sha256(first.read_bytes()).hexdigest() == DUMP_SHA256[c.name]
    dump_netlist(load_netlist(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_from_json_shares_equal_primitives_and_encodings():
    c = from_json(json.loads(json.dumps(to_json(build_cpa(build_qfa("qfa2", 0.9), 8)))))
    prims = [inst.primitive for inst in c.instances.values()]
    # mux_sum0 and mux_sum1 are equal but built apart; one object after loading
    assert len({id(p) for p in prims}) == len(set(prims)) < len(build_qfa("qfa2", 0.9).instances)
    encs = [net.encoding for net in c.nets.values()]
    encs += [e for inst in c.instances.values() for e in inst.pin_encodings.values()]
    assert len({id(e) for e in encs}) == len(set(encs)) == 2  # quaternary and binary


def test_a_cpa_dump_names_each_distinct_encoding_and_primitive_once():
    cell = build_qfa("qfa2", 0.9)
    blob = to_json(build_cpa(cell, 8))
    prims = [inst.primitive for inst in cell.instances.values()]
    assert len(blob["encodings"]) == 2 and len(blob["primitives"]) == len(set(prims)) == 11
    assert len(blob["pin_maps"]) == len({tuple(i.pin_encodings.items())
                                         for i in cell.instances.values()}) == 6
    # mux_sum0 and mux_sum1 share a primitive, and their pin maps are equal
    # but built apart: they share one entry of each table
    sum0, sum1 = (cell.instances[i] for i in ("mux_sum0", "mux_sum1"))
    assert sum0.pin_encodings is not sum1.pin_encodings
    sum0, sum1 = (_entry(blob, "instances", f"d3.{i}") for i in ("mux_sum0", "mux_sum1"))
    assert [sum0["primitive"], sum0["pin_encodings"]] == [sum1["primitive"], sum1["pin_encodings"]]


@pytest.mark.parametrize("n_digits", [32, 128])
def test_a_fresh_cpa_dump_survives_a_reload_in_memory_and_as_text(n_digits):
    """The round trip that the scale benchmark checks on every operation."""
    blob = to_json(build_cpa(build_qfa("qfa2", 0.9), n_digits, cl=2e-15))
    assert to_json(from_json(blob)) == blob
    assert to_json(from_json(json.loads(json.dumps(blob)))) == blob


@pytest.mark.parametrize("shape", ["in_memory", "file"])
def test_from_json_interns_both_traffic_shapes(shape):
    """A reload shares one object per distinct encoding and primitive value,
    whether its dicts are those to_json shares or fresh ones from a file."""
    built = build_cpa(build_qfa("qfa2", 0.9), 16)
    blob = to_json(built)
    data = blob if shape == "in_memory" else json.loads(json.dumps(blob))
    c = from_json(data)

    def objects(circuit):
        prims = [inst.primitive for inst in circuit.instances.values()]
        encs = [net.encoding for net in circuit.nets.values()]
        encs += [p.encoding for p in circuit.ports.values()]
        encs += [p.params.output_encoding for p in prims]
        encs += [e for inst in circuit.instances.values() for e in inst.pin_encodings.values()]
        return prims, encs

    for want, got in zip(objects(built), objects(c)):
        assert len({id(x) for x in got}) == len(set(got)) == len(set(want))
        assert set(got) == set(want)
    assert to_json(c) == blob
    want, got = compile_circuit(built), compile_circuit(c)
    for name in _COMPILED:
        assert getattr(got, name) == getattr(want, name), name


def test_from_json_confirms_an_interning_hit_by_value():
    """One name with other voltages, or equal kind and numbers with another
    inventory, is a different value: it gets an entry and an object of its
    own, and the entries after it still get the first."""
    cell = build_qfa("qfa2", 0.9)
    odd = SignalEncoding("quat@0.9", (0.0, 0.2, 0.5, 0.9))
    rows = tuple((dev, n, count + 1)
                 for dev, n, count in cell.instances["mux_sum1"].primitive.inventory.entries)
    blob = to_json(edited(_with_primitive(cell, "mux_sum1", TransistorInventory(rows)),
                          nets={**cell.nets, "a_plus2": cell.nets["a_plus2"]._replace(encoding=odd)}))
    assert (len(blob["encodings"]), len(blob["primitives"])) == (3, 12)
    for data in (blob, json.loads(json.dumps(blob))):
        c = from_json(data)
        a, odd_net, after = (c.nets[n].encoding for n in ("A", "a_plus2", "a_plus3"))
        assert odd_net is not a and odd_net.name == a.name
        assert odd_net.level_voltages == odd.level_voltages
        assert after is a
        sum0, sum1 = (c.instances[i].primitive for i in ("mux_sum0", "mux_sum1"))
        assert sum0 is not sum1 and sum0.params == sum1.params
        assert sum1.inventory.entries == rows
        assert to_json(c) == blob


def test_to_json_entries_are_independent_dicts():
    c = build_cpa(build_qfa("qfa2", 0.9), 4)
    blob = to_json(c)
    before = json.loads(json.dumps(blob))
    for key in ("encodings", "primitives", "pin_maps", "ports", "nets", "instances"):
        blob[key][0]["kind"] = "mutated"
        blob[key][0]["id"] = "mutated"
        assert blob[key][1:] == before[key][1:]
    assert blob["instances"][0]["pins"] is not blob["instances"][1]["pins"]
    # the entries of a cell's copies name one table entry: one changes alone
    blob = to_json(c)
    inst = _entry(blob, "instances", "d1.mux_sum0")
    inst["pins"]["d0"] = "elsewhere"
    inst["cell_tag"] = "mutated"
    blob["primitives"][inst["primitive"]]["inventory"][0][2] = 99
    blob["pin_maps"][inst["pin_encodings"]]["d0"] = 99
    blob["encodings"][0]["level_voltages"][0] = 99
    _entry(blob, "nets", "C1")["driver"] = ["mutated"]
    for key in ("ports", "nets", "instances"):
        for got, want in zip(blob[key], before[key]):
            if got is not inst and got.get("id") != "C1":
                assert got == want
    assert to_json(c) == before


@pytest.mark.parametrize("pins, message", [
    (lambda p: p.pop("a"), "instance 'inv_cout' pin 'a' unbound"),
    (lambda p: p.update(a="nowhere"), "instance 'inv_cout' pin 'a' bound to missing net 'nowhere'"),
    (lambda p: p.pop("y"), "instance 'inv_cout' pin 'y' unbound"),
])
def test_from_json_names_the_instance_and_pin_of_a_bad_binding(pins, message):
    blob = to_json(build_qfa("qfa2", 0.9))
    [inst] = [i for i in blob["instances"] if i["id"] == "inv_cout"]
    pins(inst["pins"])
    with pytest.raises(NetlistError, match=message):
        from_json(blob)


def test_from_json_rejects_a_second_driver():
    blob = to_json(build_qfa("qfa2", 0.9))
    [inst] = [i for i in blob["instances"] if i["id"] == "succ1"]
    inst["pins"]["y"] = "n_sum0"
    with pytest.raises(NetlistError, match="net 'n_sum0' already driven"):
        from_json(blob)


def _entry(blob, section, name):
    return next(d for d in blob[section] if name in (d.get("id"), d.get("name")))


def _primitive_of(blob, iid):
    return blob["primitives"][_entry(blob, "instances", iid)["primitive"]]


def _twin_primitive(blob, iid):
    """Give instance ``iid`` a second primitive entry, equal to its first, and
    return the new entry."""
    entry = json.loads(json.dumps(_primitive_of(blob, iid)))
    _entry(blob, "instances", iid)["primitive"] = len(blob["primitives"])
    blob["primitives"].append(entry)
    return entry


# the qfa2 cell's dump: encoding 0 is quat@0.9 and 1 bin@0.9; inv_cout has
# primitive 10 and pin map 5; mux_sum1 pin map 1
_INDEX_FIELDS = {  # a field that holds an index: how to set it, where it is, its table's top
    "primitive": (lambda b, v: _entry(b, "instances", "inv_cout").update(primitive=v),
                  "instance 'inv_cout': field 'primitive'", 10),
    "pin_encodings": (lambda b, v: _entry(b, "instances", "inv_cout").update(pin_encodings=v),
                      "instance 'inv_cout': field 'pin_encodings'", 5),
    "net encoding": (lambda b, v: _entry(b, "nets", "n_sum").update(encoding=v),
                     "net 'n_sum': field 'encoding'", 1),
    "port encoding": (lambda b, v: _entry(b, "ports", "Sum").update(encoding=v),
                      "port 'Sum': field 'encoding'", 1),
    "output_encoding": (lambda b, v: _primitive_of(b, "inv_cout").update(output_encoding=v),
                        "primitive 10: field 'output_encoding'", 1),
    "pin map": (lambda b, v: b["pin_maps"][5].update(a=v), "pin_map 5: field 'a'", 1),
}


def _bad_indices():
    """A case of each kind of bad index in each field of :data:`_INDEX_FIELDS`."""
    for field, (set_it, where, top) in _INDEX_FIELDS.items():
        for value, why in ((top + 1, f"<= {top}, got {top + 1}"), (-1, ">= 0, got -1"),
                           (np.int64(-1), ">= 0, got -1"),
                           (True, "a whole number, got True"), (1.0, "a whole number, got 1.0"),
                           ("0", "a whole number, got '0'")):
            yield pytest.param(lambda b, v=value, set_it=set_it: set_it(b, v),
                               f"^{where}: index must be {re.escape(why)}$",
                               id=f"index-{field}-{value!r}")


@pytest.mark.parametrize("mutate, message", [
    (lambda b: _entry(b, "ports", "Sum").pop("net"), "port 'Sum': missing field 'net'"),
    (lambda b: _entry(b, "ports", "Sum").update(direction="both"),
     "port 'Sum': field 'direction': expected 'in' or 'out'"),
    (lambda b: _entry(b, "instances", "inv_cout").update(pins=3),
     "instance 'inv_cout': field 'pins': 'int' object is not iterable"),
    (lambda b: _entry(b, "instances", "inv_cout")["pins"].update(a=["n_ncout"]),
     "instance 'inv_cout': field 'pins': unhashable type"),
    (lambda b: _entry(b, "instances", "inv_cout").update(pin_encodings={"a": 1}),
     r"instance 'inv_cout': field 'pin_encodings': index must be a whole number, got \{'a': 1\}"),
    # mux_sum1 shares mux_sum0's pin map, and its encodings
    (lambda b: b["encodings"][0].pop("level_voltages"), "encoding 0: missing field 'level_voltages'"),
    (lambda b: b["encodings"][1].update(level_voltages=5),
     "^encoding 1: field 'level_voltages': 'int' object is not iterable$"),
    (lambda b: b["pin_maps"].__setitem__(1, [["d0", None]]),
     "pin_map 1: 'list' object has no attribute 'items'"),
    (lambda b: b["encodings"].append({"name": "q", "level_voltages": [0.0]}),
     "^encoding 2: encoding 'q' must have 2 or 4 levels, got 1$"),
    (lambda b: _primitive_of(b, "inv_cout").update(input_cap_per_pin=[1e-15]),
     r"primitive 10: input_cap_per_pin must be finite and > 0, got \[1e-15\]"),
    (lambda b: _primitive_of(b, "inv_cout")["inventory"][0].pop(),
     r"primitive 10: field 'inventory': inventory entry must be \[device, chirality"),
    (lambda b: _primitive_of(b, "inv_cout").update(kind="flux"),
     "primitive 10: field 'kind': unknown gate kind 'flux'"),
    (lambda b: _entry(b, "nets", "n_sum").update(encoding={"name": "quat@0.9"}),
     "net 'n_sum': field 'encoding': index must be a whole number, got {'name': 'quat@0.9'}"),
    *[pytest.param(lambda b, v=v: b["encodings"][0]["level_voltages"].__setitem__(-1, v),
                   "^encoding 0: encoding 'quat@0.9' voltages must be finite numbers$",
                   id=f"level-voltage-{name}")
      for name, v in (("nan", float("nan")), ("inf", float("inf")), ("int-past-float", 10 ** 400),
                      ("bool", True))],
    (lambda b: _entry(b, "nets", "n_sum").update(driver=5), "net 'n_sum': field 'driver': "),
    (lambda b: _entry(b, "nets", "n_sum").update(id=["n_sum"]), "field 'id': unhashable type"),
    (lambda b: _entry(b, "nets", "A").update(driver="port"), "net 'A': field 'driver': expected"),
    (lambda b: b["nets"].append(5), "net 5: 'int' object is not subscriptable"),
    (lambda b: b["nets"].append(dict(_entry(b, "nets", "n_sum"))),
     "net 'n_sum': field 'id': another net has this id"),
    (lambda b: b["instances"].append(dict(_entry(b, "instances", "succ1"))),
     "instance 'succ1': field 'id': another instance has this id"),
    (lambda b: b["ports"].append(dict(_entry(b, "ports", "A"))),
     "port 'A': field 'name': another port has this name"),
    (lambda b: b.pop("name"), "netlist: missing field 'name'"),
    (lambda b: b.update(instances={}), "netlist: field 'instances': expected a list"),
    (lambda b: b["metadata"].update(cell_inventory_overrides={"cell0": [["N", 19]]}),
     "netlist: field 'metadata': inventory entry must be"),
    (lambda b: b.pop("format"), "^netlist: field 'format': expected 'mvadder-netlist-2', got None$"),
    (lambda b: b.update(format="mvadder-netlist-1"),
     "^netlist: field 'format': expected 'mvadder-netlist-2', got 'mvadder-netlist-1'$"),
    (lambda b: b.update(primitives={}), "netlist: field 'primitives': expected a list"),
    (lambda b: _twin_primitive(b, "mux_sum1")["inventory"][0].__setitem__(2, True),
     r"^primitive 11: field 'inventory': inventory entry must hold whole numbers: "
     r"\['N', 13, True\]$"),
    *_bad_indices(),
])
def test_from_json_names_the_entry_and_field_of_each_malformed_field(mutate, message):
    blob = json.loads(json.dumps(to_json(build_qfa("qfa2", 0.9))))
    mutate(blob)
    with pytest.raises(NetlistError, match=message):
        from_json(blob)


# in the qfa2 cell's dump each of these fields holds index 1
_INDEX_ONE = {
    "primitive": (lambda b: _entry(b, "instances", "det2"), "primitive",
                  "instance 'det2': field 'primitive'"),
    "pin_encodings": (lambda b: _entry(b, "instances", "mux_sum0"), "pin_encodings",
                      "instance 'mux_sum0': field 'pin_encodings'"),
    "net encoding": (lambda b: _entry(b, "nets", "Cin"), "encoding", "net 'Cin': field 'encoding'"),
    "port encoding": (lambda b: _entry(b, "ports", "Cin"), "encoding",
                      "port 'Cin': field 'encoding'"),
    "output_encoding": (lambda b: _primitive_of(b, "inv_cout"), "output_encoding",
                        "primitive 10: field 'output_encoding'"),
    "pin map": (lambda b: b["pin_maps"][5], "a", "pin_map 5: field 'a'"),
}


@pytest.mark.parametrize("field", _INDEX_ONE)
def test_a_numpy_index_loads_as_its_int_and_true_is_refused_though_it_equals_one(field):
    cell = build_qfa("qfa2", 0.9)
    blob, (entry_of, key, where) = to_json(cell), _INDEX_ONE[field]
    entry = entry_of(blob)
    assert entry[key] == 1
    entry[key] = np.int64(1)
    assert to_json(from_json(blob)) == to_json(cell)
    entry[key] = True
    with pytest.raises(NetlistError, match=f"^{where}: index must be a whole number, got True$"):
        from_json(blob)


@pytest.mark.parametrize("net, driver", [
    ("n_sum0", ["inst", 5]),
    ("n_sum0", ["inst"]),
    ("n_sum0", []),
    ("n_sum0", ["inst", "mux_sum0_renamed", "y"]),
    ("n_sum0", None),
    ("A", ["port", "Zzz"]),
    ("A", ["inst", "succ1", "y"]),
])
def test_from_json_checks_each_stored_driver_against_the_netlist(net, driver):
    blob = json.loads(json.dumps(to_json(build_qfa("qfa2", 0.9))))
    _entry(blob, "nets", net)["driver"] = driver
    with pytest.raises(NetlistError, match=rf"net '{net}': field 'driver': got "):
        from_json(blob)


def test_a_circuit_compiles_to_the_same_arrays_however_it_was_made():
    """Loads and delays come from the pins, not from how they were bound."""
    c = edited(build_qfa("qfa2", 0.9), pins={"mux_sum1.d3": "a_plus1"})
    assert validate(c) == []
    reloaded = from_json(json.loads(json.dumps(to_json(c))))
    built, loaded = compile_circuit(c), compile_circuit(reloaded)
    assert built.net_cap == loaded.net_cap
    assert built.gate_delay == loaded.gate_delay
    # a_plus1 feeds one more pin, A one fewer, than in the cell as built
    fresh = compile_circuit(build_qfa("qfa2", 0.9))
    pin_cap = c.instances["mux_sum1"].primitive.params.input_cap_per_pin
    for nid, more in (("a_plus1", 1), ("A", -1)):
        i = built.net_index[nid]
        assert built.net_cap[i] == pytest.approx(fresh.net_cap[i] + more * pin_cap, rel=1e-9, abs=0)


def test_a_pin_bound_to_no_net_id_gets_a_diagnostic():
    c = edited(build_qfa("qfa2", 0.9), pins={"inv_cout.a": ["x"], "det1.yb": {"y": 1}})
    diags = validate(c)
    assert "inv_cout.a: net ['x'] does not exist" in diags
    assert "det1.yb: net {'y': 1} does not exist" in diags
    with pytest.raises(DomainError, match=r"inv_cout\.a"):
        compile_circuit(c)
    blob = json.loads(json.dumps(to_json(c)))
    assert _entry(blob, "instances", "inv_cout")["pins"]["a"] == ["x"]
    assert _entry(blob, "nets", "b_ge1")["driver"] is None


@pytest.mark.parametrize("kind", ["qfa1", "qfa2", "bfa1", "bfa2", "bfa1x2", "bfa2x2"])
def test_build_cell_builds_each_kind(kind):
    want = (build_qfa(kind, 0.7, cl=1e-15) if kind.startswith("qfa") else
            build_binary_slice(kind[:4], 0.7, cl=1e-15) if kind.endswith("x2") else
            build_bfa(kind, 0.7, cl=1e-15))
    assert to_json(build_cell(kind.upper(), 0.7, cl=1e-15)) == to_json(want)
    if kind.endswith("x2"):  # the slice's own variant is case-blind too
        assert to_json(build_binary_slice(kind[:4].upper(), 0.7, cl=1e-15)) == to_json(want)


def test_build_cell_rejects_an_unknown_kind():
    with pytest.raises(NetlistError, match="unknown cell kind 'qfa3'"):
        build_cell("qfa3")


@pytest.mark.parametrize("level", [4, -1, 1.5, "a"])
def test_a_constant_driver_needs_a_level_of_its_net(level):
    blob = to_json(build_qfa("qfa2", 0.9))
    _entry(blob, "nets", "const0")["driver"] = ["const", level]
    with pytest.raises(NetlistError, match=r"net 'const0': driver must be \('const', level\)"):
        from_json(blob)
    with pytest.raises(NetlistError, match=r"net 'k': driver must be .* in \[0, 2\)"):
        Net("k", binary_full(0.9), ("const", level))


_COMPILED = ("gate_in", "gate_out", "gate_delay", "fanout", "topo_order",
             "const_gates", "net_rail", "gate_row", "net_cap", "net_init")


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_json_round_trip_of_random_circuits_keeps_bytes_and_compiled_arrays(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    blob = to_json(c)
    reloaded = from_json(json.loads(json.dumps(blob)))
    assert to_json(reloaded) == blob
    want, got = compile_circuit(c), compile_circuit(reloaded)
    for name in _COMPILED:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("load", [float("nan"), float("inf"), -float("inf"), -1e-15, "2fF", None,
                                  True, pytest.param(10 ** 400, id="int-past-float-range")])
def test_external_load_must_be_a_finite_number_at_least_zero(load):
    blob = to_json(build_qfa("qfa2", 0.9))
    [net] = [n for n in blob["nets"] if n["id"] == "n_sum"]
    net["external_load"] = load
    with pytest.raises(NetlistError, match="net 'n_sum': external_load must be a finite"):
        from_json(json.loads(json.dumps(blob)))
    with pytest.raises(NetlistError, match="net 'n_sum': external_load"):
        build_qfa("qfa2", 0.9, cl=load)


@pytest.mark.parametrize("entry, field, value, message", [
    ("nets", "external_load", None, "net 'n_sum': missing field 'external_load'"),
    ("primitives", "supply_voltage", None, "primitive 10: missing field 'supply_voltage'"),
    ("primitives", "supply_voltage", "0.9",
     "primitive 10: supply_voltage must be finite and > 0, got '0.9'"),
    pytest.param("primitives", "input_cap_per_pin", 10 ** 400,
                 "primitive 10: input_cap_per_pin must be finite and > 0, got 1000",
                 id="int-past-float-range"),
    *[pytest.param("primitives", f, True, f"primitive 10: {f} must be finite and > 0, "
                   "got True", id=f"bool-{f}") for f in ("supply_voltage", "input_cap_per_pin")],
])
def test_from_json_names_the_entry_and_field_at_fault(entry, field, value, message):
    blob = to_json(build_qfa("qfa2", 0.9))
    d = _entry(blob, "nets", "n_sum") if entry == "nets" else _primitive_of(blob, "inv_cout")
    if value is None:
        del d[field]
    else:
        d[field] = value
    with pytest.raises(NetlistError, match=message):
        from_json(blob)


# --------------------------------------------------------------------------
# A circuit is a value


def test_an_edited_copy_is_timed_afresh_and_its_original_is_not():
    """A pin rebound in a copy made through the constructors and
    dataclasses.replace times as the copy's JSON reload does, after the
    original has been compiled, and the original keeps its own timing."""
    c = build_qfa("qfa2", 0.9)
    assert sta(c, ["A"], ["Sum"]).worst_arrival_ps == 9.0
    inst = c.instances["mux_sum1"]
    rebound = Instance(inst.id, inst.primitive, {**inst.pins, "d3": "a_plus1"},
                       inst.pin_encodings, inst.cell_tag)
    copy = dataclasses.replace(c, instances={**c.instances, inst.id: rebound})
    reloaded = from_json(json.loads(json.dumps(to_json(copy))))
    assert sta(copy, ["A"], ["Sum"]).worst_arrival_ps == 11.0
    assert sta(reloaded, ["A"], ["Sum"]).worst_arrival_ps == 11.0
    assert sta(c, ["A"], ["Sum"]).worst_arrival_ps == 9.0


def test_every_part_of_a_circuit_is_read_only():
    c = build_cpa(build_qfa("qfa2", 0.9), 2)
    inst = c.instances["d0.mux_sum0"]
    for record in (c.nets["C1"], c.ports["A0"], inst):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    for f in dataclasses.fields(c):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, f.name)
    for m in (inst.pins, inst.pin_encodings, c.ports, c.nets, c.instances, c.metadata):
        key = next(iter(m))
        with pytest.raises(TypeError):
            m[key] = None
        with pytest.raises(TypeError):
            del m[key]


def test_the_maps_in_metadata_are_read_only_and_dump_as_dicts():
    c = build_bfa("bfa1", 0.9)
    with pytest.raises(TypeError):
        c.metadata["cell_inventory_overrides"]["cell0"] = TransistorInventory((("N", 19, 1),))
    assert area_report(c).transistor_count == 28
    cpa = build_cpa(c, 2)
    with pytest.raises(TypeError):
        cpa.metadata["cell_kinds"]["d0"] = "zzz"
    assert "zzz_cell" not in area_report(cpa).by_kind
    meta = to_json(cpa)["metadata"]
    assert type(meta["cell_kinds"]) is dict and meta["cell_kinds"] == {"d0": "bfa1", "d1": "bfa1"}
    meta["cell_kinds"]["d0"] = "zzz"  # the dump is a copy
    given = {"cell_kinds": {"cell0": "bfa1"}}
    copy = dataclasses.replace(cpa, metadata=given)
    given["cell_kinds"]["cell0"] = "zzz"
    assert cpa.metadata["cell_kinds"]["d0"] == copy.metadata["cell_kinds"]["cell0"] == "bfa1"


def test_metadata_is_read_only_at_every_depth_and_dumps_as_given():
    d = to_json(build_qfa("qfa2"))
    d["metadata"]["notes"] = ["a", {"k": [1]}]
    d["metadata"]["deep"] = {"x": {"y": 1}}
    c = from_json(d)
    with pytest.raises(AttributeError):
        c.metadata["notes"].append("b")
    with pytest.raises(TypeError):
        c.metadata["notes"][1]["k"] = [2]
    with pytest.raises(TypeError):
        c.metadata["deep"]["x"]["y"] = 2
    d["metadata"]["deep"]["x"]["y"] = 3  # the circuit keeps its own copy
    meta = to_json(c)["metadata"]
    assert meta["notes"] == ["a", {"k": [1]}] and meta["deep"] == {"x": {"y": 1}}
    assert type(meta["notes"]) is list and type(meta["notes"][1]["k"]) is list
    assert type(meta["deep"]["x"]) is dict
    # any nesting that json parses loads and dumps back
    d["metadata"]["deep"] = json.loads('{"m": ' * 900 + "1" + "}" * 900)
    assert json.loads(json.dumps(to_json(from_json(d))))["metadata"] == d["metadata"]


def test_records_keep_private_read_only_maps_however_they_are_made():
    """_replace and _make go through the constructor: its checks run and
    the maps given are copied into read-only ones."""
    c = build_qfa("qfa2", 0.9)
    inst, net = c.instances["inv_cout"], c.nets["n_sum"]
    pins, encs = {"a": "n_ncout", "y": "n_cout"}, {"a": binary_full(0.9)}
    for made in (Instance(inst.id, inst.primitive, pins, encs), inst._replace(pins=pins),
                 Instance._make([inst.id, inst.primitive, pins, encs, "t"])):
        assert type(made.pins) is MappingProxyType
        assert type(made.pin_encodings) is MappingProxyType
    pins["a"] = "elsewhere"
    assert made.pins["a"] == "n_ncout"
    with pytest.raises(NetlistError, match="net 'n_sum': external_load must be"):
        net._replace(external_load=-1.0)
    with pytest.raises(NetlistError, match=r"net 'k': driver must be"):
        Net._make(["k", binary_full(0.9), ("const", 2), 0.0])


def test_the_one_pass_runs_once_per_circuit(monkeypatch):
    calls = []
    real = netlist._analyse
    monkeypatch.setattr(netlist, "_analyse", lambda c: calls.append(id(c)) or real(c))
    c = build_cpa(build_qfa("qfa2", 0.9), 3)
    validate(c).append("a caller's own diagnostic")
    assert validate(c) == []  # a fresh list each time
    blob = to_json(c)
    assert sta(c, ["C0"], ["C3"]).worst_arrival_ps > 0
    assert calls == [id(c)]
    reloaded = from_json(blob)
    assert compile_circuit(reloaded) is compile_circuit(reloaded)
    assert validate(reloaded) == [] and to_json(reloaded) == blob
    assert calls == [id(c), id(reloaded)]
    copy = dataclasses.replace(c)  # a copy starts without the stored pass
    assert compile_circuit(copy) is not compile_circuit(c)
    assert calls == [id(c), id(reloaded), id(copy)]
    assert not hasattr(netlist, "_drivers")


def test_mux_data_with_more_levels_than_its_output_is_named():
    b = _Builder("wide", CellLibrary.default())
    quat, bit = quaternary(0.9), binary_full(0.9)
    d0, d1 = b.port("D0", "in", quat), b.port("D1", "in", bit)
    b.inst("m", "mux2", 0.9, bit, {"d0": d0, "d1": d1, "sel": b.port("S", "in", bit),
                                   "y": b.port("Y", "out", bit)})
    assert validate(b.finalize()) == [
        "mux-data-too-wide: m.d0 carries quat@0.9, more levels than its output bin@0.9"]


def test_from_json_loads_two_input_ports_on_one_net():
    blob = to_json(build_qfa("qfa2", 0.9))
    _entry(blob, "ports", "B")["net"] = "A"
    _entry(blob, "nets", "B")["driver"] = None
    diags = validate(from_json(blob))
    assert "undriven net 'B'" in diags
    assert "multiple-driver net 'A': [\"('port', 'A')\", \"('port', 'B')\"]" in diags


# --------------------------------------------------------------------------
# One template shared by many gates


def _one_template_per_gate(c):
    """``c`` with every instance given its own fresh GatePrimitive, equal to
    the one it had, and its own pin_encodings map."""
    instances = {}
    for iid, inst in c.instances.items():
        p = inst.primitive
        prim = GatePrimitive(p.kind, dataclasses.replace(p.params), p.inventory)
        instances[iid] = Instance(iid, prim, dict(inst.pins), dict(inst.pin_encodings),
                                  inst.cell_tag)
    return dataclasses.replace(c, instances=instances)


def _shared_templates(c):
    """``c`` with one GatePrimitive per distinct value and one read-only
    pin_encodings map per distinct value, each shared by every instance
    that has it."""
    prims, maps, instances = {}, {}, {}
    for iid, inst in c.instances.items():
        prim = prims.setdefault(inst.primitive, inst.primitive)
        key = tuple(sorted(inst.pin_encodings.items()))
        pin_enc = maps.setdefault(key, MappingProxyType(dict(key)))
        instances[iid] = netlist._instance(iid, prim, MappingProxyType(dict(inst.pins)),
                                           pin_enc, inst.cell_tag)
    return dataclasses.replace(c, instances=instances)


def _assert_same_everywhere(a, b):
    """The pass, validate, the dump bytes and (for a valid circuit) the
    compiled arrays of ``a`` and ``b`` are equal."""
    assert netlist._analyse(a) == netlist._analyse(b)
    assert validate(a) == validate(b)
    assert json.dumps(to_json(a)) == json.dumps(to_json(b))
    if not validate(a):
        want, got = compile_circuit(a), compile_circuit(b)
        for name in _COMPILED:
            assert getattr(got, name) == getattr(want, name), name


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shared_templates_change_nothing_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_gates=int(rng.integers(1, 30)))
    shared = _shared_templates(c)
    assert len({id(i.primitive) for i in shared.instances.values()}) <= len(c.instances)
    _assert_same_everywhere(_one_template_per_gate(c), shared)


def test_shared_templates_keep_every_diagnostic():
    """An unbound pin and an expected encoding the net does not carry, on
    gates whose templates other gates share, are named as on gates that
    share nothing."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 3)
    assert cpa.instances["d0.mux_sum0"].pin_encodings is cpa.instances["d2.mux_sum0"].pin_encodings
    bad = edited(cpa, pins={"d1.inv_cout.a": UNBIND},
                 pin_encodings={"d1.mux_sum0.d0": binary_full(0.9)})
    diags = validate(bad)
    assert "d1.inv_cout: pin a unbound" in diags
    assert "encoding-mismatch: d1.mux_sum0.d0 expects bin@0.9, net A1 carries quat@0.9" in diags
    for c in (cpa, bad):
        _assert_same_everywhere(_one_template_per_gate(c), _shared_templates(c))
        _assert_same_everywhere(c, _one_template_per_gate(c))


def test_from_json_gives_a_shared_primitive_the_pin_encodings_each_gate_binds():
    """mux_sum0 and mux_sum1 share one primitive; bound to a binary net,
    mux_sum1's pin_encodings differ from those of its twins, so it gets a
    pin map of its own, and the gates after it share the first again."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 2)
    blob = to_json(edited(cpa, pins={"d0.mux_sum1.d3": "d0.b_lt1"},
                          pin_encodings={"d0.mux_sum1.d3": binary_full(0.9)}))
    assert len(blob["pin_maps"]) == len(to_json(cpa)["pin_maps"]) + 1
    for data in (blob, json.loads(json.dumps(blob))):
        c = from_json(data)
        sum0, sum1, later = (c.instances[i] for i in ("d0.mux_sum0", "d0.mux_sum1", "d1.mux_sum1"))
        assert sum0.primitive is sum1.primitive is later.primitive
        assert sum1.pin_encodings["d3"].name == "bin@0.9"
        assert sum0.pin_encodings["d3"].name == later.pin_encodings["d3"].name == "quat@0.9"
        assert later.pin_encodings is sum0.pin_encodings
        assert validate(c) == [] and to_json(c) == blob


@pytest.mark.parametrize("build", [build_qfa, build_bfa], ids=["qfa", "bfa"])
@pytest.mark.parametrize("vdd", ["0.9", 10 ** 400, float("nan"), float("inf"), -float("inf"),
                                 True, False, 0, -0.5, None, [0.9], Decimal("0.9"),
                                 Fraction(9, 10)],
                         ids=["string", "int-past-float", "nan", "inf", "-inf", "true", "false",
                              "zero", "negative", "none", "list", "decimal", "fraction"])
def test_a_cell_supply_must_be_a_finite_number_above_zero(build, vdd):
    with pytest.raises(NetlistError, match=r"^vdd must be a finite number > 0, got "):
        build(build.__name__[-3:] + "2", vdd)


@pytest.mark.parametrize("vdd", [1, 0.45, np.float64(0.9)], ids=["int", "float", "numpy"])
def test_a_cell_supply_may_be_an_int_or_float_above_zero(vdd):
    for variant in ("qfa2", "bfa2"):
        assert build_cell(variant, vdd).metadata["vdd"] == vdd
