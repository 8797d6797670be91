import dataclasses
import json
from functools import cache
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvadder import netlist
from mvadder._kernel import compile_circuit
from mvadder.gates import CellLibrary
from mvadder.levels import DomainError, binary_full, quaternary
from mvadder.netlist import (
    Instance,
    Net,
    NetlistError,
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
from mvadder.verify import verify_adder_cell, verify_binary_slice, verify_cpa
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


# --------------------------------------------------------------------------
# Functional equivalence (steady state vs oracles)


def test_qfa_variants_match_oracle_exhaustively():
    assert verify_adder_cell(build_qfa("qfa1", 0.9)) == []
    assert verify_adder_cell(build_qfa("qfa2", 0.9)) == []


def test_bfa_variants_match_oracle_exhaustively():
    assert verify_adder_cell(build_bfa("bfa1", 0.9)) == []
    assert verify_adder_cell(build_bfa("bfa2", 0.9)) == []
    assert verify_adder_cell(build_bfa("bfa2", 0.45)) == []


def test_binary_slice_equals_quaternary_digit():
    assert verify_binary_slice(build_binary_slice("bfa1", 0.9)) == []
    assert verify_binary_slice(build_binary_slice("bfa2", 0.9)) == []


def test_qfa_works_at_other_supplies():
    assert verify_adder_cell(build_qfa("qfa2", 1.2)) == []


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


def test_cpa_requires_adder_ports():
    cell = build_qfa("qfa2", 0.9)
    broken = edited(cell, ports={n: p for n, p in cell.ports.items() if n != "Cout"})
    with pytest.raises(NetlistError):
        build_cpa(broken, 2)
    with pytest.raises(NetlistError):
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
              for p in inst.primitive.output_pins}
    return {iid: [driver[inst.pins[p]] for p in inst.primitive.input_pins
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

    @cache
    def depth(iid):
        return 1 + max((depth(u) for u in ups[iid]), default=0)

    assert dict(zip(comp.gate_ids, comp.gate_level)) == {iid: depth(iid) for iid in c.instances}

    # one back edge: an input of v, upstream of u or u itself, now reads u
    u = str(rng.choice(list(c.instances)))
    above, todo = {u}, [u]
    while todo:
        for w in ups[todo.pop()]:
            if w not in above:
                above.add(w)
                todo.append(w)
    v = c.instances[str(rng.choice(sorted(above)))]
    u_out = c.instances[u].pins[str(rng.choice(c.instances[u].primitive.output_pins))]
    c = edited(c, pins={f"{v.id}.{rng.choice(v.primitive.input_pins)}": u_out})
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
    assert np.array_equal(compile_circuit(c2).net_cap, compile_circuit(c).net_cap)


def test_roundtripped_circuit_still_verifies():
    c = from_json(to_json(build_qfa("qfa2", 0.9)))
    assert verify_adder_cell(c) == []


# dump_netlist bytes (SHA-256) of circuits whose JSON form must not drift
DUMP_SHA256 = {
    "qfa2_cpa32": "d0f2e4fe25773377c3546737fe8a41137c26afb6ee3b07e6b470564b2236bd16",
    "bfa2x2": "bf7b6644e8f02c06f55ae3823c9b3323d7cf0ea505c3dadb594e28cab60655e2",
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
    for name in ("gate_row", "net_cap", "net_init"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_from_json_confirms_an_interning_hit_by_value():
    """One name with other voltages, or equal kind and numbers with another
    inventory, is a different value: it gets an object of its own, and the
    entries after it still get the first."""
    blob = to_json(build_qfa("qfa2", 0.9))
    quat = _entry(blob, "nets", "A")["encoding"]
    odd = {"name": quat["name"], "level_voltages": [0.0, 0.2, 0.5, 0.9]}
    _entry(blob, "nets", "a_plus2")["encoding"] = odd
    mux = _entry(blob, "instances", "mux_sum1")
    mux["inventory"] = [[dev, n, count + 1] for dev, n, count in mux["inventory"]]
    for data in (blob, json.loads(json.dumps(blob))):
        c = from_json(data)
        a, odd_net, after = (c.nets[n].encoding for n in ("A", "a_plus2", "a_plus3"))
        assert odd_net is not a and odd_net.name == a.name
        assert list(odd_net.level_voltages) == odd["level_voltages"]
        assert after is a
        sum0, sum1 = (c.instances[i].primitive for i in ("mux_sum0", "mux_sum1"))
        assert sum0 is not sum1 and sum0.params == sum1.params
        assert [list(e) for e in sum1.inventory.entries] == mux["inventory"]
        assert to_json(c) == blob


def test_to_json_entries_are_independent_dicts():
    blob = to_json(build_cpa(build_qfa("qfa2", 0.9), 3))
    before = json.loads(json.dumps(blob))
    for key in ("ports", "nets", "instances"):
        blob[key][0]["kind"] = "mutated"
        blob[key][0]["id"] = "mutated"
        assert blob[key][1:] == before[key][1:]
    assert blob["instances"][0]["pins"] is not blob["instances"][1]["pins"]


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


@pytest.mark.parametrize("mutate, message", [
    (lambda b: _entry(b, "ports", "Sum").pop("net"), "port 'Sum': missing field 'net'"),
    (lambda b: _entry(b, "ports", "Sum").update(direction="both"),
     "port 'Sum': field 'direction': expected 'in' or 'out'"),
    (lambda b: _entry(b, "instances", "inv_cout").update(pins=3),
     "instance 'inv_cout': field 'pins': 'int' object is not iterable"),
    (lambda b: _entry(b, "instances", "inv_cout")["pins"].update(a=["n_ncout"]),
     "instance 'inv_cout': field 'pins': unhashable type"),
    (lambda b: _entry(b, "instances", "inv_cout").update(pin_encodings=3),
     "instance 'inv_cout': field 'pin_encodings': 'int' object has no attribute 'items'"),
    (lambda b: _entry(b, "instances", "inv_cout").update(input_cap_per_pin=[1e-15]),
     r"instance 'inv_cout': input_cap_per_pin must be finite and > 0, got \[1e-15\]"),
    (lambda b: _entry(b, "instances", "inv_cout")["inventory"][0].pop(),
     r"instance 'inv_cout': field 'inventory': inventory entry must be \[device, chirality"),
    (lambda b: _entry(b, "instances", "inv_cout").update(kind="flux"),
     "instance 'inv_cout': field 'kind': unknown gate kind 'flux'"),
    (lambda b: _entry(b, "nets", "n_sum").update(encoding={"name": "quat@0.9"}),
     "net 'n_sum': field 'encoding': missing field 'level_voltages'"),
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
])
def test_from_json_names_the_entry_and_field_of_each_malformed_field(mutate, message):
    blob = json.loads(json.dumps(to_json(build_qfa("qfa2", 0.9))))
    mutate(blob)
    with pytest.raises(NetlistError, match=message):
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
    assert np.array_equal(built.net_cap, loaded.net_cap)
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


_COMPILED = ("gate_in", "gate_out", "gate_delay", "fanout", "topo_order", "gate_level",
             "const_gates", "net_rail")


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
    for name in ("gate_row", "net_cap", "net_init"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("load", [float("nan"), float("inf"), -float("inf"), -1e-15, "2fF", None])
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
    ("instances", "supply_voltage", None, "instance 'inv_cout': missing field 'supply_voltage'"),
    ("instances", "supply_voltage", "0.9",
     "instance 'inv_cout': supply_voltage must be finite and > 0, got '0.9'"),
])
def test_from_json_names_the_entry_and_field_at_fault(entry, field, value, message):
    blob = to_json(build_qfa("qfa2", 0.9))
    [d] = [d for d in blob[entry] if d["id"] in ("n_sum", "inv_cout")]
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
