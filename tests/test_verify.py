import itertools

import numpy as np
import pytest

from mvadder import cli, engine, verify
from mvadder.engine import UnsettledOutputError, settle_matrix
from mvadder.levels import DigitVector, DomainError, bfa_oracle, cpa_oracle, qfa_oracle
from mvadder.gates import GatePrimitive
from mvadder.netlist import (CELL_KINDS, build_binary_slice, build_bfa, build_cell, build_cpa,
                             build_qfa)
from mvadder.verify import adder_mismatches, cpa_is_exhaustive, verify_cpa
from circuit_edits import UNBIND, edited
from random_circuits import random_circuit


def edited_cell(circuit, inst, kind=None, pins=None):
    """``circuit`` with instance ``inst`` retyped to ``kind`` (a new
    primitive with the old one's numbers and inventory) or its ``pins``
    rebound."""
    old = circuit.instances[inst]
    prim = old.primitive if kind is None else GatePrimitive(kind, old.primitive.params,
                                                            old.primitive.inventory)
    return edited(circuit, pins={f"{inst}.{pin}": net for pin, net in (pins or {}).items()},
                  instances={**circuit.instances, inst: old._replace(primitive=prim)})


def broken_qfa2_cpa(n_digits=4, inst="d3.succ1", kind="succ2"):
    """A QFA2 CPA with one +1 successor swapped for another kind."""
    return edited_cell(build_cpa(build_qfa("qfa2", 0.9), n_digits), inst, kind)


def random_matrix(n_digits, vectors, seed, radix=4):
    """The operand matrix verify_cpa draws for ``vectors`` and ``seed``."""
    rng = np.random.default_rng(seed)
    mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
    mat[:, 0] = rng.integers(0, 2, size=vectors)
    mat[:, 1:] = rng.integers(0, radix, size=(vectors, 2 * n_digits))
    return mat


def reference_lines(cpa, n_digits, mat):
    """Every mismatch row of ``mat`` described one row at a time with
    DigitVector and cpa_oracle."""
    in_ports = ["C0"] + [f"A{i}" for i in range(n_digits)] + [f"B{i}" for i in range(n_digits)]
    out_ports = [f"S{i}" for i in range(n_digits)] + [f"C{n_digits}"]
    got = settle_matrix(cpa, in_ports, mat, out_ports)
    radix = cpa.ports["A0"].encoding.radix
    lines = []
    for r in range(mat.shape[0]):
        a = DigitVector(radix, tuple(int(x) for x in mat[r, 1: 1 + n_digits]))
        b = DigitVector(radix, tuple(int(x) for x in mat[r, 1 + n_digits:]))
        cin = int(mat[r, 0])
        want_sum, want_cout = cpa_oracle(a, b, cin)
        got_row = tuple(int(x) for x in got[r])
        if got_row != want_sum.digits + (want_cout,):
            lines.append(f"A={a.digits} B={b.digits} Cin={cin}: got S+C={got_row}, "
                         f"want S={want_sum.digits} C={want_cout}")
    return lines


def test_exactly_twenty_mismatches_give_no_truncation_marker():
    cpa = broken_qfa2_cpa()
    want = reference_lines(cpa, 4, random_matrix(4, 63, 0))
    assert len(want) == 20
    bad, n_bad = adder_mismatches(cpa, vectors=63, seed=0)
    assert n_bad == 20 and bad == want
    assert verify_cpa(cpa, 4, vectors=63, seed=0) == want


def test_more_than_twenty_mismatches_are_truncated():
    cpa = broken_qfa2_cpa()
    want = reference_lines(cpa, 4, random_matrix(4, 500, 2))
    assert len(want) > 21
    bad, n_bad = adder_mismatches(cpa, vectors=500, seed=2)
    assert n_bad == len(want)
    assert bad == want[:20] + ["... (truncated)"]


def test_few_mismatches_and_passing_cpas():
    cpa = broken_qfa2_cpa(inst="d0.succ1", kind="succ3")
    want = reference_lines(cpa, 4, random_matrix(4, 10, 1))
    assert 0 < len(want) < 20
    assert verify_cpa(cpa, 4, vectors=10, seed=1) == want
    good = build_cpa(build_qfa("qfa2", 0.9), 4)
    assert adder_mismatches(good, vectors=300, seed=4) == ([], 0)


def test_exhaustive_rows_run_over_a_then_b_then_cin():
    cpa = broken_qfa2_cpa(n_digits=1, inst="d0.succ1")
    rows = [(cin, a, b) for a in range(4) for b in range(4) for cin in (0, 1)]
    want = reference_lines(cpa, 1, np.array(rows))
    assert 0 < len(want) <= 20
    assert verify_cpa(cpa, 1) == want


@pytest.mark.parametrize("n_digits, vectors, seed, n_bad", [
    (1, 5, 0, 8), (2, 10, 0, 128), (3, 1000, 9, 248), (4, 10, 1, 1), (4, 63, 0, 20),
    (4, 500, 2, 140)])
def test_broken_cpa_mismatch_counts_stay_pinned(n_digits, vectors, seed, n_bad):
    """The counts the CPA check gave when callers passed it the digit count."""
    cpa = broken_qfa2_cpa(n_digits, inst=f"d{n_digits - 1}.succ1")
    assert adder_mismatches(cpa, vectors=vectors, seed=seed)[1] == n_bad


@pytest.mark.parametrize("kind, n_digits, rows", [
    *[(kind, None, 8 if kind in ("bfa1", "bfa2") else 32) for kind in CELL_KINDS],
    ("qfa2", 2, 512), ("qfa2", 3, 7), ("bfa2", 5, 2048), ("bfa2", 6, 7)])
def test_adder_mismatches_takes_its_ports_and_rows_from_the_adder(kind, n_digits, rows,
                                                                  monkeypatch):
    """A cell's, a slice's or a CPA's own ports, in digit order; every
    input combination up to 4096 of them, seeded random rows beyond; each
    settled by the core of settle_matrix."""
    seen = []
    core = engine._settle_ports

    def spy(comp, plan, mat):
        seen.append((plan[0], mat, plan[3]))
        return core(comp, plan, mat)

    monkeypatch.setattr(engine, "_settle_ports", spy)
    cell = build_cell(kind, 0.9)
    adder = cell if n_digits is None else build_cpa(cell, n_digits)
    assert adder_mismatches(adder, vectors=7, seed=3) == ([], 0)
    if n_digits:
        a, b, s = ([f"{p}{i}" for i in range(n_digits)] for p in "ABS")
        cin, cout = "C0", f"C{n_digits}"
        assert verify_cpa(adder, n_digits, vectors=7, seed=3) == []
        assert np.array_equal(seen[1][1], seen[0][1])  # the same rows
    elif kind.endswith("x2"):
        (a, b, s), cin, cout = (["A0", "A1"], ["B0", "B1"], ["S0", "S1"]), "Cin", "Cout"
    else:
        (a, b, s), cin, cout = (["A"], ["B"], ["Sum"]), "Cin", "Cout"
    in_ports, mat, out_ports = seen[0]
    assert (in_ports, out_ports) == ((cin, *a, *b), (*s, cout))
    assert len(mat) == rows
    radix = adder.ports[a[0]].encoding.radix
    if rows == 7:
        assert np.array_equal(mat, random_matrix(len(a), 7, 3, radix))
    else:
        assert len(np.unique(mat, axis=0)) == rows == 2 * radix ** (2 * len(a))


def test_verify_cpa_resolves_the_adders_port_lists_once(monkeypatch):
    """Four checks of one adder read the kept port plan once per call and
    resolve the adder's port lists on the first alone."""
    resolved = []
    core = engine._port_plan

    def spy(comp, key):
        before = comp.port_plan
        plan = core(comp, key)
        resolved.append(comp.port_plan is not before)
        return plan

    monkeypatch.setattr(engine, "_port_plan", spy)
    cpa = build_cpa(build_cell("qfa2", 0.9), 16)
    for seed in range(4):
        assert verify_cpa(cpa, 16, vectors=32, seed=seed) == []
    assert resolved == [True, False, False, False]


@pytest.mark.parametrize("kind, n_digits", [
    *[(kind, None) for kind in CELL_KINDS], ("qfa2", 2), ("bfa2", 5),  # exhaustive
    ("qfa2", 3), ("qfa2", 16), ("bfa2", 6), ("bfa2", 32)])  # seeded random rows
def test_the_drawn_matrix_is_int64_within_each_input_ports_radix(kind, n_digits, monkeypatch):
    """The precondition of settle_matrix's core, which its range check
    enforces: every matrix the check draws, exhaustive or random, is int64
    with each column within its input port's radix."""
    seen = []
    core = engine._settle_ports

    def spy(comp, plan, mat):
        seen.append((plan[0], mat))
        return core(comp, plan, mat)

    monkeypatch.setattr(engine, "_settle_ports", spy)
    cell = build_cell(kind, 0.9)
    adder = cell if n_digits is None else build_cpa(cell, n_digits)
    for seed in (0, 1, 2):
        assert adder_mismatches(adder, vectors=300, seed=seed) == ([], 0)
    for in_ports, mat in seen:
        radix = [adder.ports[p].encoding.radix for p in in_ports]
        assert mat.dtype == np.int64 and mat.shape[1] == len(radix)
        assert mat.min(initial=0) >= 0 and (mat.max(axis=0, initial=0) < radix).all()
        assert len(np.unique(mat[:, 0])) == 2  # both carries in, and so both digit ends
        assert (mat.max(axis=0) == np.array(radix) - 1).all()


class _Drawn(Exception):
    """Raised in place of settling a drawn matrix, which it carries."""


@pytest.mark.parametrize("radix, n_digits", [(4, 1), (4, 4), (4, 16), (2, 32)])
def test_the_random_rows_are_numpys_integers_rows(radix, n_digits, monkeypatch):
    """adder_mismatches draws its rows from PCG64's raw words; they equal
    default_rng(seed).integers(0, 2, v), then .integers(0, radix, (v, 2n)),
    on every seed and row count here (a 1-digit CPA draws them only when
    not checked exhaustively). A change in numpy's draw fails here instead
    of silently changing every seed's rows."""
    def capture(adder, in_ports, mat, out_ports):
        raise _Drawn(mat)

    monkeypatch.setattr(verify, "settle_matrix", capture)
    monkeypatch.setattr(verify, "cpa_is_exhaustive", lambda radix, n_digits: False)
    cpa = build_cpa(build_cell("qfa2" if radix == 4 else "bfa2", 0.9), n_digits)
    for seed in range(100):
        for v in (1, 2, 3, 32, 33):
            with pytest.raises(_Drawn) as drawn:
                adder_mismatches(cpa, vectors=v, seed=seed)
            assert np.array_equal(drawn.value.args[0], random_matrix(n_digits, v, seed, radix))


def test_a_cpa_output_settling_to_x_is_named_through_verify_cpa():
    """A QFA2 CPA whose digit-1 carry inverter reads the quaternary A1 (as
    nand_l2_circuit feeds a NAND) settles to X wherever A1 is 2 or 3: the
    error names the ports that follow and the first such row of the draw."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 4)
    cpa = edited(cpa, pins={"d1.inv_cout.a": "A1"}, pin_encodings={"d1.inv_cout.a": UNBIND})
    for seed in (0, 1, 5):
        first = int(np.argmax(random_matrix(4, 50, seed)[:, 2] >= 2))  # A1's column
        with pytest.raises(UnsettledOutputError) as err:
            verify_cpa(cpa, 4, vectors=50, seed=seed)
        assert str(err.value) == (f"outputs ['S2', 'S3', 'C4'] settled to X during batch "
                                  f"evaluation, first at vector row {first}")


def without_ports(circuit, *names):
    """``circuit`` with its ``names`` ports dropped (their nets stay)."""
    return edited(circuit, ports={n: p for n, p in circuit.ports.items() if n not in names})


@pytest.mark.parametrize("make, missing", [
    (lambda: random_circuit(np.random.default_rng(0)), "A0, B0, S0, Cin, Cout"),
    (lambda: without_ports(build_qfa("qfa2", 0.9), "Cout"), "Cout"),
    (lambda: without_ports(build_binary_slice("bfa2", 0.9), "B1"), "B1"),
    (lambda: without_ports(build_cpa(build_qfa("qfa2", 0.9), 3), "S1", "C3"), "S1, C3"),
    (lambda: without_ports(build_cpa(build_qfa("qfa2", 0.9), 3), "A2"), "A2"),
    (lambda: without_ports(build_cpa(build_bfa("bfa2", 0.9), 4), "A1"), "A1"),
])
def test_a_circuit_that_is_not_an_adder_is_named_by_its_missing_ports(make, missing):
    with pytest.raises(DomainError, match=f"is not a ripple adder: no port {missing}$"):
        adder_mismatches(make())


def test_an_adder_keeps_its_ports_and_a_copy_names_its_own():
    """The ports are named once per adder; a copy made by dataclasses.replace
    starts without them, so a copy that lacks a port is named as lacking it."""
    cpa = build_cpa(build_qfa("qfa2", 0.9), 3)
    assert verify_cpa(cpa, 3, vectors=5) == [] and cpa._adder_ports is verify._adder_ports(cpa)
    with pytest.raises(DomainError, match="no port S1$"):
        verify_cpa(without_ports(cpa, "S1"), 3, vectors=5)


def test_cli_counts_mismatching_rows_not_lines(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_build", lambda args, lib: broken_qfa2_cpa())
    args = ["verify", "--cell", "cpa", "--digits", "4", "--vectors"]
    assert cli.main(["--seed", "0", *args, "63"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "qfa2 cpa x4: FAIL (20 mismatches)" and len(out) == 21
    assert cli.main(["--seed", "2", *args, "500"]) == 1
    out = capsys.readouterr().out.splitlines()
    n_bad = len(reference_lines(broken_qfa2_cpa(), 4, random_matrix(4, 500, 2)))
    assert out[-1] == f"qfa2 cpa x4: FAIL ({n_bad} mismatches)"
    assert out[-2] == "MISMATCH: ... (truncated)"


@pytest.mark.parametrize("call, message", [
    (lambda cell: build_cpa(cell, 2.5), "n_digits must be a whole number, got 2.5"),
    (lambda cell: adder_mismatches(build_cpa(cell, 8), vectors=2.5),
     "vectors must be a whole number, got 2.5"),
    (lambda cell: adder_mismatches(build_cpa(cell, 8), seed=1.5),
     "seed must be a whole number, got 1.5"),
    (lambda cell: verify_cpa(build_cpa(cell, 8), 0), "n_digits must be >= 1, got 0"),
    (lambda cell: verify_cpa(build_cpa(cell, 8), 7), "is not a 7-digit CPA$"),
    (lambda cell: verify_cpa(cell, 1), "is not a 1-digit CPA$"),
    (lambda cell: adder_mismatches(cell, vectors=0), "vectors must be >= 1, got 0"),
    (lambda cell: verify_cpa(build_cpa(cell, 1), 1, seed=-1), "seed must be >= 0, got -1"),
    (lambda cell: adder_mismatches(cell, vectors="x"), "vectors must be a whole number"),
    (lambda cell: build_cpa(cell, 0), "^n_digits must be >= 1, got 0$"),
    (lambda cell: cpa_is_exhaustive(4, -3), "^n_digits must be >= 1, got -3$"),
    (lambda cell: cpa_is_exhaustive("4", 2), "^radix must be a whole number, got '4'$"),
    (lambda cell: cpa_is_exhaustive(1, 2), "^radix must be >= 2, got 1$"),
])
def test_cpa_sizes_vector_counts_and_seeds_are_whole_numbers(call, message):
    with pytest.raises(DomainError, match=message):
        call(build_qfa("qfa2", 0.9))
    cpa = build_cpa(build_qfa("qfa2", 0.9), np.int64(8))  # what operator.index takes
    assert verify_cpa(cpa, np.int64(8), vectors=np.int32(5), seed=np.uint8(1)) == []
    assert adder_mismatches(cpa, vectors=np.int32(5), seed=np.uint8(1)) == ([], 0)


def cell_reference_lines(adder, bit_slice):
    """Every mismatch of a cell or two-cell slice, settled one case at a
    time and checked against qfa_oracle or bfa_oracle; a slice takes each
    quaternary digit as two bits, least significant first."""
    radix = 4 if bit_slice else adder.ports["A"].encoding.radix
    oracle = bfa_oracle if radix == 2 else qfa_oracle
    lines = []
    for a, b, cin in itertools.product(range(radix), range(radix), range(2)):
        want_s, want_c = oracle(a, b, cin)
        if bit_slice:
            bits = [a & 1, a >> 1, b & 1, b >> 1, cin]
            got = settle_matrix(adder, ["A0", "A1", "B0", "B1", "Cin"], np.array([bits]),
                                ["S0", "S1", "Cout"])[0].tolist()
            a, b, want_s = (a & 1, a >> 1), (b & 1, b >> 1), (want_s & 1, want_s >> 1)
        else:
            got = settle_matrix(adder, ["A", "B", "Cin"], np.array([[a, b, cin]]),
                                ["Sum", "Cout"])[0].tolist()
            a, b, want_s = (a,), (b,), (want_s,)
        if got != [*want_s, want_c]:
            lines.append(f"A={a} B={b} Cin={cin}: got S+C={tuple(got)}, want S={want_s} C={want_c}")
    return lines


BROKEN_CELLS = {  # a sum fault and a carry fault in each form
    "qfa2 succ1 as succ2": lambda: edited_cell(build_qfa("qfa2", 0.9), "succ1", "succ2"),
    "qfa2 inv_cout as buf": lambda: edited_cell(build_qfa("qfa2", 0.9), "inv_cout", "buf"),
    "bfa1 buf_cout as inv": lambda: edited_cell(build_bfa("bfa1", 0.9), "buf_cout", "inv"),
    "bfa1x2 b0.nand4 as nor": lambda: edited_cell(build_binary_slice("bfa1", 0.9),
                                                  "b0.nand4", "nor"),
    "bfa1x2 b1.buf_cout as inv": lambda: edited_cell(build_binary_slice("bfa1", 0.9),
                                                     "b1.buf_cout", "inv"),
    # no other gate kind has the pins of a mux2 or an xor_tg: swap a mux's data pins
    "bfa2x2 b1.mux_cout swapped": lambda: edited_cell(
        build_binary_slice("bfa2", 0.9), "b1.mux_cout", pins={"d0": "C1", "d1": "A1"}),
}


@pytest.mark.parametrize("name", BROKEN_CELLS)
def test_broken_cells_and_slices_fail_with_the_reference_rows(name):
    adder = BROKEN_CELLS[name]()
    bit_slice = "x2" in name
    want = cell_reference_lines(adder, bit_slice)
    assert want
    got, n_bad = adder_mismatches(adder)
    assert n_bad == len(want)
    assert got == (want if len(want) <= 20 else want[:20] + ["... (truncated)"])


@pytest.mark.parametrize("cell, name", [("qfa2", "qfa2 succ1 as succ2"),
                                        ("qfa2", "qfa2 inv_cout as buf"),
                                        ("bfa1x2", "bfa1x2 b1.buf_cout as inv")])
def test_cli_counts_the_mismatching_rows_of_a_cell(cell, name, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_build", lambda args, lib: BROKEN_CELLS[name]())
    assert cli.main(["verify", "--cell", cell]) == 1
    want = cell_reference_lines(BROKEN_CELLS[name](), "x2" in cell)
    shown = want if len(want) <= 20 else want[:20] + ["... (truncated)"]
    assert capsys.readouterr().out == "".join(
        [f"MISMATCH: {line}\n" for line in shown] + [f"{cell}: FAIL ({len(want)} mismatches)\n"])
