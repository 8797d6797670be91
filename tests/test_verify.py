import numpy as np
import pytest

from mvadder import cli
from mvadder.engine import settle_matrix
from mvadder.levels import DigitVector, DomainError, cpa_oracle
from mvadder.netlist import build_cpa, build_qfa, from_json, to_json
from mvadder.verify import cpa_mismatches, verify_cpa


def broken_qfa2_cpa(n_digits=4, inst="d3.succ1", kind="succ2"):
    """A QFA2 CPA with one +1 successor swapped for another kind."""
    data = to_json(build_cpa(build_qfa("qfa2", 0.9), n_digits))
    [hit] = [i for i in data["instances"] if i["id"] == inst]
    hit["kind"] = kind
    return from_json(data)


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
    bad, n_bad = cpa_mismatches(cpa, 4, vectors=63, seed=0)
    assert n_bad == 20 and bad == want
    assert verify_cpa(cpa, 4, vectors=63, seed=0) == want


def test_more_than_twenty_mismatches_are_truncated():
    cpa = broken_qfa2_cpa()
    want = reference_lines(cpa, 4, random_matrix(4, 500, 2))
    assert len(want) > 21
    bad, n_bad = cpa_mismatches(cpa, 4, vectors=500, seed=2)
    assert n_bad == len(want)
    assert bad == want[:20] + ["... (truncated)"]


def test_few_mismatches_and_passing_cpas():
    cpa = broken_qfa2_cpa(inst="d0.succ1", kind="succ3")
    want = reference_lines(cpa, 4, random_matrix(4, 10, 1))
    assert 0 < len(want) < 20
    assert verify_cpa(cpa, 4, vectors=10, seed=1) == want
    good = build_cpa(build_qfa("qfa2", 0.9), 4)
    assert cpa_mismatches(good, 4, vectors=300, seed=4) == ([], 0)


def test_exhaustive_rows_run_over_a_then_b_then_cin():
    cpa = broken_qfa2_cpa(n_digits=1, inst="d0.succ1")
    rows = [(cin, a, b) for a in range(4) for b in range(4) for cin in (0, 1)]
    want = reference_lines(cpa, 1, np.array(rows))
    assert 0 < len(want) <= 20
    assert verify_cpa(cpa, 1) == want


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
    (lambda cell: cpa_mismatches(build_cpa(cell, 8), 8, vectors=2.5),
     "vectors must be a whole number, got 2.5"),
    (lambda cell: cpa_mismatches(build_cpa(cell, 8), 8, seed=1.5),
     "seed must be a whole number, got 1.5"),
])
def test_cpa_sizes_vector_counts_and_seeds_are_whole_numbers(call, message):
    with pytest.raises(DomainError, match=message):
        call(build_qfa("qfa2", 0.9))
    cpa = build_cpa(build_qfa("qfa2", 0.9), np.int64(8))  # what operator.index takes
    assert cpa_mismatches(cpa, np.int64(8), vectors=np.int32(5), seed=np.uint8(1)) == ([], 0)
