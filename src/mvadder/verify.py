"""Functional verification of generated circuits against the arithmetic
oracles: exhaustive for single cells, random-vector for ripple chains."""

from __future__ import annotations

import itertools

import numpy as np

from .engine import settle_levels, settle_matrix
from .levels import DigitVector, DomainError, Level, bfa_oracle, cpa_oracle, qfa_oracle
from .netlist import Circuit


def verify_adder_cell(cell: Circuit) -> list:
    """Exhaustively settle a 1-digit adder cell against its oracle.

    Returns a list of mismatch descriptions (empty = pass).
    """
    radix = cell.ports["A"].encoding.radix
    oracle = qfa_oracle if radix == 4 else bfa_oracle
    cases = list(itertools.product(range(radix), range(radix), range(2)))
    assigns = [
        {"A": Level(a), "B": Level(b), "Cin": Level(c)} for a, b, c in cases
    ]
    outs = settle_levels(cell, assigns)
    bad = []
    for (a, b, c), got in zip(cases, outs):
        want_s, want_c = oracle(a, b, c)
        if int(got["Sum"]) != want_s or int(got["Cout"]) != want_c:
            bad.append(
                f"A={a} B={b} Cin={c}: got Sum={int(got['Sum'])} "
                f"Cout={int(got['Cout'])}, want Sum={want_s} Cout={want_c}"
            )
    return bad


def verify_binary_slice(slice_circuit: Circuit) -> list:
    """Check a 2-cell binary slice against the quaternary oracle under the
    2-bit digit encoding, all 32 cases."""
    cases = list(itertools.product(range(4), range(4), range(2)))
    assigns = []
    for a, b, c in cases:
        assigns.append({
            "A0": Level(a & 1), "A1": Level((a >> 1) & 1),
            "B0": Level(b & 1), "B1": Level((b >> 1) & 1),
            "Cin": Level(c),
        })
    outs = settle_levels(slice_circuit, assigns)
    bad = []
    for (a, b, c), got in zip(cases, outs):
        want_s, want_c = qfa_oracle(a, b, c)
        got_s = int(got["S0"]) + 2 * int(got["S1"])
        if got_s != want_s or int(got["Cout"]) != want_c:
            bad.append(
                f"A={a} B={b} Cin={c}: got Sum={got_s} Cout={int(got['Cout'])}, "
                f"want Sum={want_s} Cout={want_c}"
            )
    return bad


def cpa_is_exhaustive(radix: int, n_digits: int) -> bool:
    """Whether :func:`verify_cpa` checks every input combination of an
    ``n_digits`` radix-``radix`` CPA by default: at most 4096 of them."""
    return (radix ** n_digits) ** 2 * 2 <= 4096


def verify_cpa(cpa: Circuit, n_digits: int, vectors: int = 10_000,
               seed: int = 0, exhaustive: bool | None = None) -> list:
    """Compare CPA settles against digit-serial ripple oracle results.

    Exhaustive below 2 digits at radix 4 (or when forced), ``vectors``
    (at least 1) seeded random operand pairs otherwise.
    """
    radix = cpa.ports["A0"].encoding.radix
    if exhaustive is None:
        exhaustive = cpa_is_exhaustive(radix, n_digits)
    if exhaustive:
        rows = []
        for va in range(radix ** n_digits):
            a = DigitVector.from_int(va, radix, n_digits).digits
            for vb in range(radix ** n_digits):
                b = DigitVector.from_int(vb, radix, n_digits).digits
                for cin in (0, 1):
                    rows.append((cin,) + a + b)
        mat = np.array(rows, np.int64)
    else:
        if vectors < 1:
            raise DomainError(f"vectors must be >= 1, got {vectors}")
        rng = np.random.default_rng(seed)
        mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
        mat[:, 0] = rng.integers(0, 2, size=vectors)
        mat[:, 1:] = rng.integers(0, radix, size=(vectors, 2 * n_digits))

    in_ports = (["C0"] + [f"A{i}" for i in range(n_digits)]
                + [f"B{i}" for i in range(n_digits)])
    out_ports = [f"S{i}" for i in range(n_digits)] + [f"C{n_digits}"]
    got = settle_matrix(cpa, in_ports, mat, out_ports)

    bad = []
    for r in range(mat.shape[0]):
        a = DigitVector(radix, tuple(int(x) for x in mat[r, 1: 1 + n_digits]))
        b = DigitVector(radix, tuple(int(x) for x in mat[r, 1 + n_digits:]))
        cin = int(mat[r, 0])
        want_sum, want_cout = cpa_oracle(a, b, cin)
        got_row = tuple(int(x) for x in got[r])
        if got_row != want_sum.digits + (want_cout,):
            bad.append(
                f"A={a.digits} B={b.digits} Cin={cin}: got S+C={got_row}, "
                f"want S={want_sum.digits} C={want_cout}"
            )
            if len(bad) >= 20:
                bad.append("... (truncated)")
                break
    return bad
