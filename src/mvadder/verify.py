"""Functional verification of generated circuits against the arithmetic
oracles: exhaustive for single cells, random-vector for ripple chains."""

from __future__ import annotations

import itertools

import numpy as np

from .engine import settle_matrix
from .levels import DomainError, bfa_oracle, cpa_oracle_rows, qfa_oracle
from .netlist import Circuit


def _cell_mismatches(cases, got, oracle) -> list:
    """Descriptions of the (a, b, cin) ``cases`` whose settled (Sum, Cout)
    in ``got`` differ from ``oracle``'s."""
    return [
        f"A={a} B={b} Cin={c}: got Sum={s} Cout={co}, want Sum={want[0]} Cout={want[1]}"
        for (a, b, c), (s, co) in zip(cases, got)
        for want in [oracle(a, b, c)] if (s, co) != want
    ]


def verify_adder_cell(cell: Circuit) -> list:
    """Exhaustively settle a 1-digit adder cell against its oracle; returns
    the mismatch descriptions (empty = pass)."""
    radix = cell.ports["A"].encoding.radix
    cases = list(itertools.product(range(radix), range(radix), range(2)))
    got = settle_matrix(cell, ["A", "B", "Cin"], np.array(cases), ["Sum", "Cout"])
    return _cell_mismatches(cases, got.tolist(), qfa_oracle if radix == 4 else bfa_oracle)


def verify_binary_slice(slice_circuit: Circuit) -> list:
    """Check a 2-cell binary slice against the quaternary oracle under the
    2-bit digit encoding, all 32 cases."""
    cases = list(itertools.product(range(4), range(4), range(2)))
    bits = [(a & 1, a >> 1, b & 1, b >> 1, c) for a, b, c in cases]
    s0, s1, cout = settle_matrix(slice_circuit, ["A0", "A1", "B0", "B1", "Cin"],
                                 np.array(bits), ["S0", "S1", "Cout"]).T.tolist()
    got = [(lo + 2 * hi, co) for lo, hi, co in zip(s0, s1, cout)]
    return _cell_mismatches(cases, got, qfa_oracle)


def cpa_is_exhaustive(radix: int, n_digits: int) -> bool:
    """Whether :func:`verify_cpa` checks every input combination of an
    ``n_digits`` radix-``radix`` CPA by default: at most 4096 of them."""
    return (radix ** n_digits) ** 2 * 2 <= 4096


_MAX_REPORTED = 20  # mismatch rows described by :func:`cpa_mismatches`


def cpa_mismatches(cpa: Circuit, n_digits: int, vectors: int = 10_000,
                   seed: int = 0, exhaustive: bool | None = None) -> tuple[list, int]:
    """Compare CPA settles against the digit-serial ripple oracle.

    Exhaustive below 2 digits at radix 4 (or when forced), ``vectors``
    (at least 1) seeded random operand pairs otherwise. Returns the
    descriptions of the first 20 mismatching rows, followed by
    ``"... (truncated)"`` when more rows mismatch, and the number of
    mismatching rows.
    """
    radix = cpa.ports["A0"].encoding.radix
    if exhaustive is None:
        exhaustive = cpa_is_exhaustive(radix, n_digits)
    if exhaustive:
        # rows run over A, then B, then Cin; digits least-significant first
        digits = np.arange(radix ** n_digits)[:, None] // radix ** np.arange(n_digits) % radix
        va, vb, cin = np.indices((len(digits), len(digits), 2)).reshape(3, -1)
        mat = np.column_stack([cin, digits[va], digits[vb]])
    else:
        if vectors < 1:
            raise DomainError(f"vectors must be >= 1, got {vectors}")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
        mat[:, 0] = rng.integers(0, 2, size=vectors)
        mat[:, 1:] = rng.integers(0, radix, size=(vectors, 2 * n_digits))

    in_ports = (["C0"] + [f"A{i}" for i in range(n_digits)]
                + [f"B{i}" for i in range(n_digits)])
    out_ports = [f"S{i}" for i in range(n_digits)] + [f"C{n_digits}"]
    got = settle_matrix(cpa, in_ports, mat, out_ports)

    a, b = mat[:, 1: 1 + n_digits], mat[:, 1 + n_digits:]
    want_sum, want_cout = cpa_oracle_rows(a, b, mat[:, 0], radix)
    rows = np.flatnonzero((got != np.column_stack([want_sum, want_cout])).any(axis=1))
    bad = [f"A={tuple(a[r].tolist())} B={tuple(b[r].tolist())} Cin={mat[r, 0]}: got "
           f"S+C={tuple(got[r].tolist())}, want S={tuple(want_sum[r].tolist())} C={want_cout[r]}"
           for r in rows[:_MAX_REPORTED]]
    if len(rows) > _MAX_REPORTED:
        bad.append("... (truncated)")
    return bad, len(rows)


def verify_cpa(cpa: Circuit, n_digits: int, vectors: int = 10_000,
               seed: int = 0, exhaustive: bool | None = None) -> list:
    """The mismatch descriptions of :func:`cpa_mismatches` (empty = pass)."""
    return cpa_mismatches(cpa, n_digits, vectors, seed, exhaustive)[0]
