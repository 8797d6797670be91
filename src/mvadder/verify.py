"""Functional verification of generated circuits against the digit-serial
ripple oracle. A QFA or BFA cell is checked as a 1-digit ripple adder and
a two-cell binary slice as a 2-digit radix-2 one, both exhaustively; a
CPA is checked exhaustively when small, by seeded random vectors otherwise."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .engine import settle_matrix
from .levels import DomainError, cpa_oracle_rows, whole
from .netlist import Circuit

# A, B and sum digit ports (least significant first), carry in, carry out
_CELL_PORTS = (["A"], ["B"], ["Sum"], "Cin", "Cout")
_SLICE_PORTS = (["A0", "A1"], ["B0", "B1"], ["S0", "S1"], "Cin", "Cout")
_MAX_REPORTED = 20  # mismatch rows described by :func:`_adder_mismatches`


def cpa_is_exhaustive(radix: int, n_digits: int) -> bool:
    """Whether :func:`verify_cpa` checks every input combination of an
    ``n_digits`` radix-``radix`` CPA by default: at most 4096 of them."""
    return (radix ** n_digits) ** 2 * 2 <= 4096


def _adder_mismatches(adder: Circuit, ports: tuple, vectors: int = 10_000,
                      seed: int = 0, exhaustive: bool | None = True) -> tuple[list, int]:
    """Compare the settles of the ripple adder with these ``ports`` against
    the digit-serial ripple oracle: every input combination when
    ``exhaustive`` (None: by :func:`cpa_is_exhaustive`), ``vectors`` (at
    least 1) seeded random rows otherwise. Returns the descriptions of the
    first 20 mismatching rows, followed by ``"... (truncated)"`` when more
    rows mismatch, and the number of mismatching rows."""
    a_ports, b_ports, s_ports, cin, cout = ports
    n_digits, radix = len(a_ports), adder.ports[a_ports[0]].encoding.radix
    if exhaustive is None:
        exhaustive = cpa_is_exhaustive(radix, n_digits)
    if exhaustive:
        # rows run over A, then B, then Cin; digits least-significant first
        digits = np.arange(radix ** n_digits)[:, None] // radix ** np.arange(n_digits) % radix
        va, vb, c = np.indices((len(digits), len(digits), 2)).reshape(3, -1)
        mat = np.column_stack([c, digits[va], digits[vb]])
    else:
        vectors, seed = whole("vectors", vectors), whole("seed", seed)
        if vectors < 1:
            raise DomainError(f"vectors must be >= 1, got {vectors}")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
        mat[:, 0] = rng.integers(0, 2, size=vectors)
        mat[:, 1:] = rng.integers(0, radix, size=(vectors, 2 * n_digits))
    got = settle_matrix(adder, [cin, *a_ports, *b_ports], mat, [*s_ports, cout])

    a, b = mat[:, 1: 1 + n_digits], mat[:, 1 + n_digits:]
    want_sum, want_cout = cpa_oracle_rows(a, b, mat[:, 0], radix)
    rows = np.flatnonzero((got[:, :-1] != want_sum).any(axis=1) | (got[:, -1] != want_cout))
    bad = [f"A={tuple(a[r].tolist())} B={tuple(b[r].tolist())} Cin={mat[r, 0]}: got "
           f"S+C={tuple(got[r].tolist())}, want S={tuple(want_sum[r].tolist())} C={want_cout[r]}"
           for r in rows[:_MAX_REPORTED]]
    if len(rows) > _MAX_REPORTED:
        bad.append("... (truncated)")
    return bad, len(rows)


def verify_adder_cell(cell: Circuit) -> list:
    """Exhaustively settle a 1-digit adder cell as a 1-digit ripple adder;
    returns the mismatch descriptions (empty = pass)."""
    return _adder_mismatches(cell, _CELL_PORTS)[0]


def verify_binary_slice(slice_circuit: Circuit) -> list:
    """Check a 2-cell binary slice as a 2-digit radix-2 ripple adder, all
    32 cases; its A, B and sum digits are described as bits."""
    return _adder_mismatches(slice_circuit, _SLICE_PORTS)[0]


def cpa_mismatches(cpa: Circuit, n_digits: int, vectors: int = 10_000,
                   seed: int = 0, exhaustive: bool | None = None) -> tuple[list, int]:
    """Compare a :func:`~mvadder.netlist.build_cpa` chain's settles against
    the ripple oracle, exhaustively below 2 digits at radix 4 (or when
    forced), by ``vectors`` seeded random operand pairs otherwise: the
    first 20 mismatch descriptions and the mismatch count."""
    n_digits = whole("n_digits", n_digits)
    if n_digits < 1:
        raise DomainError(f"n_digits must be >= 1, got {n_digits}")
    return _adder_mismatches(cpa, _cpa_ports(n_digits), vectors, seed, exhaustive)


@lru_cache(maxsize=64)
def _cpa_ports(n_digits: int) -> tuple:
    """An ``n_digits`` :func:`~mvadder.netlist.build_cpa` chain's ports, as checked."""
    a, b, s = (tuple(f"{p}{i}" for i in range(n_digits)) for p in "ABS")
    return a, b, s, "C0", f"C{n_digits}"


def verify_cpa(cpa: Circuit, n_digits: int, vectors: int = 10_000,
               seed: int = 0, exhaustive: bool | None = None) -> list:
    """The mismatch descriptions of :func:`cpa_mismatches` (empty = pass)."""
    return cpa_mismatches(cpa, n_digits, vectors, seed, exhaustive)[0]
