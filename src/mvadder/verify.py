"""Functional verification of ripple adders (a QFA or BFA cell: 1 digit; a
two-cell binary slice: 2 radix-2 digits; a CPA: N digits) against the
digit-serial ripple oracle, exhaustively when small, by seeded random rows."""

from __future__ import annotations

import numpy as np

from .engine import settle_matrix
from .levels import MAX_DIGITS, DomainError, _cpa_sums, whole
from .netlist import Circuit


def cpa_is_exhaustive(radix: int, n_digits: int) -> bool:
    """Whether :func:`adder_mismatches` checks every input combination of
    an ``n_digits`` radix-``radix`` adder: at most 4096 of them. A radix
    past 2..4 or a count past 1..MAX_DIGITS raises DomainError."""
    radix = whole("radix", radix, low=2, high=4)
    return (radix ** whole("n_digits", n_digits, low=1, high=MAX_DIGITS)) ** 2 * 2 <= 4096


def adder_mismatches(adder: Circuit, vectors: int = 10_000, seed: int = 0) -> tuple[list, int]:
    """Check a ripple adder against the oracle on every input combination
    when :func:`cpa_is_exhaustive` holds, else on ``vectors`` (at least 1,
    at most 2**27 matrix entries of 2n + 1 columns for n digits) seeded
    random rows. Its ports: a cell's ``A``, ``B``, ``Sum``, ``Cin``,
    ``Cout``; a slice's or CPA's digits ``A0``, ``B0``, ``S0``, ..., with
    ``Cin``, ``Cout`` or ``C0``, ``C{n}``; a ``DomainError`` names those it
    lacks. Returns the first 20 mismatching rows' descriptions (then
    ``"... (truncated)"`` if more rows mismatch) and the mismatch count.
    The matrix it draws is int64 and within each port's radix."""
    in_ports, out_ports = _adder_ports(adder)
    n_digits = len(out_ports) - 1
    # at most 2**27 int64 matrix entries, 1 GiB
    vectors = whole("vectors", vectors, low=1, high=2 ** 27 // len(in_ports))
    seed = whole("seed", seed, low=0)
    radix = adder.ports[in_ports[1]].encoding.radix
    if cpa_is_exhaustive(radix, n_digits):
        # rows run over A, then B, then Cin; digits least-significant first
        digits = np.arange(radix ** n_digits)[:, None] // radix ** np.arange(n_digits) % radix
        va, vb, c = np.indices((len(digits), len(digits), 2)).reshape(3, -1)
        mat = np.column_stack([c, digits[va], digits[vb]])
    else:
        # default_rng(seed).integers(0, 2, vectors), then (0, radix, (vectors, 2n)),
        # from the raw words: PCG64's 32-bit draws are its 64-bit outputs' halves,
        # low first, and a power-of-two bound takes a draw's top bits, never rejecting
        m = vectors * 2 * n_digits
        words = np.random.PCG64(seed).random_raw((vectors + m + 1) // 2).view(np.uint32)
        mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
        mat[:, 0] = words[:vectors] >> 31
        mat[:, 1:] = (words[vectors: vectors + m] >> (33 - radix.bit_length())).reshape(vectors, -1)
    got = settle_matrix(adder, in_ports, mat, out_ports)
    want = _cpa_sums(mat, radix)  # the matrix is drawn in range: no checks
    if (got == want).all():  # the one comparison of a passing check
        return [], 0
    a, b = mat[:, 1: 1 + n_digits], mat[:, 1 + n_digits:]
    rows = np.flatnonzero((got != want).any(axis=1))
    bad = [f"A={tuple(a[r].tolist())} B={tuple(b[r].tolist())} Cin={mat[r, 0]}: got "
           f"S+C={tuple(got[r].tolist())}, want S={tuple(want[r, :-1].tolist())} C={want[r, -1]}"
           for r in rows[:20]]
    if len(rows) > 20:
        bad.append("... (truncated)")
    return bad, len(rows)


def _adder_ports(adder: Circuit) -> tuple:
    """The input ports (carry in; A, then B digits, least significant first)
    and output ports (sum digits; carry out) of ``adder``: digit ``i`` is
    there while ``A{i}``, ``B{i}`` or ``S{i}`` is. Named once; the adder
    keeps them."""
    if adder._adder_ports is not None:
        return adder._adder_ports
    have, n = adder.ports, 1
    while f"A{n}" in have or f"B{n}" in have or f"S{n}" in have:
        n += 1
    a, b, s = (("A",), ("B",), ("Sum",)) if "A" in have else (
        tuple(f"{p}{i}" for i in range(n)) for p in "ABS")
    cin, cout = ("C0", f"C{n}") if "C0" in have else ("Cin", "Cout")
    if missing := [p for p in (*a, *b, *s, cin, cout) if p not in have]:
        raise DomainError(f"{adder.name} is not a ripple adder: no port {', '.join(missing)}")
    object.__setattr__(adder, "_adder_ports", ((cin, *a, *b), (*s, cout)))
    return adder._adder_ports


def verify_cpa(cpa: Circuit, n_digits: int, vectors: int = 10_000, seed: int = 0) -> list:
    """The mismatch descriptions of :func:`adder_mismatches` (empty = pass)
    for a :func:`~mvadder.netlist.build_cpa` chain of ``n_digits``."""
    n_digits = whole("n_digits", n_digits, low=1)
    if _adder_ports(cpa)[1][-1] != f"C{n_digits}":  # a cell's or slice's is Cout
        raise DomainError(f"{cpa.name} is not a {n_digits}-digit CPA")
    return adder_mismatches(cpa, vectors, seed)[0]
