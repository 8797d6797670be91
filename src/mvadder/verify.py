"""Functional verification of ripple adders (a QFA or BFA cell: 1 digit; a
two-cell binary slice: 2 radix-2 digits; a CPA: N digits) against the
digit-serial ripple oracle, exhaustively when small, by seeded random rows."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .engine import settle_matrix
from .levels import DomainError, _cpa_sums, whole
from .netlist import Circuit


def cpa_is_exhaustive(radix: int, n_digits: int) -> bool:
    """Whether :func:`adder_mismatches` checks every input combination of
    an ``n_digits`` radix-``radix`` adder: at most 4096 of them."""
    return (radix ** n_digits) ** 2 * 2 <= 4096


def adder_mismatches(adder: Circuit, vectors: int = 10_000, seed: int = 0) -> tuple[list, int]:
    """Check a ripple adder against the oracle on every input combination
    when :func:`cpa_is_exhaustive` holds, else on ``vectors`` (at least 1)
    seeded random rows. Its ports: a cell's ``A``, ``B``, ``Sum``, ``Cin``,
    ``Cout``; a slice's or CPA's digits ``A0``, ``B0``, ``S0``, ..., with
    ``Cin``, ``Cout`` or ``C0``, ``C{n}``; a ``DomainError`` names those it
    lacks. Returns the first 20 mismatching rows' descriptions (then
    ``"... (truncated)"`` if more rows mismatch) and the mismatch count."""
    return _adder_mismatches(adder, _adder_ports(adder), vectors, seed)


def _adder_mismatches(adder: Circuit, ports: tuple, vectors: int, seed: int) -> tuple[list, int]:
    """:func:`adder_mismatches` on the ``ports`` :func:`_adder_ports` reads."""
    a_ports, b_ports, s_ports, cin, cout = ports
    vectors, seed = whole("vectors", vectors), whole("seed", seed)
    if vectors < 1:
        raise DomainError(f"vectors must be >= 1, got {vectors}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n_digits, radix = len(a_ports), adder.ports[a_ports[0]].encoding.radix
    if cpa_is_exhaustive(radix, n_digits):
        # rows run over A, then B, then Cin; digits least-significant first
        digits = np.arange(radix ** n_digits)[:, None] // radix ** np.arange(n_digits) % radix
        va, vb, c = np.indices((len(digits), len(digits), 2)).reshape(3, -1)
        mat = np.column_stack([c, digits[va], digits[vb]])
    else:
        rng = np.random.default_rng(seed)
        mat = np.empty((vectors, 1 + 2 * n_digits), np.int64)
        mat[:, 0] = rng.integers(0, 2, size=vectors)
        mat[:, 1:] = rng.integers(0, radix, size=(vectors, 2 * n_digits))
    got = settle_matrix(adder, [cin, *a_ports, *b_ports], mat, [*s_ports, cout])

    a, b = mat[:, 1: 1 + n_digits], mat[:, 1 + n_digits:]
    want = _cpa_sums(a, b, mat[:, 0], radix)  # the matrix is drawn in range: no checks
    rows = np.flatnonzero((got != want).any(axis=1))
    bad = [f"A={tuple(a[r].tolist())} B={tuple(b[r].tolist())} Cin={mat[r, 0]}: got "
           f"S+C={tuple(got[r].tolist())}, want S={tuple(want[r, :-1].tolist())} C={want[r, -1]}"
           for r in rows[:20]]
    if len(rows) > 20:
        bad.append("... (truncated)")
    return bad, len(rows)


def _adder_ports(adder: Circuit) -> tuple:
    """(A, B, sum digit ports, least significant first; carry in; carry out)
    of ``adder``: digit ``i`` is there while ``A{i}``, ``B{i}`` or ``S{i}`` is."""
    have, n = adder.ports, 1
    while f"A{n}" in have or f"B{n}" in have or f"S{n}" in have:
        n += 1
    a, b, s = (("A",), ("B",), ("Sum",)) if "A" in have else _digit_ports(n)
    cin, cout = ("C0", f"C{n}") if "C0" in have else ("Cin", "Cout")
    if missing := [p for p in (*a, *b, *s, cin, cout) if p not in have]:
        raise DomainError(f"{adder.name} is not a ripple adder: no port {', '.join(missing)}")
    return a, b, s, cin, cout


@lru_cache(maxsize=64)
def _digit_ports(n: int) -> tuple:
    """The ``A``, ``B`` and ``S`` ports of ``n`` digits, named once (so hashed once)."""
    return tuple(tuple(f"{p}{i}" for i in range(n)) for p in "ABS")


def verify_cpa(cpa: Circuit, n_digits: int, vectors: int = 10_000, seed: int = 0) -> list:
    """The mismatch descriptions of :func:`adder_mismatches` (empty = pass)
    for a :func:`~mvadder.netlist.build_cpa` chain of ``n_digits``."""
    n_digits = whole("n_digits", n_digits)
    if n_digits < 1:
        raise DomainError(f"n_digits must be >= 1, got {n_digits}")
    ports = _adder_ports(cpa)
    if ports[4] != f"C{n_digits}":  # a cell's or slice's is Cout
        raise DomainError(f"{cpa.name} is not a {n_digits}-digit CPA")
    return _adder_mismatches(cpa, ports, vectors, seed)[0]
