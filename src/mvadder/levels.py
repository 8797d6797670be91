"""Logic levels, voltage encodings and the pure arithmetic adder oracles.

Everything in this module is plain math with no circuit state; the rest of
the package is verified against these functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Operand outside the legal domain of an operation."""


class EncodingMismatchError(ValueError):
    """Level/encoding combination that has no physical representation."""


class Level(enum.IntEnum):
    """Logical value carried by a net. ``X`` marks unknown/uninitialized."""

    L0 = 0
    L1 = 1
    L2 = 2
    L3 = 3
    X = -1


#: Default guard band for voltage-to-level decoding, as a fraction of the
#: inter-level spacing. 0.33 is the widest window that keeps four levels
#: unambiguous.
DEFAULT_GUARD = 0.33


@dataclass(frozen=True)
class SignalEncoding:
    """Mapping from logical values to voltages for one family of nets.

    ``level_voltages`` must be strictly increasing and start at 0 V; its
    length fixes the radix (2 for binary rails, 4 for quaternary signals).
    """

    name: str
    level_voltages: tuple[float, ...]

    def __post_init__(self):
        v = self.level_voltages
        if len(v) not in (2, 4):
            raise EncodingMismatchError(
                f"encoding {self.name!r} must have 2 or 4 levels, got {len(v)}"
            )
        if v[0] != 0.0:
            raise EncodingMismatchError(f"encoding {self.name!r} must start at 0 V")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise EncodingMismatchError(
                f"encoding {self.name!r} voltages must be strictly increasing"
            )

    @property
    def radix(self) -> int:
        return len(self.level_voltages)

    @property
    def swing(self) -> float:
        return self.level_voltages[-1]


def quaternary(vdd: float) -> SignalEncoding:
    """Four full-swing levels at 0, vdd/3, 2*vdd/3, vdd."""
    return SignalEncoding(
        f"quat@{vdd:g}", (0.0, vdd / 3.0, 2.0 * vdd / 3.0, vdd)
    )


def binary_full(vdd: float) -> SignalEncoding:
    """Two levels at 0 and vdd (full-swing binary rail)."""
    return SignalEncoding(f"bin@{vdd:g}", (0.0, vdd))


def third_swing(vdd: float) -> SignalEncoding:
    """Two levels at 0 and vdd/3 (reduced-swing binary carry rail)."""
    return SignalEncoding(f"bin3rd@{vdd:g}", (0.0, vdd / 3.0))


def to_voltage(level: Level, enc: SignalEncoding) -> float:
    """Nominal voltage of ``level`` under ``enc``.

    Raises :class:`EncodingMismatchError` for X or a level outside the
    encoding's radix.
    """
    if level == Level.X:
        raise EncodingMismatchError("X has no voltage")
    idx = int(level)
    if idx < 0 or idx >= enc.radix:
        raise EncodingMismatchError(
            f"level {idx} not representable in {enc.radix}-level encoding {enc.name!r}"
        )
    return enc.level_voltages[idx]


def from_voltage(v: float, enc: SignalEncoding, guard: float = DEFAULT_GUARD) -> Level:
    """Decode a voltage back to a level; out-of-band voltages decode to X.

    A voltage is accepted if it lies within ``guard`` times the inter-level
    spacing of the nearest nominal level.
    """
    if not 0.0 < guard < 0.5:
        raise DomainError(f"guard must be in (0, 0.5), got {guard}")
    volts = enc.level_voltages
    spacing = min(b - a for a, b in zip(volts, volts[1:]))
    best = min(range(len(volts)), key=lambda i: abs(v - volts[i]))
    if abs(v - volts[best]) <= guard * spacing:
        return Level(best)
    return Level.X


@dataclass(frozen=True)
class DigitVector:
    """Fixed-radix digit string, least-significant digit first."""

    radix: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.radix not in (2, 4):
            raise DomainError(f"radix must be 2 or 4, got {self.radix}")
        for d in self.digits:
            if not 0 <= int(d) < self.radix:
                raise DomainError(f"digit {d} out of range for radix {self.radix}")

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """Integer value of the digit string."""
        total = 0
        for d in reversed(self.digits):
            total = total * self.radix + int(d)
        return total

    @classmethod
    def from_int(cls, value: int, radix: int, n_digits: int) -> "DigitVector":
        if value < 0 or value >= radix**n_digits:
            raise DomainError(f"{value} does not fit in {n_digits} radix-{radix} digits")
        digits = []
        for _ in range(n_digits):
            digits.append(value % radix)
            value //= radix
        return cls(radix, tuple(digits))


def _check_digit(name: str, value: int, radix: int) -> int:
    value = int(value)
    if not 0 <= value < radix:
        raise DomainError(f"{name}={value} out of range [0, {radix})")
    return value


def _full_add(a: int, b: int, cin: int, radix: int) -> tuple[int, int]:
    total = _check_digit("a", a, radix) + _check_digit("b", b, radix) + _check_digit("cin", cin, 2)
    return total % radix, total // radix


def qfa_oracle(a: int, b: int, cin: int) -> tuple[int, int]:
    """One quaternary full-adder step: radix-4 digits in, (sum, carry) out."""
    return _full_add(a, b, cin, 4)


def bfa_oracle(a: int, b: int, cin: int) -> tuple[int, int]:
    """One binary full-adder step: s = a^b^cin, cout = majority(a, b, cin)."""
    return _full_add(a, b, cin, 2)


def cpa_oracle(a: DigitVector, b: DigitVector, cin: int) -> tuple[DigitVector, int]:
    """Digit-serial ripple addition of two same-shape digit vectors."""
    if a.radix != b.radix:
        raise DomainError(f"radix mismatch: {a.radix} vs {b.radix}")
    if len(a) != len(b):
        raise DomainError(f"length mismatch: {len(a)} vs {len(b)}")
    carry = _check_digit("cin", cin, 2)
    step = qfa_oracle if a.radix == 4 else bfa_oracle
    out = []
    for da, db in zip(a.digits, b.digits):
        s, carry = step(da, db, carry)
        out.append(s)
    return DigitVector(a.radix, tuple(out)), carry


def cpa_oracle_rows(a, b, cin, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cpa_oracle` for many operand pairs at once: row r adds the
    digit rows ``a[r]`` and ``b[r]`` (least-significant digit first) and
    ``cin[r]``. Returns the sum digit matrix and the carry-out vector. The
    ripple runs over the digit columns and never forms the operands'
    values, so it is exact at any digit count."""
    a, b, carry = (np.asarray(x, np.int64) for x in (a, b, cin))
    if radix not in (2, 4) or a.ndim != 2 or a.shape != b.shape or carry.shape != a.shape[:1]:
        raise DomainError(f"need radix 2 or 4, (rows, digits) a and b and (rows,) cin; "
                          f"got radix {radix}, {a.shape}, {b.shape}, {carry.shape}")
    # as uint64 a negative digit is huge, so one comparison checks both ends
    if (np.stack([a, b]).view(np.uint64) >= radix).any() or (carry.view(np.uint64) > 1).any():
        raise DomainError(f"digit out of range [0, {radix}) or carry-in out of [0, 2)")
    total, sums = a + b, np.empty_like(a)
    for i in range(a.shape[1]):
        carry, sums[:, i] = np.divmod(total[:, i] + carry, radix)
    return sums, carry
