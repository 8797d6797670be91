"""Logic levels, voltage encodings and the pure arithmetic adder oracles.

Everything in this module is plain math with no circuit state; the rest of
the package is verified against these functions.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Operand outside the legal domain of an operation."""


class EncodingMismatchError(ValueError):
    """Level/encoding combination that has no physical representation."""


def is_finite(value) -> bool:
    """Whether ``value`` is a number with a finite float value: not NaN, an
    infinity, an int past float range or anything that is not a number."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def real_number(value):
    """``value`` itself if it is a real number (a JSON int or float, or a
    numpy number); a TypeError otherwise, for a bool or a string too."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def whole(name: str, value) -> int:
    """``value`` as an int, if :func:`operator.index` takes it (numpy
    integers do, 2.0 does not); a DomainError naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be a whole number, got {value!r}") from None


class Level(enum.IntEnum):
    """Logical value carried by a net. ``X`` marks unknown/uninitialized."""

    L0 = 0
    L1 = 1
    L2 = 2
    L3 = 3
    X = -1


@dataclass(frozen=True)
class SignalEncoding:
    """Mapping from logical values to voltages for one family of nets.

    ``level_voltages`` must be finite, strictly increasing and start at
    0 V; its length fixes the radix (2 for binary rails, 4 for quaternary
    signals).
    """

    name: str
    level_voltages: tuple[float, ...]

    def __post_init__(self):
        v = self.level_voltages
        if len(v) not in (2, 4):
            raise EncodingMismatchError(
                f"encoding {self.name!r} must have 2 or 4 levels, got {len(v)}"
            )
        if not all(map(is_finite, v)):
            raise EncodingMismatchError(f"encoding {self.name!r} voltages must be finite numbers")
        if v[0] != 0.0:
            raise EncodingMismatchError(f"encoding {self.name!r} must start at 0 V")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise EncodingMismatchError(
                f"encoding {self.name!r} voltages must be strictly increasing"
            )

    @property
    def radix(self) -> int:
        return len(self.level_voltages)


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


@dataclass(frozen=True)
class DigitVector:
    """Fixed-radix digit string, least-significant digit first."""

    radix: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if whole("radix", self.radix) not in (2, 4):
            raise DomainError(f"radix must be 2 or 4, got {self.radix}")
        for d in self.digits:
            if not 0 <= whole("digit", d) < self.radix:
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
        value, n_digits = whole("value", value), whole("n_digits", n_digits)
        if value < 0 or value >= radix**n_digits:
            raise DomainError(f"{value} does not fit in {n_digits} radix-{radix} digits")
        digits = []
        for _ in range(n_digits):
            digits.append(value % radix)
            value //= radix
        return cls(radix, tuple(digits))


def _check_digit(name: str, value: int, radix: int) -> int:
    value = whole(name, value)
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


def _whole_rows(name: str, x) -> np.ndarray:
    """``x`` as an int64 array, if :func:`whole` takes each entry."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu":  # tested first: verify's int64 matrices take no extra pass
        # clamped to [-1, 4], out of every digit range: an entry past int64 too
        x = np.array([min(max(whole(name, v), -1), 4) for v in x.ravel().tolist()],
                     np.int64).reshape(x.shape)
    return x.astype(np.int64, copy=False)


def cpa_oracle_rows(a, b, cin, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cpa_oracle` for many operand pairs at once: row r adds the
    digit rows ``a[r]`` and ``b[r]`` (least-significant digit first) and
    ``cin[r]``. Returns the sum digit matrix and the carry-out vector. The
    ripple runs over the digit columns and never forms the operands'
    values, so it is exact at any digit count."""
    a, b, carry = (_whole_rows(name, x) for name, x in (("a", a), ("b", b), ("cin", cin)))
    if (whole("radix", radix) not in (2, 4) or a.ndim != 2 or a.shape != b.shape
            or carry.shape != a.shape[:1]):
        raise DomainError(f"need radix 2 or 4, (rows, digits) a and b and (rows,) cin; "
                          f"got radix {radix}, {a.shape}, {b.shape}, {carry.shape}")
    # as uint64 a negative digit is huge, so one comparison checks both ends
    if (np.stack([a, b]).view(np.uint64) >= radix).any() or (carry.view(np.uint64) > 1).any():
        raise DomainError(f"digit out of range [0, {radix}) or carry-in out of [0, 2)")
    total, sums = a + b, np.empty_like(a)
    for i in range(a.shape[1]):
        carry, sums[:, i] = np.divmod(total[:, i] + carry, radix)
    return sums, carry
