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
from functools import lru_cache

import numpy as np

# The most digits of a CPA or a DigitVector: a built, compiled and planned QFA2
# CPA keeps about 31 KB and peaks at about 40 KB per digit (tracemalloc), so
# 2**14 digits stay under the 1 GiB that verify's ``vectors`` bound allows.
MAX_DIGITS = 2 ** 14


class DomainError(ValueError):
    """Operand outside the legal domain of an operation."""


class EncodingMismatchError(ValueError):
    """Level/encoding combination that has no physical representation."""


def is_finite(value) -> bool:
    """Whether ``value`` is a real number with a finite float value: an int,
    a float or a numpy number; not a bool, a string, NaN, an infinity or an
    int past float range."""
    if type(value) is float:  # the common case, taken first
        return math.isfinite(value)
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:  # an int past float range
        return False


def whole(name: str, value, *, floats: bool = False, low=None, high=None) -> int:
    """``value`` as an int, if it is an int or a numpy integer, not a bool.
    With ``floats``, any real number with a finite whole value
    (:func:`is_finite`) instead: 2.0 gives 2, and an int past float range
    fails. A DomainError naming ``name`` otherwise, or where the int is
    below ``low`` or above ``high``, bounds that are None for none."""
    v = None
    if floats:
        if is_finite(value) and value == int(value):  # int() truncates 2.5
            v = int(value)
    elif not isinstance(value, bool):
        try:
            v = operator.index(value)
        except TypeError:
            pass
    if v is None:
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    if low is not None and v < low:
        raise DomainError(f"{name} must be >= {low}, got {v}")
    if high is not None and v > high:
        raise DomainError(f"{name} must be <= {high}, got {v}")
    return v


def listed(name: str, value) -> tuple:
    """The items of ``value``, an iterable other than a str, as a tuple; a
    DomainError naming ``name`` otherwise."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:  # not iterable
            pass
    raise DomainError(f"{name}: expected a list, got {value!r}")


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

    ``name`` must be a string, and ``level_voltages`` a tuple, finite,
    strictly increasing and starting at 0 V; its length fixes the radix (2
    for binary rails, 4 for quaternary signals).
    """

    name: str
    level_voltages: tuple[float, ...]

    def __post_init__(self):
        v = self.level_voltages
        if not isinstance(self.name, str):
            raise EncodingMismatchError(f"encoding name must be a string, got {self.name!r}")
        if not isinstance(v, tuple):  # hashed as a table key: a list would not hash
            raise EncodingMismatchError(f"encoding {self.name!r} levels must be a tuple, got {v!r}")
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


# Encodings are frozen, so each constructor returns one shared object per
# supply; typed, so an encoding keeps its supply's type (1 dumps as 1).
@lru_cache(maxsize=64, typed=True)
def quaternary(vdd: float) -> SignalEncoding:
    """Four full-swing levels at 0, vdd/3, 2*vdd/3, vdd."""
    return SignalEncoding(
        f"quat@{vdd:g}", (0.0, vdd / 3.0, 2.0 * vdd / 3.0, vdd)
    )


@lru_cache(maxsize=64, typed=True)
def binary_full(vdd: float) -> SignalEncoding:
    """Two levels at 0 and vdd (full-swing binary rail)."""
    return SignalEncoding(f"bin@{vdd:g}", (0.0, vdd))


@lru_cache(maxsize=64, typed=True)
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
        if not isinstance(self.digits, tuple):
            raise DomainError(f"digits must be a tuple of whole numbers, got {self.digits!r}")
        for d in self.digits:
            whole("digit", d, low=0, high=self.radix - 1)

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
        radix = whole("radix", radix, low=2, high=4)  # bounded before its power is taken
        value, n_digits = whole("value", value), whole("n_digits", n_digits, low=0, high=MAX_DIGITS)
        if value < 0 or value >= radix**n_digits:
            raise DomainError(f"{value} does not fit in {n_digits} radix-{radix} digits")
        digits = []
        for _ in range(n_digits):
            digits.append(value % radix)
            value //= radix
        return cls(radix, tuple(digits))


def _full_add(a: int, b: int, cin: int, radix: int) -> tuple[int, int]:
    total = (whole("a", a, low=0, high=radix - 1) + whole("b", b, low=0, high=radix - 1)
             + whole("cin", cin, low=0, high=1))
    return total % radix, total // radix


def qfa_oracle(a: int, b: int, cin: int) -> tuple[int, int]:
    """One quaternary full-adder step: radix-4 digits in, (sum, carry) out."""
    return _full_add(a, b, cin, 4)


def bfa_oracle(a: int, b: int, cin: int) -> tuple[int, int]:
    """One binary full-adder step: s = a^b^cin, cout = majority(a, b, cin)."""
    return _full_add(a, b, cin, 2)


def cpa_oracle(a: DigitVector, b: DigitVector, cin: int) -> tuple[DigitVector, int]:
    """Digit-serial ripple addition of two same-shape digit vectors."""
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, DigitVector):
            raise DomainError(f"{name} must be a DigitVector, got {v!r}")
    if a.radix != b.radix:
        raise DomainError(f"radix mismatch: {a.radix} vs {b.radix}")
    if len(a) != len(b):
        raise DomainError(f"length mismatch: {len(a)} vs {len(b)}")
    carry = whole("cin", cin, low=0, high=1)
    step = qfa_oracle if a.radix == 4 else bfa_oracle
    out = []
    for da, db in zip(a.digits, b.digits):
        s, carry = step(da, db, carry)
        out.append(s)
    return DigitVector(a.radix, tuple(out)), carry


def _cpa_sums(mat: np.ndarray, radix: int) -> np.ndarray:
    """:func:`cpa_oracle` for many operand pairs at once, unchecked: each row
    of the int64 matrix ``mat`` is a carry in (0 or 1), then the digits of
    ``a``, then those of ``b`` (least significant first, each in [0,
    ``radix``), ``radix`` 2 or 4). Returns one (rows, digits + 1) matrix:
    the sum digits, then the carry out. The digits are added in int64
    chunks of at most 60 bits (30 radix-4 or 60 radix-2 digits), each
    chunk's carry-out going into the next, so it is exact at any digit
    count."""
    out = np.empty((len(mat), mat.shape[1] // 2 + 1), np.int64)
    carry = mat[:, 0]
    for lo, shifts, places, top in _chunks(int(radix), mat.shape[1] // 2):
        chunk = mat @ places + carry
        out[:, lo: lo + len(shifts)] = chunk[:, None] >> shifts & (radix - 1)
        carry = chunk >> top
    out[:, -1] = carry
    return out


@lru_cache(maxsize=64)
def _chunks(radix: int, digits: int) -> tuple:
    """:func:`_cpa_sums`' chunks of at most 60 bits, so that two and a carry
    add up below 2**61: (first digit, bit shifts, place per column, bits)."""
    bits, chunks = radix.bit_length() - 1, []  # bits per digit
    for lo in range(0, digits, 60 // bits):
        shifts = np.arange(min(60 // bits, digits - lo)) * bits
        place = np.zeros(digits, np.int64)
        place[lo: lo + len(shifts)] = 1 << shifts
        chunks.append((lo, shifts, np.r_[0, place, place], len(shifts) * bits))
    return tuple(chunks)
