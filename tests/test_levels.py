import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvadder.engine import Stimulus, StimulusError, simulate
from mvadder.gates import LibraryError, load_library
from mvadder.levels import (
    DigitVector,
    DomainError,
    EncodingMismatchError,
    Level,
    SignalEncoding,
    _cpa_sums,
    bfa_oracle,
    binary_full,
    cpa_oracle,
    qfa_oracle,
    quaternary,
    third_swing,
)
from mvadder.netlist import build_qfa

# Quaternary adder truth table, all 32 rows: (a, b, cin) -> (sum, cout).
TRUTH_TABLE = {
    (0, 0, 0): (0, 0), (0, 1, 0): (1, 0), (0, 2, 0): (2, 0), (0, 3, 0): (3, 0),
    (1, 0, 0): (1, 0), (1, 1, 0): (2, 0), (1, 2, 0): (3, 0), (1, 3, 0): (0, 1),
    (2, 0, 0): (2, 0), (2, 1, 0): (3, 0), (2, 2, 0): (0, 1), (2, 3, 0): (1, 1),
    (3, 0, 0): (3, 0), (3, 1, 0): (0, 1), (3, 2, 0): (1, 1), (3, 3, 0): (2, 1),
    (0, 0, 1): (1, 0), (0, 1, 1): (2, 0), (0, 2, 1): (3, 0), (0, 3, 1): (0, 1),
    (1, 0, 1): (2, 0), (1, 1, 1): (3, 0), (1, 2, 1): (0, 1), (1, 3, 1): (1, 1),
    (2, 0, 1): (3, 0), (2, 1, 1): (0, 1), (2, 2, 1): (1, 1), (2, 3, 1): (2, 1),
    (3, 0, 1): (0, 1), (3, 1, 1): (1, 1), (3, 2, 1): (2, 1), (3, 3, 1): (3, 1),
}


def test_truth_table_covers_all_inputs():
    assert len(TRUTH_TABLE) == 32


def test_qfa_oracle_matches_truth_table_row_for_row():
    for (a, b, cin), expected in TRUTH_TABLE.items():
        assert qfa_oracle(a, b, cin) == expected


def test_qfa_oracle_rejects_out_of_range():
    with pytest.raises(DomainError, match="^a must be <= 3, got 4$"):
        qfa_oracle(4, 0, 0)
    with pytest.raises(DomainError, match="^b must be >= 0, got -1$"):
        qfa_oracle(0, -1, 0)
    with pytest.raises(DomainError, match="^cin must be <= 1, got 2$"):
        qfa_oracle(0, 0, 2)
    with pytest.raises(DomainError):
        qfa_oracle(Level.X, 0, 0)
    with pytest.raises(DomainError, match="^a must be a whole number, got 2.7"):
        qfa_oracle(2.7, 1, 0)
    with pytest.raises(DomainError, match="^cin must be a whole number, got 0.5"):
        qfa_oracle(1, 1, 0.5)
    assert qfa_oracle(np.int64(3), np.uint8(1), 1) == (1, 1)  # numpy integers are whole
    with pytest.raises(DomainError, match="^cin must be a whole number, got True"):
        qfa_oracle(3, 1, True)  # a carry is 0 or 1, not a bool


def test_bfa_oracle_all_rows():
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                s, cout = bfa_oracle(a, b, c)
                assert s == (a ^ b ^ c)
                assert cout == (1 if a + b + c >= 2 else 0)
    assert bfa_oracle(1, 1, 0) == (0, 1)
    assert bfa_oracle(1, 0, 1) == (0, 1)
    assert bfa_oracle(0, 0, 1) == (1, 0)


def test_qfa_equals_two_chained_bfa_steps():
    # one quaternary digit == two binary bits, all 32 cases
    for (a, b, cin), (want_s, want_c) in TRUTH_TABLE.items():
        s0, c0 = bfa_oracle(a & 1, b & 1, cin)
        s1, c1 = bfa_oracle((a >> 1) & 1, (b >> 1) & 1, c0)
        assert s0 + 2 * s1 == want_s
        assert c1 == want_c


# --------------------------------------------------------------------------
# Encodings


def test_encoding_level_voltages():
    assert quaternary(0.9).level_voltages[2] == pytest.approx(0.6)
    assert third_swing(0.9).level_voltages[1] == pytest.approx(0.3)
    assert binary_full(0.9).level_voltages[1] == pytest.approx(0.9)


def test_an_encoding_is_shared_per_supply_and_supply_type():
    for make in (quaternary, binary_full, third_swing):
        assert make(0.9) is make(0.9) and make(0.7) is not make(0.9)
        assert make(1) is not make(1.0) and make(1) == make(1.0)  # as 1 == 1.0
    # each keeps the supply of the type it was asked for: vdd 1 dumps as 1
    for vdd in (1, 1.0, 0.5, np.float64(0.5)):
        assert type(quaternary(vdd).level_voltages[-1]) is type(vdd)


def test_encoding_invariants():
    with pytest.raises(EncodingMismatchError):
        SignalEncoding("bad", (0.1, 0.9))  # must start at 0
    with pytest.raises(EncodingMismatchError):
        SignalEncoding("bad", (0.0, 0.5, 0.4, 0.9))  # not increasing
    with pytest.raises(EncodingMismatchError):
        SignalEncoding("bad", (0.0, 0.3, 0.9))  # 3 levels
    for last in (float("nan"), float("inf"), 10 ** 400, "0.9"):
        with pytest.raises(EncodingMismatchError, match="'bad' voltages must be finite numbers"):
            SignalEncoding("bad", (0.0, 0.3, 0.6, last))
    # the netlist dump keys an encoding by its name, so a name that cannot be a key is refused
    for name in (["bin"], None, 1):
        with pytest.raises(EncodingMismatchError,
                           match=f"^encoding name must be a string, got {re.escape(repr(name))}$"):
            SignalEncoding(name, (0.0, 0.9))
    # hashed as a table key and dumped by to_json: a tuple alone, as from_json builds it
    for levels in ([0.0, 0.9], 5):
        with pytest.raises(EncodingMismatchError, match="^encoding 'bad' levels must be a tuple, "
                                                        f"got {re.escape(repr(levels))}$"):
            SignalEncoding("bad", levels)


# --------------------------------------------------------------------------
# Digit vectors and the ripple oracle


def test_digit_vector_value_roundtrip():
    dv = DigitVector(4, (2, 1, 3, 0))
    assert dv.value() == 2 + 1 * 4 + 3 * 16  # 54
    assert DigitVector.from_int(54, 4, 4) == dv


def test_digit_vector_rejects_bad_digits():
    with pytest.raises(DomainError, match="^digit must be <= 3, got 4$"):
        DigitVector(4, (0, 4))
    with pytest.raises(DomainError, match="^digit must be >= 0, got -1$"):
        DigitVector(2, (-1,))
    with pytest.raises(DomainError):
        DigitVector(3, (0, 1))
    with pytest.raises(DomainError, match="^digit must be a whole number, got 2.7"):
        DigitVector(4, (2.7, 1))
    for digits in (None, 5, [0, 1], "01"):
        with pytest.raises(DomainError, match=f"^digits must be a tuple of whole numbers, "
                                              f"got {re.escape(repr(digits))}$"):
            DigitVector(4, digits)
    with pytest.raises(DomainError, match="^value must be a whole number, got 2.5"):
        DigitVector.from_int(2.5, 4, 2)
    with pytest.raises(DomainError, match="^16 does not fit in 2 radix-4 digits$"):
        DigitVector.from_int(16, 4, 2)
    with pytest.raises(DomainError, match="^n_digits must be >= 0, got -1$"):
        DigitVector.from_int(0, 4, -1)
    for radix in (5, 10 ** 400):  # bounded before radix ** n_digits is taken
        with pytest.raises(DomainError, match="^radix must be <= 4, got "):
            DigitVector.from_int(0, radix, 2 ** 14)
    assert DigitVector.from_int(0, 4, 0) == DigitVector(4, ())
    assert DigitVector.from_int(np.int64(54), np.int32(4), np.uint8(4)).value() == 54


def test_cpa_oracle_trivial_cases():
    a = DigitVector(4, (3, 3, 3, 3))
    b = DigitVector(4, (1, 0, 0, 0))
    s, cout = cpa_oracle(a, b, 0)
    assert s.digits == (0, 0, 0, 0) and cout == 1  # 255 + 1 = 256

    z = DigitVector(4, (0, 0, 0, 0))
    s, cout = cpa_oracle(z, z, 1)
    assert s.digits == (1, 0, 0, 0) and cout == 0


def test_cpa_oracle_derived_example():
    # independent oracle: base-4 valuation; 54 + 75 = 129 = 1+0*4+0*16+2*64
    a = DigitVector(4, (2, 1, 3, 0))
    b = DigitVector(4, (3, 2, 0, 1))
    assert a.value() == 54 and b.value() == 75
    expect = DigitVector.from_int(a.value() + b.value(), 4, 4)
    assert expect.digits == (1, 0, 0, 2)
    s, cout = cpa_oracle(a, b, 0)
    assert s == expect and cout == 0


def test_cpa_oracle_mismatch_errors():
    with pytest.raises(DomainError):
        cpa_oracle(DigitVector(4, (0,)), DigitVector(2, (0,)), 0)
    with pytest.raises(DomainError):
        cpa_oracle(DigitVector(4, (0,)), DigitVector(4, (0, 0)), 0)
    with pytest.raises(DomainError, match=r"^a must be a DigitVector, got \[1\]$"):
        cpa_oracle([1], [2], 0)
    with pytest.raises(DomainError, match="^b must be a DigitVector, got 54$"):
        cpa_oracle(DigitVector(4, (0,)), 54, 0)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9),
       st.sampled_from([0, 1]), st.sampled_from([(2, 16), (4, 8), (4, 16), (2, 4), (4, 1)]))
def test_cpa_oracle_equals_integer_addition(va, vb, cin, shape):
    radix, n = shape
    va %= radix**n
    vb %= radix**n
    a = DigitVector.from_int(va, radix, n)
    b = DigitVector.from_int(vb, radix, n)
    s, cout = cpa_oracle(a, b, cin)
    assert va + vb + cin == s.value() + cout * radix**n


def test_cpa_oracle_random_sweep_all_sizes():
    import random

    rng = random.Random(42)
    for n in (1, 4, 8, 16):
        for _ in range(2500):
            va = rng.randrange(4**n)
            vb = rng.randrange(4**n)
            cin = rng.randrange(2)
            s, cout = cpa_oracle(
                DigitVector.from_int(va, 4, n), DigitVector.from_int(vb, 4, n), cin
            )
            assert s.value() + cout * 4**n == va + vb + cin


@st.composite
def _digit_matrices(draw):
    radix = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.integers(min_value=1, max_value=6))
    digits = st.lists(st.integers(0, radix - 1), min_size=n, max_size=n)
    a = draw(st.lists(digits, min_size=rows, max_size=rows))
    b = draw(st.lists(digits, min_size=rows, max_size=rows))
    cin = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    return radix, a, b, cin


def cpa_sums(a, b, cin, radix):
    """_cpa_sums of the operand rows, as its sum digit matrix and carry-out vector."""
    out = _cpa_sums(np.column_stack([cin, a, b]).astype(np.int64), radix)
    return out[:, :-1], out[:, -1]


@given(_digit_matrices())
def test_cpa_sums_equals_cpa_oracle_row_by_row(case):
    # up to 40 radix-4 digits: 4**32 and beyond overflow int64
    radix, a, b, cin = case
    sums, couts = cpa_sums(a, b, cin, radix)
    assert sums.shape == (len(a), len(a[0])) and couts.shape == (len(a),)
    for ra, rb, c, s, cout in zip(a, b, cin, sums.tolist(), couts.tolist()):
        want_s, want_c = cpa_oracle(DigitVector(radix, tuple(ra)), DigitVector(radix, tuple(rb)), c)
        assert (tuple(s), cout) == (want_s.digits, want_c)


def test_cpa_sums_is_exact_beyond_int64():
    n = 40  # 4**40 - 1 does not fit in int64
    a = np.full((1, n), 3)
    sums, couts = cpa_sums(a, np.zeros((1, n), np.int64), [1], 4)
    assert sums.tolist() == [[0] * n] and couts.tolist() == [1]


@pytest.mark.parametrize("radix", [2, 4])
@pytest.mark.parametrize("n", [29, 30, 31, 59, 60, 61, 64, 130])
def test_cpa_sums_carries_across_chunks(radix, n):
    """Widths on both sides of the 60-bit chunks (30 radix-4 or 60 radix-2
    digits); all-ones rows carry through every chunk."""
    rng = np.random.default_rng(n)
    top = radix - 1
    a = np.vstack([np.full((2, n), top), rng.integers(0, radix, (4, n))])
    b = np.vstack([np.zeros((1, n), np.int64), np.full((1, n), top),
                   rng.integers(0, radix, (4, n))])
    cin = np.array([1, 1, 0, 1, 0, 1])
    sums, couts = cpa_sums(a, b, cin, radix)
    for ra, rb, c, s, cout in zip(a.tolist(), b.tolist(), cin.tolist(), sums.tolist(),
                                  couts.tolist()):
        want_s, want_c = cpa_oracle(DigitVector(radix, tuple(ra)), DigitVector(radix, tuple(rb)), c)
        assert (tuple(s), cout) == (want_s.digits, want_c)
    assert sums[0].tolist() == [0] * n and sums[1].tolist() == [top] * n
    assert couts[:2].tolist() == [1, 1]


@pytest.mark.parametrize("radix", [2, 4])
def test_cpa_sums_reads_slices_as_their_copies(radix):
    """A strided view of a matrix gives the sums of its contiguous copy."""
    n = 70
    rng = np.random.default_rng(radix)
    big = rng.integers(0, radix, (18, 2 + 4 * n))
    big[:, 0] %= 2
    view = big[::2, ::2]  # 9 rows of 1 + 2n columns
    assert not view.flags.c_contiguous
    assert _cpa_sums(view, radix).tolist() == _cpa_sums(view.copy(), radix).tolist()


@pytest.mark.parametrize("value, want", [
    (2.0, 2), (2, 2), (np.float64(2.0), 2), (2.5, None), ("2", None), (True, None),
    (float("nan"), None), (float("inf"), None), (10 ** 400, None),
], ids=["whole-float", "int", "numpy-float", "fraction", "string", "bool", "nan", "inf",
        "int-past-float"])
def test_levels_and_inventory_counts_take_a_real_number_with_a_whole_value(value, want, tmp_path):
    """One rule for a stimulus level and a library inventory count: a real
    number, not a bool, with a whole value: levels.whole with floats. Without
    them it is stricter (2.0 is no digit count)."""
    stim = {"initial": {"A": value, "B": 0, "Cin": 0}, "events": [], "duration_ps": 10}
    qfa2 = build_qfa("qfa2", 0.9)
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps({"inv": {"inventory": [["N", 19, value]]}}))
    if want is None:
        with pytest.raises(StimulusError, match="^initial: A: .* is not a logic level$"):
            simulate(qfa2, Stimulus.from_json(stim))  # from_json reads only the shape
        with pytest.raises(LibraryError, match="inventory entry must hold whole numbers"):
            load_library(lib)
    else:
        assert simulate(qfa2, Stimulus.from_json(stim)).final_level("A") == Level(want)
        assert load_library(lib).cells["inv"].inventory.entries == (("N", 19, want),)
