import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvadder.levels import (
    DigitVector,
    DomainError,
    EncodingMismatchError,
    Level,
    SignalEncoding,
    bfa_oracle,
    binary_full,
    cpa_oracle,
    cpa_oracle_rows,
    qfa_oracle,
    quaternary,
    third_swing,
)

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
    with pytest.raises(DomainError):
        qfa_oracle(4, 0, 0)
    with pytest.raises(DomainError):
        qfa_oracle(0, -1, 0)
    with pytest.raises(DomainError):
        qfa_oracle(0, 0, 2)
    with pytest.raises(DomainError):
        qfa_oracle(Level.X, 0, 0)
    with pytest.raises(DomainError, match="^a must be a whole number, got 2.7"):
        qfa_oracle(2.7, 1, 0)
    with pytest.raises(DomainError, match="^cin must be a whole number, got 0.5"):
        qfa_oracle(1, 1, 0.5)
    assert qfa_oracle(np.int64(3), np.uint8(1), True) == (1, 1)  # what operator.index takes


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


# --------------------------------------------------------------------------
# Digit vectors and the ripple oracle


def test_digit_vector_value_roundtrip():
    dv = DigitVector(4, (2, 1, 3, 0))
    assert dv.value() == 2 + 1 * 4 + 3 * 16  # 54
    assert DigitVector.from_int(54, 4, 4) == dv


def test_digit_vector_rejects_bad_digits():
    with pytest.raises(DomainError):
        DigitVector(4, (0, 4))
    with pytest.raises(DomainError):
        DigitVector(3, (0, 1))
    with pytest.raises(DomainError, match="^digit must be a whole number, got 2.7"):
        DigitVector(4, (2.7, 1))
    with pytest.raises(DomainError, match="^value must be a whole number, got 2.5"):
        DigitVector.from_int(2.5, 4, 2)
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


@given(_digit_matrices())
def test_cpa_oracle_rows_equals_cpa_oracle_row_by_row(case):
    # up to 40 radix-4 digits: 4**32 and beyond overflow int64
    radix, a, b, cin = case
    sums, couts = cpa_oracle_rows(np.array(a), np.array(b), np.array(cin), radix)
    assert sums.shape == (len(a), len(a[0])) and couts.shape == (len(a),)
    for ra, rb, c, s, cout in zip(a, b, cin, sums.tolist(), couts.tolist()):
        want_s, want_c = cpa_oracle(DigitVector(radix, tuple(ra)), DigitVector(radix, tuple(rb)), c)
        assert (tuple(s), cout) == (want_s.digits, want_c)


def test_cpa_oracle_rows_is_exact_beyond_int64():
    n = 40  # 4**40 - 1 does not fit in int64
    a = np.full((1, n), 3)
    sums, couts = cpa_oracle_rows(a, np.zeros((1, n), np.int64), [1], 4)
    assert sums.tolist() == [[0] * n] and couts.tolist() == [1]


def test_cpa_oracle_rows_rejects_bad_operands():
    ok = np.zeros((2, 3), np.int64)
    for a, b, cin, radix in ((ok, ok, [0, 0], 3),            # radix
                             (ok, ok[:, :2], [0, 0], 4),      # shapes
                             (ok, ok, [0], 4),                 # cin length
                             (ok + 4, ok, [0, 0], 4),          # digit too large
                             (ok, ok - 1, [0, 0], 2),          # negative digit
                             (ok, ok, [0, 2], 2),              # carry-in
                             (ok + 0.5, ok, [0, 0], 4),        # fractional digit
                             (ok + 1.0, ok, [0, 0], 4),        # a float, even if whole
                             (ok, ok, [0.0, 0.0], 4),          # float carry-in
                             (ok, ok, [0, 0], 4.0)):           # float radix
        with pytest.raises(DomainError):
            cpa_oracle_rows(a, b, cin, radix)
    # any array passes whose entries operator.index takes; one past int64 is out of range
    objs = np.array([[1, 2**70, 3]], dtype=object)
    with pytest.raises(DomainError, match="digit out of range"):
        cpa_oracle_rows(objs, ok[:1], [True], 4)
    sums, couts = cpa_oracle_rows(objs[:, [0, 2, 0]], [[3, 0, 0]], [True], 4)
    assert sums.tolist() == [[1, 0, 2]] and couts.tolist() == [0]
