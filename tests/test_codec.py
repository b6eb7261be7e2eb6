import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptk.codec import pair, seq_code, seq_decode, tuple_code, tuple_decode, unpair


def test_pair_convention():
    # second argument is the minor component on each diagonal
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    assert pair(2, 0) == 3
    assert pair(1, 1) == 4


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_pair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 12))
def test_unpair_roundtrip(z):
    x, y = unpair(z)
    assert pair(x, y) == z


def test_pair_monotone_in_each_argument():
    for x in range(20):
        for y in range(20):
            assert pair(x + 1, y) > pair(x, y)
            assert pair(x, y + 1) > pair(x, y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=6))
def test_tuple_roundtrip(values):
    assert tuple_decode(tuple_code(values), len(values)) == tuple(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 4), min_size=1, max_size=5))
def test_seq_roundtrip(values):
    assert seq_decode(seq_code(values)) == tuple(values)


def looping_tuple_decode(code, arity):
    """``tuple_decode`` as it was: one unpair per value but the last, also
    once the code has reached 0."""
    if arity < 1:
        raise ValueError("arity must be positive")
    out = []
    for _ in range(arity - 1):
        x, code = unpair(code)
        out.append(x)
    out.append(code)
    return tuple(out)


def test_tuple_decode_matches_the_unpairing_loop():
    """Every sequence code below 20,000, every code below 10,000 at every
    arity up to 8, and some large codes."""
    for code in range(20_000):
        n_minus_1, payload = unpair(code)
        assert seq_decode(code) == looping_tuple_decode(payload, n_minus_1 + 1)
    for code in range(10_000):
        for arity in range(1, 9):
            assert tuple_decode(code, arity) == looping_tuple_decode(code, arity)
    for code in (10 ** 12, 2 ** 64 + 3, pair(0, 0), pair(5, 0), pair(0, 5)):
        for arity in range(1, 12):
            assert tuple_decode(code, arity) == looping_tuple_decode(code, arity)


def test_seq_decode_total():
    seen = set()
    for code in range(2000):
        seen.add(seq_decode(code))
    assert len(seen) == 2000  # injective on this range
    assert (0,) in seen and (0, 0) in seen


def test_arity_one_is_identity():
    for i in range(50):
        assert tuple_code([i]) == i
        assert tuple_decode(i, 1) == (i,)


def test_empty_rejected():
    with pytest.raises(ValueError):
        tuple_code([])
    with pytest.raises(ValueError):
        seq_code([])
