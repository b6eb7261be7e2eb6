import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptk.words import (LT, EQ, GT, Alphabet, AlphabetMismatch, compare, lex,
                        ord_, succ, words_up_to)

from .batch_oracle import window
from .conftest import brute_words


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.parse("")
    with pytest.raises(ValueError):
        Alphabet.parse("aa")
    with pytest.raises(ValueError):
        Alphabet.parse("ab", order="ac")


def test_symbol_order_override():
    plain = Alphabet.parse("ab")
    flipped = Alphabet.parse("ab", order="ba")
    assert lex(plain, 1) == "a"
    assert lex(flipped, 1) == "b"
    assert compare(flipped, "b", "a") == LT


def test_compare_basics(ab):
    assert compare(ab, "", "a") == LT
    assert compare(ab, "ab", "ba") == LT
    assert compare(ab, "bb", "aaa") == LT
    assert compare(ab, "ab", "ab") == EQ
    assert compare(ab, "ba", "ab") == GT
    with pytest.raises(AlphabetMismatch):
        compare(ab, "ac", "a")


def test_succ_small(ab):
    assert succ(ab, "") == "a"
    assert succ(ab, "b") == "aa"
    assert succ(ab, "ab") == "ba"
    assert succ(ab, "bb") == "aaa"


@pytest.mark.parametrize("symbols", ["ab", "abc", "a"])
def test_enumeration_matches_independent_product_order(symbols):
    alphabet = Alphabet.parse(symbols)
    expected = brute_words(alphabet, 200)
    assert list(words_up_to(alphabet, 200)) == expected
    assert [lex(alphabet, i) for i in range(200)] == expected
    assert [ord_(alphabet, w) for w in expected] == list(range(200))


def succ_words_up_to(alphabet, count):
    """The odometer enumeration that ``words_up_to`` replaced: one
    :func:`succ` per word."""
    w = ""
    for _ in range(count):
        yield w
        w = succ(alphabet, w)


@pytest.mark.parametrize("symbols,order", [
    ("a", None), ("ab", None), ("ab", "ba"), ("abc", None), ("abc", "cab"),
    ("abc", "bca")])
def test_words_up_to_matches_successor(symbols, order):
    alphabet = Alphabet.parse(symbols, order)
    b = alphabet.size
    # the ranks where each length block starts, for lengths 0..6
    starts = [sum(b ** k for k in range(length)) for length in range(7)]
    counts = sorted({-1, 0, 1} | {s + d for s in starts for d in (-1, 0, 1)})
    for count in counts:
        assert list(words_up_to(alphabet, count)) == list(succ_words_up_to(alphabet, count))


def test_lex_examples(ab):
    assert lex(ab, 0) == ""
    assert lex(ab, 3) == "aa"
    assert lex(ab, 6) == "bb"
    assert ord_(ab, "") == 0
    assert ord_(ab, "aa") == 3
    assert ord_(ab, lex(ab, 10 ** 4)) == 10 ** 4


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["ab", "abc", "abcd"]))
def test_roundtrip_property(i, symbols):
    alphabet = Alphabet.parse(symbols)
    assert ord_(alphabet, lex(alphabet, i)) == i


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", max_size=12))
def test_word_roundtrip_and_succ(w):
    alphabet = Alphabet.parse("ab")
    assert lex(alphabet, ord_(alphabet, w)) == w
    assert ord_(alphabet, succ(alphabet, w)) == ord_(alphabet, w) + 1


def test_compare_is_order_isomorphism(ab):
    rng = np.random.default_rng(0)
    for _ in range(300):
        i, j = map(int, rng.integers(0, 5000, size=2))
        c = compare(ab, lex(ab, i), lex(ab, j))
        assert c == (LT if i < j else EQ if i == j else GT)


def test_window_matches_lex(abc):
    """The oracle's packed window, which the differential tests rely on."""
    packed = window(abc, 120)
    assert len(packed) == 120
    assert [packed.word(i) for i in range(120)] == [lex(abc, i) for i in range(120)]


def test_packed_prefixed_and_suffixes(ab):
    """The views the oracle evaluates quotients and marks on."""
    packed = window(ab, 40)
    shifted = packed.prefixed(ab.codes("ba"))
    assert [shifted.word(i) for i in range(40)] == ["ba" + packed.word(i) for i in range(40)]
    mask = packed.lengths > 0
    suff = packed.suffixes(mask)
    expected = [packed.word(i)[1:] for i in range(40) if packed.lengths[i] > 0]
    assert [suff.word(i) for i in range(len(suff))] == expected
