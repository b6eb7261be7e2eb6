import numpy as np
import pytest

from cptk.dfa import (Dfa, dfa_for_finite, dfa_length_equals,
                      dfa_word_starts_with, empty_dfa, full_dfa)
from cptk.families import length_family
from cptk.langs import is_finite
from cptk.words import window

from .conftest import random_dfa


def brute_accepted(dfa, alphabet, count):
    packed = window(alphabet, count)
    return {packed.word(i) for i in range(count)
            if dfa.accepts(alphabet, packed.word(i))}


def test_totality_enforced():
    with pytest.raises(ValueError):
        Dfa(2, ((0,),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0, 5),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0, 0),), 3, frozenset())


def test_product_and_complement_agree_with_membership(ab):
    rng = np.random.default_rng(5)
    packed = window(ab, 400)
    for _ in range(40):
        d1, d2 = random_dfa(rng, 2), random_dfa(rng, 2)
        v1, v2 = d1.accepts_batch(packed), d2.accepts_batch(packed)
        assert (d1.union(d2).accepts_batch(packed) == (v1 | v2)).all()
        assert (d1.intersection(d2).accepts_batch(packed) == (v1 & v2)).all()
        assert (d1.complement().accepts_batch(packed) == ~v1).all()


def test_left_mark_and_quotient(ab):
    rng = np.random.default_rng(9)
    packed = window(ab, 300)
    for _ in range(20):
        d = random_dfa(rng, 2)
        marked = d.left_mark(0)  # prepend "a"
        for i in range(len(packed)):
            w = packed.word(i)
            expect = w.startswith("a") and d.accepts(ab, w[1:])
            assert marked.accepts(ab, w) == expect
        quo = d.left_quotient(ab.codes("ba"))
        for i in range(60):
            w = packed.word(i)
            assert quo.accepts(ab, w) == d.accepts(ab, "ba" + w)


def test_minimize_gives_canonical_equality(ab):
    # two structurally different automata for words containing at least one a
    d1 = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    d2 = Dfa(2, ((2, 0), (1, 1), (2, 2)), 0, frozenset({1, 2}))  # state 1 unreachable
    assert d1.minimize() == d2.minimize()
    assert d1.same_language(d2)
    assert not d1.same_language(d1.complement())


def test_minimize_idempotent(ab):
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = random_dfa(rng, 2).minimize()
        assert m.minimize() == m


def test_three_state_language_minimal(ab):
    # words starting with a: needs initial, accept-sink, dead
    start_a = dfa_word_starts_with(2, 0).minimize()
    assert start_a.n_states == 3


def test_count_accepted_matches_brute_force(ab):
    rng = np.random.default_rng(12)
    packed = window(ab, 2 ** 11 - 1)  # all words up to length 10
    for _ in range(60):
        d = random_dfa(rng, 2)
        count = d.count_accepted()
        seen = int(d.accepts_batch(packed).sum())
        if count is None:
            # infinite: pumping witness must generate fresh members forever
            u, v, w = d.pumping_witness()
            assert len(v) >= 1
            for reps in range(4):
                assert d.accepts_codes(u + v * reps + w)
        else:
            assert count == seen  # every member has length < n_states <= 10


def test_finite_dfa_and_counts(ab):
    d = dfa_for_finite(2, (ab.codes("a"), ab.codes("ba"), ab.codes("ba")))
    assert d.count_accepted() == 2
    assert d.accepts(ab, "a") and d.accepts(ab, "ba")
    assert not d.accepts(ab, "")
    assert empty_dfa(2).count_accepted() == 0
    assert full_dfa(2).count_accepted() is None


def test_least_accepted(ab):
    rng = np.random.default_rng(4)
    packed = window(ab, 500)
    for _ in range(40):
        d = random_dfa(rng, 2)
        least = d.least_accepted()
        batch = d.accepts_batch(packed)
        hits = np.nonzero(batch)[0]
        if least is None:
            assert not hits.size
            assert d.is_empty()
        else:
            assert hits.size
            assert ab.word(least) == packed.word(int(hits[0]))


def test_length_equals(ab):
    d = dfa_length_equals(2, 3)
    assert d.count_accepted() == 8
    assert d.accepts(ab, "aba") and not d.accepts(ab, "ab")


def test_json_roundtrip(ab):
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = random_dfa(rng, 2)
        back = Dfa.from_json(d.to_json(), 2)
        assert back == d


def test_count_accepted_deep_chain(ab):
    """3000 chained states once overflowed the recursive cycle check."""
    v = is_finite(length_family(ab).expr(3000), ab)
    assert v.is_finite and v.exact
    assert v.count == 2 ** 3000


def test_transition_array_built_on_first_batch_use(ab):
    d = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    assert "_trans_array" not in vars(d)
    words = ("", "a", "b", "aa", "ab", "ba", "bb")
    assert d.accepts_batch(window(ab, 7)).tolist() == [d.accepts(ab, w) for w in words]
    assert "_trans_array" in vars(d)
    fresh = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
