import json
from math import isqrt

import numpy as np
import pytest

from cptk import langs
from cptk.classify import disjoint_verdict
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter,
                        LeftMark, LeftQuotient, Predicate, Union,
                        UnknownPredicate, emptiness, equivalent, expr_from_json,
                        expr_to_json, is_finite, member, regular_view,
                        subset_of, window_rows)
from cptk.words import Alphabet, AlphabetMismatch, lex, words_up_to

from .batch_oracle import batch_row
from .conftest import random_mixed_expr, random_regular_expr
from .scalar_oracle import member as scalar_member
from .simplify_oracle import simplify


def scalar_vector(expr, alphabet, count):
    return [scalar_member(expr, w, alphabet) for w in words_up_to(alphabet, count)]


def row_of(expr, alphabet, count):
    return window_rows([expr], alphabet, count)[0]


def bits(row, count):
    return [bool(row >> j & 1) for j in range(count)]


def test_member_examples(ab):
    a_marked_all = LeftMark("a", FULL)
    assert member(Complement(a_marked_all), "b", ab)
    assert not member(a_marked_all, "b", ab)
    assert member(Predicate("equal-counts-ab"), "ab", ab)
    assert not member(Predicate("equal-counts-ab"), "aab", ab)
    # marked membership defers to the suffix
    inner = Predicate("square-length")
    for w in ["", "a", "bb", "abab"]:
        assert member(LeftMark("a", inner), "a" + w, ab) == member(inner, w, ab)


def test_member_quotient(ab):
    L = DfaAtom(regular_view(LeftMark("b", FULL), ab))
    quo = LeftQuotient("b", L)
    for w in ["", "a", "ab", "bb"]:
        assert member(quo, w, ab) == member(L, "b" + w, ab)


def test_unknown_predicate_raises(ab):
    with pytest.raises(UnknownPredicate):
        member(Predicate("halting"), "a", ab)
    with pytest.raises(UnknownPredicate):
        member(Predicate("equal-counts-aa"), "a", ab)


def test_member_agrees_with_automaton_on_random_trees(ab):
    """Structural evaluation vs the automaton backend, 500 random trees,
    all words up to length 8."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        expr = random_regular_expr(rng, ab)
        dfa = regular_view(expr, ab)
        got, want = window_rows([expr, DfaAtom(dfa)], ab, 2 ** 9 - 1)
        assert got == want


def test_batch_agrees_with_scalar_on_mixed_trees(ab):
    rng = np.random.default_rng(43)
    count = 180
    for _ in range(60):
        expr = random_mixed_expr(rng, ab)
        row = row_of(expr, ab, count)
        assert row == batch_row(expr, ab, count)
        assert bits(row, count) == scalar_vector(expr, ab, count)


def test_batch_agrees_with_scalar_three_symbols(abc):
    rng = np.random.default_rng(44)
    count = 150
    for _ in range(40):
        expr = random_mixed_expr(rng, abc)
        row = row_of(expr, abc, count)
        assert row == batch_row(expr, abc, count)
        assert bits(row, count) == scalar_vector(expr, abc, count)


def test_double_complement_identity(ab):
    rng = np.random.default_rng(45)
    for _ in range(20):
        expr = random_mixed_expr(rng, ab)
        twice, once = window_rows([Complement(Complement(expr)), expr], ab, 1001)
        assert twice == once


def test_quotient_cancels_marker(ab):
    rng = np.random.default_rng(46)
    for _ in range(20):
        expr = random_mixed_expr(rng, ab)
        for sym in "ab":
            cancelled = LeftQuotient(sym, LeftMark(sym, expr))
            got, want = window_rows([cancelled, expr], ab, 1001)
            assert got == want


def test_simplify_preserves_membership(ab):
    rng = np.random.default_rng(47)
    for _ in range(150):
        expr = random_mixed_expr(rng, ab, depth=4)
        simple = simplify(expr, ab)
        got, want = window_rows([simple, expr], ab, 300)
        assert got == want


def test_simplify_collapses_marker_structure(ab):
    A = Predicate("square-length")
    # distinct markers intersect to nothing
    assert simplify(Inter((LeftMark("a", A), LeftMark("b", A))), ab) == EMPTY
    # complement pair collapses
    assert simplify(Union((A, Complement(A))), ab) == FULL
    assert simplify(Inter((A, Complement(A))), ab) == EMPTY
    # same-marker union merges
    merged = simplify(Union((LeftMark("a", A), LeftMark("a", Complement(A)))), ab)
    view = regular_view(merged, ab)
    assert view is not None  # a(A u A^c) = aX* is regular
    assert view == regular_view(LeftMark("a", FULL), ab)


def test_regular_view_examples(ab):
    d = regular_view(Complement(FiniteSet(("",))), ab)
    assert row_of(DfaAtom(d), ab, 200) == (1 << 200) - 2
    both = regular_view(Union((LeftMark("a", FULL), LeftMark("b", FULL))), ab)
    assert both == d  # X* minus the empty word
    assert regular_view(Predicate("square-length"), ab) is None


def test_regular_view_keys_on_the_whole_alphabet(ab):
    """Keyed on the alphabet size alone, the cache handed {a} over the
    order b < a the automaton of {b} once {a} over ab was cached, and {a}
    over cd an automaton instead of a mismatch."""
    ba = Alphabet.parse("ab", order="ba")
    e = FiniteSet(("a",))
    for alphabet in (ab, ba, ab):
        d = regular_view(e, alphabet)
        assert d.accepts(alphabet, "a") and not d.accepts(alphabet, "b")
    with pytest.raises(AlphabetMismatch):
        regular_view(e, Alphabet.parse("cd"))


def test_automaton_caches_are_bounded_lru(ab):
    """The automaton cache keeps the most recently used
    ``AUTOMATON_CACHE_SIZE`` entries; an evicted one is rebuilt equal."""
    size = langs.AUTOMATON_CACHE_SIZE
    langs.regular_view.cache_clear()
    exprs = [FiniteSet((lex(ab, i),)) for i in range(size + 1)]
    views = [regular_view(e, ab) for e in exprs[:size]]
    regular_view(exprs[0], ab)  # now the most recently used: exprs[1] goes next
    views.append(regular_view(exprs[size], ab))
    assert langs.regular_view.cache_info().currsize == size
    misses = langs.regular_view.cache_info().misses
    assert regular_view(exprs[0], ab) is views[0]
    assert regular_view(exprs[size], ab) is views[size]
    assert langs.regular_view.cache_info().misses == misses
    assert regular_view(exprs[1], ab) == views[1]
    assert langs.regular_view.cache_info().misses == misses + 1
    # cached results equal conversions that no cache touched
    for i in (0, 1, size // 2, size):
        assert views[i] == langs._convert(exprs[i], ab, {}).minimize()
        assert views[i].accepts(ab, lex(ab, i)) and views[i].count_accepted() == 1


def test_is_finite_examples(ab):
    v = is_finite(FiniteSet(("a", "b")), ab)
    assert v.is_finite and v.exact and v.count == 2
    v = is_finite(LeftMark("a", FULL), ab)
    assert v.is_infinite and v.exact
    u, loop, w = v.witness["prefix"], v.witness["loop"], v.witness["suffix"]
    for reps in range(4):
        assert member(LeftMark("a", FULL), u + loop * reps + w, ab)
    v = is_finite(Predicate("square-length"), ab, horizon=100)
    assert v.is_unknown and v.horizon == 100 and v.count > 0


def test_is_finite_exact_matches_brute_force(ab):
    rng = np.random.default_rng(48)
    for _ in range(80):
        expr = random_regular_expr(rng, ab)
        v = is_finite(expr, ab)
        assert v.exact
        got = row_of(expr, ab, 2 ** 11 - 1)
        if v.is_finite:
            assert got.bit_count() == v.count
        else:
            for reps in range(4):
                pumped = v.witness["prefix"] + v.witness["loop"] * reps + v.witness["suffix"]
                assert member(expr, pumped, ab)


def test_subset_of_examples(ab):
    aXs, full = LeftMark("a", FULL), FULL
    v = subset_of(aXs, full, ab)
    assert v.is_certified and v.exact
    v = subset_of(full, aXs, ab)
    assert v.is_refuted and v.witness == ""
    sq = Predicate("square-length")
    # sq ∩ ¬(sq ∪ {a}) is empty whether sq reads as FULL or as EMPTY
    v = subset_of(sq, Union((sq, FiniteSet(("a",)))), ab, horizon=200)
    assert v.is_certified and v.exact
    # no square length is prime, but no FULL/EMPTY reading of the two
    # predicates shows it: only the window speaks
    v = subset_of(sq, Complement(Predicate("prime-length")), ab, horizon=200)
    assert v.is_unknown and v.horizon == 200


def test_subset_refutation_witness_is_least(ab):
    rng = np.random.default_rng(49)
    for _ in range(60):
        e1 = random_regular_expr(rng, ab)
        e2 = random_regular_expr(rng, ab)
        v = subset_of(e1, e2, ab)
        r1, r2 = window_rows([e1, e2], ab, 400)
        diff = r1 & ~r2
        if v.is_certified:
            assert not diff
        else:
            assert v.is_refuted
            if diff:  # least counterexample may lie beyond the window
                assert v.witness == lex(ab, (diff & -diff).bit_length() - 1)
                assert member(e1, v.witness, ab) and not member(e2, v.witness, ab)


def test_exact_subset_through_markers_with_opaque_base(ab):
    # marker structure makes these decidable despite the opaque base
    A = Predicate("square-length")
    not_b = Complement(LeftMark("b", FULL))
    v = subset_of(LeftMark("a", Complement(A)), not_b, ab)
    assert v.is_certified and v.exact
    v = subset_of(LeftMark("b", A), LeftMark("b", FULL), ab)
    assert v.is_certified and v.exact


def test_equivalent(ab):
    assert equivalent(Union((LeftMark("a", FULL), LeftMark("b", FULL))),
                      Complement(FiniteSet(("",))), ab).is_certified
    v = equivalent(LeftMark("a", FULL), FULL, ab)
    assert v.is_refuted and v.witness == ""


def test_emptiness_witness_is_first_window_word(ab):
    """Subset, equivalence and disjointness are emptiness of e1 minus e2,
    of the symmetric difference and of the intersection.  Whatever route
    answers, a member inside the window makes the witness the first window
    word of the raw membership rows of the replaced evaluator; on the window
    route, no member leaves the answer unknown at the horizon."""
    rng = np.random.default_rng(52)
    horizon = 150
    window_refutations = 0
    for _ in range(80):
        e1, e2 = random_mixed_expr(rng, ab), random_mixed_expr(rng, ab)
        v1, v2 = batch_row(e1, ab, horizon + 1), batch_row(e2, ab, horizon + 1)
        for got, vec in ((emptiness(e1, ab, horizon), v1),
                         (subset_of(e1, e2, ab, horizon), v1 & ~v2),
                         (equivalent(e1, e2, ab, horizon), v1 ^ v2),
                         (disjoint_verdict(e1, e2, ab, horizon), v1 & v2)):
            if vec:
                assert got.is_refuted and got.exact
                assert got.witness == lex(ab, (vec & -vec).bit_length() - 1)
                window_refutations += got.detail == {"route": "window"}
            else:
                assert got.exact or (got.is_unknown and got.horizon == horizon)
    assert window_refutations >= 30


def test_prime_sieve_is_one_growing_array(ab):
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    for n in (7, 300, 2, 1500, 64, 2000, 1999, 0, 31):
        assert langs._prime_mask(n)[n] == is_prime(n)
    top = langs._prime_mask(2000)
    assert [bool(x) for x in top[:2001]] == [is_prime(n) for n in range(2001)]
    # every later query up to the longest is served by the one held array
    assert all(langs._prime_mask(n) is top for n in range(2001))
    assert langs._prime_sieve is top
    assert member(Predicate("prime-length"), "a" * 1997, ab)


def test_json_roundtrip_bit_exact(ab):
    rng = np.random.default_rng(50)
    for _ in range(80):
        expr = random_mixed_expr(rng, ab, depth=4)
        data = expr_to_json(expr)
        back = expr_from_json(data, ab)
        assert back == expr
        assert json.dumps(expr_to_json(back), sort_keys=True) == \
            json.dumps(data, sort_keys=True)


def test_json_rejects_malformed(ab):
    with pytest.raises(ValueError):
        expr_from_json({"op": "xor", "args": []}, ab)
    with pytest.raises(UnknownPredicate):
        expr_from_json({"predicate": "nope"}, ab)


@pytest.mark.parametrize("horizon", [-1, -3])
def test_decisions_reject_negative_horizon(ab, horizon):
    """Each decision refuses a window of no word, on the exact route as on
    the window scan, with an error that names the bound."""
    sq = Predicate("square-length")
    message = f"horizon must be at least 0, got {horizon}"
    for call in (lambda: subset_of(FULL, sq, ab, horizon),
                 lambda: subset_of(FULL, FULL, ab, horizon),
                 lambda: is_finite(sq, ab, horizon),
                 lambda: is_finite(FULL, ab, horizon),
                 lambda: emptiness(sq, ab, horizon),
                 lambda: emptiness(EMPTY, ab, horizon),
                 lambda: equivalent(sq, FULL, ab, horizon)):
        with pytest.raises(ValueError, match=message):
            call()
