"""Kernels against scalar oracles: the stacked pass over a window and the
int bitset rows built on it, also against the replaced per-word batch
evaluator kept in :mod:`tests.batch_oracle`."""

import numpy as np
import pytest

from cptk import kernels, langs
from cptk.families import regular_family
from cptk.langs import DfaAtom, FiniteSet, LeftMark, Predicate, window_rows
from cptk.words import Alphabet, AlphabetMismatch, lex, words_up_to

from .batch_oracle import accepts_batch, batch_row, member_batch, row_bits, window
from .conftest import random_dfa, random_mixed_expr
from .scalar_oracle import member


def scalar_final_state(dfa, alphabet, word):
    state = dfa.initial
    for c in alphabet.codes(word):
        state = dfa.transitions[state][c]
    return state


def single_final_states(dfa, count):
    """The stacked pass over a stack of one automaton."""
    return kernels.window_final_states(dfa._trans_array.astype(np.int32),
                                       np.array([dfa.initial]), count)[0]


@pytest.mark.parametrize("symbols,count", [("ab", 700), ("abc", 500), ("a", 40)])
def test_final_states_match_scalar_accepts(symbols, count):
    alphabet = Alphabet.parse(symbols)
    rng = np.random.default_rng(7)
    for _ in range(10):
        dfa = random_dfa(rng, alphabet.size)
        finals = single_final_states(dfa, count)
        for i, w in enumerate(words_up_to(alphabet, count)):
            assert (finals[i] in dfa.accepting) == dfa.accepts(alphabet, w)


def test_final_states_match_scalar_run(ab):
    dfa = random_dfa(np.random.default_rng(11), 2)
    finals = single_final_states(dfa, 300)
    for i, w in enumerate(words_up_to(ab, 300)):
        assert finals[i] == scalar_final_state(dfa, ab, w)


def test_symbol_counts_safe_on_empty_words(ab):
    """The equal-counts automaton counts from the empty word on."""
    row = window_rows([Predicate("equal-counts-ab")], ab, 100)[0]
    for i, w in enumerate(words_up_to(ab, 100)):
        assert (row >> i & 1) == (w.count("a") == w.count("b"))
    assert row & 1  # the empty word


def test_empty_batch(ab):
    dfa = random_dfa(np.random.default_rng(0), 2)
    assert single_final_states(dfa, 0).shape == (0,)
    assert window_rows([DfaAtom(dfa), Predicate("square-length")], ab, 0) == [0, 0]


def test_member_batch_matches_scalar_member(ab):
    """The oracle and the window rows against scalar membership."""
    packed = window(ab, 400)
    rng = np.random.default_rng(21)
    for _ in range(20):
        expr = random_mixed_expr(rng, ab)
        vec = member_batch(expr, packed)
        scalar = [member(expr, packed.word(i), ab) for i in range(len(packed))]
        assert [bool(v) for v in vec] == scalar
        row = window_rows([expr], ab, 400)[0]
        assert [bool(row >> j & 1) for j in range(400)] == scalar


def stack(dfas):
    offsets = np.cumsum([0] + [d.n_states for d in dfas])
    trans = np.concatenate([d._trans_array + off for d, off in zip(dfas, offsets)])
    return trans.astype(np.int32), offsets[:-1] + [d.initial for d in dfas], offsets


# over "ab" the windows of 1 and 7 (1 + 2 + 4) words end on a level
# boundary and 2, 301 and 500 inside a level; over "abc" only 1 ends on
# one; over "a" every level is one word
@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("count", [1, 2, 7, 301, 500])
def test_window_final_states_match_scalar_and_batch(symbols, count):
    alphabet = Alphabet.parse(symbols)
    packed = window(alphabet, count)
    rng = np.random.default_rng(count)
    dfas = [random_dfa(rng, alphabet.size, max_states=5) for _ in range(12)]
    trans, initials, offsets = stack(dfas)
    finals = kernels.window_final_states(trans, initials, count)
    assert finals.shape == (len(dfas), count)
    for d, off, states in zip(dfas, offsets, finals):
        accepted = np.isin(states - off, sorted(d.accepting))
        assert (accepted == accepts_batch(d, packed)).all()
        for j in range(count):
            assert accepted[j] == d.accepts(alphabet, packed.word(j))


def test_row_bits():
    """The oracle's vector-to-row packing, which the differential tests
    rely on."""
    assert row_bits(np.zeros(0, dtype=bool)) == 0
    vec = np.array([1, 0, 0, 1, 1, 0, 0, 0, 0, 1], dtype=bool)
    assert row_bits(vec) == sum(1 << j for j in np.nonzero(vec)[0])


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_window_rows_match_member_batch(symbols):
    alphabet = Alphabet.parse(symbols)
    rng = np.random.default_rng(5)
    exprs = [random_mixed_expr(rng, alphabet) for _ in range(15)]
    dfa = random_dfa(rng, alphabet.size)
    # atoms sharing one table with different accepting sets, and an atom
    # under a marker
    exprs += [DfaAtom(dfa), DfaAtom(type(dfa)(dfa.n_symbols, dfa.transitions, 0,
                                              frozenset(range(dfa.n_states)))),
              LeftMark(alphabet.symbols[0], DfaAtom(dfa))]
    exprs += [DfaAtom(random_dfa(rng, alphabet.size)) for _ in range(15)]
    for count in (1, 7, 301):
        packed = window(alphabet, count)
        rows = window_rows(exprs, alphabet, count)
        assert rows == [row_bits(member_batch(e, packed)) for e in exprs]


def per_state_window_rows(exprs, alphabet, count):
    """``window_rows`` as it read each state's row with its own
    ``row_bits`` call: the reference for the packed pass."""
    exprs = list(exprs)
    out = [0] * len(exprs)
    tables = {}
    packed = None
    for k, e in enumerate(exprs):
        if isinstance(e, DfaAtom) and e.dfa.n_symbols == alphabet.size:
            tables.setdefault((e.dfa.transitions, e.dfa.initial), []).append(k)
            continue
        if isinstance(e, FiniteSet):
            out[k] = langs._finite_row(e, (), alphabet, count)
            continue
        if packed is None:
            packed = window(alphabet, count)
        out[k] = row_bits(member_batch(e, packed))
    groups = list(tables.values())
    step = max(1, kernels.STACK_WORDS // max(count, 1))
    for lo in range(0, len(groups), step):
        dfas = [exprs[ks[0]].dfa for ks in groups[lo:lo + step]]
        offsets = np.cumsum([0] + [d.n_states for d in dfas])
        trans = np.concatenate([d._trans_array + off
                                for d, off in zip(dfas, offsets)]).astype(np.int32)
        initials = offsets[:-1] + [d.initial for d in dfas]
        finals = kernels.window_final_states(trans, initials, count)
        for ks, d, off, states in zip(groups[lo:lo + step], dfas, offsets, finals):
            used = set().union(*(exprs[k].dfa.accepting for k in ks))
            state_bits = {s: row_bits(states == off + s) for s in used}
            for k in ks:
                row = 0
                for s in exprs[k].dfa.accepting:
                    row |= state_bits[s]
                out[k] = row
    return out


def shared_table_exprs(alphabet, rng):
    """Atoms sharing tables but not accepting sets or initial states, mixed
    with finite sets, predicates and a marked atom."""
    exprs = []
    for _ in range(6):
        dfa = random_dfa(rng, alphabet.size)
        n = dfa.n_states
        exprs += [DfaAtom(type(dfa)(dfa.n_symbols, dfa.transitions, 0, acc))
                  for acc in (frozenset(), frozenset(range(n)), dfa.accepting)]
        exprs += [DfaAtom(dfa.left_quotient(alphabet.codes(w)))
                  for w in (alphabet.symbols[0], alphabet.symbols[-1] * 2)]
        exprs.append(DfaAtom(dfa.complement()))
    exprs += [FiniteSet(("", alphabet.symbols[-1] * 3)), Predicate("square-length"),
              LeftMark(alphabet.symbols[0], exprs[0]), FiniteSet(())]
    return exprs


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 301])
def test_packed_rows_match_per_state_rows(symbols, count):
    alphabet = Alphabet.parse(symbols)
    exprs = shared_table_exprs(alphabet, np.random.default_rng(count))
    assert window_rows(exprs, alphabet, count) == \
        per_state_window_rows(exprs, alphabet, count)


def test_packed_rows_match_per_state_rows_over_many_stacks(ab, monkeypatch):
    """The first 3000 regular indices hold more tables than one stack of
    301 words; a smaller stack bound splits short windows too."""
    exprs = [regular_family(ab).expr(i) for i in range(3000)]
    exprs += shared_table_exprs(ab, np.random.default_rng(3))
    assert len({e.dfa.transitions for e in exprs[:3000]}) > kernels.STACK_WORDS // 301
    assert window_rows(exprs, ab, 301) == per_state_window_rows(exprs, ab, 301)
    monkeypatch.setattr(kernels, "STACK_WORDS", 16)
    for count in (1, 8, 9, 40):
        assert window_rows(exprs, ab, count) == per_state_window_rows(exprs, ab, count)


def outcome(build):
    try:
        return build()
    except AlphabetMismatch as exc:
        return type(exc)


@pytest.mark.parametrize("symbols,order", [("a", None), ("ab", None), ("ab", "ba"),
                                           ("abc", None), ("abc", "cab")])
def test_finite_set_rows_match_member_batch(symbols, order):
    alphabet = Alphabet.parse(symbols, order)
    rng = np.random.default_rng(11)
    sets = [FiniteSet(()), FiniteSet(("",))]
    for _ in range(40):
        words = ["".join(rng.choice(list(symbols), size=int(rng.integers(0, 9))))
                 for _ in range(int(rng.integers(1, 12)))]
        sets.append(FiniteSet(tuple(words)))
    # every word of the window, and words just beyond it
    sets.append(FiniteSet(tuple(lex(alphabet, r) for r in range(40))))
    for count in (0, 1, 2, 3, 4, 7, 13, 14, 31, 40, 301):
        rows = window_rows(sets, alphabet, count)
        assert rows == [batch_row(e, alphabet, count) for e in sets]


def test_finite_set_row_alphabet_mismatch_as_member_batch(ab):
    """Words no longer than the window's longest are checked, as
    ``member_batch`` checks them; longer ones are skipped by both."""
    # lex(0..6) runs up to length 2, lex(0..7) reaches length 3
    for words in [("ac",), ("c",), ("a", "bc"), ("aac",), ("", "ccc"), ("aaaac",)]:
        for count in (0, 1, 3, 6, 7, 8, 15, 40):
            e = FiniteSet(words)
            got = outcome(lambda: window_rows([e], ab, count)[0])
            assert got == outcome(lambda: batch_row(e, ab, count)), (words, count)
    with pytest.raises(AlphabetMismatch):
        window_rows([FiniteSet(("aac",))], ab, 8)
    assert window_rows([FiniteSet(("a", "aac"))], ab, 7) == [0b10]


def test_finite_set_row_mismatch_in_a_mixed_list(ab):
    """A finite set with a word off the alphabet fails the whole mixed
    list, as ``member_batch`` did."""
    sets = [FiniteSet(("aa", "b")), Predicate("square-length"), FiniteSet(("ac",))]

    def reference():
        return [batch_row(e, ab, 50) for e in sets]

    assert outcome(lambda: window_rows(sets, ab, 50)) == outcome(reference)
    with pytest.raises(AlphabetMismatch):
        window_rows(sets, ab, 50)
