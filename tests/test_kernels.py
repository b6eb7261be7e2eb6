"""Kernels against scalar oracles: the per-position run over packed words,
the stacked pass over a window, and the int bitset rows built on it."""

import numpy as np
import pytest

from cptk import kernels
from cptk.langs import (Complement, DfaAtom, FiniteSet, LeftMark, Predicate,
                        StepBudgetExceeded, member, member_batch, step_budget,
                        window_rows)
from cptk.words import Alphabet, AlphabetMismatch, lex, window

from .conftest import random_dfa, random_mixed_expr


def scalar_final_state(dfa, alphabet, word):
    state = dfa.initial
    for c in alphabet.codes(word):
        state = dfa.transitions[state][c]
    return state


@pytest.mark.parametrize("symbols,count", [("ab", 700), ("abc", 500), ("a", 40)])
def test_final_states_match_scalar_accepts(symbols, count):
    alphabet = Alphabet.parse(symbols)
    packed = window(alphabet, count)
    rng = np.random.default_rng(7)
    for _ in range(10):
        dfa = random_dfa(rng, alphabet.size)
        finals = kernels.dfa_final_states(dfa._trans_array, dfa.initial,
                                          packed.flat, packed.starts, packed.lengths)
        for i in range(count):
            assert (finals[i] in dfa.accepting) == dfa.accepts(alphabet, packed.word(i))


def test_final_states_match_scalar_run(ab):
    packed = window(ab, 300)
    dfa = random_dfa(np.random.default_rng(11), 2)
    finals = kernels.dfa_final_states(dfa._trans_array, dfa.initial,
                                      packed.flat, packed.starts, packed.lengths)
    for i in range(len(packed)):
        assert finals[i] == scalar_final_state(dfa, ab, packed.word(i))


def test_symbol_counts_safe_on_empty_words(ab):
    packed = window(ab, 100)
    counts_a = kernels.symbol_counts(packed.flat, packed.starts, packed.lengths, 0)
    for i in range(100):
        assert counts_a[i] == packed.word(i).count("a")
    assert counts_a[0] == 0  # the empty word


def test_empty_batch(ab):
    packed = window(ab, 0)
    dfa = random_dfa(np.random.default_rng(0), 2)
    finals = kernels.dfa_final_states(dfa._trans_array, dfa.initial,
                                      packed.flat, packed.starts, packed.lengths)
    assert len(finals) == 0


def test_member_batch_matches_scalar_member(ab):
    packed = window(ab, 400)
    rng = np.random.default_rng(21)
    for _ in range(20):
        expr = random_mixed_expr(rng, ab)
        vec = member_batch(expr, packed)
        assert [bool(v) for v in vec] == [member(expr, packed.word(i), ab)
                                          for i in range(len(packed))]


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
        assert (accepted == d.accepts_batch(packed)).all()
        for j in range(count):
            assert accepted[j] == d.accepts(alphabet, packed.word(j))


def test_row_bits():
    assert kernels.row_bits(np.zeros(0, dtype=bool)) == 0
    vec = np.array([1, 0, 0, 1, 1, 0, 0, 0, 0, 1], dtype=bool)
    assert kernels.row_bits(vec) == sum(1 << j for j in np.nonzero(vec)[0])


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_window_rows_match_member_batch(symbols):
    alphabet = Alphabet.parse(symbols)
    rng = np.random.default_rng(5)
    exprs = [random_mixed_expr(rng, alphabet) for _ in range(15)]
    dfa = random_dfa(rng, alphabet.size)
    # atoms sharing one table with different accepting sets, and an atom
    # under a marker, which goes through member_batch
    exprs += [DfaAtom(dfa), DfaAtom(type(dfa)(dfa.n_symbols, dfa.transitions, 0,
                                              frozenset(range(dfa.n_states)))),
              LeftMark(alphabet.symbols[0], DfaAtom(dfa))]
    exprs += [DfaAtom(random_dfa(rng, alphabet.size)) for _ in range(15)]
    for count in (1, 7, 301):
        packed = window(alphabet, count)
        rows = window_rows(exprs, alphabet, count)
        assert rows == [kernels.row_bits(member_batch(e, packed)) for e in exprs]


def test_window_rows_charge_step_budget(ab):
    rng = np.random.default_rng(9)
    atoms = [DfaAtom(random_dfa(rng, 2)) for _ in range(6)]
    exprs = atoms + [Complement(atoms[0])]
    # one step per word and atom, the complemented atom included
    cost = 7 * 50
    with step_budget(cost):
        window_rows(exprs, ab, 50)
    with step_budget(cost - 1), pytest.raises(StepBudgetExceeded):
        window_rows(exprs, ab, 50)
    with step_budget(6 * 50 - 1), pytest.raises(StepBudgetExceeded):
        window_rows(atoms, ab, 50)


def batch_row(expr, alphabet, count):
    """A finite set's row the way ``window_rows`` built it before it read
    word ranks: ``member_batch`` over the packed window."""
    return kernels.row_bits(member_batch(expr, window(alphabet, count)))


def outcome(build):
    try:
        return build()
    except (AlphabetMismatch, StepBudgetExceeded) as exc:
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


def test_finite_set_rows_charge_step_budget_in_order(ab):
    """A finite set charges one step per word before it looks at its words,
    in expression order, as ``member_batch`` did."""
    sets = [FiniteSet(("aa", "b")), Predicate("square-length"), FiniteSet(("ac",))]

    def reference():
        return [batch_row(e, ab, 50) for e in sets]

    for budget in (49, 50, 99, 100, 149, 150, 151):
        def rows():
            with step_budget(budget):
                return window_rows(sets, ab, 50)

        def want():
            with step_budget(budget):
                return reference()

        assert outcome(rows) == outcome(want)
    with step_budget(149), pytest.raises(StepBudgetExceeded):
        window_rows(sets, ab, 50)
    with step_budget(150), pytest.raises(AlphabetMismatch):
        window_rows(sets, ab, 50)
