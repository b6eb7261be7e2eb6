"""The window evaluator against the replaced per-word batch evaluator
(:mod:`tests.batch_oracle`) and, bit by bit, against scalar membership:
quotients pushed down to the leaves, marks as block shifts, predicates as
window-exact automata and the alphabet checks."""

import numpy as np
import pytest

from cptk.dfa import Dfa
from cptk.langs import (FULL, Complement, DfaAtom, FiniteSet, Inter, LeftMark,
                        LeftQuotient, Predicate, Union, UnknownPredicate,
                        resolve_predicate, window_rows)
from cptk.words import Alphabet, AlphabetMismatch, lex, words_up_to

from .batch_oracle import batch_row
from .conftest import random_dfa, random_mixed_expr
from .scalar_oracle import member, scalar_predicate

PREDICATES = ("square-length", "prime-length", "equal-counts-ab", "equal-counts-ba")


def predicates(alphabet):
    return [p for p in PREDICATES
            if not p.startswith("equal") or {"a", "b"} <= set(alphabet.symbols)]


def boundary_counts(alphabet, top=1000):
    """0, 1, each length-block boundary +-1, the first rank of each marked
    sub-block +-1, 301 and 1000; over one symbol, where every rank starts
    a block, the first ten."""
    b, counts = alphabet.size, {0, 1, 301, top}
    before, size = 1, 1
    while before <= (10 if b == 1 else top):
        size *= b
        for edge in [before] + [before + c * size for c in range(b)]:
            counts.update((edge - 1, edge, edge + 1))
        before += size
    return sorted(c for c in counts if 0 <= c <= top)


def quotient_exprs(rng, alphabet, n):
    """Random mixed expressions under single and nested quotients, marks
    over quotients over predicates, and quotients around marks.  Under a
    quotient the expression also gets a finite set and an automaton of up
    to six states, which tell most quotient words apart."""
    syms = list(alphabet.symbols)

    def word(shortest, longest=2):
        return "".join(rng.choice(syms, size=int(rng.integers(shortest, longest + 1))))

    out = []
    for _ in range(n):
        e = Union((random_mixed_expr(rng, alphabet),
                   FiniteSet(tuple(word(2, 5) for _ in range(4))),
                   DfaAtom(random_dfa(rng, alphabet.size, max_states=6))))
        roll = rng.random()
        if roll < 0.25:
            e = LeftQuotient(word(0), e)
        elif roll < 0.5:
            e = LeftQuotient(word(1), LeftQuotient(word(1), e))
        elif roll < 0.65:
            e = LeftMark(str(rng.choice(syms)),
                         LeftQuotient(word(0), Predicate(str(rng.choice(predicates(alphabet))))))
        elif roll < 0.8:
            e = LeftQuotient(word(1), LeftMark(str(rng.choice(syms)),
                                               LeftQuotient(word(1), e)))
        out.append(e)
    return out


def scalar_row(expr, alphabet, count):
    return sum(1 << j for j, w in enumerate(words_up_to(alphabet, count))
               if member(expr, w, alphabet))


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_rows_match_oracle_and_scalar_under_quotients(symbols):
    alphabet = Alphabet.parse(symbols)
    exprs = quotient_exprs(np.random.default_rng(len(symbols)), alphabet, 60)
    for count in boundary_counts(alphabet):
        rows = window_rows(exprs, alphabet, count)
        assert rows == [batch_row(e, alphabet, count) for e in exprs], count
        if count <= 301:
            assert rows == [scalar_row(e, alphabet, count) for e in exprs], count


def test_nested_quotients_take_the_inner_word_first(ab):
    """member(LeftQuotient(w, e), x) = member(e, w + x), so the outer word
    follows the inner one: "b"⁻¹("a"⁻¹ L) reads "ab" + x in L."""
    lang = FiniteSet(("ab", "abb", "ba", "baa"))
    nested = LeftQuotient("b", LeftQuotient("a", lang))
    row = window_rows([nested], ab, 15)[0]
    assert row == 0b101  # "" and "b"
    assert row == batch_row(nested, ab, 15) == scalar_row(nested, ab, 15)
    marked = LeftMark("b", LeftQuotient("a", lang))  # b·("a"⁻¹ L)
    assert window_rows([marked], ab, 15)[0] == scalar_row(marked, ab, 15)
    assert scalar_row(marked, ab, 15) == 1 << 6 | 1 << 14  # "bb", "bbb"


@pytest.mark.parametrize("symbols,longest", [("a", 60), ("ab", 10), ("abc", 6)])
def test_predicate_automata_exact_up_to_their_length(symbols, longest):
    alphabet = Alphabet.parse(symbols)
    words = list(words_up_to(alphabet, (alphabet.size ** (longest + 1) - 1)
                             // (alphabet.size - 1) if alphabet.size > 1 else longest + 1))
    assert len(words[-1]) == longest
    for name in predicates(alphabet):
        automaton, scalar = resolve_predicate(name), scalar_predicate(name)
        for bound in range(longest + 1):
            dfa = automaton(alphabet, bound)
            for w in words:
                if len(w) > bound:
                    break
                assert dfa.accepts(alphabet, w) == scalar(alphabet, w), (name, bound, w)


def outcome(build):
    try:
        return build()
    except (AlphabetMismatch, UnknownPredicate) as exc:
        return type(exc)


def test_alphabet_mismatch_as_the_batch_evaluator(ab):
    wrong = DfaAtom(Dfa(3, ((0, 0, 0),), 0, frozenset({0})))
    cases = [
        wrong, LeftMark("a", wrong), LeftMark("b", LeftMark("b", wrong)),
        LeftQuotient("ab", wrong), Union((FULL, wrong)),
        LeftMark("c", FULL), LeftQuotient("c", FULL), LeftQuotient("ac", FULL),
        LeftMark("a", LeftMark("c", FULL)),
        Predicate("equal-counts-ac"), LeftMark("b", Predicate("equal-counts-ca")),
        Predicate("halting"), LeftMark("a", Predicate("halting")),
        # a finite set's words are checked when some word u·x of the window
        # has their length, before those not starting with u are dropped
        LeftQuotient("a", FiniteSet(("c",))), LeftQuotient("ab", FiniteSet(("bc",))),
        LeftQuotient("ab", FiniteSet(("bbbbbc",))), LeftQuotient("b", FiniteSet(("ac", "b"))),
        LeftMark("a", FiniteSet(("c",))), LeftMark("b", FiniteSet(("ac",))),
        LeftMark("a", LeftQuotient("b", FiniteSet(("bc", "b")))),
        Inter((LeftMark("b", FULL), LeftQuotient("a", FiniteSet(("aac",))))),
    ]
    # no word "b"·x passes the mark, so its argument is never reached
    silent = [LeftQuotient("b", LeftMark("a", wrong))]
    raised = set()
    for e in cases + silent:
        for count in (0, 1, 2, 3, 4, 6, 7, 8, 9, 15, 40):
            got = outcome(lambda: window_rows([e], ab, count)[0])
            assert got == outcome(lambda: batch_row(e, ab, count)), (e, count)
            if isinstance(got, type):
                raised.add(e)
    assert raised == set(cases)


def test_mark_over_a_window_no_word_passes_evaluates_nothing(ab):
    """No word of lex(0..1) starts with b: the argument is never reached."""
    wrong = DfaAtom(Dfa(3, ((0, 0, 0),), 0, frozenset({0})))
    assert window_rows([LeftMark("b", wrong)], ab, 2) == [0]
    assert window_rows([LeftMark("a", Complement(FiniteSet(())))], ab, 2) == [0b10]
    assert lex(ab, 1) == "a"
