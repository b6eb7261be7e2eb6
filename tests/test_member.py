"""One-word membership as the one-word window row of a quotient, against
the scalar tree walk it replaced (:func:`tests.scalar_oracle.member`): on
random trees with predicates, on invalid trees, and as the uniform word
problem ``word_e`` of the shipped families."""

import numpy as np
import pytest

from cptk.dfa import Dfa
from cptk.families import finite_family, length_family, regular_family
from cptk.langs import (Complement, DfaAtom, FiniteSet, Inter, LeftMark,
                        LeftQuotient, Predicate, Union, UnknownPredicate, member)
from cptk.words import Alphabet, AlphabetMismatch, lex

from . import scalar_oracle
from .conftest import random_dfa

RANKS = 200


def random_tree(rng, alphabet, depth=3, foreign=0.0):
    """A random tree with predicate leaves.  With probability ``foreign``
    per choice, a word, mark or predicate symbol is "z", not in the
    alphabet, a predicate is unknown or an automaton has the wrong size."""
    syms = list(alphabet.symbols)

    def symbol():
        return "z" if rng.random() < foreign else str(rng.choice(syms))

    def word(longest):
        return "".join(symbol() for _ in range(int(rng.integers(0, longest + 1))))

    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            names = ["square-length", "prime-length"]
            if alphabet.size > 1:
                x, y = rng.choice(syms, size=2, replace=False)
                names.append(f"equal-counts-{x}{y}")
            if rng.random() < foreign:
                names = [f"equal-counts-{syms[0]}z", "halting"]
            return Predicate(str(rng.choice(names)))
        if roll < 0.7:
            return FiniteSet(tuple(word(4) for _ in range(int(rng.integers(0, 5)))))
        size = alphabet.size + (1 if rng.random() < foreign else 0)
        return DfaAtom(random_dfa(rng, size))
    roll = rng.random()
    if roll < 0.25:
        return Union(tuple(random_tree(rng, alphabet, depth - 1, foreign)
                           for _ in range(int(rng.integers(1, 4)))))
    if roll < 0.5:
        return Inter(tuple(random_tree(rng, alphabet, depth - 1, foreign)
                           for _ in range(int(rng.integers(1, 4)))))
    if roll < 0.65:
        return Complement(random_tree(rng, alphabet, depth - 1, foreign))
    if roll < 0.85:
        return LeftMark(symbol(), random_tree(rng, alphabet, depth - 1, foreign))
    return LeftQuotient(word(2), random_tree(rng, alphabet, depth - 1, foreign))


def is_valid(expr, alphabet):
    """Every symbol in the alphabet, every predicate known, every automaton
    over the alphabet's size."""
    if isinstance(expr, FiniteSet):
        return all(set(w) <= set(alphabet.symbols) for w in expr.words)
    if isinstance(expr, DfaAtom):
        return expr.dfa.n_symbols == alphabet.size
    if isinstance(expr, Predicate):
        try:
            scalar_oracle.scalar_predicate(expr.name)(alphabet, "")
        except (UnknownPredicate, AlphabetMismatch):
            return False
        return True
    if isinstance(expr, (Union, Inter)):
        return all(is_valid(a, alphabet) for a in expr.args)
    if isinstance(expr, LeftMark) and expr.symbol not in alphabet.symbols:
        return False
    if isinstance(expr, LeftQuotient) and not set(expr.word) <= set(alphabet.symbols):
        return False
    return is_valid(expr.arg, alphabet)


def outcome(call):
    try:
        return call()
    except (AlphabetMismatch, UnknownPredicate) as exc:
        return type(exc)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_member_matches_the_scalar_walk(symbols):
    alphabet = Alphabet.parse(symbols)
    rng = np.random.default_rng(len(symbols))
    for _ in range(12):
        expr = random_tree(rng, alphabet)
        assert is_valid(expr, alphabet)
        for j in range(RANKS):
            w = lex(alphabet, j)
            assert member(expr, w, alphabet) == scalar_oracle.member(expr, w, alphabet), (expr, w)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_member_on_invalid_trees_raises_where_the_walk_did(symbols):
    """On a valid tree the outcomes agree, errors included.  On an invalid
    one, the row also raises where the walk returned an answer without
    reaching the fault: it checks marks, quotient words and the finite words
    as long as the asked word, and it evaluates every argument of a union
    or an intersection."""
    alphabet = Alphabet.parse(symbols)
    rng = np.random.default_rng(10 + len(symbols))
    words = [lex(alphabet, j) for j in range(0, RANKS, 7)] + ["z", symbols[0] + "z"]
    stricter = 0
    for _ in range(60):
        expr = random_tree(rng, alphabet, foreign=0.15)
        valid = is_valid(expr, alphabet)
        for w in words:
            got = outcome(lambda: member(expr, w, alphabet))
            want = outcome(lambda: scalar_oracle.member(expr, w, alphabet))
            if valid or got == want:
                assert got == want, (expr, w)
            else:
                assert isinstance(want, bool) and got in (AlphabetMismatch, UnknownPredicate)
                stricter += 1
    assert stricter


def test_member_refuses_foreign_symbols_the_walk_passed_over(ab):
    wrong = DfaAtom(Dfa(3, ((0, 0, 0),), 0, frozenset({0})))
    for expr, word in [(LeftMark("z", FiniteSet(("a",))), "a"),
                       (FiniteSet(("a", "zz")), "ab"),
                       (LeftQuotient("z", FiniteSet(("za",))), "a"),
                       (Union((FiniteSet(("a",)), Predicate("halting"))), "a"),
                       (Inter((FiniteSet(()), wrong)), "a")]:
        assert isinstance(scalar_oracle.member(expr, word, ab), bool)
        with pytest.raises((AlphabetMismatch, UnknownPredicate)):
            member(expr, word, ab)
    # a finite word of another length than the asked word is not read
    assert member(FiniteSet(("a", "zzz")), "a", ab)
    with pytest.raises(AlphabetMismatch):
        member(FiniteSet(("a",)), "z", ab)


@pytest.mark.parametrize("build", [regular_family, finite_family, length_family])
@pytest.mark.parametrize("symbols", ["a", "ab"])
def test_word_e_matches_the_scalar_walk(build, symbols):
    alphabet = Alphabet.parse(symbols)
    family = build(alphabet)
    for i in range(0, 300, 11):
        for j in range(40):
            want = scalar_oracle.member(family.expr(i), lex(alphabet, j), alphabet)
            assert family.word_e(i, j) == want, (i, j)
