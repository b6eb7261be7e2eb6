"""One regularity rule: :func:`langs.regular_view` reads each predicate leaf
context as FULL and as EMPTY, and an expression whose every assignment
gives one language is regular.

The structural simplifier it replaced is the differential oracle
(``simplify_oracle.regular_view``): every expression of at most
``LEAF_CONTEXTS`` contexts that the oracle proves regular keeps the same
minimal automaton, and every automaton only the new rule finds agrees
with the window rows.
"""

import numpy as np
import pytest

from cptk import langs
from cptk.dfa import Dfa
from cptk.langs import (EMPTY, FULL, LEAF_CONTEXTS, Complement, DfaAtom, Inter, LeftMark,
                        LeftQuotient, Predicate, Union, equivalent, regular_view, subset_of,
                        window_rows)
from cptk.words import Alphabet

from .conftest import random_tree
from .simplify_oracle import regular_view as oracle_view

SQ = Predicate("square-length")
EQ = Predicate("equal-counts-ab")
A_STAR = DfaAtom(Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0})))  # b-free words


def contexts(expr, alphabet):
    """The predicate leaf contexts the conversion reads."""
    leaves = {}
    langs._convert(expr, alphabet, leaves)
    return len(leaves)


def test_every_oracle_view_is_kept():
    """Random trees of depth 2 to 6 over a, ab and abc: the oracle's
    automaton, whenever it finds one; the window rows, for each automaton
    only the new rule finds."""
    rng = np.random.default_rng(17)
    both = only_new = 0
    for symbols in ("a", "ab", "abc"):
        alphabet = Alphabet.parse(symbols)
        for depth in range(2, 7):
            for _ in range(200):
                e = random_tree(rng, alphabet, depth)
                if contexts(e, alphabet) > LEAF_CONTEXTS:
                    continue
                old, new = oracle_view(e, alphabet), regular_view(e, alphabet)
                if old is not None:
                    assert new == old
                    both += 1
                elif new is not None:
                    got, want = window_rows([e, DfaAtom(new)], alphabet, 2000)
                    assert got == want
                    only_new += 1
    assert both > 1000 and only_new >= 3


def test_disjoint_mark_and_atom(ab):
    """a* holds no word starting with b."""
    assert regular_view(Inter((A_STAR, LeftMark("b", SQ))), ab) == regular_view(EMPTY, ab)
    # the simplifier did not look through the double complement
    e = Inter((A_STAR, Complement(Complement(LeftMark("b", SQ)))))
    assert oracle_view(e, ab) is None
    assert regular_view(e, ab) == regular_view(EMPTY, ab)


def test_predicate_or_its_complement(ab):
    full = regular_view(FULL, ab)
    assert regular_view(Union((SQ, Complement(SQ))), ab) == full
    a_sq = LeftMark("a", SQ)
    assert regular_view(Union((a_sq, Complement(a_sq))), ab) == full
    assert regular_view(Inter((a_sq, Complement(a_sq))), ab) == regular_view(EMPTY, ab)


def test_quotient_of_a_mark_reads_the_leaf_itself(ab):
    """a⁻¹(a·S) and S read S at the same context, so they are provably
    equal although neither is regular."""
    cancelled = LeftQuotient("a", LeftMark("a", SQ))
    assert regular_view(cancelled, ab) is None
    v = equivalent(cancelled, SQ, ab)
    assert v.is_certified and v.exact
    # b⁻¹(a·S) is empty
    assert regular_view(LeftQuotient("b", LeftMark("a", SQ)), ab) == regular_view(EMPTY, ab)


def test_equal_counts_under_marks(ab):
    """The rule does not care that equal-counts-ab is no length predicate."""
    assert regular_view(LeftMark("a", EQ), ab) is None
    marked = Union((LeftMark("a", EQ), LeftMark("a", Complement(EQ))))
    assert regular_view(marked, ab) == regular_view(LeftMark("a", FULL), ab)
    assert regular_view(Inter((LeftMark("a", EQ), LeftMark("b", EQ))), ab) == \
        regular_view(EMPTY, ab)
    # a·E and b·E read E at two contexts, and no assignment makes them meet
    v = subset_of(LeftMark("a", EQ), Complement(LeftMark("b", EQ)), ab)
    assert v.is_certified and v.exact


def both_ways(i):
    x = LeftQuotient("a" * i, SQ)
    return Union((x, Complement(x)))


@pytest.mark.parametrize("n, regular", [(LEAF_CONTEXTS, True), (LEAF_CONTEXTS + 1, False)])
def test_past_the_leaf_contexts_the_window_answers(ab, n, regular):
    """An intersection of n languages X ∪ ¬X, X = (aⁱ)⁻¹S: each is every
    word, which the simplifier proved at any n; one context per i."""
    e = Inter(tuple(both_ways(i) for i in range(1, n + 1)))
    assert contexts(e, ab) == n
    assert oracle_view(e, ab) == regular_view(FULL, ab)
    assert (regular_view(e, ab) is not None) == regular
    v = subset_of(FULL, e, ab, horizon=50)
    assert v.exact == regular and (v.is_certified if regular else v.is_unknown)
