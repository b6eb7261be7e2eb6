"""The row memo behind :func:`langs.window_rows`, with the unmemoized
evaluator :func:`langs._evaluate` as its oracle: the same rows for any
mix of hits, misses, duplicates and counts, at most
``AUTOMATON_CACHE_SIZE`` entries, least recently used evicted first, and
no kernel pass for a row already known."""

import numpy as np
import pytest

from cptk import kernels, langs
from cptk.classify import ClassificationProblem, load_problem, solve
from cptk.families import list_family, regular_family
from cptk.langs import (FULL, Complement, FiniteSet, LeftMark, Predicate, _evaluate,
                        member, window_rows)
from cptk.words import Alphabet

from .conftest import random_tree

SQ = Predicate("square-length")


def recorded_evaluations(monkeypatch):
    """The expressions ``window_rows`` passes to the evaluator, in order."""
    evaluated = []

    def evaluate(exprs, alphabet, count):
        evaluated.extend(exprs)
        return _evaluate(exprs, alphabet, count)

    monkeypatch.setattr(langs, "_evaluate", evaluate)
    return evaluated


@pytest.mark.parametrize("symbols", ["ab", "abc"])
@pytest.mark.parametrize("bound", [langs.AUTOMATON_CACHE_SIZE, 7])
def test_memoized_rows_match_the_evaluator(symbols, bound, monkeypatch, cold_caches):
    """Random lists from a pool of expressions, with duplicates, at counts
    that repeat and interleave; the small bound is filled past many times."""
    alphabet = Alphabet.parse(symbols)
    monkeypatch.setattr(langs, "AUTOMATON_CACHE_SIZE", bound)
    rng = np.random.default_rng(len(symbols) * 100 + bound)
    pool = [random_tree(rng, alphabet) for _ in range(20)]
    counts = [0, 1, 2, 7, 8, 40, 121]
    for _ in range(150):
        picks = rng.integers(0, len(pool), size=int(rng.integers(1, 7)))
        exprs = [pool[int(k)] for k in picks]
        count = counts[int(rng.integers(0, len(counts)))]
        assert window_rows(exprs, alphabet, count) == _evaluate(exprs, alphabet, count)
        assert len(langs._row_memo) <= bound
    if bound < len(pool):
        assert len(langs._row_memo) == bound


def test_memo_evaluates_each_missing_key_once_and_evicts_the_least_recent(
        ab, monkeypatch, cold_caches):
    monkeypatch.setattr(langs, "AUTOMATON_CACHE_SIZE", 3)
    evaluated = recorded_evaluations(monkeypatch)
    e = [FiniteSet((w,)) for w in ("a", "b", "aa", "ab")]
    assert window_rows(e[:3], ab, 9) == [1 << 1, 1 << 2, 1 << 3]
    assert window_rows([e[0]], ab, 9) == [1 << 1]  # a hit: e[1] is now least recent
    # one miss, asked twice and evaluated once, evicts e[1]
    assert window_rows([e[3], e[0], e[3]], ab, 9) == [1 << 4, 1 << 1, 1 << 4]
    assert evaluated == e
    assert window_rows([e[2], e[0], e[3]], ab, 9) == [1 << 3, 1 << 1, 1 << 4]
    assert evaluated == e
    assert window_rows([e[1]], ab, 9) == [1 << 2]
    assert evaluated == e + [e[1]]
    assert [tuple(key) for key in langs._row_memo] == [(e[0], ab, 9), (e[3], ab, 9),
                                                      (e[1], ab, 9)]
    # the count and the alphabet, symbol order included, are part of the key
    ba = Alphabet.parse("ab", "ba")
    assert window_rows([e[1]], ab, 2) == [0]
    assert window_rows([e[1]], ba, 9) == [1 << 1]
    assert evaluated == e + [e[1]] * 3


def test_a_failed_evaluation_remembers_nothing(ab, cold_caches):
    with pytest.raises(langs.UnknownPredicate):
        window_rows([FULL, Predicate("halting")], ab, 5)
    assert not langs._row_memo
    assert window_rows([FULL], ab, 5) == [0b11111]


def test_member_and_family_rows_bypass_the_memo(ab, cold_caches):
    """Scalar membership and a family's per-horizon lists each evaluate
    past the memo, which their one-word and per-index rows would flood."""
    family = list_family("marked", ab, [LeftMark("a", SQ), LeftMark("b", Complement(SQ))])
    assert family.rows(6, 20) == _evaluate([family.expr(i) for i in range(6)], ab, 21)
    assert member(LeftMark("a", SQ), "abbab", ab) and not member(SQ, "ab", ab)
    assert family.word_e(0, 3)
    assert not langs._row_memo


def test_solve_evaluates_no_component_row_twice(ab, monkeypatch, cold_caches):
    """Loading a problem finds its components' rows; a solve at the same
    horizon reads them from the memo, and a second solve of the same
    problem runs no kernel pass at all."""
    horizon, bound = 60, 300
    family = regular_family(ab)
    family.classes(bound, horizon)
    problem = load_problem([LeftMark("a", Complement(SQ)), LeftMark("b", SQ)], ab, horizon)
    evaluated = recorded_evaluations(monkeypatch)
    passes = []
    state_rows = kernels.state_rows

    def counted(*args, **kwargs):
        passes.append(1)
        return state_rows(*args, **kwargs)

    monkeypatch.setattr(kernels, "state_rows", counted)
    first = solve(problem, family, bound, horizon)
    assert not set(problem.components) & set(evaluated)
    passes.clear()
    assert solve(problem, family, bound, horizon) == first
    assert passes == []
    # a problem of equal components, built anew, hits the same rows
    again = ClassificationProblem(tuple(LeftMark(c.symbol, c.arg) for c in problem.components),
                                  ab)
    assert solve(again, family, bound, horizon) == first
    assert passes == []
