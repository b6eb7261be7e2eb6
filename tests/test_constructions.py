import pytest

from cptk.classify import ProblemPrecondition, refines, set_of, solve
from cptk.constructions import MarkedComponent, example_26, ziegler_problem
from cptk.langs import (EMPTY, FULL, Complement, LeftMark, Predicate, Union,
                        equivalent, regular_view, window_rows)
from cptk.classify import ClassificationProblem
from cptk.words import words_up_to

from .scalar_oracle import member


def test_marked_component_expr(ab):
    sq = Predicate("square-length")
    comp = MarkedComponent("a", "b", sq)
    for w in ["", "a", "b", "aa", "ba", "abb"]:
        expect = (w.startswith("a") and member(sq, w[1:], ab)) or \
                 (w.startswith("b") and not member(sq, w[1:], ab))
        assert member(comp.expr, w, ab) == expect
    with pytest.raises(ValueError):
        MarkedComponent("a", "a", sq)


def test_ziegler_full_base(abc):
    prob = ziegler_problem(FULL, abc)
    # full base: components degrade to the plain marker languages
    for comp, marker in zip(prob.components, "abc"):
        assert equivalent(comp, LeftMark(marker, FULL), abc).is_certified


def test_ziegler_empty_base_rejected(abc):
    # empty base makes each component a single marker class again (shifted),
    # still infinite, so it loads; the singleton base is the degenerate one
    prob = ziegler_problem(EMPTY, abc)
    for comp, marker in zip(prob.components, "bca"):
        assert equivalent(comp, LeftMark(marker, FULL), abc).is_certified


def test_ziegler_singleton_base(abc):
    prob = ziegler_problem(Predicate("square-length"), abc)
    words = list(words_up_to(abc, 121))  # all words of length <= 4
    base = Predicate("square-length")
    rows = window_rows(prob.components, abc, len(words))
    for row, (x, y) in zip(rows, [("a", "b"), ("b", "c"), ("c", "a")]):
        for i, w in enumerate(words):
            expect = (w.startswith(x) and member(base, w[1:], abc)) or \
                     (w.startswith(y) and not member(base, w[1:], abc))
            assert bool(row >> i & 1) == expect


def test_ziegler_disjointness_exact_and_union_is_nonempty_words(abc):
    prob = ziegler_problem(Predicate("square-length"), abc)
    assert all(v.exact for _, _, v in prob.check.disjointness)
    v = equivalent(set_of(prob), Complement(Complement(Union(
        (LeftMark("a", FULL), LeftMark("b", FULL), LeftMark("c", FULL))))), abc)
    assert v.is_certified


def test_ziegler_marker_inclusion_chain(abc):
    base = Predicate("square-length")
    prob = ziegler_problem(base, abc)
    # b-marked split of the base refines into the first two components
    sub = ClassificationProblem((LeftMark("b", Complement(base)),
                                 LeftMark("b", base)), abc)
    sigma = refines(sub, prob)
    assert sigma == (0, 1)


def test_ziegler_wrong_alphabet(ab):
    with pytest.raises(ValueError):
        ziegler_problem(FULL, ab)


def test_example26_degenerate_full_base(ab):
    with pytest.raises(ProblemPrecondition):
        example_26(FULL, ab)  # first component becomes empty


def test_example26_square_base(ab, reg_ab):
    cond = example_26(Predicate("square-length"), ab)
    res = solve(cond.problem, reg_ab, index_bound=3700, horizon=300)
    from cptk.classify import PartitionCertificate
    assert isinstance(res, PartitionCertificate)
    bXs = regular_view(LeftMark("b", FULL), ab)
    aligned = [res.blocks[res.injection[0]], res.blocks[res.injection[1]]]
    assert regular_view(aligned[0], ab) == bXs.complement()
    assert regular_view(aligned[1], ab) == bXs


def test_example26_wrong_alphabet():
    from cptk.words import Alphabet
    with pytest.raises(ValueError):
        example_26(FULL, Alphabet.parse("xy"))
