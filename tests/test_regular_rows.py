"""The regular family's rows and class index straight from its transition
tables, against the expression route they replace: ``window_rows`` over
``family.expr(i)`` for the rows, and for the classes a class index over
the same generator with no row builder and the state bound found by a
scan over the expressions."""

import pytest

from cptk.dfa import Dfa
from cptk.families import FamilyEnum, regular_family
from cptk.langs import DfaAtom, regular_view, window_rows
from cptk.words import Alphabet

# ranges that start mid-table and cross state-count blocks: over "a" the
# blocks start at 0, 2, 18 and 234, over "ab" at 0, 2 and 66, over "abc"
# at 0, 2 and 258
RANGES = {"a": [(0, 1), (1, 19), (10, 40), (17, 240)],
          "ab": [(0, 90), (60, 70), (65, 66), (1, 300)],
          "abc": [(0, 2), (250, 270), (257, 400)]}


def expr_rows(family, lo, hi, count):
    return window_rows([family.expr(i) for i in range(lo, hi)], family.alphabet, count)


def expr_scan_states(generator):
    """The state bound found by a scan over the generator's expressions:
    the most states of an automaton below the bound (1 below bound 0) when
    every index below it is an automaton atom, else None."""
    def state_bound(index_bound):
        exprs = [generator(i) for i in range(index_bound)]
        if not all(isinstance(e, DfaAtom) for e in exprs):
            return None
        return max((e.dfa.n_states for e in exprs), default=1)
    return state_bound


def expr_route(family):
    """The family's generator, with rows and state bounds found from the
    expressions."""
    return FamilyEnum(family.name, family.alphabet, family.generator, family.exact,
                      family.flags, state_bound=expr_scan_states(family.generator))


@pytest.mark.parametrize("symbols", RANGES)
@pytest.mark.parametrize("count", [0, 1, 9, 301])
def test_table_rows_match_expression_rows(symbols, count):
    family = regular_family(Alphabet.parse(symbols))
    for lo, hi in RANGES[symbols]:
        assert family.row_builder(lo, hi, count) == expr_rows(family, lo, hi, count)


@pytest.mark.parametrize("symbols", RANGES)
def test_cached_rows_extend_across_blocks(symbols):
    """A row list that a larger bound extends, also from mid-table."""
    family = regular_family(Alphabet.parse(symbols))
    oracle = regular_family(family.alphabet)
    for bound in (1, 7, 65, 270, 300):
        assert family.rows(bound, 40) == expr_rows(oracle, 0, bound, 41)


def test_state_bound_matches_expression_scan():
    for symbols, bounds in (("a", [0, 1, 2, 3, 18, 19, 235]),
                            ("ab", [0, 1, 2, 3, 66, 67, 3700])):
        family = regular_family(Alphabet.parse(symbols))
        oracle = expr_route(family)
        assert [family.state_bound(b) for b in bounds] == \
            [oracle.state_bound(b) for b in bounds]


@pytest.mark.parametrize("symbols,bound,horizon,split", [
    ("ab", 3700, 300, False),
    ("ab", 400, 20, True),
    ("abc", 300, 8, True)])
def test_class_index_matches_expression_route(symbols, bound, horizon, split):
    family = regular_family(Alphabet.parse(symbols))
    oracle = expr_route(family)
    got, want = family.classes(bound, horizon), oracle.classes(bound, horizon)
    assert got.split == want.split == split
    assert got.rows == want.rows
    assert got.classes == want.classes
    for row in set(want.rows) | {0, want.full}:
        assert got.leaders(row) == want.leaders(row)
        assert got.leaders_containing(row) == want.leaders_containing(row)
    assert [got.complement(c) for c in got.classes] == \
        [want.complement(c) for c in want.classes]
    views = [regular_view(family.expr(c[0]), family.alphabet) for c in want.classes[::7]]
    views += [v.complement() for v in views]
    # lengths divisible by 5 need five states, more than any index below the bound
    b = family.alphabet.size
    views.append(Dfa(b, tuple(((s + 1) % 5,) * b for s in range(5)), 0, frozenset({0})))
    found = [want.index_of(v) for v in views]
    assert None in found and any(i is not None for i in found)
    assert [got.index_of(v) for v in views] == found
