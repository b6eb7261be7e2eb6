import functools
import operator

import numpy as np
import pytest

from cptk import dfa as dfa_module
from cptk.dfa import Dfa, dfa_for_finite, dfa_length_equals
from cptk.families import length_family
from cptk.langs import DfaAtom, is_finite, window_rows
from cptk.words import lex, words_up_to

from .conftest import random_dfa, unmarked_minimize
from .simplify_oracle import dfa_word_starts_with


def brute_accepted(dfa, alphabet, count):
    return {w for w in words_up_to(alphabet, count) if dfa.accepts(alphabet, w)}


def rows_of(dfas, alphabet, count):
    """The window rows of automata over lex(0..count-1)."""
    return window_rows([DfaAtom(d) for d in dfas], alphabet, count)


def test_totality_enforced():
    with pytest.raises(ValueError):
        Dfa(2, ((0,),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0, 5),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, ((0, 0),), 3, frozenset())


def reference_fault(n_symbols, transitions, initial, accepting):
    """The checks of ``Dfa.__post_init__`` as it ran them on every
    construction, before it remembered tables: the message of the first
    fault, or None."""
    n = len(transitions)
    if not (0 <= initial < n):
        return "initial state out of range"
    for row in transitions:
        if len(row) != n_symbols:
            return "transition row width must equal alphabet size"
        if any(not 0 <= t < n for t in row):
            return "transition target out of range"
    if any(not 0 <= s < n for s in accepting):
        return "accepting state out of range"
    return None


def construction_fault(n_symbols, transitions, initial, accepting):
    try:
        Dfa(n_symbols, transitions, initial, accepting)
    except ValueError as exc:
        return str(exc)
    return None


INITIAL = "initial state out of range"
WIDTH = "transition row width must equal alphabet size"
TARGET = "transition target out of range"
ACCEPTING = "accepting state out of range"


@pytest.mark.parametrize("args,message", [
    ((2, ((0, 0),), 1, frozenset()), INITIAL),
    ((2, ((0, 0),), -1, frozenset()), INITIAL),
    ((2, ((0,),), 0, frozenset()), WIDTH),
    ((2, ((0, 0, 0),), 0, frozenset()), WIDTH),
    ((2, ((0, 5),), 0, frozenset()), TARGET),
    ((2, ((0, -1),), 0, frozenset()), TARGET),
    ((2, ((0, 0),), 0, frozenset({1})), ACCEPTING),
    ((2, ((0, 0),), 0, frozenset({-1})), ACCEPTING),
    # two faults: the first check in order wins
    ((2, ((0,),), 3, frozenset()), INITIAL),
    ((2, ((0, 0),), 1, frozenset({4})), INITIAL),
    ((2, ((0, 5), (0,)), 0, frozenset()), TARGET),    # row 0 before row 1
    ((2, ((0, 0), (0, 5, 1)), 0, frozenset()), WIDTH),  # width before targets
    ((2, ((0,), (0, 5)), 0, frozenset()), WIDTH),
    ((2, ((0, 5),), 0, frozenset({3})), TARGET),      # table before accepting
    ((2, ((0, 0, 0),), 0, frozenset({3})), WIDTH)])
def test_validation_messages_and_order(args, message):
    assert reference_fault(*args) == message
    # a remembered table raises on every construction
    for _ in range(3):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dfa(*args)


def test_remembered_table_still_checks_initial_and_accepting():
    rows = ((1, 0), (1, 1))
    assert Dfa(2, rows, 0, frozenset({1})).n_states == 2
    with pytest.raises(ValueError, match=f"^{INITIAL}$"):
        Dfa(2, rows, 2, frozenset({1}))
    with pytest.raises(ValueError, match=f"^{ACCEPTING}$"):
        Dfa(2, rows, 0, frozenset({2}))
    assert Dfa(2, rows, 1, frozenset()).initial == 1


def test_validation_matches_reference_on_random_tables():
    """Random tables, some with a fault or two, each constructed twice."""
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(3000):
        b = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        rows = []
        for _ in range(n):
            width = b if rng.random() < 0.9 else int(rng.integers(0, b + 2))
            rows.append(tuple(int(rng.integers(-1, n + 1)) if rng.random() < 0.05
                              else int(rng.integers(0, n)) for _ in range(width)))
        rows = tuple(rows)
        initial = int(rng.integers(-1, n + 1)) if rng.random() < 0.1 else 0
        accepting = frozenset(int(rng.integers(-1, n + 2)) if rng.random() < 0.1
                              else s for s in range(n) if rng.random() < 0.5)
        want = reference_fault(b, rows, initial, accepting)
        seen.add(want)
        for _ in range(2):
            assert construction_fault(b, rows, initial, accepting) == want
    assert seen == {None, INITIAL, WIDTH, TARGET, ACCEPTING}


def test_list_valued_transitions_still_construct():
    """A table of lists cannot key the memo; it is checked unremembered."""
    d = Dfa(2, [[1, 0], [1, 1]], 0, frozenset({1}))
    assert d.accepts_codes([1, 0]) and not d.accepts_codes([1])
    assert construction_fault(2, [[0, 5]], 0, frozenset()) == TARGET
    assert construction_fault(2, ([0], [0, 0]), 0, frozenset()) == WIDTH
    assert construction_fault(2, [(0, 0)], 0, frozenset({1})) == ACCEPTING


def test_list_valued_tables_are_stored_as_tuples(ab):
    """An automaton built from lists hashes as the one built from tuples,
    so that it keys the window row memo and the stacked pass's tables."""
    d = Dfa(2, [[0, 0]], 0, frozenset({0}))
    assert d.transitions == ((0, 0),) and type(d.transitions[0]) is tuple
    assert hash(d) == hash(Dfa(2, ((0, 0),), 0, frozenset({0})))
    assert window_rows([DfaAtom(d)], ab, 5) == [0b11111]
    e = Dfa(2, ([1, 0], (1, 1)), 0, [1, 1])
    assert e == Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    assert type(e.accepting) is frozenset and hash(e) == hash(DfaAtom(e).dfa)
    assert window_rows([DfaAtom(e)], ab, 7) == [0b0111010]  # the words with an a


def test_table_checked_once_per_distinct_table(monkeypatch, cold_caches):
    checked = []
    check = dfa_module._table_fault.__wrapped__

    def counted(n_symbols, transitions):
        checked.append(transitions)
        return check(n_symbols, transitions)

    monkeypatch.setattr(dfa_module, "_table_fault",
                        functools.lru_cache(dfa_module.TABLE_CHECKS)(counted))
    rows = ((1, 0), (1, 1))
    for acc in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
        Dfa(2, rows, 0, acc).complement()
    assert checked == [rows]
    for _ in range(2):
        with pytest.raises(ValueError):
            Dfa(2, ((0, 2),), 0, frozenset())
    assert checked == [rows, ((0, 2),)]


def test_product_and_complement_agree_with_membership(ab):
    rng = np.random.default_rng(5)
    full = (1 << 400) - 1
    for _ in range(40):
        d1, d2 = random_dfa(rng, 2), random_dfa(rng, 2)
        v1, v2, vu, vi, vc = rows_of((d1, d2, d1.product(d2, operator.or_),
                                      d1.product(d2, operator.and_), d1.complement()),
                                     ab, 400)
        assert vu == v1 | v2
        assert vi == v1 & v2
        assert vc == full & ~v1


def test_left_mark_and_quotient(ab):
    rng = np.random.default_rng(9)
    words = list(words_up_to(ab, 300))
    for _ in range(20):
        d = random_dfa(rng, 2)
        marked = d.left_mark(0)  # prepend "a"
        for w in words:
            expect = w.startswith("a") and d.accepts(ab, w[1:])
            assert marked.accepts(ab, w) == expect
        quo = d.left_quotient(ab.codes("ba"))
        for w in words[:60]:
            assert quo.accepts(ab, w) == d.accepts(ab, "ba" + w)


def test_minimize_gives_canonical_equality(ab):
    # two structurally different automata for words containing at least one a
    d1 = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    d2 = Dfa(2, ((2, 0), (1, 1), (2, 2)), 0, frozenset({1, 2}))  # state 1 unreachable
    assert d1.minimize() == d2.minimize()
    assert d1.minimize() != d1.complement().minimize()


def two_pass_minimize(dfa):
    """``Dfa.minimize`` as it was: a breadth-first copy of the reachable
    states (the deleted ``Dfa.reachable``), then Hopcroft's refinement and
    renumbering on that copy."""
    b = dfa.n_symbols
    seen = {dfa.initial: 0}
    order = [dfa.initial]
    for s in order:
        for t in dfa.transitions[s]:
            if t not in seen:
                seen[t] = len(order)
                order.append(t)
    m = Dfa(b, tuple(tuple(seen[t] for t in dfa.transitions[s]) for s in order), 0,
            frozenset(seen[s] for s in dfa.accepting if s in seen))
    block = m._coarsest_congruence()
    rep_trans = [None] * (max(block) + 1)
    for s in range(m.n_states):
        if rep_trans[block[s]] is None:
            rep_trans[block[s]] = tuple(block[m.transitions[s][x]] for x in range(b))
    renum = {block[m.initial]: 0}
    order = [block[m.initial]]
    for bk in order:
        for t in rep_trans[bk]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
    rows = tuple(tuple(renum[t] for t in rep_trans[bk]) for bk in order)
    return Dfa(b, rows, 0, frozenset(renum[block[s]] for s in m.accepting))


def test_one_pass_minimize_matches_two_pass():
    """Hopcroft over all states, unreachable ones included, then numbering
    from the initial block gives the automaton that refining the reachable
    copy gave.  A random initial state leaves many states unreachable."""
    rng = np.random.default_rng(23)
    unreachable = 0
    for _ in range(4000):
        b, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        rows = tuple(tuple(int(rng.integers(0, n)) for _ in range(b)) for _ in range(n))
        d = Dfa(b, rows, int(rng.integers(0, n)),
                frozenset(s for s in range(n) if rng.random() < 0.5))
        want = two_pass_minimize(d)
        assert d.minimize() == want
        assert unmarked_minimize(d) == want
        # a state neither initial nor any transition's target is unreachable
        unreachable += len({d.initial} | {t for row in rows for t in row}) < n
    assert unreachable > 500


def test_minimize_idempotent(ab):
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = random_dfa(rng, 2).minimize()
        assert m.minimize() is m
        assert unmarked_minimize(m) == m


def test_three_state_language_minimal(ab):
    # words starting with a: needs initial, accept-sink, dead
    start_a = dfa_word_starts_with(2, 0).minimize()
    assert start_a.n_states == 3


def test_count_accepted_matches_brute_force(ab):
    rng = np.random.default_rng(12)
    for _ in range(60):
        d = random_dfa(rng, 2)
        count = d.count_accepted()
        # all words up to length 10
        seen = rows_of([d], ab, 2 ** 11 - 1)[0].bit_count()
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
    assert Dfa(2, ((0, 0),), 0, frozenset()).count_accepted() == 0
    assert Dfa(2, ((0, 0),), 0, frozenset({0})).count_accepted() is None


def test_least_accepted(ab):
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = random_dfa(rng, 2)
        least = d.least_accepted()
        row = rows_of([d], ab, 500)[0]
        if least is None:
            assert not row
        else:
            assert row
            assert ab.word(least) == lex(ab, (row & -row).bit_length() - 1)


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

