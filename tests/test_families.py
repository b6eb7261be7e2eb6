import functools
import operator

import numpy as np
import pytest

from cptk import dfa as dfa_module
from cptk import families
from cptk.classify import load_problem, solve
from cptk.codec import seq_code, seq_decode
from cptk.dfa import Dfa
from cptk.families import (LAW_IDS, FamilyEnum, canonical_index, check_law, close_b,
                           close_cc, close_co, close_s, close_u, dc_member,
                           family_from_json, finite_family, length_family,
                           list_family, regular_family, regular_index_encode)
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, LeftMark,
                        Predicate, _evaluate, is_finite, regular_view, window_rows)
from cptk.words import Alphabet, AlphabetMismatch, lex, ord_

from .batch_oracle import batch_row
from .conftest import complement_pairs, family_canonical
from .scalar_oracle import regular_index_decode


def row_of(expr, alphabet, count):
    return window_rows([expr], alphabet, count)[0]


def test_regular_enumeration_trivia(reg_ab, ab):
    # the one-state block: index 0 is empty, index 1 is everything
    assert row_of(reg_ab.expr(0), ab, 50) == 0
    assert row_of(reg_ab.expr(1), ab, 50) == (1 << 50) - 1


def test_regular_index_roundtrip(ab):
    for i in list(range(300)) + [5897, 5898, 123456]:
        dfa = regular_index_decode(i, 2)
        assert regular_index_encode(dfa) == i


def test_canonical_index_decodes_to_same_language(ab):
    rng = np.random.default_rng(6)
    from .conftest import random_dfa
    for _ in range(60):
        d = random_dfa(rng, 2)
        i = canonical_index(d)
        assert regular_index_decode(i, 2).minimize() == d.minimize()


def test_first_indices_pairwise_consistent(reg_ab, ab):
    """Canonical-automaton equality must coincide with window agreement."""
    keys = [family_canonical(reg_ab, i) for i in range(100)]
    rows = reg_ab.rows(100, 300)
    for i in range(100):
        for j in range(i + 1, 100):
            if keys[i] == keys[j]:
                assert rows[i] == rows[j]
            # 300 words are enough to separate every automaton this small
            elif rows[i] == rows[j]:
                pytest.fail(f"indices {i},{j} agree on the window but differ canonically")


def test_regular_family_semantically_closed_under_union(reg_ab, ab):
    rng = np.random.default_rng(7)
    for _ in range(20):
        i, j = int(rng.integers(0, 300)), int(rng.integers(0, 300))
        di = regular_view(reg_ab.expr(i), ab)
        dj = regular_view(reg_ab.expr(j), ab)
        union = di.product(dj, operator.or_)
        k = canonical_index(union)
        assert k < 10 ** 6
        assert regular_index_decode(k, 2).minimize() == union.minimize()


def test_word_e(reg_ab, ab):
    assert reg_ab.word_e(1, 0) is True
    assert reg_ab.word_e(0, 0) is False
    lf = length_family(ab)
    assert lf.word_e(2, ord_(ab, "ab")) is True
    assert lf.word_e(2, ord_(ab, "abb")) is False


def test_word_e_total(ab):
    fams = [regular_family(ab), length_family(ab), finite_family(ab)]
    rng = np.random.default_rng(8)
    for fam in fams:
        for _ in range(60):
            i = int(rng.integers(0, 10 ** 4))
            j = int(rng.integers(0, 10 ** 4))
            assert fam.word_e(i, j) in (True, False)


def test_closures_preserve_totality(reg_ab, ab):
    rng = np.random.default_rng(9)
    closures = [close_u(reg_ab), close_s(reg_ab), close_co(reg_ab),
                close_cc(reg_ab), close_b(reg_ab)]
    for fam in closures:
        for _ in range(25):
            i = int(rng.integers(0, 10 ** 4))
            j = int(rng.integers(0, 2000))
            assert fam.word_e(i, j) in (True, False)


def test_close_u_singleton_identity(reg_ab, ab):
    fu = close_u(reg_ab)
    for i in [0, 1, 17, 100]:
        code = seq_code([i])
        got, want = window_rows([fu.expr(code), reg_ab.expr(i)], ab, 300)
        assert got == want


def test_close_cc_even_odd(reg_ab, ab):
    cc = close_cc(reg_ab)
    for i in [0, 3, 42, 77]:
        even, odd, base = window_rows([cc.expr(2 * i), cc.expr(2 * i + 1),
                                       reg_ab.expr(i)], ab, 500)
        assert even == base
        assert odd == ((1 << 500) - 1) & ~base


def test_co_involution_membership(reg_ab, ab):
    coco = close_co(close_co(reg_ab))
    for i in range(0, 120, 7):
        got, want = window_rows([coco.expr(i), reg_ab.expr(i)], ab, 501)
        assert got == want


def test_dc_members_regular(reg_ab, ab):
    pairs = complement_pairs(reg_ab, 66, horizon=300)
    assert all(dc_member(reg_ab, i, j, 300).status == "exact" for i, j in pairs)
    assert (1, 0) in pairs  # everything = complement of empty
    for i, j in pairs[:40]:
        vi = regular_view(reg_ab.expr(i), ab)
        vj = regular_view(reg_ab.expr(j), ab)
        assert vi == vj.complement()


def test_dc_members_length_family_empty(ab):
    assert complement_pairs(length_family(ab), 40, horizon=200) == []


def test_dc_members_finite_family_empty(ab):
    assert complement_pairs(finite_family(ab), 60, horizon=200) == []


def test_dc_members_of_cc_nonempty(reg_ab, ab):
    cc = close_cc(reg_ab)
    pairs = complement_pairs(cc, 8, horizon=300)
    assert pairs  # each language sits next to its complement by construction
    assert set(pairs) >= {(0, 1), (1, 0)}


def test_dc_members_opaque_horizon(ab):
    sq = Predicate("square-length")
    fam = list_family("u", ab, [sq, Complement(sq), LeftMark("a", FULL)])
    pairs = complement_pairs(fam, 3, horizon=300)
    assert set(pairs) == {(0, 1), (1, 0)}
    assert all(dc_member(fam, i, j, 300).status == "horizon" for i, j in pairs)


def test_finite_family_all_finite(ab):
    fam = finite_family(ab)
    for i in range(0, 200, 13):
        v = is_finite(fam.expr(i), ab)
        assert v.is_finite and v.exact


def lex_finite_gen(alphabet, i):
    """The finite family's generator before it kept a word list: one
    :func:`lex` per decoded rank."""
    if i == 0:
        return EMPTY
    return FiniteSet(tuple(lex(alphabet, r) for r in seq_decode(i - 1)))


@pytest.mark.parametrize("symbols,order", [("a", None), ("ab", None), ("ab", "ba"),
                                           ("abc", "cab")])
def test_finite_family_matches_lex_decoding(symbols, order):
    alphabet = Alphabet.parse(symbols, order)
    want = [lex_finite_gen(alphabet, i) for i in range(2000)]
    assert [finite_family(alphabet).expr(i) for i in range(2000)] == want
    # decoded out of order, the word list grows in jumps and is reused
    fam = finite_family(alphabet)
    for i in (1999, 0, 5, 1500, 1998, 7, 1000):
        assert fam.expr(i) == want[i]


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("count", [0, 1, 7, 301, 600])
def test_finite_rows_match_expression_rows(symbols, count):
    """The rank-built rows against ``window_rows`` over the expressions,
    for ranges that start at 0 and past it."""
    alphabet = Alphabet.parse(symbols)
    family = finite_family(alphabet)
    for lo, hi in ((0, 40), (1, 2), (37, 300), (299, 600)):
        want = window_rows([family.expr(i) for i in range(lo, hi)], alphabet, count)
        assert family.row_builder(lo, hi, count) == want


def test_finite_rows_build_no_expression(ab, monkeypatch):
    family = finite_family(ab)
    monkeypatch.setattr(family, "generator", lambda i: pytest.fail(f"expr({i}) built"))
    rows = family.rows(600, 599)
    assert len(rows) == 600 and family._exprs == {}
    assert rows == window_rows([lex_finite_gen(ab, i) for i in range(600)], ab, 600)


def decoded_rank_rows(lo, hi, count):
    """The finite family's row builder before it shared tuple rows: one
    :func:`seq_decode` per index."""
    return [sum({1 << r for r in seq_decode(i - 1) if r < count}) if i else 0
            for i in range(lo, hi)]


@pytest.mark.parametrize("count", [0, 40, 300, 600, 2000])
def test_finite_rows_match_decoded_rank_rows(ab, count):
    """The rows OR'ed along shared tuple tails against one decoding per
    index, for ranges that start at 0 and past it, deep tuples included."""
    family = finite_family(ab)
    for lo, hi in ((0, 600), (1, 2), (250, 700), (1999, 2300), (5, 5), (10 ** 6, 10 ** 6 + 40)):
        assert family.row_builder(lo, hi, count) == decoded_rank_rows(lo, hi, count)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 301, 2000])
def test_length_rows_match_automaton_rows(symbols, count):
    """The closed-form rows against the rows of the length automata, for
    ranges that start at 0 and past it, across and beyond the window."""
    alphabet = Alphabet.parse(symbols)
    family = length_family(alphabet)
    for lo, hi in ((0, 12), (1, 2), (3, 9), (6, 40), (4, 4), (1995, 2003)):
        want = _evaluate([family.expr(i) for i in range(lo, hi)], alphabet, count)
        assert family.row_builder(lo, hi, count) == want


def test_length_rows_build_no_automaton(ab, monkeypatch):
    family = length_family(ab)
    monkeypatch.setattr(families, "dfa_length_equals",
                        lambda *args: pytest.fail(f"automaton {args} built"))
    rows = family.rows(3000, 300)
    assert len(rows) == 3000 and family._exprs == {}
    # lex(0..300) holds the words of lengths 0..7 and the first 46 of length 8
    assert [r.bit_length() for r in rows[:10]] == [1, 3, 7, 15, 31, 63, 127, 255, 301, 0]
    assert not any(rows[9:])


def test_length_family_exact(ab):
    fam = length_family(ab)
    for i in range(6):
        v = is_finite(fam.expr(i), ab)
        assert v.is_finite and v.count == 2 ** i


@pytest.mark.parametrize("law", LAW_IDS)
def test_laws_hold_on_regular_family(reg_ab, law):
    report = check_law(law, reg_ab, index_samples=25, horizon=200, seed=1)
    assert report["disagreements"] == 0
    assert report["first_counterexample"] is None


@pytest.mark.parametrize("seed", [1, 2])
def test_law_reports_kept_across_the_sampler_change(reg_ab, seed):
    """The reports the numpy sampler gave at these seeds: counts only, since
    a sample shows only as a counterexample."""
    for law in LAW_IDS:
        samples = 5 if law == "nontriviality-preservation" else 12
        assert check_law(law, reg_ab, 12, 40, seed) == {
            "law": law, "samples": 12, "horizon": 40, "agreements": samples,
            "disagreements": 0, "first_counterexample": None}


def test_check_law_rejects_negative_seed(reg_ab):
    """``random.Random(-1)`` would silently draw seed 1's stream."""
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        check_law("deMorgan", reg_ab, 5, 100, -1)


def test_check_law_rejects_unknown(reg_ab):
    with pytest.raises(ValueError):
        check_law("associativity", reg_ab, 5, 100)


@pytest.mark.parametrize("horizon", [-1, -3])
def test_check_law_rejects_negative_horizon(reg_ab, horizon):
    """A law checked over an empty window would report agreements from no
    word at all."""
    with pytest.raises(ValueError, match=f"horizon must be at least 0, got {horizon}"):
        check_law("deMorgan", reg_ab, 5, horizon, 0)


def test_family_from_json(ab):
    fam = family_from_json({"alphabet": "ab", "builtin": "regular"})
    assert fam.exact and fam.flags.nontrivial
    fam = family_from_json({"alphabet": "ab", "builtin": "length", "closure": ["cc"]})
    assert fam.name == "cc(length)"
    expr = {"op": "leftmark", "symbol": "a", "arg": {"predicate": "square-length"}}
    fam = family_from_json({"alphabet": "ab", "list": [expr],
                            "flags": {"nontrivial": True}})
    assert not fam.exact and fam.flags.nontrivial
    with pytest.raises(ValueError):
        family_from_json({"alphabet": "ab", "builtin": "contextfree"})
    with pytest.raises(ValueError):
        family_from_json({"alphabet": "ab"})
    # the predicate stops automaton conversion before it reaches the word
    hidden = {"op": "union", "args": [{"predicate": "square-length"}, {"finite": ["ac"]}]}
    with pytest.raises(AlphabetMismatch):
        family_from_json({"alphabet": "ab", "list": [hidden]})


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_regular_family_decodes_as_reference(symbols, order):
    """The table-at-a-time decode against ``regular_index_decode`` over the
    first 6000 indices (block starts 2, 66 and 5898 over ``ab``), in an
    order that the shared-table memo does not choose."""
    alphabet = Alphabet.parse(symbols)
    indices = list(range(6000))
    if order == "descending":
        indices.reverse()
    elif order == "shuffled":
        np.random.default_rng(13).shuffle(indices)
    gen = regular_family(alphabet).generator
    for i in indices:
        assert gen(i).dfa == regular_index_decode(i, alphabet.size), i


def test_regular_family_block_starts_and_shared_tables(ab):
    gen = regular_family(ab).generator
    assert gen(0).dfa == regular_index_decode(0, 2) == Dfa(2, ((0, 0),), 0, frozenset())
    states = {i: gen(i).dfa.n_states for i in (0, 1, 2, 65, 66, 5897, 5898)}
    assert states == {0: 1, 1: 1, 2: 2, 65: 2, 66: 3, 5897: 3, 5898: 4}
    # the 2^n indices of one table share its rows tuple
    assert gen(66).dfa.transitions is gen(73).dfa.transitions
    assert gen(66).dfa.transitions != gen(74).dfa.transitions
    with pytest.raises(ValueError):
        gen(-1)
    with pytest.raises(ValueError):
        regular_index_decode(-1, 2)
    with pytest.raises(ValueError):
        regular_family(ab).expr(-1)


def test_regular_classes_decode_and_check_each_table_once(ab, monkeypatch, cold_caches):
    """Building the README class index decodes no table into an automaton
    and constructs no ``Dfa`` (3700, one per index, before the rows came
    straight from the 472 tables); the README solve still finds its exact
    certificate."""
    decoded, checked, built = [], [], []
    decode = families._regular_table
    check = dfa_module._table_fault.__wrapped__
    post_init = Dfa.__post_init__

    def counted_decode(*args):
        decoded.append(args)
        return decode(*args)

    def counted_check(n_symbols, transitions):
        checked.append(transitions)
        return check(n_symbols, transitions)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(families, "_regular_table", counted_decode)
    monkeypatch.setattr(dfa_module, "_table_fault",
                        functools.lru_cache(dfa_module.TABLE_CHECKS)(counted_check))
    monkeypatch.setattr(Dfa, "__post_init__", counted_post_init)
    fam = regular_family(ab)
    index = fam.classes(3700, 300)
    assert len(index.classes) == 914 and not index.split
    assert (len(decoded), len(checked), len(built)) == (0, 0, 0)
    readme = load_problem([LeftMark("a", Complement(Predicate("square-length"))),
                           LeftMark("b", Predicate("square-length"))], ab)
    cert = solve(readme, fam, 3700, 300)
    assert cert.indices == (3664, 3659) and cert.status == "exact"


def test_list_family_periodic(ab):
    fam = list_family("two", ab, [FULL, Complement(FULL)])
    assert row_of(fam.expr(0), ab, 50) == (1 << 50) - 1
    assert row_of(fam.expr(4), ab, 50) == (1 << 50) - 1
    assert row_of(fam.expr(3), ab, 50) == 0


def test_rows_match_member_batch(ab):
    """Stacked rows of the regular and length families against the replaced
    member_batch row by row, including a list extended by a larger bound."""
    for fam in (regular_family(ab), length_family(ab), close_cc(length_family(ab))):
        short = fam.rows(30, 40)
        rows = fam.rows(90, 40)
        assert rows[:30] == short
        assert rows == [batch_row(fam.expr(i), ab, 41) for i in range(90)]


def test_failed_rows_fetch_caches_nothing(ab):
    """A fetch that raises leaves the horizon's row list empty, and a later
    fetch below the faulty index fills it."""
    reg = regular_family(ab)
    wrong = DfaAtom(Dfa(3, ((0, 0, 0),), 0, frozenset({0})))
    fam = FamilyEnum("mixed", ab, lambda i: wrong if i == 19 else reg.expr(i),
                     exact=False)
    with pytest.raises(AlphabetMismatch):
        fam.rows(20, 30)
    assert fam._rows[30] == []
    assert fam.rows(19, 30) == reg.rows(19, 30)
