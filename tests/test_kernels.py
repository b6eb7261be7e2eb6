"""Kernels against scalar oracles: the stacked pass over a window and the
int bitset rows built on it, also against the replaced per-word batch
evaluator kept in :mod:`tests.batch_oracle` and the stacking loops that
:func:`cptk.kernels.state_rows` replaced."""

import ast
import pathlib

import numpy as np
import pytest

from cptk import kernels, langs
from cptk.dfa import Dfa
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
    return kernels.window_final_states(np.array(dfa.transitions, dtype=np.int32),
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
    trans = np.concatenate([np.array(d.transitions) + off for d, off in zip(dfas, offsets)])
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
        trans = np.concatenate([np.array(d.transitions) + off
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


# ---------------------------------------------------------------------------
# the one stacked pass against the two stacking loops it replaced


def lowering_stack_rows(dfas, wanted, count):
    """The stacking loop of ``langs._Lowering.run`` before
    ``kernels.state_rows``: stacks of ``STACK_WORDS // count`` automata."""
    out = []
    step = max(1, kernels.STACK_WORDS // max(count, 1))
    for lo in range(0, len(dfas), step):
        stack = dfas[lo:lo + step]
        offsets = np.cumsum([0] + [d.n_states for d in stack])
        trans = np.concatenate([np.array(d.transitions, dtype=np.int64) + off
                                for d, off in zip(stack, offsets)]).astype(np.int32)
        initials = offsets[:-1] + [d.initial for d in stack]
        finals = kernels.window_final_states(trans, initials, count)
        used = [off + s for states, off in zip(wanted[lo:lo + step], offsets.tolist())
                for s in states]
        out += kernels.packed_state_rows(finals, int(offsets[-1]), used)
    return out


def table_stack_rows(n, n_symbols, lo, hi, count):
    """``families._regular_rows`` before ``kernels.state_rows``: stacks of
    ``STACK_WORDS // (n · count)`` tables, decoded a stack at a time."""
    width = n * n_symbols
    first, last = lo >> n, (hi - 1) >> n
    step = max(1, kernels.STACK_WORDS // (n * max(count, 1)))
    out = []
    for rank in range(first, last + 1, step):
        ranks = np.arange(rank, min(rank + step, last + 1), dtype=np.int64)
        digits = np.empty((len(ranks), width), dtype=np.int32)
        for p in range(width - 1, -1, -1):
            ranks, digits[:, p] = np.divmod(ranks, n)
        offsets = np.arange(0, len(digits) * n, n, dtype=np.int32)
        trans = (digits + offsets[:, None]).reshape(-1, n_symbols)
        finals = kernels.window_final_states(trans, offsets, count)
        states = kernels.packed_state_rows(finals, len(trans), np.arange(len(trans)))
        for t in range(0, len(states), n):
            sets = [0]
            for state in reversed(states[t:t + n]):
                sets += [row | state for row in sets]
            out += sets
    skip = lo - (first << n)
    return out[skip:skip + hi - lo]


def random_tables(rng, n_symbols, k):
    """k automata with random initial states, and a random set of wanted
    states for each (some empty, some all states)."""
    dfas, wanted = [], []
    for _ in range(k):
        n = int(rng.integers(1, 7))
        rows = tuple(tuple(int(rng.integers(0, n)) for _ in range(n_symbols))
                     for _ in range(n))
        dfas.append(Dfa(n_symbols, rows, int(rng.integers(0, n)), frozenset()))
        wanted.append([s for s in range(n) if rng.random() < 0.6])
    return dfas, wanted


def state_rows_of(dfas, wanted, count):
    return kernels.state_rows([row for d in dfas for row in d.transitions],
                              [d.n_states for d in dfas], [d.initial for d in dfas],
                              wanted, count)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 301, 2001])
def test_state_rows_match_the_lowering_loop(symbols, count, monkeypatch):
    rng = np.random.default_rng(count + len(symbols))
    dfas, wanted = random_tables(rng, len(symbols), 40)
    assert state_rows_of(dfas, wanted, count) == lowering_stack_rows(dfas, wanted, count)
    assert state_rows_of([], [], count) == []
    # small stacks: one automaton per stack from 16 words on
    monkeypatch.setattr(kernels, "STACK_WORDS", 16)
    assert state_rows_of(dfas, wanted, count) == lowering_stack_rows(dfas, wanted, count)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
@pytest.mark.parametrize("k", [0, 1, 4, 100])
def test_state_rows_read_row_lists_as_arrays(symbols, k):
    """Transition rows given as a list of tuples (read in one flat pass)
    and as an int32 or int64 array give the same rows."""
    rng = np.random.default_rng(k + len(symbols))
    dfas, wanted = random_tables(rng, len(symbols), k)
    rows = [row for d in dfas for row in d.transitions]
    args = ([d.n_states for d in dfas], [d.initial for d in dfas], wanted, 301)
    want = kernels.state_rows(rows, *args)
    for dtype in (np.int32, np.int64):
        array = np.array(rows, dtype=dtype).reshape(len(rows), len(symbols))
        assert kernels.state_rows(array, *args) == want
    assert want == lowering_stack_rows(dfas, wanted, 301)


def test_state_rows_bound_wanted_states_per_stack(monkeypatch):
    """A stack holds at most STACK_WORDS // words wanted states, unless one
    automaton alone wants more."""
    dfas, wanted = random_tables(np.random.default_rng(5), 2, 30)
    monkeypatch.setattr(kernels, "STACK_WORDS", 40)
    want = lowering_stack_rows(dfas, wanted, 9)
    stacks = []
    real = kernels.window_final_states

    def recording(trans, initials, count):
        stacks.append(len(initials))
        return real(trans, initials, count)

    monkeypatch.setattr(kernels, "window_final_states", recording)
    assert state_rows_of(dfas, wanted, 9) == want
    lo = 0
    for k in stacks:
        n_wanted = sum(map(len, wanted[lo:lo + k]))
        assert k * 9 <= 40 and (n_wanted * 9 <= 40 or k == 1)
        if lo + k < len(dfas):  # the next automaton would break a bound
            assert (k + 1) * 9 > 40 or (n_wanted + len(wanted[lo + k])) * 9 > 40
        lo += k
    assert lo == len(dfas)
    assert min(stacks[:-1]) < 40 // 9  # some stack was cut by its wanted states


# over "a" the state-count blocks start at 0, 2, 18 and 234, over "ab" at
# 0, 2 and 66, over "abc" at 0, 2 and 258; each range starts mid-table
TABLE_RANGES = {"a": [(0, 240), (17, 19), (3, 233)],
                "ab": [(0, 3700), (65, 67), (1, 300), (1001, 1013)],
                "abc": [(0, 300), (257, 500), (250, 270)]}


@pytest.mark.parametrize("symbols", TABLE_RANGES)
@pytest.mark.parametrize("count", [0, 1, 9, 200])
@pytest.mark.parametrize("stack_words", [16, kernels.STACK_WORDS])
def test_regular_rows_match_the_table_loop(symbols, count, stack_words, monkeypatch):
    monkeypatch.setattr(kernels, "STACK_WORDS", stack_words)
    family = regular_family(Alphabet.parse(symbols))
    b = len(symbols)
    starts = [0]  # starts[n - 1]: the first index of the n-state block
    for n in range(1, 5):
        starts.append(starts[-1] + n ** (n * b) * 2 ** n)
    for lo, hi in TABLE_RANGES[symbols]:
        want, i = [], lo
        while i < hi:
            n = next(m for m in range(1, 5) if i < starts[m])
            end = min(hi, starts[n])
            want += table_stack_rows(n, b, i - starts[n - 1], end - starts[n - 1], count)
            i = end
        assert family.row_builder(lo, hi, count) == want


def test_numpy_only_in_kernels():
    """``cptk.kernels`` is the one module of the package that imports numpy."""
    importers = []
    for path in sorted(pathlib.Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.append(path.name)
    assert importers == ["kernels.py"]
