import itertools

import numpy as np
import pytest

from cptk import dfa as dfa_module
from cptk import langs
from cptk.dfa import Dfa
from cptk.families import language_classes, regular_family
from cptk.langs import (Complement, DfaAtom, FiniteSet, Inter, LeftMark,
                        LeftQuotient, Predicate, Union, is_finite, regular_view)
from cptk.words import Alphabet


@pytest.fixture(scope="session")
def ab():
    return Alphabet.parse("ab")


@pytest.fixture(scope="session")
def abc():
    return Alphabet.parse("abc")


@pytest.fixture(scope="session")
def reg_ab(ab):
    return regular_family(ab)


@pytest.fixture(scope="session")
def reg_abc(abc):
    return regular_family(abc)


@pytest.fixture
def cold_caches():
    """Empty the automaton caches (views and leaf readings), the window
    row memo and the table-check memo, so that a call-count guard counts
    the same work run alone and in the suite.

    The memos of the regular family's table route (decoded tables,
    accepting sets, row lists per horizon and class indices) live on the
    family object, not in a module: a guard that builds its own family
    starts them cold."""
    langs.regular_view.cache_clear()
    langs.readings.cache_clear()
    langs._row_memo.clear()
    dfa_module._table_fault.cache_clear()


def unmarked_minimize(dfa: Dfa) -> Dfa:
    """Hopcroft's refinement on a fresh copy, which carries no mark of an
    earlier minimization: the reference for :meth:`Dfa.minimize`."""
    return Dfa(dfa.n_symbols, dfa.transitions, dfa.initial, dfa.accepting).minimize()


def canonical_key(dfa: Dfa) -> tuple:
    """The language key tuple that ``Dfa.canonical_key`` built before the
    minimal automaton became the key."""
    m = unmarked_minimize(dfa)
    return (m.n_symbols, m.transitions, tuple(sorted(m.accepting)))


def family_canonical(family, i: int) -> tuple | None:
    """The former ``FamilyEnum.canonical``: the key tuple of index i's
    language, if regular."""
    view = regular_view(family.expr(i), family.alphabet)
    return canonical_key(view) if view is not None else None


def certified_inside(q, region, alphabet) -> bool:
    """The region check of the cohesion scan before the row filter: an
    exact-only copy of ``subset_of(q, region).is_certified``."""
    view = regular_view(Inter((q, Complement(region))), alphabet)
    return view is not None and view.least_accepted() is None


def infinite_evidence(expr, alphabet, horizon: int):
    """The former ``cohesion.infinite_evidence``: whether the language
    counts as infinite for splitting, with its finiteness verdict.  Exact
    verdicts decide; otherwise 32 members below the horizon do."""
    v = is_finite(expr, alphabet, horizon)
    if v.is_infinite:
        return True, v
    if v.is_finite:
        return False, v
    return (v.count or 0) >= 32, v


def complement_pairs(family, index_bound: int, horizon: int) -> list[tuple[int, int]]:
    """Every (i, j) below the bound whose languages are complements, as
    the language classes pair them, in (i, j) order."""
    return sorted((i, j) for members, complements
                  in language_classes(family, index_bound, horizon)
                  for i in members for j in complements)


def brute_words(alphabet: Alphabet, count: int) -> list[str]:
    """Independent word enumeration: lengths ascending, symbols by product."""
    out = []
    length = 0
    while len(out) < count:
        for tup in itertools.product(alphabet.symbols, repeat=length):
            out.append("".join(tup))
            if len(out) == count:
                break
        length += 1
    return out


def random_dfa(rng: np.random.Generator, n_symbols: int, max_states: int = 4) -> Dfa:
    n = int(rng.integers(1, max_states + 1))
    rows = tuple(tuple(int(rng.integers(0, n)) for _ in range(n_symbols))
                 for _ in range(n))
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return Dfa(n_symbols, rows, 0, accepting)


def random_regular_expr(rng: np.random.Generator, alphabet: Alphabet, depth: int = 3):
    """Random expression over regular leaves only."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            count = int(rng.integers(0, 4))
            words = [
                "".join(rng.choice(list(alphabet.symbols), size=int(rng.integers(0, 4))))
                for _ in range(count)
            ]
            return FiniteSet(tuple(words))
        return DfaAtom(random_dfa(rng, alphabet.size))
    roll = rng.random()
    if roll < 0.25:
        return Union(tuple(random_regular_expr(rng, alphabet, depth - 1)
                           for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.5:
        return Inter(tuple(random_regular_expr(rng, alphabet, depth - 1)
                           for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.7:
        return Complement(random_regular_expr(rng, alphabet, depth - 1))
    if roll < 0.85:
        sym = str(rng.choice(list(alphabet.symbols)))
        return LeftMark(sym, random_regular_expr(rng, alphabet, depth - 1))
    word = "".join(rng.choice(list(alphabet.symbols), size=int(rng.integers(1, 3))))
    return LeftQuotient(word, random_regular_expr(rng, alphabet, depth - 1))


def random_mixed_expr(rng: np.random.Generator, alphabet: Alphabet, depth: int = 3):
    """Random expression that may contain opaque predicate leaves."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.3:
            names = ["square-length", "prime-length"]
            if {"a", "b"}.issubset(alphabet.symbols):
                names.append("equal-counts-ab")
            return Predicate(str(rng.choice(names)))
        return random_regular_expr(rng, alphabet, 0)
    roll = rng.random()
    if roll < 0.3:
        return Union(tuple(random_mixed_expr(rng, alphabet, depth - 1)
                           for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.6:
        return Inter(tuple(random_mixed_expr(rng, alphabet, depth - 1)
                           for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.8:
        return Complement(random_mixed_expr(rng, alphabet, depth - 1))
    sym = str(rng.choice(list(alphabet.symbols)))
    return LeftMark(sym, random_mixed_expr(rng, alphabet, depth - 1))


def random_tree(rng, alphabet, depth=4):
    """A random expression with predicate, mark and quotient nodes."""
    if depth == 0 or rng.random() < 0.25:
        return random_mixed_expr(rng, alphabet, 0)

    def sub():
        return random_tree(rng, alphabet, depth - 1)
    roll = rng.random()
    if roll < 0.2:
        return Union(tuple(sub() for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.4:
        return Inter(tuple(sub() for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.55:
        return Complement(sub())
    symbols = list(alphabet.symbols)
    if roll < 0.75:
        return LeftMark(str(rng.choice(symbols)), sub())
    return LeftQuotient("".join(rng.choice(symbols, size=int(rng.integers(1, 3)))), sub())
