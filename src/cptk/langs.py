"""Symbolic language expressions with decidable membership.

An expression tree combines atoms (explicit finite sets, automata, named
total-recursive predicates) under union, intersection, complement, left
marking and left quotient.  There is one evaluator, :func:`window_rows`:
it gives membership in bulk as int rows over the window lex(0..n-1), and
the membership of one word w in e is the one-word row of w⁻¹e.  Each
predicate is an automaton built exact up to the longest word asked about.

The regular fragment has an exact automaton backend.  A small sound
rewriter (:func:`simplify`) collapses marker and complement structure, so
many mixed expressions — for example the intersection of differently
marked opaque languages — still get exact answers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import kernels
from .dfa import Dfa, dfa_for_finite, dfa_word_starts_with
from .verdicts import (CERTIFIED, FINITE, INFINITE, REFUTED, UNKNOWN,
                       FinitenessVerdict, Verdict, validate_horizon)
from .words import Alphabet, lex, ord_


class NonRegularLeaf(ValueError):
    """Raised when an opaque predicate blocks automaton conversion; it never
    leaves :func:`regular_view`, which returns None instead."""


class UnknownPredicate(KeyError):
    """Raised for predicate names outside the built-in registry."""


# ---------------------------------------------------------------------------
# expression nodes


class LangExpr:
    """Base class; nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class FiniteSet(LangExpr):
    words: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "words",
                           tuple(sorted(set(self.words), key=lambda w: (len(w), w))))


@dataclass(frozen=True)
class DfaAtom(LangExpr):
    dfa: Dfa


@dataclass(frozen=True)
class Predicate(LangExpr):
    name: str


@dataclass(frozen=True)
class Union(LangExpr):
    args: tuple[LangExpr, ...]


@dataclass(frozen=True)
class Inter(LangExpr):
    args: tuple[LangExpr, ...]


@dataclass(frozen=True)
class Complement(LangExpr):
    arg: LangExpr


@dataclass(frozen=True)
class LeftMark(LangExpr):
    symbol: str
    arg: LangExpr


@dataclass(frozen=True)
class LeftQuotient(LangExpr):
    word: str
    arg: LangExpr


EMPTY = FiniteSet(())
FULL = Complement(EMPTY)


def is_empty_expr(e: LangExpr) -> bool:
    return isinstance(e, FiniteSet) and not e.words


def is_full_expr(e: LangExpr) -> bool:
    return isinstance(e, Complement) and is_empty_expr(e.arg)


# ---------------------------------------------------------------------------
# built-in predicates

# one sieve, regrown to at least double its length when a longer word
# length is asked about
_prime_sieve = np.zeros(0, dtype=bool)


def _prime_mask(limit: int) -> np.ndarray:
    """Primality of 0..n for some n >= limit."""
    global _prime_sieve
    if limit >= len(_prime_sieve):
        size = max(limit + 1, 2 * len(_prime_sieve))
        sieve = np.ones(size, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(size - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        _prime_sieve = sieve
    return _prime_sieve


def _length_predicate(test):
    """The automaton builder of a predicate on word length alone."""
    def automaton(alphabet, longest):
        # state n counts the length up to longest, where it stays
        rows = tuple((min(n + 1, longest),) * alphabet.size for n in range(longest + 1))
        return Dfa(alphabet.size, rows, 0,
                   frozenset(n for n in range(longest + 1) if test(n)))

    return automaton


def _is_square(n):
    r = isqrt(n)
    return r * r == n


def _is_prime(n):
    return n >= 2 and bool(_prime_mask(n)[n])


def _equal_counts(x, y):
    """The automaton builder of ``#x == #y``."""
    def automaton(alphabet, longest):
        # state longest + d holds #x - #y = d; no word of length at most
        # longest leaves [-longest, longest], where the count is clamped
        cx, cy = alphabet.code(x), alphabet.code(y)
        top = 2 * longest
        rows = tuple(tuple(min(s + 1, top) if c == cx else max(s - 1, 0) if c == cy else s
                           for c in range(alphabet.size))
                     for s in range(top + 1))
        return Dfa(alphabet.size, rows, longest, frozenset({longest}))

    return automaton


def resolve_predicate(name: str):
    """The automaton builder of a named predicate: ``automaton(alphabet,
    longest)`` is a Dfa that decides the predicate on every word of length
    at most ``longest``."""
    if name == "square-length":
        return _length_predicate(_is_square)
    if name == "prime-length":
        return _length_predicate(_is_prime)
    if name.startswith("equal-counts-") and len(name) == len("equal-counts-") + 2:
        x, y = name[-2], name[-1]
        if x != y:
            return _equal_counts(x, y)
    raise UnknownPredicate(name)


# ---------------------------------------------------------------------------
# membership: the window rows evaluate every expression; one word is the
# one-bit row of its quotient


def member(expr: LangExpr, word: str, alphabet: Alphabet) -> bool:
    """Is the word in the language?  w is in e exactly when the empty word,
    lex(0), is in w⁻¹e: the one-word window row of the quotient."""
    alphabet.check(word)
    return window_rows([LeftQuotient(word, expr)], alphabet, 1)[0] == 1


def _alphabet_mismatch(expr, alphabet):
    from .words import AlphabetMismatch
    return AlphabetMismatch(
        f"automaton over {expr.dfa.n_symbols} symbols used with alphabet of size {alphabet.size}")


def window_rows(exprs, alphabet: Alphabet, count: int) -> list[int]:
    """Membership of lex(0..count-1) in each expression, as int bitsets
    whose bit j is set when lex(j) is a member.

    Each tree is lowered with a pending left quotient u: ``LeftQuotient(w,
    e)`` at u is e at w+u; a mark at a nonempty u consumes u's first
    symbol or is empty; a mark at the empty u takes its argument's row over
    the words the marked window words leave once the mark is dropped, and
    shifts each length block into place.  Automaton atoms at u become the
    automaton started where u leads; a predicate becomes an automaton that
    is exact on every word of the window prefixed by u.  All automaton
    leaves of all expressions share stacked passes of
    :func:`kernels.window_final_states`, one run per distinct (transitions,
    initial) table, and a leaf's row is the union of the rows of its
    accepting states.  The rows of the states some atom accepts in come
    from :func:`kernels.packed_state_rows`, once per stack.  Union,
    intersection and complement are ``|``, ``&`` and ``full & ~``.
    """
    lowering = _Lowering(alphabet, count)
    rows = [lowering.lower(e) for e in exprs]
    lowering.run()
    return [row() for row in rows]


class _Lowering:
    """Expressions lowered to row thunks over one set of stacked passes."""

    def __init__(self, alphabet: Alphabet, count: int):
        self.alphabet, self.count = alphabet, count
        # (transitions, initial) -> (automaton, the accepting sets asked
        # about, {accepted-in state: row} once run)
        self.tables: dict[tuple, tuple[Dfa, list, dict[int, int]]] = {}

    def lower(self, e):
        """The thunk of e's row over the whole window."""
        return self._lower(e, (), self.count, {})

    def _row(self, e, u, n, memo):
        """The thunk of u⁻¹e over lex(0..n-1), lowered and evaluated once
        per expression."""
        key = (e, u, n)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _once(self._lower(e, u, n, memo))
        return hit

    def _lower(self, e, u, n, memo):
        alphabet = self.alphabet
        if isinstance(e, DfaAtom):
            if e.dfa.n_symbols != alphabet.size:
                raise _alphabet_mismatch(e, alphabet)
            return self._atom(e.dfa.left_quotient(u) if u else e.dfa, n)
        if isinstance(e, FiniteSet):
            row = _finite_row(e, u, alphabet, n)
            return lambda: row
        if isinstance(e, Predicate):
            longest = len(u) + (len(lex(alphabet, n - 1)) if n else 0)
            dfa = resolve_predicate(e.name)(alphabet, longest)
            return self._atom(dfa.left_quotient(u) if u else dfa, n)
        if isinstance(e, (Union, Inter)):
            parts = [self._row(a, u, n, memo) for a in e.args]
            op, start = ((operator.or_, 0) if isinstance(e, Union)
                         else (operator.and_, (1 << n) - 1))
            return lambda: functools.reduce(op, (p() for p in parts), start)
        if isinstance(e, Complement):
            inner = self._row(e.arg, u, n, memo)
            return lambda: ((1 << n) - 1) & ~inner()
        if isinstance(e, LeftMark):
            c = alphabet.code(e.symbol)
            if u:
                return self._row(e.arg, u[1:], n, memo) if u[0] == c else lambda: 0
            m = _marked_count(alphabet.size, c, n)
            if not m:
                return lambda: 0
            inner = self._row(e.arg, (), m, memo)
            return lambda: _mark_row(inner(), alphabet.size, c, m)
        if isinstance(e, LeftQuotient):
            return self._row(e.arg, alphabet.codes(e.word) + u, n, memo)
        raise TypeError(f"not a language expression: {e!r}")

    def _atom(self, dfa: Dfa, n: int):
        """The thunk of an automaton's row over lex(0..n-1), n <= count."""
        _, accepts, states = self.tables.setdefault((dfa.transitions, dfa.initial),
                                                    (dfa, [], {}))
        accepting = dfa.accepting
        accepts.append(accepting)
        mask = (1 << n) - 1
        return lambda: functools.reduce(operator.or_, (states[s] for s in accepting), 0) & mask

    def run(self) -> None:
        """Fill the state rows of every table with the stacked passes."""
        count = self.count
        groups = list(self.tables.values())
        step = max(1, kernels.STACK_WORDS // max(count, 1))
        for lo in range(0, len(groups), step):
            stack = groups[lo:lo + step]
            dfas = [d for d, _, _ in stack]
            offsets = np.cumsum([0] + [d.n_states for d in dfas])
            trans = np.concatenate([d._trans_array + off
                                    for d, off in zip(dfas, offsets)]).astype(np.int32)
            initials = offsets[:-1] + [d.initial for d in dfas]
            finals = kernels.window_final_states(trans, initials, count)
            for _, accepts, states in stack:
                states.update(dict.fromkeys(set().union(*accepts), 0))
            used = [off + s for (_, _, states), off in zip(stack, offsets.tolist())
                    for s in states]
            rows = iter(kernels.packed_state_rows(finals, int(offsets[-1]), used))
            for _, _, states in stack:
                for s in states:
                    states[s] = next(rows)


def _once(row):
    """The thunk ``row``, evaluated on its first call only."""
    done = []

    def once():
        if not done:
            done.append(row())
        return done[0]
    return once


def _finite_row(e: FiniteSet, u: tuple, alphabet: Alphabet, n: int) -> int:
    """The row of u⁻¹e over lex(0..n-1).  The symbols of every word as
    long as some word u·x of the window are checked, also of those that do
    not start with u; longer words are skipped unchecked."""
    if not n:
        return 0
    lo = len(u)
    hi = lo + len(lex(alphabet, n - 1))
    prefix = alphabet.word(u)
    row = 0
    for w in e.words:  # sorted by length
        if len(w) > hi:
            break
        if len(w) >= lo and alphabet.check(w).startswith(prefix):
            r = ord_(alphabet, w[lo:])
            if r < n:
                row |= 1 << r
    return row


def _marked_count(b: int, c: int, n: int) -> int:
    """How many words of lex(0..n-1) start with the symbol of code c.
    Dropping that symbol leaves exactly the words lex(0..m-1)."""
    # the words c·y with y of length k are the b^k = size ranks from
    # start + c·size on, where start = before(k + 1)
    m, start, size = 0, 1, 1
    while start + c * size < n:
        m += min(size, n - start - c * size)
        start += size * b
        size *= b
    return m


def _mark_row(row: int, b: int, c: int, m: int) -> int:
    """The row of the words c·y, from the row of y over lex(0..m-1): the
    block of length k, bits before(k) to before(k) + b^k - 1, moves to
    start at before(k + 1) + c·b^k."""
    if b == 1:
        return row << 1
    out, src, dst, size = 0, 0, 1, 1
    while src < m:
        out |= ((row >> src) & ((1 << size) - 1)) << (dst + c * size)
        src += size
        dst += size * b
        size *= b
    return out


# ---------------------------------------------------------------------------
# sound structural simplification


def _as_direct_dfa(expr, alphabet):
    """Automaton for syntactically regular leaves, else None."""
    if isinstance(expr, DfaAtom):
        return expr.dfa
    if isinstance(expr, FiniteSet):
        return dfa_for_finite(alphabet.size, tuple(alphabet.codes(w) for w in expr.words))
    if isinstance(expr, Complement):
        inner = _as_direct_dfa(expr.arg, alphabet)
        return inner.complement() if inner is not None else None
    return None


def _dfa_atom(dfa: Dfa) -> LangExpr:
    """Minimized automaton atom, collapsed to EMPTY or FULL when trivial."""
    m = dfa.minimize()
    if not m.accepting:
        return EMPTY
    if m.n_states == 1:
        return FULL
    return DfaAtom(m)


def simplify(expr: LangExpr, alphabet: Alphabet) -> LangExpr:
    """Equivalent expression with marker/complement structure collapsed.

    Every rewrite preserves the language exactly, so exact procedures may
    run on the simplified form.
    """
    if isinstance(expr, (FiniteSet, Predicate)):
        return expr
    if isinstance(expr, DfaAtom):
        return _dfa_atom(expr.dfa)
    if isinstance(expr, Complement):
        arg = simplify(expr.arg, alphabet)
        if isinstance(arg, Complement):
            return arg.arg
        if isinstance(arg, LeftMark):
            # (xL)^c = x(L^c) plus everything not starting with x
            marked = simplify(LeftMark(arg.symbol, Complement(arg.arg)), alphabet)
            other = _dfa_atom(dfa_word_starts_with(alphabet.size, alphabet.code(arg.symbol))
                              .complement())
            return _simplify_union((marked, other), alphabet)
        return Complement(arg)
    if isinstance(expr, Union):
        return _simplify_union(tuple(simplify(a, alphabet) for a in expr.args), alphabet)
    if isinstance(expr, Inter):
        return _simplify_inter(tuple(simplify(a, alphabet) for a in expr.args), alphabet)
    if isinstance(expr, LeftMark):
        arg = simplify(expr.arg, alphabet)
        if is_empty_expr(arg):
            return EMPTY
        return LeftMark(expr.symbol, arg)
    if isinstance(expr, LeftQuotient):
        return _simplify_quotient(expr.word, simplify(expr.arg, alphabet), alphabet)
    raise TypeError(f"not a language expression: {expr!r}")


def _flatten(args, node_type):
    out = []
    for a in args:
        if isinstance(a, node_type):
            out.extend(a.args)
        else:
            out.append(a)
    return out


def _simplify_union(args, alphabet):
    flat = _flatten(args, Union)
    kept, seen = [], set()
    for a in flat:
        if is_full_expr(a):
            return FULL
        if is_empty_expr(a) or a in seen:
            continue
        seen.add(a)
        kept.append(a)
    for a in kept:
        if Complement(a) in seen or (isinstance(a, Complement) and a.arg in seen):
            return FULL
    # merge marks that share a symbol: xL | xM = x(L | M)
    marks: dict[str, list] = {}
    rest = []
    for a in kept:
        if isinstance(a, LeftMark):
            marks.setdefault(a.symbol, []).append(a.arg)
        else:
            rest.append(a)
    for sym, parts in marks.items():
        inner = parts[0] if len(parts) == 1 else _simplify_union(tuple(parts), alphabet)
        merged = LeftMark(sym, inner) if not is_empty_expr(inner) else EMPTY
        if not is_empty_expr(merged):
            rest.append(merged)
    if not rest:
        return EMPTY
    if len(rest) == 1:
        return rest[0]
    return Union(tuple(rest))


_DISTRIBUTE_BUDGET = 64


def _simplify_inter(args, alphabet):
    flat = _flatten(args, Inter)
    kept, seen = [], set()
    for a in flat:
        if is_empty_expr(a):
            return EMPTY
        if is_full_expr(a) or a in seen:
            continue
        seen.add(a)
        kept.append(a)
    for a in kept:
        if Complement(a) in seen or (isinstance(a, Complement) and a.arg in seen):
            return EMPTY
    # distribute over unions while the expansion stays small; this is what
    # lets marker/complement collapses fire inside unions
    product = 1
    for a in kept:
        if isinstance(a, Union):
            product *= max(len(a.args), 1)
    if product > 1 and product <= _DISTRIBUTE_BUDGET:
        choice_sets = [a.args if isinstance(a, Union) else (a,) for a in kept]
        terms = [_simplify_inter(combo, alphabet)
                 for combo in itertools.product(*choice_sets)]
        return _simplify_union(tuple(terms), alphabet)
    marks = [a for a in kept if isinstance(a, LeftMark)]
    if marks:
        symbols = {m.symbol for m in marks}
        if len(symbols) > 1:
            return EMPTY  # distinct forced first symbols
        sym = next(iter(symbols))
        inner_parts = [m.arg for m in marks]
        rest = []
        for a in kept:
            if isinstance(a, LeftMark):
                continue
            direct = _as_direct_dfa(a, alphabet)
            if direct is not None:
                # xL n D = x(L n x^-1 D)
                inner_parts.append(_dfa_atom(direct.left_quotient((alphabet.code(sym),))))
            else:
                rest.append(a)
        inner = inner_parts[0] if len(inner_parts) == 1 else _simplify_inter(tuple(inner_parts), alphabet)
        mark = EMPTY if is_empty_expr(inner) else LeftMark(sym, inner)
        if is_empty_expr(mark):
            return EMPTY
        if not rest:
            return mark
        return Inter(tuple([mark] + rest))
    if not kept:
        return FULL
    if len(kept) == 1:
        return kept[0]
    return Inter(tuple(kept))


def _simplify_quotient(word, arg, alphabet):
    alphabet.check(word)
    if word == "":
        return arg
    if is_empty_expr(arg):
        return EMPTY
    if isinstance(arg, LeftMark):
        if word[0] == arg.symbol:
            return _simplify_quotient(word[1:], arg.arg, alphabet)
        return EMPTY
    if isinstance(arg, Union):
        return _simplify_union(tuple(_simplify_quotient(word, a, alphabet) for a in arg.args), alphabet)
    if isinstance(arg, Inter):
        return _simplify_inter(tuple(_simplify_quotient(word, a, alphabet) for a in arg.args), alphabet)
    if isinstance(arg, Complement):
        inner = _simplify_quotient(word, arg.arg, alphabet)
        if isinstance(inner, Complement):
            return inner.arg
        return Complement(inner)
    if isinstance(arg, FiniteSet):
        return FiniteSet(tuple(w[len(word):] for w in arg.words if w.startswith(word)))
    if isinstance(arg, DfaAtom):
        return _dfa_atom(arg.dfa.left_quotient(alphabet.codes(word)))
    if isinstance(arg, LeftQuotient):
        return _simplify_quotient(arg.word + word, simplify(arg.arg, alphabet), alphabet)
    return LeftQuotient(word, arg)


# ---------------------------------------------------------------------------
# automaton backend


def _convert(expr, alphabet):
    """An automaton of the expression; raises :class:`NonRegularLeaf` at a
    predicate leaf."""
    if isinstance(expr, FiniteSet):
        return dfa_for_finite(alphabet.size, tuple(alphabet.codes(w) for w in expr.words))
    if isinstance(expr, DfaAtom):
        if expr.dfa.n_symbols != alphabet.size:
            raise _alphabet_mismatch(expr, alphabet)
        return expr.dfa
    if isinstance(expr, Predicate):
        raise NonRegularLeaf(expr.name)
    if isinstance(expr, (Union, Inter)):
        unit, product = ((EMPTY, Dfa.union) if isinstance(expr, Union)
                         else (FULL, Dfa.intersection))
        acc = _convert(expr.args[0] if expr.args else unit, alphabet)
        for a in expr.args[1:]:
            acc = product(acc, _convert(a, alphabet)).minimize()
        return acc
    if isinstance(expr, Complement):
        return _convert(expr.arg, alphabet).complement()
    if isinstance(expr, LeftMark):
        return _convert(expr.arg, alphabet).left_mark(alphabet.code(expr.symbol))
    if isinstance(expr, LeftQuotient):
        return _convert(expr.arg, alphabet).left_quotient(alphabet.codes(expr.word))
    raise TypeError(f"not a language expression: {expr!r}")


# entries the automaton cache keeps, least recently used evicted first
AUTOMATON_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=AUTOMATON_CACHE_SIZE)
def regular_view(expr: LangExpr, alphabet: Alphabet) -> Dfa | None:
    """The minimal automaton, the language key, if the simplified
    expression is regular.  The one door to the exact backend: it
    simplifies, converts and minimizes, so callers pass expressions as is.
    """
    try:
        return _convert(simplify(expr, alphabet), alphabet).minimize()
    except NonRegularLeaf:
        return None


# ---------------------------------------------------------------------------
# decision procedures


def is_finite(expr: LangExpr, alphabet: Alphabet, horizon: int = 0) -> FinitenessVerdict:
    """Exact on the regular fragment; otherwise a horizon scan.

    Opaque predicates never produce an exact Infinite verdict: the scan
    reports how many members it saw and leaves the question open.
    """
    validate_horizon(horizon)
    view = regular_view(expr, alphabet)
    if view is not None:
        count = view.count_accepted()
        if count is None:
            u, v, w = view.pumping_witness()
            witness = {"prefix": alphabet.word(u), "loop": alphabet.word(v),
                       "suffix": alphabet.word(w)}
            return FinitenessVerdict(INFINITE, exact=True, witness=witness)
        return FinitenessVerdict(FINITE, exact=True, count=count)
    seen = window_rows([expr], alphabet, horizon + 1)[0].bit_count()
    return FinitenessVerdict(UNKNOWN, exact=False, count=seen, horizon=horizon)


def emptiness(expr: LangExpr, alphabet: Alphabet, horizon: int = 300) -> Verdict:
    """Is the language empty?  The one oracle behind subset, equivalence
    and disjointness.

    Exact when :func:`regular_view` finds the expression regular:
    certified, or refuted by the least member.  Otherwise the least member
    in the window up to the horizon refutes, and an empty window leaves
    the answer unknown.  The window scan evaluates ``expr`` as passed,
    which lets callers' sub-expressions share one memoized evaluation.
    """
    validate_horizon(horizon)
    view = regular_view(expr, alphabet)
    if view is not None:
        least = view.least_accepted()
        if least is None:
            return Verdict(CERTIFIED, exact=True)
        return Verdict(REFUTED, exact=True, witness=alphabet.word(least))
    row = window_rows([expr], alphabet, horizon + 1)[0]
    if row:
        return Verdict(REFUTED, exact=True,
                       witness=lex(alphabet, (row & -row).bit_length() - 1),
                       detail={"route": "window"})
    return Verdict(UNKNOWN, exact=False, horizon=horizon)


def subset_of(e1: LangExpr, e2: LangExpr, alphabet: Alphabet, horizon: int = 300) -> Verdict:
    """Is e1 a subset of e2?  Emptiness of e1 minus e2."""
    return emptiness(Inter((e1, Complement(e2))), alphabet, horizon)


def equivalent(e1: LangExpr, e2: LangExpr, alphabet: Alphabet, horizon: int = 300) -> Verdict:
    """Language equality: emptiness of the symmetric difference."""
    return emptiness(Union((Inter((e1, Complement(e2))), Inter((e2, Complement(e1))))),
                     alphabet, horizon)


# ---------------------------------------------------------------------------
# serialization


def expr_to_json(expr: LangExpr) -> dict:
    if isinstance(expr, FiniteSet):
        return {"finite": list(expr.words)}
    if isinstance(expr, DfaAtom):
        return {"dfa": expr.dfa.to_json()}
    if isinstance(expr, Predicate):
        return {"predicate": expr.name}
    if isinstance(expr, Union):
        return {"op": "union", "args": [expr_to_json(a) for a in expr.args]}
    if isinstance(expr, Inter):
        return {"op": "intersect", "args": [expr_to_json(a) for a in expr.args]}
    if isinstance(expr, Complement):
        return {"op": "complement", "arg": expr_to_json(expr.arg)}
    if isinstance(expr, LeftMark):
        return {"op": "leftmark", "symbol": expr.symbol, "arg": expr_to_json(expr.arg)}
    if isinstance(expr, LeftQuotient):
        return {"op": "leftquotient", "word": expr.word, "arg": expr_to_json(expr.arg)}
    raise TypeError(f"not a language expression: {expr!r}")


# deepest expression nesting read from JSON; evaluation and hashing recurse
# once or more per level, and shipped inputs nest fewer than 10 levels
MAX_EXPR_DEPTH = 200


def expr_from_json(data: dict, alphabet: Alphabet) -> LangExpr:
    """The expression of this JSON object over the alphabet.  Raises
    ValueError when it is malformed or nests deeper than ``MAX_EXPR_DEPTH``
    levels, and AlphabetMismatch at the first word, marker symbol,
    quotient word or predicate symbol, in tree order, that is not in the
    alphabet."""
    return _expr_from_json(data, alphabet, MAX_EXPR_DEPTH)


def _expr_from_json(data, alphabet, depth):
    if depth == 0:
        raise ValueError(f"language expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if "finite" in data:
        words = data["finite"]
        if type(words) is not list or any(type(w) is not str for w in words):
            raise ValueError(f"'finite' must be a list of strings, not {words!r}")
        e = FiniteSet(tuple(words))
        for w in e.words:
            alphabet.check(w)
        return e
    if "dfa" in data:
        return DfaAtom(Dfa.from_json(data["dfa"], alphabet.size))
    if "predicate" in data:
        name = data["predicate"]
        resolve_predicate(name)
        if name.startswith("equal-counts-"):
            alphabet.check(name[-2:])
        return Predicate(name)
    op = data.get("op")
    depth -= 1
    if op == "union":
        return Union(tuple(_expr_from_json(a, alphabet, depth) for a in data["args"]))
    if op == "intersect":
        return Inter(tuple(_expr_from_json(a, alphabet, depth) for a in data["args"]))
    if op == "complement":
        return Complement(_expr_from_json(data["arg"], alphabet, depth))
    if op == "leftmark":
        symbol = data["symbol"]
        alphabet.code(symbol)
        return LeftMark(symbol, _expr_from_json(data["arg"], alphabet, depth))
    if op == "leftquotient":
        word = alphabet.check(data["word"])
        return LeftQuotient(word, _expr_from_json(data["arg"], alphabet, depth))
    raise ValueError(f"malformed language expression JSON: {data!r}")
