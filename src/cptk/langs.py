"""Symbolic language expressions with decidable membership.

An expression tree combines atoms (explicit finite sets, automata, named
total-recursive predicates) under union, intersection, complement, left
marking and left quotient.  Membership is decided structurally word by
word, or in bulk over a packed window of words.

The regular fragment has an exact automaton backend.  A small sound
rewriter (:func:`simplify`) collapses marker and complement structure, so
many mixed expressions — for example the intersection of differently
marked opaque languages — still get exact answers.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import kernels
from .dfa import Dfa, dfa_for_finite, dfa_word_starts_with
from .verdicts import (CERTIFIED, FINITE, INFINITE, REFUTED, UNKNOWN,
                       FinitenessVerdict, Verdict)
from .words import Alphabet, PackedWords, lex, ord_, window, window_for_horizon


class NonRegularLeaf(ValueError):
    """Raised when an opaque predicate blocks automaton conversion."""


class UnknownPredicate(KeyError):
    """Raised for predicate names outside the built-in registry."""


class StepBudgetExceeded(RuntimeError):
    """The active evaluation step budget was exhausted."""


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


class _PredicateImpl:
    def __init__(self, name, scalar, batch):
        self.name = name
        self.scalar = scalar
        self.batch = batch


def _square_scalar(alphabet, word):
    n = len(word)
    r = isqrt(n)
    return r * r == n


def _square_batch(packed):
    roots = np.asarray(np.sqrt(packed.lengths).round(), dtype=np.int64)
    return roots * roots == packed.lengths


def _prime_scalar(alphabet, word):
    n = len(word)
    if n < 2:
        return False
    return bool(_prime_mask(n)[n])


def _prime_batch(packed):
    top = int(packed.lengths.max()) if len(packed) else 2
    return _prime_mask(top)[packed.lengths]


def _equal_counts(x, y):
    def scalar(alphabet, word):
        alphabet.code(x), alphabet.code(y)
        return word.count(x) == word.count(y)

    def batch(packed):
        cx = kernels.symbol_counts(packed.flat, packed.starts, packed.lengths,
                                   packed.alphabet.code(x))
        cy = kernels.symbol_counts(packed.flat, packed.starts, packed.lengths,
                                   packed.alphabet.code(y))
        return cx == cy

    return scalar, batch


def resolve_predicate(name: str) -> _PredicateImpl:
    if name == "square-length":
        return _PredicateImpl(name, _square_scalar, _square_batch)
    if name == "prime-length":
        return _PredicateImpl(name, _prime_scalar, _prime_batch)
    if name.startswith("equal-counts-") and len(name) == len("equal-counts-") + 2:
        x, y = name[-2], name[-1]
        if x != y:
            scalar, batch = _equal_counts(x, y)
            return _PredicateImpl(name, scalar, batch)
    raise UnknownPredicate(name)


# ---------------------------------------------------------------------------
# step budget (opt-in guard that membership evaluation stays total and cheap)

_budget_state = threading.local()


@contextmanager
def step_budget(limit: int):
    """Bound the number of atom evaluations inside the block."""
    prev = getattr(_budget_state, "remaining", None)
    _budget_state.remaining = limit
    try:
        yield
    finally:
        _budget_state.remaining = prev


def _tick(amount: int = 1) -> None:
    remaining = getattr(_budget_state, "remaining", None)
    if remaining is None:
        return
    remaining -= amount
    if remaining < 0:
        _budget_state.remaining = 0
        raise StepBudgetExceeded("evaluation step budget exhausted")
    _budget_state.remaining = remaining


# ---------------------------------------------------------------------------
# membership: scalar and batch


def member(expr: LangExpr, word: str, alphabet: Alphabet) -> bool:
    """Structural membership of one word."""
    alphabet.check(word)
    return _member(expr, word, alphabet)


def _member(expr, word, alphabet):
    if isinstance(expr, FiniteSet):
        _tick()
        return word in expr.words
    if isinstance(expr, DfaAtom):
        _tick()
        if expr.dfa.n_symbols != alphabet.size:
            raise _alphabet_mismatch(expr, alphabet)
        return expr.dfa.accepts(alphabet, word)
    if isinstance(expr, Predicate):
        _tick()
        return bool(resolve_predicate(expr.name).scalar(alphabet, word))
    if isinstance(expr, Union):
        return any(_member(a, word, alphabet) for a in expr.args)
    if isinstance(expr, Inter):
        return all(_member(a, word, alphabet) for a in expr.args)
    if isinstance(expr, Complement):
        return not _member(expr.arg, word, alphabet)
    if isinstance(expr, LeftMark):
        if not word or word[0] != expr.symbol:
            return False
        return _member(expr.arg, word[1:], alphabet)
    if isinstance(expr, LeftQuotient):
        return _member(expr.arg, expr.word + word, alphabet)
    raise TypeError(f"not a language expression: {expr!r}")


def _alphabet_mismatch(expr, alphabet):
    from .words import AlphabetMismatch
    return AlphabetMismatch(
        f"automaton over {expr.dfa.n_symbols} symbols used with alphabet of size {alphabet.size}")


def member_batch(expr: LangExpr, packed: PackedWords) -> np.ndarray:
    """Membership of every packed word, as a bool vector."""
    memo: dict = {}
    return _eval(expr, packed, memo)


def _eval(expr, packed, memo):
    key = (expr, id(packed))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    alphabet = packed.alphabet
    if isinstance(expr, FiniteSet):
        _tick(len(packed))
        out = np.zeros(len(packed), dtype=bool)
        if expr.words:
            by_len: dict[int, np.ndarray] = {}
            for w in expr.words:
                idx = by_len.get(len(w))
                if idx is None:
                    idx = np.nonzero(packed.lengths == len(w))[0]
                    by_len[len(w)] = idx
                if idx.size == 0:
                    continue
                if len(w) == 0:
                    out[idx] = True
                    continue
                codes = np.array(alphabet.codes(w), dtype=np.int16)
                cols = packed.starts[idx][:, None] + np.arange(len(w), dtype=np.int64)[None, :]
                out[idx] |= (packed.flat[cols] == codes[None, :]).all(axis=1)
    elif isinstance(expr, DfaAtom):
        _tick(len(packed))
        if expr.dfa.n_symbols != alphabet.size:
            raise _alphabet_mismatch(expr, alphabet)
        out = expr.dfa.accepts_batch(packed)
    elif isinstance(expr, Predicate):
        _tick(len(packed))
        out = np.asarray(resolve_predicate(expr.name).batch(packed), dtype=bool)
    elif isinstance(expr, Union):
        out = np.zeros(len(packed), dtype=bool)
        for a in expr.args:
            out |= _eval(a, packed, memo)
    elif isinstance(expr, Inter):
        out = np.ones(len(packed), dtype=bool)
        for a in expr.args:
            out &= _eval(a, packed, memo)
    elif isinstance(expr, Complement):
        out = ~_eval(expr.arg, packed, memo)
    elif isinstance(expr, LeftMark):
        out = np.zeros(len(packed), dtype=bool)
        code = alphabet.code(expr.symbol)
        nonempty = packed.lengths > 0
        first = np.full(len(packed), -1, dtype=np.int64)
        first[nonempty] = packed.flat[packed.starts[nonempty]]
        sel = first == code
        if sel.any():
            out[sel] = _eval(expr.arg, packed.suffixes(sel), memo)
    elif isinstance(expr, LeftQuotient):
        shifted = packed.prefixed(alphabet.codes(expr.word))
        out = _eval(expr.arg, shifted, memo)
    else:
        raise TypeError(f"not a language expression: {expr!r}")
    memo[key] = (packed, out)
    return out


# bound on automata x words per stacked pass, which keeps the int32 state
# array and the gathers that fill it small
_STACK_WORDS = 1 << 16


def window_rows(exprs, alphabet: Alphabet, count: int) -> list[int]:
    """Membership of lex(0..count-1) in each expression, as int bitsets
    whose bit j is set when lex(j) is a member.

    Automaton atoms share stacked passes of
    :func:`kernels.window_final_states`: each distinct (transitions,
    initial) table runs once, and an atom's row is the union of the rows
    of its accepting states.  The state rows of a stack come from one
    ``np.packbits`` call over a one-hot of its final states against the
    ids of the states some atom accepts in.  A finite set's row sets the
    ranks of its words below ``count``.  Other expressions go through
    :func:`member_batch`.  Each atom charges the step budget one step per
    word, as :func:`member_batch` does.
    """
    exprs = list(exprs)
    out: list[int] = [0] * len(exprs)
    tables: dict[tuple, list[int]] = {}
    packed = None
    for k, e in enumerate(exprs):
        if isinstance(e, DfaAtom) and e.dfa.n_symbols == alphabet.size:
            tables.setdefault((e.dfa.transitions, e.dfa.initial), []).append(k)
            continue
        if isinstance(e, FiniteSet):
            out[k] = _finite_row(e, alphabet, count)
            continue
        if packed is None:
            packed = window(alphabet, count)
        out[k] = kernels.row_bits(member_batch(e, packed))
    _tick(count * sum(len(ks) for ks in tables.values()))
    groups = list(tables.values())
    step = max(1, _STACK_WORDS // max(count, 1))
    for lo in range(0, len(groups), step):
        stack = groups[lo:lo + step]
        dfas = [exprs[ks[0]].dfa for ks in stack]
        offsets = np.cumsum([0] + [d.n_states for d in dfas])
        trans = np.concatenate([d._trans_array + off
                                for d, off in zip(dfas, offsets)]).astype(np.int32)
        initials = offsets[:-1] + [d.initial for d in dfas]
        finals = kernels.window_final_states(trans, initials, count)
        # one packed pass over the states some atom accepts in: byte row p
        # holds the ranks that end in state used[p]; the others share a
        # spare last row
        starts = offsets.tolist()
        used = [off + s for ks, off in zip(stack, starts)
                for s in set().union(*(exprs[k].dfa.accepting for k in ks))]
        slot = np.full(starts[-1], len(used), dtype=np.int32)
        slot[used] = np.arange(len(used))
        hot = np.zeros((len(used) + 1, count), dtype=bool)
        hot[slot[finals], np.arange(count)] = True
        width = -(-count // 8)
        data = np.packbits(hot, axis=1, bitorder="little").tobytes()
        state_bits = {g: int.from_bytes(data[p * width:(p + 1) * width], "little")
                      for p, g in enumerate(used)}
        for ks, off in zip(stack, starts):
            for k in ks:
                row = 0
                for s in exprs[k].dfa.accepting:
                    row |= state_bits[off + s]
                out[k] = row
    return out


def _finite_row(e: FiniteSet, alphabet: Alphabet, count: int) -> int:
    """The row of a finite set over lex(0..count-1).  Like
    :func:`member_batch`, it checks the symbols of the words no longer
    than the window's longest and skips the longer ones."""
    _tick(count)
    longest = len(lex(alphabet, count - 1)) if count else -1
    row = 0
    for w in e.words:  # sorted by length
        if len(w) > longest:
            break
        r = ord_(alphabet, w)
        if r < count:
            row |= 1 << r
    return row


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

# entries each automaton cache keeps, least recently used evicted first
AUTOMATON_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=AUTOMATON_CACHE_SIZE)
def to_automaton(expr: LangExpr, alphabet: Alphabet) -> Dfa:
    """Exact minimized automaton; requires every leaf to be regular.

    Raises :class:`NonRegularLeaf` if a named predicate occurs anywhere in
    the tree.
    """
    return _convert(expr, alphabet).minimize()


def _convert(expr, alphabet):
    if isinstance(expr, FiniteSet):
        return dfa_for_finite(alphabet.size, tuple(alphabet.codes(w) for w in expr.words))
    if isinstance(expr, DfaAtom):
        if expr.dfa.n_symbols != alphabet.size:
            raise _alphabet_mismatch(expr, alphabet)
        return expr.dfa
    if isinstance(expr, Predicate):
        raise NonRegularLeaf(expr.name)
    if isinstance(expr, Union):
        if not expr.args:
            return _convert(EMPTY, alphabet)
        acc = _convert(expr.args[0], alphabet)
        for a in expr.args[1:]:
            acc = acc.union(_convert(a, alphabet)).minimize()
        return acc
    if isinstance(expr, Inter):
        if not expr.args:
            return _convert(FULL, alphabet)
        acc = _convert(expr.args[0], alphabet)
        for a in expr.args[1:]:
            acc = acc.intersection(_convert(a, alphabet)).minimize()
        return acc
    if isinstance(expr, Complement):
        return _convert(expr.arg, alphabet).complement()
    if isinstance(expr, LeftMark):
        return _convert(expr.arg, alphabet).left_mark(alphabet.code(expr.symbol))
    if isinstance(expr, LeftQuotient):
        return _convert(expr.arg, alphabet).left_quotient(alphabet.codes(expr.word))
    raise TypeError(f"not a language expression: {expr!r}")


@functools.lru_cache(maxsize=AUTOMATON_CACHE_SIZE)
def regular_view(expr: LangExpr, alphabet: Alphabet) -> Dfa | None:
    """Minimized automaton for the simplified expression, if it is regular."""
    try:
        return to_automaton(simplify(expr, alphabet), alphabet)
    except NonRegularLeaf:
        return None


# ---------------------------------------------------------------------------
# decision procedures


def is_finite(expr: LangExpr, alphabet: Alphabet, horizon: int = 0) -> FinitenessVerdict:
    """Exact on the regular fragment; otherwise a horizon scan.

    Opaque predicates never produce an exact Infinite verdict: the scan
    reports how many members it saw and leaves the question open.
    """
    view = regular_view(expr, alphabet)
    if view is not None:
        count = view.count_accepted()
        if count is None:
            u, v, w = view.pumping_witness()
            witness = {"prefix": alphabet.word(u), "loop": alphabet.word(v),
                       "suffix": alphabet.word(w)}
            return FinitenessVerdict(INFINITE, exact=True, witness=witness)
        return FinitenessVerdict(FINITE, exact=True, count=count)
    packed = window_for_horizon(alphabet, horizon)
    seen = int(member_batch(expr, packed).sum())
    return FinitenessVerdict(UNKNOWN, exact=False, count=seen, horizon=horizon)


def emptiness(expr: LangExpr, alphabet: Alphabet, horizon: int = 300) -> Verdict:
    """Is the language empty?  The one oracle behind subset, equivalence
    and disjointness.

    Exact when the simplified expression is regular: certified, or refuted
    by the least member.  Otherwise the least member in the window up to
    the horizon refutes, and an empty window leaves the answer unknown.
    The window scan evaluates ``expr`` as passed, which lets callers'
    sub-expressions share one memoized evaluation.
    """
    view = regular_view(simplify(expr, alphabet), alphabet)
    if view is not None:
        least = view.least_accepted()
        if least is None:
            return Verdict(CERTIFIED, exact=True)
        return Verdict(REFUTED, exact=True, witness=alphabet.word(least))
    packed = window_for_horizon(alphabet, horizon)
    hits = np.nonzero(member_batch(expr, packed))[0]
    if hits.size:
        return Verdict(REFUTED, exact=True, witness=packed.word(int(hits[0])),
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


def check_symbols(expr: LangExpr, alphabet: Alphabet) -> LangExpr:
    """The expression, once every word, marker symbol and predicate symbol
    in it is found in the alphabet; raises AlphabetMismatch otherwise."""
    if isinstance(expr, FiniteSet):
        for w in expr.words:
            alphabet.check(w)
    elif isinstance(expr, Predicate) and expr.name.startswith("equal-counts-"):
        alphabet.check(expr.name[-2:])
    elif isinstance(expr, (Union, Inter)):
        for a in expr.args:
            check_symbols(a, alphabet)
    elif isinstance(expr, (Complement, LeftMark, LeftQuotient)):
        if isinstance(expr, LeftMark):
            alphabet.code(expr.symbol)
        if isinstance(expr, LeftQuotient):
            alphabet.check(expr.word)
        check_symbols(expr.arg, alphabet)
    return expr


def expr_from_json(data: dict, n_symbols: int) -> LangExpr:
    if "finite" in data:
        return FiniteSet(tuple(data["finite"]))
    if "dfa" in data:
        return DfaAtom(Dfa.from_json(data["dfa"], n_symbols))
    if "predicate" in data:
        resolve_predicate(data["predicate"])
        return Predicate(data["predicate"])
    op = data.get("op")
    if op == "union":
        return Union(tuple(expr_from_json(a, n_symbols) for a in data["args"]))
    if op == "intersect":
        return Inter(tuple(expr_from_json(a, n_symbols) for a in data["args"]))
    if op == "complement":
        return Complement(expr_from_json(data["arg"], n_symbols))
    if op == "leftmark":
        return LeftMark(data["symbol"], expr_from_json(data["arg"], n_symbols))
    if op == "leftquotient":
        return LeftQuotient(data["word"], expr_from_json(data["arg"], n_symbols))
    raise ValueError(f"malformed language expression JSON: {data!r}")
