"""Symbolic language expressions with decidable membership.

An expression tree combines atoms (explicit finite sets, automata, named
total-recursive predicates) under union, intersection, complement, left
marking and left quotient.  There is one evaluator, :func:`window_rows`:
it gives membership in bulk as int rows over the window lex(0..n-1),
remembered per expression, and the membership of one word w in e is the
one-word row of w⁻¹e.  Each predicate is an automaton built exact up to
the longest word asked about.

The exact automaton backend, :func:`regular_view`, has one regularity
rule: read every predicate leaf, keyed by its context, as FULL and as
EMPTY.  When every assignment gives the same language, the expression does
not depend on its predicates and that language is its automaton.  So many
mixed expressions (S ∪ ¬S, a·S ∪ ¬(a·S), the intersection of differently
marked opaque languages) still get exact answers.  The readings behind
the rule, :func:`readings`, are kept per expression, so a scan that
intersects one expression with many leaf-free automata converts it once
and decides each intersection on that automaton (:meth:`Readings.meet`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import isqrt

from . import kernels
from .dfa import Dfa, dfa_for_finite
from .verdicts import (CERTIFIED, FINITE, INFINITE, REFUTED, UNKNOWN,
                       FinitenessVerdict, Verdict, validate_horizon)
from .words import Alphabet, lex, ord_


class UnknownPredicate(KeyError):
    """Raised for predicate names outside the built-in registry."""


# ---------------------------------------------------------------------------
# expression nodes


class LangExpr:
    """Base class; nodes are immutable and hashable."""

    __slots__ = ()

    # set on a node by its first hash; not a field, so equality and the
    # repr ignore it
    _hash = None


def _node(cls):
    """A frozen dataclass node whose hash, its field tuple's, is found once
    and kept on the node: otherwise every lookup rehashes its tree."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class FiniteSet(LangExpr):
    words: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "words",
                           tuple(sorted(set(self.words), key=lambda w: (len(w), w))))


@_node
class DfaAtom(LangExpr):
    dfa: Dfa


@_node
class Predicate(LangExpr):
    name: str


@_node
class Union(LangExpr):
    args: tuple[LangExpr, ...]


@_node
class Inter(LangExpr):
    args: tuple[LangExpr, ...]


@_node
class Complement(LangExpr):
    arg: LangExpr


@_node
class LeftMark(LangExpr):
    symbol: str
    arg: LangExpr


@_node
class LeftQuotient(LangExpr):
    word: str
    arg: LangExpr


EMPTY = FiniteSet(())
FULL = Complement(EMPTY)


# ---------------------------------------------------------------------------
# built-in predicates

# one sieve, regrown to at least double its length when a longer word
# length is asked about
_prime_sieve = bytearray()


def _prime_mask(limit: int) -> bytearray:
    """Primality of 0..n for some n >= limit, one byte per number."""
    global _prime_sieve
    if limit >= len(_prime_sieve):
        size = max(limit + 1, 2 * len(_prime_sieve))
        sieve = bytearray(min(size, 2)) + b"\1" * (size - 2)
        for p in range(2, isqrt(size - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, size, p)))
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
    return _evaluate([LeftQuotient(word, expr)], alphabet, 1)[0] == 1


def _alphabet_mismatch(expr, alphabet):
    from .words import AlphabetMismatch
    return AlphabetMismatch(
        f"automaton over {expr.dfa.n_symbols} symbols used with alphabet of size {alphabet.size}")


class _RowKey(list):
    """The memo key (expression, alphabet, count), hashed once: a tuple
    key would call the expression's and the alphabet's ``__hash__`` on each
    of the several lookups of a call."""

    __slots__ = ("hash",)

    def __init__(self, *key):
        super().__init__(key)
        self.hash = hash(key)

    def __hash__(self):
        return self.hash


# (expression, alphabet, count) -> the window row window_rows found; at most
# AUTOMATON_CACHE_SIZE entries, least recently used evicted first
_row_memo: dict[_RowKey, int] = {}


def window_rows(exprs, alphabet: Alphabet, count: int) -> list[int]:
    """Membership of lex(0..count-1) in each expression, as int bitsets
    whose bit j is set when lex(j) is a member.

    Each row is remembered under (expression, alphabet, count), for the
    ``AUTOMATON_CACHE_SIZE`` most recently used keys: the rows of a call
    are looked up, and the missing expressions are evaluated together, in
    one :func:`_evaluate` pass.
    """
    memo = _row_memo
    keys = [_RowKey(e, alphabet, count) for e in exprs]
    rows = {}
    for key in keys:
        row = memo.pop(key, None)
        if row is not None:
            memo[key] = rows[key] = row
    missing = [key for key in dict.fromkeys(keys) if key not in rows]
    if missing:
        for key, row in zip(missing, _evaluate([key[0] for key in missing], alphabet, count)):
            memo[key] = rows[key] = row
        for _ in range(len(memo) - AUTOMATON_CACHE_SIZE):
            del memo[next(iter(memo))]
    return [rows[key] for key in keys]


def _evaluate(exprs, alphabet: Alphabet, count: int) -> list[int]:
    """The rows of :func:`window_rows`, evaluated with no memo.

    Each tree is lowered with a pending left quotient u: ``LeftQuotient(w,
    e)`` at u is e at w+u; a mark at a nonempty u consumes u's first
    symbol or is empty; a mark at the empty u takes its argument's row over
    the words the marked window words leave once the mark is dropped, and
    shifts each length block into place.  Automaton atoms at u become the
    automaton started where u leads; a predicate becomes an automaton that
    is exact on every word of the window prefixed by u.  All automaton
    leaves of all expressions share one :func:`kernels.state_rows` call,
    one run per distinct (transitions, initial) table, which gives the rows
    of the states some atom accepts in; a leaf's row is the union of the
    rows of its accepting states.  Union, intersection and complement are
    ``|``, ``&`` and ``full & ~``.
    """
    lowering = _Lowering(alphabet, count)
    rows = [lowering.lower(e) for e in exprs]
    lowering.run()
    return [row() for row in rows]


class _Lowering:
    """Expressions lowered to row thunks over one stacked pass."""

    def __init__(self, alphabet: Alphabet, count: int):
        self.alphabet, self.count = alphabet, count
        # (transitions, initial) -> (automaton, {accepted-in state: row}),
        # the rows filled in by run()
        self.tables: dict[tuple, tuple[Dfa, dict[int, int]]] = {}

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
        _, states = self.tables.setdefault((dfa.transitions, dfa.initial), (dfa, {}))
        accepting = dfa.accepting
        states.update(dict.fromkeys(accepting, 0))
        mask = (1 << n) - 1
        return lambda: functools.reduce(operator.or_, (states[s] for s in accepting), 0) & mask

    def run(self) -> None:
        """Fill the state rows of every table with one stacked pass."""
        groups = list(self.tables.values())
        rows = iter(kernels.state_rows(
            [row for d, _ in groups for row in d.transitions],
            [d.n_states for d, _ in groups], [d.initial for d, _ in groups],
            [states for _, states in groups], self.count))
        for _, states in groups:
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
# automaton backend


# most predicate leaf contexts regular_view substitutes: one conversion per
# FULL/EMPTY assignment, so at most 2**6 = 64 conversions per expression
LEAF_CONTEXTS = 6


@functools.lru_cache(maxsize=None)
def _constant(n_symbols: int, full: bool) -> Dfa:
    """The one-state automaton of every word or of none."""
    return Dfa(n_symbols, ((0,) * n_symbols,), 0, frozenset({0} if full else ()))


def _decided(dfa: Dfa) -> bool | None:
    """True when every state accepts, False when none does, else None."""
    if not dfa.accepting:
        return False
    return True if len(dfa.accepting) == dfa.n_states else None


def _convert(expr, alphabet, leaves, u=(), marks=""):
    """An automaton of u⁻¹expr with every predicate leaf read as FULL or
    EMPTY, as ``leaves`` says.

    ``u`` is the pending quotient, as in :class:`_Lowering`: a mark at a
    nonempty u consumes its first symbol or is empty, and automata and
    finite sets take the quotient.  ``marks`` is the string of marks above
    the node.  A predicate leaf is keyed by its context ``(marks, u,
    name)``; a key not yet in ``leaves`` reads EMPTY and is added.  Union
    and intersection convert every part first, so that every leaf is seen;
    a part that accepts everything or nothing then decides the node or
    drops out, with no product.
    """
    b = alphabet.size
    if isinstance(expr, FiniteSet):
        return dfa_for_finite(b, tuple(alphabet.codes(w) for w in expr.words)).left_quotient(u)
    if isinstance(expr, DfaAtom):
        if expr.dfa.n_symbols != b:
            raise _alphabet_mismatch(expr, alphabet)
        return expr.dfa.left_quotient(u) if u else expr.dfa
    if isinstance(expr, Predicate):
        return _constant(b, leaves.setdefault((marks, u, expr.name), False))
    if isinstance(expr, (Union, Inter)):
        union = isinstance(expr, Union)
        acc = None
        for part in [_convert(a, alphabet, leaves, u, marks) for a in expr.args]:
            decided = _decided(part)
            if decided is union:
                return part
            if decided is None:
                acc = part if acc is None else acc.product(
                    part, operator.or_ if union else operator.and_).minimize()
        return _constant(b, not union) if acc is None else acc
    if isinstance(expr, Complement):
        return _convert(expr.arg, alphabet, leaves, u, marks).complement()
    if isinstance(expr, LeftMark):
        c = alphabet.code(expr.symbol)
        if u:
            return (_convert(expr.arg, alphabet, leaves, u[1:], marks) if u[0] == c
                    else _constant(b, False))
        return _convert(expr.arg, alphabet, leaves, (), marks + expr.symbol).left_mark(c)
    if isinstance(expr, LeftQuotient):
        return _convert(expr.arg, alphabet, leaves, alphabet.codes(expr.word) + u, marks)
    raise TypeError(f"not a language expression: {expr!r}")


# entries the automaton caches keep, least recently used evicted first
AUTOMATON_CACHE_SIZE = 4096


class Readings:
    """An expression's automaton under each FULL/EMPTY reading of its
    predicate leaf contexts, as :func:`readings` finds them.

    ``base`` reads every context as EMPTY.  :meth:`disagreements` yields,
    for each other assignment with all-FULL first, the automaton of the
    words on which that reading and ``base`` differ, when there are such
    words.  Each is made on first need and kept, so a scan that stops at
    the first one pays for no other.
    """

    def __init__(self, expr: LangExpr, alphabet: Alphabet, base: Dfa, keys: list):
        self.base = base
        self._expr, self._alphabet, self._keys = expr, alphabet, keys
        # every assignment but the all-EMPTY one of base, and how many of
        # them have been read
        self._assignments = list(itertools.product((True, False), repeat=len(keys)))[:-1]
        self._read = 0
        self._made: list[Dfa] = []

    def disagreements(self):
        """The nonempty disagreement automata, made once each, in order."""
        made = self._made
        for i in itertools.count():
            while i == len(made):
                if self._read == len(self._assignments):
                    return
                bits = self._assignments[self._read]
                other = _convert(self._expr, self._alphabet, dict(zip(self._keys, bits)))
                d = self.base.product(other, operator.ne)
                self._read += 1
                if d.least_accepted() is not None:
                    made.append(d)
            yield made[i]

    def meet(self, dfa: Dfa) -> Dfa | None:
        """The automaton of base ∩ L(dfa), or None when some disagreement
        meets L(dfa); tested one disagreement at a time.

        For an expression q whose conversion reads no predicate leaf, with
        ``dfa`` its automaton, this is what :func:`regular_view` of
        ``Inter((x, q))`` decides, x the expression read here: the
        intersection has x's leaf contexts, and its readings differ
        exactly on a disagreement of x that meets q.  Minimized, the result
        is that view."""
        for d in self.disagreements():
            if d.product(dfa, operator.and_).least_accepted() is not None:
                return None
        return self.base.product(dfa, operator.and_)


def _read(expr: LangExpr, alphabet: Alphabet) -> Readings | None:
    """The readings of the expression's predicate leaf contexts, or None
    past ``LEAF_CONTEXTS`` contexts."""
    leaves: dict = {}
    base = _convert(expr, alphabet, leaves)
    if len(leaves) > LEAF_CONTEXTS:
        return None
    return Readings(expr, alphabet, base, list(leaves))


# the readings kept per expression, so that a scan that meets one target
# with every class converts the target once; regular_view keeps only its
# answer, and reads through _read
readings = functools.lru_cache(maxsize=AUTOMATON_CACHE_SIZE)(_read)


def intersection_views(x: LangExpr, alphabet: Alphabet):
    """The function ``view(q)``: an automaton of x ∩ q when
    :func:`regular_view` of ``Inter((x, q))`` finds one, the same
    language, else None.

    When q's conversion reads no predicate leaf, as for every expression
    of the shipped families, the answer is ``Readings.meet`` of q's
    automaton, with x's readings found once, on the first such q; it is
    not minimized.  Otherwise it is that view itself."""
    x_readings = functools.cache(lambda: readings(x, alphabet))

    def view(q: LangExpr) -> Dfa | None:
        leaves: dict = {}
        dfa = _convert(q, alphabet, leaves)
        if leaves:
            return regular_view(Inter((x, q)), alphabet)
        r = x_readings()
        return r.meet(dfa) if r is not None else None

    return view


@functools.lru_cache(maxsize=AUTOMATON_CACHE_SIZE)
def regular_view(expr: LangExpr, alphabet: Alphabet) -> Dfa | None:
    """The minimal automaton, the language key, when the expression does
    not depend on its predicates: substitute, convert, minimize.  The
    exact backend's door for one expression, taken by emptiness,
    finiteness and the class index, so callers pass expressions as they
    are; :func:`intersection_views` is its door for one expression met
    with many.

    The expression is converted with every predicate leaf context read as
    EMPTY, and again under each other FULL/EMPTY assignment
    (:class:`Readings`).  A word w reads each context at one word, u·w with
    the marks taken off, so its membership is a Boolean function of the
    atoms' bits and one bit per context.  When every assignment gives one
    language, that function ignores the context bits and the language is
    regular.  Past ``LEAF_CONTEXTS`` contexts, or at the first assignment
    that differs, the answer is None and callers take the window route.
    """
    r = _read(expr, alphabet)
    if r is None or next(r.disagreements(), None) is not None:
        return None
    return r.base.minimize()


# ---------------------------------------------------------------------------
# decision procedures


def is_finite(expr: LangExpr, alphabet: Alphabet, horizon: int = 0) -> FinitenessVerdict:
    """Exact on the regular fragment; otherwise a horizon scan.

    Opaque predicates never produce an exact Infinite verdict: the scan
    reports how many members it saw and leaves the question open.  The two
    routes are :func:`regular_view` and the verdict rule of
    :func:`finiteness`, which the cohesion scan and ``is_proper_hardcore``
    share: they read the window row of an intersection off the target's
    row and the family rows instead of evaluating it here.
    """
    validate_horizon(horizon)
    return finiteness(regular_view(expr, alphabet),
                      lambda: window_rows([expr], alphabet, horizon + 1)[0],
                      alphabet, horizon)


def finiteness(view: Dfa | None, row, alphabet: Alphabet, horizon: int) -> FinitenessVerdict:
    """The finiteness verdict of a language from its automaton ``view``, as
    :func:`regular_view` finds it, exact; or, when there is none, from
    ``row()``, the thunk of its window row over lex(0..horizon), which is
    called only then and counts the members seen."""
    if view is not None:
        count = view.count_accepted()
        if count is None:
            u, v, w = view.pumping_witness()
            witness = {"prefix": alphabet.word(u), "loop": alphabet.word(v),
                       "suffix": alphabet.word(w)}
            return FinitenessVerdict(INFINITE, exact=True, witness=witness)
        return FinitenessVerdict(FINITE, exact=True, count=count)
    return FinitenessVerdict(UNKNOWN, exact=False, count=row().bit_count(), horizon=horizon)


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
    ValueError when it is malformed (a node that is not an object, an
    ``args`` that is not a list, a ``symbol``, ``word`` or ``predicate``
    that is not a string) or nests deeper than ``MAX_EXPR_DEPTH`` levels,
    and AlphabetMismatch at the first word, marker symbol, quotient word or
    predicate symbol, in tree order, that is not in the alphabet."""
    return _expr_from_json(data, alphabet, MAX_EXPR_DEPTH)


def _string(data, field):
    """The string of a node's field; ValueError if it is not a string."""
    value = data[field]
    if type(value) is not str:
        raise ValueError(f"'{field}' must be a string, not {value!r}")
    return value


def _expr_from_json(data, alphabet, depth):
    if depth == 0:
        raise ValueError(f"language expression nested deeper than {MAX_EXPR_DEPTH} levels")
    if type(data) is not dict:
        raise ValueError(f"a language expression must be a JSON object, not {data!r}")
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
        name = _string(data, "predicate")
        resolve_predicate(name)
        if name.startswith("equal-counts-"):
            alphabet.check(name[-2:])
        return Predicate(name)
    op = data.get("op")
    depth -= 1
    if op in ("union", "intersect"):
        args = data["args"]
        if type(args) is not list:
            raise ValueError(f"'args' must be a list, not {args!r}")
        parts = tuple(_expr_from_json(a, alphabet, depth) for a in args)
        return Union(parts) if op == "union" else Inter(parts)
    if op == "complement":
        return Complement(_expr_from_json(data["arg"], alphabet, depth))
    if op == "leftmark":
        symbol = _string(data, "symbol")
        alphabet.code(symbol)
        return LeftMark(symbol, _expr_from_json(data["arg"], alphabet, depth))
    if op == "leftquotient":
        word = alphabet.check(_string(data, "word"))
        return LeftQuotient(word, _expr_from_json(data["arg"], alphabet, depth))
    raise ValueError(f"malformed language expression JSON: {data!r}")
