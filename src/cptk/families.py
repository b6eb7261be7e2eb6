"""Denumerable language families as index-to-expression enumerations.

A family is a total generator from naturals to language expressions plus
declared closure flags.  The uniform word problem ``word_e(i, j)`` asks
whether the j-th word belongs to the i-th language; it stays total under
every closure operator because derived indices decode through exact
integer codecs.

The shipped regular family enumerates every complete automaton over the
alphabet by (state count, transition table, accepting set); the table and
the accepting characteristic vector are both ranked lexicographically with
the first position most significant.  Canonical indices of minimized
automata are computable in both directions.  Its window rows come straight
from the transition tables, a stack of tables per pass, and
:class:`ClassIndex` asks it for the largest state count below a bound,
read from the block starts; neither builds an automaton per index.  The
finite family builds its rows from the decoded word ranks, with no
expression.  Other families find their rows from their expressions and
state no bound.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass

from . import codec, kernels
from .dfa import Dfa, dfa_length_equals
from .langs import (EMPTY, MAX_EXPR_DEPTH, Complement, DfaAtom, FiniteSet, Inter,
                    LangExpr, Union, _evaluate, expr_from_json, intersection_views,
                    member, regular_view, window_rows)
from .verdicts import validate_horizon
from .words import Alphabet, lex


@dataclass(frozen=True)
class FamilyFlags:
    """Closure properties declared for a family (they are semantic claims
    about the whole family, not per-index facts)."""

    nontrivial: bool = False
    union_closed: bool = False
    inter_closed: bool = False
    complement_closed: bool = False

    def to_json(self) -> dict:
        return {
            "nontrivial": self.nontrivial,
            "union_closed": self.union_closed,
            "inter_closed": self.inter_closed,
            "complement_closed": self.complement_closed,
        }


# horizons whose window rows a family keeps
ROW_HORIZONS = 4


class FamilyEnum:
    """An enumerated family with memoized expressions and window rows."""

    def __init__(self, name: str, alphabet: Alphabet, generator, exact: bool,
                 flags: FamilyFlags = FamilyFlags(), row_builder=None,
                 state_bound=None):
        self.name = name
        self.alphabet = alphabet
        self.generator = generator
        self.exact = exact
        self.flags = flags
        #: ``row_builder(lo, hi, count)``: the rows of the indices lo..hi-1
        #: over lex(0..count-1), as :func:`langs.window_rows` finds them for
        #: their expressions, which :meth:`rows` runs without it;
        #: ``state_bound(index_bound)``: the most states of an automaton
        #: below the bound (1 below bound 0), stated only by a family whose
        #: indices are all automaton atoms; without it :class:`ClassIndex`
        #: splits rows.
        self.row_builder = row_builder
        self.state_bound = state_bound
        self._exprs: dict[int, LangExpr] = {}
        self._rows: dict[int, list[int]] = {}
        #: ``classes(index_bound, horizon)``, the ``ROW_HORIZONS`` latest kept
        self.classes = functools.lru_cache(ROW_HORIZONS)(
            lambda index_bound, horizon: ClassIndex(self, index_bound, horizon))

    def __repr__(self):
        return f"FamilyEnum({self.name!r}, alphabet={self.alphabet})"

    def expr(self, i: int) -> LangExpr:
        if i < 0:
            raise ValueError("family index must be nonnegative")
        e = self._exprs.get(i)
        if e is None:
            e = self.generator(i)
            self._exprs[i] = e
        return e

    def word_e(self, i: int, j: int) -> bool:
        """The uniform word problem: is lex(j) in the i-th language?"""
        return member(self.expr(i), lex(self.alphabet, j), self.alphabet)

    def rows(self, index_bound: int, horizon: int) -> list[int]:
        """Window rows of the indices below the bound: bit j of row i is
        set when lex(j) is in e(i), for j = 0..horizon.

        One list per horizon, extended when a larger bound asks for more;
        the lists of the ``ROW_HORIZONS`` most recently used horizons are
        kept.  Without a row builder the rows are evaluated past the row
        memo of :func:`langs.window_rows`, which these lists would flood.
        """
        cached = self._rows.pop(horizon, [])
        self._rows[horizon] = cached
        if len(self._rows) > ROW_HORIZONS:
            del self._rows[next(iter(self._rows))]
        if len(cached) < index_bound:
            lo = len(cached)
            if self.row_builder is not None:
                cached.extend(self.row_builder(lo, index_bound, horizon + 1))
            else:
                cached.extend(_evaluate([self.expr(i) for i in range(lo, index_bound)],
                                        self.alphabet, horizon + 1))
        return cached[:index_bound]


class ClassIndex:
    """The indices below a bound grouped by language, keyed by their rows
    over lex(0..horizon).

    Equal languages have equal rows.  Automata with at most N states whose
    languages differ, or are not complements, show it on a word of length
    at most 2N - 2 (Moore 1956).  So on a family that bounds its automata's
    states by N (:attr:`FamilyEnum.state_bound`), equal rows mean equal
    languages once the window holds every word that short, and each row is
    one class.  Otherwise the rows are split: on exact families a row
    shared by several indices is split by the indices' minimal automata
    from :func:`langs.regular_view`, equal exactly when the languages are,
    and complement classes are confirmed on the same automata.  On families
    that are not exact, languages cannot be compared, so each index is its
    own class, and its complement class is the least index with the
    complement row.
    """

    def __init__(self, family: FamilyEnum, index_bound: int, horizon: int):
        self.family, self.horizon = family, horizon
        self.rows = family.rows(index_bound, horizon)
        self.full = (1 << (horizon + 1)) - 1
        bound = family.state_bound
        self.split = bound is None or (len(lex(family.alphabet, horizon + 1))
                                       <= 2 * bound(index_bound) - 2)
        # row -> its class, or on the split route its classes; one list per
        # class on the other route, since a lasting index of thousands of
        # small lists makes the collector's young generations slow
        self._at = _group(range(index_bound), self.rows.__getitem__)
        if self.split:
            # the split key: the minimal automaton on exact families, and
            # the index on the others, whose languages cannot be compared
            key = self._view if family.exact else (lambda i: i)
            self._at = {row: list(_group(members, key).values())
                        if len(members) > 1 else [members]
                        for row, members in self._at.items()}
            #: the classes in order of least index
            self.classes = sorted((c for at in self._at.values() for c in at),
                                  key=lambda c: c[0])
        else:
            self.classes = list(self._at.values())

    def leaders(self, row: int) -> list[int]:
        """The least index of each class with this row, ascending."""
        at = self._at.get(row)
        if at is None:
            return []
        return [c[0] for c in at] if self.split else at[:1]

    def leaders_containing(self, row: int) -> list[int]:
        """The leaders, ascending, whose rows hold every word of ``row``."""
        if self.split:
            return sorted(i for r in self._at if not row & ~r for i in self.leaders(r))
        # one class per row, and the rows in order of their least index
        return [at[0] for r, at in self._at.items() if not row & ~r]

    def complement(self, cls: list[int]) -> list[int]:
        """The class of the complement of a class's language, or []."""
        at = self._at.get(self.full & ~self.rows[cls[0]])
        if at is None:
            return []
        if not self.split:
            return at
        if not self.family.exact:
            return at[0]
        least = self.index_of(self._view(cls[0]).complement())
        return next((c for c in at if c[0] == least), [])

    def index_of(self, dfa: Dfa) -> int | None:
        """The least index whose minimal automaton, from
        :func:`langs.regular_view`, is the minimal automaton ``dfa``."""
        row = window_rows([DfaAtom(dfa)], self.family.alphabet, self.horizon + 1)[0]
        return next((i for i in self.leaders(row) if self._view(i) == dfa), None)

    def _view(self, i: int) -> Dfa | None:
        """The language key of index i: its minimal automaton."""
        return regular_view(self.family.expr(i), self.family.alphabet)


def _group(indices, key) -> dict:
    out: dict = {}
    for i in indices:
        out.setdefault(key(i), []).append(i)
    return out


# ---------------------------------------------------------------------------
# shipped families


def _regular_block(n_states: int, n_symbols: int) -> int:
    return n_states ** (n_states * n_symbols) * 2 ** n_states


def _regular_table(table_rank: int, n: int, n_symbols: int) -> tuple:
    """The rows of the n-state transition table of this rank, the first
    position most significant."""
    digits = []
    for _ in range(n * n_symbols):
        table_rank, d = divmod(table_rank, n)
        digits.append(d)
    digits.reverse()
    return tuple(tuple(digits[s * n_symbols:(s + 1) * n_symbols]) for s in range(n))


def regular_index_encode(dfa: Dfa) -> int:
    """Index of this exact automaton shape (not of its minimal form)."""
    n = dfa.n_states
    base = sum(_regular_block(m, dfa.n_symbols) for m in range(1, n))
    table_rank = 0
    for row in dfa.transitions:
        for d in row:
            table_rank = table_rank * n + d
    acc_rank = sum(1 << (n - 1 - s) for s in dfa.accepting)
    if dfa.initial != 0:
        raise ValueError("enumeration fixes the initial state at 0")
    return base + table_rank * 2 ** n + acc_rank


def canonical_index(dfa: Dfa) -> int:
    """Least enumeration index whose automaton is the minimal form of ``dfa``."""
    return regular_index_encode(dfa.minimize())


def _regular_rows(n: int, n_symbols: int, lo: int, hi: int, count: int) -> list[int]:
    """The rows over lex(0..count-1) of the offsets lo..hi-1 into the
    n-state block of the regular family.

    The range's tables are decoded with :func:`kernels.table_digits` and
    run in one :func:`kernels.state_rows` call; the 2^n accepting sets of a
    table are built up one state at a time, each set's row one OR of a
    smaller set's row and a state's row.
    """
    first, last = lo >> n, (hi - 1) >> n  # the tables of the range
    tables = last + 1 - first
    states = kernels.state_rows(kernels.table_digits(first, last, n, n_symbols),
                                [n] * tables, [0] * tables, [range(n)] * tables, count)
    out = []
    for t in range(0, len(states), n):
        # acc rank a accepts in state s when bit n-1-s of a is set
        sets = [0]
        for state in reversed(states[t:t + n]):
            sets += [row | state for row in sets]
        out += sets
    skip = lo - (first << n)
    return out[skip:skip + hi - lo]


def regular_family(alphabet: Alphabet) -> FamilyEnum:
    """Every regular language over the alphabet, with many duplicate indices.

    Index i is the automaton (initial state 0) that
    :func:`regular_index_encode` maps to i.  Its expression is decoded one
    transition table at a time: the 2^n indices of an n-state table differ
    only in their accepting set, so they share one rows tuple (decoded and
    checked once), and the accepting sets are shared per (n, rank).  The
    family's window rows come straight from the tables
    (:func:`_regular_rows`), and the largest state count below a bound from
    the block starts, so neither builds an automaton per index.
    """
    n_symbols = alphabet.size
    starts = [0]  # starts[n - 1]: the first index of the n-state block
    tables: dict[tuple[int, int], tuple] = {}
    accepting: dict[tuple[int, int], frozenset[int]] = {}

    def states_of(i: int) -> int:
        """The state count of index i; starts[n] exists once it returns n."""
        if i < 0:
            raise ValueError("index must be nonnegative")
        while starts[-1] <= i:
            starts.append(starts[-1] + _regular_block(len(starts), n_symbols))
        return bisect.bisect_right(starts, i)

    def gen(i: int) -> LangExpr:
        n = states_of(i)
        table_rank, acc_rank = divmod(i - starts[n - 1], 2 ** n)
        rows = tables.get((n, table_rank))
        if rows is None:
            rows = tables[n, table_rank] = _regular_table(table_rank, n, n_symbols)
        acc = accepting.get((n, acc_rank))
        if acc is None:
            acc = accepting[n, acc_rank] = frozenset(
                s for s in range(n) if acc_rank & (1 << (n - 1 - s)))
        return DfaAtom(Dfa(n_symbols, rows, 0, acc))

    def row_builder(lo: int, hi: int, count: int) -> list[int]:
        out = []
        while lo < hi:
            n = states_of(lo)
            end = min(hi, starts[n])
            out += _regular_rows(n, n_symbols, lo - starts[n - 1], end - starts[n - 1],
                                 count)
            lo = end
        return out

    def state_bound(index_bound: int) -> int:
        return states_of(index_bound - 1) if index_bound > 0 else 1

    return FamilyEnum("regular", alphabet, gen, exact=True,
                      flags=FamilyFlags(nontrivial=True, union_closed=True,
                                        inter_closed=True, complement_closed=True),
                      row_builder=row_builder, state_bound=state_bound)


def length_family(alphabet: Alphabet) -> FamilyEnum:
    """e(i) = all words of length exactly i."""

    def gen(i: int) -> LangExpr:
        return DfaAtom(dfa_length_equals(alphabet.size, i))

    return FamilyEnum("length", alphabet, gen, exact=True, flags=FamilyFlags())


def finite_family(alphabet: Alphabet) -> FamilyEnum:
    """All finite languages: index 0 is empty, others decode rank tuples.

    A window row is built from the ranks themselves: the bits of the ranks
    below the window's end.
    """
    # lex(0..r) for the largest rank r decoded so far; the ranks of index
    # i are below i, so this list never outgrows the family's expressions
    words: list[str] = []

    def gen(i: int) -> LangExpr:
        if i == 0:
            return EMPTY
        ranks = codec.seq_decode(i - 1)
        top = max(ranks)
        if top >= len(words):
            words.extend(lex(alphabet, r) for r in range(len(words), top + 1))
        return FiniteSet(tuple(words[r] for r in ranks))

    def row_builder(lo: int, hi: int, count: int) -> list[int]:
        # index i > 0 holds the words of the ranks seq_decode(i - 1)
        return [sum({1 << r for r in codec.seq_decode(i - 1) if r < count}) if i else 0
                for i in range(lo, hi)]

    return FamilyEnum("finite", alphabet, gen, exact=True,
                      flags=FamilyFlags(nontrivial=False, union_closed=True,
                                        inter_closed=True, complement_closed=False),
                      row_builder=row_builder)


def list_family(name: str, alphabet: Alphabet, exprs,
                flags: FamilyFlags = FamilyFlags()) -> FamilyEnum:
    """A user family: the listed expressions repeated periodically; exact
    when every expression has a minimal automaton."""
    exprs = list(exprs)
    if not exprs:
        raise ValueError("list family needs at least one expression")
    exact = all(regular_view(e, alphabet) is not None for e in exprs)

    def gen(i: int) -> LangExpr:
        return exprs[i % len(exprs)]

    return FamilyEnum(name, alphabet, gen, exact=exact, flags=flags)


# ---------------------------------------------------------------------------
# closure operators on enumerations


def close_u(family: FamilyEnum) -> FamilyEnum:
    def gen(i: int) -> LangExpr:
        parts = codec.seq_decode(i)
        return Union(tuple(family.expr(k) for k in parts))

    f = family.flags
    return FamilyEnum(f"u({family.name})", family.alphabet, gen, family.exact,
                      FamilyFlags(nontrivial=f.nontrivial, union_closed=True,
                                  inter_closed=f.inter_closed, complement_closed=False))


def close_s(family: FamilyEnum) -> FamilyEnum:
    def gen(i: int) -> LangExpr:
        parts = codec.seq_decode(i)
        return Inter(tuple(family.expr(k) for k in parts))

    f = family.flags
    return FamilyEnum(f"s({family.name})", family.alphabet, gen, family.exact,
                      FamilyFlags(nontrivial=f.nontrivial, union_closed=f.union_closed,
                                  inter_closed=True, complement_closed=False))


def close_co(family: FamilyEnum) -> FamilyEnum:
    def gen(i: int) -> LangExpr:
        return Complement(family.expr(i))

    f = family.flags
    return FamilyEnum(f"co({family.name})", family.alphabet, gen, family.exact,
                      FamilyFlags(nontrivial=f.nontrivial, union_closed=f.inter_closed,
                                  inter_closed=f.union_closed,
                                  complement_closed=f.complement_closed))


def close_cc(family: FamilyEnum) -> FamilyEnum:
    """Even indices reproduce the family, odd indices its complements."""

    def gen(i: int) -> LangExpr:
        base, flip = divmod(i, 2)
        e = family.expr(base)
        return Complement(e) if flip else e

    f = family.flags
    return FamilyEnum(f"cc({family.name})", family.alphabet, gen, family.exact,
                      FamilyFlags(nontrivial=f.nontrivial, union_closed=False,
                                  inter_closed=False, complement_closed=True))


def close_b(family: FamilyEnum) -> FamilyEnum:
    """Boolean closure: unions of intersections over the two-sided family."""
    g = close_u(close_s(close_cc(family)))
    g.name = f"b({family.name})"
    g.flags = FamilyFlags(nontrivial=family.flags.nontrivial, union_closed=True,
                          inter_closed=True, complement_closed=True)
    return g


CLOSURES = {"u": close_u, "s": close_s, "co": close_co, "cc": close_cc, "b": close_b}


# ---------------------------------------------------------------------------
# language classes and complement pairs inside a family


@dataclass(frozen=True)
class DcMember:
    """Indices (i, j) with the claim that language i is the complement of
    language j, either proven on automata or checked to a horizon."""

    i: int
    j: int
    status: str  # "exact" | "horizon"
    horizon: int | None = None

    def to_json(self) -> dict:
        out = {"i": self.i, "j": self.j, "status": self.status}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        return out


def language_classes(family: FamilyEnum, index_bound: int,
                     horizon: int) -> list[tuple[list[int], list[int]]]:
    """The language classes below the bound (see :class:`ClassIndex`) in order
    of least index, each with the indices of its complement class, if any."""
    index = family.classes(index_bound, horizon)
    return [(cls, index.complement(cls)) for cls in index.classes]


def inside_check(family: FamilyEnum, region: LangExpr, index_bound: int, horizon: int):
    """The test ``inside(i)`` of an index i below the bound: does
    ``subset_of(e(i), region)`` certify it?  Only the indices whose rows
    hold no window word outside the region ask; such a word refutes
    containment on both routes of :func:`langs.emptiness`.

    The others are certified exactly when the view of e(i) ∩ regionᶜ is
    empty, from :func:`langs.intersection_views`: when e(i) reads no
    predicate leaf, as on every shipped family, when the base and every
    disagreement of the readings of regionᶜ, found once on first need,
    miss e(i)'s automaton.
    """
    rows, alphabet = family.rows(index_bound, horizon), family.alphabet
    outside = ~window_rows([region], alphabet, horizon + 1)[0]
    meet = intersection_views(Complement(region), alphabet)

    def certified(i):
        view = meet(family.expr(i))
        return view is not None and view.least_accepted() is None

    return lambda i: not rows[i] & outside and certified(i)


def dc_member(family: FamilyEnum, i: int, j: int, horizon: int) -> DcMember:
    """A pair of indices from complement classes: proven on exact
    families, and on the others when both languages have minimal automata,
    from :func:`langs.regular_view`, and one is the other's complement;
    else checked to the horizon."""
    if family.exact:
        return DcMember(i, j, "exact")
    vi, vj = (regular_view(family.expr(k), family.alphabet) for k in (i, j))
    if vi is not None and vj is not None and vi.complement() == vj:
        return DcMember(i, j, "exact")
    return DcMember(i, j, "horizon", horizon)


# ---------------------------------------------------------------------------
# algebraic-law harness

LAW_IDS = ("distributivity", "deMorgan", "cc-dc-fixpoint", "co-involution",
           "nontriviality-preservation")


def _law_report(law, samples, horizon):
    return {"law": law, "samples": samples, "horizon": horizon,
            "agreements": 0, "disagreements": 0, "first_counterexample": None}


def _record(report, holds, sample, word=None):
    """Count one sample; the first that breaks the law is the counterexample."""
    if holds:
        report["agreements"] += 1
        return
    report["disagreements"] += 1
    if report["first_counterexample"] is None:
        report["first_counterexample"] = {"sample": sample, "word": word}


def _compare_on_window(report, family, expr_a, expr_b, horizon, label):
    ra, rb = window_rows([expr_a, expr_b], family.alphabet, horizon + 1)
    diff = ra ^ rb
    _record(report, not diff, label,
            lex(family.alphabet, (diff & -diff).bit_length() - 1) if diff else None)


# the law harness samples indices below this bound
LAW_INDEX_POOL = 64


def check_law(law_id: str, family: FamilyEnum, index_samples: int, horizon: int,
              seed: int = 0) -> dict:
    """Spot-check one closure-algebra identity on sampled indices below
    ``LAW_INDEX_POOL``.

    Both sides of each identity are realized through the enumeration
    codecs and compared word by word on lex(0..horizon).
    """
    if law_id not in LAW_IDS:
        raise ValueError(f"unknown law {law_id!r}; choose from {LAW_IDS}")
    validate_horizon(horizon)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    # random() is the one method whose stream Python keeps for a given seed
    rng = random.Random(seed)
    report = _law_report(law_id, index_samples, horizon)

    if law_id == "distributivity":
        fu_s = close_s(close_u(family))
        fs_u = close_u(close_s(family))
        for _ in range(index_samples):
            parts = [[int(rng.random() * LAW_INDEX_POOL)
                      for _ in range(1 + int(rng.random() * 2))]
                     for _ in range(1 + int(rng.random() * 2))]
            inter_of_unions = codec.seq_code([codec.seq_code(p) for p in parts])
            choices = list(itertools.product(*parts))
            union_of_inters = codec.seq_code([codec.seq_code(c) for c in choices])
            _compare_on_window(report, family, fu_s.expr(inter_of_unions),
                               fs_u.expr(union_of_inters), horizon,
                               {"parts": parts})
    elif law_id == "deMorgan":
        co_u = close_u(close_co(family))
        s_co = close_co(close_s(family))
        for _ in range(index_samples):
            parts = [int(rng.random() * LAW_INDEX_POOL)
                     for _ in range(1 + int(rng.random() * 3))]
            code = codec.seq_code(parts)
            _compare_on_window(report, family, co_u.expr(code), s_co.expr(code),
                               horizon, {"parts": parts})
    elif law_id == "co-involution":
        coco = close_co(close_co(family))
        for _ in range(index_samples):
            i = int(rng.random() * LAW_INDEX_POOL)
            _compare_on_window(report, family, coco.expr(i), family.expr(i),
                               horizon, {"index": i})
    elif law_id == "cc-dc-fixpoint":
        cc = close_cc(family)
        for _ in range(index_samples):
            i = int(rng.random() * 2 * LAW_INDEX_POOL)
            partner = i + 1 if i % 2 == 0 else i - 1
            _compare_on_window(report, family, Complement(cc.expr(i)),
                               cc.expr(partner), horizon,
                               {"index": i, "partner": partner})
    else:  # nontriviality-preservation
        for op_name, op in CLOSURES.items():
            closed = op(family)
            if not (family.flags.nontrivial and closed.flags.nontrivial):
                # broken when the closure drops the flag, and vacuous when
                # the family never declared it
                _record(report, not family.flags.nontrivial, {"closure": op_name})
                continue
            # the empty and the full row both occur among the pool's indices
            trivial, seen = {0, (1 << (horizon + 1)) - 1}, set()
            for i in range(LAW_INDEX_POOL):
                seen.add(window_rows([closed.expr(i)], family.alphabet, horizon + 1)[0])
                if trivial <= seen:
                    break
            _record(report, trivial <= seen, {"closure": op_name})
    return report


# ---------------------------------------------------------------------------
# loading from JSON


def family_from_json(data: dict) -> FamilyEnum:
    alphabet = Alphabet.parse(data["alphabet"], data.get("order"))
    if "builtin" in data:
        builders = {"regular": regular_family, "finite": finite_family,
                    "length": length_family}
        fam = _named(builders, data["builtin"], "builtin family")(alphabet)
    elif "list" in data:
        exprs, declared = data["list"], data.get("flags", {})
        if type(exprs) is not list:
            raise ValueError(f"'list' must be a list, not {exprs!r}")
        if type(declared) is not dict:
            raise ValueError(f"'flags' must be a JSON object, not {declared!r}")
        exprs = [expr_from_json(e, alphabet) for e in exprs]
        flags = FamilyFlags(**{k: declared.get(k, False) for k in FamilyFlags().to_json()})
        if any(type(v) is not bool for v in flags.to_json().values()):
            raise ValueError(f"family flags must be true or false, not {declared!r}")
        fam = list_family(data.get("name", "user"), alphabet, exprs, flags)
    else:
        raise ValueError("family JSON needs 'builtin' or 'list'")
    closure = data.get("closure", [])
    if not isinstance(closure, list):
        raise ValueError("'closure' must be a list of operator names")
    # each operator nests the expressions one level, b three (u of s of cc)
    if sum(3 if op_name == "b" else 1 for op_name in closure) > MAX_EXPR_DEPTH:
        raise ValueError(f"closure operators nested deeper than {MAX_EXPR_DEPTH} levels")
    for op_name in closure:
        fam = _named(CLOSURES, op_name, "closure operator")(fam)
    return fam


def _named(table: dict, name, what: str):
    """The entry of ``table`` named by the JSON value ``name``; a value
    that is not one of its keys, a list too, raises ValueError."""
    if type(name) is not str or name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    return table[name]
