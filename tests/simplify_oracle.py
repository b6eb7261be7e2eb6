"""The structural simplifier and the automaton conversion that
:func:`cptk.langs.regular_view` replaced, kept as a differential oracle
for the tests.

``regular_view`` here is the old route: :func:`simplify` rewrites the
expression with sound marker, complement and distribution rules, and
:func:`_convert` turns the result into an automaton, or raises
:class:`NonRegularLeaf` at a predicate leaf that survived.  The library
now decides regularity by reading every predicate leaf as FULL and as
EMPTY; every expression this route makes regular must stay regular with
the same minimal automaton.  The code is a copy of what the library held;
only its own names are spelled out as imports, and
``dfa_word_starts_with``, which only the simplifier used, lives here.
"""

from __future__ import annotations

import itertools
import operator

from cptk.dfa import Dfa, dfa_for_finite
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter, LangExpr,
                        LeftMark, LeftQuotient, Predicate, Union, _alphabet_mismatch)
from cptk.words import Alphabet


class NonRegularLeaf(ValueError):
    """Raised when an opaque predicate blocks automaton conversion; it never
    leaves :func:`regular_view`, which returns None instead."""


def is_empty_expr(e: LangExpr) -> bool:
    return isinstance(e, FiniteSet) and not e.words


def is_full_expr(e: LangExpr) -> bool:
    return isinstance(e, Complement) and is_empty_expr(e.arg)


def dfa_word_starts_with(n_symbols: int, code: int) -> Dfa:
    """Automaton for the words whose first symbol has the given code."""
    # states: 0 initial, 1 accept-sink, 2 dead
    rows = (
        tuple(1 if x == code else 2 for x in range(n_symbols)),
        tuple(1 for _ in range(n_symbols)),
        tuple(2 for _ in range(n_symbols)),
    )
    return Dfa(n_symbols, rows, 0, frozenset({1}))


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
        unit, op = ((EMPTY, operator.or_) if isinstance(expr, Union)
                    else (FULL, operator.and_))
        acc = _convert(expr.args[0] if expr.args else unit, alphabet)
        for a in expr.args[1:]:
            acc = acc.product(_convert(a, alphabet), op).minimize()
        return acc
    if isinstance(expr, Complement):
        return _convert(expr.arg, alphabet).complement()
    if isinstance(expr, LeftMark):
        return _convert(expr.arg, alphabet).left_mark(alphabet.code(expr.symbol))
    if isinstance(expr, LeftQuotient):
        return _convert(expr.arg, alphabet).left_quotient(alphabet.codes(expr.word))
    raise TypeError(f"not a language expression: {expr!r}")


def regular_view(expr: LangExpr, alphabet: Alphabet) -> Dfa | None:
    """The minimal automaton if the simplified expression is regular."""
    try:
        return _convert(simplify(expr, alphabet), alphabet).minimize()
    except NonRegularLeaf:
        return None
