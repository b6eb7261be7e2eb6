"""Scalar references that the library's row-driven code replaced, kept as
differential oracles for the tests.

``member`` decides one word by walking the expression tree, with the
predicates as scalar tests on the word: the reference for
:func:`cptk.langs.member`, which reads the one-word window row of a
quotient, and the membership lookup of every other oracle here.
``hardcore_step`` is one step of the diagonalization loop on scalar
membership, the reference that :func:`cptk.hardcore.hardcore_run`
reproduces; ``regular_index_decode`` decodes one regular family index
from scratch, the reference for the table-at-a-time decode of
:func:`cptk.families.regular_family`.  The code is a copy of what the
library held; only its own names are spelled out as imports, and the
primality test is trial division instead of the library's sieve.
"""

from __future__ import annotations

from math import isqrt

from cptk.dfa import Dfa
from cptk.families import FamilyEnum, _regular_block
from cptk.hardcore import (ACCEPTED, CANCELLED, REASON_BLOCKED, REASON_IN_CONDITION,
                           REASON_NOT_IN_TARGET, SKIPPED, DiagonalizationState,
                           TraceEntry)
from cptk.langs import (Complement, DfaAtom, FiniteSet, Inter, LangExpr, LeftMark,
                        LeftQuotient, Predicate, Union, UnknownPredicate,
                        _alphabet_mismatch)
from cptk.words import Alphabet, lex


# ---------------------------------------------------------------------------
# scalar membership (was cptk.langs)


def _is_square(n):
    r = isqrt(n)
    return r * r == n


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def scalar_predicate(name: str):
    """The scalar test ``(alphabet, word) -> bool`` of a named predicate."""
    if name == "square-length":
        return lambda alphabet, word: _is_square(len(word))
    if name == "prime-length":
        return lambda alphabet, word: _is_prime(len(word))
    if name.startswith("equal-counts-") and len(name) == len("equal-counts-") + 2:
        x, y = name[-2], name[-1]
        if x != y:
            def scalar(alphabet, word):
                alphabet.code(x), alphabet.code(y)
                return word.count(x) == word.count(y)
            return scalar
    raise UnknownPredicate(name)


def member(expr: LangExpr, word: str, alphabet: Alphabet) -> bool:
    """Structural membership of one word."""
    alphabet.check(word)
    return _member(expr, word, alphabet)


def _member(expr, word, alphabet):
    if isinstance(expr, FiniteSet):
        return word in expr.words
    if isinstance(expr, DfaAtom):
        if expr.dfa.n_symbols != alphabet.size:
            raise _alphabet_mismatch(expr, alphabet)
        return expr.dfa.accepts(alphabet, word)
    if isinstance(expr, Predicate):
        return bool(scalar_predicate(expr.name)(alphabet, word))
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


# ---------------------------------------------------------------------------
# the diagonalization step (was cptk.hardcore)


def initial_state() -> DiagonalizationState:
    return DiagonalizationState(0, (), frozenset())


def _indexed_member(family: FamilyEnum, i: int, w: str) -> bool:
    return member(family.expr(i), w, family.alphabet)


def hardcore_step(state: DiagonalizationState, family: FamilyEnum,
                  condition: LangExpr, target: LangExpr,
                  alphabet: Alphabet) -> tuple[DiagonalizationState, TraceEntry]:
    """One loop iteration on the word of rank ``state.n``, by scalar
    membership: the reference that ``hardcore_run`` reproduces."""
    w = lex(alphabet, state.n)
    card = state.card
    cancel = state.cancelled
    newly_cancelled: list[int] = []
    in_condition = member(condition, w, alphabet)
    if in_condition:
        for i in range(card + 1):
            if i not in cancel and _indexed_member(family, i, w):
                newly_cancelled.append(i)
        if newly_cancelled:
            cancel = cancel | frozenset(newly_cancelled)
    accepted = state.accepted
    action, reason, blocking = SKIPPED, None, None
    if not in_condition and member(target, w, alphabet):
        blocker = None
        for i in range(card + 1):
            if i not in cancel and _indexed_member(family, i, w):
                blocker = i
                break
        if blocker is None:
            accepted = accepted + (w,)
            action = ACCEPTED
        else:
            reason, blocking = REASON_BLOCKED, blocker
    elif in_condition:
        reason = REASON_IN_CONDITION
    else:
        reason = REASON_NOT_IN_TARGET
    if action is SKIPPED and newly_cancelled:
        action = CANCELLED
    new_state = DiagonalizationState(state.n + 1, accepted, cancel)
    entry = TraceEntry(state.n, w, action, tuple(newly_cancelled),
                       len(accepted), reason, blocking)
    return new_state, entry


# ---------------------------------------------------------------------------
# the per-index regular decode (was cptk.families)


def regular_index_decode(i: int, n_symbols: int) -> Dfa:
    """The i-th complete automaton (initial state 0) in canonical order."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    n = 1
    while i >= _regular_block(n, n_symbols):
        i -= _regular_block(n, n_symbols)
        n += 1
    table_rank, acc_rank = divmod(i, 2 ** n)
    digits = []
    for _ in range(n * n_symbols):
        table_rank, d = divmod(table_rank, n)
        digits.append(d)
    digits.reverse()
    rows = tuple(tuple(digits[s * n_symbols:(s + 1) * n_symbols]) for s in range(n))
    accepting = frozenset(s for s in range(n) if acc_rank & (1 << (n - 1 - s)))
    return Dfa(n_symbols, rows, 0, accepting)
