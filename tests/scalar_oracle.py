"""Scalar references that the library's row-driven code replaced, kept as
differential oracles for the tests.

``hardcore_step`` is one step of the diagonalization loop on scalar
membership, the reference that :func:`cptk.hardcore.hardcore_run`
reproduces; ``regular_index_decode`` decodes one regular family index
from scratch, the reference for the table-at-a-time decode of
:func:`cptk.families.regular_family`.  The code is a copy of what the
library held; only its own names are spelled out as imports.
"""

from __future__ import annotations

from cptk.dfa import Dfa
from cptk.families import FamilyEnum, _regular_block
from cptk.hardcore import (ACCEPTED, CANCELLED, REASON_BLOCKED, REASON_IN_CONDITION,
                           REASON_NOT_IN_TARGET, SKIPPED, DiagonalizationState,
                           TraceEntry)
from cptk.langs import LangExpr, member
from cptk.words import Alphabet, lex


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
