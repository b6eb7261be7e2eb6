"""The diagonalization, trace verifiers and trace reader that
:mod:`cptk.hardcore` replaced, kept as differential oracles for the tests.

``column_run`` decides every step on its own, reading one column bitset
per rank that ``_Guards`` fills bit by bit from each guarded index's row;
the library's ``hardcore_run`` decides only the steps that change state.
``one_loop_verify_trace`` runs its checks and its replay at every entry
of the trace; the library's ``verify_trace`` compares the text of a
clean prefix with its own replay's lines and decodes only from the first
line that differs.  ``two_pass_verify_trace`` checks the loop invariants
in one loop and then replays the whole diagonalization with
``column_run`` to compare traces.  ``per_line_trace_from_jsonl`` splits
lines with ``str.splitlines``; the library's reader splits them at
``"\\n"`` only.  ``_bits`` takes one lowest bit at a time; the library's
reads all binary digits at once.
The code is a copy of what the library held; only its own names are
spelled out as imports.
"""

from __future__ import annotations

import json

from cptk.families import FamilyEnum
from cptk.hardcore import (ACCEPTED, DiagonalizationState, TraceEntry, _step,
                           _violation)
from cptk.langs import LangExpr, window_rows
from cptk.words import Alphabet, lex, words_up_to

from .scalar_oracle import member


def _bits(mask: int):
    """The set bits of an int bitset, ascending, one lowest bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Guards:
    """The guarded indices by rank over lex(0..steps-1): bit i of
    ``cols[j]`` is set when index i is guarded at rank j and lex(j) lies
    in its language.

    Family rows are fetched for the indices below a bound that doubles as
    more indices become guarded, and never passes ``steps``.
    """

    def __init__(self, family: FamilyEnum, steps: int):
        self.family = family
        self.steps = steps
        self.cols = [0] * steps
        self.rows: list[int] = []

    def guard(self, i: int, n: int) -> None:
        """Index i is guarded from rank n on."""
        if n >= self.steps:
            return
        if i >= len(self.rows):
            bound = min(self.steps, max(2 * len(self.rows), i + 1))
            self.rows = self.family.rows(bound, self.steps - 1)
        bit = 1 << i
        cols = self.cols
        for j in _bits(self.rows[i] >> n):
            cols[n + j] |= bit


def column_run(family: FamilyEnum, condition: LangExpr, target: LangExpr,
               alphabet: Alphabet, steps: int
               ) -> tuple[DiagonalizationState, list[TraceEntry]]:
    """The diagonalization over the first ``steps`` words, one step per
    word.  The condition and target rows cover every rank; a guarded
    index adds its family row to the column bitsets of the ranks still to
    come, so each step reads one column and :func:`_step` decides it."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cond_row, target_row = window_rows([condition, target], alphabet, steps)
    guards = _Guards(family, steps)
    guards.guard(0, 0)
    cols = guards.cols
    accepted: list[str] = []
    cancelled = 0
    trace: list[TraceEntry] = []
    for n, w in enumerate(words_up_to(alphabet, steps)):
        action, hits, reason, blocking = _step(cols[n] & ~cancelled, cond_row >> n & 1,
                                               target_row >> n & 1)
        cancelled |= hits
        if action == ACCEPTED:
            accepted.append(w)
            guards.guard(len(accepted), n + 1)
        trace.append(TraceEntry(n, w, action, tuple(_bits(hits)), len(accepted),
                                reason, blocking))
    state = DiagonalizationState(steps, tuple(accepted), frozenset(_bits(cancelled)))
    return state, trace


def one_loop_verify_trace(trace: list[TraceEntry], family: FamilyEnum,
                          condition: LangExpr, target: LangExpr,
                          alphabet: Alphabet) -> dict:
    """The verifier with its checks and its replay at every entry.  Until
    the first entry that differs from the run's, the guards built from the
    trace's acceptances and the cancellations it lists are exactly the
    state of a fresh run, so :func:`_step` on that state gives the entry
    the run would write."""
    steps = len(trace)
    if steps < 1:
        raise ValueError("an empty trace has no steps to verify")
    violations = []
    cond_row, target_row = window_rows([condition, target], alphabet, steps)
    guards = _Guards(family, steps)
    guards.guard(0, 0)
    accepted_ranks: list[int] = []
    cancel: set[int] = set()
    cancel_mask = 0   # the cancelled indices that can ever be guarded
    divergence = None
    for pos, (entry, w) in enumerate(zip(trace, words_up_to(alphabet, steps))):
        if divergence is None:
            action, hits, reason, blocking = _step(guards.cols[pos] & ~cancel_mask,
                                                   cond_row >> pos & 1,
                                                   target_row >> pos & 1)
            want = (pos, w, action, tuple(_bits(hits)),
                    len(accepted_ranks) + (action == ACCEPTED), reason, blocking)
            if entry != want:
                divergence = _violation(pos, "replay-divergence",
                                        {"expected": TraceEntry(*want).to_json(),
                                         "found": entry.to_json()})
        if entry.n != pos:
            violations.append(_violation(entry.n, "step-numbering",
                                         f"expected step {pos}"))
            break
        if entry.word != w:
            violations.append(_violation(pos, "word-rank",
                                         f"word {entry.word!r} is not lex({pos})"))
            continue
        card_before = len(accepted_ranks)
        # (b) cancellations need their condition witness
        for i in entry.cancelled:
            guarded = 0 <= i <= card_before
            if not cond_row >> pos & 1:
                violations.append(_violation(pos, "cancel-no-condition-witness",
                                             f"index {i} cancelled on {w!r} not in the condition"))
            elif guarded and not member(family.expr(i), w, alphabet):
                violations.append(_violation(pos, "cancel-no-membership-witness",
                                             f"index {i} cancelled but {w!r} not in language {i}"))
            if not guarded:
                where = "negative" if i < 0 else f"beyond guard {card_before}"
                violations.append(_violation(pos, "cancel-outside-guard",
                                             f"index {i} {where}"))
            if i in cancel:
                violations.append(_violation(pos, "cancel-repeated",
                                             f"index {i} already cancelled"))
            cancel.add(i)
            if 0 <= i < steps:
                cancel_mask |= 1 << i
        if entry.action == ACCEPTED:
            # (d) prefix discipline
            if not target_row >> pos & 1:
                violations.append(_violation(pos, "accept-outside-target", w))
            if cond_row >> pos & 1:
                violations.append(_violation(pos, "accept-inside-condition", w))
            # (a) acceptance guard
            for i in _bits(guards.cols[pos] & ~cancel_mask):
                violations.append(_violation(pos, "accept-blocked",
                                             f"uncancelled index {i} contains {w!r}"))
            accepted_ranks.append(pos)
            guards.guard(len(accepted_ranks), pos + 1)
        if entry.card != len(accepted_ranks):
            violations.append(_violation(pos, "card-mismatch",
                                         f"declared {entry.card}, replay has {len(accepted_ranks)}"))
    # (c) finite-intersection bound for surviving guarded indices: index i
    # was guarded when the words from the i-th accepted one on were accepted
    final_card = len(accepted_ranks)
    since = [0] * (final_card + 1)
    for k in reversed(range(final_card)):
        since[k] = since[k + 1] | 1 << accepted_ranks[k]
    for i, row in enumerate(family.rows(final_card, steps - 1)):
        late = row & since[i]
        if late and i not in cancel:
            words = [lex(alphabet, r) for r in _bits(late)]
            violations.append(_violation(None, "late-intersection",
                                         f"index {i} meets words accepted while guarded: {words}"))
    if divergence is not None:
        violations.append(divergence)
    return {"ok": not violations, "violations": violations,
            "steps": steps, "final_card": final_card,
            "cancelled": sorted(cancel)}


def two_pass_verify_trace(trace: list[TraceEntry], family: FamilyEnum,
                          condition: LangExpr, target: LangExpr,
                          alphabet: Alphabet) -> dict:
    """The verifier with its replay as a second, separate run."""
    steps = len(trace)
    violations = []
    cond_row, target_row = window_rows([condition, target], alphabet, steps)
    guards = _Guards(family, steps)
    guards.guard(0, 0)
    accepted_ranks: list[int] = []
    cancel: set[int] = set()
    cancel_mask = 0   # the cancelled indices that can ever be guarded
    for pos, (entry, w) in enumerate(zip(trace, words_up_to(alphabet, steps))):
        if entry.n != pos:
            violations.append(_violation(entry.n, "step-numbering",
                                         f"expected step {pos}"))
            break
        if entry.word != w:
            violations.append(_violation(pos, "word-rank",
                                         f"word {entry.word!r} is not lex({pos})"))
            continue
        card_before = len(accepted_ranks)
        # (b) cancellations need their condition witness
        for i in entry.cancelled:
            guarded = 0 <= i <= card_before
            if not member(condition, w, alphabet):
                violations.append(_violation(pos, "cancel-no-condition-witness",
                                             f"index {i} cancelled on {w!r} not in the condition"))
            elif guarded and not member(family.expr(i), w, alphabet):
                violations.append(_violation(pos, "cancel-no-membership-witness",
                                             f"index {i} cancelled but {w!r} not in language {i}"))
            if not guarded:
                where = "negative" if i < 0 else f"beyond guard {card_before}"
                violations.append(_violation(pos, "cancel-outside-guard",
                                             f"index {i} {where}"))
            if i in cancel:
                violations.append(_violation(pos, "cancel-repeated",
                                             f"index {i} already cancelled"))
            cancel.add(i)
            if 0 <= i < steps:
                cancel_mask |= 1 << i
        if entry.action == ACCEPTED:
            # (d) prefix discipline
            if not target_row >> pos & 1:
                violations.append(_violation(pos, "accept-outside-target", w))
            if cond_row >> pos & 1:
                violations.append(_violation(pos, "accept-inside-condition", w))
            # (a) acceptance guard
            for i in _bits(guards.cols[pos] & ~cancel_mask):
                violations.append(_violation(pos, "accept-blocked",
                                             f"uncancelled index {i} contains {w!r}"))
            accepted_ranks.append(pos)
            guards.guard(len(accepted_ranks), pos + 1)
        if entry.card != len(accepted_ranks):
            violations.append(_violation(pos, "card-mismatch",
                                         f"declared {entry.card}, replay has {len(accepted_ranks)}"))
    # (c) finite-intersection bound for surviving guarded indices: index i
    # was guarded when the words from the i-th accepted one on were accepted
    final_card = len(accepted_ranks)
    since = [0] * (final_card + 1)
    for k in reversed(range(final_card)):
        since[k] = since[k + 1] | 1 << accepted_ranks[k]
    for i, row in enumerate(family.rows(final_card, steps - 1)):
        late = row & since[i]
        if late and i not in cancel:
            words = [lex(alphabet, r) for r in _bits(late)]
            violations.append(_violation(None, "late-intersection",
                                         f"index {i} meets words accepted while guarded: {words}"))
    # the trace must equal a fresh run bit for bit
    if trace:
        _, expected = column_run(family, condition, target, alphabet, steps)
        for pos, (want, found) in enumerate(zip(expected, trace)):
            if want != found:
                violations.append(_violation(pos, "replay-divergence",
                                             {"expected": want.to_json(),
                                              "found": found.to_json()}))
                break
    return {"ok": not violations, "violations": violations,
            "steps": steps, "final_card": final_card,
            "cancelled": sorted(cancel)}


def per_line_trace_from_jsonl(text: str) -> list[TraceEntry]:
    """The reader with ``json.loads`` on every line.  It splits lines with
    ``str.splitlines``, so it agrees with the library's reader only on text
    whose one line boundary is ``"\\n"``."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(TraceEntry.from_json(json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
    return out
