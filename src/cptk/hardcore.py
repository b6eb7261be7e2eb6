"""Streaming diagonalization against a family enumeration.

The loop walks words in length-lexicographic order.  A word inside the
condition cancels every guarded index whose language contains it and is
never accepted; a word inside the target and outside the condition is
accepted only if no uncancelled guarded index claims it.  Guarded means
index at most the current accepted count, inclusive.  The construction
is inherently sequential and emits one trace entry per word; traces are
bit-reproducible and replay-verifiable.

:func:`hardcore_run` and :func:`verify_trace` work on int bitset window
rows: the condition and target rows over every rank, and the family rows
of the guarded indices folded into one column bitset per rank, so a step
reads one column instead of asking each guarded language about its word.
Both decide a step by the one rule of :func:`_step`; the verifier replays
the run inside its own loop, from the state the trace itself builds, and
looks up each cancellation witness by scalar membership.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .classify import ConditionalProblem, is_infinite_evidence, validate_bounds
from .families import FamilyEnum, inside_check
from .langs import Inter, LangExpr, is_finite, member, subset_of, window_rows
from .words import Alphabet, lex, words_up_to


@dataclass(frozen=True)
class DiagonalizationState:
    """Loop state: step counter, accepted prefix, cancelled indices."""

    n: int
    accepted: tuple[str, ...]
    cancelled: frozenset[int]

    @property
    def card(self) -> int:
        return len(self.accepted)


ACCEPTED = "accepted"
CANCELLED = "cancelled"
SKIPPED = "skipped"

REASON_BLOCKED = "blocked"
REASON_NOT_IN_TARGET = "not-in-target"
REASON_IN_CONDITION = "in-condition"


class TraceEntry(NamedTuple):
    """One step of a trace: the step number and its word, what the step
    did, the indices it cancelled, and the accepted count after it."""

    n: int
    word: str
    action: str
    cancelled: tuple[int, ...]
    card: int
    reason: str | None = None
    blocking: int | None = None

    def to_json(self) -> dict:
        out = {"n": self.n, "word": self.word, "action": self.action,
               "cancelled": list(self.cancelled), "card": self.card}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.blocking is not None:
            out["blocking"] = self.blocking
        return out

    @classmethod
    def from_json(cls, data) -> "TraceEntry":
        """The entry of one decoded trace line.

        ``n``, ``card`` and each element of the list ``cancelled`` must be
        JSON integers, ``word`` and ``action`` strings; ``blocking`` is an
        integer and ``reason`` a string, or either is null or absent.
        Anything else raises :class:`ValueError`.
        """
        if type(data) is not dict:
            raise ValueError("entry is not a JSON object")
        # exact types: a JSON boolean decodes to bool, a subclass of int
        for key, kind in _REQUIRED_FIELDS:
            if type(data.get(key)) is not kind:
                raise _field_error(data, key, kind)
        for key, kind in _OPTIONAL_FIELDS:
            value = data.get(key)
            if value is not None and type(value) is not kind:
                raise _field_error(data, key, kind)
        cancelled = data["cancelled"]
        if any(type(i) is not int for i in cancelled):
            raise ValueError(f"field 'cancelled' must list integers, not {cancelled!r}")
        return cls(data["n"], data["word"], data["action"], tuple(cancelled),
                   data["card"], data.get("reason"), data.get("blocking"))


# the JSON type of each trace field; the optional ones may be null or absent
_REQUIRED_FIELDS = (("n", int), ("word", str), ("action", str),
                    ("cancelled", list), ("card", int))
_OPTIONAL_FIELDS = (("reason", str), ("blocking", int))
_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _field_error(data: dict, key: str, kind: type) -> ValueError:
    if key not in data:
        return ValueError(f"missing field {key!r}")
    return ValueError(f"field {key!r} must be {_JSON_TYPE_NAMES[kind]}, not {data[key]!r}")


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


def _bits(mask: int):
    """The set bits of an int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _step(col: int, cancelled: int, in_condition: int, in_target: int
          ) -> tuple[str, int, str | None, int | None]:
    """One step of the loop on one word: its action, the bitset of the
    indices it cancels, its reason and its blocking index.

    ``col`` holds the guarded indices whose languages contain the word,
    ``cancelled`` the indices cancelled before it.  A condition word cancels
    every uncancelled index of its column; a target word outside the
    condition is blocked by the least of them, and accepted when there is
    none.
    """
    live = col & ~cancelled
    if in_condition:
        return (CANCELLED if live else SKIPPED), live, REASON_IN_CONDITION, None
    if not in_target:
        return SKIPPED, 0, REASON_NOT_IN_TARGET, None
    if live:
        return SKIPPED, 0, REASON_BLOCKED, (live & -live).bit_length() - 1
    return ACCEPTED, 0, None, None


def hardcore_run(family: FamilyEnum, condition: LangExpr, target: LangExpr,
                 alphabet: Alphabet, steps: int
                 ) -> tuple[DiagonalizationState, list[TraceEntry]]:
    """The diagonalization over the first ``steps`` words, on window rows.

    Step n runs the loop of the module docstring on lex(n).  The
    condition and target rows cover every rank; a guarded index adds its
    family row to the column bitsets of the ranks still to come, so each
    step reads one column and :func:`_step` decides it.

    The accepted prefix decides membership below rank ``steps`` exactly
    (accept exactly the listed words); beyond that the run says nothing.
    """
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
        action, hits, reason, blocking = _step(cols[n], cancelled, cond_row >> n & 1,
                                               target_row >> n & 1)
        cancelled |= hits
        if action == ACCEPTED:
            accepted.append(w)
            guards.guard(len(accepted), n + 1)
        trace.append(TraceEntry(n, w, action, tuple(_bits(hits)), len(accepted),
                                reason, blocking))
    state = DiagonalizationState(steps, tuple(accepted), frozenset(_bits(cancelled)))
    return state, trace


# ---------------------------------------------------------------------------
# trace verification


def _violation(step, code, detail):
    return {"step": step, "code": code, "detail": detail}


def verify_trace(trace: list[TraceEntry], family: FamilyEnum, condition: LangExpr,
                 target: LangExpr, alphabet: Alphabet) -> dict:
    """Replay a trace and assert the loop invariants.

    Checks: (a) every accepted word avoids every uncancelled guarded
    language at its step; (b) every cancellation has its in-condition
    witness and names a guarded index; (c) finally-uncancelled guarded
    languages meet the accepted prefix only among the words accepted
    before they became guarded; (d) the prefix lies in the target and
    avoids the condition (it is strictly increasing because every checked
    entry holds the word of its step); and full equality with a fresh run.

    The replay runs inside the one loop: until the first entry that
    differs from the run's, the guards built from the trace's acceptances
    and the cancellations it lists are exactly the state of a fresh
    :func:`hardcore_run`, so :func:`_step` on that state gives the entry
    the run would write.  The first difference is reported last, as
    ``replay-divergence``.

    Checks (a), (c) and (d), and the condition witness of (b), read window
    rows over ``len(trace)`` words; the family witness of (b) is looked up
    by :func:`langs.member`, once per listed cancellation.  An index
    outside the guard is reported without looking up its language.  An
    empty trace raises ValueError: a run writes at least one step.
    """
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
            action, hits, reason, blocking = _step(guards.cols[pos], cancel_mask,
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


# ---------------------------------------------------------------------------
# hard-core reports


def is_proper_hardcore(b: LangExpr, target: LangExpr, family: FamilyEnum,
                       index_bound: int, horizon: int = 300) -> dict:
    """Bound-relative check that ``b`` is an infinite subset of the target
    meeting every in-target family language only finitely.

    Only an exactly-infinite intersection violates; horizon evidence is
    reported separately as suspicion.
    """
    validate_bounds(index_bound, horizon)
    alphabet = family.alphabet
    b_finiteness = is_finite(b, alphabet, horizon)
    containment = subset_of(b, target, alphabet, horizon)
    # both checks depend only on the language: once per class on exact families
    groups = (family.classes(index_bound, horizon).classes if family.exact
              else [[i] for i in range(index_bound)])
    inside = inside_check(family, target, index_bound, horizon)
    meets = {}
    for members in groups:
        if inside(members[0]):
            e = family.expr(members[0])
            meets.update(dict.fromkeys(members, is_finite(Inter((b, e)), alphabet, horizon)))
    ordered = sorted(meets.items())
    violations = [{"index": i, "evidence": m.to_json()} for i, m in ordered if m.is_infinite]
    suspects = [{"index": i, "members_seen": m.count} for i, m in ordered
                if m.is_unknown and is_infinite_evidence(m)]
    holds = (not violations) and not containment.is_refuted \
        and not b_finiteness.is_finite
    return {
        "holds_up_to_bounds": holds,
        "b_infinite": b_finiteness.to_json(),
        "containment": containment.to_json(),
        "violations": violations,
        "suspects": suspects,
        "index_bound": index_bound,
        "horizon": horizon,
    }


def hardcore_componentwise(cond: ConditionalProblem, family: FamilyEnum,
                           steps: int) -> list[dict]:
    """Run the diagonalization once per component against the shared
    condition; each run carries its own trace."""
    out = []
    for t, comp in enumerate(cond.problem.components):
        state, trace = hardcore_run(family, cond.condition, comp,
                                    cond.alphabet, steps)
        out.append({"component": t, "state": state, "trace": trace})
    return out


# ---------------------------------------------------------------------------
# trace files


def trace_to_jsonl(trace: list[TraceEntry]) -> str:
    """One line per entry: the bytes of ``json.dumps(e.to_json(),
    sort_keys=True, separators=(",", ":"))``, written field by field."""
    return "".join(map(_trace_line, trace))


def _trace_line(e: TraceEntry) -> str:
    blocking = "" if e.blocking is None else f',"blocking":{e.blocking}'
    reason = "" if e.reason is None else f',"reason":{_quote(e.reason)}'
    cancelled = ",".join(map(str, e.cancelled))
    return (f'{{"action":{_quote(e.action)}{blocking},"cancelled":[{cancelled}],'
            f'"card":{e.card},"n":{e.n}{reason},"word":{_quote(e.word)}}}\n')


# the lines of _trace_line field by field, whose strings need no escape:
# a JSON string with no backslash, quote or control character is its
# own text, and a JSON integer is its own digits
_STRING = r'"([^"\\\x00-\x1f]*)"'
_INT = r'-?(?:0|[1-9][0-9]*)'
_TRACE_LINE = re.compile(
    rf'{{"action":{_STRING}(?:,"blocking":({_INT}))?,'
    rf'"cancelled":\[((?:{_INT}(?:,{_INT})*)?)\],"card":({_INT}),"n":({_INT})'
    rf'(?:,"reason":{_STRING})?,"word":{_STRING}}}')


def trace_from_jsonl(text: str) -> list[TraceEntry]:
    """The entries of a JSONL trace, one per nonblank ``"\\n"``-separated
    line.

    A line as :func:`trace_to_jsonl` writes it, with no escape in its
    strings, is read by one regular expression; any other line is decoded
    by ``json.loads`` and :meth:`TraceEntry.from_json`.  A line that is not
    an entry raises :class:`ValueError` naming its line number.
    """
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        match = _TRACE_LINE.fullmatch(line)
        try:
            if match is not None:
                out.append(_match_entry(match))
            elif line.strip():
                out.append(TraceEntry.from_json(json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
    return out


def _match_entry(match: re.Match) -> TraceEntry:
    """The entry of a line that :data:`_TRACE_LINE` matched.  The integers
    are converted in the order of the line, so that one too long for
    ``int`` fails as the first one ``json.loads`` would fail on."""
    action, blocking, cancelled, card, n, reason, word = match.groups()
    if blocking is not None:
        blocking = int(blocking)
    cancelled = tuple(map(int, cancelled.split(","))) if cancelled else ()
    card = int(card)
    return TraceEntry(int(n), word, action, cancelled, card, reason, blocking)
