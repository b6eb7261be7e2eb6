"""Streaming diagonalization against a family enumeration.

The loop walks words in length-lexicographic order.  A word inside the
condition cancels every guarded index whose language contains it and is
never accepted; a word inside the target and outside the condition is
accepted only if no uncancelled guarded index claims it.  Guarded means
index at most the current accepted count, inclusive.  The construction
is inherently sequential and emits one trace entry per word; traces are
bit-reproducible and replay-verifiable.

:func:`hardcore_run` and :func:`verify_trace` share one event walk,
:func:`_walk`, over int bitset window rows.  Its guard state,
:class:`_GuardState`, holds the row of each live guarded index and
``blocked``, the OR of those rows.  A step changes the state only on a
blocked condition word (a cancellation) or on an unblocked target word
outside the condition (an acceptance); one bitset expression finds the
next such event, :func:`_step` decides it, and the walk hands out the
stretch of skips before it by its bounds.  :func:`hardcore_run` expands
a stretch into entries; :func:`hardcore_jsonl` and the verifier write it
as text in one ``%`` format, and the verifier compares that text with
the trace at once, so a clean trace is never decoded, and from the first
line that differs on it decodes and checks each line rank by rank.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .classify import is_infinite_evidence, validate_bounds
from .cohesion import meet_finiteness
from .families import FamilyEnum, inside_check
from .langs import LangExpr, is_finite, member, subset_of, window_rows
from .words import Alphabet, lex, word_list


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


# a TraceEntry from a tuple of its seven fields, built without a Python
# frame: TraceEntry._make less its length check, which the tuples of
# _GuardState.segment always pass
_entry = functools.partial(tuple.__new__, TraceEntry)


def _field_error(data: dict, key: str, kind: type) -> ValueError:
    if key not in data:
        return ValueError(f"missing field {key!r}")
    return ValueError(f"field {key!r} must be {_JSON_TYPE_NAMES[kind]}, not {data[key]!r}")


# the family rows a run fetches first: one fetch of a few rows costs about
# as much as one of a single row, and most runs guard a few indices
FIRST_ROWS = 8


class _GuardState:
    """The live guarded indices of a diagonalization over lex(0..steps-1),
    with the condition and target rows and the word of every rank.

    ``live`` maps each guarded, uncancelled index whose language meets the
    ranks still to come to its family row, masked from its guard rank on,
    in ascending index order; ``blocked`` is the OR of those rows.  Family
    rows are fetched for the indices below a bound that starts at
    ``FIRST_ROWS`` and doubles as more indices become guarded, and never
    passes ``steps``.
    """

    def __init__(self, family: FamilyEnum, condition: LangExpr, target: LangExpr,
                 alphabet: Alphabet, steps: int):
        self.family = family
        self.steps = steps
        self.cond, target_row = window_rows([condition, target], alphabet, steps)
        self.target = target_row
        self.accept = target_row & ~self.cond
        self.words = word_list(alphabet, steps)
        self.reasons = _reasons(self.cond, target_row, steps)
        self.rows: list[int] = []
        self.live: dict[int, int] = {}
        self.blocked = 0
        self.guard(0, 0)

    def guard(self, i: int, n: int) -> None:
        """Index i is guarded from rank n on."""
        if n >= self.steps:
            return
        if i >= len(self.rows):
            bound = min(self.steps, max(2 * len(self.rows), i + 1, FIRST_ROWS))
            self.rows = self.family.rows(bound, self.steps - 1)
        row = self.rows[i] >> n << n
        if row:
            self.live[i] = row
            self.blocked |= row

    def cancel(self, indices) -> None:
        """The listed indices are cancelled: the live ones leave ``live``,
        and ``blocked`` is recomputed once if any did."""
        if [i for i in indices if self.live.pop(i, 0)]:
            self.reblock()

    def reblock(self) -> None:
        """``blocked`` from the rows still live."""
        self.blocked = functools.reduce(operator.or_, self.live.values(), 0)

    def next_event(self, n: int) -> int:
        """The least rank at or past n whose step changes the state, a
        cancellation or an acceptance; ``steps`` if there is none."""
        blocked = self.blocked
        events = ((self.cond & blocked) | (self.accept & ~blocked)) >> n
        return n + (events & -events).bit_length() - 1 if events else self.steps

    def live_at(self, n: int) -> int:
        """The bitset of the live indices whose languages contain lex(n)."""
        col = 0
        if self.blocked >> n & 1:
            for i, row in self.live.items():
                if row >> n & 1:
                    col |= 1 << i
        return col

    def step(self, n: int) -> tuple[str, int, str | None, int | None]:
        """:func:`_step` on rank n."""
        return _step(self.live_at(n), self.cond >> n & 1, self.target >> n & 1)

    def blockers(self, a: int, b: int) -> list[tuple[int, int]]:
        """The blocked target ranks of a..b-1, none of them an event, by
        the least live index that contains them: pairs (index, bitset of
        its ranks, shifted down by a), in ascending index order."""
        out = []
        todo = (self.accept & self.blocked) >> a & ((1 << (b - a)) - 1)
        for i, row in self.live.items():
            if not todo:
                break
            hit = row >> a & todo
            if hit:
                out.append((i, hit))
                todo ^= hit
        return out

    def segment(self, a: int, b: int, card: int):
        """The plain entry tuples of ranks a..b-1, none of them an event:
        skips, each with the reason its rank's rows give, and a blocked
        target rank naming the least live index that contains it."""
        blocking = [None] * (b - a)
        for i, hit in self.blockers(a, b):
            for j in _bits(hit):
                blocking[j] = i
        return zip(range(a, b), self.words[a:b], itertools.repeat(SKIPPED),
                   itertools.repeat(()), itertools.repeat(card), self.reasons[a:b], blocking)

    def segment_text(self, a: int, b: int, card: int) -> str:
        """The lines :func:`_trace_line` writes for the entries of
        :meth:`segment`, as one string.

        Every line of the stretch shares its action, its empty cancellation
        list and its card, so the stretch is one ``%`` format of one
        template per line over the (rank, quoted reason, quoted word)
        triples; a blocked rank's template also names its blocking index.
        """
        if a == b:
            return ""
        skip = f'{{"action":"skipped","cancelled":[],"card":{card},"n":%d,"reason":%s,"word":%s}}\n'
        marks = self.blockers(a, b)
        if marks:
            template = [skip] * (b - a)
            for i, hit in marks:
                line = skip.replace('"cancelled"', f'"blocking":{i},"cancelled"')
                for j in _bits(hit):
                    template[j] = line
            template = "".join(template)
        else:
            template = skip * (b - a)
        words, reasons = self.quoted
        return template % tuple(itertools.chain.from_iterable(
            zip(range(a, b), reasons[a:b], words[a:b])))

    @functools.cached_property
    def quoted(self) -> tuple[list[str], list[str]]:
        """The JSON strings of the words and of the reasons, by rank."""
        return list(map(_quote, self.words)), list(map(_quote, self.reasons))


def _reasons(cond: int, target: int, steps: int) -> list[str]:
    """The reason of each rank's step when it changes no state: inside the
    condition, outside the target, or else blocked."""
    width = f"0{steps}b"
    table = {("0", "0"): REASON_NOT_IN_TARGET, ("0", "1"): REASON_BLOCKED,
             ("1", "0"): REASON_IN_CONDITION, ("1", "1"): REASON_IN_CONDITION}
    return list(map(table.__getitem__, zip(format(cond, width)[::-1],
                                           format(target, width)[::-1])))


def _bits(mask: int):
    """The set bits of an int bitset, ascending, read off its binary
    digits at once."""
    if not mask:
        return ()
    return itertools.compress(itertools.count(), format(mask, "b")[::-1].encode()
                              .translate(_DIGIT_VALUES))


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _step(live: int, in_condition: int, in_target: int
          ) -> tuple[str, int, str | None, int | None]:
    """One step of the loop on one word: its action, the bitset of the
    indices it cancels, its reason and its blocking index.

    ``live`` holds the guarded, uncancelled indices whose languages contain
    the word.  A condition word cancels all of them; a target word outside
    the condition is blocked by the least of them, and accepted when there
    is none.
    """
    if in_condition:
        return (CANCELLED if live else SKIPPED), live, REASON_IN_CONDITION, None
    if not in_target:
        return SKIPPED, 0, REASON_NOT_IN_TARGET, None
    if live:
        return SKIPPED, 0, REASON_BLOCKED, (live & -live).bit_length() - 1
    return ACCEPTED, 0, None, None


def _walk(guards: _GuardState, act):
    """The run in rank order, one stretch of skips at a time: for each
    event, ``(a, b, card, event)`` with the skips a..b-1 before it, at
    accepted count ``card``, and the event at rank b, the tuple of its entry
    fields decided by :func:`_step`; last ``(a, steps, card, None)``.

    A consumer writes a stretch by :meth:`_GuardState.segment` or
    :meth:`_GuardState.segment_text` before it asks for the next item.
    ``act(n, word, action, cancelled, card)`` applies an event only when
    what follows it is asked for, so a consumer that stops at an event
    leaves the state as it was before it."""
    n = card = 0
    while True:
        b = guards.next_event(n)
        if b == guards.steps:
            yield n, b, card, None
            return
        action, hits, reason, blocking = guards.step(b)
        event = (b, guards.words[b], action, tuple(_bits(hits)),
                 card + (action == ACCEPTED), reason, blocking)
        yield n, b, card, event
        card = event[4]
        act(*event[:5])
        n = b + 1


def _run(family: FamilyEnum, condition: LangExpr, target: LangExpr, alphabet: Alphabet,
         steps: int, write):
    """The diagonalization over the first ``steps`` words, and its trace as
    ``write(guards, walk)`` writes the items of :func:`_walk`."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    guards = _GuardState(family, condition, target, alphabet, steps)
    accepted: list[str] = []
    cancelled: set[int] = set()

    def act(n, word, action, listed, card):
        cancelled.update(listed)
        guards.cancel(listed)
        if action == ACCEPTED:
            accepted.append(word)
            guards.guard(card, n + 1)

    trace = write(guards, _walk(guards, act))
    return DiagonalizationState(steps, tuple(accepted), frozenset(cancelled)), trace


def _entries(guards: _GuardState, walk) -> list[TraceEntry]:
    trace = []
    for a, b, card, event in walk:
        trace += map(_entry, guards.segment(a, b, card))
        if event is not None:
            trace.append(_entry(event))
    return trace


def _text(guards: _GuardState, walk) -> str:
    return "".join(_lines(guards, *item) for item in walk)


def _lines(guards: _GuardState, a: int, b: int, card: int, event) -> str:
    """The trace lines of one item of :func:`_walk`: its stretch of skips
    and its event."""
    text = guards.segment_text(a, b, card)
    return text if event is None else text + _trace_line(*event)


def hardcore_run(family: FamilyEnum, condition: LangExpr, target: LangExpr,
                 alphabet: Alphabet, steps: int
                 ) -> tuple[DiagonalizationState, list[TraceEntry]]:
    """The diagonalization over the first ``steps`` words, by events.

    Step n runs the loop of the module docstring on lex(n); the entries
    are those of :func:`_walk`.  The accepted prefix decides membership
    below rank ``steps`` exactly (accept exactly the listed words);
    beyond that the run says nothing.
    """
    return _run(family, condition, target, alphabet, steps, _entries)


def hardcore_jsonl(family: FamilyEnum, condition: LangExpr, target: LangExpr,
                   alphabet: Alphabet, steps: int) -> tuple[DiagonalizationState, str]:
    """:func:`hardcore_run` with its trace as :func:`trace_to_jsonl` writes
    it, written one stretch of skips at a time with no entry built."""
    return _run(family, condition, target, alphabet, steps, _text)


# ---------------------------------------------------------------------------
# trace verification


def _violation(step, code, detail):
    return {"step": step, "code": code, "detail": detail}


def verify_trace(trace: str | list[TraceEntry], family: FamilyEnum, condition: LangExpr,
                 target: LangExpr, alphabet: Alphabet) -> dict:
    """Replay a trace and assert the loop invariants.

    Checks: (a) every accepted word avoids every uncancelled guarded
    language at its step; (b) every cancellation has its in-condition
    witness and names a guarded index; (c) finally-uncancelled guarded
    languages meet the accepted prefix only among the words accepted
    before they became guarded; (d) the prefix lies in the target and
    avoids the condition (it is strictly increasing because every checked
    entry holds the word of its step); and full equality with a fresh run.

    ``trace`` is the text of a trace file, one entry per nonblank
    ``"\\n"``-separated line; a list of entries is first written by
    :func:`trace_to_jsonl`, so its fields must have the types
    :func:`trace_from_jsonl` gives: a float or a bool where an int belongs
    is written as such and raises the reader's error at the line of its
    entry, counted from 1.  Until the first entry that differs from the
    run's, the guard state the trace builds is exactly the run's.  So the
    replay walks :func:`_walk`, with checks (a), (b) and (d) as its
    callback, and compares the lines of each stretch of skips and the
    event after it with the text at a cursor, at once; where they differ
    it finds the first line that differs.  A clean trace is never decoded,
    and each event is checked on the walk's own fields, which are what
    decoding its line would give.

    From the first line that differs on, each line is decoded as
    :func:`trace_from_jsonl` decodes it, with the same errors, and its
    entry is checked rank by rank.  Until a divergence is found, the
    run's entry at each rank, :func:`_step` on the state built so far, is
    compared with the decoded one, so a line written otherwise that
    decodes to the run's entry is no divergence.  The first difference is
    reported last, as ``replay-divergence``.

    Checks (a), (c) and (d), and the condition witness of (b), read window
    rows over the trace's steps; the family witness of (b) is looked up by
    :func:`langs.member`, once per listed cancellation.  An index outside
    the guard is reported without looking up its language.  A trace with
    no entry raises ValueError, since a run writes at least one step, and
    so does a line that is not an entry, naming its line number.
    """
    text = trace if isinstance(trace, str) else trace_to_jsonl(trace)
    if not text or text.isspace():
        raise ValueError("an empty trace has no steps to verify")
    # a step a line, as in a written trace, which has no blank line
    return _replay(text, text.count("\n") + (not text.endswith("\n")),
                   family, condition, target, alphabet)


def _replay(text: str, steps: int, family: FamilyEnum, condition: LangExpr,
            target: LangExpr, alphabet: Alphabet) -> dict:
    """:func:`verify_trace` on a trace text read as ``steps`` steps.

    The count is confirmed where the text stops matching the run's: the
    lines before are the run's, none blank, and the nonblank lines from
    there on are counted.  If they make another count, some line was
    blank, and the text is replayed again with that count.
    """
    violations = []
    guards = _GuardState(family, condition, target, alphabet, steps)
    words = guards.words
    accepted_ranks: list[int] = []
    cancel: set[int] = set()

    def check(pos, w, action, cancelled, card):
        """Checks (a), (b) and (d) of an entry whose step number and word
        are right, and the guard state it builds."""
        card_before = len(accepted_ranks)
        # (b) cancellations need their condition witness
        for i in cancelled:
            guarded = 0 <= i <= card_before
            if not guards.cond >> pos & 1:
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
        if cancelled:
            guards.cancel(cancelled)
        count = card_before
        if action == ACCEPTED:
            # (d) prefix discipline
            if not guards.target >> pos & 1:
                violations.append(_violation(pos, "accept-outside-target", w))
            if guards.cond >> pos & 1:
                violations.append(_violation(pos, "accept-inside-condition", w))
            # (a) acceptance guard
            for i in _bits(guards.live_at(pos)):
                violations.append(_violation(pos, "accept-blocked",
                                             f"uncancelled index {i} contains {w!r}"))
            accepted_ranks.append(pos)
            count += 1
            if count not in cancel:
                guards.guard(count, pos + 1)
        if card != count:
            violations.append(_violation(pos, "card-mismatch",
                                         f"declared {card}, replay has {count}"))

    # the first line that differs from the run's, at rank start and offset cursor
    cursor = start = 0
    for item in _walk(guards, check):
        lines = _lines(guards, *item)
        if not text.startswith(lines, cursor):
            for line in lines.split("\n")[:-1]:
                if not text.startswith(line + "\n", cursor):
                    break
                cursor += len(line) + 1
                start += 1
            break
        cursor += len(lines)
        start += lines.count("\n")
    if cursor < len(text):
        counted = start + len(list(filter(str.strip, text[cursor:].split("\n"))))
        if counted != steps:
            return _replay(text, counted, family, condition, target, alphabet)
    divergence = None
    rest = _decode_lines(text[cursor:], start + 1) if cursor < len(text) else ()
    for pos, entry in enumerate(rest, start):
        w = words[pos]
        if divergence is None:
            action, hits, reason, blocking = guards.step(pos)
            want = TraceEntry(pos, w, action, tuple(_bits(hits)),
                              len(accepted_ranks) + (action == ACCEPTED), reason, blocking)
            if entry != want:
                divergence = _violation(pos, "replay-divergence",
                                        {"expected": want.to_json(), "found": entry.to_json()})
        if entry.n != pos:
            violations.append(_violation(entry.n, "step-numbering", f"expected step {pos}"))
            break
        if entry.word != w:
            violations.append(_violation(pos, "word-rank",
                                         f"word {entry.word!r} is not lex({pos})"))
            continue
        check(pos, w, entry.action, entry.cancelled, entry.card)
    # (c) finite-intersection bound for surviving guarded indices: index i
    # was guarded when the words from the i-th accepted one on were accepted
    final_card = len(accepted_ranks)
    since = [0] * (final_card + 1)
    for k in reversed(range(final_card)):
        since[k] = since[k + 1] | 1 << accepted_ranks[k]
    for i, row in enumerate(family.rows(final_card, steps - 1)):
        late = row & since[i]
        if late and i not in cancel:
            met = [lex(alphabet, r) for r in _bits(late)]
            violations.append(_violation(None, "late-intersection",
                                         f"index {i} meets words accepted while guarded: {met}"))
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
    # both checks depend only on the language: once per class, which holds
    # one language on every family
    groups = family.classes(index_bound, horizon).classes
    inside = inside_check(family, target, index_bound, horizon)
    meet = meet_finiteness(b, family, index_bound, horizon)
    meets = {}
    for members in groups:
        if inside(members[0]):
            meets.update(dict.fromkeys(members, meet(members[0])))
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


# ---------------------------------------------------------------------------
# trace files


def trace_to_jsonl(trace: list[TraceEntry]) -> str:
    """One line per entry: the bytes of ``json.dumps(e.to_json(),
    sort_keys=True, separators=(",", ":"))``, written field by field."""
    return "".join(itertools.starmap(_trace_line, trace))


def _trace_line(n: int, word: str, action: str, cancelled: tuple[int, ...], card: int,
                reason: str | None, blocking: int | None) -> str:
    """The line of the entry with these fields, in the order of
    :class:`TraceEntry`."""
    blocking = "" if blocking is None else f',"blocking":{blocking}'
    reason = "" if reason is None else f',"reason":{_quote(reason)}'
    cancelled = ",".join(map(str, cancelled)) if cancelled else ""
    return (f'{{"action":{_quote(action)}{blocking},"cancelled":[{cancelled}],'
            f'"card":{card},"n":{n}{reason},"word":{_quote(word)}}}\n')


def trace_from_jsonl(text: str) -> list[TraceEntry]:
    """The entries of a JSONL trace, one per nonblank ``"\\n"``-separated
    line.

    Each line is decoded by ``json.loads`` and :meth:`TraceEntry.from_json`;
    a line that is not an entry raises :class:`ValueError` naming its line
    number.
    """
    return _decode_lines(text, 1)


def _decode_lines(text: str, lineno: int) -> list[TraceEntry]:
    """The entries of the nonblank lines of the text, whose first line is
    line ``lineno`` of its file."""
    out = []
    for lineno, line in enumerate(text.split("\n"), start=lineno):
        if line.strip():
            try:
                out.append(_decode_line(line))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from exc
    return out


def _decode_line(line: str) -> TraceEntry:
    """The entry of one nonblank trace line."""
    return TraceEntry.from_json(json.loads(line))
