"""The diagonalization by events against the per-step code it replaced.

``hardcore_run``, ``hardcore_jsonl`` and ``verify_trace`` share one
event walk: it decides only the steps that change state and hands out
the stretch of skips before each by its bounds.  The run expands a
stretch into entries; the writer and the verifier write it as one text,
and the verifier replays the trace rank by rank from the first line that
differs.
``column_run`` and ``one_loop_verify_trace`` (tests/trace_oracle.py)
decide every step; they are the differential oracles, and the counts
pin the work saved.
"""

import numpy as np
import pytest

import cptk.hardcore
from cptk.families import regular_family
from cptk.hardcore import (ACCEPTED, TraceEntry, hardcore_run, trace_to_jsonl,
                           verify_trace)
from cptk.langs import Complement, LeftMark, Predicate
from cptk.words import words_up_to

from .scalar_oracle import member
from .test_hardcore import (BUILTINS, MARKERS, single_field_tampering,
                            tampered_traces)
from . import trace_oracle
from .trace_oracle import column_run, one_loop_verify_trace


def test_bits_match_the_lowest_bit_loop():
    rng = np.random.default_rng(5)
    masks = [0, 1, 2, 3, 1 << 1999, (1 << 2000) - 1]
    masks += [int(rng.integers(1 << 62)) << int(rng.integers(2000)) for _ in range(200)]
    for mask in masks:
        assert list(cptk.hardcore._bits(mask)) == list(trace_oracle._bits(mask))


@pytest.mark.parametrize("steps", [1, 2, 64, 600, 2000])
@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_event_run_matches_column_run(ab, builtin, languages, steps):
    condition, target = MARKERS[languages]
    state, trace = hardcore_run(BUILTINS[builtin](ab), condition, target, ab, steps)
    # the oracle gets a fresh family, so that no row cache is shared
    want_state, want_trace = column_run(BUILTINS[builtin](ab), condition, target,
                                        ab, steps)
    assert state == want_state
    assert trace_to_jsonl(trace) == trace_to_jsonl(want_trace)
    assert all(type(e) is TraceEntry for e in trace)


def tampering(trace, rng, alphabet):
    """The trace with one to three fields of random entries changed."""
    fields = ["n", "word", "action", "cancelled", "card",
              str(rng.choice(["reason", "blocking"]))]
    for _ in range(int(rng.integers(1, 4))):
        trace = single_field_tampering(trace, fields[int(rng.integers(len(fields)))],
                                       rng, alphabet)
    return trace


@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_event_verifier_matches_one_loop_verifier(ab, builtin, languages):
    """The tampered traces of the tests, and seeded tamperings of one to
    three fields, of runs at 1, 2, 64 and 300 steps."""
    condition, target = MARKERS[languages]
    rng = np.random.default_rng([19, sorted(BUILTINS).index(builtin),
                                 sorted(MARKERS).index(languages)])
    family = BUILTINS[builtin](ab)
    codes = set()
    for steps in (1, 2, 64, 300):
        _, trace = hardcore_run(family, condition, target, ab, steps)
        traces = list(tampered_traces(trace).values())
        traces += [tampering(trace, rng, ab) for _ in range(24)]
        for t in traces:
            got = verify_trace(t, family, condition, target, ab)
            want = one_loop_verify_trace(t, BUILTINS[builtin](ab), condition, target, ab)
            assert got == want
            codes |= {v["code"] for v in got["violations"]}
    assert {"replay-divergence", "card-mismatch", "word-rank"} <= codes


PRIME = Predicate("prime-length")


@pytest.fixture
def step_calls(monkeypatch):
    """Count the calls of the one step rule, ``hardcore._step``."""
    calls = []
    real = cptk.hardcore._step

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(cptk.hardcore, "_step", counted)
    return calls


def test_run_decides_only_the_steps_that_change_state(ab, step_calls):
    """Over the regular family of ``ab``, with condition b·(prime-length)
    and target a·¬(prime-length), 2000 steps hold 8 acceptances and 3
    cancellations; the step rule ran 2000 times before."""
    condition, target = LeftMark("b", PRIME), LeftMark("a", Complement(PRIME))
    state, trace = hardcore_run(regular_family(ab), condition, target, ab, 2000)
    assert (state.card, len(state.cancelled)) == (8, 3)
    assert len(step_calls) == 11
    assert sum(e.action != "skipped" for e in trace) == 11
    # the verifier decides the same 11 ranks: a clean trace ends its
    # replay at the end of its text, not at a step of its last rank
    step_calls.clear()
    assert verify_trace(trace, regular_family(ab), condition, target, ab)["ok"]
    assert len(step_calls) == 11


def test_walk_applies_an_event_only_when_what_follows_is_asked_for(ab):
    """A consumer that stops at an event has seen the callback run on the
    events before it only, so the guard state is the one before it."""
    condition, target = LeftMark("b", PRIME), LeftMark("a", Complement(PRIME))
    guards = cptk.hardcore._GuardState(regular_family(ab), condition, target, ab, 2000)
    acted = []

    def act(n, word, action, listed, card):
        acted.append(n)
        guards.cancel(listed)
        if action == ACCEPTED:
            guards.guard(card, n + 1)

    entries, events = [], []
    for a, b, card, event in cptk.hardcore._walk(guards, act):
        entries += map(TraceEntry._make, guards.segment(a, b, card))
        if event is not None:
            assert acted == events
            events.append(event[0])
            entries.append(TraceEntry(*event))
    assert acted == events and len(events) == 11
    assert entries == hardcore_run(regular_family(ab), condition, target, ab, 2000)[1]


def hostile_trace(condition, target, alphabet, steps):
    """A trace that cancels a fresh guarded index at every condition word
    and claims an acceptance at every target word."""
    words = list(words_up_to(alphabet, steps))
    fresh, card, trace = 0, 0, []
    for n, w in enumerate(words):
        if member(condition, w, alphabet) and fresh <= card:
            trace.append(TraceEntry(n, w, "cancelled", (fresh,), card, "in-condition"))
            fresh += 1
        elif member(target, w, alphabet):
            card += 1
            trace.append(TraceEntry(n, w, ACCEPTED, (), card))
        else:
            trace.append(TraceEntry(n, w, "skipped", (), card, "not-in-target"))
    return trace


@pytest.mark.parametrize("languages", ["a.A-b.notA", "overlap-a"])
@pytest.mark.parametrize("builtin", ["finite", "length", "regular"])
def test_hostile_trace_recomputes_blocked_once_per_cancelled_index(
        ab, builtin, languages, monkeypatch):
    condition, target = MARKERS[languages]
    trace = hostile_trace(condition, target, ab, 600)
    reblocks = []
    real = cptk.hardcore._GuardState.reblock

    def counted(self):
        reblocks.append(len(self.live))
        return real(self)
    monkeypatch.setattr(cptk.hardcore._GuardState, "reblock", counted)
    got = verify_trace(trace, BUILTINS[builtin](ab), condition, target, ab)
    assert got == one_loop_verify_trace(trace, BUILTINS[builtin](ab), condition,
                                        target, ab)
    assert not got["ok"]
    cancelled = {i for e in trace for i in e.cancelled}
    assert len(cancelled) > 10
    assert len(reblocks) <= len(cancelled)

