import itertools
import json

import numpy as np
import pytest

import cptk.hardcore
import cptk.langs
from cptk import cli
from cptk.classify import is_infinite_evidence, load_conditional
from cptk.dfa import Dfa
from cptk.families import (FamilyFlags, close_cc, finite_family, length_family,
                           list_family, regular_family)
from cptk.hardcore import (ACCEPTED, TraceEntry, hardcore_run, is_proper_hardcore,
                           trace_from_jsonl, trace_to_jsonl, verify_trace)
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter,
                        LeftMark, Predicate, Union, is_finite, subset_of)
from cptk.words import Alphabet, lex, ord_

from . import scalar_oracle
from .conftest import random_mixed_expr
from .scalar_oracle import hardcore_step, initial_state, member
from .trace_oracle import per_line_trace_from_jsonl, two_pass_verify_trace


def simulate(family_member, in_condition, in_target, alphabet_symbols, steps):
    """Independent simulation, written directly against plain callables and
    its own word enumeration; shares no code with the implementation."""
    words = []
    length = 0
    while len(words) < steps:
        for tup in itertools.product(alphabet_symbols, repeat=length):
            words.append("".join(tup))
            if len(words) == steps:
                break
        length += 1
    accepted = []
    cancel = set()
    card = 0
    for n in range(steps):
        w = words[n]
        if in_condition(w):
            for i in range(card + 1):
                if i not in cancel and family_member(i, w):
                    cancel.add(i)
        if in_target(w) and not in_condition(w):
            if all(i in cancel or not family_member(i, w) for i in range(card + 1)):
                accepted.append(w)
                card += 1
    return accepted, cancel


@pytest.fixture(scope="module")
def len_ab(ab):
    return length_family(ab)


def test_length_family_run_matches_hand_simulation(ab, len_ab):
    state, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 64)
    want_accepted, want_cancel = simulate(lambda i, w: len(w) == i,
                                          lambda w: False, lambda w: True,
                                          "ab", 64)
    assert list(state.accepted) == want_accepted
    assert set(state.cancelled) == want_cancel
    # at 64 steps the rank-63 word aaaaaa is examined and accepted
    assert state.accepted == ("a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa")
    # one step earlier the prefix is exactly the five shortest a-runs
    state63, _ = hardcore_run(len_ab, EMPTY, FULL, ab, 63)
    assert state63.accepted == ("a", "aa", "aaa", "aaaa", "aaaaa")


def test_run_matches_simulation_on_varied_configs(ab, reg_ab):
    sq = Predicate("square-length")
    configs = [
        (reg_ab, LeftMark("a", FULL), LeftMark("b", sq),
         lambda w: w.startswith("a"),
         lambda w: w.startswith("b") and is_square(len(w) - 1)),
        (reg_ab, EMPTY, Complement(FiniteSet(("",))),
         lambda w: False, lambda w: w != ""),
        (length_family(ab), LeftMark("b", FULL), LeftMark("a", FULL),
         lambda w: w.startswith("b"), lambda w: w.startswith("a")),
    ]
    for family, cond, target, cond_fn, target_fn in configs:
        def fam_fn(i, w, family=family):
            return member(family.expr(i), w, ab)
        state, trace = hardcore_run(family, cond, target, ab, 200)
        want_accepted, want_cancel = simulate(fam_fn, cond_fn, target_fn, "ab", 200)
        assert list(state.accepted) == want_accepted
        assert set(state.cancelled) == want_cancel


def is_square(n):
    r = int(n ** 0.5)
    return r * r == n or (r + 1) * (r + 1) == n


def test_step_examples(ab, len_ab):
    # a condition word cancels the guarded indices containing it, for good
    state = initial_state()
    cond = FULL  # every word is a condition word
    target = EMPTY
    state, entry = hardcore_step(state, len_ab, cond, target, ab)
    assert entry.action == "cancelled" and entry.cancelled == (0,)
    assert 0 in state.cancelled
    state2, entry2 = hardcore_step(state, len_ab, cond, target, ab)
    assert 0 in state2.cancelled  # cancellation is permanent
    # a word neither in the condition nor the target only advances n
    state = initial_state()
    state, entry = hardcore_step(state, len_ab, EMPTY, EMPTY, ab)
    assert entry.action == "skipped" and entry.reason == "not-in-target"
    assert state.accepted == () and state.cancelled == frozenset()


def test_blocked_entry_records_blocker(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 8)
    blocked = [e for e in trace if e.reason == "blocked"]
    assert blocked
    for e in blocked:
        assert member(len_ab.expr(e.blocking), e.word, ab)


def test_steps_validation(ab, len_ab):
    with pytest.raises(ValueError):
        hardcore_run(len_ab, EMPTY, FULL, ab, 0)


def test_empty_trace_is_refused(ab, len_ab):
    """A run writes at least one step, so a trace of none is no run's."""
    with pytest.raises(ValueError, match="an empty trace has no steps to verify"):
        verify_trace([], len_ab, EMPTY, FULL, ab)


def test_cancellation_of_touching_indices(ab, reg_ab):
    # condition: a-started words; eventually every small index whose
    # language contains one gets cancelled, including the full language
    cond = LeftMark("a", FULL)
    target = LeftMark("b", Predicate("equal-counts-ab"))
    state, trace = hardcore_run(reg_ab, cond, target, ab, 1000)
    rep = verify_trace(trace, reg_ab, cond, target, ab)
    assert rep["ok"]
    assert 1 in state.cancelled  # index 1 is the all-words language


def test_determinism_bit_identical(ab, reg_ab):
    cond = LeftMark("a", FULL)
    target = LeftMark("b", FULL)
    runs = [hardcore_run(reg_ab, cond, target, ab, 300) for _ in range(3)]
    texts = {trace_to_jsonl(tr) for _, tr in runs}
    assert len(texts) == 1
    states = {st for st, _ in runs}
    assert len(states) == 1


def test_monotonicity_and_card(ab, len_ab):
    state = initial_state()
    prev_accepted, prev_cancel = (), frozenset()
    for _ in range(150):
        state, entry = hardcore_step(state, len_ab, EMPTY, FULL, ab)
        assert set(prev_accepted) <= set(state.accepted)
        assert prev_cancel <= state.cancelled
        assert entry.card == len(state.accepted)
        prev_accepted, prev_cancel = state.accepted, state.cancelled
    ranks = [ord_(ab, w) for w in state.accepted]
    assert ranks == sorted(ranks)


def test_trace_jsonl_roundtrip(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 40)
    text = trace_to_jsonl(trace)
    assert trace_from_jsonl(text) == trace
    with pytest.raises(ValueError):
        trace_from_jsonl('{"n": 0}\n')


def json_trace_to_jsonl(trace):
    """The serializer that ``trace_to_jsonl`` replaced: ``json.dumps`` of
    each entry's sorted dict."""
    return "".join(json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
                   for e in trace)


# entries with and without reason and blocking, big integers and strings
# that JSON escapes: quotes, backslashes, controls, non-ASCII, non-BMP
HAND_BUILT = [
    TraceEntry(0, "", ACCEPTED, (), 1),
    TraceEntry(7, '"\\é', "cancelled", (0, 3, 10 ** 20), 2, "in-condition"),
    TraceEntry(8, "a\nb\t\x00\x7f", "skipped", (), 2, "blocked", 5),
    TraceEntry(9, "\U0001f600\u2028", "skipped", (), 0, None, 0),
    TraceEntry(10 ** 30, "x", 'odd "action"\\', (1,), 3, "ü", None),
]


@pytest.mark.parametrize("symbols", ["ab", '"\\é'])
def test_trace_lines_match_json_dumps(symbols):
    alphabet = Alphabet.parse(symbols)
    x, y = alphabet.symbols[:2]
    runs = [(finite_family, EMPTY, FULL),
            (length_family, LeftMark(x, FULL), LeftMark(y, FULL)),
            (regular_family, LeftMark(x, SQ), LeftMark(y, Complement(SQ)))]
    seen = set()
    for build, condition, target in runs:
        _, trace = hardcore_run(build(alphabet), condition, target, alphabet, 300)
        text = trace_to_jsonl(trace)
        assert text == json_trace_to_jsonl(trace)
        assert trace_from_jsonl(text) == trace
        seen |= {(e.action, e.reason, e.blocking is None) for e in trace}
    # every action, and lines with and without reason and blocking
    assert seen >= {(ACCEPTED, None, True), ("cancelled", "in-condition", True),
                    ("skipped", "blocked", False), ("skipped", "not-in-target", True)}
    assert trace_to_jsonl(HAND_BUILT) == json_trace_to_jsonl(HAND_BUILT)
    assert trace_from_jsonl(trace_to_jsonl(HAND_BUILT)) == HAND_BUILT
    assert trace_to_jsonl([]) == ""


# ---------------------------------------------------------------------------
# verification and tampering


def test_verify_clean_trace(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 64)
    rep = verify_trace(trace, len_ab, EMPTY, FULL, ab)
    assert rep["ok"] and rep["final_card"] == 6
    # each guarded index meets the prefix in exactly the words accepted
    # before it became guarded: the single length-i run
    for i in range(1, 6):
        hits = [w for w in ("a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa")
                if member(len_ab.expr(i), w, ab)]
        assert hits == ["a" * i]


def test_tampering_inserted_acceptance(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 64)
    idx = next(i for i, e in enumerate(trace) if e.reason == "blocked")
    tampered = list(trace)
    bumped = tampered[idx]
    tampered[idx] = TraceEntry(bumped.n, bumped.word, "accepted", bumped.cancelled,
                               bumped.card + 1, None, None)
    for i in range(idx + 1, len(tampered)):
        e = tampered[i]
        tampered[i] = TraceEntry(e.n, e.word, e.action, e.cancelled, e.card + 1,
                                 e.reason, e.blocking)
    rep = verify_trace(tampered, len_ab, EMPTY, FULL, ab)
    assert not rep["ok"]
    assert any(v["code"] == "accept-blocked" for v in rep["violations"])


def test_tampering_missing_cancellation_witness(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 30)
    idx = next(i for i, e in enumerate(trace) if e.action == "skipped")
    tampered = list(trace)
    e = tampered[idx]
    tampered[idx] = TraceEntry(e.n, e.word, "cancelled", (0,), e.card, None, None)
    rep = verify_trace(tampered, len_ab, EMPTY, FULL, ab)
    assert not rep["ok"]
    assert any(v["code"] == "cancel-no-condition-witness" for v in rep["violations"])


def test_tampering_reordered_prefix(ab, len_ab):
    _, trace = hardcore_run(len_ab, EMPTY, FULL, ab, 64)
    accepted_idx = [i for i, e in enumerate(trace) if e.action == "accepted"]
    i1, i2 = accepted_idx[1], accepted_idx[2]
    tampered = list(trace)
    e1, e2 = tampered[i1], tampered[i2]
    tampered[i1] = TraceEntry(e1.n, e2.word, e1.action, e1.cancelled, e1.card,
                              e1.reason, e1.blocking)
    tampered[i2] = TraceEntry(e2.n, e1.word, e2.action, e2.cancelled, e2.card,
                              e2.reason, e2.blocking)
    rep = verify_trace(tampered, len_ab, EMPTY, FULL, ab)
    assert not rep["ok"]
    assert any(v["code"] == "word-rank" for v in rep["violations"])


# ---------------------------------------------------------------------------
# hard-core reports


def test_single_a_runs_pass_against_length_family(ab, len_ab):
    runs = DfaAtom(Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1})))  # a a*
    report = is_proper_hardcore(runs, FULL, len_ab, index_bound=40, horizon=300)
    assert report["holds_up_to_bounds"]
    assert not report["violations"]


def test_marker_language_fails_against_family_containing_it(ab):
    a_marked = LeftMark("a", FULL)
    fam = list_family("with-marker", ab, [a_marked, EMPTY],
                      FamilyFlags(nontrivial=True))
    report = is_proper_hardcore(a_marked, FULL, fam, index_bound=4, horizon=300)
    assert not report["holds_up_to_bounds"]
    assert any(v["index"] in (0, 2) for v in report["violations"])


@pytest.mark.parametrize("index_bound, horizon, message", [
    (0, 300, "index bound must be at least 1, got 0"),
    (4, -5, "horizon must be at least 0, got -5")])
def test_proper_hardcore_validates_its_bounds(ab, index_bound, horizon, message):
    """No index scanned held up to the bounds; a negative horizon ended in
    numpy's "negative dimensions are not allowed"."""
    with pytest.raises(ValueError, match=message):
        is_proper_hardcore(LeftMark("a", FULL), FULL, regular_family(ab),
                           index_bound=index_bound, horizon=horizon)


def scalar_is_proper_hardcore(b, target, family, index_bound, horizon=300,
                              threshold=32):
    """The per-index check that the class walk replaced, kept as oracle."""
    alphabet = family.alphabet
    b_finiteness = is_finite(b, alphabet, horizon)
    containment = subset_of(b, target, alphabet, horizon)
    violations = []
    suspects = []
    for i in range(index_bound):
        inside = subset_of(family.expr(i), target, alphabet, horizon)
        if not inside.is_certified:
            continue
        meet = is_finite(Inter((b, family.expr(i))), alphabet, horizon)
        if meet.is_infinite:
            violations.append({"index": i, "evidence": meet.to_json()})
        elif meet.is_unknown and (meet.count or 0) >= threshold:
            suspects.append({"index": i, "members_seen": meet.count})
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


A_RUNS = DfaAtom(Dfa(2, ((1, 2), (1, 2), (2, 2)), 0, frozenset({1})))  # a a*
B_FREE = DfaAtom(Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0})))  # a*


@pytest.mark.parametrize("family_name,bound,b,target", [
    ("length", 40, A_RUNS, FULL),
    ("regular", 200, B_FREE, FULL),
    ("regular", 200, B_FREE, Complement(LeftMark("b", FULL))),
    ("regular", 200, LeftMark("a", Predicate("prime-length")), LeftMark("a", FULL)),
    ("regular", 200, Predicate("prime-length"), FULL),
    ("finite", 60, A_RUNS, FULL),
    ("finite", 60, Predicate("square-length"), FULL),
    # targets with words outside them, which the row filter rules out
    ("length", 40, A_RUNS, Complement(FiniteSet(("", "b")))),
    ("regular", 200, B_FREE, Complement(FiniteSet(("",)))),
    ("regular", 200, LeftMark("a", Predicate("prime-length")),
     Complement(FiniteSet(("", "b")))),
    ("regular", 200, B_FREE, Complement(LeftMark("b", Predicate("square-length")))),
    ("regular", 200, LeftMark("a", Predicate("prime-length")),
     Complement(Union((LeftMark("a", Predicate("square-length")),
                       LeftMark("b", Complement(Predicate("square-length"))))))),
    ("finite", 60, A_RUNS, Union((B_FREE, LeftMark("b", FULL))))])
def test_proper_hardcore_class_walk_matches_per_index_check(ab, family_name, bound,
                                                            b, target):
    make = {"length": length_family, "regular": regular_family,
            "finite": finite_family}[family_name]
    report = is_proper_hardcore(b, target, make(ab), index_bound=bound, horizon=300)
    expected = scalar_is_proper_hardcore(b, target, make(ab), bound, horizon=300)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def class_walk_is_proper_hardcore(b, target, family, index_bound, horizon=300):
    """The class walk with one ``is_finite`` call per in-target class, which
    reading the meets off b's row and the family rows replaced; kept as
    oracle."""
    alphabet = family.alphabet
    groups = (family.classes(index_bound, horizon).classes if family.exact
              else [[i] for i in range(index_bound)])
    meets = {}
    for members in groups:
        if subset_of(family.expr(members[0]), target, alphabet, horizon).is_certified:
            e = family.expr(members[0])
            meets.update(dict.fromkeys(members, is_finite(Inter((b, e)), alphabet, horizon)))
    ordered = sorted(meets.items())
    return {"violations": [{"index": i, "evidence": m.to_json()}
                           for i, m in ordered if m.is_infinite],
            "suspects": [{"index": i, "members_seen": m.count} for i, m in ordered
                         if m.is_unknown and is_infinite_evidence(m)]}


# families over ab, each with its index bound: exact and not exact, with
# repeated languages
HARDCORE_FAMILIES = {
    "regular": (regular_family, 200),
    "length": (length_family, 40),
    "finite": (finite_family, 60),
    "predicates": (lambda ab: close_cc(list_family(
        "preds", ab, [Predicate("square-length"), LeftMark("a", FULL),
                      Predicate("prime-length"), LeftMark("a", Predicate("square-length"))])),
        8),
    "repeated-predicates": (lambda ab: list_family(
        "repeats", ab, [Predicate("square-length"), LeftMark("a", FULL), EMPTY,
                        Complement(Predicate("square-length")), Predicate("square-length"),
                        FULL, Complement(LeftMark("a", FULL))]), 7),
}


@pytest.mark.parametrize("horizon", [0, 40, 300])
@pytest.mark.parametrize("family_name", sorted(HARDCORE_FAMILIES))
def test_proper_hardcore_meets_match_per_class_is_finite(ab, family_name, horizon):
    make, bound = HARDCORE_FAMILIES[family_name]
    rng = np.random.default_rng(7 + horizon)
    bs = [random_mixed_expr(rng, ab) for _ in range(4)]
    bs.append(LeftMark("a", Predicate("prime-length")))
    for b in bs:
        for target in (FULL, LeftMark("a", FULL), Complement(FiniteSet(("",)))):
            report = is_proper_hardcore(b, target, make(ab), index_bound=bound,
                                        horizon=horizon)
            expected = class_walk_is_proper_hardcore(b, target, make(ab), bound, horizon)
            got = {k: report[k] for k in expected}
            assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_componentwise_runs(ab, reg_ab):
    sq = Predicate("square-length")
    cond = load_conditional(FiniteSet(("",)),
                            [LeftMark("a", sq), LeftMark("b", Complement(sq))], ab)
    # the diagonalization once per component against the shared condition
    results = []
    for t, comp in enumerate(cond.problem.components):
        state, trace = hardcore_run(reg_ab, cond.condition, comp, ab, 200)
        results.append({"component": t, "state": state, "trace": trace})
    assert len(results) == 2
    words_sets = []
    for entry in results:
        rep = verify_trace(entry["trace"], reg_ab, cond.condition,
                           cond.problem.components[entry["component"]], ab)
        assert rep["ok"]
        words_sets.append(set(entry["state"].accepted))
    assert not (words_sets[0] & words_sets[1])  # disjoint markers, disjoint prefixes
    for entry, marker in zip(results, "ab"):
        assert all(w.startswith(marker) for w in entry["state"].accepted)


# ---------------------------------------------------------------------------
# the row-driven run and verifier against their scalar references


def step_run(family, condition, target, alphabet, steps):
    """The run as iterated scalar steps: the reference for hardcore_run."""
    state = initial_state()
    trace = []
    for _ in range(steps):
        state, entry = hardcore_step(state, family, condition, target, alphabet)
        trace.append(entry)
    return state, trace


def scalar_verify_trace(trace, family, condition, target, alphabet):
    """The verifier as it was on scalar membership, kept as the oracle of
    the row-driven one."""
    def indexed_member(i, w):
        return member(family.expr(i), w, alphabet)

    def violation(step, code, detail):
        return {"step": step, "code": code, "detail": detail}

    violations = []
    accepted_so_far = []
    cancel = set()
    prev_rank = -1
    for pos, entry in enumerate(trace):
        if entry.n != pos:
            violations.append(violation(entry.n, "step-numbering", f"expected step {pos}"))
            break
        w = lex(alphabet, entry.n)
        if entry.word != w:
            violations.append(violation(entry.n, "word-rank",
                                        f"word {entry.word!r} is not lex({entry.n})"))
            continue
        card_before = len(accepted_so_far)
        for i in entry.cancelled:
            if not member(condition, w, alphabet):
                violations.append(violation(entry.n, "cancel-no-condition-witness",
                                            f"index {i} cancelled on {w!r} not in the condition"))
            elif not indexed_member(i, w):
                violations.append(violation(entry.n, "cancel-no-membership-witness",
                                            f"index {i} cancelled but {w!r} not in language {i}"))
            if i > card_before:
                violations.append(violation(entry.n, "cancel-outside-guard",
                                            f"index {i} beyond guard {card_before}"))
            if i in cancel:
                violations.append(violation(entry.n, "cancel-repeated",
                                            f"index {i} already cancelled"))
            cancel.add(i)
        if entry.action == ACCEPTED:
            if not member(target, w, alphabet):
                violations.append(violation(entry.n, "accept-outside-target", w))
            if member(condition, w, alphabet):
                violations.append(violation(entry.n, "accept-inside-condition", w))
            rank = ord_(alphabet, w)
            if rank <= prev_rank:
                violations.append(violation(entry.n, "accept-order",
                                            f"{w!r} not above the previous accepted word"))
            prev_rank = max(prev_rank, rank)
            for i in range(card_before + 1):
                if i not in cancel and indexed_member(i, w):
                    violations.append(violation(entry.n, "accept-blocked",
                                                f"uncancelled index {i} contains {w!r}"))
            accepted_so_far.append((w, card_before))
        if entry.card != len(accepted_so_far):
            violations.append(violation(entry.n, "card-mismatch",
                                        f"declared {entry.card}, replay has {len(accepted_so_far)}"))
    final_card = len(accepted_so_far)
    for i in range(final_card + 1):
        if i in cancel:
            continue
        late = [w for w, cb in accepted_so_far if indexed_member(i, w) and cb >= i]
        if late:
            violations.append(violation(None, "late-intersection",
                                        f"index {i} meets words accepted while guarded: {late}"))
    state = initial_state()
    for pos, entry in enumerate(trace):
        state, expected = hardcore_step(state, family, condition, target, alphabet)
        if expected != entry:
            violations.append(violation(pos, "replay-divergence",
                                        {"expected": expected.to_json(),
                                         "found": entry.to_json()}))
            break
    return {"ok": not violations, "violations": violations,
            "steps": len(trace), "final_card": final_card,
            "cancelled": sorted(cancel)}


SQ = Predicate("square-length")
MARKERS = {"empty": (EMPTY, FULL),
           "a.A-b.notA": (LeftMark("a", SQ), LeftMark("b", Complement(SQ))),
           "a-b": (LeftMark("a", FULL), LeftMark("b", FULL)),
           # condition words inside the target: they cancel, never accept
           "overlap-finite": (FiniteSet(("", "a", "ab", "bbb", "aaaaa")), FULL),
           "overlap-a": (LeftMark("a", FULL), Complement(FiniteSet(("",))))}
# a language listed twice: both copies can claim one target word (the
# least blocks it) or be cancelled by one condition word
LONG = Complement(FiniteSet(("", "a", "b", "aa", "ab", "ba", "bb")))
BUILTINS = {"finite": finite_family, "length": length_family, "regular": regular_family,
            "repeats": lambda ab: list_family("repeats", ab,
                                              [EMPTY, LONG, LONG, LeftMark("b", FULL)])}


@pytest.mark.parametrize("steps", [1, 2, 64, 600])
@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_row_run_matches_scalar_steps(ab, builtin, languages, steps):
    condition, target = MARKERS[languages]
    family = BUILTINS[builtin](ab)
    state, trace = hardcore_run(family, condition, target, ab, steps)
    # the reference gets a fresh family, so that no row or expression
    # cache is shared between the two
    want_state, want_trace = step_run(BUILTINS[builtin](ab), condition, target,
                                      ab, steps)
    assert state == want_state
    assert trace_to_jsonl(trace) == trace_to_jsonl(want_trace)
    sim_accepted, sim_cancel = simulate(
        lambda i, w: member(family.expr(i), w, ab),
        lambda w: member(condition, w, ab), lambda w: member(target, w, ab),
        "ab", steps)
    assert list(state.accepted) == sim_accepted
    assert set(state.cancelled) == sim_cancel


def tampered_traces(trace):
    """The clean trace and the tamperings of the tests above, by name."""
    out = {"clean": list(trace)}
    blocked = next((k for k, e in enumerate(trace) if e.reason == "blocked"), None)
    if blocked is not None:
        # inserted acceptance; the blocker then meets a word accepted
        # while it was guarded, a late intersection
        t = list(trace)
        e = t[blocked]
        t[blocked] = TraceEntry(e.n, e.word, "accepted", e.cancelled, e.card + 1)
        for k in range(blocked + 1, len(t)):
            e = t[k]
            t[k] = TraceEntry(e.n, e.word, e.action, e.cancelled, e.card + 1,
                              e.reason, e.blocking)
        out["inserted-acceptance"] = t
    skipped = next((k for k, e in enumerate(trace) if e.action == "skipped"), None)
    if skipped is not None:
        t = list(trace)
        e = t[skipped]
        t[skipped] = TraceEntry(e.n, e.word, "cancelled", (0,), e.card)
        out["missing-witness"] = t
    accepted = [k for k, e in enumerate(trace) if e.action == "accepted"]
    if len(accepted) >= 3:
        t = list(trace)
        i1, i2 = accepted[1], accepted[2]
        e1, e2 = t[i1], t[i2]
        t[i1] = TraceEntry(e1.n, e2.word, e1.action, e1.cancelled, e1.card,
                           e1.reason, e1.blocking)
        t[i2] = TraceEntry(e2.n, e1.word, e2.action, e2.cancelled, e2.card,
                           e2.reason, e2.blocking)
        out["reordered-prefix"] = t
    return out


@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_row_verifier_matches_scalar_verifier(ab, builtin, languages):
    condition, target = MARKERS[languages]
    family = BUILTINS[builtin](ab)
    _, trace = hardcore_run(family, condition, target, ab, 200)
    codes = set()
    for name, t in tampered_traces(trace).items():
        got = verify_trace(t, family, condition, target, ab)
        want = scalar_verify_trace(t, BUILTINS[builtin](ab), condition, target, ab)
        assert got == want, name
        assert got["ok"] == (name == "clean")
        codes |= {v["code"] for v in want["violations"]}
    if builtin == "length":
        assert {"accept-blocked", "late-intersection", "word-rank"} <= codes
        assert codes & {"cancel-no-condition-witness", "cancel-no-membership-witness"}


def test_row_verifier_matches_scalar_verifier_on_cancellations(ab, reg_ab):
    # a run that cancels, and the same trace with one cancellation dropped
    # (the index then blocks nothing it should not) or duplicated
    cond, target = LeftMark("a", FULL), LeftMark("b", Predicate("equal-counts-ab"))
    _, trace = hardcore_run(reg_ab, cond, target, ab, 400)
    k = next(k for k, e in enumerate(trace) if e.cancelled)
    e = trace[k]
    dropped = list(trace)
    dropped[k] = TraceEntry(e.n, e.word, e.action, e.cancelled[1:], e.card,
                            e.reason, e.blocking)
    repeated = list(trace)
    repeated[k] = TraceEntry(e.n, e.word, e.action, e.cancelled + e.cancelled[:1],
                             e.card, e.reason, e.blocking)
    for t in (trace, dropped, repeated):
        assert (verify_trace(t, reg_ab, cond, target, ab)
                == scalar_verify_trace(t, reg_ab, cond, target, ab))


@pytest.mark.parametrize("index", [-1, 10 ** 20])
def test_verify_reports_cancellation_outside_guard(ab, index, monkeypatch):
    family = finite_family(ab)
    trace = [TraceEntry(0, "", "cancelled", (index,), 0)]
    real_expr, real_rows = family.expr, family.rows

    # neither the language nor a row of an index outside the trace's
    # guards is ever asked for
    def expr(i):
        assert 0 <= i <= len(trace), f"language {i} looked up"
        return real_expr(i)

    def rows(bound, horizon):
        assert bound <= len(trace) + 1, f"rows below {bound} asked for"
        return real_rows(bound, horizon)

    monkeypatch.setattr(family, "expr", expr)
    monkeypatch.setattr(family, "rows", rows)
    rep = verify_trace(trace, family, FULL, FULL, ab)
    assert not rep["ok"]
    assert rep["violations"][0] == {
        "step": 0, "code": "cancel-outside-guard",
        "detail": f"index {index} " + ("negative" if index < 0 else "beyond guard 0")}
    assert rep["cancelled"] == [index]


def count_family_member_calls(monkeypatch, family):
    """Count one-word membership calls, of the library and of the scalar
    oracle, whose expression is a family one."""
    calls = []

    def counting(real):
        def count(expr, word, alphabet):
            if any(expr is e for e in family._exprs.values()):
                calls.append((expr, word))
            return real(expr, word, alphabet)
        return count

    library = counting(cptk.langs.member)
    monkeypatch.setattr(cptk.langs, "member", library)
    monkeypatch.setattr(cptk.hardcore, "member", library)
    monkeypatch.setattr(scalar_oracle, "member", counting(scalar_oracle.member))
    return calls


@pytest.mark.parametrize("builtin,steps,languages", [
    ("finite", 600, "empty"), ("regular", 600, "a.A-b.notA")])
def test_run_and_verifier_read_rows(ab, monkeypatch, builtin, steps, languages):
    condition, target = MARKERS[languages]
    family = BUILTINS[builtin](ab)
    calls = count_family_member_calls(monkeypatch, family)
    _, trace = hardcore_run(family, condition, target, ab, steps)
    assert calls == []
    assert verify_trace(trace, family, condition, target, ab)["ok"]
    assert len(calls) <= sum(len(e.cancelled) for e in trace)
    # the counter does see scalar lookups: the step reference makes them
    step_run(family, condition, target, ab, 16)
    assert calls


def test_condition_words_inside_the_target_are_not_accepted(ab):
    """Over the finite family, with five condition words inside a full
    target, the run accepts none of them and its own trace verifies."""
    condition = FiniteSet(("", "a", "ab", "bbb", "aaaaa"))
    state, trace = hardcore_run(finite_family(ab), condition, FULL, ab, 64)
    assert not set(state.accepted) & set(condition.words)
    inside = [e for e in trace if e.word in condition.words]
    assert len(inside) == 5
    assert all(e.action != ACCEPTED and e.reason == "in-condition"
               and e.blocking is None for e in inside)
    want_state, want_trace = step_run(finite_family(ab), condition, FULL, ab, 64)
    assert state == want_state and trace == want_trace
    report = verify_trace(trace, finite_family(ab), condition, FULL, ab)
    assert report["ok"], report["violations"]


def test_condition_words_inside_the_target_still_cancel(ab, reg_ab):
    condition, target = MARKERS["overlap-a"]
    state, trace = hardcore_run(reg_ab, condition, target, ab, 600)
    cancelling = [e for e in trace if e.cancelled]
    assert cancelling and all(e.word.startswith("a") and e.reason == "in-condition"
                              for e in cancelling)
    assert all(not w.startswith("a") for w in state.accepted)
    assert trace == step_run(regular_family(ab), condition, target, ab, 600)[1]
    assert verify_trace(trace, reg_ab, condition, target, ab)["ok"]


# ---------------------------------------------------------------------------
# the one-pass verifier and the fast trace reader against the code they
# replaced (tests/trace_oracle.py)


@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_one_pass_verifier_matches_two_pass_verifier(ab, builtin, languages):
    """The tampered traces above, and random single-field tamperings of
    runs at 1, 2, 64 and 300 steps."""
    condition, target = MARKERS[languages]
    rng = np.random.default_rng([sorted(BUILTINS).index(builtin),
                                 sorted(MARKERS).index(languages)])
    family = BUILTINS[builtin](ab)
    codes = set()
    for steps in (1, 2, 64, 300):
        _, trace = hardcore_run(family, condition, target, ab, steps)
        traces = list(tampered_traces(trace).values())
        traces += [single_field_tampering(trace, field, rng, ab)
                   for field in TraceEntry._fields for _ in range(2)]
        for t in traces:
            got = verify_trace(t, family, condition, target, ab)
            want = two_pass_verify_trace(t, BUILTINS[builtin](ab), condition, target, ab)
            assert got == want
            codes |= {v["code"] for v in got["violations"]}
    assert "replay-divergence" in codes


def single_field_tampering(trace, field, rng, alphabet):
    """The trace with one field of one random entry changed."""
    k = int(rng.integers(len(trace)))
    e = trace[k]
    pos, card = e.n, e.card
    choices = {
        "n": [pos + 1, pos - 1, -1, 10 ** 20],
        "word": [lex(alphabet, pos + 1), e.word + "a", "c", ""],
        "action": [ACCEPTED, "cancelled", "skipped", "bogus"],
        "cancelled": [e.cancelled + (card,), e.cancelled[1:], (0,), (-1,), (10 ** 20,),
                      e.cancelled + (card + 1,), e.cancelled * 2],
        "card": [card + 1, card - 1, 0],
        "reason": [None, "blocked", "in-condition", "not-in-target"],
        "blocking": [None, 0, card, card + 1]}[field]
    values = [v for v in choices if v != getattr(e, field)]
    t = list(trace)
    t[k] = e._replace(**{field: values[int(rng.integers(len(values)))]})
    return t


def canonical_lines():
    """Canonical trace lines over alphabets whose words need escapes and
    whose words do not, with every action, reason and blocking."""
    traces = [HAND_BUILT]
    for symbols in ("ab", "aé"):
        alphabet = Alphabet.parse(symbols)
        x, y = alphabet.symbols
        for condition, target in ((EMPTY, FULL), (LeftMark(x, SQ), LeftMark(y, FULL))):
            traces.append(hardcore_run(length_family(alphabet), condition, target,
                                       alphabet, 120)[1])
    return [line for t in traces for line in trace_to_jsonl(t).split("\n")[:-1]]


def read_both(text):
    """The result of each reader: the entries' repr, or the error message."""
    out = []
    for read in (trace_from_jsonl, per_line_trace_from_jsonl):
        try:
            out.append(repr(read(text)))
        except ValueError as exc:
            out.append(f"ValueError: {exc}")
    return out


def test_reader_matches_per_line_reader_on_mutated_lines():
    """One-character inserts, deletes and replacements of canonical lines,
    three lines to a text."""
    lines = canonical_lines()
    pool = ['\\', "a", "é", "\x01", '"', ",", ":", "0", "1", "-", "[", "]", "{", "}",
            " ", "e", ".", "\x7f", "\U0001f600"]
    rng = np.random.default_rng(7)
    errors = 0
    for _ in range(7000):
        picked = [lines[int(k)] for k in rng.integers(len(lines), size=3)]
        which = int(rng.integers(3))
        line = picked[which]
        at = int(rng.integers(len(line) + 1))
        char = pool[int(rng.integers(len(pool)))]
        edit = int(rng.integers(3))
        if edit == 0:
            line = line[:at] + char + line[at:]
        elif edit == 1:
            line = line[:at] + line[at + 1:]
        else:
            line = line[:at] + char + line[at + 1:]
        picked[which] = line
        text = "\n".join(picked) + "\n"
        got, want = read_both(text)
        assert got == want, text
        errors += got.startswith("ValueError")
    # both outcomes are exercised
    assert 1000 < errors < 6000


@pytest.mark.parametrize("text", [
    "", "\n\n", "  \n\t\n", '{"action":"accepted","cancelled":[],"card":1,"n":0,"word":""}',
    '{"action":"accepted","cancelled":[],"card":1,"n":0,"word":""}\r\n',
    '{"action":"accepted","cancelled":[],"card":1,"n":-0,"word":""}\n',
    '{"action":"accepted","cancelled":[],"card":1,"n":00,"word":""}\n',
    '{"action":"accepted","cancelled":[ ],"card":1,"n":0,"word":""}\n',
    '{"action":"accepted","cancelled":[1,],"card":1,"n":0,"word":""}\n',
    '{"action":"accepted","cancelled":[],"card":1,"n":0,"word":"\\u0061"}\n',
    '{"action":"accepted","cancelled":[],"card":1,"n":0,"word":"a"} \n',
    '{"action":"accepted","cancelled":[],"card":1,"n":0,"word":"a"}{}\n',
    '{"action":"x","blocking":' + "7" * 5000 + ',"cancelled":[' + "8" * 4400
    + '],"card":' + "9" * 6000 + ',"n":0,"word":"a"}\n',
    '{"action":"x","cancelled":[1,' + "8" * 4400 + '],"card":' + "9" * 6000
    + ',"n":0,"word":"a"}\n'])
def test_reader_matches_per_line_reader_on_edge_lines(text):
    got, want = read_both(text)
    assert got == want


BOUNDARY_CHARS = ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"]


def test_reader_splits_lines_on_newline_only():
    """``str.splitlines`` also split inside JSON strings, at the line
    boundaries U+2028, U+2029, U+0085 and \\x1c-\\x1e."""
    entries = [TraceEntry(k, f"a{c}b", "skipped", (), 0, "not-in-target")
               for k, c in enumerate(BOUNDARY_CHARS)]
    text = "".join(json.dumps(e.to_json(), ensure_ascii=False) + "\n" for e in entries)
    assert "\u2028" in text and "\x85" in text
    assert trace_from_jsonl(text) == entries
    with pytest.raises(ValueError, match="trace line 1: Unterminated string"):
        per_line_trace_from_jsonl(text)
    # a file whose lines are separated by another boundary is one line
    for c in BOUNDARY_CHARS:
        with pytest.raises(ValueError, match="trace line 1: Extra data"):
            trace_from_jsonl(trace_to_jsonl(entries).replace("\n", c))


def test_verify_trace_command_builds_one_guard_state_and_no_run(tmp_path, capsys,
                                                                 monkeypatch):
    """The replay reads the verifier's own guard state: it used to run the
    whole diagonalization again, with a second one."""
    files = {"regular.json": {"alphabet": "ab", "builtin": "regular"},
             "condition.json": {"alphabet": "ab", "expr": {"op": "leftmark", "symbol": "a",
                                                           "arg": {"predicate": "prime-length"}}},
             "target.json": {"alphabet": "ab", "expr": {"op": "leftmark", "symbol": "b",
                                                        "arg": {"finite": []}}}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    args = ["--family", str(tmp_path / "regular.json"),
            "--condition", str(tmp_path / "condition.json"),
            "--target", str(tmp_path / "target.json"), "--trace", str(tmp_path / "t.jsonl")]
    assert cli.main(["hardcore", *args, "--steps", "200"]) == 0
    states = []
    real_init = cptk.hardcore._GuardState.__init__

    def counting_init(self, family, condition, target, alphabet, steps):
        states.append(steps)
        real_init(self, family, condition, target, alphabet, steps)

    def no_run(*args):
        raise AssertionError("hardcore_run called")

    monkeypatch.setattr(cptk.hardcore._GuardState, "__init__", counting_init)
    monkeypatch.setattr(cptk.hardcore, "hardcore_run", no_run)
    monkeypatch.setattr(cli, "hardcore_run", no_run)
    capsys.readouterr()
    assert cli.main(["verify-trace", *args]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert states == [200]
