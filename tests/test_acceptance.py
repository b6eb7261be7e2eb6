"""Acceptance gate: one test (or test group) per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines.  Everything asserted here is either computed by an independent
oracle in this file or cross-verified against the exact automaton layer.
"""

import time

import numpy as np
import pytest

from cptk.classify import (ClassificationProblem, PartitionCertificate,
                           SolveNotFound, combine_pairwise, is_partition,
                           pad_partition, set_of, solve)
from cptk.cohesion import ccore1_check, check_cohesive, check_core
from cptk.constructions import example_26, ziegler_problem
from cptk.dfa import Dfa
from cptk.families import (FamilyFlags, check_law, close_cc, length_family,
                           list_family)
from cptk.hardcore import (TraceEntry, hardcore_run, is_proper_hardcore,
                           trace_to_jsonl, verify_trace)
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter,
                        LeftMark, Predicate, Union, equivalent, is_finite,
                        regular_view, subset_of)
from cptk.words import Alphabet, compare, lex, ord_, LT

from .batch_oracle import member_batch, window_for_horizon
from .conftest import infinite_evidence, random_regular_expr
from .scalar_oracle import member
from .test_hardcore import simulate

THRESHOLD = 32


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. word-order bijection


def test_criterion_1_word_order_bijection():
    start = time.perf_counter()
    for symbols in ("ab", "abc"):
        alphabet = Alphabet.parse(symbols)
        prev = None
        for i in range(10 ** 5):
            w = lex(alphabet, i)
            assert ord_(alphabet, w) == i
            if prev is not None and i % 97 == 0:
                assert compare(alphabet, prev, w) == LT
            prev = w
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"bijection on 2x10^5 ranks in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. closure-law harness


def test_criterion_2_closure_laws(reg_ab):
    start = time.perf_counter()
    results = {}
    for law in ("distributivity", "deMorgan", "co-involution", "cc-dc-fixpoint"):
        rep = check_law(law, reg_ab, index_samples=100, horizon=300, seed=2)
        results[law] = rep["disagreements"]
    elapsed = time.perf_counter() - start
    report(2, all(v == 0 for v in results.values()) and elapsed < 30.0,
           f"disagreements={results}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3 and 4. pairwise-vs-full solvability, and certificate padding


def _ends_with(alphabet, sym):
    code = alphabet.code(sym)
    rows = tuple(tuple(1 if x == code else 0 for x in range(alphabet.size))
                 for _ in range(2))
    return DfaAtom(Dfa(alphabet.size, rows, 0, frozenset({1})))


def _even_length(alphabet):
    return DfaAtom(Dfa(alphabet.size, ((1,) * alphabet.size, (0,) * alphabet.size),
                       0, frozenset({0})))


def _generated_problems(abc, rng):
    """20 three-component regular problems over {a,b,c} with a mix of
    bounded-solvable, pairwise-only and fully unsolvable instances."""
    ends = {s: _ends_with(abc, s) for s in "abc"}
    even = _even_length(abc)
    problems = []
    for inst in range(20):
        kind = inst % 4
        if kind == 0:
            comps = []
            for s in "abc":
                expr = Inter((ends[s], random_regular_expr(rng, abc, depth=1)))
                if not is_finite(expr, abc).is_infinite:
                    expr = ends[s]
                comps.append(expr)
        elif kind == 1:
            comps = [LeftMark("a", LeftMark(y, FULL)) for y in "abc"]
        elif kind == 2:
            comps = [Inter((ends["a"], even)), Inter((ends["a"], Complement(even))),
                     ends["b"]]
        else:
            comps = [LeftMark("a", LeftMark("a", FULL)),
                     LeftMark("a", LeftMark("b", FULL)),
                     Inter((ends["c"], LeftMark("c", FULL)))]
        problems.append(ClassificationProblem(tuple(comps), abc))
    return problems


@pytest.fixture(scope="module")
def solved_instances(abc, reg_abc):
    rng = np.random.default_rng(3)
    outcomes = []
    for problem in _generated_problems(abc, rng):
        full = solve(problem, reg_abc, index_bound=500, horizon=200)
        pairs = {}
        for i in range(3):
            for j in range(i + 1, 3):
                sub = ClassificationProblem((problem.components[i],
                                             problem.components[j]), abc)
                pairs[(i, j)] = solve(sub, reg_abc, index_bound=500, horizon=200)
        outcomes.append((problem, full, pairs))
    return outcomes


def test_criterion_3_pairwise_equivalence(abc, reg_abc, solved_instances):
    n_full = n_pairs_complete = 0
    for problem, full, pairs in solved_instances:
        all_pairs_found = all(isinstance(c, PartitionCertificate)
                              for c in pairs.values())
        if isinstance(full, PartitionCertificate):
            n_full += 1
            # forward direction: project the full certificate onto each pair
            assert all_pairs_found, "full certificate without pairwise ones"
            for (i, j) in pairs:
                block = full.blocks[full.injection[i]]
                rest = Union(tuple(b for t, b in enumerate(full.blocks)
                                   if t != full.injection[i]))
                pv = is_partition((block, rest), abc, horizon=200)
                assert pv.is_certified and pv.exact
                assert subset_of(problem.components[i], block, abc, 200).is_certified
                assert subset_of(problem.components[j], rest, abc, 200).is_certified
        if all_pairs_found:
            n_pairs_complete += 1
            combined = combine_pairwise(problem, pairs, reg_abc, horizon=200)
            pv = is_partition(combined.blocks, abc, horizon=200)
            assert pv.is_certified and pv.exact
            for t in range(3):
                v = subset_of(problem.components[t], combined.blocks[t], abc, 200)
                assert v.is_certified
    report(3, n_full >= 3 and n_pairs_complete > n_full,
           f"{n_full} full certificates, {n_pairs_complete} pairwise-complete "
           f"of 20 instances")


def test_criterion_4_padding(abc, reg_abc, solved_instances):
    rng = np.random.default_rng(4)
    padded_count = 0
    for problem, full, _ in solved_instances:
        if not isinstance(full, PartitionCertificate):
            continue
        k = len(problem)
        subsets = [tuple(sorted(rng.choice(k, size=m, replace=False).tolist()))
                   for m in (1, 2) for _ in range(2)]
        for keep in set(subsets):
            sub = ClassificationProblem(
                tuple(problem.components[t] for t in keep), abc)
            cert = pad_partition(full, problem, sub, reg_abc, horizon=200)
            assert len(cert.blocks) == len(keep)
            pv = is_partition(cert.blocks, abc, horizon=200)
            assert pv.is_certified and pv.exact
            for t in range(len(keep)):
                assert subset_of(sub.components[t], cert.blocks[t], abc,
                                 200).is_certified
            padded_count += 1
    report(4, padded_count >= 8, f"{padded_count} padded certificates verified")


# ---------------------------------------------------------------------------
# 5. the three-marker construction over an opaque base


def test_criterion_5_marker_construction(ab, abc, reg_ab, reg_abc):
    start = time.perf_counter()
    base = Predicate("square-length")

    # (i) construction loads, disjointness exact, union is all nonempty words
    prob = ziegler_problem(base, abc)
    assert all(v.exact for _, _, v in prob.check.disjointness)
    nonempty = Complement(FiniteSet(("",)))
    vi = equivalent(set_of(prob), nonempty, abc)
    assert vi.is_certified and vi.exact

    # (ii) the two-marker problem over {a,b} has the canonical certificate
    cond = example_26(base, ab)
    res = solve(cond.problem, reg_ab, index_bound=3700, horizon=300)
    assert isinstance(res, PartitionCertificate) and res.status == "exact"
    bXs = regular_view(LeftMark("b", FULL), ab)
    aligned = [res.blocks[res.injection[0]], res.blocks[res.injection[1]]]
    assert regular_view(aligned[0], ab) == bXs.complement()
    assert regular_view(aligned[1], ab) == bXs

    # (iii) the component pairs of the construction stay unsolved at bound 2000
    pair_results = []
    comps = prob.components
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        sub = ClassificationProblem((comps[i], comps[j]), abc)
        pair_results.append(solve(sub, reg_abc, index_bound=2000, horizon=300))
    assert all(isinstance(r, SolveNotFound) for r in pair_results)

    # (iv) first-marker slices of the components give a refutable problem
    # whose splitting witnesses are regular, the proof-chain pair included
    slice_a = Inter((comps[0], LeftMark("a", FULL)))
    slice_b = Inter((comps[1], LeftMark("b", FULL)))
    sliced = ClassificationProblem((slice_a, slice_b), abc)
    core = check_core(sliced, reg_abc, index_bound=2000, horizon=300,
                      subset_samples=2, seed=5)
    assert core["core_status"] == "refuted"
    assert core["cohesion"]["status"] == "refuted"
    assert core["cohesion"]["witness"]["status"] == "exact"
    assert core["routes_consistent"]
    # the named pair itself splits the union both ways
    aXs_abc = LeftMark("a", FULL)
    for side in (aXs_abc, Complement(aXs_abc)):
        has, _ = infinite_evidence(Inter((set_of(sliced), side)), abc, 300)
        assert has
    elapsed = time.perf_counter() - start
    report(5, elapsed < 120.0, f"(i)-(iv) verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. diagonalization against the length classes


def test_criterion_6a_oracle_equivalence(ab):
    fam = length_family(ab)
    state, _ = hardcore_run(fam, EMPTY, FULL, ab, 64)
    want_accepted, want_cancel = simulate(lambda i, w: len(w) == i,
                                          lambda w: False, lambda w: True,
                                          "ab", 64)
    report("6a", list(state.accepted) == want_accepted
           and set(state.cancelled) == want_cancel,
           f"64-step run matches the independent simulation: B={list(state.accepted)}")


def test_criterion_6b_traces_bit_identical(ab):
    fam = length_family(ab)
    texts = {trace_to_jsonl(hardcore_run(fam, EMPTY, FULL, ab, 64)[1])
             for _ in range(3)}
    report("6b", len(texts) == 1, "3 runs, 1 distinct trace")


def test_criterion_6c_pinned_prefix_at_64_steps(ab):
    # Pinned by hand, independently of hardcore_run and simulate.  Over the
    # length classes (index i holds the words of length i) with an empty
    # condition and a full target, a word w is accepted iff no index up to
    # the current accepted count, inclusive, has length len(w).  a^k has
    # rank 2^k - 1 and comes up with the count at k - 1, so length k is not
    # guarded and a^k is accepted; every other word of length k comes after
    # it and is blocked.  Rank 63 is aaaaaa: 64 steps (ranks 0..63) accept
    # six words, 63 steps stop one short at five.
    fam = length_family(ab)
    at_64, _ = hardcore_run(fam, EMPTY, FULL, ab, 64)
    at_63, _ = hardcore_run(fam, EMPTY, FULL, ab, 63)
    report("6c", at_64.accepted == ("a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa")
           and at_63.accepted == ("a", "aa", "aaa", "aaaa", "aaaaa"),
           "a^k accepted at rank 2^k - 1: 6 words at 64 steps, 5 at 63; "
           f"got {len(at_64.accepted)} and {len(at_63.accepted)}")


# ---------------------------------------------------------------------------
# 7. trace invariants under randomized configurations and tampering


def _random_configs(ab, reg_ab, rng):
    sq = Predicate("square-length")
    pool = [
        (length_family(ab), EMPTY, FULL),
        (length_family(ab), LeftMark("b", FULL), LeftMark("a", FULL)),
        (reg_ab, LeftMark("a", FULL), LeftMark("b", FULL)),
        (reg_ab, LeftMark("a", sq), LeftMark("b", sq)),
        (reg_ab, EMPTY, Complement(FiniteSet(("",)))),
    ]
    configs = []
    for run in range(10):
        fam, cond, target = pool[run % len(pool)]
        if run >= len(pool):
            marker_pair = rng.choice(["ab", "ba"])
            extra = DfaAtom(regular_view(random_regular_expr(rng, ab, 1), ab))
            cond = LeftMark(marker_pair[0], FULL)
            target = Inter((LeftMark(marker_pair[1], FULL),
                            Union((extra, Complement(extra)))))
        configs.append((fam, cond, target))
    return configs


def test_criterion_7_trace_invariants(ab, reg_ab):
    rng = np.random.default_rng(6)
    verified = 0
    for fam, cond, target in _random_configs(ab, reg_ab, rng):
        _, trace = hardcore_run(fam, cond, target, ab, 1000)
        rep = verify_trace(trace, fam, cond, target, ab)
        assert rep["ok"], rep["violations"][:1]
        verified += 1

    fam = length_family(ab)
    _, trace = hardcore_run(fam, EMPTY, FULL, ab, 1000)

    # tamper 1: a blocked word recorded as accepted
    idx = next(i for i, e in enumerate(trace) if e.reason == "blocked")
    t1 = list(trace)
    e = t1[idx]
    t1[idx] = TraceEntry(e.n, e.word, "accepted", e.cancelled, e.card + 1)
    t1[idx + 1:] = [TraceEntry(x.n, x.word, x.action, x.cancelled, x.card + 1,
                               x.reason, x.blocking) for x in t1[idx + 1:]]
    r1 = verify_trace(t1, fam, EMPTY, FULL, ab)
    ok1 = not r1["ok"] and any(v["code"] == "accept-blocked" for v in r1["violations"])

    # tamper 2: a cancellation without its condition witness
    idx = next(i for i, e in enumerate(trace) if e.action == "skipped")
    t2 = list(trace)
    e = t2[idx]
    t2[idx] = TraceEntry(e.n, e.word, "cancelled", (0,), e.card)
    r2 = verify_trace(t2, fam, EMPTY, FULL, ab)
    ok2 = not r2["ok"] and any(v["code"] == "cancel-no-condition-witness"
                               for v in r2["violations"])

    # tamper 3: two accepted words swapped (prefix order broken)
    acc = [i for i, e in enumerate(trace) if e.action == "accepted"]
    t3 = list(trace)
    e1, e2 = t3[acc[1]], t3[acc[2]]
    t3[acc[1]] = TraceEntry(e1.n, e2.word, e1.action, e1.cancelled, e1.card)
    t3[acc[2]] = TraceEntry(e2.n, e1.word, e2.action, e2.cancelled, e2.card)
    r3 = verify_trace(t3, fam, EMPTY, FULL, ab)
    ok3 = not r3["ok"] and any(v["code"] in ("word-rank", "accept-order")
                               for v in r3["violations"])

    report(7, verified == 10 and ok1 and ok2 and ok3,
           f"{verified} clean configs at 1000 steps; all 3 tampering modes detected")


# ---------------------------------------------------------------------------
# 8. proper-hard-core reports agree with the conditional-core check


def _linkage_instances(ab):
    """Ten conditional instances over complement-closed family slices."""
    a_even_runs = DfaAtom(Dfa(2, ((1, 2), (0, 2), (2, 2)), 0, frozenset({0})))
    aXs, bXs = LeftMark("a", FULL), LeftMark("b", FULL)
    aaXs = LeftMark("a", LeftMark("a", FULL))
    abXs = LeftMark("a", LeftMark("b", FULL))
    instances = []
    # refuted: a member below the condition's complement splits the target
    instances.append((bXs, aXs, [a_even_runs, bXs], True))
    # refuted: the family contains the target itself inside the region
    instances.append((bXs, aaXs, [aaXs, bXs], True))
    # passing: the only in-region member meets the target finitely
    # (no complement of a member lands inside the region)
    instances.append((bXs, aaXs, [abXs], False))
    instances.append((bXs, aXs, [FiniteSet(("a", "aa")), LeftMark("b", aXs)], False))
    # refuted through the even/odd length split of the target
    even = DfaAtom(Dfa(2, ((1,) * 2, (0,) * 2), 0, frozenset({0})))
    instances.append((bXs, aXs, [Inter((aXs, even)), bXs], True))
    # passing: region members live under the other marker
    instances.append((aXs, bXs, [aaXs, abXs], False))
    # refuted: split of b-words by second symbol
    instances.append((aXs, bXs, [LeftMark("b", aXs), aXs], True))
    instances.append((aXs, bXs, [LeftMark("b", bXs), aXs], True))
    # passing: finite member only
    instances.append((aXs, bXs, [FiniteSet(("b", "bb", "bab"))], False))
    # refuted: family holds a superset piece covering the target inside region
    instances.append((bXs, abXs, [abXs, bXs], True))
    return instances


def test_criterion_8_hardcore_vs_conditional_core(ab):
    agreements = 0
    for cond_expr, target, members, expect_refuted in _linkage_instances(ab):
        fam = close_cc(list_family("slice", ab, members,
                                   FamilyFlags(nontrivial=True)))
        region = Complement(cond_expr)
        hk = is_proper_hardcore(target, region, fam, index_bound=2 * len(members),
                                horizon=300)
        cc = ccore1_check(target, cond_expr, fam, index_bound=2 * len(members),
                          horizon=300)
        hardcore_refuted = not hk["holds_up_to_bounds"]
        ccore_refuted = cc["refutes"]
        assert hardcore_refuted == ccore_refuted == expect_refuted, \
            (cond_expr, target, hk, cc)
        if expect_refuted:
            # linked witnesses on both sides
            assert hk["violations"]
            assert cc["solvable_exact"] or cc["ccohesive_refuted"]
        agreements += 1
    report(8, agreements == 10, f"{agreements}/10 instances agree")


# ---------------------------------------------------------------------------
# 9. refutation soundness under randomized checks


def test_criterion_9_refutation_soundness(ab, reg_ab):
    rng = np.random.default_rng(9)
    sq = Predicate("square-length")
    eq = Predicate("equal-counts-ab")
    families = [
        reg_ab,
        close_cc(list_family("mix", ab,
                             [LeftMark("a", FULL), _even_length(ab),
                              LeftMark("b", LeftMark("a", FULL)),
                              DfaAtom(Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0})))],
                             FamilyFlags(nontrivial=True))),
        list_family("opaque", ab, [sq, Complement(sq), eq, Complement(eq),
                                   LeftMark("a", sq), Complement(LeftMark("a", sq))],
                    FamilyFlags(nontrivial=True)),
        length_family(ab),
    ]
    bounds = [66, 8, 6, 20]
    packed = window_for_horizon(ab, 500)
    checks = refutations = 0
    for trial in range(1000):
        fam = families[trial % len(families)]
        bound = bounds[trial % len(families)]
        a_expr = random_regular_expr(rng, ab, depth=2) if trial % 3 \
            else Union((LeftMark("a", sq if trial % 2 else eq),
                        random_regular_expr(rng, ab, depth=1)))
        verdict = check_cohesive(a_expr, fam, index_bound=bound, horizon=300)
        checks += 1
        if not verdict.is_refuted:
            continue
        refutations += 1
        m = verdict.witness
        # witness pair really is a complement pair
        v = equivalent(fam.expr(m.j), Complement(fam.expr(m.i)), ab, 300)
        assert not v.is_refuted
        if m.status == "exact":
            assert v.is_certified
        # per-side evidence re-verified by brute-force counting / pumping
        q = fam.expr(m.i)
        a_vec = member_batch(a_expr, packed)
        q_vec = member_batch(q, packed)
        for side_verdict, side_vec, side_expr in (
                (verdict.evidence[0], a_vec & q_vec, Inter((a_expr, q))),
                (verdict.evidence[1], a_vec & ~q_vec, Inter((a_expr, Complement(q))))):
            if side_verdict.exact:
                assert side_verdict.is_infinite
                w = side_verdict.witness
                for reps in range(4):
                    assert member(side_expr,
                                  w["prefix"] + w["loop"] * reps + w["suffix"], ab)
            else:
                assert (side_verdict.count or 0) >= THRESHOLD
                assert int(side_vec.sum()) >= THRESHOLD
    report(9, checks == 1000 and refutations >= 100,
           f"{refutations} refutations re-verified out of {checks} checks, "
           f"0 false")
