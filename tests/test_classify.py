import itertools

import numpy as np
import pytest

from cptk.codec import tuple_code
from cptk.classify import (INFINITE_EVIDENCE_THRESHOLD, ClassificationProblem,
                           ClosureFlagsAbsent, ConditionalProblem, PartitionCertificate,
                           ProblemPrecondition, SolveNotFound, combine_pairwise,
                           is_infinite_evidence, is_partition, load_conditional,
                           load_problem, pad_partition, refines, set_of, solve,
                           solve_conditional)
from cptk import families
from cptk.families import list_family
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter,
                        LeftMark, Predicate, Union, equivalent, is_finite,
                        subset_of, regular_view, window_rows)
from cptk.verdicts import FINITE, INFINITE, UNKNOWN, FinitenessVerdict

from .batch_oracle import member_batch, window_for_horizon
from .conftest import infinite_evidence


def mark(sym, inner=FULL):
    return LeftMark(sym, inner)


def ends_with(alphabet, sym):
    """Two-state automaton for words ending in the given symbol."""
    code = alphabet.code(sym)
    rows = tuple((1 if x == code else 0 for x in range(alphabet.size))
                 for _ in range(2))
    from cptk.dfa import Dfa
    return DfaAtom(Dfa(alphabet.size, tuple(tuple(r) for r in rows), 0,
                       frozenset({1})))


# ---------------------------------------------------------------------------
# problems, set_of, refines


def test_set_of_examples(ab):
    prob = load_problem([mark("a"), mark("b")], ab)
    v = equivalent(set_of(prob), Complement(FiniteSet(("",))), ab)
    assert v.is_certified
    single = load_problem([mark("a")], ab)
    assert set_of(single) == mark("a")
    got, a_row, b_row = window_rows([set_of(prob), mark("a"), mark("b")], ab, 1001)
    assert got == a_row | b_row


def test_load_rejects_overlap(ab):
    with pytest.raises(ProblemPrecondition):
        load_problem([FULL, mark("a")], ab)


def test_load_rejects_finite_component(ab):
    with pytest.raises(ProblemPrecondition):
        load_problem([FiniteSet(("a", "b")), mark("b")], ab)
    # empty component via a degenerate base
    with pytest.raises(ProblemPrecondition):
        load_problem([LeftMark("a", Complement(FULL)), mark("b")], ab)


def test_load_flags_opaque(ab):
    sq = Predicate("square-length")
    prob = load_problem([LeftMark("a", sq), LeftMark("b", sq)], ab, horizon=300)
    assert any("infiniteness" in f for f in prob.check.flags)
    # disjointness is structural, hence exact even with the opaque base
    assert all(v.exact for _, _, v in prob.check.disjointness)


def test_conditional_load(ab):
    sq = Predicate("square-length")
    cond = load_conditional(Union((LeftMark("a", sq), LeftMark("b", Complement(sq)))),
                            [LeftMark("a", Complement(sq)), LeftMark("b", sq)], ab)
    assert all(v.exact for v in cond.problem.check.condition_disjointness)
    with pytest.raises(ProblemPrecondition):
        load_conditional(mark("a"), [mark("a"), mark("b")], ab)


def test_refines_examples(ab, abc):
    prob_a = load_problem([mark("a"), mark("b")], ab)
    sub = load_problem([mark("a")], ab)
    assert refines(sub, prob_a) == (0,)
    sq = Predicate("square-length")
    swapped = ClassificationProblem((LeftMark("b", sq), LeftMark("b", Complement(sq))), ab)
    target = ClassificationProblem((LeftMark("b", Complement(sq)), LeftMark("b", sq)), ab)
    assert refines(swapped, target) == (1, 0)
    b3 = load_problem([mark("a"), mark("b")], abc)
    a3 = load_problem([mark("b"), mark("c"), mark("a")], abc)
    assert refines(b3, a3) == (2, 0)
    assert refines(a3, b3) is None  # too many components


# ---------------------------------------------------------------------------
# partitions


def test_is_partition_examples(ab, reg_ab):
    aXs = mark("a")
    v = is_partition((aXs, Complement(aXs)), ab)
    assert v.is_certified and v.exact
    v = is_partition((mark("a"), mark("b")), ab)
    assert v.is_refuted and v.witness == "" and v.kind == "uncovered"
    v = is_partition((FULL, mark("a")), ab)
    assert v.is_refuted and v.witness == "a" and v.kind == "overlap"


def test_is_partition_family_membership(ab, reg_ab):
    aXs = mark("a")
    v = is_partition((aXs, Complement(aXs)), ab, reg_ab, index_bound=3700)
    assert v.is_certified and v.member_indices == (3660, 3663)
    v = is_partition((aXs, Complement(aXs)), ab, reg_ab, index_bound=10)
    assert v.is_refuted and v.kind == "membership"


# ---------------------------------------------------------------------------
# solve, with an independent exhaustive oracle


def brute_solve(problem, family, index_bound, horizon):
    """Oracle: scan every index tuple in ascending code order directly."""
    alphabet = problem.alphabet
    packed = window_for_horizon(alphabet, horizon)
    k = len(problem)
    rows = [member_batch(family.expr(i), packed) for i in range(index_bound)]
    comp = [member_batch(c, packed) for c in problem.components]
    ranked = sorted(itertools.product(range(index_bound), repeat=k), key=tuple_code)
    for slots in ranked:
        union = np.zeros(len(packed), dtype=bool)
        ok = True
        for x in range(k):
            if (union & rows[slots[x]]).any():
                ok = False
                break
            union |= rows[slots[x]]
        if not ok or not union.all():
            continue
        blocks = [family.expr(i) for i in slots]
        pv = is_partition(blocks, alphabet, horizon=horizon)
        if pv.is_refuted:
            continue
        for perm in itertools.permutations(range(k)):
            if all(not subset_of(problem.components[perm[s]], blocks[s],
                                 alphabet, horizon).is_refuted
                   for s in range(k)):
                return slots
    return None


def test_solve_matches_exhaustive_oracle(ab, reg_ab):
    instances = [
        [mark("a"), mark("b")],
        [DfaAtom(regular_view(Inter((mark("a"), mark("a"))), ab)), mark("b")],
        [LeftMark("a", Predicate("square-length")), mark("b")],
    ]
    for comps in instances:
        problem = ClassificationProblem(tuple(comps), ab)
        got = solve(problem, reg_ab, index_bound=70, horizon=200)
        want = brute_solve(problem, reg_ab, 70, 200)
        if want is None:
            assert isinstance(got, SolveNotFound)
        else:
            assert isinstance(got, PartitionCertificate)
            assert got.indices == want


def three_family_members():
    """The words starting aa, ab or b, the rest, and regular languages
    built from them: the members of the exact ``three`` list family."""
    aa, a_b, b = mark("a", mark("a")), mark("a", mark("b")), mark("b")
    rest = Complement(Union((aa, a_b)))
    regular = [FULL, EMPTY, mark("a"), b, aa, a_b, rest, Complement(b),
               Union((b, FiniteSet(("", "a")))), Complement(Union((aa, b))),
               FiniteSet(("", "a"))]
    return aa, a_b, b, rest, regular


def test_solve_matches_exhaustive_oracle_three_components(ab):
    """Families over ab with three-block partitions and near misses: the
    words starting aa, ab or b, and the same split by square length.  A
    check on one predicate is exact; the words starting b together with
    the (empty) square-and-prime lengths need two predicates, so their
    containment holds up to the horizon only."""
    sq = Predicate("square-length")
    sq_prime = Inter((sq, Predicate("prime-length")))
    aa, a_b, b, rest, regular = three_family_members()
    exact = list_family("three", ab, regular)
    mixed = list_family("three-mixed", ab, regular + [
        Inter((aa, sq)), Union((Inter((aa, Complement(sq))), a_b)),
        Union((rest, Inter((aa, sq))))])
    assert exact.exact and not mixed.exact
    instances = [
        (exact, [aa, a_b, b]),
        (exact, [b, a_b, aa]),
        (exact, [aa, a_b, Inter((b, sq))]),
        (exact, [aa, a_b, Union((b, sq_prime))]),
        (mixed, [Inter((aa, sq)), a_b, b]),
        (mixed, [Inter((aa, Complement(sq))), a_b, b]),
        (mixed, [aa, b, mark("a", mark("a", sq))]),
        (mixed, [Inter((aa, sq)), Inter((aa, Complement(sq))), b]),
    ]
    found, statuses = 0, set()
    for family, comps in instances:
        problem = ClassificationProblem(tuple(comps), ab)
        got = solve(problem, family, index_bound=28, horizon=60)
        want = brute_solve(problem, family, 28, 60)
        if want is None:
            assert isinstance(got, SolveNotFound)
        else:
            found += 1
            assert isinstance(got, PartitionCertificate)
            assert got.indices == want
            statuses.add(got.status)
    assert found >= 5 and statuses == {"exact", "horizon"}


def brute_solve_conditional(cond, family, index_bound, horizon):
    """Oracle: scan every (block 0, rest) tuple in ascending code order."""
    alphabet = cond.alphabet
    packed = window_for_horizon(alphabet, horizon)
    comps = cond.problem.components
    k = len(comps)
    rows = [member_batch(family.expr(i), packed) for i in range(index_bound)]
    cond_vec = member_batch(cond.condition, packed)
    ranked = sorted(itertools.product(range(index_bound), repeat=k + 1), key=tuple_code)
    for slots in ranked:
        union = np.zeros(len(packed), dtype=bool)
        ok = True
        for i in slots:
            if (union & rows[i]).any():
                ok = False
                break
            union |= rows[i]
        if not ok or not union.all() or (cond_vec & ~rows[slots[0]]).any():
            continue
        blocks = [family.expr(i) for i in slots]
        if is_partition(blocks, alphabet, horizon=horizon).is_refuted:
            continue
        if subset_of(cond.condition, blocks[0], alphabet, horizon).is_refuted:
            continue
        for perm in itertools.permutations(range(k)):
            if all(not subset_of(comps[perm[s]], blocks[1 + s], alphabet,
                                 horizon).is_refuted for s in range(k)):
                return slots, tuple(1 + perm.index(t) for t in range(k))
    return None


def test_solve_conditional_matches_oracle_on_opaque_list_family(ab):
    """Non-exact family: the forced block 0 is found by its window row."""
    sq = Predicate("square-length")
    members = [FULL, EMPTY, mark("a"), mark("b"), sq, Complement(sq),
               Inter((mark("a"), Complement(sq))), Inter((mark("b"), Complement(sq))),
               Union((sq, mark("a"))), Inter((mark("b"), sq))]
    family = list_family("opaque", ab, members)
    assert not family.exact
    instances = [
        (sq, [Inter((mark("a"), Complement(sq))), Inter((mark("b"), Complement(sq)))]),
        (sq, [Inter((mark("b"), Complement(sq))), Inter((mark("a"), Complement(sq)))]),
        (EMPTY, [mark("a"), Inter((mark("b"), Complement(sq)))]),
        (Inter((mark("a"), sq)), [mark("b")]),
        (FiniteSet(("",)), [mark("a", Complement(sq)), mark("b")]),
    ]
    found = 0
    for condition, comps in instances:
        cond = ConditionalProblem(condition, ClassificationProblem(tuple(comps), ab))
        got = solve_conditional(cond, family, index_bound=12, horizon=80)
        want = brute_solve_conditional(cond, family, 12, 80)
        if want is None:
            assert isinstance(got, SolveNotFound)
        else:
            found += 1
            assert isinstance(got, PartitionCertificate)
            assert (got.indices, got.injection) == want
            assert got.status == "horizon" and got.has_condition_block
    assert found >= 3


def test_solve_conditional_matches_oracle_on_exact_list_family(ab):
    """Exact families: a block 0 whose window row fits but whose language
    does not is rejected by is_partition alone.  The near misses put in
    front of ``three`` match the row of the rest (words starting b, plus
    the empty word and a) up to the horizon, but overlap the words
    starting aa or miss a word beyond the window.  As in the plain search,
    the component that needs two predicates is certified to the horizon."""
    sq = Predicate("square-length")
    sq_prime = Inter((sq, Predicate("prime-length")))
    aa, a_b, b, rest, regular = three_family_members()
    near = [Union((rest, FiniteSet(("a" * 12,)))),
            Inter((rest, Complement(FiniteSet(("b" * 8,)))))]
    three = list_family("three", ab, regular)
    near_three = list_family("three-near", ab, near + regular)
    assert three.exact and near_three.exact
    instances = [
        (EMPTY, [aa, a_b]),
        (FiniteSet(("",)), [aa, b]),
        (FiniteSet(("", "a")), [b]),
        (mark("a"), [b]),
        (aa, [a_b, Inter((b, sq))]),
        (aa, [a_b, Union((b, sq_prime))]),
        (EMPTY, [aa, a_b, b]),
        (FiniteSet(("",)), [mark("a")]),
        (FiniteSet(("a",)), [a_b, aa]),
    ]
    found, missed, statuses = 0, 0, set()
    for family, index_bound in ((three, len(regular)), (near_three, len(near + regular))):
        for condition, comps in instances:
            cond = ConditionalProblem(condition, ClassificationProblem(tuple(comps), ab))
            got = solve_conditional(cond, family, index_bound, horizon=60)
            want = brute_solve_conditional(cond, family, index_bound, 60)
            if want is None:
                missed += 1
                assert isinstance(got, SolveNotFound)
            else:
                found += 1
                assert isinstance(got, PartitionCertificate)
                assert (got.indices, got.injection) == want
                statuses.add(got.status)
    assert found >= 10 and missed >= 2 and statuses == {"exact", "horizon"}


def test_row_cache_one_entry_per_horizon_and_hits(ab, monkeypatch):
    family = families.regular_family(ab)
    prob = load_problem([mark("a"), mark("b")], ab)
    first = solve(prob, family, index_bound=300, horizon=100)
    assert list(family._rows) == [100] and len(family._rows[100]) == 300
    cached = family._rows[100]

    def no_new_rows(*args, **kwargs):
        raise AssertionError("rows recomputed")
    monkeypatch.setattr(families, "window_rows", no_new_rows)
    assert solve(prob, family, index_bound=300, horizon=100) == first
    solve(prob, family, index_bound=120, horizon=100)
    monkeypatch.undo()
    solve(prob, family, index_bound=500, horizon=100)
    assert list(family._rows) == [100] and family._rows[100] is cached
    assert len(cached) == 500
    assert cached == families.regular_family(ab).rows(500, 100)
    for horizon in range(families.ROW_HORIZONS + 2):
        family.rows(3, horizon)
    assert len(family._rows) == families.ROW_HORIZONS


@pytest.mark.parametrize("index_bound,horizon", [(50, -5), (50, -1), (0, 300), (-5, 300)])
def test_searches_reject_bounds_without_evidence(ab, reg_ab, index_bound, horizon):
    prob = load_problem([mark("a"), mark("b")], ab)
    cond = load_conditional(EMPTY, [mark("a"), mark("b")], ab)
    with pytest.raises(ValueError, match="must be at least"):
        solve(prob, reg_ab, index_bound, horizon)
    with pytest.raises(ValueError, match="must be at least"):
        solve_conditional(cond, reg_ab, index_bound, horizon)


def test_solve_marker_pair(ab, reg_ab):
    prob = load_problem([mark("a"), mark("b")], ab)
    res = solve(prob, reg_ab, index_bound=3700, horizon=300)
    assert isinstance(res, PartitionCertificate)
    assert res.status == "exact"
    # blocks: everything-not-starting-b, everything-starting-b
    bXs = regular_view(mark("b"), ab)
    assert regular_view(res.blocks[0], ab) == bXs.complement()
    assert regular_view(res.blocks[1], ab) == bXs
    assert res.injection == (0, 1)
    # deterministic: identical bounds give the identical certificate
    again = solve(prob, reg_ab, index_bound=3700, horizon=300)
    assert again == res


def test_solve_separating_opaque_complement_fails(ab, reg_ab):
    eq = Predicate("equal-counts-ab")
    prob = ClassificationProblem((eq, Complement(eq)), ab)
    res = solve(prob, reg_ab, index_bound=400, horizon=300)
    assert isinstance(res, SolveNotFound)
    assert res.index_bound == 400 and res.horizon == 300


def test_solve_k1(ab, reg_ab):
    prob = load_problem([mark("a")], ab)
    res = solve(prob, reg_ab, index_bound=10, horizon=200)
    assert isinstance(res, PartitionCertificate)
    assert res.indices == (1,)  # the full language is index 1


def test_solve_conditional_empty_condition_matches_plain(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b")))]
    prob = load_problem(comps, abc)
    plain = solve(prob, reg_abc, index_bound=258, horizon=200)
    assert isinstance(plain, PartitionCertificate)
    cond = load_conditional(EMPTY, comps, abc)
    conditional = solve_conditional(cond, reg_abc, index_bound=258, horizon=200)
    assert isinstance(conditional, PartitionCertificate)
    assert conditional.has_condition_block


def test_solve_conditional_finite_condition_matches_empty(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b")))]
    finite_cond = load_conditional(FiniteSet(("c", "cc")), comps, abc)
    empty_cond = load_conditional(EMPTY, comps, abc)
    res_fin = solve_conditional(finite_cond, reg_abc, index_bound=258, horizon=200)
    res_empty = solve_conditional(empty_cond, reg_abc, index_bound=258, horizon=200)
    assert isinstance(res_fin, PartitionCertificate) == isinstance(res_empty, PartitionCertificate)


def test_solve_conditional_monotone_in_condition(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b")))]
    c2 = ends_with(abc, "c")
    c1 = Inter((c2, mark("a")))  # c1 inside c2
    res2 = solve_conditional(load_conditional(c2, comps, abc), reg_abc, 258, 200)
    assert isinstance(res2, PartitionCertificate)
    # the same certificate serves the smaller condition: block 0 still contains it
    assert subset_of(c1, res2.blocks[0], abc, 200).is_certified
    res1 = solve_conditional(load_conditional(c1, comps, abc), reg_abc, 258, 200)
    assert isinstance(res1, PartitionCertificate)


def test_solve_conditional_example26_not_found(ab, reg_ab):
    sq = Predicate("square-length")
    cond = load_conditional(Union((LeftMark("a", sq), LeftMark("b", Complement(sq)))),
                            [LeftMark("a", Complement(sq)), LeftMark("b", sq)], ab)
    res = solve_conditional(cond, reg_ab, index_bound=3700, horizon=300)
    assert isinstance(res, SolveNotFound)


# ---------------------------------------------------------------------------
# the two constructions


def test_pad_partition_identity_when_same_size(ab, reg_ab):
    prob = load_problem([mark("a"), mark("b")], ab)
    cert = solve(prob, reg_ab, index_bound=3700, horizon=300)
    padded = pad_partition(cert, prob, prob, reg_ab)
    assert len(padded.blocks) == 2
    assert padded.status == "exact"


def test_pad_partition_shrinks(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b"))),
             Inter((ends_with(abc, "c"), mark("c")))]
    prob = load_problem(comps, abc)
    cert = solve(prob, reg_abc, index_bound=258, horizon=200)
    assert isinstance(cert, PartitionCertificate)
    sub = ClassificationProblem((comps[0],), abc)
    padded = pad_partition(cert, prob, sub, reg_abc)
    assert len(padded.blocks) == 1
    v = is_partition(padded.blocks, abc, horizon=200)
    assert not v.is_refuted
    sub2 = ClassificationProblem((comps[2], comps[0]), abc)
    padded2 = pad_partition(cert, prob, sub2, reg_abc)
    assert len(padded2.blocks) == 2
    assert subset_of(comps[2], padded2.blocks[0], abc, 200).is_certified


def test_pad_partition_requires_union_closure(ab, reg_ab):
    skinny = list_family("skinny", ab, [FULL])
    prob = load_problem([mark("a"), mark("b")], ab)
    cert = solve(prob, reg_ab, index_bound=3700, horizon=300)
    with pytest.raises(ClosureFlagsAbsent):
        pad_partition(cert, prob, prob, skinny)


def test_combine_pairwise_base_case(ab, reg_ab):
    prob = load_problem([mark("a"), mark("b")], ab)
    pair_cert = solve(prob, reg_ab, index_bound=3700, horizon=300)
    combined = combine_pairwise(prob, {(0, 1): pair_cert}, reg_ab)
    assert len(combined.blocks) == 2
    assert combined.status == "exact"


def test_combine_pairwise_three_markers(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b"))),
             Inter((ends_with(abc, "c"), mark("c")))]
    prob = load_problem(comps, abc)
    pair_certs = {}
    for i in range(3):
        for j in range(i + 1, 3):
            sub = ClassificationProblem((comps[i], comps[j]), abc)
            cert = solve(sub, reg_abc, index_bound=258, horizon=200)
            assert isinstance(cert, PartitionCertificate)
            pair_certs[(i, j)] = cert
    combined = combine_pairwise(prob, pair_certs, reg_abc)
    v = is_partition(combined.blocks, abc, horizon=200)
    assert not v.is_refuted and v.exact
    for t in range(3):
        assert not subset_of(comps[t], combined.blocks[t], abc, 200).is_refuted


def test_combine_pairwise_surfaces_bogus_certificate(ab, reg_ab):
    prob = load_problem([mark("a"), mark("b")], ab)
    bogus = PartitionCertificate((FULL, FULL), (0, 1), "exact")
    with pytest.raises(ProblemPrecondition):
        combine_pairwise(prob, {(0, 1): bogus}, reg_ab)


def test_combine_pairwise_missing_pair(abc, reg_abc):
    comps = [Inter((ends_with(abc, "a"), mark("a"))),
             Inter((ends_with(abc, "b"), mark("b"))),
             Inter((ends_with(abc, "c"), mark("c")))]
    prob = load_problem(comps, abc)
    with pytest.raises(KeyError):
        combine_pairwise(prob, {}, reg_abc)


@pytest.mark.parametrize("verdict, want", [
    # an exact verdict decides, whatever its count
    (FinitenessVerdict(FINITE, exact=True, count=INFINITE_EVIDENCE_THRESHOLD), False),
    (FinitenessVerdict(INFINITE, exact=True,
                       witness={"prefix": "", "loop": "a", "suffix": ""}), True),
    (FinitenessVerdict(UNKNOWN, exact=False, count=INFINITE_EVIDENCE_THRESHOLD - 1,
                       horizon=300), False),
    (FinitenessVerdict(UNKNOWN, exact=False, count=INFINITE_EVIDENCE_THRESHOLD,
                       horizon=300), True)])
def test_infinite_evidence_rule(verdict, want):
    assert is_infinite_evidence(verdict) is want


def test_infinite_evidence_rule_matches_the_split_rule(ab):
    """The one rule against the former split rule of the cohesion scan."""
    sq = Predicate("square-length")
    exprs = [EMPTY, FULL, FiniteSet(("a", "ab")), mark("a"), sq, LeftMark("a", sq),
             Predicate("equal-counts-ab"),
             Inter((sq, FiniteSet(tuple("ab" * k for k in range(40))))),
             Inter((sq, FiniteSet(tuple("a" * k for k in range(40)))))]
    for e in exprs:
        for horizon in (0, 30, 300):
            v = is_finite(e, ab, horizon)
            assert (is_infinite_evidence(v), v) == infinite_evidence(e, ab, horizon)
