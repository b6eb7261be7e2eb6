import json

import numpy as np
import pytest

from cptk import cohesion, kernels
from cptk.cli import main
from cptk.classify import (ClassificationProblem, ClosureFlagsAbsent, load_conditional,
                           load_problem)
from cptk.codec import pair
from cptk.cohesion import (CohesionVerdict, ccore1_check, check_ccohesive,
                           check_ccore, check_cohesive, check_core)
from cptk.dfa import Dfa
from cptk.families import (DcMember, FamilyFlags, canonical_index, close_cc,
                           dc_member, family_from_json, inside_check, list_family,
                           regular_family)
from cptk.langs import (EMPTY, FULL, Complement, DfaAtom, FiniteSet, Inter,
                        LeftMark, Predicate, Union, equivalent, expr_to_json,
                        is_finite, regular_view)

from .batch_oracle import member_batch, window_for_horizon
from .conftest import (certified_inside, complement_pairs, family_canonical,
                       infinite_evidence, random_mixed_expr)
from .simplify_oracle import simplify


A_ONLY = DfaAtom(Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0})))        # b-free words
EVEN_A_RUN = DfaAtom(Dfa(2, ((1, 2), (0, 2), (2, 2)), 0, frozenset({0})))  # (aa)*
A_FREE = DfaAtom(Dfa(2, ((1, 0), (1, 1)), 0, frozenset({0})))        # b*
AB_RUN = DfaAtom(Dfa(2, ((1, 2), (2, 0), (2, 2)), 0, frozenset({0})))  # (ab)*
A_THEN_B = DfaAtom(Dfa(2, ((0, 1), (2, 1), (2, 2)), 0, frozenset({0, 1})))  # a*b*
SQ = Predicate("square-length")


def verify_refutation(verdict, a_expr, family, horizon=300, threshold=32):
    """Independent re-verification of a refutation witness."""
    alphabet = family.alphabet
    m = verdict.witness
    q = family.expr(m.i)
    # the pair really is a complement pair
    v = equivalent(family.expr(m.j), Complement(q), alphabet, horizon)
    assert not v.is_refuted
    if m.status == "exact":
        assert v.is_certified
    # both sides carry their claimed evidence, re-derived from scratch
    packed = window_for_horizon(alphabet, 500)
    in_counts = int((member_batch(a_expr, packed) & member_batch(q, packed)).sum())
    out_counts = int((member_batch(a_expr, packed) & ~member_batch(q, packed)).sum())
    for side, count in zip(verdict.evidence, (in_counts, out_counts)):
        if side.exact:
            assert side.is_infinite
        else:
            assert (side.count or 0) >= threshold
            assert count >= threshold
    return q


def complement_key(canonical):
    """Canonical key of the complement language: the same transition
    structure with the accepting set flipped."""
    n_symbols, transitions, accepting = canonical
    return (n_symbols, transitions,
            tuple(s for s in range(len(transitions)) if s not in accepting))


def pair_scan_dc_members(family, index_bound, horizon):
    """Every complement pair below the bound, found pair by pair."""
    out = []
    if family.exact:
        by_canon = {}
        for i in range(index_bound):
            by_canon.setdefault(family_canonical(family, i), []).append(i)
        for j in range(index_bound):
            for i in by_canon.get(complement_key(family_canonical(family, j)), ()):
                out.append(DcMember(i, j, "exact"))
    else:
        rows = family.rows(index_bound, horizon)
        full = (1 << (horizon + 1)) - 1
        by_row = {}
        for i, row in enumerate(rows):
            by_row.setdefault(row, []).append(i)
        for j, row in enumerate(rows):
            for i in by_row.get(full & ~row, ()):
                # exact when both languages are regular and complements
                keys = family_canonical(family, i), family_canonical(family, j)
                if None not in keys and keys[0] == complement_key(keys[1]):
                    out.append(DcMember(i, j, "exact"))
                else:
                    out.append(DcMember(i, j, "horizon", horizon))
    out.sort(key=lambda m: (m.i, m.j))
    return out


def pair_scan(a, region, family, index_bound, horizon):
    """The former cohesion scan, kept as the differential oracle: every
    complement pair in pair-code order, one outcome memoized per language
    class, which is the index itself on families that are not exact."""
    alphabet = family.alphabet
    class_outcome = {}
    members = pair_scan_dc_members(family, index_bound, horizon)
    # on families that are not exact the classes pair each index with the
    # least index of the complement row
    paired = [m for k, m in enumerate(members)
              if family.exact or k == 0 or members[k - 1].i != m.i]
    assert paired == [dc_member(family, i, j, horizon)
                      for i, j in complement_pairs(family, index_bound, horizon)]
    for m in sorted(members, key=lambda m: pair(m.i, m.j)):
        key = family_canonical(family, m.i) if family.exact else m.i
        if key in class_outcome:
            hit = class_outcome[key]
        else:
            q = family.expr(m.i)
            hit = None
            usable = True
            if region is not None:
                usable = certified_inside(q, region, alphabet)
            if usable:
                side_in, ev_in = infinite_evidence(Inter((a, q)), alphabet, horizon)
                if side_in:
                    side_out, ev_out = infinite_evidence(Inter((a, Complement(q))),
                                                         alphabet, horizon)
                    if side_out:
                        hit = (ev_in, ev_out)
            class_outcome[key] = hit
        if hit is not None:
            ev_in, ev_out = hit
            exact = ev_in.exact and ev_out.exact and m.status == "exact"
            return CohesionVerdict("refuted", index_bound, horizon, m,
                                   family.expr(m.i), (ev_in, ev_out), exact)
    return CohesionVerdict("consistent", index_bound, horizon)


def assert_matches_pair_scan(a, family, index_bound, horizon, region=None):
    if region is None:
        got = check_cohesive(a, family, index_bound, horizon)
    else:
        got = check_ccohesive(a, region, family, index_bound, horizon)
    assert got.to_json() == pair_scan(a, region, family, index_bound, horizon).to_json()
    return got


@pytest.mark.parametrize("target", [A_ONLY, A_FREE, AB_RUN, A_THEN_B, LeftMark("a", SQ)],
                         ids=["a*", "b*", "(ab)*", "a*b*", "leftmark-a-square"])
def test_class_scan_matches_pair_scan_regular_ab(reg_ab, target):
    assert_matches_pair_scan(target, reg_ab, 400, 300)


def test_class_scan_matches_pair_scan_regular_abc(abc, reg_abc):
    a_only = DfaAtom(Dfa(3, ((0, 1, 1), (1, 1, 1)), 0, frozenset({0})))
    for target in (a_only, LeftMark("b", SQ), LeftMark("c", FULL)):
        assert_matches_pair_scan(target, reg_abc, 150, 200)


def predicate_family(ab):
    return close_cc(list_family("preds", ab, [SQ, LeftMark("a", FULL),
                                              Predicate("prime-length"),
                                              LeftMark("a", SQ), SQ]))


def repeated_family(ab):
    """Several indices per language, complements listed before and after."""
    even_a_copy = DfaAtom(Dfa(2, ((1, 3), (2, 3), (1, 3), (3, 3)), 0,
                              frozenset({0, 2})))
    return list_family("repeats", ab, [LeftMark("a", FULL), EMPTY, EVEN_A_RUN,
                                       Complement(LeftMark("a", FULL)), FULL,
                                       even_a_copy, Complement(EVEN_A_RUN), EMPTY])


def repeated_predicate_family(ab):
    """As :func:`repeated_family`, with predicate languages: not exact."""
    return list_family("repeats-preds", ab, [SQ, LeftMark("a", FULL), Complement(SQ), SQ,
                                             EMPTY, Complement(LeftMark("a", FULL)),
                                             Complement(SQ), FULL])


def test_class_scan_matches_pair_scan_predicate_family(ab):
    fam = predicate_family(ab)
    assert not fam.exact
    verdicts = [assert_matches_pair_scan(t, fam, 10, 200)
                for t in (A_ONLY, LeftMark("b", FULL), Predicate("equal-counts-ab"))]
    assert any(v.is_refuted for v in verdicts)
    assert all(v.witness.status == "horizon" for v in verdicts if v.is_refuted)


def test_class_scan_matches_pair_scan_repeated_list_family(ab):
    fam = repeated_family(ab)
    assert fam.exact
    verdicts = [assert_matches_pair_scan(t, fam, 16, 300)
                for t in (A_ONLY, A_FREE, LeftMark("b", SQ))]
    assert [v.is_refuted for v in verdicts] == [True, False, False]


# the families of the per-class evidence test, with their index bounds
EVIDENCE_FAMILIES = {
    "regular-ab": (lambda ab, abc: regular_family(ab), 200),
    "regular-abc": (lambda ab, abc: regular_family(abc), 100),
    "predicates": (lambda ab, abc: predicate_family(ab), 10),
    "repeated": (lambda ab, abc: repeated_family(ab), 16),
    "repeated-predicates": (lambda ab, abc: repeated_predicate_family(ab), 16),
}


@pytest.mark.parametrize("horizon", [0, 1, 40, 300])
@pytest.mark.parametrize("family_name", sorted(EVIDENCE_FAMILIES))
def test_scan_evidence_matches_is_finite_per_class(ab, abc, monkeypatch, family_name,
                                                   horizon):
    """For every class the scan visits, both sides read off the class rows
    and the target row are ``is_finite`` of the intersection, which stays
    the oracle: exact verdicts and window counts alike."""
    make, bound = EVIDENCE_FAMILIES[family_name]
    family = make(ab, abc)
    alphabet = family.alphabet
    rng = np.random.default_rng(20 + horizon)
    targets = [random_mixed_expr(rng, alphabet) for _ in range(4)] + [LeftMark("a", SQ)]
    visited, routes = set(), set()
    scan_evidence = cohesion.meet_finiteness

    def checked(a, family, index_bound, horizon):
        evidence = scan_evidence(a, family, index_bound, horizon)

        def at(i, outside=False):
            q = family.expr(i)
            for side, part in ((False, Inter((a, q))), (True, Inter((a, Complement(q))))):
                got = evidence(i, side)
                assert got.to_json() == is_finite(part, alphabet, horizon).to_json()
                routes.add(got.exact)
            visited.add((a, i))
            return evidence(i, outside)
        return at

    monkeypatch.setattr(cohesion, "meet_finiteness", checked)
    for a in targets:
        check_cohesive(a, family, bound, horizon)
    assert visited and routes == {True, False}


def test_scan_makes_no_window_pass_per_class(ab, monkeypatch):
    """With the family rows cached, the scan's one stacked pass is the
    target's row; it made one per class that took the window route, 23."""
    family = regular_family(ab)
    family.classes(400, 300)
    calls = []
    state_rows = kernels.state_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return state_rows(*args, **kwargs)

    monkeypatch.setattr(kernels, "state_rows", counted)
    assert check_cohesive(LeftMark("a", SQ), family, 400, 300).status == "consistent"
    assert len(calls) <= 2


@pytest.mark.parametrize("region", [LeftMark("a", FULL), Complement(FiniteSet(("",))),
                                    Union((EVEN_A_RUN, LeftMark("b", FULL)))],
                         ids=["a-started", "nonempty-words", "even-a-or-b-started"])
def test_class_scan_matches_pair_scan_in_region(reg_ab, region):
    assert_matches_pair_scan(A_ONLY, reg_ab, 400, 300, region)


def example_26_region(predicate, first, second):
    """The region of example 26's components: the complement of the
    condition first·P plus second·P^c."""
    P = Predicate(predicate)
    return Complement(Union((LeftMark(first, P), LeftMark(second, Complement(P)))))


# the regions of the ccohesive tests, and the regions (complements of the
# conditions) that the ccore tests check against, example 26's for both
# predicates and both marker orders
CCORE_REGIONS = {
    "a-started": LeftMark("a", FULL),
    "nonempty-words": Complement(FiniteSet(("",))),
    "even-a-or-b-started": Union((EVEN_A_RUN, LeftMark("b", FULL))),
    "even-a-run": EVEN_A_RUN,
    "full": FULL,
    "not-b-started": Complement(LeftMark("b", FULL)),
    "example-26": example_26_region("square-length", "a", "b"),
    "example-26-ba": example_26_region("square-length", "b", "a"),
    "example-26-prime": example_26_region("prime-length", "a", "b"),
    "example-26-prime-ba": example_26_region("prime-length", "b", "a"),
    "not-b-or-bb": Complement(FiniteSet(("b", "bb"))),
}


def region_check(family, index_bound, horizon, region, indices):
    """The region check of the scan, and of ``is_proper_hardcore``'s
    target, on each index."""
    inside = inside_check(family, region, index_bound, horizon)
    return [inside(i) for i in indices]


@pytest.mark.parametrize("region", sorted(CCORE_REGIONS))
def test_region_check_matches_subset_certificate(ab, reg_ab, region):
    """The row filter and ``subset_of`` decide as the exact-only check
    did, index by index."""
    region = simplify(CCORE_REGIONS[region], ab)
    preds = close_cc(list_family("preds", ab, [SQ, LeftMark("a", FULL),
                                               Predicate("prime-length"),
                                               LeftMark("a", SQ), EMPTY]))
    certified = 0
    for family, bound in ((reg_ab, 300), (preds, 10)):
        got = region_check(family, bound, 300, region, range(bound))
        assert got == [certified_inside(family.expr(i), region, ab) for i in range(bound)]
        certified += sum(got)
    assert certified


def test_region_check_matches_on_random_mixed_regions(ab, reg_ab):
    """Class by class, over random regions with predicate leaves and
    horizons too short to tell many classes apart."""
    rng = np.random.default_rng(16)
    certified = 0
    for _ in range(30):
        region = random_mixed_expr(rng, ab)
        for horizon in (6, 40):
            leaders = [c[0] for c in reg_ab.classes(120, horizon).classes]
            got = region_check(reg_ab, 120, horizon, region, leaders)
            assert got == [certified_inside(reg_ab.expr(i), region, ab) for i in leaders]
            certified += sum(got)
    assert certified


@pytest.mark.parametrize("region", ["example-26", "example-26-ba", "example-26-prime",
                                    "not-b-or-bb", "a-started"])
def test_ccohesive_matches_pair_scan_in_region(ab, reg_ab, region):
    for target in (A_ONLY, LeftMark("a", SQ), LeftMark("b", Complement(SQ))):
        assert_matches_pair_scan(target, reg_ab, 200, 300, simplify(CCORE_REGIONS[region], ab))


def test_ccohesive_matches_pair_scan_in_random_regions(ab, reg_ab):
    rng = np.random.default_rng(17)
    for _ in range(6):
        region = random_mixed_expr(rng, ab)
        assert_matches_pair_scan(A_ONLY, reg_ab, 120, 40, region)


def test_a_star_witness(reg_ab):
    v = check_cohesive(A_ONLY, reg_ab, index_bound=400, horizon=300)
    assert v.is_refuted and v.exact
    assert (v.witness.i, v.witness.j) == (36, 35)


def test_regular_complements_pair_exactly_on_a_family_that_is_not_exact(ab):
    """Square lengths make the family not exact, but the even lengths and
    their complement are automata: the witness pair is proven, and with
    both sides' evidence exact, so is the refutation."""
    even = DfaAtom(Dfa(2, ((1, 1), (0, 0)), 0, frozenset({0})))
    family = list_family("mixed", ab, [SQ, Complement(SQ), even, Complement(even)])
    assert not family.exact
    v = assert_matches_pair_scan(A_ONLY, family, 4, 300)
    assert v.is_refuted and v.exact
    assert (v.witness.i, v.witness.j, v.witness.status) == (3, 2, "exact")
    assert [(e.kind, e.exact) for e in v.evidence] == [("infinite", True)] * 2
    assert [dc_member(family, i, j, 300) for i, j in complement_pairs(family, 4, 300)] == [
        DcMember(0, 1, "horizon", 300), DcMember(1, 0, "horizon", 300),
        DcMember(2, 3, "exact"), DcMember(3, 2, "exact")]


# lengths 0, 1, 4 and the even lengths from 10 on: regular, with the row of
# the square lengths on every window that ends before length 9
SQUARE_ROW_DFA = {"dfa": {"states": 11, "initial": 0,
                          "transitions": [[s + 1] * 2 for s in range(10)] + [[9, 9]],
                          "accepting": [0, 1, 4, 10]}}
SQUARE_ROW_FAMILY = {"alphabet": "ab", "list": [
    {"predicate": "square-length"}, SQUARE_ROW_DFA,
    {"op": "complement", "arg": {"predicate": "square-length"}},
    {"op": "complement", "arg": SQUARE_ROW_DFA}]}


def test_members_that_share_a_row_are_each_scanned(tmp_path, capsys):
    """Square lengths (index 0) do not split a* on the window, but index 1,
    a regular language with their row, splits it exactly.  The least pair
    that shows it is (3, 0): index 1's complement, and index 0, which only
    the window pairs with it.  Every member counts."""
    family = family_from_json(SQUARE_ROW_FAMILY)
    v = assert_matches_pair_scan(A_ONLY, family, 4, 300)
    assert v.is_refuted and not v.exact
    assert (v.witness.i, v.witness.j, v.witness.status) == (3, 0, "horizon")
    assert [(e.kind, e.exact) for e in v.evidence] == [("infinite", True)] * 2
    target, fam = tmp_path / "target.json", tmp_path / "family.json"
    target.write_text(json.dumps({"alphabet": "ab", "expr": expr_to_json(A_ONLY)}))
    fam.write_text(json.dumps(SQUARE_ROW_FAMILY))
    code = main(["cohesive", "--target", str(target), "--family", str(fam),
                 "--index-bound", "4", "--horizon", "300"])
    report = json.loads(capsys.readouterr().out)
    del report["config"]
    assert code == 0 and report == v.to_json()


def test_b_free_words_refuted(ab, reg_ab):
    v = check_cohesive(A_ONLY, reg_ab, index_bound=3700, horizon=300)
    assert v.is_refuted and v.exact
    q = verify_refutation(v, A_ONLY, reg_ab)
    # witness is the least dc pair in pair-code order among refuting pairs
    refuting = []
    for i, j in complement_pairs(reg_ab, 120, horizon=300):
        qq = reg_ab.expr(i)
        one, _ = infinite_evidence(Inter((A_ONLY, qq)), ab, 300)
        two, _ = infinite_evidence(Inter((A_ONLY, Complement(qq))), ab, 300)
        if one and two:
            refuting.append((i, j))
    assert refuting
    assert (v.witness.i, v.witness.j) == min(refuting, key=lambda p: pair(*p))


def test_trivial_family_always_consistent(ab):
    fam = list_family("trivial", ab, [EMPTY, FULL],
                      FamilyFlags(nontrivial=True, union_closed=True,
                                  inter_closed=True, complement_closed=True))
    for target in (A_ONLY, LeftMark("a", FULL), Predicate("square-length")):
        v = check_cohesive(target, fam, index_bound=40, horizon=300)
        assert not v.is_refuted


def test_one_sided_split_is_no_witness(ab, reg_ab):
    # the marker language itself cannot refute a subset of it
    a_marked = LeftMark("a", FULL)
    one, _ = infinite_evidence(Inter((a_marked, a_marked)), ab, 300)
    other, _ = infinite_evidence(Inter((a_marked, Complement(a_marked))), ab, 300)
    assert one and not other


def test_determinism(ab, reg_ab):
    v1 = check_cohesive(A_ONLY, reg_ab, index_bound=3700, horizon=300)
    v2 = check_cohesive(A_ONLY, reg_ab, index_bound=3700, horizon=300)
    assert v1 == v2


def test_ccohesive_full_region_matches_plain(ab, reg_ab):
    plain = check_cohesive(A_ONLY, reg_ab, index_bound=200, horizon=300)
    regioned = check_ccohesive(A_ONLY, FULL, reg_ab, index_bound=200, horizon=300)
    assert plain.status == regioned.status
    if plain.is_refuted:
        assert (plain.witness.i, plain.witness.j) == (regioned.witness.i, regioned.witness.j)


def test_ccohesive_region_monotone(ab, reg_ab):
    # a refutation inside a small region stays one in any larger region
    small = check_ccohesive(A_ONLY, EVEN_A_RUN, reg_ab, index_bound=3700, horizon=300)
    if small.is_refuted:
        q = small.witness_expr
        big = check_ccohesive(A_ONLY, FULL, reg_ab, index_bound=3700, horizon=300)
        assert big.is_refuted


def test_ccohesive_pruned_region(ab, reg_ab):
    # witnesses must fit inside (aa)* plus b-started words; below the
    # index bound that reaches (aa)* itself nothing qualifies and splits
    region = Union((EVEN_A_RUN, LeftMark("b", FULL)))
    v = check_ccohesive(A_ONLY, region, reg_ab, index_bound=2000, horizon=300)
    assert not v.is_refuted
    # enlarging the bound past the even-run language flips the verdict
    v2 = check_ccohesive(A_ONLY, region, reg_ab, index_bound=3700, horizon=300)
    assert v2.is_refuted
    assert canonical_index(regular_view(EVEN_A_RUN, ab)) < 3700
    verify_refutation(v2, A_ONLY, reg_ab)


# ---------------------------------------------------------------------------
# core reports


def test_marker_pair_is_not_a_core(ab, reg_ab):
    prob = load_problem([LeftMark("a", FULL), LeftMark("b", FULL)], ab)
    report = check_core(prob, reg_ab, index_bound=3700, horizon=300)
    assert report["core_status"] == "refuted"
    assert report["cohesion"]["status"] == "refuted"
    assert report["routes_consistent"]
    # the solvable pair shows up with its certificate
    assert any(e["refutes"] for e in report["subproblems"])
    # and the separator induces an in-bound splitting pair
    assert any(l["splits_union"] and l["separator_index"] is not None
               for l in report["linked_witnesses"])


def test_core_requires_flags(ab):
    fam = list_family("nofl", ab, [FULL])
    prob = ClassificationProblem((LeftMark("a", FULL), LeftMark("b", FULL)), ab)
    with pytest.raises(ClosureFlagsAbsent):
        check_core(prob, fam, index_bound=10, horizon=100)


def test_core_matches_pair_conjunction(abc, reg_abc):
    comps = (LeftMark("a", FULL), LeftMark("b", FULL), LeftMark("c", FULL))
    prob = ClassificationProblem(comps, abc)
    report = check_core(prob, reg_abc, index_bound=258, horizon=200, subset_samples=0)
    pair_reports = []
    for i in range(3):
        for j in range(i + 1, 3):
            sub = ClassificationProblem((comps[i], comps[j]), abc)
            pair_reports.append(check_core(sub, reg_abc, index_bound=258, horizon=200,
                                           subset_samples=0))
    refuted_any_pair = any(r["core_status"] == "refuted" for r in pair_reports)
    assert (report["core_status"] == "refuted") == refuted_any_pair


def test_ccore_refuted_by_solvable_component(ab, reg_ab):
    cond = load_conditional(LeftMark("b", FULL), [LeftMark("a", FULL)], ab)
    report = check_ccore(cond, reg_ab, index_bound=3700, horizon=300)
    assert report["ccore_status"] == "refuted"
    assert report["components"][0]["solvable_exact"]


def test_ccore_example26_consistent(ab, reg_ab):
    sq = Predicate("square-length")
    cond = load_conditional(Union((LeftMark("a", sq), LeftMark("b", Complement(sq)))),
                            [LeftMark("a", Complement(sq)), LeftMark("b", sq)], ab)
    report = check_ccore(cond, reg_ab, index_bound=2000, horizon=300)
    assert report["ccore_status"] == "consistent-up-to-bounds"
    for comp in report["components"]:
        assert comp["conditional_solve"]["result"] == "not-found"


def test_ccore_finite_condition_matches_empty(ab, reg_ab):
    comp = LeftMark("a", Predicate("square-length"))
    fin = load_conditional(FiniteSet(("b", "bb")), [comp], ab)
    empty = load_conditional(EMPTY, [comp], ab)
    r1 = check_ccore(fin, reg_ab, index_bound=500, horizon=300)
    r2 = check_ccore(empty, reg_ab, index_bound=500, horizon=300)
    assert r1["ccore_status"] == r2["ccore_status"]


def test_ccore1_requires_nontrivial(ab):
    fam = list_family("bare", ab, [FULL])
    with pytest.raises(ClosureFlagsAbsent):
        ccore1_check(LeftMark("a", FULL), EMPTY, fam, 10, 100)


@pytest.mark.parametrize("seed,slices", [
    (0, [[[1, 27], [0, 17]], [[1, 51], [0, 20]], [[0, 59], [1, 33]],
         [[0, 40], [1, 16]], [[1, 53], [0, 59]], [[0, 59], [1, 45]]]),
    (5, [[[0, 35], [1, 37]], [[1, 52], [0, 9]]])])
def test_core_slices_pinned_per_seed(ab, reg_ab, seed, slices):
    """Slices are drawn from ``random.Random(seed)``, whose ``random()``
    stream Python keeps for a given seed."""
    prob = load_problem([LeftMark("a", FULL), LeftMark("b", FULL)], ab)
    report = check_core(prob, reg_ab, index_bound=66, horizon=60, subset_samples=6,
                        seed=seed)
    assert [e["subproblem"]["slices"] for e in report["subproblems"]
            if "slices" in e["subproblem"]] == slices


def test_core_rejects_negative_seed(ab, reg_ab):
    prob = load_problem([LeftMark("a", FULL), LeftMark("b", FULL)], ab)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        check_core(prob, reg_ab, index_bound=66, horizon=60, seed=-1)


@pytest.mark.parametrize("index_bound,horizon", [(50, -1), (0, 300)])
def test_checks_reject_bounds_without_evidence(ab, reg_ab, index_bound, horizon):
    prob = load_problem([LeftMark("a", FULL), LeftMark("b", FULL)], ab)
    cond = load_conditional(EMPTY, [LeftMark("a", FULL), LeftMark("b", FULL)], ab)
    checks = [lambda: check_cohesive(A_ONLY, reg_ab, index_bound, horizon),
              lambda: check_ccohesive(A_ONLY, FULL, reg_ab, index_bound, horizon),
              lambda: check_core(prob, reg_ab, index_bound, horizon),
              lambda: check_ccore(cond, reg_ab, index_bound, horizon)]
    for check in checks:
        with pytest.raises(ValueError, match="must be at least"):
            check()
