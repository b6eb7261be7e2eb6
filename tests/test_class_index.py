"""The language-class index against the lookups it replaced.

Each ``old_*`` function is a copy of a lookup that answered "which index
has this language" before the index existed: classes by canonical
automaton, least-index dedup by canonical automaton, the slot-0 lookup
among the candidates' rows, family membership by a linear ``equivalent``
scan and separator linking by a linear canonical scan.  They are the
differential oracles for the index.
"""

import itertools
import json

import numpy as np
import pytest

from cptk import codec, families
from cptk.classify import (ClassificationProblem, PartitionCertificate, SolveNotFound,
                           _disjoint_tuples, is_partition, load_conditional,
                           load_problem, solve, solve_conditional, validate_bounds)
from cptk.cohesion import check_cohesive, check_core
from cptk.constructions import example_26
from cptk.dfa import Dfa
from cptk.families import (FamilyFlags, close_cc, finite_family, language_classes,
                           length_family, list_family, regular_family)
from cptk.langs import (FULL, Complement, DfaAtom, FiniteSet, Inter, LeftMark, Predicate,
                        equivalent, regular_view, subset_of)
from cptk.words import Alphabet

from .batch_oracle import member_batch, row_bits, window_for_horizon
from .conftest import canonical_key, family_canonical
from .test_acceptance import _ends_with, _generated_problems

AB, ABC = Alphabet.parse("ab"), Alphabet.parse("abc")
SQ = Predicate("square-length")


# ---------------------------------------------------------------------------
# the replaced lookups


def old_complement_key(canonical):
    n_symbols, transitions, accepting = canonical
    acc = set(accepting)
    return (n_symbols, transitions,
            tuple(s for s in range(len(transitions)) if s not in acc))


def old_language_classes(family, index_bound, horizon):
    full = (1 << (horizon + 1)) - 1
    if not family.exact:
        # languages that cannot be compared: each index is its own class,
        # paired with the least index of the complement row
        rows = family.rows(index_bound, horizon)
        return [([i], [j for j, r in enumerate(rows) if r == full & ~row][:1])
                for i, row in enumerate(rows)]
    keys = [family_canonical(family, i) for i in range(index_bound)]
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return [(members, classes.get(old_complement_key(key), []))
            for key, members in classes.items()]


def old_dedup_candidates(family, indices):
    if not family.exact:
        return list(indices)
    seen = {}
    for i in indices:
        key = family_canonical(family, i)
        if key not in seen:
            seen[key] = i
    return sorted(seen.values())


def old_containment_candidates(rows, comp):
    return [i for i, row in enumerate(rows) if not comp & ~row]


def old_by_row(rows, indices):
    out = {}
    for i in indices:
        out.setdefault(rows[i], []).append(i)
    return out


def old_family_index_of(family, expr, index_bound, horizon):
    for i in range(index_bound):
        v = equivalent(family.expr(i), expr, family.alphabet, horizon)
        if v.is_certified:
            return i, v
        if v.is_unknown:
            return i, v
    return None, None


def old_find_family_index(family, view, index_bound):
    key = canonical_key(view)
    for i in range(index_bound):
        if family_canonical(family, i) == key:
            return i
    return None


def old_search(problem, family, index_bound, horizon, condition=None):
    validate_bounds(index_bound, horizon)
    k = len(problem)
    alphabet = problem.alphabet
    rows = family.rows(index_bound, horizon)
    packed = window_for_horizon(alphabet, horizon)
    cand = [old_dedup_candidates(family, old_containment_candidates(
                rows, row_bits(member_batch(c, packed)))) for c in problem.components]
    if not all(cand):
        return SolveNotFound(index_bound, horizon)
    full = (1 << len(packed)) - 1
    if condition is None:
        forced = [old_by_row(rows, c) for c in cand]
    else:
        cond_row = row_bits(member_batch(condition, packed))
        forced = [old_by_row(rows, old_containment_candidates(rows, cond_row))] * k
    offset = 0 if condition is None else 1
    tuples = {}
    for perm in itertools.permutations(range(k)):
        pools = [cand[t] for t in perm[1 - offset:]]
        for rest, acc in _disjoint_tuples(rows, pools):
            for i in forced[perm[0]].get(full & ~acc, ()):
                tuples.setdefault((i,) + rest, []).append(perm)
    for slots in sorted(tuples, key=codec.tuple_code):
        blocks = tuple(family.expr(i) for i in slots)
        pv = is_partition(blocks, alphabet, horizon=horizon)
        if pv.is_refuted:
            continue
        exact = pv.exact
        if condition is not None:
            cv = subset_of(condition, blocks[0], alphabet, horizon)
            if cv.is_refuted:
                continue
            exact = exact and cv.exact
        for perm in tuples[slots]:
            fits = exact
            for s, t in enumerate(perm):
                v = subset_of(problem.components[t], blocks[offset + s], alphabet, horizon)
                if v.is_refuted:
                    break
                fits = fits and v.exact
            else:
                injection = tuple(offset + perm.index(t) for t in range(k))
                return PartitionCertificate(
                    blocks, injection, "exact" if fits else "horizon", indices=slots,
                    code=codec.tuple_code(slots), horizon=horizon,
                    has_condition_block=condition is not None)
    return SolveNotFound(index_bound, horizon)


# ---------------------------------------------------------------------------
# cases


def mark(symbol, arg=FULL):
    return LeftMark(symbol, arg)


def readme_problem():
    return load_problem([mark("a", Complement(SQ)), mark("b", SQ)], AB)


def marker_problem(alphabet):
    return load_problem([mark(alphabet.symbols[0]), mark(alphabet.symbols[1])],
                        alphabet)


def opaque_family():
    # index 2 repeats index 0, so a row group holds two indices
    return list_family("opaque", AB, [SQ, Complement(SQ), SQ, mark("a"),
                                      Complement(mark("a"))],
                       FamilyFlags(nontrivial=True))


def ab_problems():
    return ([readme_problem(), marker_problem(AB)],
            [example_26(SQ, AB), load_conditional(FiniteSet(("",)),
                                                  [mark("a"), mark("b")], AB)])


def abc_problems():
    problems = _generated_problems(ABC, np.random.default_rng(3))[:4]
    pairs = [ClassificationProblem((p.components[i], p.components[j]), ABC)
             for p in problems[:2] for i, j in ((0, 1), (1, 2))]
    cond = load_conditional(FiniteSet(("",)), [mark("a"), mark("b"), mark("c")], ABC)
    return problems + pairs, [cond]


def opaque_problems():
    return ([load_problem([Inter((SQ, mark("a"))), Inter((Complement(SQ), mark("b")))],
                          AB), marker_problem(AB)],
            [load_conditional(FiniteSet(("",)), [mark("a"), mark("b")], AB)])


# name, family factory, index bound, horizon, rows are exact keys, problems
CASES = {
    "regular-ab-3700": (lambda: regular_family(AB), 3700, 300, True, ab_problems),
    "regular-ab-400": (lambda: regular_family(AB), 400, 300, True, ab_problems),
    "regular-abc-500-200": (lambda: regular_family(ABC), 500, 200, True, abc_problems),
    "regular-abc-500-40": (lambda: regular_family(ABC), 500, 40, False, abc_problems),
    "length": (lambda: length_family(AB), 40, 200, False, ab_problems),
    "finite": (lambda: finite_family(AB), 60, 200, False, ab_problems),
    "cc-regular": (lambda: close_cc(regular_family(AB)), 200, 300, False, ab_problems),
    # lengths 3 and up share one row, and their complements another
    "cc-length": (lambda: close_cc(length_family(AB)), 40, 6, False, ab_problems),
    "opaque-list": (opaque_family, 10, 300, False, opaque_problems),
}
COVERED = ("regular-ab-3700", "regular-ab-400", "regular-abc-500-200")


def build(name):
    make, bound, horizon, keys, problems = CASES[name]
    return make(), bound, horizon, keys, problems()


def certificate_json(result):
    return json.dumps(result.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# differential tests


@pytest.mark.parametrize("name", CASES)
def test_language_classes_match_canonical_grouping(name):
    family, bound, horizon, keys, _ = build(name)
    assert language_classes(family, bound, horizon) == \
        old_language_classes(family, bound, horizon)
    assert family.classes(bound, horizon).split == (not keys)


@pytest.mark.parametrize("name", CASES)
def test_every_class_holds_one_language(name):
    """Exact families: one minimal automaton per class.  The others, whose
    languages cannot be compared: one index per class."""
    family, bound, horizon, _, _ = build(name)
    classes = family.classes(bound, horizon).classes
    assert sorted(i for c in classes for i in c) == list(range(bound))
    for cls in classes:
        if family.exact:
            views = {regular_view(family.expr(i), family.alphabet) for i in cls}
            assert len(views) == 1 and None not in views
        else:
            assert len(cls) == 1


@pytest.mark.parametrize("name", CASES)
def test_certificates_match_the_replaced_search(name):
    family, bound, horizon, _, (problems, conditionals) = build(name)
    oracle = CASES[name][0]()
    for problem in problems:
        assert certificate_json(solve(problem, family, bound, horizon)) == \
            certificate_json(old_search(problem, oracle, bound, horizon))
    for cond in conditionals:
        assert certificate_json(solve_conditional(cond, family, bound, horizon)) == \
            certificate_json(old_search(cond.problem, oracle, bound, horizon,
                                        cond.condition))


def partition_cases(alphabet, opaque):
    first, second = alphabet.symbols[:2]
    rest = Complement(mark(first))
    blocks = [(mark(first), rest),
              (FULL,),
              (mark(first), Inter((rest, mark(second))), Inter((rest, Complement(mark(second))))),
              # a block of no family language below a small bound
              (Inter((mark(first), mark(first, mark(second)))),
               Complement(Inter((mark(first), mark(first, mark(second))))))]
    if opaque:
        blocks += [(SQ, Complement(SQ)), (Inter((SQ, mark("a"))),
                                          Complement(Inter((SQ, mark("a")))))]
    return blocks


# the linear-scan oracle spends about 20 s on the 3700-index case
@pytest.mark.parametrize("name", [name for name in CASES if name != "regular-ab-3700"])
def test_partition_membership_matches_linear_scan(name):
    family, bound, horizon, _, (problems, _) = build(name)
    alphabet = family.alphabet
    cases = partition_cases(alphabet, name == "opaque-list")
    for problem in problems:
        cert = solve(problem, family, bound, horizon)
        if isinstance(cert, PartitionCertificate):
            cases.append(cert.blocks)
    for blocks in cases:
        pv = is_partition(blocks, alphabet, family, bound, horizon)
        found = [old_family_index_of(family, b, bound, horizon) for b in blocks]
        if pv.is_refuted and pv.kind != "membership":
            continue
        missing = [t for t, (i, _) in enumerate(found) if i is None]
        if missing:
            assert pv.is_refuted and pv.kind == "membership"
            assert pv.flags == (f"block {missing[0]} matches no family index "
                                f"below {bound}",)
            continue
        assert pv.member_indices == tuple(i for i, _ in found)
        for t, (_, v) in enumerate(found):
            assert (f"membership({t}) horizon-checked" in pv.flags) == (not v.exact)


def test_partition_membership_below_bound_zero(reg_ab):
    pv = is_partition((mark("a"), Complement(mark("a"))), AB, reg_ab, index_bound=0)
    assert pv.is_refuted and pv.kind == "membership"
    assert pv.flags == ("block 0 matches no family index below 0",)


@pytest.mark.parametrize("family_factory,bound,horizon,alphabet", [
    (lambda: regular_family(AB), 400, 300, AB),
    (lambda: regular_family(ABC), 500, 40, ABC)])
def test_core_links_match_canonical_scan(family_factory, bound, horizon, alphabet):
    family = family_factory()
    problem = ClassificationProblem(
        tuple(_ends_with(alphabet, s) for s in alphabet.symbols), alphabet)
    report = check_core(problem, family, bound, horizon, subset_samples=0)
    expected = []
    for i, j in itertools.combinations(range(len(problem)), 2):
        sub = ClassificationProblem((problem.components[i], problem.components[j]),
                                    alphabet)
        res = solve(sub, family, bound, horizon)
        if not isinstance(res, PartitionCertificate) or res.status != "exact":
            continue
        view = regular_view(res.blocks[res.injection[0]], alphabet)
        expected.append((old_find_family_index(family, view, bound),
                         old_find_family_index(family, view.complement(), bound)))
    assert expected and all(None not in pair for pair in expected)
    assert [(link["separator_index"], link["complement_index"])
            for link in report["linked_witnesses"]] == expected


# ---------------------------------------------------------------------------
# structural guard: covered inputs build no minimal automaton


@pytest.fixture
def index_views(monkeypatch, cold_caches):
    """The expressions whose minimal automaton the class index asks for."""
    calls = []
    original = families.regular_view

    def counted(expr, alphabet):
        calls.append(expr)
        return original(expr, alphabet)
    monkeypatch.setattr(families, "regular_view", counted)
    return calls


def test_covered_inputs_build_no_minimal_automaton(index_views):
    reg_ab, reg_abc = regular_family(AB), regular_family(ABC)
    readme = readme_problem()
    assert solve(readme, reg_ab, 3700, 300).indices == (3664, 3659)
    for problem in _generated_problems(ABC, np.random.default_rng(3))[:4]:
        solve(problem, reg_abc, 500, 200)
    a_star = DfaAtom(Dfa(2, ((0, 1), (1, 1)), 0, frozenset({0})))
    witness = check_cohesive(a_star, reg_ab, 400).witness
    assert (witness.i, witness.j) == (36, 35)
    assert index_views == []


def test_uncovered_inputs_split_rows_by_minimal_automaton(index_views):
    family, bound, horizon, _, (problems, _) = build("regular-abc-500-40")
    assert language_classes(family, bound, horizon) == \
        old_language_classes(regular_family(ABC), bound, horizon)
    assert index_views
    for problem in problems:
        assert certificate_json(solve(problem, family, bound, horizon)) == \
            certificate_json(old_search(problem, regular_family(ABC), bound, horizon))
