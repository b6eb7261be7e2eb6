"""Cohesiveness checks with refutation witnesses, and core status reports.

An infinite language is cohesive against a family when no member-with-
complement splits it into two infinite parts.  The checker scans the
language classes below an index bound, one least complement pair per
class, and returns either a re-verifiable refutation witness or
"consistent up to these bounds" — never a positive cohesiveness claim,
which no finite procedure could back.  Each side of a class is exact
where the intersection is regular, decided from the target's predicate
readings, made once per scan, and the class's own automaton; otherwise
its window evidence is read off the class rows and the target's row, with
no window pass per class.

Core status combines two routes: cohesiveness of the component union, and
bounded solvability of sampled subproblems.  On automaton-backed families
a solvable subproblem always induces a splitting witness, and the report
cross-links the two.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import codec
from .classify import (ClassificationProblem, ClosureFlagsAbsent, ConditionalProblem,
                       PartitionCertificate, disjoint_verdict, set_of, solve,
                       solve_conditional, validate_bounds, is_infinite_evidence)
from .families import DcMember, FamilyEnum, dc_member, inside_check, language_classes
from .langs import (Complement, Inter, LangExpr, expr_to_json, finiteness,
                    intersection_views, is_finite, regular_view, window_rows)
from .verdicts import FinitenessVerdict


@dataclass(frozen=True)
class CohesionVerdict:
    """Refuted carries the splitting pair and per-side evidence; consistent
    carries only the bounds that were exhausted."""

    status: str                       # "refuted" | "consistent"
    index_bound: int
    horizon: int
    witness: DcMember | None = None
    witness_expr: LangExpr | None = None
    evidence: tuple[FinitenessVerdict, FinitenessVerdict] | None = None
    exact: bool = False

    @property
    def is_refuted(self) -> bool:
        return self.status == "refuted"

    def to_json(self) -> dict:
        out = {"status": self.status, "index_bound": self.index_bound,
               "horizon": self.horizon, "exact": self.exact}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_expr"] = expr_to_json(self.witness_expr)
            out["evidence"] = [v.to_json() for v in self.evidence]
        return out


def check_cohesive(a: LangExpr, family: FamilyEnum, index_bound: int,
                   horizon: int = 300) -> CohesionVerdict:
    """Scan complement pairs for one splitting the language both ways.

    The witness is the least (i, j) pair in pair-code order; both sides of
    a refutation carry their own finiteness evidence.  Whether a pair
    splits depends only on the language class C of i, and ``codec.pair``
    is strictly increasing in both arguments, so the least pair of a class
    is (min C, min C^c): the scan tries one candidate per class, in that
    pair's order.
    """
    return _check_cohesive_restricted(a, None, family, index_bound, horizon)


def check_ccohesive(a: LangExpr, region: LangExpr, family: FamilyEnum,
                    index_bound: int, horizon: int = 300) -> CohesionVerdict:
    """As :func:`check_cohesive`, with witnesses restricted to family
    members certified to lie inside ``region``.

    Equivalent to plain cohesiveness against the two-sided closure of the
    in-region part of the family, which is how the restriction is run.
    """
    return _check_cohesive_restricted(a, region, family, index_bound, horizon)


def _check_cohesive_restricted(a, region, family, index_bound, horizon):
    validate_bounds(index_bound, horizon)
    least_pairs = [(members[0], complements[0]) for members, complements
                   in language_classes(family, index_bound, horizon) if complements]
    inside = ((lambda i: True) if region is None
              else inside_check(family, region, index_bound, horizon))
    evidence = meet_finiteness(a, family, index_bound, horizon)
    for i, j in sorted(least_pairs, key=lambda p: codec.pair(*p)):
        if not inside(i):
            continue
        ev_in = evidence(i)
        if not is_infinite_evidence(ev_in):
            continue
        ev_out = evidence(i, outside=True)
        if is_infinite_evidence(ev_out):
            m = dc_member(family, i, j, horizon)
            exact = ev_in.exact and ev_out.exact and m.status == "exact"
            return CohesionVerdict("refuted", index_bound, horizon, m, family.expr(i),
                                   (ev_in, ev_out), exact)
    return CohesionVerdict("consistent", index_bound, horizon)


def meet_finiteness(x: LangExpr, family: FamilyEnum, index_bound: int, horizon: int):
    """The finiteness of x ∩ e(i), or with ``outside`` of x ∩ e(i)ᶜ, for an
    index i below the bound: ``finiteness_at(i, outside=False)``.

    The verdict is ``langs.is_finite``'s, by its own rule: exact from
    :func:`langs.regular_view` of the intersection, else the count of the
    window row.  The view is the minimized :func:`langs.intersection_views`
    answer: when the family side reads no predicate leaf, as on every
    shipped family, it comes from x's readings, found once on first need,
    so each class is decided on its own automaton.  The row is read off x's row,
    also found once, and the family row of i, as ``window_rows`` lowers
    ``Inter`` to ``&`` and ``Complement`` to ``full & ~``: no window pass
    per index.
    """
    rows, alphabet = family.rows(index_bound, horizon), family.alphabet
    x_row = functools.cache(lambda: window_rows([x], alphabet, horizon + 1)[0])
    meet = intersection_views(x, alphabet)

    def finiteness_at(i: int, outside: bool = False):
        q = family.expr(i)
        part, row = (Complement(q), ~rows[i]) if outside else (q, rows[i])
        view = meet(part)
        return finiteness(view.minimize() if view is not None else None,
                          lambda: x_row() & row, alphabet, horizon)

    return finiteness_at


# ---------------------------------------------------------------------------
# core reports


def check_core(problem: ClassificationProblem, family: FamilyEnum, index_bound: int,
               horizon: int = 300, subset_samples: int = 4, seed: int = 0) -> dict:
    """Core status of a problem: no multi-component subproblem solvable.

    Primary route: cohesiveness of the component union.  Secondary route:
    bounded solvability of component pairs and of sampled slices (a
    component intersected with a family language).  A certified solvable
    subproblem refutes core status; the routes are cross-checked and any
    contradiction is reported as an internal inconsistency.
    """
    validate_bounds(index_bound, horizon)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if not (family.flags.nontrivial and family.flags.union_closed):
        raise ClosureFlagsAbsent("core checks need a nontrivial, union-closed family")
    if len(problem) < 2:
        raise ValueError("core status concerns problems with at least 2 components")
    alphabet = problem.alphabet
    cohesion = check_cohesive(set_of(problem), family, index_bound, horizon)

    rng = random.Random(seed)  # only random(), as in families.check_law
    findings = []
    refuted_by_subproblem = False
    k = len(problem)

    def try_subproblem(label, components):
        nonlocal refuted_by_subproblem
        sub = ClassificationProblem(tuple(components), alphabet)
        res = solve(sub, family, index_bound, horizon)
        refutes = isinstance(res, PartitionCertificate) and res.status == "exact"
        findings.append({"subproblem": label, "result": res.to_json(), "refutes": refutes})
        refuted_by_subproblem = refuted_by_subproblem or refutes
        return res

    pair_results = {}
    for i in range(k):
        for j in range(i + 1, k):
            pair_results[(i, j)] = try_subproblem(
                {"pair": [i, j]}, (problem.components[i], problem.components[j]))

    # sliced subproblems: component n family language, kept only with
    # infinite evidence
    for _ in range(subset_samples):
        # two distinct components: j skips over i
        i, j = int(rng.random() * k), int(rng.random() * (k - 1))
        j += j >= i
        si, sj = int(rng.random() * index_bound), int(rng.random() * index_bound)
        slice_i = Inter((problem.components[i], family.expr(si)))
        slice_j = Inter((problem.components[j], family.expr(sj)))
        if not all(is_infinite_evidence(is_finite(s, alphabet, horizon))
                   for s in (slice_i, slice_j)):
            continue
        dv = disjoint_verdict(slice_i, slice_j, alphabet, horizon)
        if dv.is_refuted:
            continue
        try_subproblem({"slices": [[i, si], [j, sj]]}, (slice_i, slice_j))

    # cross-check: an exactly solvable subproblem induces a splitting pair
    linked = []
    inconsistent = False
    for res in pair_results.values():
        if not isinstance(res, PartitionCertificate) or res.status != "exact":
            continue
        sep = res.blocks[res.injection[0]]
        view = regular_view(sep, alphabet)
        if view is None:
            continue
        index = family.classes(index_bound, horizon)
        sep_index, comp_index = index.index_of(view), index.index_of(view.complement())
        splits = all(is_infinite_evidence(is_finite(Inter((set_of(problem), side)),
                                                    alphabet, horizon))
                     for side in (sep, Complement(sep)))
        link = {"separator_index": sep_index, "complement_index": comp_index,
                "splits_union": splits}
        linked.append(link)
        if (splits and sep_index is not None
                and comp_index is not None and not cohesion.is_refuted):
            inconsistent = True

    status = "refuted" if (cohesion.is_refuted or refuted_by_subproblem) \
        else "consistent-up-to-bounds"
    return {
        "core_status": status,
        "cohesion": cohesion.to_json(),
        "subproblems": findings,
        "linked_witnesses": linked,
        "routes_consistent": not inconsistent,
        "index_bound": index_bound,
        "horizon": horizon,
    }


def ccore1_check(component: LangExpr, condition: LangExpr, family: FamilyEnum,
                 index_bound: int, horizon: int = 300) -> dict:
    """Single-component conditional-core check.

    The component must (a) admit no bounded single-component conditional
    solution and (b) show no splitting witness inside the condition's
    complement.  Needs only a nontrivial family.
    """
    if not family.flags.nontrivial:
        raise ClosureFlagsAbsent("conditional core checks need a nontrivial family")
    alphabet = family.alphabet
    single = ConditionalProblem(condition,
                                ClassificationProblem((component,), alphabet))
    res = solve_conditional(single, family, index_bound, horizon)
    solvable_exact = isinstance(res, PartitionCertificate) and res.status == "exact"
    solvable_horizon = isinstance(res, PartitionCertificate) and res.status != "exact"
    ccoh = check_ccohesive(component, Complement(condition), family, index_bound, horizon)
    refutes = solvable_exact or (ccoh.is_refuted and ccoh.exact)
    return {
        "conditional_solve": res.to_json(),
        "solvable_exact": solvable_exact,
        "solvable_horizon_only": solvable_horizon,
        "ccohesive": ccoh.to_json(),
        "ccohesive_refuted": ccoh.is_refuted,
        "refutes": refutes,
    }


def check_ccore(cond: ConditionalProblem, family: FamilyEnum, index_bound: int,
                horizon: int = 300) -> dict:
    """Conditional-core status, component by component.

    Aggregates :func:`ccore1_check` over every component; a certified
    violation of either clause anywhere refutes, otherwise the verdict is
    consistent up to the bounds.
    """
    validate_bounds(index_bound, horizon)
    if not (family.flags.nontrivial and family.flags.union_closed):
        raise ClosureFlagsAbsent("conditional core checks need a nontrivial, "
                                 "union-closed family")
    components_report = []
    refuted = False
    for t, comp in enumerate(cond.problem.components):
        entry = {"component": t,
                 **ccore1_check(comp, cond.condition, family, index_bound,
                                horizon)}
        refuted = refuted or entry["refutes"]
        components_report.append(entry)
    return {
        "ccore_status": "refuted" if refuted else "consistent-up-to-bounds",
        "components": components_report,
        "index_bound": index_bound,
        "horizon": horizon,
    }
