"""Classification problems, partitions and the solvability search.

A problem is a vector of pairwise-disjoint infinite languages; a solution
is a same-length partition of all words into family members, each problem
component contained in its own block.  Searches are bounded and
deterministic: candidates are ordered by the nested pair code of their
index tuple and the least fully-verified tuple wins, so identical inputs
and bounds always return the identical certificate.  A failed search is
reported as inconclusive together with the bounds it exhausted, never as a
negative answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import codec
from .families import FamilyEnum
from .langs import (FULL, Complement, Inter, LangExpr, Union, emptiness,
                    equivalent, is_finite, subset_of, window_rows)
from .verdicts import (CERTIFIED, REFUTED, UNKNOWN, FinitenessVerdict, Verdict,
                       validate_horizon)
from .words import Alphabet

# members seen below the horizon that count as evidence, not proof, that a
# language is infinite
INFINITE_EVIDENCE_THRESHOLD = 32


def is_infinite_evidence(v: FinitenessVerdict) -> bool:
    """Whether a finiteness verdict counts as infinite: an exact verdict
    decides, and an unknown one needs ``INFINITE_EVIDENCE_THRESHOLD``
    members below its horizon, evidence without proof."""
    return v.is_infinite or (v.is_unknown and (v.count or 0) >= INFINITE_EVIDENCE_THRESHOLD)


class ProblemPrecondition(ValueError):
    """A classification-problem precondition is provably violated."""


class ClosureFlagsAbsent(ValueError):
    """The operation needs closure flags the family does not declare."""


def disjoint_verdict(e1: LangExpr, e2: LangExpr, alphabet: Alphabet,
                     horizon: int) -> Verdict:
    """Is the intersection empty?"""
    return emptiness(Inter((e1, e2)), alphabet, horizon)


@dataclass(frozen=True)
class ProblemCheck:
    """Verification record produced when a problem is loaded."""

    disjointness: tuple[tuple[int, int, Verdict], ...]
    infiniteness: tuple[FinitenessVerdict, ...]
    condition_disjointness: tuple[Verdict, ...] = ()
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "disjointness": [{"pair": [i, j], **v.to_json()}
                             for i, j, v in self.disjointness],
            "infiniteness": [v.to_json() for v in self.infiniteness],
            "condition_disjointness": [v.to_json() for v in self.condition_disjointness],
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class ClassificationProblem:
    components: tuple[LangExpr, ...]
    alphabet: Alphabet
    check: ProblemCheck | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("a classification problem needs at least one component")

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ConditionalProblem:
    condition: LangExpr
    problem: ClassificationProblem

    @property
    def alphabet(self) -> Alphabet:
        return self.problem.alphabet


def _component_checks(components, alphabet, horizon):
    flags = []
    disj = []
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            v = disjoint_verdict(components[i], components[j], alphabet, horizon)
            if v.is_refuted:
                raise ProblemPrecondition(
                    f"components {i} and {j} overlap on {v.witness!r}")
            if not v.exact:
                flags.append(f"disjointness({i},{j}) checked to horizon {horizon} only")
            disj.append((i, j, v))
    inf = []
    for i, comp in enumerate(components):
        v = is_finite(comp, alphabet, horizon)
        if v.is_finite:
            raise ProblemPrecondition(
                f"component {i} is finite ({v.count} members)")
        if v.is_unknown:
            kind = "evidence" if is_infinite_evidence(v) else "weak evidence"
            flags.append(f"infiniteness({i}) not exact: {v.count} members up to "
                         f"horizon {horizon} ({kind})")
        inf.append(v)
    return tuple(disj), tuple(inf), flags


def load_problem(components, alphabet: Alphabet,
                 horizon: int = 300) -> ClassificationProblem:
    """Build a problem, verifying disjointness and infiniteness.

    Provable violations raise :class:`ProblemPrecondition`; aspects that
    can only be checked to the horizon are recorded as flags.
    """
    components = tuple(components)
    disj, inf, flags = _component_checks(components, alphabet, horizon)
    check = ProblemCheck(disj, inf, (), tuple(flags))
    return ClassificationProblem(components, alphabet, check)


def load_conditional(condition: LangExpr, components, alphabet: Alphabet,
                     horizon: int = 300) -> ConditionalProblem:
    """Build a conditional problem; the condition may be finite or empty,
    but must be disjoint from every component."""
    components = tuple(components)
    disj, inf, flags = _component_checks(components, alphabet, horizon)
    cond_checks = []
    for i, comp in enumerate(components):
        v = disjoint_verdict(condition, comp, alphabet, horizon)
        if v.is_refuted:
            raise ProblemPrecondition(
                f"condition overlaps component {i} on {v.witness!r}")
        if not v.exact:
            flags.append(f"condition-disjointness({i}) checked to horizon {horizon} only")
        cond_checks.append(v)
    check = ProblemCheck(disj, inf, tuple(cond_checks), tuple(flags))
    return ConditionalProblem(condition, ClassificationProblem(components, alphabet, check))


def set_of(problem: ClassificationProblem) -> LangExpr:
    """Union of all components."""
    if len(problem.components) == 1:
        return problem.components[0]
    return Union(problem.components)


def refines(b: ClassificationProblem, a: ClassificationProblem,
            horizon: int = 300) -> tuple[int, ...] | None:
    """Least injection mapping each component of ``b`` into one of ``a``.

    Injections are searched in lexicographic order; a pair is accepted
    when containment is certified or consistent up to the horizon.
    Returns the 0-based injection, or None.
    """
    m, k = len(b), len(a)
    if m > k:
        return None
    for sigma in itertools.permutations(range(k), m):
        ok = True
        for i in range(m):
            v = subset_of(b.components[i], a.components[sigma[i]], a.alphabet, horizon)
            if v.is_refuted:
                ok = False
                break
        if ok:
            return sigma
    return None


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class PartitionVerdict:
    status: str
    exact: bool
    witness: str | None = None
    kind: str | None = None           # "uncovered" | "overlap" | "membership"
    member_indices: tuple | None = None
    flags: tuple[str, ...] = ()

    @property
    def is_certified(self):
        return self.status == CERTIFIED

    @property
    def is_refuted(self):
        return self.status == REFUTED

    def to_json(self) -> dict:
        out = {"status": self.status, "exact": self.exact, "flags": list(self.flags)}
        if self.witness is not None:
            out["witness"] = self.witness
            out["kind"] = self.kind
        if self.member_indices is not None:
            out["member_indices"] = list(self.member_indices)
        return out


def is_partition(blocks, alphabet: Alphabet, family: FamilyEnum | None = None,
                 index_bound: int = 0, horizon: int = 300) -> PartitionVerdict:
    """Check cover of all words, pairwise disjointness and (optionally)
    that every block equals some family language below the index bound."""
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("a partition needs at least one block")
    flags = []
    exact = True
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            v = disjoint_verdict(blocks[i], blocks[j], alphabet, horizon)
            if v.is_refuted:
                return PartitionVerdict(REFUTED, True, v.witness, "overlap")
            if not v.exact:
                exact = False
                flags.append(f"disjointness({i},{j}) horizon-checked")
    cover = emptiness(Complement(Union(blocks)), alphabet, horizon)
    if cover.is_refuted:
        return PartitionVerdict(REFUTED, True, cover.witness, "uncovered")
    if not cover.exact:
        exact = False
        flags.append("cover horizon-checked")
    member_indices = None
    if family is not None:
        # an index with another row than the block's is always refuted, and
        # the indices of one class share the verdict of its least index
        index = family.classes(index_bound, horizon)
        block_rows = window_rows(blocks, family.alphabet, horizon + 1)
        member_indices = []
        for t, (block, row) in enumerate(zip(blocks, block_rows)):
            for i in index.leaders(row):
                verdict = equivalent(family.expr(i), block, family.alphabet, horizon)
                if not verdict.is_refuted:
                    break
            else:
                return PartitionVerdict(
                    REFUTED, False, None, "membership",
                    flags=(f"block {t} matches no family index below {index_bound}",))
            if not verdict.exact:
                exact = False
                flags.append(f"membership({t}) horizon-checked")
            member_indices.append(i)
        member_indices = tuple(member_indices)
    status = CERTIFIED if exact else UNKNOWN
    return PartitionVerdict(status, exact, member_indices=member_indices,
                            flags=tuple(flags))


# ---------------------------------------------------------------------------
# the bounded solvability search


@dataclass(frozen=True)
class PartitionCertificate:
    """A verified solution: blocks, their family indices, the injection
    placing each problem component, and how far verification is exact."""

    blocks: tuple[LangExpr, ...]
    injection: tuple[int, ...]
    status: str                      # "exact" | "horizon"
    indices: tuple[int, ...] | None = None
    code: int | None = None
    horizon: int | None = None
    has_condition_block: bool = False

    def to_json(self) -> dict:
        from .langs import expr_to_json
        return {
            "result": "certified",
            "blocks": [expr_to_json(b) for b in self.blocks],
            "indices": None if self.indices is None else list(self.indices),
            "injection": list(self.injection),
            "status": self.status,
            "code": self.code,
            "horizon": self.horizon,
            "has_condition_block": self.has_condition_block,
        }


@dataclass(frozen=True)
class SolveNotFound:
    index_bound: int
    horizon: int
    note: str = "search exhausted its bounds; inconclusive, not a refutation"

    def to_json(self) -> dict:
        return {"result": "not-found", "index_bound": self.index_bound,
                "horizon": self.horizon, "note": self.note}


def _disjoint_tuples(rows, pools, prefix=(), acc=0):
    """Every tuple taking slot s from ``pools[s]`` whose rows are pairwise
    disjoint, with the union of its rows; in product order."""
    if not pools:
        yield prefix, acc
        return
    rest = pools[1:]
    for i in pools[0]:
        row = rows[i]
        if acc & row:
            continue
        if rest:
            yield from _disjoint_tuples(rows, rest, prefix + (i,), acc | row)
        else:
            yield prefix + (i,), acc | row


def validate_bounds(index_bound: int, horizon: int) -> None:
    """A search needs at least one family index and a window of at least
    one word; anything less would certify from no evidence."""
    validate_horizon(horizon)
    if index_bound < 1:
        raise ValueError(f"index bound must be at least 1, got {index_bound}")


def _search(problem, family, index_bound, horizon, condition=None):
    """The bounded search behind :func:`solve` and :func:`solve_conditional`.

    Slot 0 hosts the condition when there is one, else component
    ``perm[0]``; the following slots host the components in ``perm``
    order.  Cover and disjointness force the row of slot 0 to the
    complement of the others' union, so it comes from a lookup instead of
    a scan.  Window-level tuples are verified in tuple-code order, each
    with every permutation that fits it.
    """
    validate_bounds(index_bound, horizon)
    k = len(problem)
    alphabet = problem.alphabet
    index = family.classes(index_bound, horizon)
    rows, full = index.rows, index.full
    # the components' rows, then the condition's
    given = window_rows(problem.components + (() if condition is None else (condition,)),
                        alphabet, horizon + 1)
    comp_rows = given[:k]
    # each component's containment candidates, one index per language
    cand = [index.leaders_containing(comp) for comp in comp_rows]
    if not all(cand):
        return SolveNotFound(index_bound, horizon)
    offset = 0 if condition is None else 1
    # the row that slot 0 must contain, by the component heading ``perm``
    hosted = comp_rows if condition is None else given[k:] * k
    tuples: dict[tuple, list[tuple]] = {}
    for perm in itertools.permutations(range(k)):
        pools = [cand[t] for t in perm[1 - offset:]]  # the slots after slot 0
        for rest, acc in _disjoint_tuples(rows, pools):
            if hosted[perm[0]] & acc:
                continue
            for i in index.leaders(full & ~acc):
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


def solve(problem: ClassificationProblem, family: FamilyEnum, index_bound: int,
          horizon: int = 300) -> PartitionCertificate | SolveNotFound:
    """Search for a same-length family partition refining the problem.

    Candidate index tuples are ordered by their nested pair code; the
    least tuple passing full verification is returned.
    """
    return _search(problem, family, index_bound, horizon)


def solve_conditional(cond: ConditionalProblem, family: FamilyEnum, index_bound: int,
                      horizon: int = 300) -> PartitionCertificate | SolveNotFound:
    """As :func:`solve`, with a distinguished block 0 containing the
    condition; block 0 is forced to the complement of the others."""
    return _search(cond.problem, family, index_bound, horizon, cond.condition)


# ---------------------------------------------------------------------------
# the two partition constructions


def pad_partition(cert: PartitionCertificate, a: ClassificationProblem,
                  b: ClassificationProblem, family: FamilyEnum,
                  horizon: int = 300) -> PartitionCertificate:
    """Shrink a certificate for ``a`` to one for a refinement ``b``.

    The blocks hosting the surviving components are kept; every unused
    block is merged into the last kept one.  Needs a union-closed family.
    """
    if not family.flags.union_closed:
        raise ClosureFlagsAbsent("pad_partition needs a union-closed family")
    sigma_ba = refines(b, a, horizon)
    if sigma_ba is None:
        raise ProblemPrecondition("second problem does not refine the first")
    m = len(b)
    kept_slots = [cert.injection[sigma_ba[i]] for i in range(m)]
    unused = [s for s in range(len(cert.blocks)) if s not in kept_slots]
    blocks = [cert.blocks[s] for s in kept_slots]
    if unused:
        blocks[-1] = Union(tuple([blocks[-1]] + [cert.blocks[s] for s in unused]))
    status_exact = cert.status == "exact"
    pv = is_partition(blocks, b.alphabet, horizon=horizon)
    if pv.is_refuted:
        raise ProblemPrecondition(f"padded blocks do not partition: {pv.witness!r}")
    for i in range(m):
        v = subset_of(b.components[i], blocks[i], b.alphabet, horizon)
        if v.is_refuted:
            raise ProblemPrecondition("padded blocks fail containment")
        status_exact = status_exact and v.exact and pv.exact
    return PartitionCertificate(tuple(blocks), tuple(range(m)),
                                "exact" if status_exact else "horizon",
                                horizon=horizon)


def combine_pairwise(problem: ClassificationProblem,
                     pair_certs: dict[tuple[int, int], PartitionCertificate],
                     family: FamilyEnum, horizon: int = 300) -> PartitionCertificate:
    """Assemble a full certificate from two-component certificates.

    ``pair_certs[(i, j)]`` must certify the subproblem (A_i, A_j).  The
    construction is inductive: a partition for the first j components is
    intersected with the union of separators against component j+1, and
    the complement becomes the new block.  Needs union and intersection
    closure.
    """
    flags = family.flags
    if not (flags.union_closed and flags.inter_closed):
        raise ClosureFlagsAbsent("combine_pairwise needs union and intersection closure")
    k = len(problem)
    alphabet = problem.alphabet

    def aligned_pair(i, j):
        cert = pair_certs.get((i, j))
        swap = False
        if cert is None:
            cert = pair_certs.get((j, i))
            swap = True
        if cert is None:
            raise KeyError(f"missing pair certificate for components ({i}, {j})")
        first = cert.blocks[cert.injection[0]]
        second = cert.blocks[cert.injection[1]]
        if swap:
            first, second = second, first
        # sanity: the supplied certificate must actually separate the pair
        pv = is_partition((first, second), alphabet, horizon=horizon)
        if pv.is_refuted:
            raise ProblemPrecondition(
                f"supplied certificate for ({i}, {j}) is not a partition: {pv.witness!r}")
        for comp, block in ((problem.components[i], first), (problem.components[j], second)):
            v = subset_of(comp, block, alphabet, horizon)
            if v.is_refuted:
                raise ProblemPrecondition(
                    f"supplied certificate for ({i}, {j}) fails containment on {v.witness!r}")
        return first, second

    if k == 1:
        return PartitionCertificate((FULL,), (0,), "exact", horizon=horizon)
    blocks = list(aligned_pair(0, 1))
    for nxt in range(2, k):
        separators = []
        for i in range(nxt):
            sep, _ = aligned_pair(i, nxt)
            separators.append(sep)
        p = Union(tuple(separators))
        blocks = [Inter((q, p)) for q in blocks]
        blocks.append(Complement(p))
    pv = is_partition(blocks, alphabet, horizon=horizon)
    if pv.is_refuted:
        raise ProblemPrecondition(f"combined blocks do not partition: {pv.witness!r}")
    exact = pv.exact
    for t in range(k):
        v = subset_of(problem.components[t], blocks[t], alphabet, horizon)
        if v.is_refuted:
            raise ProblemPrecondition("combined blocks fail containment")
        exact = exact and v.exact
    return PartitionCertificate(tuple(blocks), tuple(range(k)),
                                "exact" if exact else "horizon", horizon=horizon)
