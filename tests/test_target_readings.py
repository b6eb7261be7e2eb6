"""The cohesion scan and the region check decide each class from the
target's (or the region complement's) readings, made once per scan.

The oracle is the route they replaced: the substitution loop of
``regular_view`` run on the whole intersection, copied here as
:func:`substitution_view` so that it shares no code with
``langs.Readings``, and ``conftest.certified_inside`` for the region check.
Targets carry 0 to 7 predicate leaf contexts (7 is past the cap), regions
share contexts with them, and the families are the regular, finite and
length families, plus two-sided predicates for the fallback route.
"""

import itertools
import operator

import numpy as np
import pytest

from cptk import cohesion, hardcore, langs
from cptk.cohesion import check_ccohesive, check_cohesive
from cptk.families import (close_cc, finite_family, inside_check, length_family,
                           list_family, regular_family)
from cptk.hardcore import is_proper_hardcore
from cptk.langs import (FULL, LEAF_CONTEXTS, Complement, Inter, LeftMark, Predicate,
                        Union, intersection_views, readings, regular_view)
from cptk.words import Alphabet, lex

from .conftest import certified_inside, random_regular_expr

AB = Alphabet.parse("ab")
PREDICATES = [Predicate(n) for n in ("square-length", "prime-length", "equal-counts-ab")]


def substitution_view(expr, alphabet):
    """``regular_view`` as it was, uncached: convert under every FULL/EMPTY
    assignment of the leaf contexts and compare each with all-EMPTY."""
    leaves = {}
    base = langs._convert(expr, alphabet, leaves)
    keys = list(leaves)
    if len(keys) > LEAF_CONTEXTS:
        return None
    for bits in itertools.product((True, False), repeat=len(keys)):
        other = langs._convert(expr, alphabet, dict(zip(keys, bits)))
        if base.product(other, operator.ne).least_accepted() is not None:
            return None
    return base.minimize()


def contexts(expr):
    """How many predicate leaf contexts the conversion reads."""
    leaves = {}
    langs._convert(expr, AB, leaves)
    return len(leaves)


def marked(word, e):
    for c in reversed(word):
        e = LeftMark(c, e)
    return e


def leaf(rng, j):
    """A predicate under the marks of lex(j + 1): a context of its own."""
    e = marked(lex(AB, j + 1), PREDICATES[int(rng.integers(0, 3))])
    roll = rng.random()
    if roll < 0.3:
        return Complement(e)
    if roll < 0.5:
        return Inter((e, random_regular_expr(rng, AB, 1)))
    if roll < 0.6:
        return Union((e, Complement(e)))  # regular, with a context
    return e


def target_with(rng, k):
    """A random target with exactly k predicate leaf contexts."""
    parts = [leaf(rng, j) for j in range(k)] + [random_regular_expr(rng, AB, 2)]
    rng.shuffle(parts)
    e = parts[0]
    for p in parts[1:]:
        e = (Union if rng.random() < 0.5 else Inter)((e, p))
    assert contexts(e) == k
    return e


def region_sharing(rng, target):
    """A region made of some of the target's leaves, so that the two share
    contexts, and a regular part."""
    leaves = []

    def walk(e):
        if isinstance(e, LeftMark) and not isinstance(e.arg, LeftMark):
            leaves.append(e)
        for child in getattr(e, "args", ()) + ((e.arg,) if hasattr(e, "arg") else ()):
            walk(child)
    walk(target)
    picked = [e for e in leaves if rng.random() < 0.6]
    region = Union(tuple(picked) + (random_regular_expr(rng, AB, 1),))
    return Complement(region) if rng.random() < 0.5 else region


def targets(seed):
    rng = np.random.default_rng(seed)
    return [target_with(rng, k) for k in range(LEAF_CONTEXTS + 2)]


FAMILIES = {
    "regular": (lambda: regular_family(AB), 300),
    "finite": (lambda: finite_family(AB), 150),
    "length": (lambda: length_family(AB), 40),
    "predicates": (lambda: close_cc(list_family("preds", AB, [
        PREDICATES[0], LeftMark("a", FULL), PREDICATES[1], LeftMark("a", PREDICATES[0]),
        Union((PREDICATES[2], Complement(PREDICATES[2])))])), 10),
}


@pytest.fixture
def checked_views(monkeypatch):
    """Wrap the scan so that every class side it decides is compared with
    the substitution view of its intersection; returns the tally of views
    found, of views refused below the cap on contexts, and of classes
    whose side reads a predicate leaf."""
    tally = {"regular": 0, "disagree": 0, "fallback": 0}
    seen = []
    original = cohesion.meet_finiteness

    def recorded(view, row, alphabet, horizon):
        seen.append(view)
        return langs.finiteness(view, row, alphabet, horizon)

    def checked(x, family, index_bound, horizon):
        evidence = original(x, family, index_bound, horizon)

        def at(i, outside=False):
            seen.clear()
            got = evidence(i, outside)
            q = family.expr(i)
            part = Complement(q) if outside else q
            (view,) = seen
            assert view == substitution_view(Inter((x, part)), family.alphabet)
            assert view == regular_view(Inter((x, part)), family.alphabet)
            tally["regular"] += view is not None
            tally["disagree"] += view is None and contexts(x) <= LEAF_CONTEXTS
            tally["fallback"] += contexts(part) > 0
            return got
        return at

    monkeypatch.setattr(cohesion, "finiteness", recorded)
    monkeypatch.setattr(cohesion, "meet_finiteness", checked)
    monkeypatch.setattr(hardcore, "meet_finiteness", checked)
    return tally


@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_scan_view_matches_the_substitution_view(checked_views, family_name):
    """Every class side of ``cohesive``, ``ccohesive`` and
    ``is_proper_hardcore`` scans, over targets of 0 to 7 contexts and
    regions that share some of them."""
    make, bound = FAMILIES[family_name]
    family = make()
    rng = np.random.default_rng(3)
    for x in targets(31):
        check_cohesive(x, family, bound, 40)
        region = region_sharing(rng, x)
        check_ccohesive(x, region, family, bound, 40)
        is_proper_hardcore(x, region, family, bound, 40)
    # the finite and length families have no complement pairs, and a
    # target meets each of their languages in a finite, regular set
    assert checked_views["regular"]
    assert bool(checked_views["disagree"]) == (family_name in ("regular", "predicates"))
    assert bool(checked_views["fallback"]) == (family_name == "predicates")


@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_region_check_matches_certified_inside(family_name):
    """On the least index of each class, regions of 0 to 7 contexts, some
    shared with a target, and the regions' complements."""
    make, bound = FAMILIES[family_name]
    family = make()
    indices = [c[0] for c in family.classes(bound, 40).classes][:30]
    rng = np.random.default_rng(4)
    certified = 0
    for x in targets(41):
        for region in (x, Complement(x), region_sharing(rng, x)):
            inside = inside_check(family, region, bound, 40)
            got = [inside(i) for i in indices]
            assert got == [certified_inside(family.expr(i), region, AB) for i in indices]
            want = [(v is not None and v.least_accepted() is None) for v in
                    (substitution_view(Inter((family.expr(i), Complement(region))), AB)
                     for i in indices)]
            assert got == want
            certified += sum(got)
    assert certified


def test_intersection_view_is_the_view_of_the_intersection():
    """``intersection_views`` of a leaf-free side, minimized, is the
    substitution view of the intersection, on every class leader of the
    regular family below 300; ``regular_view`` is that view on each
    target alone."""
    family = regular_family(AB)
    leaders = [c[0] for c in family.classes(300, 40).classes]
    for x in targets(51):
        view = intersection_views(x, AB)
        assert regular_view(x, AB) == substitution_view(x, AB)
        assert (readings(x, AB) is None) == (contexts(x) > LEAF_CONTEXTS)
        for i in leaders:
            for part in (family.expr(i), Complement(family.expr(i))):
                got = view(part)
                assert ((got.minimize() if got is not None else None)
                        == substitution_view(Inter((x, part)), AB))


def test_target_is_converted_once_per_reading(monkeypatch, cold_caches):
    """A consistent scan of a·(square-length) over the regular family
    converts the target twice, once per reading of its one context; it
    converted it twice per class side with an exact route to try."""
    family = regular_family(AB)
    x = LeftMark("a", PREDICATES[0])
    calls = []
    convert = langs._convert

    def counted(expr, *args):
        if expr == x or isinstance(expr, Inter) and x in expr.args:
            calls.append(expr)
        return convert(expr, *args)

    monkeypatch.setattr(langs, "_convert", counted)
    assert check_cohesive(x, family, 400, 300).status == "consistent"
    assert len(calls) == 2
