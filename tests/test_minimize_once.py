"""One regularity question per emptiness and one Hopcroft pass per automaton.

``emptiness`` asks :func:`langs.regular_view` once, with the expression as
it is, and :meth:`Dfa.minimize` returns its own results as they are.
``old_emptiness`` (the structural simplifier of ``simplify_oracle``, then
the view) and ``unmarked_minimize`` (Hopcroft on a fresh copy) are the
differential oracles; the pass counts pin the work saved.
"""

import dataclasses
import json

import numpy as np
import pytest

from cptk import cli
from cptk.dfa import Dfa
from cptk.families import length_family
from cptk.langs import Complement, DfaAtom, emptiness, regular_view
from cptk.verdicts import CERTIFIED, REFUTED, UNKNOWN, Verdict
from cptk.words import Alphabet, lex

from .batch_oracle import batch_row
from .conftest import random_dfa, random_tree, unmarked_minimize
from .simplify_oracle import simplify

ALPHABETS = [Alphabet.parse(s) for s in ("a", "ab", "abc")]


def old_emptiness(expr, alphabet, horizon=300):
    """``langs.emptiness`` as it was: simplify, then ask the view."""
    view = regular_view(simplify(expr, alphabet), alphabet)
    if view is not None:
        least = view.least_accepted()
        if least is None:
            return Verdict(CERTIFIED, exact=True)
        return Verdict(REFUTED, exact=True, witness=alphabet.word(least))
    row = batch_row(expr, alphabet, horizon + 1)
    if row:
        return Verdict(REFUTED, exact=True,
                       witness=lex(alphabet, (row & -row).bit_length() - 1),
                       detail={"route": "window"})
    return Verdict(UNKNOWN, exact=False, horizon=horizon)


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_one_simplification_matches_the_old_route(alphabet):
    rng = np.random.default_rng(11)
    regular = 0
    for _ in range(300):
        e = random_tree(rng, alphabet)
        assert emptiness(e, alphabet, 60).to_json() == \
            old_emptiness(e, alphabet, 60).to_json()
        view = regular_view(e, alphabet)
        assert view == regular_view(simplify(e, alphabet), alphabet)
        if view is not None:
            regular += 1
            assert view.minimize() is view
            assert unmarked_minimize(view) == view
    assert regular > 50


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_marked_minimize_matches_unmarked_hopcroft(alphabet):
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = random_dfa(rng, alphabet.size, max_states=6)
        m = d.minimize()
        assert m == unmarked_minimize(d) == unmarked_minimize(m)
        assert m.minimize() is m
        for other in (m.complement(), m.union(d), d.left_quotient((0,))):
            assert other.minimize() == unmarked_minimize(other)


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_complement_of_a_minimal_automaton_is_marked(alphabet):
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = random_dfa(rng, alphabet.size, max_states=6).minimize()
        c = m.complement()
        assert c._minimal and c.minimize() is c
        assert c == unmarked_minimize(c) == unmarked_minimize(m.complement())
        assert c.complement() == m and c.complement()._minimal
    assert not random_dfa(rng, alphabet.size, max_states=6).complement()._minimal


def test_the_mark_is_no_field():
    d = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1}))
    m = d.minimize()
    copy = Dfa(m.n_symbols, m.transitions, m.initial, m.accepting)
    assert m == copy and hash(m) == hash(copy) and repr(m) == repr(copy)
    assert [f.name for f in dataclasses.fields(Dfa)] == \
        ["n_symbols", "transitions", "initial", "accepting"]
    assert m._minimal and not copy._minimal and not d._minimal


@pytest.fixture
def hopcroft_passes(monkeypatch, cold_caches):
    """Count the ``Dfa._coarsest_congruence`` calls, one per Hopcroft pass."""
    passes = []
    original = Dfa._coarsest_congruence

    def counted(self):
        passes.append(self.n_states)
        return original(self)
    monkeypatch.setattr(Dfa, "_coarsest_congruence", counted)
    return passes


def test_complement_of_a_minimal_atom_needs_no_pass(ab, hopcroft_passes):
    """The view of the complement of a minimal automaton atom took one more
    Hopcroft pass before the complement carried the mark."""
    m = Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1})).minimize()
    hopcroft_passes.clear()
    assert regular_view(Complement(DfaAtom(m)), ab) == unmarked_minimize(m.complement())
    assert len(hopcroft_passes) == 1  # the reference's own pass


def test_length_family_classes_minimize_each_index_once(ab, hopcroft_passes):
    """One pass per index sharing the empty row, not three (1773 before)."""
    length_family(ab).classes(600, 300)
    assert len(hopcroft_passes) == 591


def write_files(tmp_path, files):
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))


SQ_JSON = {"predicate": "square-length"}
REGULAR_AB = {"alphabet": "ab", "builtin": "regular"}


def mark(x, arg):
    return {"op": "leftmark", "symbol": x, "arg": arg}


def test_example26_ccore_passes(tmp_path, capsys, hopcroft_passes):
    """`cptk ccore` on example 26 over square-length at bound 3700 made
    7109 passes before, and 2745 while its region check asked an automaton
    of every class; the row filter leaves few classes to ask.  The view
    made 25 while the structural simplifier built its automata, and 22
    while each class converted the target and the region again."""
    problem = {"alphabet": "ab",
               "condition": {"op": "union",
                             "args": [mark("a", SQ_JSON),
                                      mark("b", {"op": "complement", "arg": SQ_JSON})]},
               "components": [mark("a", {"op": "complement", "arg": SQ_JSON}),
                              mark("b", SQ_JSON)]}
    write_files(tmp_path, {"problem.json": problem, "family.json": REGULAR_AB})
    code = cli.main(["ccore", "--problem", str(tmp_path / "problem.json"),
                     "--family", str(tmp_path / "family.json"), "--index-bound", "3700"])
    capsys.readouterr()
    assert code == 4
    assert len(hopcroft_passes) <= 12


def test_marked_square_length_cohesive_passes(tmp_path, capsys, hopcroft_passes):
    """`cptk cohesive` on a·(square-length) over the regular family of ab
    at bound 3700 made 936 passes while each class converted the target
    under both readings of its one leaf context; the target's readings are
    now made once, and a class is minimized only when its side is
    regular."""
    write_files(tmp_path, {"target.json": {"alphabet": "ab", "expr": mark("a", SQ_JSON)},
                           "family.json": REGULAR_AB})
    code = cli.main(["cohesive", "--target", str(tmp_path / "target.json"),
                     "--family", str(tmp_path / "family.json"), "--index-bound", "3700"])
    capsys.readouterr()
    assert code == 4
    assert len(hopcroft_passes) <= 24
