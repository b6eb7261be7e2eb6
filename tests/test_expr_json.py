"""The expression reader, which checks symbols as it builds, against the
reader it replaced: read the whole tree, then walk it once more to check
its symbols.  Both give the same expression, or fail with the same error
and message, on valid files and on files with one fault at each node
kind."""

import json

import numpy as np
import pytest

from cptk.dfa import Dfa
from cptk.langs import (MAX_EXPR_DEPTH, Complement, DfaAtom, FiniteSet, Inter,
                        LangExpr, LeftMark, LeftQuotient, Predicate, Union,
                        expr_from_json, expr_to_json, resolve_predicate)
from cptk.words import Alphabet

from .test_member import random_tree


# ---------------------------------------------------------------------------
# the former reader (was cptk.langs), a copy


def check_symbols(expr: LangExpr, alphabet: Alphabet) -> LangExpr:
    """The expression, once every word, marker symbol and predicate symbol
    in it is found in the alphabet; raises AlphabetMismatch otherwise."""
    if isinstance(expr, FiniteSet):
        for w in expr.words:
            alphabet.check(w)
    elif isinstance(expr, Predicate) and expr.name.startswith("equal-counts-"):
        alphabet.check(expr.name[-2:])
    elif isinstance(expr, (Union, Inter)):
        for a in expr.args:
            check_symbols(a, alphabet)
    elif isinstance(expr, (Complement, LeftMark, LeftQuotient)):
        if isinstance(expr, LeftMark):
            alphabet.code(expr.symbol)
        if isinstance(expr, LeftQuotient):
            alphabet.check(expr.word)
        check_symbols(expr.arg, alphabet)
    return expr


def string(data, field):
    """The field's value; ValueError if it is not a string."""
    value = data[field]
    if type(value) is not str:
        raise ValueError(f"'{field}' must be a string, not {value!r}")
    return value


def read_only(data, n_symbols, depth=MAX_EXPR_DEPTH):
    if depth == 0:
        raise ValueError(f"language expression nested deeper than {MAX_EXPR_DEPTH} levels")
    # exact-type rules both readers share: a node is an object, its args
    # a list (below), and a symbol, word or predicate name a string
    if type(data) is not dict:
        raise ValueError(f"a language expression must be a JSON object, not {data!r}")
    if "finite" in data:
        # and the finite words a list of strings
        words = data["finite"]
        if type(words) is not list or any(type(w) is not str for w in words):
            raise ValueError(f"'finite' must be a list of strings, not {words!r}")
        return FiniteSet(tuple(words))
    if "dfa" in data:
        return DfaAtom(Dfa.from_json(data["dfa"], n_symbols))
    if "predicate" in data:
        resolve_predicate(string(data, "predicate"))
        return Predicate(data["predicate"])
    op = data.get("op")
    depth -= 1
    if op in ("union", "intersect") and type(data["args"]) is not list:
        raise ValueError(f"'args' must be a list, not {data['args']!r}")
    if op == "union":
        return Union(tuple(read_only(a, n_symbols, depth) for a in data["args"]))
    if op == "intersect":
        return Inter(tuple(read_only(a, n_symbols, depth) for a in data["args"]))
    if op == "complement":
        return Complement(read_only(data["arg"], n_symbols, depth))
    if op == "leftmark":
        return LeftMark(string(data, "symbol"), read_only(data["arg"], n_symbols, depth))
    if op == "leftquotient":
        return LeftQuotient(string(data, "word"), read_only(data["arg"], n_symbols, depth))
    raise ValueError(f"malformed language expression JSON: {data!r}")


def old_expr_from_json(data, alphabet):
    return check_symbols(read_only(data, alphabet.size), alphabet)


# ---------------------------------------------------------------------------


def outcome(read, data, alphabet):
    try:
        return read(data, alphabet)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return type(exc), str(exc)


def assert_same(data, alphabet):
    # each reader gets its own copy, so that neither sees the other's work
    got = outcome(expr_from_json, json.loads(json.dumps(data)), alphabet)
    want = outcome(old_expr_from_json, json.loads(json.dumps(data)), alphabet)
    assert got == want, data
    return got


FULL_JSON = {"op": "complement", "arg": {"finite": []}}
# one fault per node kind, each in the node's own field
FAULTS = {
    "finite": [{"finite": ["a", "az"]}, {"finite": ["z"]}, {"finite": [1]},
               {"finite": "az"}, {"finite": 5}],
    "dfa": [{"dfa": {"n_states": 1, "transitions": [[0, 0, 0]], "initial": 0,
                     "accepting": []}},
            {"dfa": {"n_states": 2, "transitions": [[0, 0]], "initial": 0,
                     "accepting": []}},
            {"dfa": "x"}],
    "predicate": [{"predicate": "halting"}, {"predicate": "equal-counts-az"},
                  {"predicate": "equal-counts-za"}, {"predicate": "equal-counts-aa"},
                  {"predicate": 5}],
    "union": [{"op": "union"}, {"op": "union", "args": 5},
              {"op": "union", "args": [FULL_JSON, 5]}],
    "intersect": [{"op": "intersect"}, {"op": "intersect", "args": [{}]}],
    "complement": [{"op": "complement"}, {"op": "complement", "arg": []}],
    "leftmark": [{"op": "leftmark", "symbol": "z", "arg": FULL_JSON},
                 {"op": "leftmark", "symbol": "ab", "arg": FULL_JSON},
                 {"op": "leftmark", "symbol": 5, "arg": FULL_JSON},
                 {"op": "leftmark", "symbol": ["a"], "arg": FULL_JSON},
                 {"op": "leftmark", "arg": FULL_JSON},
                 {"op": "leftmark", "symbol": "a"}],
    "leftquotient": [{"op": "leftquotient", "word": "az", "arg": FULL_JSON},
                     {"op": "leftquotient", "word": 5, "arg": FULL_JSON},
                     {"op": "leftquotient", "arg": FULL_JSON},
                     {"op": "leftquotient", "word": "a"}],
    "op": [{"op": "xor", "args": []}, {}, {"arg": FULL_JSON}],
}


def wrappers(fault):
    """The fault alone and inside each kind of inner node, beside valid
    siblings."""
    yield fault
    yield {"op": "union", "args": [{"finite": ["ab"]}, fault, {"predicate": "square-length"}]}
    yield {"op": "intersect", "args": [FULL_JSON, {"op": "complement", "arg": fault}]}
    yield {"op": "leftmark", "symbol": "b", "arg": {"op": "leftquotient", "word": "ab",
                                                    "arg": fault}}


def test_reader_matches_read_then_check_on_valid_files():
    for symbols in ("a", "ab", "abc"):
        alphabet = Alphabet.parse(symbols)
        rng = np.random.default_rng(60 + len(symbols))
        for _ in range(150):
            expr = random_tree(rng, alphabet, depth=4)
            assert assert_same(expr_to_json(expr), alphabet) == expr


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_reader_matches_read_then_check_on_one_fault(ab, kind):
    for fault in FAULTS[kind]:
        for data in wrappers(fault):
            got = assert_same(data, ab)
            assert isinstance(got, tuple), data


def test_reader_reports_the_depth_limit_as_before(ab):
    data = {"finite": ["z"]}
    for _ in range(MAX_EXPR_DEPTH):
        data = {"op": "complement", "arg": data}
    got = assert_same(data, ab)
    assert got[1] == f"language expression nested deeper than {MAX_EXPR_DEPTH} levels"
    assert isinstance(assert_same(data["arg"], ab), tuple)  # the foreign word


def test_reader_reports_the_first_fault_in_tree_order(ab):
    """With two faults the reader stops at the first in tree order; the
    former reader read the whole tree before it checked a symbol."""
    data = {"op": "union", "args": [{"finite": ["z"]}, {"op": "xor"}]}
    with pytest.raises(ValueError, match="symbol 'z' not in alphabet 'ab'"):
        expr_from_json(data, ab)
    with pytest.raises(ValueError, match="malformed language expression"):
        old_expr_from_json(data, ab)


DFA_JSON = {"states": 2, "initial": 0, "transitions": [[1, 0], [1, 1]], "accepting": [1]}


@pytest.mark.parametrize("data", [
    {"finite": "ab"},
    {"finite": ["a", 1]},
    {"dfa": {**DFA_JSON, "states": 2.0}},
    {"dfa": {**DFA_JSON, "states": 1.5, "transitions": [[0, 0]], "accepting": []}},
    {"dfa": {**DFA_JSON, "initial": True}},
    {"dfa": {**DFA_JSON, "initial": 0.0}},
    {"dfa": {**DFA_JSON, "transitions": [[1.9, 0], [True, False]]}},
    {"dfa": {**DFA_JSON, "transitions": [[1, 0], "11"]}},
    {"dfa": {**DFA_JSON, "transitions": {"0": [1, 0]}}},
    {"dfa": {**DFA_JSON, "accepting": [True]}},
    {"dfa": {**DFA_JSON, "accepting": 1}}])
def test_reader_requires_exact_json_types(ab, data):
    """Each used to be read as something else: the string "ab" as the set
    {a, b}, a float truncated, a boolean as 0 or 1."""
    with pytest.raises(ValueError, match="must be"):
        expr_from_json(data, ab)
    assert expr_from_json({"dfa": DFA_JSON}, ab) == \
        DfaAtom(Dfa(2, ((1, 0), (1, 1)), 0, frozenset({1})))
