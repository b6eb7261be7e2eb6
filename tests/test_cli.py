import contextlib
import io
import json
import subprocess
import sys

import pytest

from cptk import cli
from cptk.cli import main
from cptk.families import FamilyEnum
from cptk.langs import MAX_EXPR_DEPTH, expr_to_json, FULL, LeftMark, Predicate, Complement


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def reg_family_file(tmp_path):
    return write(tmp_path, "family.json", {"alphabet": "ab", "builtin": "regular"})


@pytest.fixture
def length_family_file(tmp_path):
    return write(tmp_path, "length.json", {"alphabet": "ab", "builtin": "length"})


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lex(capsys):
    code, out, _ = run_main(["lex", "--alphabet", "ab", "--count", "4"], capsys)
    assert code == 0
    assert out == "\na\nb\naa\n"


def test_lex_order_override(capsys):
    code, out, _ = run_main(["lex", "--alphabet", "ab", "--order", "ba",
                             "--count", "4"], capsys)
    assert code == 0
    assert out == "\nb\na\nbb\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_solve_marker_problem(tmp_path, capsys, reg_family_file):
    problem = write(tmp_path, "problem.json", {
        "alphabet": "ab",
        "condition": None,
        "components": [expr_to_json(LeftMark("a", FULL)),
                       expr_to_json(LeftMark("b", FULL))],
    })
    code, out, err = run_main(["solve", "--problem", problem,
                               "--family", reg_family_file,
                               "--index-bound", "3700"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "certified"
    assert report["indices"] == [3664, 3659]
    assert report["status"] == "exact"
    assert "certified" in err


def test_solve_not_found_exits_4(tmp_path, capsys, reg_family_file):
    eq = Predicate("equal-counts-ab")
    problem = write(tmp_path, "problem.json", {
        "alphabet": "ab", "condition": None,
        "components": [expr_to_json(eq), expr_to_json(Complement(eq))],
    })
    code, out, _ = run_main(["solve", "--problem", problem,
                             "--family", reg_family_file,
                             "--index-bound", "120"], capsys)
    assert code == 4
    report = json.loads(out)
    assert report["result"] == "not-found"
    assert report["index_bound"] == 120


def test_solve_bad_problem_exits_3(tmp_path, capsys, reg_family_file):
    problem = write(tmp_path, "problem.json", {
        "alphabet": "ab", "condition": None,
        "components": [expr_to_json(FULL), expr_to_json(LeftMark("a", FULL))],
    })
    code, _, err = run_main(["solve", "--problem", problem,
                             "--family", reg_family_file], capsys)
    assert code == 3
    assert "overlap" in err


def test_malformed_json_exits_2(tmp_path, capsys, reg_family_file):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": "ab", }')
    code, _, err = run_main(["solve", "--problem", str(bad),
                             "--family", reg_family_file], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_laws(tmp_path, capsys, reg_family_file):
    code, out, err = run_main(["laws", "--family", reg_family_file,
                               "--law", "deMorgan", "--samples", "10",
                               "--horizon", "150"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["reports"][0]["disagreements"] == 0
    assert "deMorgan" in err


def test_cohesive_refuted_exits_0(tmp_path, capsys, reg_family_file):
    target = write(tmp_path, "target.json", {
        "alphabet": "ab",
        "expr": {"dfa": {"states": 2, "initial": 0,
                          "transitions": [[0, 1], [1, 1]], "accepting": [0]}},
    })
    code, out, _ = run_main(["cohesive", "--target", target,
                             "--family", reg_family_file,
                             "--index-bound", "100"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "refuted" and report["exact"]


def test_cohesive_consistent_exits_4(tmp_path, capsys, length_family_file):
    target = write(tmp_path, "target.json", {
        "alphabet": "ab", "expr": expr_to_json(LeftMark("a", FULL))})
    code, out, _ = run_main(["cohesive", "--target", target,
                             "--family", length_family_file,
                             "--index-bound", "30"], capsys)
    assert code == 4
    assert json.loads(out)["status"] == "consistent"


def test_hardcore_and_verify_roundtrip(tmp_path, capsys, length_family_file):
    target = write(tmp_path, "target.json",
                   {"alphabet": "ab", "expr": expr_to_json(FULL)})
    trace_path = str(tmp_path / "trace.jsonl")
    code, out, _ = run_main(["hardcore", "--family", length_family_file,
                             "--target", target, "--steps", "63",
                             "--trace", trace_path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["accepted"] == ["a", "aa", "aaa", "aaaa", "aaaaa"]
    code, out, _ = run_main(["verify-trace", "--trace", trace_path,
                             "--family", length_family_file,
                             "--target", target], capsys)
    assert code == 0
    assert json.loads(out)["ok"]
    # tamper: flip one report line
    lines = open(trace_path).read().splitlines()
    entry = json.loads(lines[1])
    entry["action"] = "accepted"
    entry["card"] += 1
    lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    open(trace_path, "w").write("\n".join(lines) + "\n")
    code, out, _ = run_main(["verify-trace", "--trace", trace_path,
                             "--family", length_family_file,
                             "--target", target], capsys)
    assert code == 5
    assert not json.loads(out)["ok"]


def test_hardcore_trace_with_condition_words_in_target_verifies(tmp_path, capsys):
    """Condition words inside the target are not accepted, so verify-trace
    accepts the trace of the run that wrote it."""
    family = write(tmp_path, "finite.json", {"alphabet": "ab", "builtin": "finite"})
    condition = write(tmp_path, "cond.json", {
        "alphabet": "ab", "expr": {"finite": ["", "a", "ab", "bbb", "aaaaa"]}})
    full = write(tmp_path, "full.json", {"alphabet": "ab", "expr": expr_to_json(FULL)})
    trace_path = str(tmp_path / "trace.jsonl")
    languages = ["--family", family, "--condition", condition, "--target", full]
    code, out, _ = run_main(["hardcore", *languages, "--steps", "64",
                             "--trace", trace_path], capsys)
    assert code == 0
    accepted = json.loads(out)["accepted"]
    assert len(accepted) == 59
    assert not {"", "a", "ab", "bbb", "aaaaa"} & set(accepted)
    code, out, _ = run_main(["verify-trace", "--trace", trace_path, *languages],
                            capsys)
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("dfa", [
    {"states": 1, "initial": 1, "transitions": [[0, 0]], "accepting": []},
    {"states": 1, "initial": 0, "transitions": [[0]], "accepting": []},
    {"states": 2, "initial": 0, "transitions": [[0, 2], [1, 1]], "accepting": []},
    {"states": 2, "initial": 0, "transitions": [[0, 1], [1, 1]], "accepting": [2]},
    {"states": 2, "initial": 0, "transitions": [[0, 1]], "accepting": []}])
def test_malformed_automaton_exits_2(tmp_path, capsys, reg_family_file, dfa):
    """Twice in one process, so that a remembered table check still fails."""
    target = write(tmp_path, "target.json", {"alphabet": "ab", "expr": {"dfa": dfa}})
    for _ in range(2):
        code, out, err = run_main(["cohesive", "--target", target,
                                   "--family", reg_family_file,
                                   "--index-bound", "5"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "target.json" in err


def test_hardcore_reproducible_byte_for_byte(tmp_path, capsys, length_family_file):
    target = write(tmp_path, "t.json", {"alphabet": "ab", "expr": expr_to_json(FULL)})
    outputs = []
    for run in range(2):
        trace_path = str(tmp_path / f"trace{run}.jsonl")
        out_path = str(tmp_path / f"out{run}.json")
        code, _, _ = run_main(["hardcore", "--family", length_family_file,
                               "--target", target, "--steps", "100",
                               "--trace", trace_path, "--out", out_path], capsys)
        assert code == 0
        outputs.append(open(trace_path).read() + "|" + open(out_path).read())
    assert outputs[0].split("|")[0] == outputs[1].split("|")[0]
    # reports differ only in the echoed file paths; strip them
    r0 = json.loads(outputs[0].split("|")[1])
    r1 = json.loads(outputs[1].split("|")[1])
    r0["config"].pop("trace"), r1["config"].pop("trace")
    r0["config"].pop("out"), r1["config"].pop("out")
    assert r0 == r1


def test_make_ziegler_and_solve_pair(tmp_path, capsys):
    base = write(tmp_path, "base.json", {"alphabet": "abc",
                                         "expr": {"predicate": "square-length"}})
    out_path = str(tmp_path / "problem.json")
    code, _, _ = run_main(["make", "ziegler", "--base", base, "--out", out_path],
                          capsys)
    assert code == 0
    data = json.load(open(out_path))
    assert len(data["components"]) == 3 and data["condition"] is None


def test_make_example26(tmp_path, capsys):
    base = write(tmp_path, "base.json", {"alphabet": "ab",
                                         "expr": {"predicate": "square-length"}})
    code, out, _ = run_main(["make", "example26", "--base", base], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["condition"] is not None and len(data["components"]) == 2


def test_make_degenerate_exits_3(tmp_path, capsys):
    base = write(tmp_path, "base.json", {"alphabet": "ab",
                                         "expr": expr_to_json(FULL)})
    code, _, err = run_main(["make", "example26", "--base", base], capsys)
    assert code == 3


@pytest.mark.parametrize("kind, symbols", [("ziegler", "ab"), ("example26", "cd")])
def test_make_over_an_alphabet_it_cannot_use_exits_2(tmp_path, capsys, kind, symbols):
    """A usage error, not a refuted precondition: it used to exit 3."""
    base = write(tmp_path, "base.json", {"alphabet": symbols,
                                         "expr": {"predicate": "square-length"}})
    code, out, err = run_main(["make", kind, "--base", base], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: this construction needs") and err.count("\n") == 1


@pytest.mark.parametrize("builtin", ["finite", "length"])
def test_nontriviality_law_holds_vacuously_on_trivial_builtins(tmp_path, capsys, builtin):
    """A family that does not declare itself nontrivial meets the law's
    premise nowhere; each closure used to count as a disagreement."""
    family = write(tmp_path, "family.json", {"alphabet": "ab", "builtin": builtin})
    code, out, _ = run_main(["laws", "--family", family, "--law",
                             "nontriviality-preservation", "--samples", "3"], capsys)
    assert code == 0
    report, = json.loads(out)["reports"]
    assert report["disagreements"] == 0 and report["agreements"] == 5


def test_ccore_subcommand(tmp_path, capsys, reg_family_file):
    problem = write(tmp_path, "p.json", {
        "alphabet": "ab",
        "condition": expr_to_json(LeftMark("b", FULL)),
        "components": [expr_to_json(LeftMark("a", FULL))],
    })
    code, out, _ = run_main(["ccore", "--problem", problem,
                             "--family", reg_family_file,
                             "--index-bound", "3700"], capsys)
    assert code == 0
    assert json.loads(out)["ccore_status"] == "refuted"


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "cptk.cli", "lex",
                           "--alphabet", "ab", "--count", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "\na\nb\n"


def test_solve_rejects_negative_horizon(tmp_path, capsys, reg_family_file):
    """An empty window used to yield a false certificate: full and empty
    blocks for the README problem."""
    sq = Predicate("square-length")
    problem = write(tmp_path, "problem.json", {
        "alphabet": "ab", "condition": None,
        "components": [expr_to_json(LeftMark("a", Complement(sq))),
                       expr_to_json(LeftMark("b", sq))],
    })
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", problem, "--family", reg_family_file,
              "--index-bound", "50", "--horizon", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--horizon: must be at least 0, got -5" in captured.err


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--index-bound", "0"), ("solve", "--index-bound", "-5"),
    ("cohesive", "--horizon", "-1"), ("hardcore", "--steps", "0"),
    ("hardcore", "--steps", "x")])
def test_bounds_without_evidence_exit_2(tmp_path, capsys, length_family_file,
                                        command, flag, value):
    target = write(tmp_path, "target.json",
                   {"alphabet": "ab", "expr": expr_to_json(FULL)})
    inputs = {"solve": ["--problem", target], "cohesive": ["--target", target],
              "hardcore": ["--target", target]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--family", length_family_file, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["lex", "--alphabet", "ab", "--count", "-1"], "--count"),
    (["laws", "--samples", "0"], "--samples"),
    (["laws", "--samples", "-3"], "--samples"),
    (["ccore", "--problem", "p.json", "--samples", "-1"], "--samples")])
def test_counts_that_check_nothing_exit_2(capsys, reg_family_file, argv, flag):
    """``laws --samples 0`` used to report zero disagreements after no
    check, and negative counts were echoed back."""
    if argv[0] != "lex":
        argv = argv + ["--family", reg_family_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag}: must be at least" in captured.err


@pytest.mark.parametrize("argv", [["laws"], ["ccore", "--problem", "p.json"]])
def test_negative_seed_exits_2(capsys, reg_family_file, argv):
    """A negative seed ended in numpy's seeding traceback (exit 1); Python's
    ``random.Random(-1)`` would draw seed 1's stream instead."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--family", reg_family_file, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "--seed" in line
            and "must be at least 0" in line] == \
        [f"cptk {argv[0]}: error: argument --seed: must be at least 0, got -1"]


def test_lex_count_zero_prints_nothing(capsys):
    assert run_main(["lex", "--alphabet", "ab", "--count", "0"], capsys)[:2] == (0, "")


@pytest.mark.parametrize("command,expr", [
    ("cohesive", {"finite": ["ac"]}),
    ("cohesive", {"predicate": "equal-counts-ac"}),
    ("solve", {"op": "leftmark", "symbol": "c", "arg": expr_to_json(FULL)}),
    ("solve", {"op": "leftquotient", "word": "ca", "arg": expr_to_json(FULL)})])
def test_symbol_outside_alphabet_exits_2(tmp_path, capsys, reg_family_file,
                                         command, expr):
    """These used to end in an AlphabetMismatch traceback with exit 1."""
    if command == "cohesive":
        inputs = ["--target", write(tmp_path, "lang.json",
                                    {"alphabet": "ab", "expr": expr})]
    else:
        inputs = ["--problem", write(tmp_path, "problem.json", {
            "alphabet": "ab", "condition": None,
            "components": [expr, expr_to_json(LeftMark("b", FULL))]})]
    code, out, err = run_main([command, *inputs, "--family", reg_family_file,
                               "--index-bound", "50"], capsys)
    assert code == 2 and out == ""
    assert "symbol 'c' not in alphabet 'ab'" in err


@pytest.mark.parametrize("command,data", [
    ("cohesive", {"alphabet": "ab", "expr": {"finite": [1]}}),
    ("cohesive", {"alphabet": "ab",
                  "expr": {"op": "leftmark", "symbol": "a", "arg": 5}}),
    ("cohesive", [1, 2]),
    ("solve", [1, 2]),
    ("solve", {"alphabet": "ab", "condition": None, "components": 5}),
    # each used to be read as something else: "ab" as the set {a, b}, a
    # float truncated, and a boolean as 0 or 1
    ("cohesive", {"alphabet": "ab", "expr": {"finite": "ab"}}),
    ("cohesive", {"alphabet": "ab", "expr": {"dfa": {
        "states": 1.5, "initial": 0, "transitions": [[0, 0]], "accepting": []}}}),
    ("cohesive", {"alphabet": "ab", "expr": {"dfa": {
        "states": 2, "initial": True, "transitions": [[1, 0], [1, 1]], "accepting": []}}}),
    ("cohesive", {"alphabet": "ab", "expr": {"dfa": {
        "states": 2, "initial": 0, "transitions": [[1.9, 0], [True, False]],
        "accepting": []}}}),
    ("cohesive", {"alphabet": "ab", "expr": {"dfa": {
        "states": 2, "initial": 0, "transitions": [[1, 0], [1, 1]], "accepting": [True]}}})])
def test_wrongly_typed_input_exits_2(tmp_path, capsys, reg_family_file,
                                     command, data):
    """Valid JSON of the wrong type used to end in a TypeError traceback."""
    flag = {"cohesive": "--target", "solve": "--problem"}[command]
    code, out, err = run_main([command, flag, write(tmp_path, "bad.json", data),
                               "--family", reg_family_file, "--index-bound", "5"],
                              capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bad.json" in err


@pytest.mark.parametrize("components", [{"a": 1}, "ab", 5, None])
def test_components_not_a_list_is_named(tmp_path, capsys, reg_family_file, components):
    """The keys of an object and the characters of a string used to be read
    as expressions, and a number or null printed Python internals."""
    problem = write(tmp_path, "problem.json",
                    {"alphabet": "ab", "condition": None, "components": components})
    code, out, err = run_main(["solve", "--problem", problem, "--family", reg_family_file,
                               "--index-bound", "5"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {problem}: 'components' must be a list, not {components!r}\n"


WRONGLY_TYPED_FAMILIES = [
    ({"alphabet": "ab", "list": [{"finite": [1]}]},
     "'finite' must be a list of strings, not [1]"),
    # each of the next two printed Python internals
    ({"alphabet": "ab", "list": [expr_to_json(FULL)], "flags": []},
     "'flags' must be a JSON object, not []"),
    ([1, 2], "the top level must be a JSON object"),
    # a string used to be read as one operator per character
    ({"alphabet": "ab", "builtin": "regular", "closure": "u"},
     "'closure' must be a list of operator names"),
    ({"alphabet": "ab", "builtin": "regular", "closure": "co"},
     "'closure' must be a list of operator names"),
    ({"alphabet": "ab", "builtin": "regular", "closure": [1]},
     "unknown closure operator 1"),
    # a string flag used to be read as true
    ({"alphabet": "ab", "list": [expr_to_json(FULL)], "flags": {"nontrivial": "false"}},
     "family flags must be true or false, not {'nontrivial': 'false'}"),
    ({"alphabet": "ab", "list": [expr_to_json(FULL)], "flags": {"union_closed": 1}},
     "family flags must be true or false, not {'union_closed': 1}"),
    # the keys of an object list used to be read as expressions
    ({"alphabet": "ab", "list": {"a": 1}}, "'list' must be a list, not {'a': 1}"),
    # each of the rest printed Python internals
    ({"alphabet": "ab", "list": [expr_to_json(FULL)], "flags": [1]},
     "'flags' must be a JSON object, not [1]"),
    ([1], "the top level must be a JSON object"),
    ({"alphabet": 5, "builtin": "regular"}, "'alphabet' must be a string, not 5"),
    ({"alphabet": "ab", "order": 5, "builtin": "regular"},
     "'order' must be a string, not 5"),
    # each of the next two printed "unhashable type: 'list'"
    ({"alphabet": "ab", "builtin": ["regular"]}, "unknown builtin family ['regular']"),
    ({"alphabet": "ab", "builtin": "regular", "closure": [["u"]]},
     "unknown closure operator ['u']")]


@pytest.mark.parametrize("family,message", WRONGLY_TYPED_FAMILIES,
                         ids=[f"family{k}" for k in range(len(WRONGLY_TYPED_FAMILIES))])
def test_wrongly_typed_family_exits_2(tmp_path, capsys, family, message):
    target = write(tmp_path, "target.json",
                   {"alphabet": "ab", "expr": expr_to_json(FULL)})
    fam = write(tmp_path, "fam.json", family)
    code, out, err = run_main(["cohesive", "--target", target, "--family", fam,
                               "--index-bound", "5"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {fam}: {message}\n"


@pytest.mark.parametrize("index", [-1, 10 ** 20])
def test_verify_trace_cancellation_outside_guard_exits_5(tmp_path, capsys, monkeypatch,
                                                         index):
    real_expr = FamilyEnum.expr

    def expr(self, i):
        assert 0 <= i <= 1, f"language {i} looked up"
        return real_expr(self, i)

    monkeypatch.setattr(FamilyEnum, "expr", expr)
    family = write(tmp_path, "finite.json", {"alphabet": "ab", "builtin": "finite"})
    full = write(tmp_path, "full.json", {"alphabet": "ab", "expr": expr_to_json(FULL)})
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(json.dumps({"n": 0, "word": "", "action": "cancelled",
                                      "cancelled": [index], "card": 0}) + "\n")
    code, out, _ = run_main(["verify-trace", "--trace", str(trace_path),
                             "--family", family, "--condition", full,
                             "--target", full], capsys)
    assert code == 5
    report = json.loads(out)
    assert report["violations"][0]["code"] == "cancel-outside-guard"
    assert report["cancelled"] == [index]


@pytest.fixture
def finite_trace(tmp_path, capsys):
    """A 5-step trace of the finite family of ab under a full target, and
    the verify-trace arguments for it."""
    family = write(tmp_path, "finite.json", {"alphabet": "ab", "builtin": "finite"})
    full = write(tmp_path, "full.json", {"alphabet": "ab", "expr": expr_to_json(FULL)})
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run_main(["hardcore", "--family", family, "--target", full,
                           "--steps", "5", "--trace", str(trace_path)], capsys)
    assert code == 0
    return trace_path, ["verify-trace", "--trace", str(trace_path),
                        "--family", family, "--target", full]


def test_verify_trace_accepts_null_optional_fields(finite_trace, capsys):
    trace_path, argv = finite_trace
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    lines[0].update(reason=None, blocking=None)
    trace_path.write_text("".join(json.dumps(e) + "\n" for e in lines))
    assert run_main(argv, capsys)[0] == 0


@pytest.mark.parametrize("line,field,value", [
    (0, "n", 0.9), (1, "n", True), (0, "n", "0"), (0, "n", None),
    (0, "card", 1.0), (0, "card", False), (0, "card", "1"),
    (0, "cancelled", "12"), (0, "cancelled", [True]), (0, "cancelled", [0.0]),
    (0, "cancelled", ["0"]), (0, "cancelled", None), (0, "cancelled", {"0": 0}),
    (0, "blocking", True), (0, "blocking", 1.5), (0, "blocking", "0"),
    (0, "blocking", [0]),
    (0, "word", 0), (0, "word", None), (0, "word", [""]),
    (0, "action", 1), (0, "action", None), (0, "action", ["accepted"]),
    (0, "reason", 0), (0, "reason", False), (0, "reason", ["blocked"])])
def test_verify_trace_mistyped_field_exits_2(finite_trace, capsys, line, field, value):
    """Mistyped fields used to be coerced: ``"n": 0.9`` on one line and
    ``"n": true`` on the next verified, and ``"cancelled": "12"`` read as
    (1, 2)."""
    trace_path, argv = finite_trace
    lines = [json.loads(text) for text in trace_path.read_text().splitlines()]
    lines[line][field] = value
    trace_path.write_text("".join(json.dumps(e) + "\n" for e in lines))
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert f"trace line {line + 1}: " in err and repr(field) in err


@pytest.mark.parametrize("text", ["[1]\n", '"entry"\n', "5\n", "null\n",
                                  '{"n": 0, "word": "", "action": "accepted"}\n'])
def test_verify_trace_malformed_line_exits_2(finite_trace, capsys, text):
    trace_path, argv = finite_trace
    trace_path.write_text(text)
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert "trace line 1: " in err


def test_verify_trace_reads_words_with_line_boundary_characters(tmp_path, capsys):
    """Words holding U+2028, U+2029, U+0085 or \\x1c-\\x1e, written raw where
    JSON allows it: the reader split such lines and exited 2 with
    "Unterminated string"."""
    symbols = "a\u2028\u2029\x85\x1c\x1d\x1e"
    family = write(tmp_path, "finite.json", {"alphabet": symbols, "builtin": "finite"})
    full = write(tmp_path, "full.json", {"alphabet": symbols, "expr": expr_to_json(FULL)})
    trace_path = tmp_path / "trace.jsonl"
    common = ["--family", family, "--target", full, "--trace", str(trace_path)]
    code, out, _ = run_main(["hardcore", *common, "--steps", "60"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in trace_path.read_text().split("\n") if line]
    raw = "".join(json.dumps(e, ensure_ascii=False) + "\n" for e in lines)
    assert all(c in raw for c in "\u2028\u2029\x85")
    trace_path.write_text(raw, encoding="utf-8")
    code, out, err = run_main(["verify-trace", *common], capsys)
    assert code == 0, err
    assert json.loads(out)["ok"] and json.loads(out)["steps"] == 60


def alphabet_case_inputs(tmp_path, capsys, family, case):
    """The argv of one command whose named file is over another alphabet
    (or the family's symbols in another order) than the family."""
    lang = {"alphabet": "ab", "expr": expr_to_json(FULL)}
    other = ({"alphabet": "ab", "order": "ba"} if case.endswith("order")
             else {"alphabet": "abc"})
    problem = {"condition": None, "components": [expr_to_json(LeftMark("a", FULL)),
                                                 expr_to_json(LeftMark("b", FULL))]}
    command, role = case.split()[:2]
    files = {"target": dict(lang), "condition": {"alphabet": "ab",
                                                 "expr": expr_to_json(LeftMark("a", FULL))},
             "problem": {"alphabet": "ab", **problem}}
    files[role].update(other)
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    argv = [command, "--family", family, "--index-bound", "20"]
    if command in ("solve", "ccore"):
        return argv + ["--problem", paths["problem"]]
    argv += ["--target", paths["target"]]
    if role == "condition":
        argv += ["--condition", paths["condition"]]
    if command == "verify-trace":
        trace = str(tmp_path / "trace.jsonl")
        code, _, _ = run_main(["hardcore", "--family", family, "--steps", "20",
                               "--target", write(tmp_path, "t.json", lang),
                               "--trace", trace], capsys)
        assert code == 0
        argv += ["--trace", trace]
    return argv


@pytest.mark.parametrize("case", [
    "solve problem", "ccore problem", "cohesive target", "cohesive condition",
    "hardcore target", "hardcore condition", "verify-trace target",
    "verify-trace condition", "solve problem order", "cohesive target order",
    "verify-trace condition order"])
def test_file_over_another_alphabet_than_the_family_exits_2(tmp_path, capsys,
                                                           reg_family_file, case):
    """solve ended in exit 4, verify-trace --target in exit 5 with spurious
    violations, ccore, cohesive --condition and verify-trace --condition in
    an AlphabetMismatch traceback; a reordered alphabet went through."""
    argv = alphabet_case_inputs(tmp_path, capsys, reg_family_file, case)
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    role = case.split()[1]
    shown = "'ba'" if case.endswith("order") else "'abc'"
    assert err == f"error: {role} alphabet {shown} differs from the family alphabet 'ab'\n"


@pytest.mark.parametrize("role, content", [
    ("family", None), ("target", None), ("trace", None),
    ("target", '{"alphabet": "ab", "expr": {"finite": ["é"]}}'.encode("latin-1")),
    ("problem", b'\xff\xfe{"alphabet": "ab"}')])
def test_unreadable_input_file_exits_2(tmp_path, capsys, finite_trace, role, content):
    """A directory (content None) or a file that is not UTF-8 raised
    IsADirectoryError or UnicodeDecodeError: exit 1 with a traceback."""
    _, argv = finite_trace
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    if role == "problem":
        argv = ["solve", "--problem", str(bad), "--family", argv[argv.index("--family") + 1]]
    else:
        argv = list(argv)
        argv[argv.index(f"--{role}") + 1] = str(bad)
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("command, option, where", [
    ("cohesive", "--out", "directory"), ("cohesive", "--out", "missing parent"),
    ("hardcore", "--trace", "directory"), ("hardcore", "--trace", "missing parent"),
    ("hardcore", "--out", "directory")])
def test_unwritable_output_path_exits_2(tmp_path, capsys, reg_family_file, command,
                                        option, where):
    """A directory, or a path under a missing directory, raised
    IsADirectoryError or FileNotFoundError after the work was done: exit 1
    with a traceback."""
    target = write(tmp_path, "t.json", {"alphabet": "ab",
                                        "expr": expr_to_json(LeftMark("a", FULL))})
    bad = tmp_path / "out"
    if where == "directory":
        bad.mkdir()
    else:
        bad = bad / "missing" / "report.json"
    code, out, err = run_main([command, "--family", reg_family_file, "--target", target,
                               "--index-bound", "20", "--horizon", "30",
                               option, str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def nested(levels: int, leaf: dict, op) -> dict:
    """An expression ``levels`` deep: ``op`` applied levels - 1 times."""
    expr = leaf
    for k in range(levels - 1):
        expr = op(k, expr)
    return expr


def complement(k, arg):
    return {"op": "complement", "arg": arg}


def mark_or_complement(k, arg):
    return {"op": "leftmark", "symbol": "ab"[k % 2], "arg": arg} if k % 3 \
        else complement(k, arg)


@pytest.mark.parametrize("levels, op, leaf, want", [
    (MAX_EXPR_DEPTH, complement, {"finite": ["a"]}, 4),
    (MAX_EXPR_DEPTH, mark_or_complement, {"predicate": "square-length"}, 4),
    (MAX_EXPR_DEPTH + 1, complement, {"finite": ["a"]}, 2),
    (MAX_EXPR_DEPTH + 1, mark_or_complement, {"predicate": "square-length"}, 2),
    (500, complement, {"finite": ["a"]}, 2)])
def test_expression_nesting_limit(tmp_path, capsys, length_family_file, levels, op,
                                  leaf, want):
    """500 nested complements ended in a RecursionError traceback (exit 1)
    from hashing the tree; an expression at the limit still runs."""
    target = write(tmp_path, "target.json",
                   {"alphabet": "ab", "expr": nested(levels, leaf, op)})
    code, out, err = run_main(["cohesive", "--target", target, "--family",
                               length_family_file, "--index-bound", "30"], capsys)
    assert code == want
    if want == 2:
        assert out == ""
        assert err == (f"error: {target}: language expression nested deeper than "
                       f"{MAX_EXPR_DEPTH} levels\n")


def test_json_nested_beyond_the_decoder_exits_2(tmp_path, capsys, reg_family_file):
    """The decoder's own RecursionError ended in a traceback (exit 1)."""
    problem = tmp_path / "problem.json"
    problem.write_text('{"alphabet": "ab", "components": ' + "[" * 100_000
                       + "]" * 100_000 + "}")
    code, out, err = run_main(["solve", "--problem", str(problem),
                               "--family", reg_family_file], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {problem}: JSON nested too deeply\n"


@pytest.mark.parametrize("argv, key", [
    (["cohesive", "--target", "big.json", "--family", "f.json"], "expr"),
    (["solve", "--problem", "big.json", "--family", "f.json"], "components"),
    (["make", "ziegler", "--base", "big.json"], "expr")])
def test_oversized_json_integer_exits_2(tmp_path, capsys, reg_family_file, argv, key):
    """An integer of more than 4300 digits ended in a ValueError traceback
    (exit 1) from the decoder; a family file already exited 2."""
    dfa = '{"dfa": {"states": 1%s, "initial": 0, "transitions": [[0, 0]], "accepting": []}}' \
        % ("0" * 4999)
    value = f"[{dfa}]" if key == "components" else dfa
    big = tmp_path / "big.json"
    big.write_text(f'{{"alphabet": "ab", "{key}": {value}}}')
    paths = {"big.json": str(big), "f.json": reg_family_file}
    code, out, err = run_main([paths.get(a, a) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {big}: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("closure, want", [
    (["u"] * MAX_EXPR_DEPTH, 4),
    (["b"] * 66 + ["co", "cc"], 4),
    (["u"] * (MAX_EXPR_DEPTH + 1), 2),
    (["b"] * 67, 2),
    (["b"] * 150, 2),
    (["u"] * 500, 2),
    (["co"] * 520, 2)])
def test_closure_nesting_limit(tmp_path, capsys, closure, want):
    """The last three ended in a RecursionError traceback (exit 1).  Each
    operator nests the family's expressions one level, b three."""
    target = write(tmp_path, "target.json", {"alphabet": "ab", "expr": expr_to_json(FULL)})
    family = write(tmp_path, "fam.json",
                   {"alphabet": "ab", "builtin": "regular", "closure": closure})
    code, out, err = run_main(["cohesive", "--target", target, "--family", family,
                               "--index-bound", "5", "--horizon", "5"], capsys)
    assert code == want
    if want == 2:
        assert out == ""
        assert err == (f"error: {family}: closure operators nested deeper than "
                       f"{MAX_EXPR_DEPTH} levels\n")


MARKED_A, MARKED_B = expr_to_json(LeftMark("a", FULL)), expr_to_json(LeftMark("b", FULL))


@pytest.mark.parametrize("argv,files", [
    (["lex", "--alphabet", "aa"], {}),
    (["lex", "--alphabet", ""], {}),
    (["lex", "--alphabet", "ab", "--order", "bc"], {}),
    (["solve", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": None, "components": []}}),
    (["solve", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": MARKED_A, "components": []}}),
    (["ccore", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": None, "components": []}}),
    (["ccore", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": None, "components": [MARKED_A]}}),
    (["ccore", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": None, "components": [MARKED_A, MARKED_B]},
      "f.json": {"alphabet": "ab", "builtin": "finite"}}),
    (["ccore", "--problem", "p.json", "--family", "f.json"],
     {"p.json": {"alphabet": "ab", "condition": MARKED_B, "components": [MARKED_A]},
      "f.json": {"alphabet": "ab", "builtin": "finite"}}),
])
def test_refused_input_exits_2_with_one_error_line(tmp_path, capsys, argv, files):
    """Each used to end in a traceback with exit 1: a malformed alphabet,
    a problem of no component, a core question on one component, and a
    family without the closure flags the core check needs."""
    files = {"f.json": {"alphabet": "ab", "builtin": "regular"}, **files}
    paths = {name: write(tmp_path, name, data) for name, data in files.items()}
    code, out, err = run_main([paths.get(a, a) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


NOPE = {"predicate": "nope"}


@pytest.mark.parametrize("role,data,message", [
    ("language", {"alphabet": "ab"}, "missing field 'expr'"),
    ("language", {"alphabet": "ab", "expr": {"op": "leftmark", "arg": MARKED_A}},
     "missing field 'symbol'"),
    ("language", {"alphabet": "ab", "expr": NOPE}, "unknown predicate 'nope'"),
    ("problem", {"alphabet": "ab", "condition": None}, "missing field 'components'"),
    ("problem", {"alphabet": "ab", "condition": None, "components": [MARKED_A, NOPE]},
     "unknown predicate 'nope'"),
    ("family", {"alphabet": "ab", "list": [{"op": "complement"}]}, "missing field 'arg'"),
    ("family", {"alphabet": "ab", "list": [MARKED_A, NOPE]}, "unknown predicate 'nope'")])
def test_missing_field_or_unknown_predicate_is_named(tmp_path, capsys, role, data,
                                                     message):
    """A KeyError used to print only its key: ``error: t.json: 'expr'``."""
    files = {"language": {"alphabet": "ab", "expr": MARKED_A},
             "problem": {"alphabet": "ab", "condition": None,
                         "components": [MARKED_A, MARKED_B]},
             "family": {"alphabet": "ab", "builtin": "regular"}}
    files[role] = data
    paths = {name: write(tmp_path, f"{name}.json", d) for name, d in files.items()}
    if role == "problem":
        argv = ["solve", "--problem", paths["problem"]]
    else:
        argv = ["cohesive", "--target", paths["language"]]
    code, out, err = run_main(argv + ["--family", paths["family"], "--index-bound", "5"],
                              capsys)
    assert code == 2 and out == ""
    assert err == f"error: {paths[role]}: {message}\n"


@pytest.mark.parametrize("expr,message", [
    ({"op": "union", "args": {"a": 1}}, "'args' must be a list, not {'a': 1}"),
    ({"op": "union", "args": ["a"]}, "a language expression must be a JSON object, not 'a'"),
    ({"op": "leftmark", "symbol": ["a"], "arg": MARKED_A},
     "'symbol' must be a string, not ['a']"),
    ({"predicate": 5}, "'predicate' must be a string, not 5"),
    ({"dfa": [1]}, "'dfa' must be a JSON object, not [1]"),
    ({"dfa": 5}, "'dfa' must be a JSON object, not 5")])
def test_expression_of_the_wrong_type_is_named(tmp_path, capsys, reg_family_file, expr,
                                               message):
    """Each printed Python internals: ``'str' object has no attribute
    'get'``, ``unhashable type: 'list'``, ``'int' object has no attribute
    'startswith'``, ``list indices must be integers or slices, not str``,
    ``'int' object is not subscriptable``."""
    target = write(tmp_path, "t.json", {"alphabet": "ab", "expr": expr})
    code, out, err = run_main(["cohesive", "--target", target, "--family", reg_family_file,
                               "--index-bound", "5"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {target}: {message}\n"


@pytest.mark.parametrize("text", ["", "\n", "\n  \n\n"])
def test_verify_trace_of_no_entry_exits_2(finite_trace, capsys, text):
    """An empty trace used to verify, with "ok": true over 0 steps."""
    trace_path, argv = finite_trace
    trace_path.write_text(text)
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {trace_path}: an empty trace has no steps to verify\n"


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch, length_family_file):
    """Two commands, an argparse usage error, then commands again: the
    parser built once per process gives the reports of fresh parsers."""
    target = write(tmp_path, "target.json", {"alphabet": "ab", "expr": MARKED_A})
    trace = str(tmp_path / "trace.jsonl")
    runs = [["lex", "--alphabet", "ab", "--order", "ba", "--count", "5"],
            ["hardcore", "--family", length_family_file, "--target", target,
             "--steps", "9", "--trace", trace, "--horizon", "7"],
            ["hardcore", "--family", length_family_file],
            ["lex", "--alphabet", "abc", "--count", "4"],
            ["verify-trace", "--trace", trace, "--family", length_family_file,
             "--target", target]]

    def run_all():
        out = []
        for argv in runs:
            try:
                out.append(run_main(argv, capsys))
            except SystemExit as exc:
                out.append((exc.code, *capsys.readouterr()))
        return out

    for command in (None, "lex", "hardcore"):
        assert cli.build_parser(command) is cli.build_parser(command)
    once = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for command in (None, "lex", "hardcore"):
        assert cli.build_parser(command) is not cli.build_parser(command)
    assert run_all() == once
    assert [code for code, _, _ in once] == [0, 0, 2, 0, 0]
    assert json.loads(once[4][1])["config"]["horizon"] == 300


def parse_outcome(parser, argv):
    """The exit code, stdout and stderr of parsing ``argv``: help or a
    usage error, both of which exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(command):
    """A command's own parser prints the full parser's help and usage
    errors byte for byte: a missing required argument (or, for lex, a bad
    count), an unknown option and an extra positional argument."""
    full, own = cli.build_parser(), cli.build_parser(command)
    assert own is not full
    cases = [[command, "--help"], [command], [command, "--bogus"], [command, "x", "y", "z"],
             [command, "--count", "-1"], [command, "--index-bound", "0"]]
    for argv in cases:
        want = parse_outcome(full, argv)
        assert want[0] in (0, 2)
        assert parse_outcome(own, argv) == want, argv
    assert parse_outcome(full, [command, "--help"])[1].startswith(f"usage: cptk {command} ")


def test_main_builds_only_the_invoked_command(monkeypatch, capsys):
    """``main`` asks for the parser of a known leading command, and for the
    full parser without one, for top-level help and for an unknown name."""
    asked = []
    build = cli.build_parser.__wrapped__
    monkeypatch.setattr(cli, "build_parser", lambda command=None: asked.append(command)
                        or build(command))
    assert main(["lex", "--alphabet", "ab", "--count", "2"]) == 0
    for argv in ([], ["--help"], ["bogus"], ["--horizon", "3", "lex"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert asked == ["lex", None, None, None, None]
    full_subparsers = build()._subparsers._group_actions[0].choices
    assert list(full_subparsers) == list(cli.COMMANDS)
    assert list(build("make")._subparsers._group_actions[0].choices) == ["make"]
