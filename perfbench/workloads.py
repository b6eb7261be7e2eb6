"""The three query workloads: inputs from a seed, queries, known answers.

Every query returns an :class:`Output` whose bytes are hashed: the
``to_json()`` of a certificate or ``SolveNotFound`` for library calls,
and the exit code, report bytes and JSONL trace bytes for CLI commands.
``check`` asserts what is known independently of the hashes and returns
an error message or None.  A query's ``key`` digests its complete input
in the benchmark's own terms (the seeded choices, bounds, argv and input
files; never an output of ``cptk``), so a reference hash recorded for
one seed is checked under any seed that produces the same input.

Only names exported from ``cptk/__init__.py`` and ``cptk.cli.main`` are
called, so the workloads survive refactors of the modules behind them.
The seed varies which languages a query is about, never its size, so
that runs under different seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cptk
import cptk.cli

# bounds per size; "tiny" exists for the benchmark's own tests
SIZES = {
    "full": {
        "abc_bound": 500, "abc_horizon": 200, "cond_bound": 1000,
        "cohesion_bound": 400,
        "finite_steps": 600, "marker_steps": 2000,
    },
    "tiny": {
        "abc_bound": 60, "abc_horizon": 40, "cond_bound": 100,
        "cohesion_bound": 60,
        "finite_steps": 40, "marker_steps": 200,
    },
}

README_BOUND, README_HORIZON = 3700, 300
README_INDICES = [3664, 3659]
ASTAR_WITNESS = (36, 35)
PREDICATES = ("square-length", "prime-length")


@dataclass(frozen=True)
class Output:
    code: int | None     # CLI exit code; None for library calls
    report: str
    trace: bytes = b""

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.code}\n".encode())
        h.update(self.report.encode())
        h.update(self.trace)
        return h.hexdigest()


@dataclass(frozen=True)
class Query:
    label: str
    key: str
    run: Callable[[], Output]
    check: Callable[[Output], str | None]


def _key(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# solve-session: library calls on long-lived family objects


def _ends_with(alphabet, sym):
    code = alphabet.code(sym)
    rows = tuple(tuple(1 if x == code else 0 for x in range(alphabet.size))
                 for _ in range(2))
    return cptk.DfaAtom(cptk.Dfa(alphabet.size, rows, 0, frozenset({1})))


def _even_length(alphabet):
    return cptk.DfaAtom(cptk.Dfa(alphabet.size, ((1,) * alphabet.size,
                                                 (0,) * alphabet.size),
                                 0, frozenset({0})))


def _random_dfa(rng, n_symbols, max_states=4):
    n = int(rng.integers(1, max_states + 1))
    rows = tuple(tuple(int(rng.integers(0, n)) for _ in range(n_symbols))
                 for _ in range(n))
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return cptk.Dfa(n_symbols, rows, 0, accepting)


def _random_regular_expr(rng, alphabet, depth):
    """Random expression over regular leaves (finite sets and automata)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            words = ["".join(rng.choice(list(alphabet.symbols),
                                        size=int(rng.integers(0, 4))))
                     for _ in range(int(rng.integers(0, 4)))]
            return cptk.FiniteSet(tuple(words))
        return cptk.DfaAtom(_random_dfa(rng, alphabet.size))
    roll = rng.random()
    sub = lambda: _random_regular_expr(rng, alphabet, depth - 1)  # noqa: E731
    if roll < 0.25:
        return cptk.Union(tuple(sub() for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.5:
        return cptk.Inter(tuple(sub() for _ in range(int(rng.integers(1, 3)))))
    if roll < 0.7:
        return cptk.Complement(sub())
    if roll < 0.85:
        return cptk.LeftMark(str(rng.choice(list(alphabet.symbols))), sub())
    word = "".join(rng.choice(list(alphabet.symbols), size=int(rng.integers(1, 3))))
    return cptk.LeftQuotient(word, sub())


def generated_problems(abc, rng):
    """One three-component problem over {a,b,c} of each of the four kinds
    used by the acceptance fixture: a seeded regular slice of the
    ends-with classes, first-two-symbol classes, an even/odd split that
    no bounded partition certifies, and a mixed marker problem."""
    ends = {s: _ends_with(abc, s) for s in "abc"}
    even = _even_length(abc)
    problems = []
    for kind in range(4):
        if kind == 0:
            comps = []
            for s in "abc":
                expr = cptk.Inter((ends[s], _random_regular_expr(rng, abc, 1)))
                if not cptk.is_finite(expr, abc).is_infinite:
                    expr = ends[s]
                comps.append(expr)
        elif kind == 1:
            comps = [cptk.LeftMark("a", cptk.LeftMark(y, cptk.FULL)) for y in "abc"]
        elif kind == 2:
            comps = [cptk.Inter((ends["a"], even)),
                     cptk.Inter((ends["a"], cptk.Complement(even))), ends["b"]]
        else:
            comps = [cptk.LeftMark("a", cptk.LeftMark("a", cptk.FULL)),
                     cptk.LeftMark("a", cptk.LeftMark("b", cptk.FULL)),
                     cptk.Inter((ends["c"], cptk.LeftMark("c", cptk.FULL)))]
        problems.append(cptk.ClassificationProblem(tuple(comps), abc))
    return problems


def readme_components(base):
    """The README example: a-marked complement of the base, b-marked base."""
    return [cptk.LeftMark("a", cptk.Complement(base)), cptk.LeftMark("b", base)]


def _solve_output(result) -> Output:
    return Output(None, json.dumps(result.to_json(), sort_keys=True))


def _check_solve(expect_found=None, indices=None, exact=False):
    def check(out: Output) -> str | None:
        data = json.loads(out.report)
        found = data["result"] == "certified"
        if data["result"] not in ("certified", "not-found"):
            return f"unexpected result {data['result']!r}"
        if expect_found is not None and found != expect_found:
            return f"expected {'a certificate' if expect_found else 'not-found'}"
        if found and data["status"] not in ("exact", "horizon"):
            return f"certificate status {data['status']!r}"
        if indices is not None and data.get("indices") != indices:
            return f"certificate indices {data.get('indices')} != {indices}"
        if exact and data.get("status") != "exact":
            return "certificate is not exact"
        return None
    return check


def _solve_query(label, solver, inputs, family, bound, horizon, check, *args):
    """``cptk.<solver>(*args, family, bound, horizon)``, looked up per call.
    ``inputs`` describes the problem and family in the benchmark's terms."""
    key = _key("solve", solver, inputs, bound, horizon)

    def run():
        return _solve_output(getattr(cptk, solver)(*args, family, bound, horizon))
    return Query(label, key, run, check)


def conditional_path() -> str:
    """How the conditional solve query runs: ``library`` through
    ``cptk.solve_conditional`` on the shared family, or ``cli`` through
    ``cptk solve`` with a family of its own.  Timings of ``solve-session``
    do not compare across the two."""
    return "library" if hasattr(cptk, "solve_conditional") else "cli"


def _solve_conditional_query(label, cond, inputs, problem_json, family, bound,
                             horizon, check, workdir):
    """``cptk.solve_conditional`` on the shared family; should that entry
    point be folded into ``solve``, the same search runs through the CLI,
    whose report minus its config echo is the same JSON."""
    query = _solve_query(label, "solve_conditional", inputs, family, bound,
                         horizon, check, cond)
    if conditional_path() == "library":
        return query
    _write(workdir, "conditional.json", problem_json)
    _write(workdir, "family.json", {"alphabet": str(family.alphabet),
                                    "builtin": family.name})
    argv = ["solve", "--problem", "conditional.json", "--family", "family.json",
            "--index-bound", str(bound), "--horizon", str(horizon)]

    def run():
        report = json.loads(_cli(argv).report)
        report.pop("config")
        return Output(None, json.dumps(report, sort_keys=True))
    return Query(label, query.key, run, check)


def build_solve_session(seed: int, size: str, workdir: str) -> list[Query]:
    sz = SIZES[size]
    rng = np.random.default_rng(seed)
    abc, ab = cptk.Alphabet.parse("abc"), cptk.Alphabet.parse("ab")
    fam_abc, fam_ab = cptk.regular_family(abc), cptk.regular_family(ab)
    base_name = PREDICATES[int(rng.integers(0, 2))]
    base = cptk.Predicate(base_name)
    problems = generated_problems(abc, rng)
    readme = cptk.load_problem(readme_components(cptk.Predicate("square-length")),
                               ab, README_HORIZON)
    zieg = cptk.ziegler_problem(base, abc, sz["abc_horizon"])
    ex26 = cptk.example_26(base, ab, README_HORIZON)

    def pj(problem, condition=None):
        return {"alphabet": str(problem.alphabet),
                "condition": None if condition is None else cptk.expr_to_json(condition),
                "components": [cptk.expr_to_json(c) for c in problem.components]}

    queries = []
    bound, horizon = sz["abc_bound"], sz["abc_horizon"]

    def add_with_pairs(name, inputs, problem, check_full, check_pair):
        queries.append(_solve_query(name, "solve", inputs, fam_abc, bound,
                                    horizon, check_full, problem))
        comps = problem.components
        for i in range(3):
            for j in range(i + 1, 3):
                sub = cptk.ClassificationProblem((comps[i], comps[j]), abc)
                queries.append(_solve_query(f"{name} pair {i}{j}", "solve",
                                            dict(inputs, pair=[i, j]), fam_abc,
                                            bound, horizon, check_pair, sub))

    for kind, problem in enumerate(problems):
        # kind 0 is drawn from the seed; the other kinds are fixed
        inputs = {"family": "regular abc", "problem": f"kind {kind}",
                  "seed": seed if kind == 0 else None}
        add_with_pairs(f"solve abc kind {kind}", inputs, problem, _check_solve(),
                       _check_solve())
    readme_check = _check_solve(True, README_INDICES, exact=True)
    readme_query = _solve_query(
        "solve README ab", "solve", {"family": "regular ab", "problem": "README"},
        fam_ab, README_BOUND, README_HORIZON, readme_check, readme)
    queries.append(readme_query)
    # the marker constructions have no bounded solution
    add_with_pairs(f"solve ziegler {base_name}",
                   {"family": "regular abc", "problem": "ziegler", "base": base_name},
                   zieg, _check_solve(False), _check_solve(False))
    queries.append(_solve_conditional_query(
        f"solve_conditional example-26 {base_name}", ex26,
        {"family": "regular ab", "problem": "example-26", "base": base_name},
        pj(ex26.problem, ex26.condition), fam_ab, sz["cond_bound"], README_HORIZON,
        _check_solve(False), workdir))
    # the same question again on the same family object
    queries.append(Query("solve README ab again", readme_query.key,
                         readme_query.run, readme_check))
    return queries


# ---------------------------------------------------------------------------
# CLI workloads: ``cptk.cli.main(argv)`` in-process, files in the work dir


def _write(workdir, name, data) -> None:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh, sort_keys=True)


def _read(workdir, name) -> bytes:
    with open(os.path.join(workdir, name), "rb") as fh:
        return fh.read()


def _cli(argv, trace_file=None, workdir=None) -> Output:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cptk.cli.main(list(argv))
    trace = _read(workdir, trace_file) if trace_file else b""
    return Output(code, out.getvalue(), trace)


def _cli_query(label, argv, files, check, workdir, trace_file=None) -> Query:
    key = _key("cli", argv, files)
    return Query(label, key, lambda: _cli(argv, trace_file, workdir), check)


def _check_cli(code, **expect):
    def check(out: Output) -> str | None:
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        data = json.loads(out.report)
        for path, want in expect.items():
            got = data
            for part in path.split("__"):
                got = got.get(part) if isinstance(got, dict) else None
            if got != want:
                return f"{path.replace('__', '.')} is {got!r}, expected {want!r}"
        return None
    return check


def _dfa_json(n_states, transitions, accepting):
    return {"dfa": {"states": n_states, "initial": 0, "transitions": transitions,
                    "accepting": accepting}}


# regular cohesion targets refuted early by a small complement pair
REGULAR_TARGETS = {
    "a*": _dfa_json(2, [[0, 1], [1, 1]], [0]),
    "b*": _dfa_json(2, [[1, 0], [1, 1]], [0]),
    "(ab)*": _dfa_json(3, [[1, 2], [2, 0], [2, 2]], [0]),
    "a*b*": _dfa_json(3, [[0, 1], [2, 1], [2, 2]], [0, 1]),
}


def _leftmark(symbol, arg):
    return {"op": "leftmark", "symbol": symbol, "arg": arg}


def _complement(arg):
    return {"op": "complement", "arg": arg}


def _example_26_problem(predicate, x="a", y="b"):
    """Condition x·A plus y·A^c, components (x·A^c, y·A) for A a predicate."""
    base = {"predicate": predicate}
    return {"alphabet": "ab",
            "condition": {"op": "union", "args": [_leftmark(x, base),
                                                  _leftmark(y, _complement(base))]},
            "components": [_leftmark(x, _complement(base)), _leftmark(y, base)]}


def build_cohesion_scan(seed: int, size: str, workdir: str) -> list[Query]:
    rng = np.random.default_rng(seed)
    bound = str(SIZES[size]["cohesion_bound"])
    family = {"alphabet": "ab", "builtin": "regular"}
    files = {"family.json": family}
    # seeded queries never repeat a fixed one: a repeat would find the
    # process-global caches warm and cost less than the query it replaced
    other = sorted(set(REGULAR_TARGETS) - {"a*"})[int(rng.integers(0, 3))]
    marked = PREDICATES[int(rng.integers(0, 2))]
    ccore_base = ("prime-length", "equal-counts-ab")[int(rng.integers(0, 2))]
    markers = ("ab", "ba")[int(rng.integers(0, 2))]
    languages = {
        "astar.json": REGULAR_TARGETS["a*"],
        "regular.json": REGULAR_TARGETS[other],
        "marked-a.json": _leftmark("a", {"predicate": "square-length"}),
        "marked-b.json": _leftmark("b", {"predicate": marked}),
    }
    for name, expr in languages.items():
        files[name] = {"alphabet": "ab", "expr": expr}
    files["ex26-square.json"] = _example_26_problem("square-length")
    files["ex26-seeded.json"] = _example_26_problem(ccore_base, *markers)
    for name, data in files.items():
        _write(workdir, name, data)

    def cohesive(target):
        return ["cohesive", "--target", target, "--family", "family.json",
                "--index-bound", bound]

    def ccore(problem):
        return ["ccore", "--problem", problem, "--family", "family.json",
                "--index-bound", bound]

    def q(label, argv, check):
        used = {n: files[n] for n in argv if n in files}
        return _cli_query(label, argv, used, check, workdir)

    refuted = _check_cli(0, status="refuted")
    consistent = _check_cli(4, status="consistent")
    ccore_open = _check_cli(4, ccore_status="consistent-up-to-bounds")
    return [
        q("cohesive a*", cohesive("astar.json"),
          _check_cli(0, status="refuted", exact=True,
                     witness__i=ASTAR_WITNESS[0], witness__j=ASTAR_WITNESS[1])),
        q(f"cohesive {other}", cohesive("regular.json"), refuted),
        q("cohesive leftmark a square-length", cohesive("marked-a.json"), consistent),
        q(f"cohesive leftmark b {marked}", cohesive("marked-b.json"), consistent),
        q("ccore example-26 square-length", ccore("ex26-square.json"), ccore_open),
        q(f"ccore example-26 {ccore_base} {markers}", ccore("ex26-seeded.json"),
          ccore_open),
    ]


def build_diagonalize(seed: int, size: str, workdir: str) -> list[Query]:
    sz = SIZES[size]
    rng = np.random.default_rng(seed)
    # the seed swaps the marker symbols, which costs the same either way;
    # it does not pick the predicate, because the marker runs take about
    # 1.5x as long with prime-length as with square-length
    cond_symbol = "ab"[int(rng.integers(0, 2))]
    target_symbol = "b" if cond_symbol == "a" else "a"
    base = {"predicate": "prime-length"}
    files = {f"{name}.json": {"alphabet": "ab", "builtin": name}
             for name in ("finite", "length", "regular")}
    files["full.json"] = {"alphabet": "ab", "expr": _complement({"finite": []})}
    files["condition.json"] = {"alphabet": "ab", "expr": _leftmark(cond_symbol, base)}
    files["target.json"] = {"alphabet": "ab",
                            "expr": _leftmark(target_symbol, _complement(base))}
    for name, data in files.items():
        _write(workdir, name, data)

    queries = []
    for family, steps, languages in (
            ("finite", sz["finite_steps"], ["--target", "full.json"]),
            ("length", sz["marker_steps"],
             ["--condition", "condition.json", "--target", "target.json"]),
            ("regular", sz["marker_steps"],
             ["--condition", "condition.json", "--target", "target.json"])):
        trace = f"{family}.jsonl"
        common = ["--family", f"{family}.json", *languages]
        run_argv = ["hardcore", *common, "--steps", str(steps), "--trace", trace]
        verify_argv = ["verify-trace", *common, "--trace", trace]
        used = {n: files[n] for n in common if n in files}
        queries.append(_cli_query(f"hardcore {family} {steps}", run_argv, used,
                                  _check_cli(0, steps=steps), workdir, trace))
        queries.append(_cli_query(f"verify-trace {family} {steps}", verify_argv,
                                  dict(used, run=run_argv),
                                  _check_cli(0, ok=True, violations=[], steps=steps),
                                  workdir))
    return queries


BUILDERS = {
    "solve-session": build_solve_session,
    "cohesion-scan": build_cohesion_scan,
    "diagonalize": build_diagonalize,
}
