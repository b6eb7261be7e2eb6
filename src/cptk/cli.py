"""Command-line entry point.

Reports are JSON on stdout (or --out), a one-line human summary goes to
stderr.  Exit codes: 0 certified or success, 2 usage or malformed input,
3 precondition refuted, 4 inconclusive at the given bounds, 5 invariant
violation.  Runs are reproducible byte for byte for a fixed config; every
report embeds the bounds it used.

File formats (all JSON):
  language file   {"alphabet": "ab", "expr": <expression>}
  problem file    {"alphabet": "ab", "condition": <expression>|null,
                   "components": [<expression>, ...]}
  family file     {"alphabet": "ab", "builtin": "regular"|"finite"|"length"}
                  or {"alphabet": "ab", "list": [<expression>, ...],
                      "closure": ["u","co",...], "flags": {...}}
  expressions     {"finite": [...]}, {"dfa": {...}}, {"predicate": "name"},
                  {"op": "union"|"intersect", "args": [...]},
                  {"op": "complement", "arg": ...},
                  {"op": "leftmark", "symbol": "a", "arg": ...},
                  {"op": "leftquotient", "word": "ab", "arg": ...}
  traces          JSON lines, one object per step:
                  {"n", "word", "action", "cancelled", "card", ...}
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classify import (ClosureFlagsAbsent, ProblemPrecondition, PartitionCertificate,
                       load_conditional, load_problem, solve, solve_conditional)
from .cohesion import check_ccohesive, check_ccore, check_cohesive, check_core
from .constructions import example_26, ziegler_problem
from .families import LAW_IDS, check_law, family_from_json
from .hardcore import hardcore_jsonl, verify_trace
from .langs import EMPTY, UnknownPredicate, expr_from_json, expr_to_json
from .words import Alphabet, words_up_to

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4
EXIT_VIOLATION = 5


# what parsing raises on valid JSON of the wrong shape or type
MALFORMED = (KeyError, ValueError, TypeError, AttributeError)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _malformed(path: str, exc: Exception) -> CliError:
    """Exit 2 for an input file of the wrong shape.  A KeyError's text is
    only the key, quoted, so it is named: an unknown predicate, else a
    missing field."""
    if isinstance(exc, UnknownPredicate):
        return CliError(EXIT_USAGE, f"{path}: unknown predicate {exc.args[0]!r}")
    if isinstance(exc, KeyError):
        return CliError(EXIT_USAGE, f"{path}: missing field {exc.args[0]!r}")
    return CliError(EXIT_USAGE, f"{path}: {exc}")


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8; exit 2 when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:  # missing, a directory, no permission, ...
        raise CliError(EXIT_USAGE, f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_USAGE, f"{path}: not UTF-8 text: byte {exc.start}")


def _write_text(path: str, text: str) -> None:
    """Write the text to the file; exit 2 when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing parent, no permission, ...
        raise CliError(EXIT_USAGE, f"{path}: {exc.strerror or exc}")


def _read_json(path: str):
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE,
                       f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer of more digits than Python converts
        raise CliError(EXIT_USAGE, f"{path}: {exc}")
    except RecursionError:
        raise CliError(EXIT_USAGE, f"{path}: JSON nested too deeply")
    if type(data) is not dict:
        raise CliError(EXIT_USAGE, f"{path}: the top level must be a JSON object")
    return data


def _load_language(path: str):
    data = _read_json(path)
    try:
        alphabet = Alphabet.parse(data["alphabet"], data.get("order"))
        expr = expr_from_json(data["expr"], alphabet)
    except MALFORMED as exc:
        raise _malformed(path, exc)
    return alphabet, expr


def _load_family(path: str):
    try:
        return family_from_json(_read_json(path))
    except MALFORMED as exc:
        raise _malformed(path, exc)


def _check_alphabet(family, alphabet: Alphabet, what: str) -> None:
    """Refuse a file whose alphabet is not the family's, symbols and order:
    automaton symbol codes and the word order depend on both."""
    if str(alphabet) != str(family.alphabet):
        raise CliError(EXIT_USAGE, f"{what} alphabet {str(alphabet)!r} differs "
                                   f"from the family alphabet {str(family.alphabet)!r}")


def _load_problem_file(path: str, horizon: int):
    data = _read_json(path)
    try:
        alphabet = Alphabet.parse(data["alphabet"], data.get("order"))
        comps = data["components"]
        if type(comps) is not list:
            raise ValueError(f"'components' must be a list, not {comps!r}")
        comps = [expr_from_json(c, alphabet) for c in comps]
        condition = data.get("condition")
        cond_expr = None if condition is None else expr_from_json(condition, alphabet)
    except MALFORMED as exc:
        raise _malformed(path, exc)
    try:
        if cond_expr is None:
            return alphabet, load_problem(comps, alphabet, horizon), None
        cond = load_conditional(cond_expr, comps, alphabet, horizon)
        return alphabet, cond.problem, cond
    except ProblemPrecondition as exc:
        raise CliError(EXIT_PRECONDITION, f"{path}: {exc}")
    except ValueError as exc:  # no component
        raise CliError(EXIT_USAGE, f"{path}: {exc}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text + "\n")
    else:
        print(text)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _config_echo(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_lex(args) -> int:
    try:
        alphabet = Alphabet.parse(args.alphabet, args.order)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    for w in words_up_to(alphabet, args.count):
        print(w)
    return EXIT_OK


def cmd_laws(args) -> int:
    family = _load_family(args.family)
    law_ids = LAW_IDS if args.law == "all" else (args.law,)
    reports = [check_law(law, family, args.samples, args.horizon, args.seed)
               for law in law_ids]
    bad = sum(r["disagreements"] for r in reports)
    _emit({"config": _config_echo(args), "reports": reports}, args)
    for r in reports:
        _summary(f"{r['law']:<28} samples={r['samples']:<4} "
                 f"agreements={r['agreements']:<4} disagreements={r['disagreements']}")
    return EXIT_OK if bad == 0 else EXIT_VIOLATION


def cmd_solve(args) -> int:
    family = _load_family(args.family)
    alphabet, problem, cond = _load_problem_file(args.problem, args.horizon)
    _check_alphabet(family, alphabet, "problem")
    if cond is None:
        result = solve(problem, family, args.index_bound, args.horizon)
    else:
        result = solve_conditional(cond, family, args.index_bound, args.horizon)
    report = {"config": _config_echo(args), **result.to_json()}
    _emit(report, args)
    if isinstance(result, PartitionCertificate):
        _summary(f"certified ({result.status}) with indices {result.indices}")
        return EXIT_OK
    _summary(f"not found below index bound {args.index_bound} / horizon {args.horizon}")
    return EXIT_INCONCLUSIVE


def cmd_cohesive(args) -> int:
    family = _load_family(args.family)
    alphabet, target = _load_language(args.target)
    _check_alphabet(family, alphabet, "target")
    if args.condition:
        alphabet, region = _load_language(args.condition)
        _check_alphabet(family, alphabet, "condition")
        verdict = check_ccohesive(target, region, family, args.index_bound,
                                  args.horizon)
    else:
        verdict = check_cohesive(target, family, args.index_bound, args.horizon)
    _emit({"config": _config_echo(args), **verdict.to_json()}, args)
    if verdict.is_refuted:
        _summary(f"refuted by pair ({verdict.witness.i}, {verdict.witness.j})"
                 f" exact={verdict.exact}")
        return EXIT_OK
    _summary("consistent up to the given bounds")
    return EXIT_INCONCLUSIVE


def cmd_ccore(args) -> int:
    family = _load_family(args.family)
    alphabet, problem, cond = _load_problem_file(args.problem, args.horizon)
    _check_alphabet(family, alphabet, "problem")
    if cond is None and len(problem) < 2:
        raise CliError(EXIT_USAGE, f"{args.problem}: core status concerns problems "
                                   "with at least 2 components")
    try:
        if cond is None:
            report = check_core(problem, family, args.index_bound, args.horizon,
                                subset_samples=args.samples, seed=args.seed)
            status = report["core_status"]
        else:
            report = check_ccore(cond, family, args.index_bound, args.horizon)
            status = report["ccore_status"]
    except ClosureFlagsAbsent as exc:
        raise CliError(EXIT_USAGE, f"{args.family}: {exc}")
    _emit({"config": _config_echo(args), **report}, args)
    _summary(status)
    return EXIT_OK if status == "refuted" else EXIT_INCONCLUSIVE


def _load_condition_and_target(args, family):
    """The condition (empty by default), and the target with its alphabet,
    both over the family's alphabet."""
    condition = EMPTY
    if args.condition:
        alphabet, condition = _load_language(args.condition)
        _check_alphabet(family, alphabet, "condition")
    alphabet, target = _load_language(args.target)
    _check_alphabet(family, alphabet, "target")
    return condition, alphabet, target


def cmd_hardcore(args) -> int:
    family = _load_family(args.family)
    condition, alphabet, target = _load_condition_and_target(args, family)
    state, trace = hardcore_jsonl(family, condition, target, alphabet, args.steps)
    if args.trace:
        _write_text(args.trace, trace)
    report = {
        "config": _config_echo(args),
        "steps": args.steps,
        "accepted": list(state.accepted),
        "card": state.card,
        "cancelled": sorted(state.cancelled),
    }
    _emit(report, args)
    _summary(f"accepted {state.card} words, cancelled {len(state.cancelled)} indices")
    return EXIT_OK


def cmd_verify_trace(args) -> int:
    family = _load_family(args.family)
    condition, alphabet, target = _load_condition_and_target(args, family)
    try:
        report = verify_trace(_read_text(args.trace), family, condition, target, alphabet)
    except ValueError as exc:  # a malformed line, or no line at all
        raise CliError(EXIT_USAGE, f"{args.trace}: {exc}")
    _emit({"config": _config_echo(args), **report}, args)
    if report["ok"]:
        _summary(f"trace verified over {report['steps']} steps")
        return EXIT_OK
    _summary(f"{len(report['violations'])} invariant violation(s)")
    return EXIT_VIOLATION


def cmd_make(args) -> int:
    alphabet, base = _load_language(args.base)
    try:
        if args.kind == "ziegler":
            problem = ziegler_problem(base, alphabet, args.horizon)
            data = {"alphabet": str(alphabet), "condition": None,
                    "components": [expr_to_json(c) for c in problem.components]}
            flags = problem.check.flags
        else:
            cond = example_26(base, alphabet, args.horizon)
            data = {"alphabet": str(alphabet),
                    "condition": expr_to_json(cond.condition),
                    "components": [expr_to_json(c) for c in cond.problem.components]}
            flags = cond.problem.check.flags
    except ProblemPrecondition as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    except ValueError as exc:  # a base over an alphabet the construction cannot use
        raise CliError(EXIT_USAGE, str(exc))
    for flag in flags:
        _summary(f"note: {flag}")
    _emit({"config": _config_echo(args), **data}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


# each command's help line, in the order the full parser lists them
COMMANDS = {
    "lex": "print the first N words in order",
    "laws": "spot-check closure-algebra identities",
    "solve": "search for a partition certificate",
    "cohesive": "scan for a splitting witness",
    "ccore": "core / conditional-core status report",
    "hardcore": "run the diagonalization loop",
    "verify-trace": "replay a trace and check invariants",
    "make": "emit a generated problem file",
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of one command, or of every command
    when ``command`` is None; built once per process and command, since
    parsing leaves it unchanged.  The command list is named in full either
    way, so that help and usage errors read the same."""
    parser = argparse.ArgumentParser(
        prog="cptk",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    # the full parser's metavar is its choices; one command's names them all
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, help_line in COMMANDS.items():
        if command in (None, name):
            _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """The arguments and handler of one command's subparser."""
    def add_bounds(steps=False):
        p.add_argument("--index-bound", type=_int_at_least(1), default=500,
                       help="family indices scanned (default 500)")
        p.add_argument("--horizon", type=_int_at_least(0), default=300,
                       help="last word rank checked on windows (default 300)")
        p.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="seed for sampling harnesses (default 0)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if steps:
            p.add_argument("--steps", type=_int_at_least(1), default=256,
                           help="words processed by the loop (default 256)")

    if command == "lex":
        p.add_argument("--alphabet", required=True)
        p.add_argument("--order", help="explicit symbol order override")
        p.add_argument("--count", type=_int_at_least(0), default=16)
        p.set_defaults(func=cmd_lex)
    elif command == "laws":
        p.add_argument("--family", required=True)
        p.add_argument("--law", default="all", choices=("all",) + LAW_IDS)
        p.add_argument("--samples", type=_int_at_least(1), default=50)
        add_bounds()
        p.set_defaults(func=cmd_laws)
    elif command == "solve":
        p.add_argument("--problem", required=True)
        p.add_argument("--family", required=True)
        add_bounds()
        p.set_defaults(func=cmd_solve)
    elif command == "cohesive":
        p.add_argument("--target", required=True, help="language file to test")
        p.add_argument("--family", required=True)
        p.add_argument("--condition", help="restrict witnesses inside this language")
        add_bounds()
        p.set_defaults(func=cmd_cohesive)
    elif command == "ccore":
        p.add_argument("--problem", required=True)
        p.add_argument("--family", required=True)
        p.add_argument("--samples", type=_int_at_least(0), default=4,
                       help="sliced subproblems sampled (default 4)")
        add_bounds()
        p.set_defaults(func=cmd_ccore)
    elif command == "hardcore":
        p.add_argument("--family", required=True)
        p.add_argument("--condition", help="language file (default: empty language)")
        p.add_argument("--target", required=True, help="language file")
        p.add_argument("--trace", help="write the JSONL trace here")
        add_bounds(steps=True)
        p.set_defaults(func=cmd_hardcore)
    elif command == "verify-trace":
        p.add_argument("--trace", required=True)
        p.add_argument("--family", required=True)
        p.add_argument("--condition")
        p.add_argument("--target", required=True)
        add_bounds()
        p.set_defaults(func=cmd_verify_trace)
    else:  # make
        p.add_argument("kind", choices=("ziegler", "example26"))
        p.add_argument("--base", required=True, help="base language file")
        add_bounds()
        p.set_defaults(func=cmd_make)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command leading the arguments needs its own subparser only;
    # anything else (no command, --help, an unknown name) the full parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ProblemPrecondition as exc:
        print(f"precondition refuted: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
