"""Which ``cptk`` names the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/cptk``.  A target that no longer exists
is skipped and reported as absent; its metrics then read 0.  Ratios
with a zero base also read 0.  ``*_s`` metrics are inclusive times of
calls not nested in a call of the same name; ``*_self_s`` metrics are
self times.
"""

from __future__ import annotations

from spans import Target, Tracer

DECIDE = ("langs.subset_of", "langs.equivalent", "langs.is_finite",
          "classify.disjoint_verdict")
SOLVE = ("classify.solve", "classify.solve_conditional")
LOAD = ("classify.load_problem", "classify.load_conditional")
BUILD = ("constructions.ziegler_problem", "constructions.example_26")
CHECK = ("cohesion.check_cohesive", "cohesion.check_ccohesive")
CHECK_SELF = CHECK + ("cohesion._check_cohesive_restricted",)
TRACE_IO = ("hardcore.trace_to_jsonl", "hardcore.trace_from_jsonl")
CLI_COMMANDS = ("cmd_lex", "cmd_laws", "cmd_solve", "cmd_cohesive", "cmd_ccore",
                "cmd_hardcore", "cmd_verify_trace", "cmd_make")
CLI = ("cli.main",) + tuple(f"cli.{c}" for c in CLI_COMMANDS)


def _words_run(tracer: Tracer, args, result) -> None:
    tracer.count("kernels.words_run", len(args[3]))


def _decided(tracer: Tracer, args, result) -> None:
    tracer.count("langs.decided")
    if getattr(result, "exact", False):
        tracer.count("langs.decided_exact")


def _dc_pairs(tracer: Tracer, args, result) -> None:
    tracer.count("families.dc_pairs", len(result))


def _verified_tuple(tracer: Tracer, args, result) -> None:
    tracer.count("classify.verify_decisions")
    if result is None:
        tracer.count("classify.verify_refuted")


def _partition_checked(tracer: Tracer, args, result) -> None:
    # solve_conditional verifies candidates through is_partition
    if tracer.parent_name() in SOLVE:
        tracer.count("classify.verify_decisions")
        if getattr(result, "is_refuted", False):
            tracer.count("classify.verify_refuted")


def _t(module, attr, name=None, hot=False, hook=None):
    return Target(f"cptk.{module}", attr, name or f"{module}.{attr.split('.')[-1]}",
                  hot, hook)


TARGETS = (
    _t("words", "window"),
    _t("words", "lex", hot=True),
    _t("kernels", "dfa_final_states", hot=True, hook=_words_run),
    _t("dfa", "Dfa.accepts_batch"),
    _t("dfa", "Dfa.minimize"),
    _t("dfa", "Dfa.least_accepted"),
    _t("dfa", "Dfa.count_accepted"),
    _t("langs", "member", hot=True),
    _t("langs", "member_batch"),
    _t("langs", "simplify"),
    _t("langs", "regular_view"),
    _t("langs", "to_automaton"),
    _t("langs", "subset_of", hook=_decided),
    _t("langs", "equivalent", hook=_decided),
    _t("langs", "is_finite", hook=_decided),
    _t("families", "FamilyEnum.expr", hot=True),
    _t("families", "FamilyEnum.canonical", hot=True),
    _t("families", "FamilyEnum.window_row"),
    _t("families", "dc_members", hook=_dc_pairs),
    _t("classify", "disjoint_verdict", hook=_decided),
    _t("classify", "load_problem"),
    _t("classify", "load_conditional"),
    _t("classify", "is_partition", hook=_partition_checked),
    _t("classify", "_verify_tuple", hook=_verified_tuple),
    _t("classify", "solve"),
    _t("classify", "solve_conditional"),
    _t("cohesion", "check_cohesive"),
    _t("cohesion", "check_ccohesive"),
    _t("cohesion", "_check_cohesive_restricted"),
    _t("cohesion", "infinite_evidence"),
    _t("cohesion", "check_core"),
    _t("cohesion", "check_ccore"),
    _t("codec", "pair", hot=True),
    _t("hardcore", "hardcore_step"),
    _t("hardcore", "hardcore_run"),
    _t("hardcore", "verify_trace"),
    _t("hardcore", "trace_to_jsonl"),
    _t("hardcore", "trace_from_jsonl"),
    _t("constructions", "ziegler_problem"),
    _t("constructions", "example_26"),
    _t("cli", "main"),
) + tuple(_t("cli", c) for c in CLI_COMMANDS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (setup and queries)."""
    c = tr.counters
    calls, outer, self_ = tr.calls_of, tr.outer_s, tr.self_s

    def total(fn, names):
        return sum(fn(n) for n in names)

    return {
        "words.window_calls": calls("words.window"),
        "words.window_s": outer("words.window"),
        "words.lex_calls": calls("words.lex"),
        "words.lex_s": outer("words.lex"),
        "kernels.final_states_calls": calls("kernels.dfa_final_states"),
        "kernels.final_states_s": outer("kernels.dfa_final_states"),
        "kernels.words_run": c.get("kernels.words_run", 0),
        "dfa.accepts_batch_calls": calls("dfa.accepts_batch"),
        "dfa.accepts_batch_s": outer("dfa.accepts_batch"),
        "dfa.minimize_calls": calls("dfa.minimize"),
        "dfa.minimize_s": outer("dfa.minimize"),
        "dfa.least_accepted_s": outer("dfa.least_accepted"),
        "dfa.count_accepted_s": outer("dfa.count_accepted"),
        "langs.member_calls": calls("langs.member"),
        "langs.member_s": outer("langs.member"),
        "langs.member_batch_calls": calls("langs.member_batch"),
        "langs.member_batch_s": outer("langs.member_batch"),
        "langs.simplify_s": outer("langs.simplify"),
        "langs.regular_view_calls": calls("langs.regular_view"),
        "langs.view_miss_ratio": _ratio(tr.edge_calls("langs.regular_view",
                                                      "langs.to_automaton"),
                                        calls("langs.regular_view")),
        "langs.decide_calls": total(calls, DECIDE),
        "langs.decide_s": total(outer, DECIDE),
        "langs.decide_exact_share": _ratio(c.get("langs.decided_exact", 0),
                                           c.get("langs.decided", 0)),
        "families.window_row_calls": calls("families.window_row"),
        "families.window_row_s": outer("families.window_row"),
        "families.window_row_miss_ratio": _ratio(
            tr.edge_calls("families.window_row", "langs.member_batch"),
            calls("families.window_row")),
        "families.canonical_calls": calls("families.canonical"),
        "families.canonical_s": outer("families.canonical"),
        "families.dc_members_s": outer("families.dc_members"),
        "families.dc_pairs": c.get("families.dc_pairs", 0),
        "families.expr_calls": calls("families.expr"),
        "classify.solve_calls": total(calls, SOLVE),
        "classify.solve_self_s": total(self_, SOLVE),
        "classify.verify_decisions": c.get("classify.verify_decisions", 0),
        "classify.verify_refuted_share": _ratio(c.get("classify.verify_refuted", 0),
                                                c.get("classify.verify_decisions", 0)),
        "classify.load_s": total(outer, LOAD),
        "cohesion.check_calls": total(calls, CHECK),
        "cohesion.check_self_s": total(self_, CHECK_SELF),
        "cohesion.evidence_calls": calls("cohesion.infinite_evidence"),
        "cohesion.evidence_s": outer("cohesion.infinite_evidence"),
        "codec.pair_calls": calls("codec.pair"),
        "hardcore.step_calls": calls("hardcore.hardcore_step"),
        "hardcore.step_self_s": self_("hardcore.hardcore_step"),
        "hardcore.member_per_step": _ratio(tr.edge_calls("hardcore.hardcore_step",
                                                         "langs.member"),
                                           calls("hardcore.hardcore_step")),
        "hardcore.verify_self_s": self_("hardcore.verify_trace"),
        "hardcore.trace_io_s": total(outer, TRACE_IO),
        "constructions.build_s": total(outer, BUILD),
        "cli.self_s": total(self_, CLI),
    }


LAYER_UNITS = {name: ("s" if name.endswith("_s") else
                      "ratio" if name.endswith(("_ratio", "_share", "_per_step"))
                      else "count")
               for name in layer_metrics(Tracer())}
