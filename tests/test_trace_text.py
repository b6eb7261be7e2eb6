"""``verify_trace`` on trace text: the replay writes the lines of the
event walk it shares with ``hardcore_run``, compares them with the text,
stops at the first line that differs and decodes only from there on.

The oracles are the one-loop verifier (tests/trace_oracle.py) on the
entries ``trace_from_jsonl`` reads from the same text, and
``trace_from_jsonl`` itself for the errors of lines that are not entries.
"""

import json

import numpy as np
import pytest

import cptk.hardcore
from cptk import cli
from cptk.families import regular_family
from cptk.hardcore import (TraceEntry, hardcore_run, trace_from_jsonl, trace_to_jsonl,
                           verify_trace)
from cptk.langs import Complement, LeftMark, Predicate, expr_to_json

from .test_hardcore import (BUILTINS, MARKERS, single_field_tampering,
                            tampered_traces)
from .test_hardcore_events import tampering
from .trace_oracle import one_loop_verify_trace


def oracle_report(text, builtin, condition, target, alphabet):
    """The one-loop verifier's report on the entries of the text, over a
    fresh family."""
    return one_loop_verify_trace(trace_from_jsonl(text), BUILTINS[builtin](alphabet),
                                 condition, target, alphabet)


def rewritten_line(line, rng):
    """The entry of a canonical line, written otherwise: spaces, keys in
    another order, ``\\u0061`` for ``a`` in the word, null optional
    fields, whitespace around the object."""
    data = json.loads(line)
    if rng.integers(2):
        data.setdefault("reason", None)
    if rng.integers(2):
        data.setdefault("blocking", None)
    keys = list(data)
    rng.shuffle(keys)
    colon, comma = (": ", ", ") if rng.integers(2) else (":", ",")
    fields = []
    for key in keys:
        value = json.dumps(data[key], separators=(comma, colon))
        if key == "word":
            value = value.replace("a", "\\u0061")
        fields.append(f'"{key}"{colon}{value}')
    pad = [" ", "\t", ""][int(rng.integers(3))]
    return pad + "{" + comma.join(fields) + "}" + pad


def rewritten_text(text, rng, share=0.2):
    """The text with about ``share`` of its lines rewritten, blank and
    whitespace-only lines between some entries, and no final newline
    half of the time."""
    out = []
    for line in text.split("\n")[:-1]:
        if rng.random() < share:
            line = rewritten_line(line, rng)
        out.append(line)
        if rng.random() < share / 2:
            out.append(["", "  ", "\t \t"][int(rng.integers(3))])
    end = "\n" if rng.integers(2) else ""
    return "\n".join(out) + end


@pytest.mark.parametrize("languages", sorted(MARKERS))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_text_verifier_matches_one_loop_verifier(ab, builtin, languages):
    """The tampered traces of the tests and seeded tamperings of one to
    three fields, as text, canonical, with a fifth of the lines rewritten
    and with every line rewritten."""
    condition, target = MARKERS[languages]
    rng = np.random.default_rng([21, sorted(BUILTINS).index(builtin),
                                 sorted(MARKERS).index(languages)])
    family = BUILTINS[builtin](ab)
    codes = set()
    rewrites = 0
    for steps in (1, 2, 64, 300):
        _, trace = hardcore_run(family, condition, target, ab, steps)
        traces = list(tampered_traces(trace).values())
        traces += [tampering(trace, rng, ab) for _ in range(12)]
        for t in traces:
            text = trace_to_jsonl(t)
            want = oracle_report(text, builtin, condition, target, ab)
            assert verify_trace(text, family, condition, target, ab) == want
            for share in (0.2, 1.0):
                other = rewritten_text(text, rng, share)
                rewrites += other != text
                assert verify_trace(other, family, condition, target, ab) == want
            codes |= {v["code"] for v in want["violations"]}
    assert rewrites > 80
    assert {"replay-divergence", "card-mismatch", "word-rank"} <= codes


MALFORMED = ['{"n": 0', "null", "[1]", '{"action":"accepted","cancelled":[],"card":1,'
             '"n":true,"word":""}', '{"action":"skipped","cancelled":[],"card":0,"n":3}']


def error_of(read, *args):
    with pytest.raises(ValueError) as info:
        read(*args)
    return str(info.value)


@pytest.mark.parametrize("builtin", ["finite", "length", "regular"])
def test_malformed_line_raises_the_reader_error(ab, builtin):
    """A line that is not an entry, before, at and after the first
    divergence and after a step-numbering break, raises what
    ``trace_from_jsonl`` raises on the same text."""
    condition, target = MARKERS["a.A-b.notA"]
    rng = np.random.default_rng(3)
    family = BUILTINS[builtin](ab)
    _, trace = hardcore_run(family, condition, target, ab, 64)
    k = 30
    diverged = list(trace)
    diverged[k] = trace[k]._replace(card=trace[k].card + 1)
    broken = list(trace)
    broken[k] = trace[k]._replace(n=k + 1)
    assert verify_trace(broken, family, condition, target, ab)["violations"][0]["code"] \
        == "step-numbering"
    for t in (trace, diverged, broken):
        lines = trace_to_jsonl(t).split("\n")
        for at in (0, k - 1, k, k + 1, len(t) - 1):
            bad = MALFORMED[int(rng.integers(len(MALFORMED)))]
            for text in ("\n".join(lines[:at] + [bad] + lines[at:]),
                         "\n".join(lines[:at] + [bad] + lines[at + 1:])):
                want = error_of(trace_from_jsonl, text)
                assert want.startswith(f"trace line {at + 1}: ")
                assert error_of(verify_trace, text, family, condition, target, ab) == want


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n\n", "  "])
def test_text_with_no_entry_raises(ab, text):
    with pytest.raises(ValueError, match="an empty trace has no steps to verify"):
        verify_trace(text, regular_family(ab), *MARKERS["a-b"], ab)


def split_steps(text):
    """The step count of ``verify_trace`` before it counted without
    splitting: the nonblank ``"\\n"``-separated lines."""
    return len(list(filter(str.strip, text.split("\n"))))


def blank_line_texts(text):
    """The text as written, and with blank, ``"\\r"`` and whitespace-only
    lines at its start, among its lines and at its end, and with no final
    newline."""
    lines = text.split("\n")[:-1]
    yield text
    yield text[:-1]
    for extra in ("", "\r", " ", "\t \x0b", "\u3000"):
        for at in (0, 1, len(lines) // 2, len(lines)):
            yield "\n".join(lines[:at] + [extra] + lines[at:]) + "\n"
            yield "\n".join(lines[:at] + [extra] + lines[at:])
    yield "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("builtin", ["finite", "regular"])
def test_step_count_matches_the_split_count(ab, builtin, monkeypatch):
    """The report's steps are the nonblank lines, and its violations the
    one-loop verifier's; the text is replayed a second time only when a
    line is blank."""
    condition, target = MARKERS["a.A-b.notA"]
    family = BUILTINS[builtin](ab)
    replays = []
    replay = cptk.hardcore._replay

    def counted(text, steps, *args):
        replays.append(steps)
        return replay(text, steps, *args)

    monkeypatch.setattr(cptk.hardcore, "_replay", counted)
    for steps in (1, 2, 40):
        _, trace = hardcore_run(family, condition, target, ab, steps)
        diverged = list(trace)
        diverged[-1] = trace[-1]._replace(card=trace[-1].card + 1)
        for t in (trace, diverged):
            for text in blank_line_texts(trace_to_jsonl(t)):
                replays.clear()
                report = verify_trace(text, family, condition, target, ab)
                assert report["steps"] == split_steps(text) == steps
                assert report == oracle_report(text, builtin, condition, target, ab)
                pieces = text.removesuffix("\n").split("\n")
                blank = not all(map(str.strip, pieces))
                assert replays == [len(pieces), steps] if blank else [steps]


@pytest.mark.parametrize("field, value", [("n", float), ("card", bool), ("cancelled", bool)])
def test_entry_list_with_a_non_int_field_raises(ab, field, value):
    """A list of entries is verified as the text ``trace_to_jsonl`` writes
    of it.  A float or a bool where an int belongs compares equal to the
    run's field but is written as ``5.0`` or ``True``, so it raises the
    reader's error at the line of its entry, counted from 1."""
    condition, target = MARKERS["a.A-b.notA"]
    family = regular_family(ab)
    _, trace = hardcore_run(family, condition, target, ab, 64)
    k = next(k for k, e in enumerate(trace) if e.cancelled and e.card and e.n)
    old = getattr(trace[k], field)
    tampered = list(trace)
    tampered[k] = trace[k]._replace(
        **{field: tuple(map(value, old)) if field == "cancelled" else value(old)})
    assert tampered == trace
    want = error_of(trace_from_jsonl, trace_to_jsonl(tampered))
    assert want.startswith(f"trace line {k + 1}: ")
    assert error_of(verify_trace, tampered, family, condition, target, ab) == want


PRIME = Predicate("prime-length")


@pytest.fixture
def decoded_lines(monkeypatch):
    """Count the calls of the per-line decoder, ``hardcore._decode_line``."""
    calls = []
    real = cptk.hardcore._decode_line

    def counted(line):
        calls.append(line)
        return real(line)
    monkeypatch.setattr(cptk.hardcore, "_decode_line", counted)
    return calls


def test_verify_trace_command_decodes_only_lines_that_differ(ab, tmp_path, capsys,
                                                             decoded_lines, monkeypatch):
    """Over the regular family of ``ab``, with condition a·(prime-length)
    and target b·¬(prime-length), a clean 2000-step trace never reaches
    the decoder, and one with a field of the line at rank k tampered
    decodes the lines from k on, from line k + 1 of the file."""
    reached = []
    real_decode_lines = cptk.hardcore._decode_lines

    def counted_decode_lines(text, lineno):
        reached.append(lineno)
        return real_decode_lines(text, lineno)
    monkeypatch.setattr(cptk.hardcore, "_decode_lines", counted_decode_lines)
    files = {"regular.json": {"alphabet": "ab", "builtin": "regular"},
             "condition.json": {"alphabet": "ab", "expr": {
                 "op": "leftmark", "symbol": "a", "arg": {"predicate": "prime-length"}}},
             "target.json": {"alphabet": "ab", "expr": {
                 "op": "leftmark", "symbol": "b",
                 "arg": {"op": "complement", "arg": {"predicate": "prime-length"}}}}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    path = tmp_path / "t.jsonl"
    args = ["--family", str(tmp_path / "regular.json"),
            "--condition", str(tmp_path / "condition.json"),
            "--target", str(tmp_path / "target.json"), "--trace", str(path)]
    assert cli.main(["hardcore", *args, "--steps", "2000"]) == 0
    text = path.read_text()
    capsys.readouterr()
    assert cli.main(["verify-trace", *args]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert decoded_lines == [] and reached == []
    trace = trace_from_jsonl(text)
    decoded_lines.clear()
    reached.clear()
    condition, target = LeftMark("a", PRIME), LeftMark("b", Complement(PRIME))
    rng = np.random.default_rng(11)
    for k in (0, 1, 700, 1998, 1999):
        for field in TraceEntry._fields:
            tampered = list(trace)
            tampered[k] = single_field_tampering([trace[k]], field, rng, ab)[0]
            path.write_text(trace_to_jsonl(tampered))
            code = cli.main(["verify-trace", *args])
            assert code == 5 and len(decoded_lines) == 2000 - k and reached == [k + 1]
            report = json.loads(capsys.readouterr().out)
            del report["config"]
            assert report == one_loop_verify_trace(tampered, regular_family(ab),
                                                   condition, target, ab)
            decoded_lines.clear()
            reached.clear()


def language_file(path, expr):
    path.write_text(json.dumps({"alphabet": "ab", "expr": expr_to_json(expr)}))
    return str(path)


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_command_trace_is_the_text_of_the_run_entries(ab, tmp_path, capsys, builtin):
    """``cptk hardcore --trace`` writes a stretch of skips at a time and
    builds no entry; its file is ``trace_to_jsonl`` of the entries of
    ``hardcore_run``, byte for byte, and its report holds the run's
    state, for every pair of languages and 1 to 2000 steps."""
    family = BUILTINS[builtin](ab)
    data = {"alphabet": "ab", "builtin": builtin}
    if builtin == "repeats":
        data = {"alphabet": "ab", "name": builtin,
                "list": [expr_to_json(family.expr(i)) for i in range(4)]}
    (tmp_path / "family.json").write_text(json.dumps(data))
    path = tmp_path / "t.jsonl"
    blocked = 0
    for languages in sorted(MARKERS):
        condition, target = MARKERS[languages]
        args = ["--family", str(tmp_path / "family.json"),
                "--condition", language_file(tmp_path / "condition.json", condition),
                "--target", language_file(tmp_path / "target.json", target),
                "--trace", str(path)]
        for steps in (1, 2, 64, 600, 2000):
            assert cli.main(["hardcore", *args, "--steps", str(steps)]) == 0
            report = json.loads(capsys.readouterr().out)
            state, trace = hardcore_run(family, condition, target, ab, steps)
            text = path.read_text()
            assert text == trace_to_jsonl(trace)
            assert (report["accepted"], report["card"], report["cancelled"]) \
                == (list(state.accepted), state.card, sorted(state.cancelled))
            blocked += text.count('"blocking"')
    assert (blocked > 0) == (builtin != "finite")


def skip_stretches(trace):
    """The first and last rank of each maximal run of skipped entries."""
    out, first = [], None
    for e in trace:
        if e.action != "skipped":
            first = None
        elif first is None:
            first = e.n
            out.append([first, first])
        else:
            out[-1][1] = e.n
    return out


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_tampered_skip_stretch_matches_one_loop_verifier(ab, builtin):
    """Over a long stretch of skips, one with blocked ranks where the run
    has one: every field tampered on its first, a middle and its last
    line and on a blocked line inside it, and each of those lines
    rewritten with spaces, which decodes to the run's entry."""
    condition, target = MARKERS["a.A-b.notA"]
    rng = np.random.default_rng([28, sorted(BUILTINS).index(builtin)])
    family = BUILTINS[builtin](ab)
    _, trace = hardcore_run(family, condition, target, ab, 2000)

    def blocked_in(stretch):
        return [k for k in range(stretch[0] + 1, stretch[1]) if trace[k].blocking is not None]
    first, last = max(skip_stretches(trace),
                      key=lambda s: (bool(blocked_in(s)), s[1] - s[0]))
    blocked = blocked_in([first, last])
    assert last - first >= 900 and bool(blocked) == (builtin != "finite")
    ranks = {first, (first + last) // 2, last, *blocked[len(blocked) // 2:][:1]}
    lines = trace_to_jsonl(trace).split("\n")
    for k in sorted(ranks):
        for field in TraceEntry._fields:
            tampered = list(trace)
            tampered[k] = single_field_tampering([trace[k]], field, rng, ab)[0]
            text = trace_to_jsonl(tampered)
            want = oracle_report(text, builtin, condition, target, ab)
            assert verify_trace(text, family, condition, target, ab) == want
        spaced = json.dumps(json.loads(lines[k]))
        assert " " in spaced
        text = "\n".join(lines[:k] + [spaced] + lines[k + 1:])
        report = verify_trace(text, family, condition, target, ab)
        assert report["ok"] and report == oracle_report(text, builtin, condition, target, ab)
