"""The benchmark's own checks, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from layers import TARGETS  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_has_no_failures(workload):
    record = run.run_benchmark(workload, 1, 0.1, 0, size="tiny")
    assert record["attempted"] >= 6
    assert record["failed_share"] == 0, record["failures"]
    assert all(v > 0 for v in record["end_to_end"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_add_up(workload):
    record = run.run_benchmark(workload, 1, 0.1, 1, size="tiny")
    assert record["failed"] == 0, record["failures"]
    for check in record["trace_checks"]:
        # every wrapped call ran inside a set-up or query span, and self
        # times partition those spans exactly
        assert check["self_ns_total"] == check["root_ns"]
        assert check["min_self_ns"] >= 0
        assert 0 < check["query_ns"] <= check["root_ns"]
    assert set(record["layers"]) == set(run.PER_LAYER_UNITS)
    assert all(v >= 0 for v in record["layers"].values())


def test_scaling_divides_out_only_the_host_speed():
    import hostspeed

    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale(2.0, ref, ref) == pytest.approx(2.0)
    # on a host twice as slow the probe and the program both take twice as long
    assert hostspeed.scale(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.scale(4.0, ref, 3 * ref) == pytest.approx(2.0)
    assert hostspeed.probe() > 0


def test_corrupted_reference_hash_is_a_failure(tmp_path):
    clean = run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny")
    hashes = {key: entry["digest"] for key, entry in clean["hashes"].items()}
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"hashes": hashes}))
    assert run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny",
                             reference_path=str(good))["failed"] == 0
    key = sorted(hashes)[0]
    hashes[key] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hashes": hashes}))
    record = run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny",
                               reference_path=str(bad))
    assert record["failed"] == record["passes"]
    assert all("output hash" in f["problem"] for f in record["failures"])


def test_missing_reference_hash_of_a_recorded_seed_is_a_failure(tmp_path):
    clean = run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny")
    hashes = {key: entry["digest"] for key, entry in clean["hashes"].items()}
    del hashes[sorted(hashes)[0]]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"hashes": hashes}))
    assert run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny",
                             reference_path=str(partial))["failed"] == 0
    # once the seed is recorded, every query of it must have a hash
    partial.write_text(json.dumps({"recorded": {"diagonalize/tiny": [1]},
                                   "hashes": hashes}))
    record = run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny",
                               reference_path=str(partial))
    assert record["reference_complete"]
    assert record["failed"] == record["passes"]
    assert all("no reference hash" in f["problem"] for f in record["failures"])
    # except while recording the missing hash
    assert run.run_benchmark("diagonalize", 1, 0.1, 0, size="tiny",
                             reference_path=str(partial),
                             recording=True)["failed"] == 0


def test_solve_keys_do_not_depend_on_program_output(tmp_path, monkeypatch):
    import cptk
    import workloads

    def keys():
        return [q.key for q in workloads.build_solve_session(1, "tiny", str(tmp_path))]

    before = keys()
    to_json = cptk.expr_to_json
    monkeypatch.setattr(cptk, "expr_to_json", lambda e: {"changed": to_json(e)})
    assert keys() == before


def test_output_that_changes_within_a_run_is_a_failure():
    query = {"label": "q", "key": "k", "s": 0.1, "error": None}
    passes = [{"queries": [dict(query, digest="a" * 64)]},
              {"queries": [dict(query, digest="b" * 64)]}]
    attempted, failed, _, _ = run.judge(passes, {})
    assert (attempted, failed) == (2, 1)


def test_wrappers_replace_every_binding_and_uninstall():
    import cptk.hardcore
    import cptk.langs

    original = cptk.langs.member
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert cptk.langs.member is not original
        assert cptk.hardcore.member is cptk.langs.member
        assert cptk.member is cptk.langs.member
        assert "cptk.langs.member" in tracer.installed
    finally:
        tracer.uninstall()
    assert cptk.langs.member is original and cptk.hardcore.member is original


def test_missing_target_is_recorded_not_fatal():
    from spans import Target

    tracer = Tracer()
    tracer.install([Target("cptk.langs", "no_such_function", "langs.none"),
                    Target("cptk.no_such_module", "f", "none.f")])
    assert tracer.installed == []
    assert len(tracer.absent) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "diagonalize", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_conditional_solve_survives_losing_its_entry_point(tmp_path, monkeypatch):
    import cptk
    import workloads

    def conditional_query():
        queries = workloads.build_solve_session(1, "tiny", str(tmp_path))
        return next(q for q in queries if q.label.startswith("solve_conditional"))

    direct = conditional_query()
    want = direct.run().digest()
    assert workloads.conditional_path() == "library"
    monkeypatch.delattr(cptk, "solve_conditional")
    monkeypatch.chdir(tmp_path)
    assert workloads.conditional_path() == "cli"
    via_cli = conditional_query()
    assert via_cli.key == direct.key
    assert via_cli.run().digest() == want
