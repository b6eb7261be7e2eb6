"""cptk benchmark: closed-loop query workloads with verdict checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-session --seed 1 --seconds 40 --trace 0

Each run starts fresh worker interpreters one after another, one pass of
the workload each, until ``--seconds`` is used up.  Every pass times its
own set-up and queries, scales each time to a reference host speed with
the probes of ``hostspeed.py``, and hashes every output.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced passes with ``--trace 1``.  The full record, with the
output hashes, goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
from layers import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1

WORKLOADS = ("solve-session", "cohesion-scan", "diagonalize")
# fixed per workload so that runs compare; each falls inside one group of
# like queries (the README solves, the two ccore commands, the finite
# family's hardcore runs; for diagonalize the middle of that group), so it
# does not jump between groups.  A run goes on until at least ten queries
# lie beyond it.
TAIL_PERCENTILE = {"solve-session": 90, "cohesion-scan": 83, "diagonalize": 75}
TAIL_BEYOND = 10

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
    "CPTK_THREADS")}

MEASUREMENT_NOTE = ("Timings and peak RSS are measured on the benchmark's own "
                    "processes only (perf_counter, CLOCK_MONOTONIC, ru_maxrss), "
                    "which are pinned to one CPU with sched_setaffinity; no "
                    "cache dropping, no system-wide tracing, no kernel or "
                    "cgroup settings changed.  Times in the metrics are scaled "
                    "to a reference host speed by a fixed probe timed right "
                    "before and after each interval; the *_raw_s fields are "
                    "the measured times.")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "query_p50_s": "s",
                    "query_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = dict(LAYER_UNITS, **{"trace.run_s": "s",
                                       "trace.overhead_ratio": "ratio"})
HARD_LIMIT_S = 150.0


class BenchError(Exception):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload, seed, size, traced, spans_out=None, timeout=HARD_LIMIT_S):
    """Start one worker, wait for it, and return its record with set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
           "--out-dir", OUT]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    probe = hostspeed.probe()
    spawned = _monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f}s")
    ended = _monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = record["ready_monotonic"] - spawned
    record["setup_s"] = hostspeed.scale(record["setup_raw_s"], probe,
                                        record["first_probe_s"])
    record["wall_s"] = ended - spawned
    record["traced"] = traced
    return record


def pin_to_one_cpu() -> int:
    """Pin this process, and so every worker it starts, to the highest
    numbered usable CPU.  Unpinned, a worker lands on whichever CPU the
    scheduler picks; on a shared host the CPUs can differ in speed by a
    third, which makes pass times bimodal.  CPU 0 is avoided because it
    usually takes the most interrupts and housekeeping."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def enough_passes(workload, trace, passes) -> bool:
    """With tracing, the first pass is an untraced baseline for the
    overhead and at least one pass is traced; without, the tail
    percentile needs ``TAIL_BEYOND`` queries beyond it."""
    if trace:
        return len(passes) >= 2
    n = sum(len(p["queries"]) for p in passes)
    return nearest_rank(range(n), TAIL_PERCENTILE[workload])[1] >= TAIL_BEYOND


def run_passes(workload, seed, seconds, trace, size, spans_out=None):
    """Passes until the time is used up and there are enough of them."""
    start = _monotonic()
    passes = []
    while True:
        traced = bool(trace) and bool(passes)
        elapsed = _monotonic() - start
        passes.append(run_worker(workload, seed, size, traced,
                                 spans_out if traced else None,
                                 timeout=HARD_LIMIT_S - elapsed))
        next_end = _monotonic() - start + passes[-1]["wall_s"]
        if len(passes) >= (2 if trace else 1) and (
                next_end > HARD_LIMIT_S
                or next_end > seconds and enough_passes(workload, trace, passes)):
            return passes


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def load_reference(path):
    """``hashes`` maps a query key to its output hash; ``recorded`` maps
    ``<workload>/<size>`` to the seeds whose every query was recorded."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    return {"hashes": data.get("hashes", {}), "recorded": data.get("recorded", {})}


def judge(passes, hashes, complete=False):
    """Count failed queries: a raised error, a failed check, a hash that
    differs from the reference, or from the same query earlier in the run.
    With ``complete`` (a recorded seed), a query without a reference hash
    fails too, so that the reference check cannot switch itself off."""
    seen = {}
    attempted = failed = 0
    failures = []
    for p in passes:
        for q in p["queries"]:
            attempted += 1
            problem = q["error"]
            if problem is None:
                want = hashes.get(q["key"], seen.get(q["key"]))
                if complete and q["key"] not in hashes:
                    problem = "no reference hash for this input of a recorded seed"
                elif want is not None and want != q["digest"]:
                    problem = f"output hash {q['digest'][:12]} != {want[:12]}"
                seen.setdefault(q["key"], q["digest"])
            if problem is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append({"query": q["label"], "problem": problem})
    return attempted, failed, failures, seen


def record_reference(path, record):
    reference = load_reference(path)
    hashes, recorded = reference["hashes"], reference["recorded"]
    hashes.update({key: entry["digest"] for key, entry in record["hashes"].items()})
    seeds = recorded.setdefault(f"{record['workload']}/{record['size']}", [])
    if record["seed"] not in seeds:
        seeds.append(record["seed"])
        seeds.sort()
    with open(path, "w") as fh:
        json.dump({"about": "sha256 of each query's output at the seed code, "
                            "keyed by a digest of the query's input",
                   "recorded": dict(sorted(recorded.items())),
                   "hashes": dict(sorted(hashes.items()))}, fh, indent=0)
        fh.write("\n")


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def summarize(workload, seed, seconds, trace, size, passes, reference,
              recording=False):
    # while recording, a query without a reference hash is what gets added
    complete = (not recording
                and seed in reference["recorded"].get(f"{workload}/{size}", ()))
    attempted, failed, failures, hashes = judge(passes, reference["hashes"], complete)
    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    times = [q["s"] for p in timed for q in p["queries"]]
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = nearest_rank(times, pct)
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] for p in timed),
        "run_s": statistics.median(p["run_s"] for p in timed),
        "query_p50_s": statistics.median(times),
        "query_tail_s": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy"),
        "backend": passes[0].get("backend"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "measurement": MEASUREMENT_NOTE,
        "loop": "closed loop, one client, one worker process at a time",
        "passes": len(passes),
        "queries_per_pass": len(passes[0]["queries"]),
        "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
        "pass_probe_s": [p["probe_s"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in timed],
        "pass_setup_raw_s": [p["setup_raw_s"] for p in timed],
        "pass_run_s": [p["run_s"] for p in timed],
        "pass_run_raw_s": [p["run_raw_s"] for p in timed],
        "pass_run_cpu_s": [p["run_cpu_s"] for p in timed],
        "query_p50_raw_s": statistics.median(
            q["raw_s"] for p in timed for q in p["queries"]),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "query_tail": {"percentile": pct, "samples": len(times),
                       "beyond": beyond},
        "end_to_end": end_to_end,
        "hashes": {q["key"]: {"label": q["label"], "digest": hashes.get(q["key"])}
                   for q in passes[0]["queries"]},
        "reference_checked": sum(1 for q in passes[0]["queries"]
                                 if q["key"] in reference["hashes"]),
        "reference_complete": complete,
    }
    if "conditional_path" in passes[0]:
        record["conditional_path"] = passes[0]["conditional_path"]
    if traced:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        traced_run = statistics.median(p["run_s"] for p in traced)
        layers["trace.run_s"] = traced_run
        layers["trace.overhead_ratio"] = traced_run / end_to_end["run_s"]
        record["layers"] = layers
        record["installed"] = traced[0]["installed"]
        record["absent"] = traced[0]["absent"]
        record["trace_checks"] = [p["trace_check"] for p in traced]
        names = {n for p in traced for n in p["self_share"]}
        shares = {n: statistics.median(p["self_share"].get(n, 0.0) for p in traced)
                  for n in names}
        modules = {}
        for n, share in shares.items():
            module = n.split(".")[0]
            modules[module] = modules.get(module, 0.0) + share
        record["self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:12])
        record["module_self_share"] = dict(sorted(modules.items(),
                                                  key=lambda kv: -kv[1]))
    return record


def result_line(record) -> dict:
    if record["trace"]:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in record["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in record["end_to_end"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def run_benchmark(workload, seed, seconds, trace, size="full",
                  reference_path=REFERENCE, spans_out=None, recording=False):
    if not os.path.isfile(os.path.join(SRC, "cptk", "__init__.py")):
        raise BenchError(f"no cptk sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    passes = run_passes(workload, seed, seconds, trace, size, spans_out)
    return summarize(workload, seed, seconds, trace, size, passes,
                     load_reference(reference_path), recording)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference output hashes (default perfbench/reference.json)")
    p.add_argument("--record-reference", action="store_true",
                   help="add this run's output hashes to the reference file "
                        "when no query failed")
    args = p.parse_args(argv)
    pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, args.trace,
                               args.size, args.reference,
                               os.path.join(OUT, f"spans-{tag}.jsonl"),
                               args.record_reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if args.record_reference and record["failed"] == 0:
        record_reference(args.reference, record)
    tail = record["query_tail"]
    print(f"{args.workload}: {record['passes']} passes x {record['queries_per_pass']} "
          f"queries, {record['reference_checked']} reference hashes checked per "
          f"pass (complete: {record['reference_complete']}), {record['failed']} "
          f"failed; untraced p{tail['percentile']} tail over {tail['samples']} "
          f"queries ({tail['beyond']} beyond)")
    for f in record["failures"]:
        print(f"FAILED {f['query']}: {f['problem']}")
    print(json.dumps(result_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
