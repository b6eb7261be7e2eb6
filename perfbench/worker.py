"""One pass of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout.  The pass builds the
workload's inputs (set-up), then sends its queries one after another,
each only after the previous verdict returned (a closed loop with one
client), timing each query and hashing its output.  Each query runs
between two probes of ``hostspeed.py``, which scale its time to a
reference host speed.  With ``--trace 1`` the wrappers from
``layers.py`` are installed before set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, size: str, traced: bool, workdir: str,
             spans_out: str | None = None) -> dict:
    import cptk
    import hostspeed
    import workloads

    tracer = None
    if traced:
        from layers import TARGETS, layer_metrics
        from spans import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    build = workloads.BUILDERS[workload]
    if tracer is None:
        queries = build(seed, size, workdir)
    else:
        queries = tracer.run("bench.setup", lambda: build(seed, size, workdir))
    ready = _monotonic()

    old_cwd = os.getcwd()
    os.chdir(workdir)   # CLI reports echo relative file names only
    results = []
    clock = time.perf_counter
    # each query is timed between two host-speed probes, outside its time
    probes = [hostspeed.probe()]
    try:
        cpu_s = 0.0
        for q in queries:
            start_cpu = time.process_time()
            start = clock()
            try:
                out = q.run() if tracer is None else tracer.run("bench.query", q.run)
                elapsed = clock() - start
                cpu_s += time.process_time() - start_cpu
                error = q.check(out)
                digest = out.digest()
            except Exception as exc:  # a failing query is counted, not fatal
                elapsed = clock() - start
                cpu_s += time.process_time() - start_cpu
                error = f"{type(exc).__name__}: {exc}"
                digest = None
            probes.append(hostspeed.probe())
            results.append({"label": q.label, "key": q.key, "raw_s": elapsed,
                            "s": hostspeed.scale(elapsed, probes[-2], probes[-1]),
                            "digest": digest, "error": error})
    finally:
        os.chdir(old_cwd)

    record = {
        "ready_monotonic": ready,
        "first_probe_s": probes[0],
        "probe_s": statistics.median(probes),
        "run_s": sum(r["s"] for r in results),
        "run_raw_s": sum(r["raw_s"] for r in results),
        "run_cpu_s": cpu_s,
        "queries": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
        "backend": getattr(getattr(cptk, "kernels", None), "backend_name",
                           lambda: None)(),
    }
    if workload == "solve-session":
        record["conditional_path"] = workloads.conditional_path()
    if tracer is not None:
        tracer.uninstall()
        roots = sum(tracer.outer_ns[tracer.name_index(n)]
                    for n in ("bench.setup", "bench.query"))
        record["layers"] = layer_metrics(tracer)
        # where the traced time goes: each span name's self time as a
        # share of the traced set-up and query time
        record["self_share"] = {tracer.names[i]: ns / roots
                                for i, ns in enumerate(tracer.self_ns) if ns > 0}
        record["trace_check"] = {
            "root_ns": roots,
            "self_ns_total": sum(tracer.self_ns),
            "min_self_ns": min(tracer.self_ns),
            "query_ns": tracer.outer_ns[tracer.name_index("bench.query")],
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
        }
        record["installed"] = tracer.installed
        record["absent"] = tracer.absent
        if spans_out:
            with open(spans_out, "w") as fh:
                tracer.dump(fh)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        record = run_pass(args.workload, args.seed, args.size, bool(args.trace),
                          workdir, args.spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
