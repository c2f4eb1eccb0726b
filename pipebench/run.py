#!/usr/bin/env python3
"""Pipeline benchmark: time to a solution on the paper's problems.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `pipeline` program (pipeline.cpp, linked against the repository's
hodlrx library) under .bench_build/ -- or $CARGO_TARGET_DIR when set -- and
runs it on one workload:

  laplace_bie    Table IV(a): completed double-layer Laplace BIE, N = 65536
  rpy_1d         Table III: 1-D RPY kernel on 50000 random points (k-d tree)
  helmholtz_bie  Table V(a): combined-field Helmholtz BIE, kappa = eta = 100,
                 complex double, N = 4096 (not in BENCHMARK.json: too
                 unsteady on a shared host, see README.md)

One pass is build -> pack -> factor -> 1-RHS solve with library defaults
(tol 1e-12), run in a closed loop by one caller after excluded warm-up
passes. Every pass is checked against the true operator (see pipeline.cpp).

--trace 0 runs the loop in three processes: a quarter of --seconds in a
process whose pool has every CPU of the affinity mask
(HODLRX_NUM_THREADS=nproc), half in a 1-thread process, and another quarter
in a second nproc process. Set-up is timed in 5 fresh processes. It prints
the end-to-end metrics of BENCHMARK.json: time_to_solution_s and build_s
from the nproc passes; time_to_solution_1t_s, factor_s, solve_s and
solve_block_s from the 1-thread process.

--trace 1 runs the nproc process's untraced passes as above, then one
traced pass, a per-level replay of the build, a recompress=false variant and
the in-run GEMM/triad rooflines. It writes a Chrome trace-event file under
the build directory and prints the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("laplace_bie", "rpy_1d", "helmholtz_bie")
BUILD_TIMEOUT_S = 840
# All pipeline processes of one measurement share this budget (seconds after
# the build); a process still running at the end is killed and the run fails.
RUN_BUDGET_S = 170
# Warm-up at nproc threads runs passes for at least this long before timing
# starts: the first few multi-threaded passes of a process are slower while
# the allocator and caches settle. A 1-thread process warms up in one pass.
WARMUP_S = 3.0
# Share of --seconds given to the nproc passes, split over two processes
# that run before and after the 1-thread process, so that a slow spell of
# the shared host hits at most part of the samples; the 1-thread process
# gets the rest.
NPROC_SHARE = 0.5
# Set-up is timed in this many fresh processes and reported as the median.
SETUP_PROCESSES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "pipebench")


def build():
    """Configure once, then (re)build `pipeline`; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", bdir, "--target", "pipeline", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1, deadline - time.monotonic()))
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "pipeline")


def run_pipeline(exe, args, threads, extra=()):
    env = dict(os.environ, HODLRX_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), *extra]
    p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                       timeout=max(1, args.deadline - time.monotonic()))
    if p.returncode != 0 or not p.stdout.strip():
        log(p.stderr[-4000:])
        raise SystemExit(f"pipeline failed ({p.returncode}): {' '.join(cmd)}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def timed_passes(proc):
    return [p for p in proc["passes"] if not p["warm"] and p["ok"]]


def tail(values):
    """(median, label of the highest percentile with >= 10 samples beyond it,
    its value or None, sample count)."""
    v = sorted(values)
    n = len(v)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            idx = min(n - 1, int(round(p / 100 * (n - 1))))
            return statistics.median(v), f"p{p:g}", v[idx], n
    return statistics.median(v), None, None, n


def failures(proc):
    bad = sum(1 for p in proc["passes"] if not p["ok"])
    # A pass whose exact counters or solution bytes differ from the first
    # timed pass fails too: the pipeline must repeat bit for bit.
    return bad + proc["repeat_mismatch"]


def cross_process_mismatches(procs):
    """Timed passes whose solution bytes differ from those of the first
    process with the same thread count."""
    first, bad = {}, 0
    for proc in procs:
        for p in timed_passes(proc):
            bad += p["hash"] != first.setdefault(proc["threads"], p["hash"])
    return bad


def print_record(args, procs):
    record = procs[0]["run_record"]
    try:  # not a git checkout -> "unknown"; never look above ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    record = dict(record, seed=args.seed, workload=args.workload,
                  git_commit=commit or "unknown",
                  pool_threads=[p["threads"] for p in procs])
    print("run record: " + json.dumps(record, sort_keys=True))
    for p in procs:
        for q in p["passes"]:
            if not q["ok"]:
                print(f"FAILED pass ({p['threads']} threads): {q['why']}")


def loop_args(seconds, warmup):
    return ["--seconds", repr(seconds), "--warmup", repr(warmup)]


def end_to_end(args, exe, spec):
    nproc = max(1, len(os.sched_getaffinity(0)))
    setups = [run_pipeline(exe, args, nproc, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    half = loop_args(args.seconds * NPROC_SHARE / 2, WARMUP_S)
    full = run_pipeline(exe, args, nproc, half)
    one = run_pipeline(exe, args, 1,
                     loop_args(args.seconds * (1 - NPROC_SHARE), 0))
    full_b = run_pipeline(exe, args, nproc, half)
    procs = [full, one, full_b]
    tp = timed_passes(full) + timed_passes(full_b)
    serial = timed_passes(one)
    # The short stages come from the 1-thread process: at nproc threads on a
    # shared host their per-run medians moved by up to 2x between runs.
    samples = {
        "time_to_solution_s": [p["pass_s"] for p in tp],
        "time_to_solution_1t_s": [p["pass_s"] for p in serial],
        "build_s": [p["build_s"] for p in tp],
        "factor_s": [s for p in serial for s in p["factor_s"]],
        "solve_s": [s for p in serial for s in p["solve_s"]],
        "solve_block_s": [s for p in serial for s in p["solve_block_s"]],
    }
    values = {
        "setup_s": statistics.median(setups),
        "mem_gb": full["mem_gb"],
        "peak_rss_gb": full["peak_rss_gb"],
    }
    print_record(args, procs)
    print(f"{args.workload}: two {nproc}-thread processes around a 1-thread "
          f"one; closed loop, one caller, warm-up passes excluded")
    for name, vals in samples.items():
        if not vals:
            raise SystemExit(f"no successful timed pass for {name}")
        med, plabel, pval, n = tail(vals)
        values[name] = med
        tail_txt = f"{plabel} {pval:.6g}" if plabel else "no tail percentile"
        print(f"  {name:24s} median {med:.6g} {units(spec)[name]}  "
              f"({tail_txt}; n={n})")
    for name in ("setup_s", "mem_gb", "peak_rss_gb"):
        print(f"  {name:24s} {values[name]:.6g} {units(spec)[name]}")
    return procs, values


def per_layer(args, exe, spec):
    nproc = max(1, len(os.sched_getaffinity(0)))
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    proc = run_pipeline(exe, args, nproc,
                      loop_args(args.seconds * NPROC_SHARE / 2, WARMUP_S) +
                      ["--traced", "--trace-file", trace_file])
    print_record(args, [proc])
    print(f"{args.workload}: per-layer metrics ({nproc} threads); "
          f"trace written to {os.path.relpath(trace_file, ROOT)}")
    for name in sorted(proc["metrics"]):
        print(f"  {name:32s} {proc['metrics'][name]:.6g} "
              f"{units(spec).get(name, '')}")
    return [proc], proc["metrics"]


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(args, exe, spec):
    """One workload in one mode: (metrics as {name: {value, unit}},
    passes attempted, passes failed)."""
    if args.trace:
        procs, values = per_layer(args, exe, spec)
        wanted = spec["per_layer"]
    else:
        procs, values = end_to_end(args, exe, spec)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(len(p["passes"]) for p in procs)
    failed = sum(failures(p) for p in procs) + cross_process_mismatches(procs)
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload of BENCHMARK.json in "
                         "both modes and prefixes each metric with its "
                         "workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    exe = build()
    if args.workload == "all":
        metrics, attempted, failed = {}, 0, 0
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                one = argparse.Namespace(**dict(
                    vars(args), workload=workload, trace=trace,
                    deadline=time.monotonic() + RUN_BUDGET_S))
                m, a, f = measure(one, exe, spec)
                metrics.update({f"{workload}.{k}": v for k, v in m.items()})
                attempted, failed = attempted + a, failed + f
    else:
        args.deadline = time.monotonic() + RUN_BUDGET_S
        metrics, attempted, failed = measure(args, exe, spec)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
