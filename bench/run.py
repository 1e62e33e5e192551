"""Layered causalflag benchmark.

    python3 bench/run.py --workload montecarlo|subgroup|cli --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 1]

Run from the repository root.  Each measurement runs in a worker process
(bench/worker.py) with PYTHONPATH at src/ and BLAS/OpenMP pinned to one
thread.  With --trace 0 the last line of stdout is a JSON object holding
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced run.  Lines before it start with
``bench-meta`` (versions, source size), ``bench-extra`` (metrics not
gated by BENCHMARK.json) or ``bench-failure``.  ``--workload all`` prints
every metric of every workload as a table instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("montecarlo", "subgroup", "cli")
SETUP_PROBES = 4          # extra set-up-only workers; setup_s is the median with the main one
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({name: "1" for name in BLAS_PINS})
    return env


def call_worker(workload, seed, seconds, trace, *extra, timeout):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", WORK, *extra]
    # new process group, so a timeout also stops the subcommands a worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ran longer than {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_info():
    """git SHA when available, plus a hash and line count of src/."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        out = top.stdout.split()
        if top.returncode == 0 and len(out) == 2 and os.path.samefile(out[0], ROOT):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]],
            spec["run_seconds"])


def measure(workload, seed, seconds, trace):
    """One run: (result line, extra metrics, metadata, failure messages)."""
    e2e, per_layer, _ = load_spec()
    setups = [call_worker(workload, seed, seconds, trace, "--setup-only",
                          timeout=SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(0 if trace else SETUP_PROBES)]
    res = call_worker(workload, seed, seconds, trace, timeout=RUN_TIMEOUT_S)
    metrics = res["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    wanted = per_layer if trace else e2e
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"{workload} reported no value for {missing}")
    correct = res["failed"] == 0
    if trace and metrics["trace.self_sum_ratio"]["value"] > 1.0:
        correct = False
        res["failures"].append("layer self times add up to more than the traced wall time")
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {name: metrics[name] for name in wanted}}
    extra = {name: m for name, m in metrics.items() if name not in wanted}
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            **source_info(), **res["environment"], "counts": res["counts"]}
    return result, extra, meta, res["failures"]


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(seed, seconds, trace):
    ok = True
    for workload in WORKLOADS:
        for t in ((0, 1) if trace else (0,)):
            result, extra, meta, failures = measure(workload, seed, seconds, t)
            ok = ok and result["correct"]
            if t == 0:
                print("bench-meta " + json.dumps(meta, sort_keys=True))
            for line in failures:
                print(f"bench-failure {workload}: {line}")
            rows = {**result["metrics"], **extra}
            tag = "e2e" if t == 0 else "layer"
            print(f"{workload} ({tag}): attempted {result['attempted']}, failed {result['failed']}")
            for name in sorted(rows):
                print(f"  {workload:<10} {name:<34} {_fmt(rows[name]['value']):>14} "
                      f"{rows[name]['unit']}")
    return 0 if ok else 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="causalflag layered benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "causalflag", "__init__.py")):
        sys.stderr.write(f"error: no causalflag sources under {SRC}\n")
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()[2]
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args.seed, seconds, args.trace)
        result, extra, meta, failures = measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("bench-meta " + json.dumps(meta, sort_keys=True))
    for line in failures:
        print("bench-failure " + line)
    print("bench-extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
