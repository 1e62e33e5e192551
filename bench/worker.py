"""Benchmark worker: set-up, timed cycles and metrics of one workload.

run.py starts it with PYTHONPATH at src/ and BLAS/OpenMP pinned to one
thread.  Set-up time runs from the first line of this file, before numpy or
causalflag is imported, to the end of the workload's set-up.  The worker
prints one JSON object (metrics with units, counts, failures, metadata) as
its last line.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402

MIN_CYCLES = 2
PROBE_REPEATS = 3
# fresh-interpreter import probes: (metric, statement run before the clock, timed statement)
IMPORT_PROBES = (
    ("cli.numpy_import_ms", "", "import numpy"),
    ("cli.scipy_import_ms", "import numpy", "import scipy.linalg"),
    ("cli.import_ms", "", "import causalflag.cli"),
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def import_probe():
    """Cold interpreter start and import costs, each in a fresh process."""
    out = {}
    walls = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append(perf_counter() - t0)
    out["cli.interp_ms"] = _metric(1e3 * median(walls), "ms")
    for name, before, stmt in IMPORT_PROBES:
        code = (f"import time\n{before}\nt = time.perf_counter()\n{stmt}\n"
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                      capture_output=True, text=True).stdout)
                 for _ in range(PROBE_REPEATS)]
        out[name] = _metric(1e3 * median(times), "ms")
    return out


def blas_threads():
    """Thread count in effect in every OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy as np
    import scipy

    import causalflag

    exported = getattr(causalflag, "__all__", None)
    if exported is None:
        exported = [n for n, v in vars(causalflag).items()
                    if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "exported_names": len(exported),
    }


def _ratio(run, name):
    num, den = run.ratio.get(name, (0, 0))
    return num / den if den else 0.0


def e2e_metrics(run, walls, in_process):
    import numpy as np

    durations = np.array([dt for _, dt, _ in run.ops])
    p50, p90 = np.percentile(durations, [50, 90])
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    m = {
        "wall_s": _metric(median(walls), "s"),
        "op_p50_ms": _metric(1e3 * float(p50), "ms"),
        "op_p90_ms": _metric(1e3 * float(p90), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": _metric(len(run.failures) / len(run.ops), "ratio"),
        "op_count": _metric(len(run.ops), "count"),
        "cycles": _metric(len(walls), "count"),
    }
    rates = (("maslov_triples_per_s", "maslov_triples"), ("sylvester_trials_per_s", "sylvester"),
             ("hull_probes_per_s", "hull_probe"), ("chart_probes_per_s", "chart_probe"),
             ("photons_per_s", "photon"), ("words_per_s", "ball"), ("limit_points_per_s", "limit"))
    for name, kind in rates:
        rate = run.rate(kind)
        if rate is not None:
            m[name] = _metric(rate, "1/s")
    return m


def layer_metrics(run, summary, wall_untraced, wall_traced):
    m = {}
    for layer, calls in summary["calls"].items():
        m[f"{layer}.calls"] = _metric(calls, "count")
        m[f"{layer}.self_s"] = _metric(summary["self_s"][layer], "s")
    per_name = summary["per_name"]
    for metric, span in (("groups.exp_calls", "groups.group_exp"),
                         ("shilov.margin_calls", "shilov.transversality_margin"),
                         ("shilov.points_built", "shilov.ShilovPoint.__init__"),
                         ("causal.future_calls", "causal.future_membership"),
                         ("maslov.index_calls", "maslov.maslov_index")):
        m[metric] = _metric(per_name.get(span, 0), "count")
    for counter in ("reps.ball_words", "reps.dedup_removed"):
        m[counter] = _metric(summary["counters"].get(counter, 0), "count")
    for ratio in ("maslov.skip_ratio", "reps.limit_kept_ratio", "causal.chart_within_tol_ratio"):
        m[ratio] = _metric(_ratio(run, ratio), "ratio")
    spheres = run.counts.get("tau0-sp4-genus2.sphere_sizes")
    m["reps.genus2_sphere5"] = _metric(spheres[4] if spheres else 0, "count")
    for name, walls in sorted(run.cmd_s.items()):
        m[f"cli.cmd_ms.{name}"] = _metric(1e3 * median(walls), "ms")
    m["trace.overhead_ratio"] = _metric(wall_traced / wall_untraced, "ratio")
    m["trace.self_sum_ratio"] = _metric(sum(summary["self_s"].values()) / wall_traced, "ratio")
    m["trace.spans"] = _metric(summary["spans"], "count")
    return m


def _timed_cycle(cycle, *args, **kwargs):
    t0 = perf_counter()
    cycle(*args, **kwargs)
    return perf_counter() - t0


def measure(args, workloads, setup_s, state):
    import numpy as np

    from tracer import Tracer, load_summary, merge_summaries

    _, cycle = workloads.WORKLOADS[args.workload]
    in_process = args.workload != "cli"
    run = workloads.Run()

    def seed(k):
        return int(np.random.SeedSequence([args.seed, k]).generate_state(1)[0] % 2**31)

    if not args.trace:
        walls = []
        t_run = perf_counter()
        # whole cycles only, and none that would end past the time budget
        while len(walls) < MIN_CYCLES or perf_counter() - t_run + walls[-1] <= args.seconds:
            walls.append(_timed_cycle(cycle, state, run, seed(len(walls))))
        metrics = e2e_metrics(run, walls, in_process)
        metrics["setup_s"] = _metric(setup_s, "s")
        return run, metrics

    # traced run: the same cycle untraced, then traced, for the overhead ratio
    wall_untraced = _timed_cycle(cycle, state, run, seed(0))
    if in_process:
        tracer = Tracer().install(also=[workloads])
        try:
            wall_traced = _timed_cycle(cycle, state, run, seed(0))
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(args.workdir, f"trace-{args.workload}.npz"))
        summary = tracer.summary()
    else:
        state["trace_dir"] = os.path.join(args.workdir, "trace-cli")
        os.makedirs(state["trace_dir"], exist_ok=True)
        wall_traced = _timed_cycle(cycle, state, run, seed(0), traced=True)
        summary = merge_summaries(load_summary(p) for p in state["traces"])
    metrics = layer_metrics(run, summary, wall_untraced, wall_traced)
    metrics.update(import_probe())
    metrics["trace.wall_untraced_s"] = _metric(wall_untraced, "s")
    metrics["trace.wall_traced_s"] = _metric(wall_traced, "s")
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import workloads

    setup, _ = workloads.WORKLOADS[args.workload]
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        state = setup(args.seed, inputs)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run, metrics = measure(args, workloads, setup_s, state)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps({
        "attempted": len(run.ops),
        "failed": sum(not ok for _, _, ok in run.ops),
        "failures": run.failures[:20],
        "metrics": metrics,
        "counts": run.counts,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
