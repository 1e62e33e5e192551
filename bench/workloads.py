"""The three benchmark workloads: set-up, one cycle of timed ops, oracles.

A workload is a closed loop: one client issues one operation at a time.
An op is one timed step, almost always a single public call; its oracle
runs after the clock stops, and a mismatch or an exception marks the op
failed instead of ending the run.  A cycle is the full list of verdicts of
a workload; runs repeat whole cycles, so every run has the same op mix.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from causalflag.causal import (
    ChartedChart,
    causal_hull,
    chart_independence_check,
    random_positive_coord,
    random_signature_coord,
    sylvester_orbit_check,
    zero_band,
)
from causalflag.einstein import ein_maslov_sign, pairing, photon_convexity_check, random_ein_point
from causalflag.errors import DegenerateSignature, IllConditioned, NotPairwiseTransverse
from causalflag.groups import model_preset
from causalflag.maslov import maslov_index, maslov_invariance_report
from causalflag.reps import (
    anosov_gap_report,
    convex_core_sample,
    deform,
    domain_center,
    dual_center,
    enumerate_ball,
    levi_gap_report,
    preset,
    proper_domain_certificate,
    relator_residual,
    sample_limit_set,
    verify_maslov_zero,
)
from causalflag.shilov import ShilovPoint, chart_point

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# the word-ball dedup tolerance the library's own pipelines pass for reps
# with a relator (anosov_gap_report, sample_limit_set, levi_gap_report, ...)
LIBRARY_DEDUP_TOL = 1e-9


class Run:
    """Op log of one run: latencies, failures, work units and report counts."""

    def __init__(self):
        self.ops = []                 # (kind, seconds, ok)
        self.busy = Counter()         # kind -> seconds spent in ops of that kind
        self.units = Counter()        # kind -> work units done by ops of that kind
        self.ratio = defaultdict(lambda: [0, 0])  # name -> [numerator, denominator]
        self.counts = {}              # plain counts taken from reports
        self.failures = []
        self.cmd_s = defaultdict(list)  # cli subcommand -> process walls

    def op(self, kind, fn, *args, units=0, check=None, **kwargs):
        """Time fn(*args, **kwargs); units may be a number or f(result)."""
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing op is counted, not fatal
            self.record(kind, perf_counter() - t0, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t0
        problem = None
        if check is not None:
            try:
                ok = check(result)
            except Exception as exc:
                ok = False
                problem = f"{kind}: oracle raised {type(exc).__name__}: {exc}"
            if not ok and problem is None:
                problem = f"{kind}: oracle mismatch"
        self.record(kind, dt, problem)
        if problem is None:
            self.units[kind] += units(result) if callable(units) else units
        return result

    def record(self, kind, dt, problem):
        self.ops.append((kind, dt, problem is None))
        self.busy[kind] += dt
        if problem is not None:
            self.failures.append(problem)

    def add_ratio(self, name, num, den):
        self.ratio[name][0] += num
        self.ratio[name][1] += den

    def rate(self, kind):
        """Work units per busy second of one op kind."""
        return self.units[kind] / self.busy[kind] if self.busy[kind] > 0 else None


# ----------------------------------------------------------------- montecarlo

SYLVESTER = [("sp4", i) for i in range(3)] + [("su22", i) for i in range(3)] \
    + [("sostar8", i) for i in range(3)] + [("sp8", 2)]
SYLVESTER_TRIALS = 100
# the invariance, chart, photon and so42 cross checks each run as SPLIT ops;
# sizes are chosen so that op latencies form two clusters (invariance ops
# above, everything else below) and neither percentile sits on a lone op
SPLIT = 4
INVARIANCE = [("sp4", 1200), ("su22", 750), ("sostar8", 400), ("so42", 50)]
HULL_POINTS = 40
HULL_QUERIES = 30
CHART_POINTS = 6
CHART_PROBES = 50
PHOTON_POINTS = 8
PHOTONS = 50
EIN_TRIPLES = 25


def negative_sample(model, rng, n):
    """n points of the standard negative so(n,2) sample used by acceptance 7."""
    pts = []
    while len(pts) < n:
        x = rng.standard_normal(model.rank)
        x = x / np.linalg.norm(x)
        p = ShilovPoint(model, np.concatenate([x, [1.0, 0.0]]))
        if all(abs(pairing(p, q)) > 1e-3 for q in pts):
            pts.append(p)
    return pts


def setup_montecarlo(seed, workdir):
    models = {name: model_preset(name) for name in ("sp4", "su22", "sostar8", "sp8", "so42")}
    rng = np.random.default_rng([seed, 1])
    return {"models": models, "photon_sample": negative_sample(models["so42"], rng, PHOTON_POINTS)}


def _hull_queries(model, hull, rng):
    """Half the queries interpolate inside a hull diamond (must be members)."""
    out = []
    for q in range(HULL_QUERIES):
        if q % 2 == 0 and hull.pairs:
            X, Y = hull.pairs[rng.integers(len(hull.pairs))]
            out.append((X + rng.random() * (Y - X), True))
        else:
            out.append((random_signature_coord(model, int(rng.integers(0, 3)), rng), False))
    return out


def _ein_cross(model, rng):
    """so(4,2) sign classifier against the full Maslov index on random triples."""
    compared = mismatches = 0
    while compared < EIN_TRIPLES:
        a, b, c = (random_ein_point(model, rng) for _ in range(3))
        if min(abs(pairing(a, b)), abs(pairing(b, c)), abs(pairing(a, c))) <= 1e-6:
            continue
        try:
            idx = maslov_index(a, b, c).idx
        except (NotPairwiseTransverse, DegenerateSignature, IllConditioned):
            continue
        compared += 1
        mismatches += ein_maslov_sign(a, b, c) != idx
    return mismatches


def cycle_montecarlo(state, run, seed):
    models = state["models"]
    sp4 = models["sp4"]
    rng = np.random.default_rng(seed)

    for k, (name, i) in enumerate(SYLVESTER):
        run.op("sylvester", sylvester_orbit_check, models[name], i, SYLVESTER_TRIALS, seed + k,
               units=SYLVESTER_TRIALS,
               check=lambda r: r["failures"] == 0
               and sum(r["histogram"].values()) == SYLVESTER_TRIALS)

    for name, n in INVARIANCE:
        for j in range(SPLIT):
            rep = run.op("maslov_triples", maslov_invariance_report, models[name], n, seed + j,
                         units=n, check=lambda r: r["violations"] == 0)
            if rep is not None:
                run.add_ratio("maslov.skip_ratio", rep["skipped"], rep["trials"])

    pts = [random_signature_coord(sp4, int(rng.integers(0, 3)), rng) for _ in range(HULL_POINTS)]
    hull = run.op("hull_build", causal_hull, sp4, pts, check=lambda h: len(h.points) == HULL_POINTS)
    if hull is not None:
        for Z, member in _hull_queries(sp4, hull, rng):
            band = zero_band(sp4, Z)
            run.op("hull_probe", hull.margin, Z, units=1,
                   check=lambda m: math.isfinite(m) and (not member or m >= -band))

    chart_pts = []
    for _ in range(CHART_POINTS):
        X = random_positive_coord(sp4, rng)
        chart_pts.append(chart_point(sp4, (0.8 / X.opnorm()) * X))
    chart_a = ChartedChart.standard(sp4)
    chart_b = ChartedChart.at_point(dual_center(sp4), domain_center(sp4))
    for j in range(SPLIT):
        rep = run.op("chart_probe", chart_independence_check, chart_pts, chart_a, chart_b,
                     CHART_PROBES, seed + j, units=CHART_PROBES,
                     check=lambda r: r["disagreements"] == 0)
        if rep is not None:
            run.add_ratio("causal.chart_within_tol_ratio", rep["within_tol"], rep["probes"])

    for j in range(SPLIT):
        run.op("photon", photon_convexity_check, state["photon_sample"], PHOTONS, seed + j,
               units=PHOTONS, check=lambda r: r["violations"] == 0)
    for _ in range(SPLIT):
        run.op("ein_cross", _ein_cross, models["so42"], rng, check=lambda bad: bad == 0)


# ------------------------------------------------------------------- subgroup

# (preset, max word length, convex-core word length, triples per
# verify_maslov_zero op); the sostar8 quaternion path runs shorter words and
# smaller verify ops because each of its words and triples costs more
PRESETS = [("tau0-sp4-f2", 10, 3, 100), ("tau0-sp4-genus2", 5, 2, 100),
           ("tau0-sostar8-f2", 7, 3, 50)]
VERIFY_OPS = 9  # per preset and cycle
CERT_PROBES = 10
DEFORM_EPS = 1e-3


def setup_subgroup(seed, workdir):
    return {"reps": [(preset(pid), *sizes) for pid, *sizes in PRESETS]}


def free_sphere_ok(ball, n_gens):
    sizes = np.bincount(ball.lengths, minlength=ball.max_len + 1)[1:]
    expected = [2 * n_gens * (2 * n_gens - 1) ** (L - 1) for L in range(1, ball.max_len + 1)]
    return sizes.tolist() == expected


def _chosen_words(ball, per_length_cap=100):
    """Words sample_limit_set draws from a ball: min(cap, sphere) for lengths 3.."""
    sizes = np.bincount(ball.lengths, minlength=ball.max_len + 1)
    return int(sum(min(per_length_cap, int(s)) for s in sizes[3:]))


def cycle_subgroup(state, run, seed):
    for rep, L, core_len, batch in state["reps"]:
        n_gens = len(rep.gen_names)
        tol = LIBRARY_DEDUP_TOL if rep.relator else None
        ball = run.op("ball", enumerate_ball, rep, L, dedup_tol=tol,
                      units=lambda b: len(b.words),
                      check=lambda b: rep.relator is not None or free_sphere_ok(b, n_gens))
        if ball is not None and rep.relator is not None:
            sizes = np.bincount(ball.lengths, minlength=L + 1)[1:]
            run.counts[f"{rep.preset_id}.sphere_sizes"] = [int(s) for s in sizes]
            run.counts[f"{rep.preset_id}.dedup_removed"] = int(ball.dedup["removed"])
        run.op("gap", anosov_gap_report, rep, L, check=lambda r: r["passed"])
        run.op("levi", levi_gap_report, rep, L, check=lambda r: r["passed"])
        sample = run.op("limit", sample_limit_set, rep, L, seed=seed, units=len,
                        check=lambda s: len(s) >= 3 and max(s.residuals) <= 1e-8)
        if sample is None:
            continue
        if ball is not None:
            run.add_ratio("reps.limit_kept_ratio", len(sample), _chosen_words(ball))
        for j in range(VERIFY_OPS):
            zero = run.op("maslov_triples", verify_maslov_zero, sample, batch, seed=seed + j,
                          units=batch, check=lambda r: r["violations"] == 0)
            if zero is not None:
                run.add_ratio("maslov.skip_ratio", zero["skipped"], zero["triples"])
        run.op("certificate", proper_domain_certificate, rep, sample, probe_count=CERT_PROBES,
               seed=seed, check=lambda c: c["passed"] and c["min_margin"] > 1e-6)
        run.op("core", convex_core_sample, rep, sample, [domain_center(rep.model)], core_len,
               check=lambda c: c["ideal_residual"] is not None and math.isfinite(c["ideal_residual"]))
        bent = run.op("deform", deform, rep, DEFORM_EPS, seed=seed,
                      check=lambda r: r.deformation["eps"] == DEFORM_EPS)
        if rep.relator is not None:
            run.op("relator", relator_residual, rep, check=lambda res: res <= 1e-8)
            if bent is not None:
                run.op("relator", relator_residual, bent,
                       check=lambda res: res == bent.deformation["relator_residual"])


# ------------------------------------------------------------------------ cli

def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def setup_cli(seed, workdir):
    """Inputs for the 15 subcommands at the sizes of acceptance criterion 9."""
    rng = np.random.default_rng([seed, 3])
    s = str(int(rng.integers(0, 100_000)))
    sp4 = model_preset("sp4")
    vs = (rng.uniform(-3.0, -1.0), rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))
    triple = _write_json(os.path.join(workdir, "triple.json"),
                         {"points": [chart_point(sp4, v * np.eye(2)).to_json() for v in vs]})
    top = rng.uniform(1.0, 3.0)
    hull = _write_json(os.path.join(workdir, "hull.json"),
                       [[[0.0, 0.0], [0.0, 0.0]], [[top, 0.0], [0.0, top]]])
    limits = [p.frame.tolist() for p in negative_sample(model_preset("so42"), rng, 8)]
    limit = _write_json(os.path.join(workdir, "limit.json"), limits)
    query = _write_json(os.path.join(workdir, "query.json"), [[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
    y = rng.uniform(0.1, 0.9)
    commands = [
        ["sylvester-check", "--model", "sp4", "--i", "1", "--trials", "300", "--seed", s],
        ["maslov", "--model", "sp4", "--triple", triple],
        ["maslov-invariance", "--model", "sostar8", "--trials", "300", "--seed", s],
        ["rep-build", "--rep", "f2-fuchsian-sl2"],
        ["rep-gap", "--rep", "tau0-sp4-f2", "--max-word-len", "4"],
        ["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "5", "--seed", s],
        ["rep-verify-maslov0", "--rep", "tau0-sp4-f2", "--max-word-len", "5",
         "--triples", "200", "--seed", s],
        ["rep-certificate", "--rep", "tau0-sp4-f2", "--max-word-len", "5",
         "--probes", "10", "--seed", s],
        ["rep-core", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--seed", s],
        ["rep-deform", "--rep", "tau0-sp4-genus2", "--eps", "1e-3", "--seed", s],
        ["hull", "--model", "sp4", "--points", hull],
        ["chart-independence", "--model", "sp4", "--probes", "200", "--seed", s],
        ["ein-invisible", "--model", "so42", "--limit", limit, "--query", query],
        ["ein-photon-convexity", "--model", "so42", "--limit", limit, "--photons", "50",
         "--seed", s],
        ["hilbert", "--x", "0", "--y", repr(y)],
    ]
    return {"commands": commands, "hilbert": math.log((1.0 + y) / (1.0 - y)),
            "stdout": {}, "traces": []}


# report field -> work-unit kind credited to the subcommand's process wall
CLI_UNITS = {
    "sylvester-check": (("trials", "sylvester"),),
    "maslov-invariance": (("trials", "maslov_triples"),),
    "rep-verify-maslov0": (("triples", "maslov_triples"),),
    "chart-independence": (("probes", "chart_probe"),),
    "ein-photon-convexity": (("photons", "photon"),),
    "rep-gap": (("n_words", "ball"),),
    "rep-limitset": (("n_points", "limit"),),
}


def _cli_check(state, name, proc):
    """Exit code 0, a passing report and the subcommand's own invariant."""
    if proc.returncode != 0:
        return False
    out = json.loads(proc.stdout)
    r = out["report"]
    if not out["passed"] or out["command"] != name:
        return False
    if name == "hilbert":
        return abs(r["distance"] - state["hilbert"]) <= 1e-9
    if name == "sylvester-check":
        return r["failures"] == 0
    if name in ("maslov-invariance", "rep-verify-maslov0", "ein-photon-convexity"):
        return r["violations"] == 0
    if name == "chart-independence":
        return r["disagreements"] == 0
    return True


def cycle_cli(state, run, seed, traced=False):
    """Every subcommand once, each a fresh process, strictly one at a time."""
    for k, args in enumerate(state["commands"]):
        name = args[0]
        env = None
        if traced:
            entry = [sys.executable, os.path.join(BENCH_DIR, "tracedcli.py")]
            path = os.path.join(state["trace_dir"], f"{k:02d}-{name}.npz")
            env = dict(os.environ, BENCH_TRACE_FILE=path)
            state["traces"].append(path)
        else:
            entry = [sys.executable, "-m", "causalflag.cli"]
        t0 = perf_counter()
        try:
            proc = subprocess.run(entry + args, capture_output=True, env=env, timeout=120)
        except subprocess.TimeoutExpired:
            run.record("cli", perf_counter() - t0, f"{name}: no exit within 120 s")
            continue
        dt = perf_counter() - t0
        problem = None
        try:
            ok = _cli_check(state, name, proc)
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            problem = f"{name}: bad report ({type(exc).__name__}: {exc})"
        if ok and state["stdout"].setdefault(name, proc.stdout) != proc.stdout:
            problem = f"{name}: stdout differs from an earlier run of the same command"
        elif not ok and problem is None:
            problem = f"{name}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        run.record("cli", dt, problem)
        if traced:
            continue
        run.cmd_s[name].append(dt)
        if problem is None:
            report = json.loads(proc.stdout)["report"]
            for field, kind in CLI_UNITS.get(name, ()):
                run.units[kind] += report[field]
                run.busy[kind] += dt
            if name == "maslov-invariance":
                run.add_ratio("maslov.skip_ratio", report["skipped"], report["trials"])
            elif name == "rep-verify-maslov0":
                run.add_ratio("maslov.skip_ratio", report["skipped"], report["triples"])
            elif name == "chart-independence":
                run.add_ratio("causal.chart_within_tol_ratio", report["within_tol"], report["probes"])
            elif name == "rep-limitset":
                # words drawn from the free tau0-sp4-f2 spheres 3..5, capped at 100 each
                drawn = sum(min(100, 4 * 3 ** (L - 1)) for L in range(3, 6))
                run.add_ratio("reps.limit_kept_ratio", report["n_points"], drawn)


WORKLOADS = {
    "montecarlo": (setup_montecarlo, cycle_montecarlo),
    "subgroup": (setup_subgroup, cycle_subgroup),
    "cli": (setup_cli, cycle_cli),
}
