"""Acceptance suite: one criterion per test, one pass/fail line each.

Every test prints `ACCEPTANCE <n> (<name>): PASS|FAIL <details>` before
asserting, so a full run leaves a readable scoreboard in the output
(run with pytest -s or read the captured stdout of failures).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from causalflag.causal import (
    ChartedChart,
    causal_hull,
    chart_independence_check,
    random_positive_coord,
    random_signature_coord,
    sylvester_orbit_check,
)
from causalflag.einstein import (
    ein_maslov_sign,
    hilbert_distance,
    pairing,
    photon_convexity_check,
    random_ein_point,
)
from causalflag.errors import DegenerateSignature, IllConditioned, NotPairwiseTransverse
from causalflag.groups import model_preset, tau_p
from causalflag.linalg import hermitian_eigenvalues
from causalflag.maslov import maslov_index, maslov_invariance_report
from causalflag.reps import (
    anosov_gap_report,
    deform,
    domain_center,
    dual_center,
    preset,
    proper_domain_certificate,
    sample_limit_set,
    verify_maslov_zero,
)
from causalflag.shilov import ShilovPoint, act, chart_coordinates, chart_point, transversality_margin

FAMILIES = ["sp4", "su22", "sostar8"]


def verdict(n, name, ok, details):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} {details}"
    print(line)
    assert ok, line


def test_criterion_1_sylvester_orbit_law():
    t0 = time.time()
    failures = 0
    for name in FAMILIES:
        model = model_preset(name)
        for i in range(model.r + 1):
            report = sylvester_orbit_check(model, i, 10_000, seed=1)
            failures += report["failures"]
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 30.0
    verdict(1, "sylvester orbit law", ok,
            f"failures={failures} over 9x10^4 trials, {elapsed:.1f}s (budget 30s)")


def test_criterion_2_maslov_invariance():
    t0 = time.time()
    violations = 0
    worst = np.inf
    for name in FAMILIES:
        report = maslov_invariance_report(model_preset(name), 10_000, seed=2)
        violations += report["violations"]
        worst = min(worst, report["min_margin"])
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    verdict(2, "maslov invariance and swap", ok,
            f"violations={violations} over 3x10^4 triples, min margin {worst:.2e}, "
            f"{elapsed:.1f}s (budget 60s)")


def test_criterion_3_restriction_theorem():
    t0 = time.time()
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 10, seed=0)
    pts = sample.points
    worst = min(
        transversality_margin(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    zero = verify_maslov_zero(sample, 1000, seed=0)
    elapsed = time.time() - t0
    ok = (len(sample) >= 100 and worst > 1e-6
          and zero["violations"] == 0 and elapsed < 300.0)
    verdict(3, "restriction theorem at sample scale", ok,
            f"{len(sample)} limit points, pairwise margin {worst:.2e}, "
            f"idx!=0 violations={zero['violations']}/10^3, {elapsed:.1f}s (budget 300s)")


def test_criterion_4_diamond_preservation():
    model = model_preset("sp4")
    rng = np.random.default_rng(4)
    worst = np.inf
    violations = 0
    for _ in range(10_000):
        th = rng.standard_normal(2)
        boost = np.array([[np.cosh(th[0]), np.sinh(th[0])],
                          [np.sinh(th[0]), np.cosh(th[0])]])
        c, s = np.cos(th[1]), np.sin(th[1])
        g = tau_p(boost @ np.array([[c, -s], [s, c]]), model)
        Z = random_positive_coord(model, rng)
        X = chart_coordinates(act(g, chart_point(model, Z)))
        lo = float(hermitian_eigenvalues(X.embed(), X.tag)[-1])
        worst = min(worst, lo)
        if lo <= 1e-10:
            violations += 1
    ok = violations == 0
    verdict(4, "diamond preservation under tau_p", ok,
            f"violations={violations}/10^4, worst min eigenvalue {worst:.2e} (floor 1e-10)")


def test_criterion_5_hull_and_chart_independence():
    model = model_preset("sp4")
    rng = np.random.default_rng(5)

    # idempotence: adding hull members must not change membership
    pts = [random_signature_coord(model, rng.integers(0, 3), rng) for _ in range(6)]
    h1 = causal_hull(model, pts)
    inside = [X + 0.5 * (Y - X) for X, Y in h1.pairs[:4]]
    h2 = causal_hull(model, pts + inside)
    idem_bad = 0
    for _ in range(5000):
        Z = random_signature_coord(model, rng.integers(0, 3), rng)
        m1, m2 = h1.margin(Z), h2.margin(Z)
        if abs(m1) <= 1e-7 or abs(m2) <= 1e-7:
            continue
        if (m1 > 0) != (m2 > 0):
            idem_bad += 1

    # two-chart membership agreement
    chart_pts = []
    for _ in range(6):
        X = random_positive_coord(model, rng)
        chart_pts.append(chart_point(model, (0.8 / X.opnorm()) * X))
    chart_a = ChartedChart.standard(model)
    chart_b = ChartedChart.at_point(dual_center(model), domain_center(model))
    agree = chart_independence_check(chart_pts, chart_a, chart_b, 5000, seed=5)
    ok = idem_bad == 0 and agree["disagreements"] == 0
    verdict(5, "hull idempotence and chart independence", ok,
            f"idempotence flips={idem_bad}, chart disagreements={agree['disagreements']} "
            f"on 10^4 probes total (within_tol={agree['within_tol']})")


def test_criterion_6_openness_under_deformation():
    t0 = time.time()
    base = preset("tau0-sp4-f2")
    base_sample = sample_limit_set(base, 8, seed=0)
    base_by_word = dict(zip(base_sample.words, base_sample.points))
    lines = []
    all_ok = True
    for eps in (1e-4, 1e-3):
        bent = deform(base, eps, seed=0)
        gap = anosov_gap_report(bent, 6)
        sample = sample_limit_set(bent, 8, seed=0)
        cert = proper_domain_certificate(bent, sample, probe_count=20, seed=0)
        moves = [
            pt.distance(base_by_word[w])
            for w, pt in zip(sample.words, sample.points)
            if w in base_by_word
        ]
        move = max(moves)
        ok = (gap["passed"] and gap["slope"] > 0.05 and cert["passed"]
              and cert["min_margin"] > 1e-6 and move <= 50.0 * eps and len(moves) > 50)
        all_ok = all_ok and ok
        lines.append(f"eps={eps:g}: slope {gap['slope']:.2f}, margin {cert['min_margin']:.2e}, "
                     f"max move {move:.2e} <= {50 * eps:g} over {len(moves)} matched words")
    elapsed = time.time() - t0
    verdict(6, "openness under deformation", all_ok and elapsed < 300.0,
            "; ".join(lines) + f"; {elapsed:.1f}s (budget 300s)")


def test_criterion_7_einstein_cross_validation():
    model = model_preset("so42")
    rng = np.random.default_rng(7)
    compared = disagreements = guard_skips = 0
    while compared < 10_000:
        a, b, c = (random_ein_point(model, rng) for _ in range(3))
        if min(abs(pairing(a, b)), abs(pairing(b, c)), abs(pairing(a, c))) <= 1e-6:
            continue
        try:
            full = maslov_index(a, b, c)
        except (NotPairwiseTransverse, DegenerateSignature, IllConditioned):
            guard_skips += 1
            continue
        compared += 1
        if ein_maslov_sign(a, b, c) != full.idx:
            disagreements += 1

    pts = []
    rng2 = np.random.default_rng(23)
    while len(pts) < 8:
        x = rng2.standard_normal(4)
        x = x / np.linalg.norm(x)
        p = ShilovPoint(model, np.concatenate([x, [1.0, 0.0]]))
        if all(abs(pairing(p, q)) > 1e-3 for q in pts):
            pts.append(p)
    photons = photon_convexity_check(pts, 1000, seed=7)
    ok = disagreements == 0 and photons["violations"] == 0
    verdict(7, "einstein cross-validation", ok,
            f"sign vs index disagreements={disagreements}/10^4 (guard skips {guard_skips}), "
            f"photon violations={photons['violations']}/10^3 on an 8-point negative sample")


def test_criterion_8_hilbert_metric():
    interval = lambda p: bool(np.all(np.abs(p) < 1.0))
    disk = lambda p: bool(p @ p < 1.0)
    closed_form_err = abs(hilbert_distance(interval, np.array([0.0]), np.array([0.5])) - np.log(3.0))

    rng = np.random.default_rng(8)
    tri_bad = inv_bad = 0
    for _ in range(1000):
        x, y, z = (rng.uniform(-0.7, 0.7, 2) for _ in range(3))
        dxz = hilbert_distance(disk, x, z)
        if dxz > hilbert_distance(disk, x, y) + hilbert_distance(disk, y, z) + 1e-9:
            tri_bad += 1
    for _ in range(1000):
        a = rng.uniform(-0.8, 0.8)
        mob = lambda t: (t + a) / (1.0 + a * t)
        x, y = rng.uniform(-0.9, 0.9, 2)
        d1 = hilbert_distance(interval, np.array([x]), np.array([y]))
        d2 = hilbert_distance(interval, np.array([mob(x)]), np.array([mob(y)]))
        if abs(d1 - d2) > 1e-9:
            inv_bad += 1
    ok = closed_form_err < 1e-10 and tri_bad == 0 and inv_bad == 0
    verdict(8, "hilbert metric", ok,
            f"log 3 error {closed_form_err:.2e} (tol 1e-10), triangle violations={tri_bad}/10^3, "
            f"projective invariance violations={inv_bad}/10^3 (tol 1e-9)")


def test_criterion_9_cli_determinism(tmp_path):
    model = model_preset("sp4")
    triple = tmp_path / "triple.json"
    pts = [chart_point(model, v * np.eye(2)) for v in (-2.0, 0.0, 2.0)]
    triple.write_text(json.dumps({"points": [p.to_json() for p in pts]}))
    hull_pts = tmp_path / "hull.json"
    hull_pts.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]]))
    rng = np.random.default_rng(23)
    limits = []
    while len(limits) < 8:
        x = rng.standard_normal(4)
        x = x / np.linalg.norm(x)
        v = np.concatenate([x, [1.0, 0.0]])
        if all(abs(v[:4] @ np.asarray(p)[:4] - 1.0) > 1e-3 for p in limits):
            limits.append(list(v))
    limit = tmp_path / "limit.json"
    limit.write_text(json.dumps(limits))
    query = tmp_path / "query.json"
    query.write_text(json.dumps([[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]]))

    commands = [
        ["sylvester-check", "--model", "sp4", "--i", "1", "--trials", "300", "--seed", "3"],
        ["maslov", "--model", "sp4", "--triple", str(triple)],
        ["maslov-invariance", "--model", "sostar8", "--trials", "300", "--seed", "3"],
        ["rep-build", "--rep", "f2-fuchsian-sl2"],
        ["rep-gap", "--rep", "tau0-sp4-f2", "--max-word-len", "4"],
        ["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "5", "--seed", "3"],
        ["rep-verify-maslov0", "--rep", "tau0-sp4-f2", "--max-word-len", "5",
         "--triples", "200", "--seed", "3"],
        ["rep-certificate", "--rep", "tau0-sp4-f2", "--max-word-len", "5",
         "--probes", "10", "--seed", "3"],
        ["rep-core", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--seed", "3"],
        ["rep-deform", "--rep", "tau0-sp4-genus2", "--eps", "1e-3", "--seed", "3"],
        ["hull", "--model", "sp4", "--points", str(hull_pts)],
        ["chart-independence", "--model", "sp4", "--probes", "200", "--seed", "3"],
        ["ein-invisible", "--model", "so42", "--limit", str(limit), "--query", str(query)],
        ["ein-photon-convexity", "--model", "so42", "--limit", str(limit),
         "--photons", "50", "--seed", "3"],
        ["hilbert", "--x", "0", "--y", "0.5"],
    ]
    unstable = []
    for args in commands:
        outs = []
        for threads in (None, None, "4"):
            env = dict(os.environ)
            if threads:
                env["CAUSALFLAG_THREADS"] = threads
            r = subprocess.run([sys.executable, "-m", "causalflag.cli", *args],
                               capture_output=True, env=env)
            outs.append((r.returncode, r.stdout))
        if not (outs[0] == outs[1] == outs[2]) or outs[0][0] != 0:
            unstable.append(args[0])
    ok = not unstable
    verdict(9, "cli determinism", ok,
            f"{len(commands)} subcommands x 3 runs (incl. CAUSALFLAG_THREADS=4) "
            + ("all byte-identical" if ok else f"unstable: {unstable}"))
