"""CLI behavior: exit codes, report files, determinism, config handling."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from causalflag.groups import model_preset
from causalflag.kmat import KMat
from causalflag.shilov import chart_point


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "causalflag.cli", *args],
        capture_output=True, text=True, env=env,
    )


def write_triple(path, good=True):
    model = model_preset("sp4")
    pts = [
        chart_point(model, -2.0 * KMat.eye("R", 2)),
        chart_point(model, KMat("R", np.zeros((2, 2)))),
        chart_point(model, 2.0 * KMat.eye("R", 2)),
    ]
    data = [p.to_json() for p in pts]
    if not good:
        data[0]["frame"]["entries"][1] = [2.0]  # breaks isotropy
    path.write_text(json.dumps({"points": data}))


def test_sylvester_exit_and_report(tmp_path):
    out = tmp_path / "rep"
    r = run_cli(["sylvester-check", "--model", "sp4", "--i", "1",
                 "--trials", "200", "--seed", "5", "--out", str(out)])
    assert r.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["report"]["failures"] == 0
    assert report["seed"] == 5


def test_determinism_across_runs_and_threads(tmp_path):
    args = ["maslov-invariance", "--model", "su22", "--trials", "300", "--seed", "9"]
    r1 = run_cli(args)
    r2 = run_cli(args)
    r3 = run_cli(args, env_extra={"CAUSALFLAG_THREADS": "4"})
    assert r1.returncode == r2.returncode == r3.returncode == 0
    assert r1.stdout == r2.stdout == r3.stdout


def test_maslov_triple(tmp_path):
    triple = tmp_path / "triple.json"
    write_triple(triple)
    r = run_cli(["maslov", "--model", "sp4", "--triple", str(triple)])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["report"]["idx"] == 2


def test_structured_error_exits_2(tmp_path):
    triple = tmp_path / "bad.json"
    write_triple(triple, good=False)
    out = tmp_path / "rep"
    r = run_cli(["maslov", "--model", "sp4", "--triple", str(triple), "--out", str(out)])
    assert r.returncode == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "InvalidFrame"


def test_usage_errors_exit_1(tmp_path):
    assert run_cli(["no-such-command"]).returncode == 1
    assert run_cli(["maslov", "--model", "sp4"]).returncode == 1  # missing --triple
    r = run_cli(["maslov", "--model", "sp4", "--triple", str(tmp_path / "missing.json")])
    assert r.returncode == 1


def test_threads_validation():
    r = run_cli(["hilbert", "--x", "0", "--y", "0.5"],
                env_extra={"CAUSALFLAG_THREADS": "zero"})
    assert r.returncode == 1


def test_hilbert_oracle():
    r = run_cli(["hilbert", "--x", "0", "--y", "0.5"])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert abs(report["report"]["distance"] - np.log(3.0)) < 1e-10


def test_rep_build_roundtrip(tmp_path):
    out = tmp_path / "rep"
    r = run_cli(["rep-build", "--rep", "f2-fuchsian-sl2", "--out", str(out)])
    assert r.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["pingpong"]["passed"] is True
    rep_file = out / "rep.json"
    assert rep_file.exists()
    r2 = run_cli(["rep-gap", "--rep", str(rep_file), "--max-word-len", "4"])
    assert r2.returncode == 0


def test_rep_build_nan_entry_exits_2(tmp_path):
    out = tmp_path / "rep"
    assert run_cli(["rep-build", "--rep", "f2-fuchsian-sl2", "--out", str(out)]).returncode == 0
    data = json.loads((out / "rep.json").read_text())
    data["gens"]["a"]["g"]["entries"][0] = [float("nan")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = run_cli(["rep-build", "--rep", str(bad), "--out", str(tmp_path / "bad")])
    assert r.returncode == 2
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "ModelMismatch"


def test_rep_limitset_csv(tmp_path):
    out = tmp_path / "ls"
    r = run_cli(["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "5",
                 "--csv", "--out", str(out)])
    assert r.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["n_points"] >= 10
    assert report["report"]["min_pairwise_margin"] > 1e-6
    # 36 words of length 3, 100 drawn of each longer length: every one is kept or excluded
    excluded = report["report"]["excluded"]
    assert sorted(excluded) == ["margin", "near", "no_convergence", "no_gap", "residual"]
    assert sum(excluded.values()) + report["report"]["n_points"] == 36 + 2 * 100
    lines = (out / "limitset.csv").read_text().strip().splitlines()
    assert len(lines) == report["report"]["n_points"] + 1


def test_hull_queries(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]]))
    q = tmp_path / "q.json"
    q.write_text(json.dumps([[[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]]))
    r = run_cli(["hull", "--model", "sp4", "--points", str(pts), "--query", str(q)])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["report"]["memberships"] == [True, False]


@pytest.mark.parametrize("bad", ["1e309", "NaN"])
def test_hull_non_finite_points_exit_2(tmp_path, bad):
    pts = tmp_path / "pts.json"
    pts.write_text(f"[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[{bad}, 0.0], [0.0, 1.0]]]")
    out = tmp_path / "rep"
    r = run_cli(["hull", "--model", "sp4", "--points", str(pts), "--out", str(out)])
    assert r.returncode == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "NonFiniteInput"


@pytest.mark.parametrize("model,points,query", [
    ("sp4", "[[[1e300, 0], [0, 1]], [[2, 0], [0, 3]]]",
     "[[[1e308, 0], [0, 1e308]], [[-1e308, 0], [0, -1e308]]]"),
    ("so42", "[[0, 0, 0, 0], [0, 0, 0, 1]]", "[[1e200, 0, 0, 1e200]]"),
], ids=["sp4", "so42"])
def test_hull_overflow_exits_2(tmp_path, model, points, query):
    # finite coordinates whose differences overflow the Hermitian part (sp4) or the norm (so42)
    pts, q, out = tmp_path / "pts.json", tmp_path / "q.json", tmp_path / "rep"
    pts.write_text(points)
    q.write_text(query)
    r = run_cli(["hull", "--model", model, "--points", str(pts), "--query", str(q), "--out", str(out)])
    assert r.returncode == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "NonFiniteInput"


def test_cli_import_does_not_load_scipy():
    code = "import sys, causalflag.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=dict(os.environ)).returncode == 0


def test_config_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 100}))
    # config sets trials when the flag is absent
    r1 = run_cli(["sylvester-check", "--model", "sp4", "--i", "0", "--config", str(cfg)])
    assert json.loads(r1.stdout)["report"]["trials"] == 100
    # an explicit flag beats the config value
    r2 = run_cli(["sylvester-check", "--model", "sp4", "--i", "0",
                  "--trials", "150", "--config", str(cfg)])
    assert json.loads(r2.stdout)["report"]["trials"] == 150


def test_config_rejections(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    r = run_cli(["sylvester-check", "--model", "sp4", "--i", "0", "--config", str(bad)])
    assert r.returncode == 1
    wild = tmp_path / "wild.json"
    wild.write_text(json.dumps({"tolerances": {"margin_floor": 0.5}}))
    r2 = run_cli(["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "4",
                  "--config", str(wild)])
    assert r2.returncode == 1


@pytest.mark.parametrize("key", ["dedup_tol", "band"])
def test_unread_tolerance_keys_are_rejected(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {key: 1e-9}}))
    r = run_cli(["rep-gap", "--rep", "tau0-sp4-f2", "--max-word-len", "2", "--config", str(cfg)])
    assert r.returncode == 1
    assert "unknown tolerance key" in r.stderr


@pytest.mark.parametrize("command", [
    ["rep-limitset"],
    ["rep-verify-maslov0", "--triples", "20"],
    ["rep-certificate", "--probes", "2"],
    ["rep-core"],
])
def test_margin_floor_reaches_the_limit_sampler(tmp_path, monkeypatch, capsys, command):
    from causalflag import cli, reps

    seen = []
    sampler = reps.sample_limit_set

    def spy(*args, **kwargs):
        seen.append(kwargs.get("margin_floor"))
        return sampler(*args, **kwargs)

    monkeypatch.setattr(reps, "sample_limit_set", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"margin_floor": 1e-3}}))
    argv = command + ["--rep", "tau0-sp4-f2", "--max-word-len", "4"]
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert seen == [1e-3]
    sparse = json.loads(capsys.readouterr().out)["report"]
    assert cli.main(argv) == 0
    assert seen == [1e-3, None]
    dense = json.loads(capsys.readouterr().out)["report"]
    if command[0] == "rep-verify-maslov0":
        assert sparse["n_points"] < dense["n_points"]
    elif command[0] == "rep-certificate":
        assert sparse["n_limit_points"] < dense["n_limit_points"]


def test_ein_commands(tmp_path):
    rng = np.random.default_rng(23)
    pts = []
    while len(pts) < 8:
        x = rng.standard_normal(4)
        x = x / np.linalg.norm(x)
        v = np.concatenate([x, [1.0, 0.0]])
        if all(abs(v[:4] @ np.asarray(p)[:4] - 1.0) > 1e-3 for p in pts):
            pts.append(list(v))
    limit = tmp_path / "limit.json"
    limit.write_text(json.dumps(pts))
    query = tmp_path / "query.json"
    query.write_text(json.dumps([[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]]))
    r = run_cli(["ein-invisible", "--model", "so42", "--limit", str(limit),
                 "--query", str(query)])
    assert r.returncode == 0
    r2 = run_cli(["ein-photon-convexity", "--model", "so42", "--limit", str(limit),
                  "--photons", "50"])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["report"]["violations"] == 0


MODEL_PRESETS = ["sp2", "sp4", "sp6", "sp8", "su22", "su33", "sostar8", "so22", "so32", "so42"]


@pytest.mark.parametrize("model", MODEL_PRESETS)
@pytest.mark.parametrize("command", [
    ["sylvester-check", "--i", "1", "--trials", "20"],
    ["maslov-invariance", "--trials", "20"],
    ["chart-independence", "--probes", "10", "--n-points", "3"],
], ids=lambda command: command[0])
def test_model_commands_pass_or_report_on_every_preset(capsys, model, command):
    # exit 0 with a report, or 2 with a structured error report; never an uncaught error (exit 1)
    from causalflag import cli

    code = cli.main(command + ["--model", model])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert out["command"] == command[0] and out["passed"] is (code == 0)
    if model in ("so22", "so32", "so42") and command[0] != "maslov-invariance":
        assert (code, out["error"]) == (2, "ModelMismatch")


@pytest.mark.parametrize("command", [
    ["sylvester-check", "--model", "sp4", "--i", "1", "--trials", "-5"],
    ["maslov-invariance", "--model", "sp4", "--trials", "0"],
    ["rep-verify-maslov0", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--triples", "0"],
    ["chart-independence", "--model", "sp4", "--probes", "0"],
    ["ein-photon-convexity", "--model", "so42", "--photons", "0"],
], ids=lambda command: command[0])
def test_runs_without_trials_exit_1(tmp_path, capsys, command):
    from causalflag import cli

    if command[0] == "ein-photon-convexity":
        limit = tmp_path / "limit.json"
        limit.write_text(json.dumps([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0, 0.0, 1.0, 0.0]]))
        command = command + ["--limit", str(limit)]
    assert cli.main(command) == 1
    assert capsys.readouterr().out == ""
