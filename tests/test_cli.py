"""CLI behavior: exit codes, report files, determinism, config handling."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causalflag import cli
from causalflag.causal import causal_hull
from causalflag.einstein import invisible_domain_membership, random_ein_point
from causalflag.groups import model_preset
from causalflag.kmat import embed_real, hermitian_draw, to_json
from causalflag.reps import preset
from causalflag.shilov import ShilovPoint, chart_point


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "causalflag.cli", *args],
        capture_output=True, text=True,
    )


def write_triple(path, good=True):
    model = model_preset("sp4")
    pts = [
        chart_point(model, -2.0 * np.eye(2)),
        chart_point(model, np.zeros((2, 2))),
        chart_point(model, 2.0 * np.eye(2)),
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


def test_determinism_across_runs(tmp_path):
    args = ["maslov-invariance", "--model", "su22", "--trials", "300", "--seed", "9"]
    r1 = run_cli(args)
    r2 = run_cli(args)
    r3 = run_cli(args)
    assert r1.returncode == r2.returncode == r3.returncode == 0
    assert r1.stdout == r2.stdout == r3.stdout


def test_maslov_triple(tmp_path):
    triple = tmp_path / "triple.json"
    write_triple(triple)
    r = run_cli(["maslov", "--model", "sp4", "--triple", str(triple)])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["report"]["idx"] == 2


def test_maslov_triple_of_another_model_exits_2(tmp_path):
    # the points of the triple carry sp4; --model su22 names another model
    triple = tmp_path / "triple.json"
    write_triple(triple)
    r = run_cli(["maslov", "--model", "su22", "--triple", str(triple)])
    assert r.returncode == 2
    report = json.loads(r.stdout)
    assert (report["error"], report["passed"]) == ("ModelMismatch", False)


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


def test_hilbert_oracle():
    r = run_cli(["hilbert", "--x", "0", "--y", "0.5"])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert abs(report["report"]["distance"] - np.log(3.0)) < 1e-10
    assert "seed" not in report


@pytest.mark.parametrize("points", [["--domain", "disk", "--x", "0,0", "--y", "0.5"],
                                    ["--x", "0,0", "--y", "0,0.5"]], ids=["disk", "interval"])
def test_hilbert_points_of_two_dimensions_exit_1(capsys, points):
    # points of two dimensions, or 2-D points on the interval, are usage errors, not a distance
    assert cli.main(["hilbert", *points]) == 1
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("entry", [float("nan"), 1e300], ids=["nan", "1e300"])
def test_rep_build_non_finite_entry_exits_2(tmp_path, entry):
    # NaN, and a finite entry whose form defect overflows, are named without a floating point warning
    out = tmp_path / "rep"
    assert run_cli(["rep-build", "--rep", "f2-fuchsian-sl2", "--out", str(out)]).returncode == 0
    data = json.loads((out / "rep.json").read_text())
    data["gens"]["a"]["g"]["entries"][0] = [entry]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = subprocess.run([sys.executable, "-W", "error", "-m", "causalflag.cli", "rep-build", "--rep", str(bad),
                        "--out", str(tmp_path / "bad")], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (2, "")
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "NonFiniteInput"


@pytest.mark.parametrize("command,flags", [("rep-build", []), ("rep-deform", ["--eps", "1e-3"]), ("rep-gap", [])])
def test_relator_letter_outside_the_generators_exits_2(tmp_path, capsys, command, flags):
    # the loader names the letter, where rep-build and rep-deform ended on a KeyError (exit 1)
    # and rep-gap deduplicated its ball by a relator that is not a word in the generators
    data = preset("tau0-sp4-genus2").to_json()
    data["relator"][3] = "zz"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main([command, "--rep", str(bad), *flags]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["passed"]) == ("ModelMismatch", False)
    assert "'zz'" in report["message"]


def test_rep_limitset_csv(tmp_path, capsys):
    # --out writes the CSV beside the report; there is no flag to ask for it
    assert cli.main(["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "3", "--csv"]) == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "ls"
    r = run_cli(["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "5", "--out", str(out)])
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


def test_hull_queries_equal_the_per_query_loop(tmp_path, capsys):
    # one margins pass gives the margins and memberships of Hull.margin and Hull.membership, query by query
    model = model_preset("sp4")
    rng = np.random.default_rng(3)
    points = [np.zeros((2, 2)), 2.0 * np.eye(2), np.diag([1.0, 3.0])]
    points += [hermitian_draw("R", (2, 2), rng) for _ in range(3)]
    queries = [np.eye(2) + hermitian_draw("R", (2, 2), rng) for _ in range(40)] + points
    pts, q = tmp_path / "pts.json", tmp_path / "q.json"
    pts.write_text(json.dumps([X.tolist() for X in points]))
    q.write_text(json.dumps([X.tolist() for X in queries]))
    assert cli.main(["hull", "--model", "sp4", "--points", str(pts), "--query", str(q)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    hull = causal_hull(model, points)
    assert report["memberships"] == [bool(hull.membership(Z)) for Z in queries]
    assert report["margins"] == [float(hull.margin(Z)) for Z in queries]
    assert True in report["memberships"] and False in report["memberships"]
    # on a one-point hull the first query fails its zero band and the second its margin: the margins run
    # first, so the stack names the distance that overflows
    pts.write_text("[[[0.0, 0.0], [0.0, 0.0]]]")
    q.write_text("[[[0.0, 1.0], [0.0, 0.0]], [[1e200, 0.0], [0.0, 1e200]]]")
    assert cli.main(["hull", "--model", "sp4", "--points", str(pts), "--query", str(q)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["message"]) == ("NonFiniteInput", "a distance to a hull point overflows")


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


@pytest.mark.parametrize("model,points,query", [
    ("sp4", "[[[1e300, 0], [0, 1]], [[2, 0], [0, 3]]]",
     "[[[1e308, 0], [0, 1e308]], [[-1e308, 0], [0, -1e308]]]"),
    ("so42", "[[0, 0, 0, 0], [0, 0, 0, 2]]", "[[1e200, 0, 0, 1e200]]"),
    ("so42", "[[-1e308, 0, 0, 0], [0, 0, 0, 2]]", "[[1e308, 0, 0, 0]]"),
], ids=["sp4", "so42-norm", "so42-difference"])
def test_hull_overflow_exits_2_without_a_warning(model, points, query, tmp_path):
    # under -W error an overflow warning would end the run with a traceback (exit 1)
    pts, q = tmp_path / "pts.json", tmp_path / "q.json"
    pts.write_text(points)
    q.write_text(query)
    r = subprocess.run([sys.executable, "-W", "error", "-m", "causalflag.cli", "hull", "--model", model,
                        "--points", str(pts), "--query", str(q)], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (2, "")
    assert json.loads(r.stdout)["error"] == "NonFiniteInput"


def test_cli_import_does_not_load_scipy():
    code = "import sys, causalflag.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=dict(os.environ)).returncode == 0


@pytest.mark.parametrize("command", [
    ["maslov-invariance", "--model", "sostar8", "--trials", "300"],
    ["rep-deform", "--rep", "tau0-sp4-genus2", "--eps", "1e-3"],
], ids=lambda command: command[0])
def test_subcommands_run_with_scipy_blocked(command):
    # the two subcommands that take a matrix exponential need numpy alone
    code = ("import sys; sys.modules['scipy'] = None; from causalflag.cli import main; "
            f"sys.exit(main({command!r}))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["passed"] is True


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


@pytest.mark.parametrize("command,config,key", [
    (["sylvester-check", "--model", "sp4", "--i", "0"], {"trials": "100"}, "trials"),
    (["sylvester-check", "--model", "sp4", "--i", "0"], {"seed": "abc"}, "seed"),
    (["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "3"], {"per-length-cap": True}, "per-length-cap"),
    (["sylvester-check", "--model", "sp4", "--i", "0"], {"command": "hilbert"}, "command"),
])
def test_config_values_must_be_the_commands_flags(tmp_path, capsys, command, config, key):
    # a value of another type, or a key that is not one of the subcommand's flags, exits 1 and names the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(command + ["--out", str(tmp_path / "rep"), "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert repr(key) in captured.err and captured.out == ""
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("entry", [float("nan"), 1e300])
def test_non_finite_chart_coordinate_exits_2(tmp_path, entry):
    # NaN, and a finite coordinate whose norm overflows, are named without a floating point warning
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps([[[entry, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]]))
    r = subprocess.run([sys.executable, "-W", "error", "-m", "causalflag.cli", "maslov", "--model", "sp4",
                        "--triple", str(triple)], capture_output=True, text=True)
    assert r.returncode == 2 and r.stderr == ""
    assert json.loads(r.stdout)["error"] == "NonFiniteInput"


def _sostar8_codec_inputs(tmp_path, bad=None):
    """Codec-fed sostar8 inputs: hull points and queries, and a causal chain of frames.

    The coordinates are quaternionic Hermitian matrices, given as kmat.to_json
    objects; with bad, one component of one entry of each file is replaced.
    """
    model = model_preset("sostar8")
    rng = np.random.default_rng(3)
    eye = embed_real(np.eye(2), "H")
    H = [0.2 * hermitian_draw("H", (2, 2), rng) for _ in range(3)]
    points = [to_json(np.zeros_like(eye), "H"), to_json(2.0 * eye + H[0], "H")]
    queries = [to_json(eye + 0.5 * H[0], "H"), to_json(-1.0 * eye, "H")]
    frames = [chart_point(model, v * eye + h).to_json()["frame"] for v, h in zip((-2.0, 0.0, 2.0), H)]
    if bad is not None:
        for objs in (points, queries, frames):
            objs[1]["entries"][1][3] = bad
    paths = []
    for name, objs in (("points", points), ("queries", {"coords": queries}), ("triple", frames)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(objs))
    return paths


def _cli_warnings_as_errors(args):
    return subprocess.run([sys.executable, "-W", "error", "-m", "causalflag.cli", *args],
                          capture_output=True, text=True)


def test_codec_inputs_give_quaternionic_coordinates(tmp_path):
    # hull points and queries, and maslov frames, as codec objects: the only way to give non-real coordinates
    points, queries, triple = _sostar8_codec_inputs(tmp_path)
    r = _cli_warnings_as_errors(["hull", "--model", "sostar8", "--points", str(points), "--query", str(queries)])
    assert (r.returncode, r.stderr) == (0, "")
    report = json.loads(r.stdout)["report"]
    assert (report["n_points"], report["n_pairs"], report["memberships"]) == (2, 1, [True, False])
    r = _cli_warnings_as_errors(["maslov", "--model", "sostar8", "--triple", str(triple)])
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["report"] == {"i": 0, "idx": 2, "rank": 2}


@pytest.mark.parametrize("bad,frame_error", [(float("nan"), "NonFiniteInput"), (float("inf"), "NonFiniteInput"),
                                             (1e300, "InvalidFrame")], ids=["nan", "inf", "1e300"])
def test_non_finite_codec_entries_exit_2(tmp_path, bad, frame_error):
    # one bad entry component in a codec object is named by a structured error, without a warning
    points, queries, triple = _sostar8_codec_inputs(tmp_path, bad)
    (tmp_path / "good").mkdir()
    good_points = _sostar8_codec_inputs(tmp_path / "good")[0]
    for args, error in (
        (["hull", "--model", "sostar8", "--points", str(points)], "NonFiniteInput"),
        (["hull", "--model", "sostar8", "--points", str(good_points), "--query", str(queries)], "NonFiniteInput"),
        (["maslov", "--model", "sostar8", "--triple", str(triple)], frame_error),
    ):
        r = _cli_warnings_as_errors(args)
        assert (r.returncode, r.stderr) == (2, "")
        assert json.loads(r.stdout)["error"] == error


@pytest.mark.parametrize("command", ["ein-invisible", "ein-photon-convexity"])
@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_overflowing_limit_vector_exits_2(tmp_path, command, suffix):
    # a finite entry of 1e300 overflows the vector's norm: a structured error, without a warning
    rows = [[1e300, 0.0, 0.0, 0.0, 1.0, 0.0], [0.6, 0.8, 0.0, 0.0, 1.0, 0.0]]
    limit = tmp_path / f"limit{suffix}"
    limit.write_text(json.dumps(rows) if suffix == ".json" else "".join(",".join(map(repr, r)) + "\n" for r in rows))
    query = tmp_path / "query.json"
    query.write_text(json.dumps([[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]]))
    extra = ["--query", str(query)] if command == "ein-invisible" else ["--photons", "5"]
    r = _cli_warnings_as_errors([command, "--model", "so42", "--limit", str(limit), *extra])
    assert (r.returncode, r.stderr) == (2, "")
    assert json.loads(r.stdout)["error"] == "NonFiniteInput"


# minimal arguments of the subcommands that sample no limit set; the config is read before any file
UNSAMPLED = {
    "sylvester-check": ["--model", "sp4", "--i", "0"],
    "maslov": ["--model", "sp4", "--triple", "triple.json"],
    "maslov-invariance": ["--model", "sp4"],
    "rep-build": ["--rep", "tau0-sp4-f2"],
    "rep-gap": ["--rep", "tau0-sp4-f2"],
    "rep-deform": ["--rep", "tau0-sp4-f2", "--eps", "1e-3"],
    "hull": ["--model", "sp4", "--points", "points.json"],
    "chart-independence": ["--model", "sp4"],
    "ein-invisible": ["--model", "so42", "--limit", "limit.json", "--query", "query.json"],
    "ein-photon-convexity": ["--model", "so42", "--limit", "limit.json"],
    "hilbert": ["--x", "0", "--y", "0.5"],
}


@pytest.mark.parametrize("command", sorted(UNSAMPLED))
def test_tolerances_are_rejected_where_no_limit_set_is_sampled(tmp_path, capsys, command):
    # margin_floor is read by the limit sampler alone; elsewhere it would be a knob that does nothing
    assert set(cli._COMMANDS) - set(UNSAMPLED) == {name for name, row in cli._COMMANDS.items() if row[2]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"margin_floor": 1e-3}}))
    assert cli.main([command, *UNSAMPLED[command], "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "'margin_floor'" in captured.err and command in captured.err and captured.out == ""


# every subcommand with the flags it needs; the config is read before any file or preset
MINIMAL = {**UNSAMPLED, **{name: ["--rep", "tau0-sp4-f2"] for name in sorted(set(cli._COMMANDS) - set(UNSAMPLED))}}
REQUIRED_FLAGS = [(name, attr) for name, (_, flags, _) in cli._COMMANDS.items()
                  for attr, (_, _, required) in flags.items() if required]


DRAWING = {"sylvester-check", "maslov-invariance", "rep-limitset", "rep-verify-maslov0", "rep-certificate",
           "rep-core", "rep-deform", "chart-independence", "ein-photon-convexity"}


def test_seed_is_a_flag_of_the_drawing_subcommands_alone():
    assert {name for name, (_, flags, _) in cli._COMMANDS.items() if "seed" in flags} == DRAWING


@pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - DRAWING))
def test_seed_is_rejected_where_nothing_is_drawn(tmp_path, capsys, command):
    # there a seed would change only the echoed "seed" of the report, a knob that does nothing
    assert cli.main([command, *MINIMAL[command], "--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert cli.main([command, *MINIMAL[command], "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "'seed'" in captured.err and captured.out == ""


def test_certificate_of_an_empty_limit_sample_exits_2(capsys):
    # the sampler draws words of length 3 and more, so at length 2 there is no sample
    assert cli.main(["rep-certificate", "--rep", "tau0-sp4-f2", "--max-word-len", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["passed"]) == ("TooFewPoints", False)


def test_limitset_below_length_3_says_why(capsys):
    assert cli.main(["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["passed"]) == ("TooFewPoints", False)
    assert "from length 3 on" in report["message"]


@pytest.mark.parametrize("command,key", REQUIRED_FLAGS)
def test_config_cannot_set_a_required_flag(tmp_path, capsys, command, key):
    # a required flag is always given on the command line, so a config value for it could never take effect
    argv = MINIMAL[command]
    kind = cli._COMMANDS[command][1][key][0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: kind(argv[argv.index("--" + key.replace("_", "-")) + 1])}))
    assert cli.main([command, *argv, "--out", str(tmp_path / "rep"), "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert repr(key) in captured.err and "required" in captured.err and captured.out == ""
    assert not (tmp_path / "rep").exists()


def test_abbreviated_flag_beats_the_config(tmp_path, capsys):
    # argparse takes --max-word for --max-word-len; the config value is only a default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-word-len": 6}))
    assert cli.main(["rep-gap", "--rep", "tau0-sp4-f2", "--max-word", "3", "--config", str(cfg)]) == 0
    abbreviated = capsys.readouterr().out
    assert cli.main(["rep-gap", "--rep", "tau0-sp4-f2", "--max-word-len", "3"]) == 0
    assert abbreviated == capsys.readouterr().out


def test_readme_command_lines_parse():
    # the examples of the README's command line section name subcommands and flags the parser has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.split("#", 1)[0] for line in section.splitlines() if line.startswith("causalflag ")]
    assert len(lines) >= 10
    parser, _ = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


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
    from causalflag import reps

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


def test_invisibility_queries_equal_the_per_query_loop(tmp_path, capsys):
    # one pass over the negative lifts decides every query as invisible_domain_membership does one at a time
    model = model_preset("so42")
    rng = np.random.default_rng(5)
    limits = [np.append(v / np.linalg.norm(v), [1.0, 0.0]) for v in rng.standard_normal((6, 4))]
    queries = [random_ein_point(model, rng).frame for _ in range(60)] + limits
    limit, query = tmp_path / "limit.json", tmp_path / "query.json"
    limit.write_text(json.dumps([v.tolist() for v in limits]))
    query.write_text(json.dumps([v.tolist() for v in queries]))
    assert cli.main(["ein-invisible", "--model", "so42", "--limit", str(limit), "--query", str(query)]) == 0
    members = json.loads(capsys.readouterr().out)["report"]["memberships"]
    pts = [ShilovPoint(model, v) for v in limits]
    assert members == [invisible_domain_membership(pts, ShilovPoint(model, v)) for v in queries]
    assert True in members and False in members
    query.write_text("[]")
    assert cli.main(["ein-invisible", "--model", "so42", "--limit", str(limit), "--query", str(query)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["memberships"] == []


@pytest.mark.parametrize("limits", [[[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]] * 2, []], ids=["lightcone-related", "empty"])
def test_invisibility_without_queries_still_checks_the_limit_set(tmp_path, capsys, limits):
    # an empty query list decides nothing, but the limit set must still be negative, as it must with one query
    limit, query = tmp_path / "limit.json", tmp_path / "query.json"
    limit.write_text(json.dumps(limits))
    query.write_text("[]")
    assert cli.main(["ein-invisible", "--model", "so42", "--limit", str(limit), "--query", str(query)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["passed"]) == ("LimitSetNotNegative", False)


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
    ["rep-certificate", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--probes", "-2"],
    ["rep-limitset", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--per-length-cap", "0"],
    ["rep-core", "--rep", "tau0-sp4-f2", "--max-word-len", "4", "--per-length-cap", "-3"],
    pytest.param(["rep-core", "--rep", "tau0-sp4-f2", "--max-word-len", "0"], id="rep-core-without-words"),
    ["rep-gap", "--rep", "tau0-sp4-f2", "--max-word-len", "0"],
    pytest.param(["chart-independence", "--model", "sp4", "--n-points", "0"], id="chart-independence-without-points"),
], ids=lambda command: command[0])
def test_runs_without_trials_exit_1(tmp_path, capsys, command):
    if command[0] == "ein-photon-convexity":
        limit = tmp_path / "limit.json"
        limit.write_text(json.dumps([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0, 0.0, 1.0, 0.0]]))
        command = command + ["--limit", str(limit)]
    assert cli.main(command) == 1
    assert capsys.readouterr().out == ""
