"""Command line front end: reproducible experiments with JSON reports.

Exit codes: 0 for a passing run, 2 for a property violation or a
structured library error (a report is still written), 1 for usage or
unexpected runtime errors.  All floats in reports are rendered at 17
significant digits so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import CausalFlagError
from . import kmat
from .groups import model_preset
from .shilov import ShilovPoint, chart_point

TOLERANCE_KEYS = {"margin_floor"}
# the subcommands that sample a limit set, the only readers of the tolerances
_TOLERANCE_COMMANDS = {"rep-limitset", "rep-verify-maslov0", "rep-certificate", "rep-core"}


# ------------------------------------------------------- deterministic output


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def dumps_det(obj, indent=0) -> str:
    """JSON with sorted keys and fixed float rendering."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(f'{pad}  {json.dumps(str(k))}: {dumps_det(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {dumps_det(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps_det(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)!r}")


def _write_report(out_dir, report):
    text = dumps_det(report) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ------------------------------------------------------------------- plumbing


def _threads():
    raw = os.environ.get("CAUSALFLAG_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise SystemExit(f"CAUSALFLAG_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise SystemExit("CAUSALFLAG_THREADS must be positive")
    return n  # worker cap; current subcommands are single-worker


def _load_rep(ref: str):
    from . import reps

    if ref.endswith(".json") or os.path.sep in ref:
        with open(ref) as fh:
            return reps.Representation.from_json(json.load(fh))
    return reps.preset(ref)


def _load_points(model, path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["points"]
    pts = []
    for entry in data:
        if isinstance(entry, dict) and "model" in entry:
            pts.append(ShilovPoint.from_json(entry))
        elif isinstance(entry, dict):
            pts.append(ShilovPoint(model, kmat.from_json(entry, model.tag)))
        else:
            pts.append(chart_point(model, _raw_coord(model, entry)))
    return pts


def _raw_coord(model, entry):
    """A chart coordinate given as a JSON list: a real matrix over the model's field, or a Minkowski vector."""
    arr = np.array(entry, dtype=float)
    return kmat.embed_real(np.atleast_2d(arr), model.tag) if model.is_lagrangian else arr


def _load_coords(model, path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["coords"]
    return [kmat.from_json(e, model.tag) if isinstance(e, dict) else _raw_coord(model, e) for e in data]


def _load_vectors(path):
    rows = []
    if path.endswith(".csv"):
        with open(path) as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append([float(x) for x in row])
    else:
        with open(path) as fh:
            rows = json.load(fh)
    return [np.array(r, dtype=float) for r in rows]


# ---------------------------------------------------------------- subcommands


def _cmd_sylvester(args, tol):
    from .causal import sylvester_orbit_check

    model = model_preset(args.model)
    rep = sylvester_orbit_check(model, args.i, args.trials, args.seed)
    return rep, rep["failures"] == 0


def _cmd_maslov(args, tol):
    from .maslov import maslov_index

    model = model_preset(args.model)
    pts = _load_points(model, args.triple)
    if len(pts) != 3:
        raise SystemExit("the triple file must contain exactly 3 points")
    t = maslov_index(*pts)
    return {"i": t.i, "idx": t.idx, "rank": t.rank}, True


def _cmd_maslov_invariance(args, tol):
    from .maslov import maslov_invariance_report

    model = model_preset(args.model)
    rep = maslov_invariance_report(model, args.trials, args.seed)
    return rep, rep["violations"] == 0


def _cmd_rep_build(args, tol):
    from . import reps

    rep = _load_rep(args.rep)
    defects = {name: float(rep.gens[name].form_defect()) for name in rep.gen_names}
    report = {
        "preset": rep.preset_id,
        "model": rep.model.to_json(),
        "generators": list(rep.gen_names),
        "form_defects": defects,
    }
    ok = all(d <= 1e-10 for d in defects.values())
    if rep.relator is not None:
        res = reps.relator_residual(rep)
        report["relator_residual"] = res
        ok = ok and res <= 1e-8
    if rep.model.family == "SP" and rep.model.rank == 1 and rep.relator is None:
        cert = reps.pingpong_certificate(rep)
        report["pingpong"] = cert
        ok = ok and cert["passed"]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "rep.json"), "w") as fh:
            fh.write(dumps_det(rep.to_json()) + "\n")
    return report, ok


def _cmd_rep_gap(args, tol):
    from . import reps

    rep = _load_rep(args.rep)
    report = reps.anosov_gap_report(rep, args.max_word_len, cap=args.cap)
    return report, report["passed"]


def _limit_sample(args, tol, max_len=None):
    """sample_limit_set with the subcommand's flags and the configured margin_floor."""
    from . import reps

    rep = _load_rep(args.rep)
    kwargs = {"margin_floor": tol["margin_floor"]} if "margin_floor" in tol else {}
    sample = reps.sample_limit_set(rep, args.max_word_len if max_len is None else max_len,
                                   per_length_cap=args.per_length_cap, seed=args.seed, **kwargs)
    return rep, sample


def _cmd_rep_limitset(args, tol):
    from .shilov import transversality_margins

    rep, sample = _limit_sample(args, tol)
    min_margin = None
    if len(sample) > 1:
        Q = np.stack([p.ortho for p in sample.points])
        i, j = np.triu_indices(len(Q), 1)
        min_margin = float(np.min(transversality_margins(rep.model, Q[i], Q[j])))
    report = {
        "n_points": len(sample),
        "word_lengths": sample.word_lengths,
        "max_residual": max(sample.residuals) if sample.residuals else None,
        "min_pairwise_margin": min_margin,
        "excluded": sample.excluded,
    }
    if args.out and args.csv:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "limitset.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["word", "length", "residual", "frame"])
            for word, L, res, pt in zip(sample.words, sample.word_lengths,
                                        sample.residuals, sample.points):
                w.writerow(["".join(word), L, _fmt_float(res),
                            dumps_det(pt.to_json()["frame"]).replace("\n", " ")])
    ok = len(sample) >= 1 and (not sample.residuals or max(sample.residuals) <= 1e-8)
    return report, ok


def _cmd_rep_verify_maslov0(args, tol):
    from . import reps

    _, sample = _limit_sample(args, tol)
    report = reps.verify_maslov_zero(sample, args.triples, seed=args.seed)
    report["n_points"] = len(sample)
    return report, report["violations"] == 0


def _cmd_rep_certificate(args, tol):
    from . import reps

    rep, sample = _limit_sample(args, tol)
    cert = reps.proper_domain_certificate(rep, sample, probe_count=args.probes, seed=args.seed)
    report = {
        "kind": "CERTIFICATE(SAMPLED)",
        "candidate": cert["candidate"],
        "min_margin": cert["min_margin"],
        "orbit_size": cert["orbit_size"],
        "n_limit_points": len(sample),
        "z0": cert["z0"].to_json(),
    }
    return report, cert["passed"]


def _cmd_rep_core(args, tol):
    from . import reps

    rep, sample = _limit_sample(args, tol, max(args.max_word_len, 4))
    out = reps.convex_core_sample(rep, sample, [reps.domain_center(rep.model)], args.max_word_len)
    report = {
        "ideal_residual": out["ideal_residual"],
        "orbit_size": out["orbit_size"],
        "hull_points": out["hull_points"],
        "hull_pairs": len(out["core"].pairs),
    }
    return report, True


def _cmd_rep_deform(args, tol):
    from . import reps

    rep = _load_rep(args.rep)
    deformed = reps.deform(rep, args.eps, seed=args.seed)
    report = {"deformation": deformed.deformation}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "rep.json"), "w") as fh:
            fh.write(dumps_det(deformed.to_json()) + "\n")
    return report, True


def _cmd_hull(args, tol):
    from .causal import causal_hull

    model = model_preset(args.model)
    coords = _load_coords(model, args.points)
    hull = causal_hull(model, coords)
    report = {
        "n_points": len(hull.points),
        "n_pairs": len(hull.pairs),
    }
    if args.query:
        queries = _load_coords(model, args.query)
        report["memberships"] = [bool(hull.membership(q)) for q in queries]
        report["margins"] = [float(hull.margin(q)) for q in queries]
    return report, True


def _cmd_chart_independence(args, tol):
    from .causal import ChartedChart, chart_independence_check, random_positive_coord
    from . import reps

    model = model_preset(args.model)
    rng = np.random.default_rng(args.seed)
    pts = []
    for _ in range(args.n_points):
        X = random_positive_coord(model, rng)
        X = (0.8 / max(X.opnorm(), 1e-300)) * X
        pts.append(chart_point(model, X))
    chart_a = ChartedChart.standard(model)
    chart_b = ChartedChart.at_point(reps.dual_center(model), reps.domain_center(model))
    report = chart_independence_check(pts, chart_a, chart_b, args.probes, args.seed)
    return report, report["disagreements"] == 0


def _cmd_ein_invisible(args, tol):
    from .einstein import invisible_domain_membership

    model = model_preset(args.model)
    limits = [ShilovPoint(model, v) for v in _load_vectors(args.limit)]
    queries = [ShilovPoint(model, v) for v in _load_vectors(args.query)]
    members = [bool(invisible_domain_membership(limits, q)) for q in queries]
    return {"n_limit": len(limits), "memberships": members}, True


def _cmd_ein_photon_convexity(args, tol):
    from .einstein import photon_convexity_check

    model = model_preset(args.model)
    limits = [ShilovPoint(model, v) for v in _load_vectors(args.limit)]
    report = photon_convexity_check(limits, args.photons, args.seed)
    return report, report["violations"] == 0


def _cmd_hilbert(args, tol):
    from .einstein import hilbert_distance

    x = np.array([float(v) for v in args.x.split(",")])
    y = np.array([float(v) for v in args.y.split(",")])
    if args.domain == "interval":
        domain = lambda p: bool(np.all(np.abs(p) < 1.0)) and p.shape == (1,)
        if x.shape != (1,) or y.shape != (1,):
            raise SystemExit("interval domain expects 1-D points")
    elif args.domain == "disk":
        domain = lambda p: bool(p @ p < 1.0)
    else:
        raise SystemExit(f"unknown domain {args.domain!r}")
    d = hilbert_distance(domain, x, y)
    return {"distance": float(d)}, True


_COMMANDS = {
    "sylvester-check": _cmd_sylvester,
    "maslov": _cmd_maslov,
    "maslov-invariance": _cmd_maslov_invariance,
    "rep-build": _cmd_rep_build,
    "rep-gap": _cmd_rep_gap,
    "rep-limitset": _cmd_rep_limitset,
    "rep-verify-maslov0": _cmd_rep_verify_maslov0,
    "rep-certificate": _cmd_rep_certificate,
    "rep-core": _cmd_rep_core,
    "rep-deform": _cmd_rep_deform,
    "hull": _cmd_hull,
    "chart-independence": _cmd_chart_independence,
    "ein-invisible": _cmd_ein_invisible,
    "ein-photon-convexity": _cmd_ein_photon_convexity,
    "hilbert": _cmd_hilbert,
}


def _build_parser():
    p = argparse.ArgumentParser(prog="causalflag")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None)
        for flag, (kind, default, required) in flags.items():
            extra = {"required": True} if required else {"default": default}
            if kind is bool:
                sp.add_argument(f"--{flag}", action="store_true")
            else:
                sp.add_argument(f"--{flag}", type=kind, **extra)
        # the flags a config file may set, by attribute name, with the JSON type each takes
        kinds = {"seed": int, "out": str, **{f.replace("-", "_"): k for f, (k, _, _) in flags.items()}}
        sp.set_defaults(_config_kinds=kinds)
        return sp

    add("sylvester-check", model=(str, None, True), i=(int, None, True), trials=(int, 10_000, False))
    add("maslov", model=(str, None, True), triple=(str, None, True))
    add("maslov-invariance", model=(str, None, True), trials=(int, 10_000, False))
    add("rep-build", rep=(str, None, True))
    add("rep-gap", rep=(str, None, True), **{"max-word-len": (int, 6, False)}, cap=(int, 10**7, False))
    add("rep-limitset", rep=(str, None, True), **{"max-word-len": (int, 8, False)},
        **{"per-length-cap": (int, 100, False)}, csv=(bool, False, False))
    add("rep-verify-maslov0", rep=(str, None, True), **{"max-word-len": (int, 8, False)},
        **{"per-length-cap": (int, 100, False)}, triples=(int, 1000, False))
    add("rep-certificate", rep=(str, None, True), **{"max-word-len": (int, 8, False)},
        **{"per-length-cap": (int, 100, False)}, probes=(int, 50, False))
    add("rep-core", rep=(str, None, True), **{"max-word-len": (int, 5, False)},
        **{"per-length-cap": (int, 50, False)})
    add("rep-deform", rep=(str, None, True), eps=(float, None, True))
    add("hull", model=(str, None, True), points=(str, None, True), query=(str, None, False))
    add("chart-independence", model=(str, None, True), **{"n-points": (int, 6, False)},
        probes=(int, 10_000, False))
    add("ein-invisible", model=(str, None, True), limit=(str, None, True), query=(str, None, True))
    add("ein-photon-convexity", model=(str, None, True), limit=(str, None, True),
        photons=(int, 1000, False))
    add("hilbert", domain=(str, "interval", False), x=(str, None, True), y=(str, None, True))
    return p


def _apply_config(args):
    """Config file mirrors long flags; explicit flags win."""
    tol = {}
    if not args.config:
        return tol
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SystemExit("config must be a JSON object")
    for key, value in cfg.items():
        if key == "tolerances":
            if not isinstance(value, dict):
                raise SystemExit("tolerances must be an object")
            for tk, tv in value.items():
                if tk not in TOLERANCE_KEYS:
                    raise SystemExit(f"unknown tolerance key {tk!r}")
                if args.command not in _TOLERANCE_COMMANDS:
                    raise SystemExit(f"tolerance {tk!r} is not read by {args.command}; "
                                     f"only {', '.join(sorted(_TOLERANCE_COMMANDS))} read it")
                if not _is_kind(tv, float):
                    raise SystemExit(f"tolerance {tk!r} takes a number, got {tv!r}")
                tv = float(tv)
                if not 1e-14 <= tv <= 1e-3:
                    raise SystemExit(f"tolerance {tk!r} = {tv} outside [1e-14, 1e-3]")
                tol[tk] = tv
            continue
        attr = key.replace("-", "_")
        kind = args._config_kinds.get(attr)
        if kind is None:
            raise SystemExit(f"unknown config key {key!r} for {args.command}")
        if not _is_kind(value, kind):
            raise SystemExit(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
        if attr not in args._explicit:
            setattr(args, attr, float(value) if kind is float else value)
    return tol


def _is_kind(value, kind):
    """Whether a JSON value has a flag's type: a float flag takes any number, a bool is no number."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _threads()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0,) else 0
    # record which flags were given explicitly so config values do not override them
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=")[0].replace("-", "_"))
    args._explicit = explicit
    try:
        tol = _apply_config(args)
        report, passed = _COMMANDS[args.command](args, tol)
    except SystemExit as e:
        sys.stderr.write(f"{e}\n" if str(e) else "")
        return 1
    except CausalFlagError as e:
        _write_report(args.out, {
            "command": args.command,
            "error": type(e).__name__,
            "message": str(e),
            "passed": False,
        })
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    _write_report(args.out, {"command": args.command, "seed": args.seed,
                             "report": report, "passed": bool(passed)})
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
