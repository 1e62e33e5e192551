"""Command line front end: reproducible experiments with JSON reports.

Exit codes: 0 for a passing run, 2 for a property violation or a
structured library error (a report is still written), 1 for usage or
unexpected runtime errors.  Reports are json.dumps text with sorted keys,
and every float is written in its shortest exact form (Python's repr), so
identical inputs give byte-identical files.

--out DIR also writes report.json there, and rep.json (rep-build,
rep-deform) or limitset.csv (rep-limitset).  Only the nine subcommands
that draw at random take --seed, and only their reports echo it:
sylvester-check, maslov-invariance, the four limit-set subcommands,
rep-deform, chart-independence and ein-photon-convexity.  maslov checks
the model a triple's point carries against --model (ModelMismatch).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import kmat, reps
from .causal import (ChartedChart, _relations, _stack, causal_hull, chart_independence_check, random_positive_coord,
                     sylvester_orbit_check)
from .einstein import _invisible_memberships, hilbert_distance, photon_convexity_check
from .errors import CausalFlagError, ModelMismatch
from .groups import GroupModel, model_preset
from .maslov import maslov_index, maslov_invariance_report
from .shilov import ShilovPoint, chart_point, transversality_margins

TOLERANCE_KEYS = {"margin_floor"}


# ------------------------------------------------------- deterministic output


def _plain(obj):
    """The Python value of a numpy scalar or array, for json.dumps."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot render {type(obj)!r}")


def dumps_det(obj) -> str:
    """JSON with sorted keys, two-space indents and floats in their shortest exact form (repr)."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain)


def _open_out(out_dir, name):
    """A file of the --out directory, which is made on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, name), "w", newline="")


def _write_report(out_dir, report):
    text = dumps_det(report) + "\n"
    if out_dir:
        with _open_out(out_dir, "report.json") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _write_rep(out_dir, rep):
    if out_dir:
        with _open_out(out_dir, "rep.json") as fh:
            fh.write(dumps_det(rep.to_json()) + "\n")


# ------------------------------------------------------------------- plumbing


def _load_rep(ref: str):
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
            if GroupModel.from_json(entry["model"]) != model:
                raise ModelMismatch(f"a point of the triple is not of the given {model}")
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
# main resolves args.model to a GroupModel and args.rep to a Representation first.


def _cmd_sylvester(args, tol):
    rep = sylvester_orbit_check(args.model, args.i, args.trials, args.seed)
    return rep, rep["failures"] == 0


def _cmd_maslov(args, tol):
    pts = _load_points(args.model, args.triple)
    if len(pts) != 3:
        raise SystemExit("the triple file must contain exactly 3 points")
    t = maslov_index(*pts)
    return {"i": t.i, "idx": t.idx, "rank": t.rank}, True


def _cmd_maslov_invariance(args, tol):
    rep = maslov_invariance_report(args.model, args.trials, args.seed)
    return rep, rep["violations"] == 0


def _cmd_rep_build(args, tol):
    rep = args.rep
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
    _write_rep(args.out, rep)
    return report, ok


def _cmd_rep_gap(args, tol):
    report = reps.anosov_gap_report(args.rep, args.max_word_len)
    return report, report["passed"]


def _limit_sample(args, tol, max_len=None):
    """sample_limit_set with the subcommand's flags and the configured margin_floor."""
    kwargs = {"margin_floor": tol["margin_floor"]} if "margin_floor" in tol else {}
    return reps.sample_limit_set(args.rep, args.max_word_len if max_len is None else max_len,
                                 per_length_cap=args.per_length_cap, seed=args.seed, **kwargs)


def _cmd_rep_limitset(args, tol):
    sample = _limit_sample(args, tol)
    min_margin = None
    if len(sample) > 1:
        Q = sample._orthos
        i, j = np.triu_indices(len(Q), 1)
        min_margin = float(np.min(transversality_margins(args.rep.model, Q[i], Q[j])))
    report = {
        "n_points": len(sample),
        "word_lengths": sample.word_lengths,
        "max_residual": max(sample.residuals) if sample.residuals else None,
        "min_pairwise_margin": min_margin,
        "excluded": sample.excluded,
    }
    if args.out:
        with _open_out(args.out, "limitset.csv") as fh:
            w = csv.writer(fh)
            w.writerow(["word", "length", "residual", "frame"])
            for word, L, res, pt in zip(sample.words, sample.word_lengths,
                                        sample.residuals, sample.points):
                w.writerow(["".join(word), L, repr(res), json.dumps(pt.to_json()["frame"])])
    ok = len(sample) >= 1 and (not sample.residuals or max(sample.residuals) <= 1e-8)
    return report, ok


def _cmd_rep_verify_maslov0(args, tol):
    sample = _limit_sample(args, tol)
    report = reps.verify_maslov_zero(sample, args.triples, seed=args.seed)
    report["n_points"] = len(sample)
    return report, report["violations"] == 0


def _cmd_rep_certificate(args, tol):
    sample = _limit_sample(args, tol)
    cert = reps.proper_domain_certificate(args.rep, sample, probe_count=args.probes, seed=args.seed)
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
    if args.max_word_len < 1:
        raise SystemExit("--max-word-len must be at least 1")
    sample = _limit_sample(args, tol, max(args.max_word_len, 4))
    out = reps.convex_core_sample(args.rep, sample, [reps.domain_center(args.rep.model)], args.max_word_len)
    report = {
        "ideal_residual": out["ideal_residual"],
        "orbit_size": out["orbit_size"],
        "hull_points": out["hull_points"],
        "hull_pairs": len(out["core"].pairs),
    }
    return report, True


def _cmd_rep_deform(args, tol):
    deformed = reps.deform(args.rep, args.eps, seed=args.seed)
    _write_rep(args.out, deformed)
    return {"deformation": deformed.deformation}, True


def _cmd_hull(args, tol):
    hull = causal_hull(args.model, _load_coords(args.model, args.points))
    report = {"n_points": len(hull.points), "n_pairs": len(hull.pairs)}
    if args.query:
        queries = _load_coords(args.model, args.query)
        # Hull.margin and zero_band of every query, one stacked pass each
        margins, bands = hull.margins(queries), _relations(args.model, _stack(args.model, queries))[2]
        report["memberships"] = (margins >= -bands).tolist()
        report["margins"] = margins.tolist()
    return report, True


def _cmd_chart_independence(args, tol):
    model = args.model
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
    limits = [ShilovPoint(args.model, v) for v in _load_vectors(args.limit)]
    queries = [ShilovPoint(args.model, v) for v in _load_vectors(args.query)]
    members = _invisible_memberships(limits, queries).tolist()
    return {"n_limit": len(limits), "memberships": members}, True


def _cmd_ein_photon_convexity(args, tol):
    limits = [ShilovPoint(args.model, v) for v in _load_vectors(args.limit)]
    report = photon_convexity_check(limits, args.photons, args.seed)
    return report, report["violations"] == 0


def _cmd_hilbert(args, tol):
    x = np.array([float(v) for v in args.x.split(",")])
    y = np.array([float(v) for v in args.y.split(",")])
    if args.domain == "interval":
        domain = lambda p: bool(np.all(np.abs(p) < 1.0))
        if x.shape != (1,) or y.shape != (1,):
            raise SystemExit("interval domain expects 1-D points")
    elif args.domain == "disk":
        domain = lambda p: bool(p @ p < 1.0)
    else:
        raise SystemExit(f"unknown domain {args.domain!r}")
    d = hilbert_distance(domain, x, y)
    return {"distance": float(d)}, True


# ------------------------------------------------------------- command table

_REQUIRED = (str, None, True)
_SEED = (int, 0, False)  # a flag of the subcommands that draw, and of no other
# the flags of every subcommand that a config may set, as (type, default, required) by attribute name
_COMMON = dict(out=(str, None, False))


def _limit_flags(max_word_len, per_length_cap, **extra):
    """The flags of a subcommand that samples a limit set."""
    return dict(rep=_REQUIRED, max_word_len=(int, max_word_len, False),
                per_length_cap=(int, per_length_cap, False), seed=_SEED, **extra)


# each subcommand once: its handler, its own flags, and whether it reads the tolerances
# (only the subcommands that sample a limit set do)
_COMMANDS = {
    "sylvester-check": (_cmd_sylvester, dict(model=_REQUIRED, i=(int, None, True),
                                             trials=(int, 10_000, False), seed=_SEED), False),
    "maslov": (_cmd_maslov, dict(model=_REQUIRED, triple=_REQUIRED), False),
    "maslov-invariance": (_cmd_maslov_invariance, dict(model=_REQUIRED, trials=(int, 10_000, False),
                                                       seed=_SEED), False),
    "rep-build": (_cmd_rep_build, dict(rep=_REQUIRED), False),
    "rep-gap": (_cmd_rep_gap, dict(rep=_REQUIRED, max_word_len=(int, 6, False)), False),
    "rep-limitset": (_cmd_rep_limitset, _limit_flags(8, 100), True),
    "rep-verify-maslov0": (_cmd_rep_verify_maslov0, _limit_flags(8, 100, triples=(int, 1000, False)), True),
    "rep-certificate": (_cmd_rep_certificate, _limit_flags(8, 100, probes=(int, 50, False)), True),
    "rep-core": (_cmd_rep_core, _limit_flags(5, 50), True),
    "rep-deform": (_cmd_rep_deform, dict(rep=_REQUIRED, eps=(float, None, True), seed=_SEED), False),
    "hull": (_cmd_hull, dict(model=_REQUIRED, points=_REQUIRED, query=(str, None, False)), False),
    "chart-independence": (_cmd_chart_independence, dict(model=_REQUIRED, n_points=(int, 6, False),
                                                         probes=(int, 10_000, False), seed=_SEED), False),
    "ein-invisible": (_cmd_ein_invisible, dict(model=_REQUIRED, limit=_REQUIRED, query=_REQUIRED), False),
    "ein-photon-convexity": (_cmd_ein_photon_convexity, dict(model=_REQUIRED, limit=_REQUIRED,
                                                             photons=(int, 1000, False), seed=_SEED), False),
    "hilbert": (_cmd_hilbert, dict(domain=(str, "interval", False), x=_REQUIRED, y=_REQUIRED), False),
}


def _build_parser():
    """The parser, and the subparser of each subcommand, both read off _COMMANDS."""
    p = argparse.ArgumentParser(prog="causalflag")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for attr, (kind, default, required) in {**_COMMON, "config": (str, None, False), **flags}.items():
            sp.add_argument("--" + attr.replace("_", "-"), type=kind,
                            **({"required": True} if required else {"default": default}))
    return p, sub.choices


def _apply_config(args, subparser):
    """Check the config against the subcommand's row, make its flag values the subparser's defaults
    (main then parses the command line again over them, so given flags win) and return its tolerances."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SystemExit("config must be a JSON object")
    _, flags, reads_tolerances = _COMMANDS[args.command]
    flags = {**_COMMON, **flags}
    tol, defaults = {}, {}
    for key, value in cfg.items():
        if key == "tolerances":
            if not isinstance(value, dict):
                raise SystemExit("tolerances must be an object")
            for tk, tv in value.items():
                if tk not in TOLERANCE_KEYS:
                    raise SystemExit(f"unknown tolerance key {tk!r}")
                if not reads_tolerances:
                    readers = sorted(name for name, row in _COMMANDS.items() if row[2])
                    raise SystemExit(f"tolerance {tk!r} is not read by {args.command}; "
                                     f"only {', '.join(readers)} read it")
                if not _is_kind(tv, float):
                    raise SystemExit(f"tolerance {tk!r} takes a number, got {tv!r}")
                tv = float(tv)
                if not 1e-14 <= tv <= 1e-3:
                    raise SystemExit(f"tolerance {tk!r} = {tv} outside [1e-14, 1e-3]")
                tol[tk] = tv
            continue
        attr = key.replace("-", "_")
        if attr not in flags:
            raise SystemExit(f"unknown config key {key!r} for {args.command}")
        kind, _, required = flags[attr]
        if required:
            raise SystemExit(f"config key {key!r} names a required flag of {args.command}, "
                             f"which only the command line can give")
        if not _is_kind(value, kind):
            raise SystemExit(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
        defaults[attr] = value
    subparser.set_defaults(**defaults)
    return tol


def _is_kind(value, kind):
    """Whether a JSON value has a flag's type: a float flag takes any number, a bool is no number."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0,) else 0
    run, flags, _ = _COMMANDS[args.command]
    try:
        tol = {}
        if args.config:
            tol = _apply_config(args, subparsers[args.command])
            args = parser.parse_args(argv)
        if "model" in flags:
            args.model = model_preset(args.model)
        if "rep" in flags:
            args.rep = _load_rep(args.rep)
        report, passed = run(args, tol)
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
    envelope = {"command": args.command, "report": report, "passed": bool(passed)}
    if "seed" in flags:
        envelope["seed"] = args.seed
    _write_report(args.out, envelope)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
