"""Presets, word balls, gap reports, limit sets, certificates, deformations."""

import itertools

import numpy as np
import pytest

from causalflag.errors import (
    BallTooLarge,
    IllConditioned,
    ModelMismatch,
    NoCertificate,
    NoGap,
    NonConvergence,
    NotInLevi,
    Singular,
    TooFewPoints,
    UnknownPreset,
)
from causalflag import reps
from causalflag.groups import (
    GroupElement,
    group_exp,
    levi_block,
    model_preset,
    random_lie_element,
    tau_p,
)
from causalflag.kmat import embed_real, norm, product
from causalflag.reps import (
    EXCLUSION_REASONS,
    GAP_FLOOR,
    LimitSample,
    Representation,
    _attracting_frames,
    anosov_gap_report,
    attracting_point,
    conjugate,
    convex_core_sample,
    deform,
    domain_center,
    dual_center,
    enumerate_ball,
    levi_gap_report,
    pingpong_certificate,
    preset,
    proper_domain_certificate,
    relator_residual,
    sample_limit_set,
    verify_maslov_zero,
)
from causalflag.causal import _random_hermitian, causal_hull
from reference_points import (
    ReferencePoint,
    reference_act,
    reference_chart_coordinates,
    reference_pingpong_certificate,
    reference_quat_frame,
)
from causalflag.shilov import (
    act,
    base_points,
    chart_point,
    transversality_margin,
    transversality_margins,
)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("nope")


def test_presets_build_and_pair_inverses():
    for pid in ["f2-fuchsian-sl2", "tau0-sp4-f2", "tau0-su22-f2",
                "tau0-sostar8-f2", "genus2-sl2", "tau0-sp4-genus2"]:
        rep = preset(pid)
        assert set(rep.gen_names) <= set(rep.gens)
        for name in rep.gen_names:
            assert rep.gens[name].form_defect() < 1e-10


def test_inverse_pairing_check_rejects_nan():
    rep = preset("tau0-sp4-f2")
    gens = dict(rep.gens)
    bad = gens[rep.gen_names[0]].g.copy()
    bad[0, 0] = np.nan
    gens[rep.gen_names[0]] = GroupElement(rep.model, bad, _check=False)
    with pytest.raises(ModelMismatch):
        Representation(rep.model, gens, rep.gen_names)


def test_genus2_relator_vanishes():
    for pid in ["genus2-sl2", "tau0-sp4-genus2"]:
        rep = preset(pid)
        assert relator_residual(rep) < 1e-8


def test_pingpong_certificate_free_pair():
    cert = pingpong_certificate(preset("f2-fuchsian-sl2"))
    assert cert["passed"]
    assert cert["separation_margin"] > 0.0
    assert cert["contraction_margin"] > 0.0


def test_pingpong_certificate_runs_on_the_rank_one_model_alone():
    # a Levi preset is built from SL(2, R) too, but its generators are 4 x 4
    with pytest.raises(ModelMismatch):
        pingpong_certificate(preset("tau0-sp4-f2"))


def test_pingpong_fails_for_surface_group():
    # a genus-2 group is not free; no disjoint arc system of this width exists
    cert = pingpong_certificate(preset("genus2-sl2"))
    assert not cert["passed"]
    assert cert["separation_margin"] < 0.0


def _sl2_rep(sl2_gens, h=None):
    """The rank-one representation of SL(2, R) generators, conjugated by h if given."""
    model = model_preset("sp2")
    rep = Representation(model, reps._lift_sl2(sl2_gens, model), tuple(sorted(sl2_gens)))
    return rep if h is None else conjugate(rep, GroupElement(model, h))


def _pingpong_outcome(check, rep):
    try:
        return check(rep)
    except (NoGap, ModelMismatch) as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("case", ["lam1.5", "lam3", "lam10", "conjugated", "surface", "elliptic", "rank2"])
def test_pingpong_certificate_equals_the_per_angle_loop(case):
    # bit for bit: centres, both margins, the verdict, or the same error
    if case.startswith("lam"):
        rep = _sl2_rep(reps._free_pair_sl2(float(case[3:])))
    elif case == "conjugated":
        rep = _sl2_rep(reps._free_pair_sl2(3.0), h=np.array([[2.0, 1.0], [0.5, 0.75]]))
    elif case == "elliptic":
        rep = _sl2_rep({"a": np.diag([3.0, 1.0 / 3.0]), "b": reps._rot(0.3)})
    else:
        rep = preset({"surface": "genus2-sl2", "rank2": "tau0-sp4-f2"}[case])
    got = _pingpong_outcome(pingpong_certificate, rep)
    assert repr(got) == repr(_pingpong_outcome(reference_pingpong_certificate, rep))
    if case in ("elliptic", "rank2"):
        assert got[0] == {"elliptic": "NoGap", "rank2": "ModelMismatch"}[case]
    else:
        assert set(got) == {"half_width", "centers", "separation_margin", "contraction_margin", "passed"}


def test_free_ball_counts():
    rep = preset("tau0-sp4-f2")
    ball = enumerate_ball(rep, 3)
    # 4 + 4*3 + 12*3 reduced words on two generators
    assert len(ball.words) == 52
    lengths = ball.lengths
    assert list(np.bincount(lengths)[1:]) == [4, 12, 36]
    # ordered by (length, word)
    assert ball.words == sorted(ball.words, key=lambda w: (len(w), w))


def test_surface_ball_is_strictly_smaller_than_free():
    rep = preset("genus2-sl2")
    ball = enumerate_ball(rep, 4, dedup_tol=1e-9)
    free = 8 + 8 * 7 + 8 * 49 + 8 * 343
    assert len(ball.words) < free
    assert ball.dedup["removed"] > 0


ALL_PRESETS = ["f2-fuchsian-sl2", "tau0-sp4-f2", "tau0-su22-f2",
               "tau0-sostar8-f2", "genus2-sl2", "tau0-sp4-genus2"]


library_ball = reps._pipeline_ball  # the ball the library's pipelines enumerate


def reference_ball(rep, max_len, tol):
    """Per-word enumeration: one product and one rounding bucket per word."""

    def bucket(E):
        return (np.round(E.real / tol).astype(np.int64).tobytes(),
                np.round(E.imag / tol).astype(np.int64).tobytes())

    ident = GroupElement.identity(rep.model).g
    seen = {bucket(ident)}
    words, removed = [], 0
    frontier = [((), ident)]
    for _ in range(max_len):
        nxt = []
        for word, g in frontier:
            for letter in sorted(rep.letters):
                if word and letter == word[-1].swapcase():
                    continue
                g2 = product(g, rep.gens[letter].g, rep.model.tag)
                key = bucket(g2)
                if key in seen:
                    removed += 1
                    continue
                seen.add(key)
                words.append(word + (letter,))
                nxt.append((word + (letter,), g2))
        frontier = nxt
    return words, removed


@pytest.mark.parametrize("pid", ALL_PRESETS + ["tau0-sostar8-f2-deformed"])
def test_ball_stack_equals_word_products(pid):
    # the deformed quaternionic generators have j-parts, where only one product formula gives equal bits
    rep = preset(pid.removesuffix("-deformed"))
    if pid.endswith("-deformed"):
        rep = deform(rep, 1e-3, seed=0)
    ball = library_ball(rep, 3)
    assert len(ball.stack) == len(ball.words)
    assert ball.lengths.tolist() == [len(w) for w in ball.words]
    for i, word in enumerate(ball.words):
        E = rep.word_element(word).g
        assert np.array_equal(ball.stack[i], E)
        assert np.array_equal(ball.element(i).g, E)


@pytest.mark.parametrize("pid", ["genus2-sl2", "tau0-sp4-genus2"])
def test_surface_ball_dedup_matches_per_word_reference(pid):
    rep = preset(pid)
    ball = enumerate_ball(rep, 4, dedup_tol=1e-9)
    words, removed = reference_ball(rep, 4, 1e-9)
    assert ball.words == words
    assert ball.dedup["removed"] == removed > 0


def test_ball_cap():
    rep = preset("tau0-sp4-f2")
    with pytest.raises(BallTooLarge):
        enumerate_ball(rep, 30)


def assert_same_ball(ball, fresh):
    assert ball.max_len == fresh.max_len
    assert ball.words == fresh.words
    assert ball.stack.tobytes() == fresh.stack.tobytes()
    assert ball.lengths.tolist() == fresh.lengths.tolist()
    assert ball.dedup == fresh.dedup


@pytest.mark.parametrize("order", ["short_first", "long_first"])
@pytest.mark.parametrize("pid", ALL_PRESETS)
def test_cached_ball_serves_every_shorter_ball_as_a_fresh_build(pid, order):
    tol = reps.DEDUP_TOL if preset(pid).relator else None
    top = 4 if pid == "tau0-sostar8-f2" else 5
    lengths = range(1, top + 1) if order == "short_first" else range(top, 0, -1)
    rep = preset(pid)
    for L in lengths:
        # a fresh rep builds the ball from scratch
        assert_same_ball(enumerate_ball(rep, L, dedup_tol=tol), enumerate_ball(preset(pid), L, dedup_tol=tol))


def test_cached_ball_is_shared_read_only_and_still_capped():
    rep = preset("tau0-sp4-f2")
    ball = enumerate_ball(rep, 10)
    assert enumerate_ball(rep, 10) is ball
    for array in (ball.stack, enumerate_ball(rep, 4).stack, ball.lengths):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(BallTooLarge):  # 2 (3^16 - 1) free words, past BALL_CAP
        enumerate_ball(rep, 16)


def test_cached_ball_stays_with_its_representation():
    rep = preset("tau0-sp4-genus2")
    twin = Representation(rep.model, rep.gens, rep.gen_names, preset_id=rep.preset_id, relator=rep.relator)
    before = repr(rep.to_json())
    assert rep == twin
    reps._pipeline_ball(rep, 3)
    assert rep._memo and rep == twin and repr(rep.to_json()) == before
    h = GroupElement.identity(rep.model)
    for other in (deform(rep, 1e-3), conjugate(rep, h), Representation.from_json(rep.to_json())):
        assert other._memo == {}


def test_every_spelling_of_a_call_shares_one_memo_entry(monkeypatch):
    # positional, keyword and default arguments bind to one key: one ball, one report and one SVD pass
    rep = preset("tau0-sp4-f2")
    rows = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda E, **kw: rows.append(len(E)) or svd(E, **kw))
    balls = [enumerate_ball(rep, 6), enumerate_ball(rep, max_len=6), enumerate_ball(rep, 6, dedup_tol=None),
             enumerate_ball(rep, max_len=6, dedup_tol=None)]
    assert all(ball is balls[0] for ball in balls)
    reports = [anosov_gap_report(rep, 6), anosov_gap_report(rep, max_len=6)]
    assert reports[0] == reports[1] and reports[0] is not reports[1]
    assert len(rows) == 1
    assert sorted(key[0] for key in rep._memo) == ["anosov_gap_report", "enumerate_ball"]


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9])
def test_dedup_tol_must_be_none_or_positive_and_finite(tol):
    rep = preset("genus2-sl2")
    with pytest.raises(ValueError, match="dedup_tol"):
        enumerate_ball(rep, 3, dedup_tol=tol)
    assert rep._memo == {}


def test_gap_reports_pass():
    for pid in ["tau0-sp4-f2", "tau0-sp4-genus2"]:
        report = anosov_gap_report(preset(pid), 5)
        assert report["passed"]
        assert report["slope"] > 0.05
        assert report["zero_gap_words"] == 0
        mins = [report["per_length_min"][str(L)] for L in range(1, 6)]
        assert mins[0] > 0.0


def reference_gap_report(rep, max_len):
    ball = library_ball(rep, max_len)
    model = rep.model
    k = (model.rank - 1) * (2 if model.tag == "H" else 1) if model.is_lagrangian else 1
    alphas = np.array([
        2.0 * max(np.log(np.linalg.svd(rep.word_element(w).g, compute_uv=False)[k]), 0.0)
        for w in ball.words
    ])
    per_length_min = {L: float(np.min(alphas[ball.lengths == L])) for L in range(1, max_len + 1)}
    slope, intercept = np.polyfit(np.arange(1, max_len + 1), list(per_length_min.values()), 1)
    zero_words = int(np.sum(alphas <= 0.0))
    return {
        "max_len": max_len,
        "n_words": len(ball.words),
        "slope": float(slope),
        "intercept": float(intercept),
        "min_margin": float(np.min(alphas)),
        "zero_gap_words": zero_words,
        "per_length_min": {str(L): v for L, v in per_length_min.items()},
        "passed": bool(slope > 0.05 and zero_words == 0),
    }


def reference_levi_report(rep, max_len):
    half = rep.model.rank // 2
    mult = 2 if rep.model.tag == "H" else 1
    uppers, lowers, violations = [], [], []
    for word in library_ball(rep, max_len).words:
        if len(word) <= 2:
            continue
        s = np.linalg.svd(levi_block(rep.word_element(word)), compute_uv=False)
        uppers.append(np.log(s[(half - 1) * mult]))
        lowers.append(np.log(s[half * mult]))
        if not (uppers[-1] > 0.0 > lowers[-1]):
            violations.append("".join(word))
    return {
        "max_len": max_len,
        "words_checked": len(uppers),
        "violations": violations[:20],
        "n_violations": len(violations),
        "min_upper": float(min(uppers)),
        "max_lower": float(max(lowers)),
        "passed": not violations,
    }


@pytest.mark.parametrize("pid,max_len", [("tau0-sp4-f2", 5), ("tau0-su22-f2", 4),
                                         ("tau0-sostar8-f2", 4), ("tau0-sp4-genus2", 3)])
def test_gap_reports_equal_per_element_references(pid, max_len):
    rep = preset(pid)
    assert anosov_gap_report(rep, max_len) == reference_gap_report(rep, max_len)
    assert levi_gap_report(rep, max_len) == reference_levi_report(rep, max_len)


def reference_attract(g, seed=0, tol=1e-12, max_iter=10_000, field=None):
    """Per-word power iteration: (attracting point, invariance residual) of one element.

    One QR, projector and norm per step, after the gap test on this
    element's own eigenvalue moduli; the stacked iteration must match it
    bit for bit.  field is the arithmetic of the iteration and of the
    point's QR, float on the real families and complex on the others by
    default; complex on a real family is the complex construction.
    """
    model = g.model
    mods = np.sort(np.abs(np.linalg.eigvals(g.g)))[::-1][:: 2 if model.tag == "H" else 1]
    if model.is_lagrangian:
        gap = 2.0 * max(np.log(mods[model.rank - 1]), 0.0)
    else:
        gap = np.log(mods[0]) - np.log(mods[1])
    if gap <= GAP_FLOOR:
        raise NoGap("no eigenvalue-modulus gap at the boundary rank")
    E = g.g * (1.0 / np.max(np.abs(g.g)))
    if model.is_lagrangian:
        ncols = model.rank * (2 if model.tag == "H" else 1)
    else:
        ncols = 1
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((E.shape[0], ncols)) + 1j * rng.standard_normal((E.shape[0], ncols))
    field = field or (float if model.tag == "R" else complex)
    Z, _ = np.linalg.qr(Z.real if field is float else Z)  # the real starting frame in real arithmetic
    P_prev = Z @ np.conj(Z).T
    for _ in range(max_iter):
        Z, _ = np.linalg.qr(E @ Z)
        P = Z @ np.conj(Z).T
        move = np.linalg.norm(P - P_prev)
        P_prev = P
        if move < tol:
            break
    else:
        raise NonConvergence(f"power iteration did not settle below {tol:.1e}")
    GZ = E @ Z
    residual = float(np.linalg.norm(GZ - Z @ (np.conj(Z).T @ GZ)) / max(np.linalg.norm(GZ), 1e-300))
    if residual > 1e-8:
        raise NonConvergence(f"invariance residual {residual:.3e}")
    if not model.is_lagrangian:
        return ReferencePoint(model, np.real(Z[:, 0])), residual
    if model.tag == "H":
        return ReferencePoint(model, reference_quat_frame(Z)), residual
    return ReferencePoint(model, (Z.real if model.tag == "R" else Z).astype(field)), residual


def reference_dedup(points, margin_floor=1e-6):
    """The per-pair keep/merge scan: -1 for a kept point, else why it was dropped (near first, then margin)."""
    kept, verdicts = [], []
    for pt in points:
        if any(pt.distance(q) < 1e-6 for q in kept):
            verdicts.append(reps._NEAR)
        elif any(transversality_margin(pt, q) <= margin_floor for q in kept):
            verdicts.append(reps._MARGIN)
        else:
            verdicts.append(-1)
            kept.append(pt)
    return verdicts


def reference_limit_words(rep, max_len, seed=0, per_length_cap=100, margin_floor=1e-6, field=None):
    """Words, residuals, points and exclusion counts of the per-word keep/merge scan (reference_attract's field)."""
    ball = library_ball(rep, max_len)
    rng = np.random.default_rng(seed)
    chosen = []
    for L in range(3, max_len + 1):
        idx = np.nonzero(ball.lengths == L)[0]
        if len(idx) > per_length_cap:
            idx = np.sort(rng.choice(idx, size=per_length_cap, replace=False))
        chosen.extend(int(i) for i in idx)
    settled = []
    excluded = dict.fromkeys(EXCLUSION_REASONS, 0)
    for i in chosen:
        try:
            pt, res = reference_attract(ball.element(i), seed=seed, field=field)
        except NoGap:
            excluded["no_gap"] += 1
            continue
        except NonConvergence as err:
            excluded["residual" if "residual" in str(err) else "no_convergence"] += 1
            continue
        settled.append((pt, ball.words[i], res))
    verdicts = reference_dedup([pt for pt, _, _ in settled], margin_floor)
    for v in verdicts:
        if v >= 0:
            excluded[EXCLUSION_REASONS[v]] += 1
    points, words, residuals = ([item[k] for item, v in zip(settled, verdicts) if v < 0] for k in range(3))
    return {"words": words, "residuals": residuals, "points": points, "excluded": excluded,
            "drawn": len(chosen)}


def check_limit_sample_against_reference(rep, seed):
    """sample_limit_set equals the per-word scan: words, residuals, points and exclusion counts."""
    max_len = 4 if rep.relator else 6
    sample = sample_limit_set(rep, max_len, seed=seed)
    ref = reference_limit_words(rep, max_len, seed=seed)
    assert sample.words == ref["words"]
    assert sample.residuals == ref["residuals"]
    assert sample.word_lengths == [len(w) for w in ref["words"]]
    assert all(np.array_equal(p.ortho, q.ortho) for p, q in zip(sample.points, ref["points"]))
    assert sample.excluded == ref["excluded"]
    assert sum(sample.excluded.values()) + len(sample) == ref["drawn"]
    return sample


@pytest.mark.parametrize("pid", ["tau0-sp4-f2", "tau0-sostar8-f2", "tau0-sp4-genus2"])
def test_limit_sample_keeps_the_reference_words(pid):
    assert len(check_limit_sample_against_reference(preset(pid), 0)) >= 20
    check_limit_sample_against_reference(preset(pid), 3)


@pytest.mark.parametrize("pid", ["f2-fuchsian-sl2", "tau0-su22-f2", "genus2-sl2"])
def test_limit_sample_equals_per_word_reference(pid):
    for seed in (0, 3):
        check_limit_sample_against_reference(preset(pid), seed)


def _bisect(f, target, lo=0.0, hi=1e-3):
    """A parameter in [lo, hi] where f, increasing through target there, meets it: 100 halvings."""
    assert f(lo) < target < f(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def _margin_curve(model, rng, X):
    """Chart coordinates apart(e) whose margin to the point of X rises from 0 at e = 0."""
    if model.is_lagrangian:
        eye = embed_real(np.eye(model.rank), model.tag)
        W = _random_hermitian(model, rng)
        W = W - np.min(np.linalg.eigvalsh(W)) * eye  # one zero eigenvalue: not transverse at e = 0
        return lambda e: X + W + e * eye
    light = np.zeros(model.rank)
    light[[0, -1]] = 1.0  # a lightlike chart vector
    return lambda e: X + light + e * np.eye(model.rank)[0]


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "so22", "so42"])
def test_dedup_gives_the_per_pair_verdicts_at_both_thresholds(name):
    # a point, two copies of it at projector distance 1e-6 (1 -+ 1e-9), and two points at margin
    # margin_floor (1 -+ 1e-9) from it: kept, near, margin (not near, but not transverse), margin, kept
    model = model_preset(name)
    rng = np.random.default_rng(8)
    floor = 1e-6
    draw = (lambda: _random_hermitian(model, rng)) if model.is_lagrangian else (
        lambda: rng.standard_normal(model.rank))
    X = 0.5 * draw()
    H = draw()
    copy, apart = (lambda s: X + s * H), _margin_curve(model, rng, X)
    p = chart_point(model, X)
    distance = lambda s: p.distance(chart_point(model, copy(s)))
    margin = lambda e: transversality_margin(p, chart_point(model, apart(e)))
    points = [p] + [chart_point(model, copy(_bisect(distance, 1e-6 * (1 + t)))) for t in (-1e-9, 1e-9)]
    points += [chart_point(model, apart(_bisect(margin, floor * (1 + t)))) for t in (-1e-9, 1e-9)]
    verdicts = reference_dedup(points, floor)
    assert verdicts == [-1, reps._NEAR, reps._MARGIN, reps._MARGIN, -1]
    orthos = np.stack([pt.ortho for pt in points])
    assert reps._dedup(model, orthos, floor).tolist() == verdicts
    # in another order the first copy is kept, and the point and the second copy are near it
    swapped = [points[k] for k in (1, 0, 2)]
    assert reference_dedup(swapped, floor) == [-1, reps._NEAR, reps._NEAR]
    assert reps._dedup(model, orthos[[1, 0, 2]], floor).tolist() == [-1, reps._NEAR, reps._NEAR]


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "so42"])
@pytest.mark.parametrize("floor", [1e-5, 1e-3])  # above 1e-6: in rank one a margin is a distance over sqrt(2)
def test_dedup_decides_conflicts_across_and_within_blocks(name, floor):
    # 70 points, more than four blocks, with near copies and points under the floor planted against a
    # kept point of the same block and of an earlier block; point 53 is near point 50, kept earlier in
    # its block, and under the floor against point 7, kept before the block: near wins
    model = model_preset(name)
    rng = np.random.default_rng(21)
    draw = (lambda: _random_hermitian(model, rng)) if model.is_lagrangian else (
        lambda: rng.standard_normal(model.rank))
    coords = [2.0 * draw() for _ in range(70)]

    def at_margin(partner, targets):
        p, apart = chart_point(model, coords[partner]), _margin_curve(model, rng, coords[partner])
        margin = lambda e: transversality_margin(p, chart_point(model, apart(e)))
        return [apart(_bisect(margin, t * floor, hi=0.1)) for t in targets]

    coords[5] = coords[2] + 1e-8 * draw()
    coords[9], = at_margin(3, [0.9])
    coords[20] = coords[4] + 1e-8 * draw()
    coords[37], = at_margin(6, [0.9])
    coords[50], coords[53] = at_margin(7, [1.0 + 1e-8 / floor, 1.0 - 1e-8 / floor])
    coords[55], = at_margin(50, [0.9])
    points = [chart_point(model, X) for X in coords]
    assert reps._DEDUP_BLOCK == 16
    assert max(points[i].distance(points[j]) for i, j in ((5, 2), (20, 4), (53, 50))) < 1e-6
    assert transversality_margin(points[53], points[7]) <= floor < transversality_margin(points[50], points[7])
    verdicts = reference_dedup(points, floor)
    planted = {5: reps._NEAR, 9: reps._MARGIN, 20: reps._NEAR, 37: reps._MARGIN, 50: -1, 53: reps._NEAR,
               55: reps._MARGIN}
    assert {i: verdicts[i] for i in planted} == planted
    assert [verdicts[i] for i in (2, 3, 4, 6, 7)] == [-1] * 5
    orthos = np.stack([pt.ortho for pt in points])
    assert reps._dedup(model, orthos, floor).tolist() == verdicts


def _so22_element(A, B):
    """X -> A X B^-1 on M_2(R), in the coordinates (p, s, q, r) in which det X = p^2 + s^2 - q^2 - r^2."""
    def coords(X):
        (a, b), (c, d) = X
        return [(a + d) / 2, (b - c) / 2, (a - d) / 2, (b + c) / 2]

    def matrix(p, s, q, r):
        return np.array([[p + q, s + r], [r - s, p - q]])

    B_inv = np.linalg.inv(B)
    return GroupElement(model_preset("so22"), np.array([coords(A @ matrix(*e) @ B_inv) for e in np.eye(4)]).T)


def _so22_rep(pairs):
    """The SO(2, 2) = SL(2) x SL(2) representation whose generator k acts as X -> A X B^-1, pairs[k] = (A, B)."""
    gens = {}
    for name, (A, B) in pairs.items():
        gens[name] = _so22_element(A, B)
        gens[name.swapcase()] = gens[name].inv()
    return Representation(model_preset("so22"), gens, tuple(sorted(pairs)))


SCHOTTKY = reps._free_pair_sl2()  # diag(3, 1/3) and its pi/4 rotation
DRAWN_L6 = 36 + 3 * 100  # the words sample_limit_set draws from a free pair at max_len 6


@pytest.mark.parametrize("twist", [np.eye(2), np.diag([1.0, -1.0])], ids=["diagonal", "twisted"])
def test_so22_limit_sample_equals_per_word_reference(twist):
    # the SO(2, 2) groups (A, A) and (A, sAs): the dedup's lifts, against the per-word scan
    rep = _so22_rep({k: (A, twist @ A @ twist) for k, A in SCHOTTKY.items()})
    for seed in (0, 3):
        assert len(check_limit_sample_against_reference(rep, seed)) >= 20


@pytest.mark.parametrize("pid", ["f2-fuchsian-sl2", "tau0-sp4-f2", "tau0-sp4-genus2", "genus2-sl2", "so22"])
def test_real_samples_match_the_complex_construction(pid):
    # SP and SO(n, 2) iterate and orthonormalize in real arithmetic, from the real part of the seeded
    # starting frame; the complex construction (the complex starting frame, iteration and QR, and
    # complex orthos in the dedup) is the reference: the same words and excluded counts, and every
    # point within projector distance 1e-10 of the reference's
    rep = _so22_rep({k: (A, A) for k, A in SCHOTTKY.items()}) if pid == "so22" else preset(pid)
    max_len = 4 if rep.relator else 6
    for seed in (1, 4):
        sample = sample_limit_set(rep, max_len, seed=seed)
        ref = reference_limit_words(rep, max_len, seed=seed, field=complex)
        assert (sample.words, sample.excluded) == (ref["words"], ref["excluded"])
        assert sample._orthos.dtype == float
        assert all(np.iscomplexobj(q.ortho) for q in ref["points"]) == rep.model.is_lagrangian
        assert max(np.linalg.norm(p.projector() - q.projector()) for p, q in zip(sample.points, ref["points"])) <= 1e-10


def _reports(rep, max_len):
    return anosov_gap_report(rep, max_len), levi_gap_report(rep, max_len)


@pytest.mark.parametrize("pid,order", [("tau0-sp4-f2", (4, 10, 6)), ("tau0-sp4-genus2", (2, 5, 3)),
                                       ("tau0-sostar8-f2", (3, 7, 5))])
def test_memoised_reports_equal_a_fresh_representations(pid, order):
    # the benchmark sizes, in one call order and warm, then after a longer ball replaced the cached one
    top = max(order)
    fresh = {L: _reports(preset(pid), L) for L in (*order, top - 2)}
    rep = preset(pid)
    for L in (*order, top):
        assert _reports(rep, L) == fresh[L]
    rep = preset(pid)
    assert _reports(rep, top - 2) == fresh[top - 2]
    reps._pipeline_ball(rep, top)
    assert _reports(rep, top) == fresh[top]


def test_a_repeated_report_makes_no_svd(monkeypatch):
    rep = preset("tau0-sp4-f2")
    first = _reports(rep, 6)
    rows = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda E, **kw: rows.append(len(E)) or svd(E, **kw))
    assert _reports(rep, 6) == first
    assert rows == []
    first[0]["per_length_min"].clear()  # each call returns its own copy
    assert _reports(rep, 6)[0]["per_length_min"]


def _stretched_rep():
    """One Sp(4, R) generator diag(e^6.5, e^0.5, e^-6.5, e^-0.5): a word of length k has s_2 / s_1 = e^-6k."""
    model = model_preset("sp4")
    g = GroupElement(model, np.diag(np.exp([6.5, 0.5, -6.5, -0.5])))
    return Representation(model, {"a": g, "A": g.inv()}, ("a",))


def test_singular_words_raise_from_their_length_on_in_either_call_order():
    # e^-24 is above SINGULAR_FLOOR = 1e-12 and e^-30 is not: length 5 is the first to raise
    passing = anosov_gap_report(_stretched_rep(), 4)
    assert passing["passed"]
    for first, second in [(4, 5), (6, 4), (5, 6)]:
        rep = _stretched_rep()
        for L in (first, second, first):
            if L >= 5:
                with pytest.raises(Singular, match="singular value 2 of"):
                    anosov_gap_report(rep, L)
            else:
                assert anosov_gap_report(rep, L) == passing


def test_levi_report_spells_out_the_first_20_violations():
    # two elliptic generators: most words are not split by their Levi singular values
    model = model_preset("sp4")
    gens = {}
    for name, t in (("a", 0.7), ("b", 1.1)):
        g = tau_p(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]), model)
        gens[name], gens[name.upper()] = g, g.inv()
    rep = Representation(model, gens, ("a", "b"))
    report = levi_gap_report(rep, 4)
    assert report["n_violations"] > 20 and len(report["violations"]) == 20
    assert report == reference_levi_report(rep, 4)


def test_so22_schottky_times_identity_has_no_gap():
    # a double top singular value: no gap in mu_1 - mu_2, though 2 mu_2 is large
    rep = _so22_rep({k: (A, np.eye(2)) for k, A in SCHOTTKY.items()})
    assert not anosov_gap_report(rep, 6)["passed"]
    sample = sample_limit_set(rep, 6, seed=3)
    assert len(sample) == 0
    assert sample.excluded == {**dict.fromkeys(EXCLUSION_REASONS, 0), "no_gap": DRAWN_L6}


def test_so22_diagonal_group_has_the_gap():
    # eigenvalue moduli (s^2, 1, 1, s^-2): a gap in mu_1 - mu_2, though mu_2 = 0
    rep = _so22_rep({k: (A, A) for k, A in SCHOTTKY.items()})
    assert anosov_gap_report(rep, 6)["passed"]
    assert len(sample_limit_set(rep, 6, seed=3)) >= 3


def _wedge_so32(g):
    """Lambda^2 g on omega^perp in Lambda^2 R^4 for g in Sp(4, R), as an element of SO(3, 2).

    omega^perp, the kernel of the contraction with omega, is the Euclidean complement of e13 + e24;
    the basis U of it is Euclidean-orthonormal and diagonal for the wedge pairing, with signs (+, +, +, -, -).
    """
    pairs = list(itertools.combinations(range(4), 2))  # e12, e13, e14, e23, e24, e34
    W = np.array([[g[i, k] * g[j, l] - g[i, l] * g[j, k] for k, l in pairs] for i, j in pairs])
    U = np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0],
                  [1, 0, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]]).T / np.sqrt(2.0)
    return GroupElement(model_preset("so32"), U.T @ W @ U)


def test_wedge_image_agrees_with_its_sp4_source():
    # Sp(4, R) / +-1 = SO_0(3, 2) maps mu = (b1, b2) to (b1 + b2, b1 - b2), so both Shilov roots read 2 b2
    rep = preset("tau0-sp4-f2")
    image = Representation(model_preset("so32"), {k: _wedge_so32(g.g) for k, g in rep.gens.items()},
                           rep.gen_names)
    source, target = anosov_gap_report(rep, 8), anosov_gap_report(image, 8)
    assert target["per_length_min"].keys() == source["per_length_min"].keys()
    np.testing.assert_allclose(list(target["per_length_min"].values()),
                               list(source["per_length_min"].values()), rtol=1e-9)
    ours, theirs = sample_limit_set(image, 6, seed=3), sample_limit_set(rep, 6, seed=3)
    assert (ours.words, ours.excluded) == (theirs.words, theirs.excluded)


def test_dedup_raises_where_a_bucket_index_leaves_int64():
    # entries of the genus-2 image's length-5 words pass 9.2e9, where round(x / DEDUP_TOL) leaves int64
    # and every such entry would share one bucket
    rep = preset("tau0-sp4-genus2")
    image = Representation(model_preset("so32"), {k: _wedge_so32(g.g) for k, g in rep.gens.items()},
                           rep.gen_names, relator=rep.relator)
    with pytest.raises(IllConditioned, match="no int64 rounding bucket"):
        anosov_gap_report(image, 5)


def mixed_stack():
    """A fast gapped word, an elliptic element (no gap) and a slowly converging gapped element."""
    rep = preset("tau0-sp4-f2")
    c, s = np.cos(0.7), np.sin(0.7)
    return rep.model, [rep.word_element(("a", "b")),
                       tau_p(np.array([[c, -s], [s, c]]), rep.model),
                       tau_p(np.diag([1.02, 1 / 1.02]), rep.model)]


def test_stacked_iteration_freezes_settled_words():
    model, (fast, elliptic, slow) = mixed_stack()
    Z, residuals, reason = _attracting_frames(model, np.stack([g.g for g in (fast, elliptic, slow)]), 5)
    assert reason.tolist() == [-1, EXCLUSION_REASONS.index("no_gap"), -1]
    for k, g in [(0, fast), (2, slow)]:
        pt, res = reference_attract(g, seed=5)
        assert residuals[k] == res
        assert np.array_equal(attracting_point(g, seed=5).ortho, pt.ortho)
    with pytest.raises(NoGap, match="no eigenvalue-modulus gap"):
        attracting_point(elliptic)


def test_iteration_cap_and_residual_exclusions(monkeypatch):
    model, (fast, elliptic, slow) = mixed_stack()
    E = np.stack([g.g for g in (fast, elliptic, slow)])
    monkeypatch.setattr(reps, "ATTRACT_MAX_ITER", 200)
    _, _, reason = _attracting_frames(model, E, 0)
    assert [EXCLUSION_REASONS[k] if k >= 0 else None for k in reason] == [None, "no_gap", "no_convergence"]
    with pytest.raises(NonConvergence, match="did not settle below 1.0e-12"):
        attracting_point(slow)
    with pytest.raises(NonConvergence):
        reference_attract(slow, max_iter=200)
    monkeypatch.setattr(reps, "ATTRACT_MAX_ITER", 1)
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 4)
    assert len(sample) == 0
    assert sample.excluded == {"no_gap": 0, "no_convergence": 36 + 100, "residual": 0, "near": 0, "margin": 0}
    monkeypatch.setattr(reps, "ATTRACT_MAX_ITER", 10_000)
    monkeypatch.setattr(reps, "ATTRACT_RESIDUAL", -1.0)
    assert sample_limit_set(rep, 4).excluded["residual"] == 36 + 100
    with pytest.raises(NonConvergence, match="invariance residual"):
        attracting_point(fast)


def test_eigenvalue_underflow_counts_as_no_convergence(monkeypatch):
    model = model_preset("sp4")
    g = GroupElement(model, np.diag([1e301, 2.0, 1e-301, 0.5]))
    with pytest.raises(NonConvergence, match="eigenvalue modulus underflow"):
        attracting_point(g)
    underflow = _attracting_frames(model, g.g[None], 0)[2][0]
    stacked = reps._attracting_frames

    def first_word_underflows(model, E, seed):
        Z, residuals, reason = stacked(model, E, seed)
        reason[0] = underflow
        return Z, residuals, reason

    monkeypatch.setattr(reps, "_attracting_frames", first_word_underflows)
    sample = sample_limit_set(preset("tau0-sp4-f2"), 4)
    assert sample.excluded["no_convergence"] == 1
    assert sum(sample.excluded.values()) + len(sample) == 36 + 100


def test_attracting_point_is_fixed():
    rep = preset("tau0-sp4-f2")
    for word in [("a",), ("b", "a"), ("a", "a", "b")]:
        g = rep.word_element(word)
        pt = attracting_point(g)
        assert act(g, pt).distance(pt) < 1e-7


def test_attracting_point_respects_conjugation():
    rep = preset("tau0-sp4-f2")
    rng = np.random.default_rng(13)
    Z = random_lie_element(rep.model, rng)
    h = group_exp(rep.model, (0.3 / norm(Z, rep.model.tag)) * Z)
    g = rep.word_element(("a", "b"))
    lhs = attracting_point(h @ g @ h.inv())
    rhs = act(h, attracting_point(g))
    assert lhs.distance(rhs) < 1e-7


def test_limit_sample_properties():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 6, seed=0)
    assert len(sample) >= 20
    assert max(sample.residuals) < 1e-8
    pts = sample.points
    worst = min(
        transversality_margin(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    assert worst > 1e-6


def test_verify_maslov_zero_small():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 6, seed=0)
    report = verify_maslov_zero(sample, 300, seed=1)
    assert report["violations"] == 0
    with pytest.raises(TooFewPoints):
        verify_maslov_zero(type(sample)([], [], [], []), 10)


def test_proper_domain_certificate(monkeypatch):
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 6, seed=0)
    # the dual diamond center should win immediately for the Levi preset, before any probe is drawn
    monkeypatch.setattr(reps, "_random_hermitian", None)
    cert = proper_domain_certificate(rep, sample, probe_count=20, seed=0)
    assert cert["passed"]
    assert cert["min_margin"] > 1e-6
    assert cert["candidate"] == "dual_center"


@pytest.mark.parametrize("pid", ["tau0-sp4-f2", "tau0-sostar8-f2"])
def test_certificate_without_a_transverse_candidate_raises(pid):
    # the sample holds both fixed candidates, and no probe is drawn: each candidate meets itself
    model = preset(pid).model
    sample = LimitSample([dual_center(model), base_points(model)[1]], [], [], [])
    with pytest.raises(NoCertificate, match="best candidate dual_center has margin"):
        proper_domain_certificate(preset(pid), sample, probe_count=0)


def reference_certificate(rep, sample, probe_count, seed, orbit_len=4):
    """proper_domain_certificate with one act per orbit element."""
    model = rep.model
    ball = library_ball(rep, orbit_len)
    center = domain_center(model)
    orbit = [center] + [reference_act(ball.element(i), center) for i in range(len(ball.words))]
    targets = np.stack([pt.ortho for pt in orbit + list(sample.points)])
    candidates = [("dual_center", dual_center(model)), ("p_minus", base_points(model)[1])]
    rng = np.random.default_rng(seed)
    for k in range(probe_count):
        candidates.append((f"probe_{k}", chart_point(model, 4.0 * _random_hermitian(model, rng))))
    for label, z0 in candidates:
        m = float(np.min(transversality_margins(model, targets, np.broadcast_to(z0.ortho, targets.shape))))
        if m > 1e-6:
            return {"z0": z0, "min_margin": m, "candidate": label, "orbit_size": len(orbit), "passed": True}
    raise AssertionError("no certificate")


def reference_core(rep, sample, base_pts, max_len, orbit_cap=150):
    """convex_core_sample with one act and one chart_coordinates call per orbit point."""
    orbit_pts = list(base_pts)
    if max_len >= 1:
        ball = library_ball(rep, max_len)
        orbit_pts += [reference_act(ball.element(i), bp) for i in range(len(ball.words)) for bp in base_pts]
    coords = [reference_chart_coordinates(pt) for pt in orbit_pts]
    if len(coords) > orbit_cap:
        coords = [coords[i] for i in np.unique(np.linspace(0, len(coords) - 1, orbit_cap).astype(int))]
    core = causal_hull(rep.model, coords)
    residual = None
    if max_len >= 1:
        residual = max(min(pt.distance(q) for q in orbit_pts) for pt in sample.points)
        # the same Hausdorff distance from an entrywise sum of |S_ij - O_ij|^2, with no BLAS norm
        S = np.stack([pt.projector() for pt in sample.points])
        nearest = np.min([np.sqrt(np.sum(np.abs(S - q.projector()) ** 2, axis=(1, 2))) for q in orbit_pts], axis=0)
        assert residual == pytest.approx(float(np.max(nearest)), rel=0, abs=1e-12)
    return core, residual, len(orbit_pts), len(coords)


@pytest.mark.parametrize("pid,max_len", [("tau0-sp4-f2", 6), ("tau0-sp4-genus2", 4), ("tau0-sostar8-f2", 5),
                                         ("f2-fuchsian-sl2", 6)])  # the last passes at a probe
def test_certificate_and_core_equal_per_element_references(pid, max_len):
    rep = preset(pid)
    sample = sample_limit_set(rep, max_len, seed=1)
    cert = proper_domain_certificate(rep, sample, probe_count=5, seed=1)
    ref = reference_certificate(rep, sample, 5, 1)
    assert np.array_equal(cert.pop("z0").ortho, ref.pop("z0").ortho)
    assert cert == ref
    base = [domain_center(rep.model)]
    for L in (0, 2, 3):
        out = convex_core_sample(rep, sample, base, L)
        core, residual, orbit_size, hull_points = reference_core(rep, sample, base, L)
        assert (out["orbit_size"], out["hull_points"]) == (orbit_size, hull_points)
        assert len(out["core"].pairs) == len(core.pairs)
        for (X, Y), (U, V) in zip(out["core"].pairs, core.pairs):
            assert np.array_equal(X, U) and np.array_equal(Y, V)
        assert out["ideal_residual"] == residual


def test_convex_core_residual_shrinks():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 7, seed=0)
    base = [domain_center(rep.model)]
    res = [convex_core_sample(rep, sample, base, L)["ideal_residual"] for L in (2, 4, 6)]
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.01


def test_ideal_residual_resolves_a_tiny_move():
    # limit points against an orbit of their images under an element 2e-11 from the identity: the
    # residual is at most that move, where the expansion |S|^2 + |O|^2 - 2 Re<S, O> leaves a roundoff
    # of about 3e-8; the preset is conjugated because its own limit points lie outside the chart
    # that the orbit's hull is built in
    rep = preset("tau0-sp4-f2")
    Z = random_lie_element(rep.model, np.random.default_rng(3))
    rep = conjugate(rep, group_exp(rep.model, (0.3 / norm(Z, rep.model.tag)) * Z))
    points = sample_limit_set(rep, 5, seed=1).points[:20]
    Z = random_lie_element(rep.model, np.random.default_rng(0))
    g = group_exp(rep.model, (2e-11 / norm(Z, rep.model.tag)) * Z)
    moved = [act(g, pt) for pt in points]
    residual = convex_core_sample(rep, LimitSample(points, [], [], []), moved, 1)["ideal_residual"]
    assert 1e-12 < residual <= max(p.distance(q) for p, q in zip(points, moved))


def test_deform_moves_generators_continuously():
    rep = preset("tau0-sp4-genus2")
    for eps in (1e-4, 1e-3):
        bent = deform(rep, eps, seed=0)
        for name in rep.gen_names:
            move = norm(bent.gens[name].g - rep.gens[name].g, rep.model.tag)
            assert 0.0 < move < 10.0 * eps * max(1.0, norm(rep.gens[name].g, rep.model.tag))
        assert bent.deformation["eps"] == eps
        assert bent.deformation["relator_residual"] < 100.0 * eps


def test_deformed_gap_still_passes():
    bent = deform(preset("tau0-sp4-f2"), 1e-3, seed=0)
    assert anosov_gap_report(bent, 5)["passed"]


def test_levi_gap_report():
    report = levi_gap_report(preset("tau0-sp4-f2"), 4)
    assert report["passed"]
    assert report["min_upper"] > 0.0 > report["max_lower"]
    with pytest.raises(NotInLevi):
        levi_gap_report(preset("f2-fuchsian-sl2"), 4)


def test_conjugated_rep_keeps_the_gap():
    rep = preset("tau0-sp4-f2")
    rng = np.random.default_rng(3)
    Z = random_lie_element(rep.model, rng)
    h = group_exp(rep.model, (0.3 / norm(Z, rep.model.tag)) * Z)
    assert anosov_gap_report(conjugate(rep, h), 4)["passed"]


def test_rep_json_roundtrip():
    rep = preset("tau0-sp4-genus2")
    back = Representation.from_json(rep.to_json())
    assert back.gen_names == rep.gen_names
    assert back.relator == rep.relator
    for name in rep.gen_names:
        assert norm(back.gens[name].g - rep.gens[name].g, rep.model.tag) < 1e-14


def test_dual_center_is_past_of_center():
    from causalflag.causal import FutureRelation, future_membership
    from causalflag.shilov import chart_coordinates

    for name in ["sp4", "su22", "sostar8", "so42"]:
        model = model_preset(name)
        lo = chart_coordinates(dual_center(model))
        hi = chart_coordinates(domain_center(model))
        assert future_membership(model, lo, hi) == FutureRelation.STRICT_FUTURE


def test_limit_sample_needs_words_of_length_3():
    with pytest.raises(TooFewPoints, match="from length 3 on"):
        sample_limit_set(preset("tau0-sp4-f2"), 2)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1e-6])
def test_limit_sample_refuses_a_margin_floor_that_is_not_finite_and_nonnegative(floor):
    # a NaN floor would turn the margin merge off, an infinite one merge every point into the first
    with pytest.raises(ValueError, match="margin_floor"):
        sample_limit_set(preset("tau0-sp4-f2"), 6, seed=3, margin_floor=floor)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 157, 188, 1000, 20000, 2**33])
def test_stacked_triples_are_per_triple_draws_of_distinct_indices(n):
    # one integers call draws the same triples as one call per triple on the same generator
    for seed in range(5):
        rng = np.random.default_rng(seed)
        expected = np.concatenate([reps._distinct_triples(rng, n, 1) for _ in range(200)])
        t = reps._distinct_triples(np.random.default_rng(seed), n, 200)
        assert np.array_equal(t, expected)
        assert t.min() >= 0 and t.max() < n
        assert np.all((t[:, 0] != t[:, 1]) & (t[:, 1] != t[:, 2]) & (t[:, 0] != t[:, 2]))


def test_stacked_triples_are_uniform():
    # each of the 60 ordered triples of distinct indices below 5 within 5 % of its expected 10,000 in 600,000
    t = reps._distinct_triples(np.random.default_rng(0), 5, 600_000)
    counts = np.bincount((t[:, 0] * 5 + t[:, 1]) * 5 + t[:, 2], minlength=125)
    distinct = [(i * 5 + j) * 5 + k for i in range(5) for j in range(5) for k in range(5) if len({i, j, k}) == 3]
    assert np.sum(counts[distinct]) == 600_000
    assert np.all(np.abs(counts[distinct] - 10_000) <= 500)


def test_verify_maslov_zero_needs_a_triple():
    sample = sample_limit_set(preset("tau0-sp4-f2"), 4, seed=0)
    with pytest.raises(ValueError, match="at least 1"):
        verify_maslov_zero(sample, 0)
