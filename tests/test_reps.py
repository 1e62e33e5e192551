"""Presets, word balls, gap reports, limit sets, certificates, deformations."""

import numpy as np
import pytest

from causalflag.errors import (
    BallTooLarge,
    ModelMismatch,
    NoGap,
    NonConvergence,
    NotInLevi,
    TooFewPoints,
    UnknownPreset,
)
from causalflag.groups import GroupElement, group_exp, levi_block, model_preset, random_lie_element
from causalflag.kmat import KMat
from causalflag.reps import (
    Representation,
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
from causalflag.shilov import act, transversality_margin


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
    bad = gens[rep.gen_names[0]].g.embed().real.copy()
    bad[0, 0] = np.nan
    gens[rep.gen_names[0]] = GroupElement(rep.model, KMat("R", bad), _check=False)
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


def test_pingpong_fails_for_surface_group():
    # a genus-2 group is not free; no disjoint arc system of this width exists
    cert = pingpong_certificate(preset("genus2-sl2"))
    assert not cert["passed"]
    assert cert["separation_margin"] < 0.0


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


def library_ball(rep, max_len):
    """The ball with the dedup tolerance the library's pipelines use."""
    return enumerate_ball(rep, max_len, dedup_tol=1e-9 if rep.relator else None)


def reference_ball(rep, max_len, tol):
    """Per-word enumeration: one KMat product and one rounding bucket per word."""

    def bucket(g):
        E = g.embed()
        return (np.round(E.real / tol).astype(np.int64).tobytes(),
                np.round(E.imag / tol).astype(np.int64).tobytes())

    ident = KMat.eye(rep.model.tag, rep.model.dim)
    seen = {bucket(ident)}
    words, removed = [], 0
    frontier = [((), ident)]
    for _ in range(max_len):
        nxt = []
        for word, g in frontier:
            for letter in sorted(rep.letters):
                if word and letter == word[-1].swapcase():
                    continue
                g2 = g @ rep.gens[letter].g
                key = bucket(g2)
                if key in seen:
                    removed += 1
                    continue
                seen.add(key)
                words.append(word + (letter,))
                nxt.append((word + (letter,), g2))
        frontier = nxt
    return words, removed


@pytest.mark.parametrize("pid", ALL_PRESETS)
def test_ball_stack_equals_word_products(pid):
    rep = preset(pid)
    ball = library_ball(rep, 3)
    assert len(ball.stack) == len(ball.words)
    assert ball.lengths.tolist() == [len(w) for w in ball.words]
    for i, word in enumerate(ball.words):
        E = rep.word_element(word).g.embed()
        assert np.array_equal(ball.stack[i], E)
        assert np.array_equal(ball.element(i).g.embed(), E)


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
        enumerate_ball(rep, 30, cap=10**4)


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
        2.0 * max(np.log(np.linalg.svd(rep.word_element(w).g.embed(), compute_uv=False)[k]), 0.0)
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
        s = np.linalg.svd(levi_block(rep.word_element(word)).embed(), compute_uv=False)
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


def reference_limit_words(rep, max_len, seed=0, per_length_cap=100, margin_floor=1e-6):
    """Kept words of the pairwise keep/merge scan over attracting points."""
    ball = library_ball(rep, max_len)
    rng = np.random.default_rng(seed)
    chosen = []
    for L in range(3, max_len + 1):
        idx = np.nonzero(ball.lengths == L)[0]
        if len(idx) > per_length_cap:
            idx = np.sort(rng.choice(idx, size=per_length_cap, replace=False))
        chosen.extend(int(i) for i in idx)
    points, words = [], []
    for i in chosen:
        try:
            pt = attracting_point(rep.word_element(ball.words[i]), seed=seed)
        except (NoGap, NonConvergence):
            continue
        if any(pt.distance(q) < 1e-6 or transversality_margin(pt, q) <= margin_floor
               for q in points):
            continue
        points.append(pt)
        words.append(ball.words[i])
    return words


@pytest.mark.parametrize("pid", ["tau0-sp4-f2", "tau0-sostar8-f2", "tau0-sp4-genus2"])
def test_limit_sample_keeps_the_reference_words(pid):
    rep = preset(pid)
    sample = sample_limit_set(rep, 6 if rep.relator is None else 4, seed=0)
    assert sample.words == reference_limit_words(rep, 6 if rep.relator is None else 4)
    assert len(sample) >= 20


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
    h = group_exp(rep.model, (0.3 / Z.norm()) * Z)
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


def test_proper_domain_certificate():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 6, seed=0)
    cert = proper_domain_certificate(rep, sample, probe_count=20, seed=0)
    assert cert["passed"]
    assert cert["min_margin"] > 1e-6
    # the dual diamond center should win immediately for the Levi preset
    assert cert["candidate"] == "dual_center"


def test_convex_core_residual_shrinks():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 7, seed=0)
    base = [domain_center(rep.model)]
    res = [convex_core_sample(rep, sample, base, L)["ideal_residual"] for L in (2, 4, 6)]
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.01


def test_deform_moves_generators_continuously():
    rep = preset("tau0-sp4-genus2")
    for eps in (1e-4, 1e-3):
        bent = deform(rep, eps, seed=0)
        for name in rep.gen_names:
            move = (bent.gens[name].g - rep.gens[name].g).norm()
            assert 0.0 < move < 10.0 * eps * max(1.0, rep.gens[name].g.norm())
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
    h = group_exp(rep.model, (0.3 / Z.norm()) * Z)
    assert anosov_gap_report(conjugate(rep, h), 4)["passed"]


def test_rep_json_roundtrip():
    rep = preset("tau0-sp4-genus2")
    back = Representation.from_json(rep.to_json())
    assert back.gen_names == rep.gen_names
    assert back.relator == rep.relator
    for name in rep.gen_names:
        assert (back.gens[name].g - rep.gens[name].g).norm() < 1e-14


def test_dual_center_is_past_of_center():
    from causalflag.causal import FutureRelation, future_membership
    from causalflag.shilov import chart_coordinates

    for name in ["sp4", "su22", "sostar8", "so42"]:
        model = model_preset(name)
        lo = chart_coordinates(dual_center(model))
        hi = chart_coordinates(domain_center(model))
        assert future_membership(model, lo, hi) == FutureRelation.STRICT_FUTURE
