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
from causalflag import reps
from causalflag.groups import (
    GroupElement,
    alpha_r,
    group_exp,
    levi_block,
    lyapunov_projection,
    model_preset,
    random_lie_element,
    tau_p,
)
from causalflag.kmat import norm, product
from causalflag.reps import (
    EXCLUSION_REASONS,
    GAP_FLOOR,
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


def reference_attract(g, seed=0, tol=1e-12, max_iter=10_000):
    """Per-word power iteration: (attracting point, invariance residual) of one element.

    One QR, projector and norm per step, with the gap test of
    lyapunov_projection; the stacked iteration must match it bit for bit.
    """
    model = g.model
    if alpha_r(lyapunov_projection(g)) <= GAP_FLOOR:
        raise NoGap("no eigenvalue-modulus gap at the boundary rank")
    E = g.g * (1.0 / np.max(np.abs(g.g)))
    if model.is_lagrangian:
        ncols = model.rank * (2 if model.tag == "H" else 1)
    else:
        ncols = 1
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((E.shape[0], ncols)) + 1j * rng.standard_normal((E.shape[0], ncols))
    Z, _ = np.linalg.qr(Z)
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
    return ReferencePoint(model, Z.real if model.tag == "R" else Z), residual


def reference_limit_words(rep, max_len, seed=0, per_length_cap=100, margin_floor=1e-6):
    """Words, residuals, points and exclusion counts of the per-word keep/merge scan."""
    ball = library_ball(rep, max_len)
    rng = np.random.default_rng(seed)
    chosen = []
    for L in range(3, max_len + 1):
        idx = np.nonzero(ball.lengths == L)[0]
        if len(idx) > per_length_cap:
            idx = np.sort(rng.choice(idx, size=per_length_cap, replace=False))
        chosen.extend(int(i) for i in idx)
    points, words, residuals = [], [], []
    excluded = dict.fromkeys(EXCLUSION_REASONS, 0)
    for i in chosen:
        try:
            pt, res = reference_attract(ball.element(i), seed=seed)
        except NoGap:
            excluded["no_gap"] += 1
            continue
        except NonConvergence as err:
            excluded["residual" if "residual" in str(err) else "no_convergence"] += 1
            continue
        if any(pt.distance(q) < 1e-6 for q in points):
            excluded["near"] += 1
            continue
        if any(transversality_margin(pt, q) <= margin_floor for q in points):
            excluded["margin"] += 1
            continue
        points.append(pt)
        words.append(ball.words[i])
        residuals.append(res)
    return {"words": words, "residuals": residuals, "points": points, "excluded": excluded,
            "drawn": len(chosen)}


def check_limit_sample_against_reference(pid, seed):
    """sample_limit_set equals the per-word scan: words, residuals, points and exclusion counts."""
    rep = preset(pid)
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
    assert len(check_limit_sample_against_reference(pid, 0)) >= 20
    check_limit_sample_against_reference(pid, 3)


@pytest.mark.parametrize("pid", ["f2-fuchsian-sl2", "tau0-su22-f2", "genus2-sl2"])
def test_limit_sample_equals_per_word_reference(pid):
    for seed in (0, 3):
        check_limit_sample_against_reference(pid, seed)


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


def test_proper_domain_certificate():
    rep = preset("tau0-sp4-f2")
    sample = sample_limit_set(rep, 6, seed=0)
    cert = proper_domain_certificate(rep, sample, probe_count=20, seed=0)
    assert cert["passed"]
    assert cert["min_margin"] > 1e-6
    # the dual diamond center should win immediately for the Levi preset
    assert cert["candidate"] == "dual_center"


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
        O = np.stack([pt.projector() for pt in orbit_pts])
        S = np.stack([pt.projector() for pt in sample.points])
        o2 = np.real(np.einsum("kij,kij->k", O, np.conj(O)))
        s2 = np.real(np.einsum("kij,kij->k", S, np.conj(S)))
        cross = np.real(np.einsum("kij,lij->kl", S, np.conj(O)))
        d2 = np.maximum(s2[:, None] + o2[None, :] - 2.0 * cross, 0.0)
        residual = float(np.max(np.sqrt(np.min(d2, axis=1))))
        # the Hausdorff frame distance, up to roundoff
        assert residual == pytest.approx(max(min(pt.distance(q) for q in orbit_pts) for pt in sample.points), abs=1e-7)
    return core, residual, len(orbit_pts), len(coords)


@pytest.mark.parametrize("pid,max_len", [("tau0-sp4-f2", 6), ("tau0-sp4-genus2", 4), ("tau0-sostar8-f2", 5)])
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
            assert np.array_equal(X.embed(), U.embed()) and np.array_equal(Y.embed(), V.embed())
        assert out["ideal_residual"] == residual


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


def test_verify_maslov_zero_needs_a_triple():
    sample = sample_limit_set(preset("tau0-sp4-f2"), 4, seed=0)
    with pytest.raises(ValueError, match="at least 1"):
        verify_maslov_zero(sample, 0)
