"""Einstein universe: sign classifier, photons, invisible domains, Hilbert metric."""

import numpy as np
import pytest

from causalflag.einstein import (
    PHOTON_SCAN,
    _invisible_margins,
    _photon_margins,
    ein_maslov_sign,
    hilbert_distance,
    invisible_domain_membership,
    lightcone_membership,
    negative_lifts,
    pairing,
    photon_convexity_check,
    random_ein_point,
    random_photon,
)
from causalflag.errors import (
    BoundaryNotBracketed,
    IllConditioned,
    LimitSetNotNegative,
    ModelMismatch,
    NotInDomain,
    NotPairwiseTransverse,
)
from causalflag.groups import model_preset
from causalflag.shilov import ShilovPoint
from reference_points import chart_maslov_index, reference_invisible_membership, reference_photon_margins

MODEL = model_preset("so42")


def time_slice_family(n, seed, model=MODEL):
    """Pairwise non-lightcone points on a fixed time slice; negative 3 by 3."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.standard_normal(model.rank)
        x = x / np.linalg.norm(x)
        p = ShilovPoint(model, np.concatenate([x, [1.0, 0.0]]))
        if all(abs(pairing(p, q)) > 1e-3 for q in pts):
            pts.append(p)
    return pts


def test_sign_classifier_is_lift_independent():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (random_ein_point(MODEL, rng) for _ in range(3))
        try:
            s = ein_maslov_sign(a, b, c)
        except NotPairwiseTransverse:
            continue
        b_flip = ShilovPoint(MODEL, -b.frame)
        assert ein_maslov_sign(a, b_flip, c) == s


def test_sign_classifier_matches_general_index():
    # against the chart definition of the index, which shares no sign rule with maslov_indices
    for name in ["so22", "so32", "so42"]:
        model = model_preset(name)
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 100:
            a, b, c = (random_ein_point(model, rng) for _ in range(3))
            if min(abs(pairing(a, b)), abs(pairing(b, c)), abs(pairing(a, c))) < 1e-4:
                continue
            try:
                expected = chart_maslov_index(a, b, c)
            except IllConditioned:
                continue
            checked += 1
            assert ein_maslov_sign(a, b, c) == expected


def test_lightcone_pairs_rejected():
    a = ShilovPoint(MODEL, np.array([1.0, 0, 0, 0, 1.0, 0]))
    b = ShilovPoint(MODEL, np.array([0, 1.0, 0, 0, 1.0, 0]))
    c = ShilovPoint(MODEL, np.array([1.0, 1.0, 0, 0, 1.0, 1.0]))
    # b(a, c) = 1 - 1 = 0: a and c are lightcone related
    assert lightcone_membership(a, c)
    with pytest.raises(NotPairwiseTransverse):
        ein_maslov_sign(a, c, b)


def test_time_slice_family_is_negative():
    pts = time_slice_family(6, seed=5)
    lifts = negative_lifts(pts)
    b = MODEL.form()
    gram = lifts @ b @ lifts.T
    off = gram[~np.eye(len(pts), dtype=bool)]
    assert np.all(off < 0)


def test_non_negative_family_rejected():
    pts = time_slice_family(4, seed=5)
    bad = ShilovPoint(MODEL, pts[0].frame + 1e-12 * np.zeros(6))
    with pytest.raises(LimitSetNotNegative):
        negative_lifts(pts + [bad])


def reference_check_negative(limit_pts):
    """The triple loop: every pair off the lightcone, then every triple of sign 0."""
    n = len(limit_pts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pairing(limit_pts[i], limit_pts[j])) <= 1e-9:
                raise LimitSetNotNegative(f"points {i}, {j} are lightcone-related")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if ein_maslov_sign(limit_pts[i], limit_pts[j], limit_pts[k]) != 0:
                    raise LimitSetNotNegative(f"triple ({i}, {j}, {k}) is not negative")


def verdict(check, pts):
    try:
        check(pts)
    except LimitSetNotNegative as e:
        return str(e)
    return "negative"


@pytest.mark.parametrize("wobble", [0.0, 0.05, 0.3, 1.0])
def test_negativity_matches_the_triple_loop(wobble):
    # families on a wobbled time slice, some with a repeated (lightcone-related) point
    rng = np.random.default_rng(int(100 * wobble))
    seen = set()
    for trial in range(30):
        pts = []
        for _ in range(int(rng.integers(3, 10))):
            x = rng.standard_normal(4)
            t = np.array([1.0, 0.0]) + wobble * rng.standard_normal(2)
            pts.append(ShilovPoint(MODEL, np.concatenate([x / np.linalg.norm(x), t / np.linalg.norm(t)])))
        if trial % 5 == 4:
            pts.append(ShilovPoint(MODEL, pts[1].frame.copy()))
        expected = verdict(reference_check_negative, pts)
        assert verdict(negative_lifts, pts) == expected
        seen.add(expected.split(" ")[0])
        if expected != "negative":
            continue
        for _ in range(20):
            x = random_ein_point(MODEL, rng)
            member = not any(lightcone_membership(q, x) for q in pts) and all(
                ein_maslov_sign(pts[i], x, pts[j]) == 0
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            assert invisible_domain_membership(pts, x) == member
    assert "negative" in seen


def test_invisible_domain_membership():
    pts = time_slice_family(5, seed=7)
    # a point on the lightcone of a limit point is never invisible
    on_cone = ShilovPoint(MODEL, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    for q in pts:
        if lightcone_membership(q, on_cone):
            assert not invisible_domain_membership(pts, on_cone)
    rng = np.random.default_rng(11)
    seen_inside = seen_outside = False
    for _ in range(200):
        x = random_ein_point(MODEL, rng)
        if any(lightcone_membership(q, x) for q in pts):
            continue
        member = invisible_domain_membership(pts, x)
        signs = all(
            ein_maslov_sign(pts[i], x, pts[j]) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        assert member == signs
        seen_inside |= member
        seen_outside |= not member
    assert seen_inside and seen_outside


def test_invisible_domain_excludes_the_lightcone_band():
    # y is 2e-12 off the lightcone of pts[0], on the same side as its other pairings
    pts = time_slice_family(5, seed=7)
    b = MODEL.form()
    u0, u1 = negative_lifts(pts)[:2]
    v0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    s = 1e-6
    v = v0 + (s - u0 @ b @ v0) / (u0 @ b @ u1) * u1  # b(u0, v) = s
    y = ShilovPoint(MODEL, u0 - 2.0 * s / (v @ b @ v) * v)  # isotropic, b(u0, y) = -2 s^2 / b(v, v)
    vals = negative_lifts(pts) @ b @ y.frame
    assert lightcone_membership(pts[0], y) and 0 < abs(vals[0])
    assert np.all(vals < 0)
    assert not invisible_domain_membership(pts, y)


def on_lightcone_of(p, rng):
    """A point on the lightcone of a time-slice point p = [x, 1, 0]: [y, x.y, sqrt(1 - (x.y)^2)], |y| = 1."""
    x = p.frame[:4] / p.frame[4]
    y = rng.standard_normal(4)
    y = y / np.linalg.norm(y)
    c = x @ y
    return ShilovPoint(MODEL, np.concatenate([y, [c, np.sqrt(1.0 - c * c)]]))


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_invisibility_margins_match_the_former_rules(seed):
    # queries: random points, the limit points themselves and points on a limit point's lightcone
    rng = np.random.default_rng(seed)
    pts = time_slice_family(int(rng.integers(3, 9)), seed)
    queries = [random_ein_point(MODEL, rng) for _ in range(60)] + pts
    queries += [on_lightcone_of(p, rng) for p in pts for _ in range(3)]
    lifts = negative_lifts(pts)
    for q in queries:
        assert invisible_domain_membership(pts, q) == reference_invisible_membership(pts, q)
    V = np.stack([q.frame for q in queries])
    margins = _invisible_margins(MODEL, lifts, V)
    np.testing.assert_allclose(margins, reference_photon_margins(MODEL, lifts, V), rtol=0, atol=1e-12)
    assert np.all(margins[-4 * len(pts):] <= 1e-12)  # on the lightcone of a limit point
    assert (margins > 1e-9).any() and (margins < -1e-9).any()


def test_pairing_of_two_models_is_a_model_mismatch():
    x = time_slice_family(1, seed=5)[0]
    with pytest.raises(ModelMismatch):
        pairing(x, ShilovPoint(model_preset("so32"), [1.0, 0.0, 0.0, 1.0, 0.0]))


def test_invisibility_against_a_query_of_another_model_is_a_model_mismatch():
    pts = time_slice_family(4, seed=5)
    with pytest.raises(ModelMismatch):
        invisible_domain_membership(pts, ShilovPoint(model_preset("so32"), [0.6, 0.8, 0.0, 1.0, 0.0]))


def test_negative_lifts_of_two_models_is_a_model_mismatch():
    pts = time_slice_family(4, seed=5)
    with pytest.raises(ModelMismatch):
        negative_lifts(pts + [ShilovPoint(model_preset("so32"), [0.6, 0.8, 0.0, 1.0, 0.0])])


def test_random_photon_is_isotropic_pair():
    # the closed form is exact to rounding on every model, so22 (where z is orthogonal to x in R^2) included
    for name in ["so22", "so32", "so42"]:
        model = model_preset(name)
        rng = np.random.default_rng(3)
        b = model.form()
        for _ in range(500):
            u, w = random_photon(model, rng)
            assert max(abs(u @ b @ u), abs(w @ b @ w), abs(u @ b @ w), abs(u @ w)) <= 1e-15
            assert abs(w @ w - 1.0) <= 1e-15


def photon_counts(margins, counts, band=1e-8):
    """Count one photon's scan margins as photon_convexity_check does: within_tol, vacuous, then scanned."""
    inside = margins > 0
    if np.any(np.abs(margins) <= band):
        counts["within_tol"] += 1
    elif not inside.any():
        counts["vacuous"] += 1
    else:
        counts["scanned"] += 1
        counts["violations"] += int(np.sum(inside != np.roll(inside, 1)) > 2)


@pytest.mark.parametrize("name", ["so22", "so32", "so42"])
def test_photon_scan_matches_the_built_points(name):
    # two pairings per lift against the margins of the explicitly built scan points, which are unit vectors
    model = model_preset(name)
    pts = time_slice_family(6, seed=31, model=model)
    lifts = negative_lifts(pts)
    s = np.linspace(0.0, np.pi, PHOTON_SCAN, endpoint=False)
    rng = np.random.default_rng(37)
    counts = dict.fromkeys(["scanned", "vacuous", "within_tol", "violations"], 0)
    for _ in range(100):
        u, w = random_photon(model, rng)
        V = np.outer(np.cos(s), u) + np.outer(np.sin(s), w)
        np.testing.assert_allclose(np.linalg.norm(V, axis=1), 1.0, rtol=0, atol=1e-15)
        built = _invisible_margins(model, lifts, V)
        np.testing.assert_allclose(_photon_margins(model, lifts, u, w), built, rtol=0, atol=1e-12)
        photon_counts(built, counts)
    assert photon_convexity_check(pts, 100, seed=37) == {"photons": 100, **counts}
    assert counts["violations"] == 0


def test_photon_convexity_small():
    for name in ["so22", "so32", "so42"]:
        pts = time_slice_family(8, seed=23, model=model_preset(name))
        report = photon_convexity_check(pts, 100, seed=29)
        assert report["violations"] == 0
        assert report["scanned"] > 0


@pytest.mark.parametrize("photons", [0, -3])
def test_photon_convexity_needs_a_photon(photons):
    with pytest.raises(ValueError, match="at least 1"):
        photon_convexity_check(time_slice_family(8, seed=23), photons, seed=29)


def test_hilbert_interval_oracles():
    domain = lambda p: bool(np.all(np.abs(p) < 1.0))
    d = hilbert_distance(domain, np.array([0.0]), np.array([0.5]))
    assert abs(d - np.log(3.0)) < 1e-10
    d2 = hilbert_distance(domain, np.array([-0.5]), np.array([0.5]))
    assert abs(d2 - np.log(9.0)) < 1e-10
    assert hilbert_distance(domain, np.array([0.3]), np.array([0.3])) == 0.0


def test_hilbert_symmetry_and_triangle():
    disk = lambda p: bool(p @ p < 1.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        x, y, z = (0.9 * rng.uniform(-1, 1, 2) for _ in range(3))
        while max(x @ x, y @ y, z @ z) >= 1.0:
            x, y, z = (0.9 * rng.uniform(-1, 1, 2) for _ in range(3))
        dxy = hilbert_distance(disk, x, y)
        dyx = hilbert_distance(disk, y, x)
        assert abs(dxy - dyx) < 1e-9
        assert hilbert_distance(disk, x, z) <= dxy + hilbert_distance(disk, y, z) + 1e-9


def test_hilbert_projective_invariance_interval():
    domain = lambda p: bool(np.all(np.abs(p) < 1.0))
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.uniform(-0.8, 0.8)
        mob = lambda t: (t + a) / (1.0 + a * t)
        x, y = rng.uniform(-0.9, 0.9, 2)
        d1 = hilbert_distance(domain, np.array([x]), np.array([y]))
        d2 = hilbert_distance(domain, np.array([mob(x)]), np.array([mob(y)]))
        assert abs(d1 - d2) < 1e-8


def test_hilbert_error_cases():
    domain = lambda p: bool(np.all(np.abs(p) < 1.0))
    with pytest.raises(ValueError, match="shapes"):
        hilbert_distance(lambda p: bool(p @ p < 1.0), np.array([0.0, 0.0]), np.array([0.5]))
    with pytest.raises(NotInDomain):
        hilbert_distance(domain, np.array([2.0]), np.array([0.0]))
    unbounded = lambda p: True
    with pytest.raises(BoundaryNotBracketed):
        hilbert_distance(unbounded, np.array([0.0]), np.array([1.0]))
