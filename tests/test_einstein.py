"""Einstein universe: sign classifier, photons, invisible domains, Hilbert metric."""

import numpy as np
import pytest

from causalflag.einstein import (
    check_negative,
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
    LimitSetNotNegative,
    NotInDomain,
    NotPairwiseTransverse,
)
from causalflag.groups import model_preset
from causalflag.maslov import maslov_index
from causalflag.shilov import ShilovPoint

MODEL = model_preset("so42")


def time_slice_family(n, seed):
    """Pairwise non-lightcone points on a fixed time slice; negative 3 by 3."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.standard_normal(4)
        x = x / np.linalg.norm(x)
        p = ShilovPoint(MODEL, np.concatenate([x, [1.0, 0.0]]))
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
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        a, b, c = (random_ein_point(MODEL, rng) for _ in range(3))
        if min(abs(pairing(a, b)), abs(pairing(b, c)), abs(pairing(a, c))) < 1e-4:
            continue
        try:
            full = maslov_index(a, b, c)
        except Exception:
            continue
        checked += 1
        assert ein_maslov_sign(a, b, c) == full.idx


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
    check_negative(pts)
    lifts = negative_lifts(pts)
    b = MODEL.form()
    gram = lifts @ b @ lifts.T
    off = gram[~np.eye(len(pts), dtype=bool)]
    assert np.all(off < 0)


def test_non_negative_family_rejected():
    pts = time_slice_family(4, seed=5)
    bad = ShilovPoint(MODEL, pts[0].frame + 1e-12 * np.zeros(6))
    with pytest.raises(LimitSetNotNegative):
        check_negative(pts + [bad])


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
        assert verdict(check_negative, pts) == expected
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


def test_random_photon_is_isotropic_pair():
    rng = np.random.default_rng(3)
    b = MODEL.form()
    for _ in range(10):
        ph = random_photon(MODEL, rng)
        if ph is None:
            continue
        u, w = ph
        assert abs(u @ b @ u) < 1e-7
        assert abs(w @ b @ w) < 1e-7
        assert abs(u @ b @ w) < 1e-7


def test_photon_convexity_small():
    pts = time_slice_family(8, seed=23)
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
    with pytest.raises(NotInDomain):
        hilbert_distance(domain, np.array([2.0]), np.array([0.0]))
    unbounded = lambda p: True
    with pytest.raises(BoundaryNotBracketed):
        hilbert_distance(unbounded, np.array([0.0]), np.array([1.0]))
