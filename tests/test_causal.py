"""Cones, diamonds, hulls, Sylvester law, chart independence."""

import numpy as np
import pytest

from causalflag.causal import (
    ChartedChart,
    Diamond,
    FutureRelation,
    Hull,
    causal_hull,
    chart_independence_check,
    classify_orbit,
    cone_margin,
    diamond_membership,
    future_membership,
    in_cone,
    random_positive_coord,
    random_signature_coord,
    sylvester_orbit_check,
)
from causalflag.errors import EmptyInput, NonFiniteInput, NotTransverse
from causalflag.groups import model_preset
from causalflag.kmat import KMat
from causalflag.linalg import signature
from causalflag.reps import domain_center, dual_center
from causalflag.shilov import chart_point

LAGRANGIAN = ["sp4", "su22", "sostar8"]
KERNEL_MODELS = LAGRANGIAN + ["sp8", "so42"]


def test_cone_margin_oracles():
    model = model_preset("sp4")
    assert cone_margin(model, KMat.eye("R", 2)) == pytest.approx(1.0)
    assert not in_cone(model, KMat("R", np.diag([1.0, -1.0])))
    so = model_preset("so42")
    assert in_cone(so, np.array([0.0, 0.0, 0.0, 1.0]))
    assert not in_cone(so, np.array([1.0, 0.0, 0.0, 1.0]))  # lightlike
    assert not in_cone(so, np.array([0.0, 0.0, 0.0, -1.0]))


def test_future_membership_cases():
    model = model_preset("sp4")
    X = KMat("R", np.zeros((2, 2)))
    assert future_membership(model, X, KMat.eye("R", 2)) == FutureRelation.STRICT_FUTURE
    assert future_membership(model, X, -1.0 * KMat.eye("R", 2)) == FutureRelation.STRICT_PAST
    assert future_membership(model, X, X) == FutureRelation.EQUAL
    assert future_membership(model, X, KMat("R", np.diag([1.0, 0.0]))) == FutureRelation.LIGHTCONE
    assert future_membership(model, X, KMat("R", np.diag([1.0, -1.0]))) == FutureRelation.NEITHER


def test_diamond_membership():
    model = model_preset("su22")
    lo = -1.0 * KMat.eye("C", 2)
    hi = KMat.eye("C", 2)
    d = Diamond(model, lo, hi)
    assert diamond_membership(d, KMat.zeros("C", 2))
    assert not diamond_membership(d, 2.0 * KMat.eye("C", 2))
    assert not diamond_membership(d, hi)  # open by default
    assert diamond_membership(d, hi, closed=True)
    with pytest.raises(NotTransverse):
        Diamond(model, hi, lo)


def test_hull_contains_inputs_and_diamonds():
    model = model_preset("sp4")
    pts = [KMat("R", np.zeros((2, 2))), KMat.eye("R", 2), KMat("R", np.diag([5.0, 1.0]))]
    hull = causal_hull(model, pts)
    for X in pts:
        assert hull.membership(X)
    assert hull.membership(0.5 * KMat.eye("R", 2))  # midpoint of a causal pair
    assert not hull.membership(-1.0 * KMat.eye("R", 2))
    with pytest.raises(EmptyInput):
        causal_hull(model, [])


def test_hull_idempotence_small():
    model = model_preset("sp4")
    rng = np.random.default_rng(8)
    pts = [random_signature_coord(model, rng.integers(0, 3), rng) for _ in range(5)]
    h1 = causal_hull(model, pts)
    inside = []
    for X, Y in h1.pairs[:5]:
        inside.append(X + 0.5 * (Y - X))
    h2 = causal_hull(model, pts + inside)
    for _ in range(200):
        Z = random_signature_coord(model, rng.integers(0, 3), rng)
        m1, m2 = h1.margin(Z), h2.margin(Z)
        if abs(m1) <= 1e-7 or abs(m2) <= 1e-7:
            continue
        assert (m1 > 0) == (m2 > 0)


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_sylvester_orbit_check_small(name):
    model = model_preset(name)
    for i in range(model.r + 1):
        rep = sylvester_orbit_check(model, i, 300, seed=21)
        assert rep["failures"] == 0
        # every observed orbit has at least i positive directions
        assert all(v == 0 for k, v in rep["histogram"].items() if int(k) < i)


def test_classify_orbit():
    model = model_preset("sp4")
    assert classify_orbit(model, KMat("R", np.diag([1.0, -1.0]))) == (1, 1)
    assert classify_orbit(model, KMat.eye("R", 2)) == (2, 0)
    so = model_preset("so42")
    assert classify_orbit(so, np.array([0.0, 0.0, 0.0, 1.0])) == (2, 0)
    assert classify_orbit(so, np.array([2.0, 0.0, 0.0, 1.0])) == (1, 1)


def test_signature_coord_sampler_hits_the_label():
    model = model_preset("sostar8")
    rng = np.random.default_rng(5)
    for i in range(3):
        for _ in range(10):
            X = random_signature_coord(model, i, rng)
            assert signature(X).as_tuple() == (i, 2 - i, 0)


def test_chart_independence_small():
    model = model_preset("sp4")
    rng = np.random.default_rng(31)
    pts = []
    for _ in range(5):
        X = random_positive_coord(model, rng)
        pts.append(chart_point(model, (0.8 / X.opnorm()) * X))
    chart_a = ChartedChart.standard(model)
    chart_b = ChartedChart.at_point(dual_center(model), domain_center(model))
    rep = chart_independence_check(pts, chart_a, chart_b, 500, seed=7)
    assert rep["disagreements"] == 0


def test_charted_chart_roundtrip():
    model = model_preset("su22")
    rng = np.random.default_rng(2)
    chart = ChartedChart.at_point(dual_center(model), domain_center(model))
    X = random_positive_coord(model, rng)
    X = (0.5 / X.opnorm()) * X
    p = chart_point(model, X)
    assert chart.contains(p)
    q = chart.point(chart.coords(p))
    assert p.distance(q) < 1e-8


# ------------------------------------------- stacked kernel against per-pair references


def reference_relation(model, X, Y):
    """(relation, forward margin, band) of Y - X, one difference at a time.

    Lagrangian families: eigvalsh of the embedded difference; SO(n, 2):
    the Minkowski formula on the chart vector.
    """
    if model.is_lagrangian:
        D = Y - X
        E = D.embed()
        lam = np.linalg.eigvalsh(0.5 * (E + np.conj(E).T))
        band = 1e-9 * max(1.0, float(np.max(np.abs(lam))))
        fwd, past, norm = lam[0], -lam[-1], D.norm()
        light = lam[-1] <= band or lam[0] >= -band
    else:
        d = Y - X
        norm = float(np.linalg.norm(d))
        band = 1e-9 * max(1.0, norm)
        fwd = d[-1] - np.linalg.norm(d[:-1])
        past = -d[-1] - np.linalg.norm(d[:-1])
        light = abs(d[:-1] @ d[:-1] - d[-1] ** 2) <= 2 * band * max(1.0, norm)
    if norm <= band:
        rel = FutureRelation.EQUAL
    elif fwd > band:
        rel = FutureRelation.STRICT_FUTURE
    elif past > band:
        rel = FutureRelation.STRICT_PAST
    elif light:
        rel = FutureRelation.LIGHTCONE
    else:
        rel = FutureRelation.NEITHER
    return rel, fwd, band


def kernel_points(model, rng):
    """Random coordinates plus a duplicate, a lightlike partner and a strict past."""
    if model.is_lagrangian:
        pts = [random_signature_coord(model, int(rng.integers(0, model.r + 1)), rng) for _ in range(8)]
        light = KMat(model.tag, np.diag([1.0] + [0.0] * (model.r - 1)))
        past = KMat.eye(model.tag, model.r)
    else:
        pts = [rng.standard_normal(model.rank) for _ in range(8)]
        light = np.eye(model.rank)[0] + np.eye(model.rank)[-1]
        past = np.eye(model.rank)[-1]
    X = pts[0]
    return pts + [X.copy(), X + light, X - 1.0 * past]


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_kernel_relations_match_reference(name):
    model = model_preset(name)
    pts = kernel_points(model, np.random.default_rng(17))
    X, dup, light, past = pts[0], pts[-3], pts[-2], pts[-1]
    assert future_membership(model, X, dup) == FutureRelation.EQUAL
    assert future_membership(model, X, light) == FutureRelation.LIGHTCONE
    assert future_membership(model, light, X) == FutureRelation.LIGHTCONE
    assert future_membership(model, X, past) == FutureRelation.STRICT_PAST
    assert future_membership(model, past, X) == FutureRelation.STRICT_FUTURE
    seen = set()
    for A in pts:
        for B in pts:
            rel = reference_relation(model, A, B)[0]
            assert future_membership(model, A, B) == rel
            seen.add(rel)
    assert seen == set(FutureRelation)


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_hull_matches_nested_loop_reference(name):
    model = model_preset(name)
    rng = np.random.default_rng(19)
    pts = kernel_points(model, rng)
    expected = []
    for i, A in enumerate(pts):
        for j, B in enumerate(pts):
            rel, fwd, band = reference_relation(model, A, B)
            if i != j and (rel == FutureRelation.STRICT_FUTURE
                           or (rel == FutureRelation.LIGHTCONE and fwd >= -band)):
                expected.append((i, j))
    hull = causal_hull(model, pts)
    index = {id(P): k for k, P in enumerate(hull.points)}
    assert [(index[id(A)], index[id(B)]) for A, B in hull.pairs] == expected

    queries = [A + rng.random() * (B - A) for A, B in hull.pairs[:6]]
    queries += kernel_points(model, rng)[:6]
    for Z in queries:
        best = max(min(reference_relation(model, A, Z)[1], reference_relation(model, Z, B)[1])
                   for A, B in hull.pairs)
        dist = min((Z - A).norm() if model.is_lagrangian else np.linalg.norm(Z - A) for A in pts)
        ref = max(best, -dist)
        assert hull.margin(Z) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_hull_without_pairs():
    model = model_preset("sp4")
    X = KMat("R", np.zeros((2, 2)))
    Y = KMat("R", np.diag([1.0, -1.0]))  # NEITHER: no causal pair
    Z = KMat("R", np.diag([0.0, 3.0]))
    hull = causal_hull(model, [X, Y])
    assert hull.pairs == []
    assert hull.margin(Z) == pytest.approx(-3.0)
    single = causal_hull(model, [Y])
    assert single.points == [Y] and single.pairs == []
    assert single.membership(Y)
    assert single.margin(Z) == pytest.approx(-np.sqrt(17.0))
    assert Hull(model, [], []).margin(Z) == -np.inf


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e309])
def test_hull_rejects_non_finite_input(bad):
    model = model_preset("sp4")
    pts = [np.zeros((2, 2)), np.eye(2)]
    with pytest.raises(NonFiniteInput):
        causal_hull(model, pts + [np.array([[bad, 0.0], [0.0, 1.0]])])
    hull = causal_hull(model, pts)
    with pytest.raises(NonFiniteInput):
        hull.margin(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteInput):
        hull.membership(np.array([[bad, 0.0], [0.0, 1.0]]))
    so = model_preset("so42")
    with pytest.raises(NonFiniteInput):
        causal_hull(so, [np.zeros(4), np.array([0.0, 0.0, bad, 1.0])])
