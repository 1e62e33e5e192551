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
    zero_band,
)
from causalflag.errors import EmptyInput, NonFiniteInput, NotTransverse
from causalflag.groups import model_preset
from causalflag.kmat import KMat, norm
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
    assert diamond_membership(d, KMat("C", np.zeros((2, 2))))
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
            assert signature(X.embed(), X.tag).as_tuple() == (i, 2 - i, 0)


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
        fwd, past, size = lam[0], -lam[-1], norm(E, model.tag)
        light = lam[-1] <= band or lam[0] >= -band
    else:
        d = Y - X
        size = float(np.linalg.norm(d))
        band = 1e-9 * max(1.0, size)
        fwd = d[-1] - np.linalg.norm(d[:-1])
        past = -d[-1] - np.linalg.norm(d[:-1])
        light = abs(d[:-1] @ d[:-1] - d[-1] ** 2) <= 2 * band * max(1.0, size)
    if size <= band:
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
    return pts + [X + 0.0 * X, X + light, X - 1.0 * past]


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
        dist = min(norm((Z - A).embed(), model.tag) if model.is_lagrangian else np.linalg.norm(Z - A)
                   for A in pts)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_from_finite_input_fails_closed():
    # finite coordinates whose norms, Hermitian parts or distances overflow
    sp4, so = model_preset("sp4"), model_preset("so42")
    with pytest.raises(NonFiniteInput):
        zero_band(sp4, np.full((2, 2), 1e308))
    with pytest.raises(NonFiniteInput):
        zero_band(so, np.array([1e200, 0.0, 0.0, 1e200]))
    with pytest.raises(NonFiniteInput):
        classify_orbit(so, np.array([np.nan, 0.0, 0.0, 1.0]))
    with pytest.raises(NonFiniteInput):
        in_cone(sp4, np.array([[1e308, 1e308], [1e308, 1e308]]))
    with pytest.raises(NonFiniteInput):
        cone_margin(so, np.array([1e200, 0.0, 0.0, 1e200]))
    # a hull without pairs decides by the distance to its points alone
    with pytest.raises(NonFiniteInput):
        causal_hull(so, [np.zeros(4)]).margin(np.array([1e200, 0.0, 0.0, 1e200]))
    with pytest.raises(NonFiniteInput):
        causal_hull(sp4, [np.zeros((2, 2))]).margin(np.diag([1e200, 1e200]))


@pytest.mark.parametrize("trials", [0, -5])
def test_sylvester_check_needs_a_trial(trials):
    with pytest.raises(ValueError, match="at least 1"):
        sylvester_orbit_check(model_preset("sp4"), 1, trials, seed=0)


def test_chart_independence_needs_a_probe():
    model = model_preset("sp4")
    chart = ChartedChart.standard(model)
    with pytest.raises(ValueError, match="at least 1"):
        chart_independence_check([domain_center(model)], chart, chart, 0, seed=0)


@pytest.mark.parametrize("name", ["so22", "so32", "so42"])
def test_coordinate_samplers_reject_so_n2(name):
    from causalflag.errors import ModelMismatch

    model, rng = model_preset(name), np.random.default_rng(0)
    with pytest.raises(ModelMismatch):
        random_positive_coord(model, rng)
    with pytest.raises(ModelMismatch):
        random_signature_coord(model, 1, rng)


@pytest.mark.parametrize("name", LAGRANGIAN + ["sp8"])
def test_coordinate_samplers_are_batches_of_one(name):
    # one draw of the stacked samplers consumes the generator as the per-trial formulas did
    from causalflag.kmat import adjoint, product

    model, tag, r = model_preset(name), model_preset(name).tag, model_preset(name).rank
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        X = random_signature_coord(model, 1, rng)
        Y = random_positive_coord(model, rng)
        while True:
            M = KMat.random(tag, r, r, ref).embed()
            if np.linalg.cond(M) < 1e4:
                break
        D = KMat(tag, np.diag([1.0] + [-1.0] * (r - 1))).embed()
        N = KMat.random(tag, r, r, ref).embed()
        assert np.array_equal(X.embed(), product(product(adjoint(M), D, tag), M, tag))
        assert np.array_equal(Y.embed(), product(adjoint(N), N, tag) + 0.1 * np.eye(len(N)))
        assert rng.random() == ref.random()


class ScriptedRng:
    """A generator stand-in whose standard_normal returns the given arrays in turn and records the shapes asked for."""

    def __init__(self, *arrays):
        self.arrays, self.shapes = list(arrays), []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return self.arrays.pop(0)


def test_signature_sampler_redraws_only_rejected_matrices():
    from causalflag.causal import _signature_coords

    model = model_preset("sp4")
    first = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])  # the middle one is singular
    rng = ScriptedRng(first, np.ones((1, 2, 2)), np.diag([3.0, 1.0])[None])
    X = _signature_coords(model, 1, 3, rng)
    assert rng.shapes == [(3, 2, 2), (1, 2, 2), (1, 2, 2)]
    D = np.diag([1.0, -1.0])
    assert np.array_equal(X, np.stack([D, np.diag([9.0, -1.0]), 4.0 * D]))


def test_signature_band_is_relative():
    from causalflag.linalg import signature_counts

    X = np.diag([1e12, 1e-5, -1e6])  # 1e-5 sits inside the band 1e-9 * 1e12
    Y = np.diag([1.0, 1e-5, -1.0])  # band 1e-9 * max(1, 1)
    assert signature(X, "R").as_tuple() == (1, 1, 1)
    assert signature(Y, "R").as_tuple() == (2, 1, 0)
    pos, neg = signature_counts(np.stack([X, Y, -X]), "R")
    assert pos.tolist() == [1, 2, 1] and neg.tolist() == [1, 1, 1]
