"""Cones, diamonds, hulls, Sylvester law, chart independence."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from causalflag.errors import EmptyInput, NonFiniteInput, NotHermitian, NotTransverse, PointsNotInBothCharts
from causalflag.groups import model_preset
from causalflag.kmat import adjoint, draw, embed_real, hermitian_draw, norm, product
from causalflag.linalg import signature
from causalflag.reps import domain_center, dual_center
from causalflag.shilov import chart_point, transversality_margin

LAGRANGIAN = ["sp4", "su22", "sostar8"]
KERNEL_MODELS = LAGRANGIAN + ["sp8", "so42"]


def test_cone_margin_oracles():
    model = model_preset("sp4")
    assert cone_margin(model, np.eye(2)) == pytest.approx(1.0)
    assert not in_cone(model, np.diag([1.0, -1.0]))
    so = model_preset("so42")
    assert in_cone(so, np.array([0.0, 0.0, 0.0, 1.0]))
    assert not in_cone(so, np.array([1.0, 0.0, 0.0, 1.0]))  # lightlike
    assert not in_cone(so, np.array([0.0, 0.0, 0.0, -1.0]))


def test_future_membership_cases():
    model = model_preset("sp4")
    X = np.zeros((2, 2))
    assert future_membership(model, X, np.eye(2)) == FutureRelation.STRICT_FUTURE
    assert future_membership(model, X, -1.0 * np.eye(2)) == FutureRelation.STRICT_PAST
    assert future_membership(model, X, X) == FutureRelation.EQUAL
    assert future_membership(model, X, np.diag([1.0, 0.0])) == FutureRelation.LIGHTCONE
    assert future_membership(model, X, np.diag([1.0, -1.0])) == FutureRelation.NEITHER


def test_diamond_membership():
    model = model_preset("su22")
    hi = embed_real(np.eye(2), "C")
    lo = -1.0 * hi
    d = Diamond(model, lo, hi)
    assert diamond_membership(d, np.zeros((2, 2), dtype=complex))
    assert not diamond_membership(d, 2.0 * hi)
    assert not diamond_membership(d, hi)  # open by default
    assert diamond_membership(d, hi, closed=True)
    with pytest.raises(NotTransverse):
        Diamond(model, hi, lo)


def test_hull_contains_inputs_and_diamonds():
    model = model_preset("sp4")
    pts = [np.zeros((2, 2)), np.eye(2), np.diag([5.0, 1.0])]
    hull = causal_hull(model, pts)
    for X in pts:
        assert hull.membership(X)
    assert hull.membership(0.5 * np.eye(2))  # midpoint of a causal pair
    assert not hull.membership(-1.0 * np.eye(2))
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
    assert classify_orbit(model, np.diag([1.0, -1.0])) == (1, 1)
    assert classify_orbit(model, np.eye(2)) == (2, 0)
    so = model_preset("so42")
    assert classify_orbit(so, np.array([0.0, 0.0, 0.0, 1.0])) == (2, 0)
    assert classify_orbit(so, np.array([2.0, 0.0, 0.0, 1.0])) == (1, 1)


def test_zero_band_is_the_band_of_the_relations():
    # the eigenvalue band 1e-9 * max(1, max |lambda|), and only of a Hermitian coordinate
    sp4 = model_preset("sp4")
    assert zero_band(sp4, np.diag([-3e3, 2.0])) == 1e-9 * 3e3
    assert zero_band(model_preset("so42"), np.array([0.0, 0.0, 3e3, 4e3])) == 1e-9 * 5e3
    with pytest.raises(NotHermitian):
        zero_band(sp4, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_signature_coord_sampler_hits_the_label():
    model = model_preset("sostar8")
    rng = np.random.default_rng(5)
    for i in range(3):
        for _ in range(10):
            X = random_signature_coord(model, i, rng)
            assert signature(np.asarray(X), model.tag).as_tuple() == (i, 2 - i, 0)


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


def _chart_check_loop(points, chart_a, chart_b, n_probe, seed):
    """The per-probe loop that chart_independence_check stacks: its report, and each probe's chart A coordinate."""
    model = chart_a.base.model
    shape = (1, model.rank, model.rank)
    hull_a = causal_hull(model, [chart_a.coords(x) for x in points])
    hull_b = causal_hull(model, [chart_b.coords(x) for x in points])
    coords_a = hull_a.points
    rng = np.random.default_rng(seed)
    counts = {"disagreements": 0, "left_chart_b": 0, "margin_in_band": 0}
    max_margin, probes = 0.0, []
    for _ in range(n_probe):
        if hull_a.pairs and rng.random() < 0.7:
            X, Y = hull_a.pairs[rng.integers(len(hull_a.pairs))]
            t = rng.random()
            if model.is_lagrangian:
                noise = hermitian_draw(model.tag, shape, rng)[0]
                Z = X + t * (Y - X) + (0.3 * rng.random()) * noise
            else:
                Z = X + t * (Y - X) + 0.3 * rng.random() * rng.standard_normal(len(X))
        else:
            X = coords_a[rng.integers(len(coords_a))]
            if model.is_lagrangian:
                Z = X + 0.5 * hermitian_draw(model.tag, shape, rng)[0]
            else:
                Z = X + 0.5 * rng.standard_normal(len(X))
        probe = chart_a.point(Z)
        probes.append(Z)
        if not chart_b.contains(probe, tol=1e-6):
            counts["left_chart_b"] += 1
            continue
        ma, mb = hull_a.margin(Z), hull_b.margin(chart_b.coords(probe))
        if abs(ma) <= 1e-7 or abs(mb) <= 1e-7:
            counts["margin_in_band"] += 1
        elif (ma > 0) != (mb > 0):
            counts["disagreements"] += 1
            max_margin = max(max_margin, min(abs(ma), abs(mb)))
    report = {
        "probes": n_probe,
        "disagreements": counts["disagreements"],
        "within_tol": counts["left_chart_b"] + counts["margin_in_band"],
        "within_tol_by_reason": {key: counts[key] for key in ("left_chart_b", "margin_in_band")},
        "max_disagreement_margin": max_margin,
    }
    return report, probes


def _chart_inputs(model, rng):
    """Six points of the standard chart drawn as the CLI draws them (small timelike vectors on SO(n, 2))."""
    if model.is_lagrangian:
        coords = [random_positive_coord(model, rng) for _ in range(6)]
        return [chart_point(model, (0.8 / X.opnorm()) * X) for X in coords]
    V = 0.3 * rng.standard_normal((6, model.rank))
    V[:, -1] = np.abs(V[:, -1]) + 0.5
    return [chart_point(model, v) for v in V]


@pytest.mark.parametrize("name", LAGRANGIAN + ["so42"])
def test_chart_independence_equals_the_per_probe_loop(name):
    # the stacked check gives the loop's report; a chart B based 1e-7 away from a probe sees it leave
    model = model_preset(name)
    pts = _chart_inputs(model, np.random.default_rng(8))
    chart_a = ChartedChart.standard(model)
    chart_b = ChartedChart.at_point(dual_center(model), domain_center(model))
    expected, probes = _chart_check_loop(pts, chart_a, chart_b, 120, seed=4)
    assert chart_independence_check(pts, chart_a, chart_b, 120, seed=4) == expected
    # a shift whose determinant (Minkowski form on SO(n, 2)) is 1e-7: the two points are nearly not transverse
    if model.is_lagrangian:
        shift = embed_real(np.diag([1e-7] + [1.0] * (model.rank - 1)), model.tag)
    else:
        shift = np.eye(model.rank)[0] + np.sqrt(1.0 - 1e-7) * np.eye(model.rank)[-1]
    near = chart_a.point(probes[3] + shift)
    assert 1e-9 < transversality_margin(chart_a.point(probes[3]), near) < 1e-6  # inside the 1e-6 rule only
    near_probe = ChartedChart.at_point(near, chart_a.base)
    expected, _ = _chart_check_loop(pts, chart_a, near_probe, 120, seed=4)
    assert expected["within_tol_by_reason"]["left_chart_b"] >= 1
    assert chart_independence_check(pts, chart_a, near_probe, 120, seed=4) == expected


@pytest.mark.parametrize("name", LAGRANGIAN + ["so42"])
def test_chart_independence_refuses_the_base_of_chart_b(name):
    model = model_preset(name)
    chart_a = ChartedChart.standard(model)
    chart_b = ChartedChart.at_point(dual_center(model), domain_center(model))
    with pytest.raises(PointsNotInBothCharts):
        chart_independence_check([dual_center(model)], chart_a, chart_b, 10, seed=0)


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
        E = Y - X
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
        pts = [np.asarray(random_signature_coord(model, int(rng.integers(0, model.r + 1)), rng)) for _ in range(8)]
        light = embed_real(np.diag([1.0] + [0.0] * (model.r - 1)), model.tag)
        past = embed_real(np.eye(model.r), model.tag)
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
        dist = min(norm(Z - A, model.tag) if model.is_lagrangian else np.linalg.norm(Z - A) for A in pts)
        ref = max(best, -dist)
        assert hull.margin(Z) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_hull_margins_are_the_margins_of_each_query(name):
    # one stacked call gives each single-query margin bit for bit, from a list or from one array
    model = model_preset(name)
    rng = np.random.default_rng(23)
    hull = causal_hull(model, kernel_points(model, rng))
    queries = [A + rng.random() * (B - A) for A, B in hull.pairs[:6]] + kernel_points(model, rng)
    expected = [hull.margin(Z) for Z in queries]
    assert hull.margins(queries).tolist() == expected
    stack = np.array(queries)
    assert hull.margins(stack).tolist() == expected
    assert Hull(model, [], []).margins(queries[:2]).tolist() == [-np.inf, -np.inf]


def test_hull_without_pairs():
    model = model_preset("sp4")
    X = np.zeros((2, 2))
    Y = np.diag([1.0, -1.0])  # NEITHER: no causal pair
    Z = np.diag([0.0, 3.0])
    hull = causal_hull(model, [X, Y])
    assert hull.pairs == []
    assert hull.margin(Z) == pytest.approx(-3.0)
    single = causal_hull(model, [Y])
    assert len(single.points) == 1 and np.array_equal(single.points[0], Y) and single.pairs == []
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


def test_overflow_from_finite_input_fails_closed():
    # finite coordinates whose norms, Hermitian parts or distances overflow, named without a floating point warning
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
    with pytest.raises(NonFiniteInput):
        classify_orbit(so, np.array([1e200, 0.0, 0.0, 1e200]))
    with pytest.raises(NonFiniteInput):
        chart_point(so, np.array([1e200, 0.0, 0.0, 1e100]))
    # differences of finite coordinates that overflow
    big = np.array([1e308, 0.0, 0.0, 1e308])
    with pytest.raises(NonFiniteInput):
        future_membership(so, -big, big)
    with pytest.raises(NonFiniteInput):
        future_membership(sp4, np.diag([-1e308, 0.0]), np.diag([1e308, 0.0]))
    with pytest.raises(NonFiniteInput):
        causal_hull(so, [np.zeros(4), np.array([0.0, 0.0, 0.0, 2.0])]).margins([-big, big])
    with pytest.raises(NonFiniteInput):
        causal_hull(so, [-big, np.zeros(4)])


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
    from causalflag.causal import _random_hermitian

    model, tag, r = model_preset(name), model_preset(name).tag, model_preset(name).rank
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        X = random_signature_coord(model, 1, rng)
        Y = random_positive_coord(model, rng)
        W = _random_hermitian(model, rng)
        while True:
            M = draw(tag, (r, r), ref)
            if np.linalg.cond(M) < 1e4:
                break
        D = embed_real(np.diag([1.0] + [-1.0] * (r - 1)), tag)
        N = draw(tag, (r, r), ref)
        H = draw(tag, (r, r), ref)
        assert np.array_equal(np.asarray(X), product(product(adjoint(M), D, tag), M, tag))
        assert np.array_equal(np.asarray(Y), product(adjoint(N), N, tag) + 0.1 * np.eye(len(N)))
        assert np.array_equal(W, 0.5 * (H + adjoint(H)))
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


# ------------------------------------- property tests of the relations (derandomized hypothesis)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
PROPERTY_MODELS = LAGRANGIAN + ["so42"]
seeds = st.integers(0, 2**32 - 1)
# a generic pair, an equal pair, and a pair whose difference is a nonzero null coordinate
kinds = st.sampled_from(["generic", "equal", "lightlike"])
SWAPPED = {FutureRelation.STRICT_FUTURE: FutureRelation.STRICT_PAST,
           FutureRelation.STRICT_PAST: FutureRelation.STRICT_FUTURE}
EXPECTED = {"equal": FutureRelation.EQUAL, "lightlike": FutureRelation.LIGHTCONE}


def random_coord(model, rng):
    """A chart coordinate: a Hermitian embedded array, or a Minkowski vector on SO(n, 2)."""
    if model.is_lagrangian:
        return hermitian_draw(model.tag, (model.rank, model.rank), rng)
    return rng.standard_normal(model.rank)


def random_pair(model, rng, kind):
    X = random_coord(model, rng)
    if kind == "generic":
        return X, random_coord(model, rng)
    if kind == "equal":
        return X, X.copy()
    sign = rng.choice([-1.0, 1.0])
    if model.is_lagrangian:  # plus or minus v v^H: semidefinite of rank one
        v = draw(model.tag, (model.rank, 1), rng)
        return X, X + sign * product(v, adjoint(v), model.tag)
    u = rng.standard_normal(model.rank - 1)
    return X, X + sign * np.append(u, np.linalg.norm(u))


def decisive(model, X, Y):
    """Whether every quantity that decides the relation of Y to X is within a tenth of its band or beyond ten bands.

    A draw that is not is rejected, never counted as a pass.
    """
    D = Y - X
    if model.is_lagrangian:
        lam = np.linalg.eigvalsh(0.5 * (D + adjoint(D)))
        band = 1e-9 * max(1.0, float(np.max(np.abs(lam))))
        deciding = list(lam) + [norm(D, model.tag)]
    else:
        size = float(np.linalg.norm(D))
        band = 1e-9 * max(1.0, size)
        space = np.linalg.norm(D[:-1])
        psi = D[:-1] @ D[:-1] - D[-1] ** 2
        deciding = [D[-1] - space, -D[-1] - space, size, psi / (2.0 * max(1.0, size))]
    return all(abs(q) >= 10.0 * band or abs(q) <= 0.1 * band for q in deciding)


def lorentz_map(n, rng):
    """A random time-orientation preserving Lorentz map of R^(n-1,1): a boost after a spatial rotation."""
    L = np.eye(n)
    L[:-1, :-1] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
    phi = rng.uniform(-1.5, 1.5)
    B = np.eye(n)
    B[0, 0] = B[-1, -1] = np.cosh(phi)
    B[0, -1] = B[-1, 0] = np.sinh(phi)
    return B @ L


def relation(model, X, Y, kind):
    rel = future_membership(model, X, Y)
    assert rel == EXPECTED.get(kind, rel)
    return rel


@pytest.mark.parametrize("name", PROPERTY_MODELS)
@PROPERTY
@given(seed=seeds, kind=kinds)
def test_relations_are_translation_invariant(name, seed, kind):
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    X, Y = random_pair(model, rng, kind)
    T = 3.0 * random_coord(model, rng)
    assume(decisive(model, X, Y) and decisive(model, X + T, Y + T))
    assert relation(model, X + T, Y + T, kind) == relation(model, X, Y, kind)


@pytest.mark.parametrize("name", PROPERTY_MODELS)
@PROPERTY
@given(seed=seeds, kind=kinds)
def test_relations_are_congruence_invariant(name, seed, kind):
    # X -> M^H X M for an invertible M; a Lorentz map of the chart on SO(n, 2)
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    X, Y = random_pair(model, rng, kind)
    if model.is_lagrangian:
        M = draw(model.tag, (model.rank, model.rank), rng)  # quaternionic on sostar8
        assume(np.linalg.cond(M) < 1e3)
        move = lambda W: product(product(adjoint(M), W, model.tag), M, model.tag)
    else:
        L = lorentz_map(model.rank, rng)
        move = lambda W: L @ W
    assume(decisive(model, X, Y) and decisive(model, move(X), move(Y)))
    assert relation(model, move(X), move(Y), kind) == relation(model, X, Y, kind)


@pytest.mark.parametrize("name", PROPERTY_MODELS)
@PROPERTY
@given(seed=seeds, kind=kinds)
def test_swap_exchanges_future_and_past(name, seed, kind):
    model = model_preset(name)
    X, Y = random_pair(model, np.random.default_rng(seed), kind)
    assume(decisive(model, X, Y) and decisive(model, Y, X))
    rel = relation(model, X, Y, kind)
    assert relation(model, Y, X, kind) == SWAPPED.get(rel, rel)


ORBIT_OF = {FutureRelation.STRICT_FUTURE: (2, 0), FutureRelation.STRICT_PAST: (0, 2),
            FutureRelation.NEITHER: (1, 1), FutureRelation.LIGHTCONE: (0, 0), FutureRelation.EQUAL: (0, 0)}


@st.composite
def minkowski_vectors(draw_from):
    """Vectors of R^(3,1) at scales 1e-6 to 1e4: generic, or off the null cone by a relative 0 to 1e-3."""
    rng = np.random.default_rng(draw_from(seeds))
    scale = 10.0 ** draw_from(st.integers(-6, 4))
    if draw_from(st.booleans()):
        return scale * rng.standard_normal(4)
    u = rng.standard_normal(3)
    tilt = draw_from(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3])) * rng.choice([-1.0, 1.0])
    return scale * np.append(u, rng.choice([-1.0, 1.0]) * np.linalg.norm(u) * (1.0 + tilt))


@PROPERTY
@given(X=minkowski_vectors())
@example(X=np.array([1e4, 0.0, 0.0, 1e4 * (1 + 1e-12)]))  # a null vector at a large scale
@example(X=np.array([1e-6, 0.0, 0.0, 1.5e-6]))  # a timelike vector at a small scale
def test_classify_orbit_is_the_relation_to_the_origin(X):
    # on SO(n, 2) the Sylvester label of X is the label of the relation of X to 0, at every scale
    so = model_preset("so42")
    assert classify_orbit(so, X) == ORBIT_OF[future_membership(so, np.zeros(4), X)]
