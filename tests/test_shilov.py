"""Boundary points, transversality, charts, standardization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalflag.errors import InvalidFrame, NonFiniteInput, NotInChart, NotTransverse
from causalflag.groups import GroupElement, group_exp, model_preset, random_lie_element
from causalflag.kmat import KMat, norm, product
from reference_points import (
    ReferencePoint,
    reference_act,
    reference_chart_coordinates,
    reference_standardize_pair,
)
from causalflag.shilov import (
    ShilovPoint,
    act,
    act_stack,
    base_points,
    chart_coordinates,
    chart_coordinates_stack,
    chart_point,
    standardize_pair,
    transversality_margin,
    transverse,
)

LAGRANGIAN = ["sp4", "su22", "sostar8"]
FAMILIES = LAGRANGIAN + ["so42"]


def random_element(model, rng, scale=0.5):
    Z = random_lie_element(model, rng)
    Z = (scale / max(norm(Z, model.tag), 1e-300)) * Z
    return group_exp(model, Z)


def random_hermitian(model, rng):
    from causalflag.causal import _random_hermitian

    return _random_hermitian(model, rng)


def test_base_points_are_maximally_transverse():
    for name in FAMILIES:
        model = model_preset(name)
        p, m = base_points(model)
        assert transverse(p, m)
        if model.is_lagrangian:
            assert abs(transversality_margin(p, m) - 1.0) < 1e-12


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_chart_roundtrip_lagrangian(name):
    model = model_preset(name)
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = random_hermitian(model, rng)
        Y = chart_coordinates(chart_point(model, X))
        assert norm((X - Y).embed(), model.tag) < 1e-10


def test_chart_roundtrip_einstein():
    model = model_preset("so42")
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.standard_normal(4)
        w = chart_coordinates(chart_point(model, v))
        assert np.linalg.norm(v - w) < 1e-10


def test_chart_point_rejects_nonhermitian():
    model = model_preset("sp4")
    from causalflag.errors import NotHermitian

    with pytest.raises(NotHermitian):
        chart_point(model, KMat("R", np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_chart_coordinates_rejects_the_base_point():
    model = model_preset("sp4")
    _, p_minus = base_points(model)
    with pytest.raises(NotInChart):
        chart_coordinates(p_minus)


def test_frame_isotropy_gate():
    model = model_preset("sp4")
    F = np.zeros((4, 2))
    F[0, 0] = 1.0
    F[2, 1] = 1.0  # omega(e1, e3) = -1, so span(e1, e3) is not isotropic
    with pytest.raises(InvalidFrame):
        ShilovPoint(model, KMat("R", F))


def test_non_finite_vector_is_rejected():
    model = model_preset("so42")
    with pytest.raises(NonFiniteInput):
        ShilovPoint(model, [np.nan, 0.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(NonFiniteInput):
        ShilovPoint(model, [np.inf, 0.0, 0.0, 0.0, np.inf, 0.0])


@pytest.mark.parametrize("name", LAGRANGIAN)
@pytest.mark.parametrize("as_kmat", [True, False])
def test_non_finite_frame_is_rejected(name, as_kmat):
    # a KMat frame, or the embedded array ShilovPoint holds
    model = model_preset(name)
    _, p_minus = base_points(model)
    F = KMat.unembed(model.tag, p_minus.frame.copy())
    for bad in (np.inf, np.nan):
        F.a[3, 1] = bad
        with pytest.raises(NonFiniteInput):
            ShilovPoint(model, F if as_kmat else F.embed())


@pytest.mark.parametrize("name", FAMILIES)
def test_degenerate_frames_are_rejected(name):
    # a zero frame is isotropic, so the rank (zero-vector) guard must catch it, alone and in a stack
    model = model_preset(name)
    message = "rank-deficient frame" if model.is_lagrangian else "zero vector"
    D = len(model.form())
    zero = np.zeros((D, D // 2) if model.is_lagrangian else D)  # embedded frames, or the lift
    with pytest.raises(InvalidFrame, match=message):
        ShilovPoint(model, zero)
    G, _ = ball_stack(model, np.random.default_rng(5), 3)
    G[1] = 0.0
    with pytest.raises(InvalidFrame, match=message):
        act_stack(G, base_points(model)[0])


@pytest.mark.parametrize("name", FAMILIES)
def test_distance_is_representative_independent(name):
    model = model_preset(name)
    rng = np.random.default_rng(7)
    if model.is_lagrangian:
        X = random_hermitian(model, rng)
        p = chart_point(model, X)
        M = KMat.random(model.tag, model.rank, model.rank, rng) + 3.0 * KMat.eye(model.tag, model.rank)
        q = ShilovPoint(model, product(p.frame, M.embed(), model.tag))
    else:
        v = rng.standard_normal(4)
        p = chart_point(model, v)
        q = ShilovPoint(model, -3.0 * p.frame)
    assert p.distance(q) < 1e-10


@pytest.mark.parametrize("name", FAMILIES)
def test_margin_invariant_under_the_action_up_to_conditioning(name):
    # margins are not strictly invariant, but transversality itself is;
    # check that the action never flips a comfortably transverse pair
    model = model_preset(name)
    rng = np.random.default_rng(11)
    for _ in range(10):
        if model.is_lagrangian:
            a = chart_point(model, random_hermitian(model, rng))
            b = chart_point(model, random_hermitian(model, rng))
        else:
            a = chart_point(model, rng.standard_normal(4))
            b = chart_point(model, rng.standard_normal(4))
        if transversality_margin(a, b) < 1e-3:
            continue
        g = random_element(model, rng)
        assert transversality_margin(act(g, a), act(g, b)) > 1e-9


@pytest.mark.parametrize("name", FAMILIES)
def test_standardize_pair(name):
    model = model_preset(name)
    rng = np.random.default_rng(13)
    p_plus, p_minus = base_points(model)
    for _ in range(10):
        if model.is_lagrangian:
            a = chart_point(model, random_hermitian(model, rng))
            c = chart_point(model, random_hermitian(model, rng))
        else:
            a = chart_point(model, rng.standard_normal(4))
            c = chart_point(model, rng.standard_normal(4))
        if transversality_margin(a, c) < 1e-3:
            continue
        S = standardize_pair(a, c)
        assert act(S, a).distance(p_plus) < 1e-8
        assert act(S, c).distance(p_minus) < 1e-8


def test_standardize_pair_needs_transversality():
    model = model_preset("sp4")
    p_plus, _ = base_points(model)
    with pytest.raises(NotTransverse):
        standardize_pair(p_plus, p_plus)


def test_point_json_roundtrip():
    for name in FAMILIES:
        model = model_preset(name)
        rng = np.random.default_rng(17)
        if model.is_lagrangian:
            p = chart_point(model, random_hermitian(model, rng))
        else:
            p = chart_point(model, rng.standard_normal(4))
        q = ShilovPoint.from_json(p.to_json())
        assert p.distance(q) < 1e-12


def random_point(model, rng):
    if model.is_lagrangian:
        return chart_point(model, random_hermitian(model, rng))
    from causalflag.einstein import random_ein_point

    return random_ein_point(model, rng)


def ball_stack(model, rng, count, scale=0.5):
    """Random elements as WordBall holds them: one C-ordered stack of the real matrix or
    the complex embedding, and the elements WordBall.element(i) wraps."""
    gs = [random_element(model, rng, scale) for _ in range(count)]
    G = np.stack([g.g for g in gs])
    return G, [GroupElement(model, M, _check=False) for M in G]


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8", "sp8", "so32", "so42"])
def test_stacked_orbit_matches_per_element_act(name):
    from causalflag.causal import _stack

    model = model_preset(name)
    rng = np.random.default_rng(17)
    x = random_point(model, rng)
    G, gs = ball_stack(model, rng, 24, scale=1.5)
    frames, orthos = act_stack(G, x)
    coords = chart_coordinates_stack(model, frames, orthos)
    for k, g in enumerate(gs):
        y = reference_act(g, x)
        assert np.array_equal(orthos[k], y.ortho)
        assert np.array_equal(frames[k], y.frame)
        assert np.array_equal(coords[k], _stack(model, [reference_chart_coordinates(y)])[0])


def kmat_equal(X, Y):
    if isinstance(X, KMat):
        return X.tag == Y.tag and np.array_equal(X.a, Y.a) and (X.b is None or np.array_equal(X.b, Y.b))
    return np.array_equal(X, Y)


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8", "sp8", "so32", "so42"])
def test_point_paths_equal_the_references(name):
    """ShilovPoint, act, chart_coordinates and standardize_pair against the per-point bodies they replaced."""
    model = model_preset(name)
    rng = np.random.default_rng(23)
    for _ in range(8):
        x, c = random_point(model, rng), random_point(model, rng)
        if model.is_lagrangian:
            # a frame that is not orthonormal: a change of representative of x
            U = KMat.random(model.tag, model.rank, model.rank, rng) + 2.0 * KMat.eye(model.tag, model.rank)
            frame = product(x.frame, U.embed(), model.tag)
        else:
            frame = -2.5 * x.frame
        assert np.array_equal(ShilovPoint(model, frame).ortho, ReferencePoint(model, frame).ortho)
        g = random_element(model, rng, scale=1.5)
        y, y_ref = act(g, x), reference_act(g, x)
        assert kmat_equal(y.frame, y_ref.frame)
        assert np.array_equal(y.ortho, y_ref.ortho)
        assert np.array_equal(y.projector(), y_ref.projector())
        assert kmat_equal(chart_coordinates(y), reference_chart_coordinates(y_ref))
        if model.is_lagrangian and transversality_margin(x, c) > 1e-3:
            assert kmat_equal(standardize_pair(x, c).g, reference_standardize_pair(x, c).g)


@pytest.mark.parametrize("name", ["sp4", "sostar8", "so42"])
def test_stacked_orbit_guards(name):
    model = model_preset(name)
    rng = np.random.default_rng(4)
    x = random_point(model, rng)
    G, _ = ball_stack(model, rng, 3)
    G[1, 0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        act_stack(G, x)
    p_plus, p_minus = base_points(model)
    frames = np.stack([p.frame for p in (p_plus, p_minus)])
    with pytest.raises(NotInChart):
        chart_coordinates_stack(model, frames, np.stack([p_plus.ortho, p_minus.ortho]))


# Derandomized property tests: hypothesis draws the seeds of the random points, frames and elements.
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def coordinate_error(X, Y):
    """|X - Y| / max(1, |X|) for two chart coordinates."""
    if isinstance(X, KMat):
        return norm((X - Y).embed(), X.tag) / max(1.0, norm(X.embed(), X.tag))
    return np.linalg.norm(X - Y) / max(1.0, np.linalg.norm(X))


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(seed=seeds)
def test_change_of_frame_representative(name, seed):
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    assume(transversality_margin(x, base_points(model)[1]) > 1e-3)
    if model.is_lagrangian:
        U = KMat.random(model.tag, model.rank, model.rank, rng)  # quaternionic on sostar8
        assume(np.linalg.cond(U.embed()) < 1e3)
        y = ShilovPoint(model, product(x.frame, U.embed(), model.tag))
    else:
        y = ShilovPoint(model, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0) * x.frame)
    assert np.linalg.norm(y.projector() - x.projector()) <= 1e-10
    assert coordinate_error(chart_coordinates(x), chart_coordinates(y)) <= 1e-9


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(seed=seeds)
def test_change_of_chart_roundtrip(name, seed):
    from causalflag.causal import ChartedChart

    model = model_preset(name)
    rng = np.random.default_rng(seed)
    z, w = random_point(model, rng), random_point(model, rng)
    assume(transversality_margin(z, w) > 0.05)
    chart = ChartedChart.at_point(z, w)
    X = random_hermitian(model, rng) if model.is_lagrangian else rng.standard_normal(model.rank)
    assert coordinate_error(X, chart.coords(chart.point(X))) <= 1e-8


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(seed=seeds)
def test_action_composes(name, seed):
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    g, h = random_element(model, rng, scale=1.5), random_element(model, rng, scale=1.5)
    assert np.linalg.norm(act(g, act(h, x)).projector() - act(g @ h, x).projector()) <= 1e-9
