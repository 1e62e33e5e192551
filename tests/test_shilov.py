"""Boundary points, transversality, charts, standardization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalflag.causal import ChartedChart
from causalflag.einstein import random_ein_point
from causalflag.errors import IllConditioned, InvalidFrame, NonFiniteInput, NotHermitian, NotInChart, NotTransverse
from causalflag.groups import GroupElement, group_exp, model_preset, random_lie_element
from causalflag.kmat import _chi, _parts, adjoint, draw, embed_real, hermitian_draw, norm, product
from causalflag.linalg import HERMITIAN_TOL, frobenius_norms
from reference_points import (
    ReferencePoint,
    dense_pairings,
    reference_act,
    reference_chart_coordinates,
    reference_standardize_pair,
    sp2_exact_margin,
)
from causalflag.shilov import (
    ISOTROPY_TOL,
    TRANSVERSALITY_TOL,
    ShilovPoint,
    _form_permutation,
    _graph_frames,
    _guard,
    _margins,
    _pairings,
    _standardize_stack,
    act,
    act_stack,
    base_points,
    chart_coordinates,
    chart_coordinates_stack,
    chart_point,
    standardize_pair,
    transversality_margin,
    transversality_margins,
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
        assert norm(X - Y, model.tag) < 1e-10


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
        chart_point(model, np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8"])
def test_chart_point_names_a_non_finite_coordinate(name):
    model = model_preset(name)
    with pytest.raises(NonFiniteInput, match="non-finite"):
        chart_point(model, embed_real(np.array([[np.nan, 0.0], [0.0, 1.0]]), model.tag))


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8"])
def test_overflowing_chart_coordinate_fails_without_a_warning(name):
    import warnings

    model = model_preset(name)
    X = embed_real(np.array([[1e300, 0.0], [0.0, 1.0]]), model.tag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="overflows"):
            chart_point(model, X)


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
        ShilovPoint(model, F)


def test_non_finite_vector_is_rejected():
    model = model_preset("so42")
    with pytest.raises(NonFiniteInput):
        ShilovPoint(model, [np.nan, 0.0, 0.0, 0.0, 1.0, 0.0])
    with pytest.raises(NonFiniteInput):
        ShilovPoint(model, [np.inf, 0.0, 0.0, 0.0, np.inf, 0.0])


def test_overflowing_vector_fails_without_a_warning():
    # a finite vector whose norm overflows is named, not divided by an infinite norm
    import warnings

    model = model_preset("so42")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="overflows"):
            ShilovPoint(model, [1e300, 0.0, 0.0, 0.0, 1.0, 0.0])
        big = ShilovPoint(model, [1e150, 0.0, 0.0, 0.0, 1e150, 0.0])
    assert np.allclose(big.ortho, [2**-0.5, 0.0, 0.0, 0.0, 2**-0.5, 0.0])


@pytest.mark.parametrize("name", LAGRANGIAN)
@pytest.mark.parametrize("as_list", [True, False])
def test_non_finite_frame_is_rejected(name, as_list):
    # the embedded array ShilovPoint holds, or the same frame as nested lists
    model = model_preset(name)
    _, p_minus = base_points(model)
    parts = [p.copy() for p in _parts(p_minus.frame)] if model.tag == "H" else [p_minus.frame.copy()]
    for bad in (np.inf, np.nan):
        parts[0][3, 1] = bad  # the field entry (3, 1)
        F = _chi(*parts) if model.tag == "H" else parts[0]
        with pytest.raises(NonFiniteInput):
            ShilovPoint(model, F.tolist() if as_list else F)


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
        M = draw(model.tag, (model.rank, model.rank), rng) + 3.0 * embed_real(np.eye(model.rank), model.tag)
        q = ShilovPoint(model, product(p.frame, M, model.tag))
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


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8", "sp8", "so32", "so42"])
def test_point_paths_equal_the_references(name):
    """ShilovPoint, act, chart_coordinates and standardize_pair against the per-point bodies they replaced."""
    model = model_preset(name)
    rng = np.random.default_rng(23)
    for _ in range(8):
        x, c = random_point(model, rng), random_point(model, rng)
        if model.is_lagrangian:
            # a frame that is not orthonormal: a change of representative of x
            U = draw(model.tag, (model.rank, model.rank), rng) + 2.0 * embed_real(np.eye(model.rank), model.tag)
            frame = product(x.frame, U, model.tag)
        else:
            frame = -2.5 * x.frame
        assert np.array_equal(ShilovPoint(model, frame).ortho, ReferencePoint(model, frame).ortho)
        g = random_element(model, rng, scale=1.5)
        y, y_ref = act(g, x), reference_act(g, x)
        assert np.array_equal(y.frame, y_ref.frame)
        assert np.array_equal(y.ortho, y_ref.ortho)
        assert np.array_equal(y.projector(), y_ref.projector())
        assert np.array_equal(chart_coordinates(y), reference_chart_coordinates(y_ref))
        if model.is_lagrangian and transversality_margin(x, c) > 1e-3:
            assert np.array_equal(standardize_pair(x, c).g, reference_standardize_pair(x, c).g)


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


@pytest.mark.parametrize("name", FAMILIES)
def test_stacked_guard_raises_its_first_failing_check(name):
    # a degenerate frame (zero lift) and then a NaN one: the stack fails the non-finite check, which runs
    # first, although the first frame alone fails the rank (zero-vector) check
    model = model_preset(name)
    D = len(model.form())
    zero, bad = np.zeros((D, D // 2) if model.is_lagrangian else D), base_points(model)[1].frame.copy()
    bad[0] = np.nan
    with pytest.raises(InvalidFrame):
        _guard(model, zero[None])
    with pytest.raises(NonFiniteInput):
        _guard(model, np.stack([zero, bad]))


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_stacked_chart_coordinates_raise_their_first_failing_check(name):
    # the graph [I; X] of a non-Hermitian X (so not isotropic) and then p_minus: the stack fails the chart
    # check, which runs before the solve, although the first frame alone fails the Hermitian check
    model = model_preset(name)
    X = embed_real(np.triu(np.ones((model.rank, model.rank))), model.tag)
    frames = np.concatenate([_graph_frames(model, X[None]), base_points(model)[1].frame[None]])
    orthos = _guard(model, frames)
    with pytest.raises(NotHermitian):
        chart_coordinates_stack(model, frames[:1], orthos[:1])
    with pytest.raises(NotInChart):
        chart_coordinates_stack(model, frames, orthos)


# Derandomized property tests: hypothesis draws the seeds of the random points, frames and elements.
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def coordinate_error(X, Y, tag):
    """|X - Y| / max(1, |X|) for two chart coordinates of a model."""
    return norm(X - Y, tag) / max(1.0, norm(X, tag))


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(seed=seeds)
def test_change_of_frame_representative(name, seed):
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    assume(transversality_margin(x, base_points(model)[1]) > 1e-3)
    if model.is_lagrangian:
        U = draw(model.tag, (model.rank, model.rank), rng)  # quaternionic on sostar8
        assume(np.linalg.cond(U) < 1e3)
        y = ShilovPoint(model, product(x.frame, U, model.tag))
    else:
        y = ShilovPoint(model, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0) * x.frame)
    assert np.linalg.norm(y.projector() - x.projector()) <= 1e-10
    assert coordinate_error(chart_coordinates(x), chart_coordinates(y), model.tag) <= 1e-9


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
    assert coordinate_error(X, chart.coords(chart.point(X)), model.tag) <= 1e-8


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(seed=seeds)
def test_action_composes(name, seed):
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    g, h = random_element(model, rng, scale=1.5), random_element(model, rng, scale=1.5)
    assert np.linalg.norm(act(g, act(h, x)).projector() - act(g @ h, x).projector()) <= 1e-9


@pytest.mark.parametrize("name", LAGRANGIAN)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=seeds, scale=st.floats(-3.0, 8.0), skew=st.floats(-12.0, 0.0))
def test_graph_frame_isotropy_defect_is_the_hermitian_defect(name, seed, scale, skew):
    # chart points skip the isotropy check: for E = [I; X], |E^H J E| = |X - X^H| bit for bit, and
    # check_hermitian bounds that by HERMITIAN_TOL * max(1, |X|), within ISOTROPY_TOL * max(1, |E|^2)
    assert HERMITIAN_TOL <= ISOTROPY_TOL
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    shape = (model.rank, model.rank)
    X = 10.0**scale * (hermitian_draw(model.tag, shape, rng) + 10.0**skew * draw(model.tag, shape, rng))
    E = _graph_frames(model, X[None])
    iso = frobenius_norms(product(product(adjoint(E), model.form(), model.tag), E, model.tag), model.tag)
    assert np.array_equal(iso, frobenius_norms((X - adjoint(X))[None], model.tag))


def _random_orthos(model, n, rng):
    """Orthos of n random points: unit lifts on SO(n, 2), chart points moved by one element otherwise."""
    if not model.is_lagrangian:
        return np.stack([random_ein_point(model, rng).ortho for _ in range(n)])
    F = _graph_frames(model, hermitian_draw(model.tag, (n, model.rank, model.rank), rng))
    return np.linalg.qr(product(random_element(model, rng).g, F, model.tag))[0]


def _assert_broadcasts(model, X, Y):
    # the pairwise-broadcast diagonal is the stacked form, and one point broadcasts as its stacked copies
    k = np.arange(len(X))
    assert np.array_equal(_pairings(model, X[:, None], Y[None])[k, k], _pairings(model, X, Y))
    assert np.array_equal(transversality_margins(model, X[0], Y),
                          transversality_margins(model, np.broadcast_to(X[0], Y.shape), Y))


@pytest.mark.parametrize("name", ["so22", "so32", "so42"])
def test_so_margins_are_the_absolute_pairings(name):
    model = model_preset(name)
    rng = np.random.default_rng(4)
    X, Y = _random_orthos(model, 200, rng), _random_orthos(model, 200, rng)
    assert np.array_equal(transversality_margins(model, X, Y), np.abs(_pairings(model, X, Y)))
    _assert_broadcasts(model, X, Y)


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "sp8"])
def test_lagrangian_margins_are_the_side_by_side_dets(name):
    # for orthonormal isotropic X, [X, JX] is unitary, so |det X^H J Y| is |det [X, Y]| of the two
    # frames side by side (the former margin; its square root over H)
    model = model_preset(name)
    rng = np.random.default_rng(4)
    X, Y = _random_orthos(model, 200, rng), _random_orthos(model, 200, rng)
    side_by_side = np.abs(np.linalg.det(np.concatenate([X, Y], axis=-1)))
    old = np.sqrt(side_by_side) if model.tag == "H" else side_by_side
    assert np.allclose(transversality_margins(model, X, Y), old, rtol=1e-12, atol=0)
    _assert_broadcasts(model, X, Y)


def _pair_near_the_band(model, rng, log_margins):
    """Chart points whose difference has one small eigenvalue, moved by one element, at a margin drawn log-uniform."""
    eye = embed_real(np.eye(model.rank), model.tag)
    X, W = (random_hermitian(model, rng) for _ in range(2))
    W = W - np.min(np.linalg.eigvalsh(W)) * eye
    g = random_element(model, rng)
    pair = lambda eps: (act(g, chart_point(model, X)), act(g, chart_point(model, X + W + eps * eye)))
    m0 = transversality_margin(*pair(1e-4))
    return pair(1e-4 * 10.0 ** rng.uniform(*log_margins) / m0)


@pytest.mark.parametrize("name", ["sp2", "sp4", "sp6", "sp8", "su22", "su33", "sostar8"])
@PROPERTY
@given(seed=seeds)
def test_overlaps_bound_the_margin_from_below(name, seed):
    # for orthonormal Lagrangian frames [X, JX] is unitary, so A = X^H Y and P = X^H J Y have
    # A^H A + P^H P = I, and the margin, a product of r sines, is at least (1 - |A|^2)^(r/2), |A|^2 in
    # field units; the limit-set dedup skips the determinant of pairs this bound clears.  Random pairs
    # moved by one element, pairs near the band, and near-coincident chart points
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    x = random_point(model, rng)
    near = chart_point(model, chart_coordinates(x) + 10.0 ** rng.uniform(-9, -4) * random_hermitian(model, rng))
    pairs = [tuple(_random_orthos(model, 2, rng)), tuple(p.ortho for p in _pair_near_the_band(model, rng, (-8, -1))),
             (x.ortho, near.ortho)]
    X, Y = (np.stack(side) for side in zip(*pairs))
    overlap = frobenius_norms(adjoint(X) @ Y, model.tag) ** 2  # the chi norm over sqrt(2) on H: field units
    bound = np.maximum(0.0, 1.0 - overlap - 1e-12) ** (model.rank / 2)  # 1e-12: the rounding of |A|^2
    assert np.all(bound <= transversality_margins(model, X, Y))


@pytest.mark.parametrize("name", ["sp4", "su22"])
@PROPERTY
@given(seed=seeds)
def test_two_by_two_margins_stay_within_ulps_of_the_lapack_det(name, seed):
    # _margins takes |P00 P11 - P01 P10| on 2 x 2 pairings: within 8 eps (|P00 P11| + |P01 P10|) of
    # |np.linalg.det| on random stacks, near-singular ones (det 1e-14 to 1e-8 of entries about 1) and
    # stacks scaled by 0.1 to 10, real on sp4 and complex on su22.  np.linalg.det returns
    # sign * exp(logdet), whose own error grows as eps |logdet| |det|, so wider scales are checked by
    # the closed form's exact covariance under 2^k instead
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    u, v = draw(model.tag, (2, 64, 2, 1), rng)
    near = u @ adjoint(v) + 10.0 ** rng.uniform(-14, -8, (64, 1, 1)) * draw(model.tag, (64, 2, 2), rng)
    P = np.concatenate([draw(model.tag, (64, 2, 2), rng), near,
                        10.0 ** rng.uniform(-1, 1, (64, 1, 1)) * draw(model.tag, (64, 2, 2), rng)])
    scale = np.abs(P[:, 0, 0] * P[:, 1, 1]) + np.abs(P[:, 0, 1] * P[:, 1, 0])
    margins = _margins(model, P)
    assert np.all(np.abs(margins - np.abs(np.linalg.det(P))) <= 8 * np.finfo(float).eps * scale)
    k = rng.integers(-200, 201, len(P)).astype(float)
    assert np.array_equal(_margins(model, P * 2.0 ** k[:, None, None]), margins * 4.0 ** k)


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "sp8"])
def test_pairs_just_above_the_band_standardize(name):
    # P = A^H J C has singular values at most 1, so cond(P) <= 1 / margin < 1e9 on a transverse pair,
    # and standardize_pair needs no pairing condition guard: margins in (TRANSVERSALITY_TOL, 10 TRANSVERSALITY_TOL]
    model = model_preset(name)
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        a, c = _pair_near_the_band(model, rng, (-8.9, -8.1))
        margin = transversality_margin(a, c)
        if not TRANSVERSALITY_TOL < margin <= 10 * TRANSVERSALITY_TOL:
            continue
        done += 1
        assert np.linalg.cond(_pairings(model, a.ortho, c.ortho)) * margin <= 1.0 + 1e-9
        try:
            standardize_pair(a, c)
        except IllConditioned as e:  # a pair may be refused for its result, never for its pairing's condition
            assert "pairing condition" not in str(e)


@pytest.mark.parametrize("name", ["su22", "sostar8"])
def test_standardization_near_the_band_fails_closed(name):
    # at margins about 1e-8 the element's form defect grows past 1e-8 (up to 0.88 on su22 and 1.5 on
    # sostar8 without the check): every pair standardizes within the form or raises
    model = model_preset(name)
    rng = np.random.default_rng(11)
    refused = 0
    for _ in range(20):
        a, c = _pair_near_the_band(model, rng, (-8.0, -8.0))
        try:
            S = standardize_pair(a, c)
        except IllConditioned as e:
            assert str(e).startswith("standardization lost the form at margin")
            refused += 1
        else:
            assert S.form_defect() <= 1e-8
    assert refused >= 10


def _so_pair_near_the_band(model, rng, log_margin):
    """Chart points whose difference is nearly lightlike, moved by one element, at about the given log margin."""
    x, d = rng.standard_normal(model.rank), rng.standard_normal(model.rank)
    g = random_element(model, rng)

    def pair(eta):  # psi(d) = eta
        d[-1] = np.sqrt(np.sum(d[:-1] ** 2) - eta)
        return act(g, chart_point(model, x)), act(g, chart_point(model, x + d))

    d[:-1] *= 2.0 / np.linalg.norm(d[:-1])
    m0 = transversality_margin(*pair(1e-4))
    return pair(1e-4 * 10.0 ** log_margin / m0)


def _standardizes_or_refuses(a, c):
    """Whether (a, c) standardizes within the form and onto the base pair; False where it raises IllConditioned."""
    p_plus, p_minus = base_points(a.model)
    try:
        S = standardize_pair(a, c)
    except IllConditioned:
        return False
    assert S.form_defect() <= 1e-8
    assert act(S, a).distance(p_plus) <= 1e-8 and act(S, c).distance(p_minus) <= 1e-8
    return True


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "sp8"])
def test_standardization_near_the_band_reaches_the_pair(name):
    # at margins 1e-8 to 1e-6 roundoff can leave an element within 1e-8 of the form that sends c up to
    # 1.2 from p_minus: every pair standardizes onto the base pair or raises IllConditioned, and so does
    # the chart built on it (never ModelMismatch from the chart's own transporter check)
    model = model_preset(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, c = _pair_near_the_band(model, rng, (-8.0, -6.0))
        _standardizes_or_refuses(a, c)
        try:
            ChartedChart.at_point(c, a)
        except IllConditioned:
            pass


@pytest.mark.parametrize("name", ["so22", "so32", "so42"])
def test_so_standardization_near_the_band_fails_closed(name):
    model = model_preset(name)
    rng = np.random.default_rng(12)
    done = {}
    for log_margin in (-3.0, -4.0, -5.0, -6.0, -7.0, -8.0):
        for _ in range(10):
            a, c = _so_pair_near_the_band(model, rng, log_margin)
            assert 0.5 * 10.0 ** log_margin < transversality_margin(a, c) < 2.0 * 10.0 ** log_margin
            done[log_margin] = done.get(log_margin, 0) + _standardizes_or_refuses(a, c)
    assert done[-3.0] == 10 and done[-8.0] == 0


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8", "sp8", "so22", "so42"])
def test_stacked_standardization_equals_the_pairs(name):
    model = model_preset(name)
    rng = np.random.default_rng(19)
    pairs = []
    while len(pairs) < 12:
        a, c = random_point(model, rng), random_point(model, rng)
        if transversality_margin(a, c) > 1e-3:
            pairs.append((a, c))
    A, C = (np.stack([p[i].ortho for p in pairs]) for i in (0, 1))
    S = _standardize_stack(model, A, C)
    for k, (a, c) in enumerate(pairs):
        assert np.array_equal(S[k], standardize_pair(a, c).g)
    # a refused row and a non-transverse row: the stack raises NotTransverse, its first check, in either order
    near = _pair_near_the_band(model, rng, (-8.0, -8.0)) if model.is_lagrangian else _so_pair_near_the_band(
        model, rng, -8.0)
    with pytest.raises(IllConditioned):
        standardize_pair(*near)
    for first in (2, 5):
        A2, C2 = A.copy(), C.copy()
        A2[first], C2[first] = near[0].ortho, near[1].ortho
        A2[7 - first] = C2[7 - first]
        with pytest.raises(NotTransverse):
            _standardize_stack(model, A2, C2)


def test_act_on_so_n2_keeps_images_of_a_long_element():
    # a boost of rapidity 9.5 keeps the form within 4.2e-9; the images of lifts near p_minus are short, and
    # their rounding lies above the isotropy bound 1e-8 |gx|^2, which only points from outside must meet
    model = model_preset("so22")
    n, t = model.rank, 9.5
    g = np.eye(n + 2)
    g[np.ix_([0, n], [0, n])] = [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
    boost = GroupElement(model, g)
    _, p_minus = base_points(model)
    rng = np.random.default_rng(0)
    for theta in np.exp(-t) * rng.uniform(0.5, 2.0, 200):
        x = p_minus.frame.copy()
        x[[0, 1]] = np.cos(theta) * x[0], np.sin(theta) * x[0]
        y = act(boost, ShilovPoint(model, x))
        assert abs(_pairings(model, y.frame, y.frame)) < 1e-6
    with pytest.raises(InvalidFrame, match="isotropy"):
        ShilovPoint(model, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", ["sp2", "sp4", "sp6", "sp8", "su22", "su33", "sostar8", "so22", "so32", "so42"])
def test_form_is_a_signed_permutation(name):
    model = model_preset(name)
    perm, sign = _form_permutation(model)
    rng = np.random.default_rng(2)
    shape = (40, 3, model.form().shape[0])
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    if model.tag != "R":
        X = X + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    assert np.array_equal(X @ model.form(), X[..., perm] * sign)


@pytest.mark.parametrize("name", ["sp2", "sp4", "sp6", "sp8", "su22", "su33", "sostar8"])
def test_lagrangian_pairings_equal_the_dense_product(name):
    model = model_preset(name)
    rng = np.random.default_rng(3)
    X, Y = _random_orthos(model, 300, rng), _random_orthos(model, 300, rng)
    assert np.array_equal(_pairings(model, X, Y), dense_pairings(model, X, Y))
    assert np.array_equal(_pairings(model, X[:, None], Y[None]), dense_pairings(model, X[:, None], Y[None]))
    assert np.array_equal(_pairings(model, X[0], Y), dense_pairings(model, X[0], Y))


def test_sp2_margins_against_rational_determinants():
    # the margin of two rational frames, exact but for one rounding, on pairs at the band edge
    # TRANSVERSALITY_TOL, at margin_floor 1e-6 and far from both: normalizing a frame costs a few ulp
    # absolute, 1e-10 relative where the margin is 1e-5 or more; a pair 1e-5 relative off the band
    # edge gets the exact verdict
    model = model_preset("sp2")
    rng = np.random.default_rng(6)
    eps = np.finfo(float).eps
    for target in (TRANSVERSALITY_TOL, 1e-6, 1e-5, 1e-2, 0.7):
        t = rng.uniform(0.0, np.pi, 100)
        turn = target * (1.0 + rng.choice([-1e-5, 1e-5], 100)) * rng.choice([-1.0, 1.0], 100)
        x = 10.0 ** rng.uniform(-3, 3, (100, 1)) * np.stack([np.cos(t), np.sin(t)], axis=1)
        y = 10.0 ** rng.uniform(-3, 3, (100, 1)) * np.stack([np.cos(t + turn), np.sin(t + turn)], axis=1)
        margins = transversality_margins(model, *(_guard(model, v[..., None]) for v in (x, y)))
        exact = np.array([sp2_exact_margin(p, q) for p, q in zip(x, y)])
        assert np.all(np.abs(margins - exact) <= 1e-10 * exact + 4 * eps)
        if target >= 1e-5:
            assert np.all(np.abs(margins - exact) <= 1e-10 * exact)
        if target == TRANSVERSALITY_TOL:
            assert np.array_equal(margins > TRANSVERSALITY_TOL, exact > TRANSVERSALITY_TOL)
            assert 20 < np.sum(exact > TRANSVERSALITY_TOL) < 80
