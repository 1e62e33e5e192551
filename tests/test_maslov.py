"""Maslov index: oracles, symmetries, the stacked kernel against the chart reference."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalflag import reps
from causalflag.causal import classify_orbit
from causalflag.errors import (
    CausalFlagError,
    DegenerateSignature,
    ModelMismatch,
    NotPairwiseTransverse,
)
from causalflag.groups import group_exp, model_preset, random_lie_element
from causalflag.causal import _random_hermitian
from causalflag.kmat import embed_real, hermitian_draw, in_layout, norm, product
from causalflag.linalg import signature
from causalflag.maslov import (
    TripleType,
    maslov_index,
    maslov_indices,
    maslov_invariance_report,
)
from causalflag.reps import preset, sample_limit_set, verify_maslov_zero
from causalflag.shilov import (
    TRANSVERSALITY_TOL,
    ShilovPoint,
    _graph_frames,
    act,
    base_points,
    chart_coordinates,
    chart_point,
    standardize_pair,
    transversality_margin,
)
from reference_points import kashiwara_full_form

LAGRANGIAN = ["sp4", "su22", "sostar8"]
ALL_MODELS = ["sp2", "sp4", "sp6", "su22", "su33", "sostar8", "so32", "so42"]


def _reference_index(a, b, c):
    """The chart path: standardize (a, c) to the base pair, classify b's chart coordinate."""
    model = a.model
    r = model.r
    X = chart_coordinates(act(standardize_pair(a, c), b))
    if model.is_lagrangian:
        sig = signature(X, model.tag)
        if sig.zero > 0:
            raise DegenerateSignature(f"signature {sig.as_tuple()} has a kernel")
        i = sig.pos
    else:
        i_plus, i_minus = classify_orbit(model, X)
        if i_plus + i_minus != 2:
            raise DegenerateSignature("middle point lies on a lightcone stratum")
        i = i_plus
    return TripleType(min(i, r - i), abs(r - 2 * i), r)


def _random_transverse_triple(model, rng, margin_floor=1e-6, max_tries=200):
    """Three random chart points whose pairwise margins all exceed margin_floor."""
    for _ in range(max_tries):
        if model.is_lagrangian:
            pts = []
            for _k in range(3):
                pts.append(chart_point(model, _random_hermitian(model, rng)))
        else:
            pts = [chart_point(model, rng.standard_normal(model.rank)) for _k in range(3)]
        m = min(
            transversality_margin(pts[0], pts[1]),
            transversality_margin(pts[1], pts[2]),
            transversality_margin(pts[0], pts[2]),
        )
        if m > margin_floor:
            return pts, m
    raise NotPairwiseTransverse("could not sample a well-separated triple")


def _moved_triple(model, rng, scale=1.5):
    """A transverse chart triple moved off the standard chart by exp(scale * Z / |Z|)."""
    pts, _ = _random_transverse_triple(model, rng)
    Z = random_lie_element(model, rng)
    g = group_exp(model, (scale / max(norm(Z, model.tag), 1e-300)) * Z)
    return [act(g, p) for p in pts]


def _stacks(triples):
    return [np.stack([t[k].ortho for t in triples]) for k in range(3)]


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_causal_chain_has_maximal_index(name):
    # three points in strict causal order realize the top orbit, idx = r
    model = model_preset(name)
    a = chart_point(model, -2.0 * embed_real(np.eye(2), model.tag))
    b = chart_point(model, embed_real(np.zeros((2, 2)), model.tag))
    c = chart_point(model, 2.0 * embed_real(np.eye(2), model.tag))
    t = maslov_index(a, b, c)
    assert t.idx == model.r
    assert t.i in (0, model.r) or t.i == min(t.i, model.r - t.i)
    assert t == _reference_index(a, b, c)


def _diag_coord(model, entries):
    return embed_real(np.diag(np.array(entries, dtype=float)), model.tag)


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_mixed_middle_point_has_index_zero(name):
    # one chart eigenvalue between the endpoints and one outside: i = 1
    model = model_preset(name)
    a = chart_point(model, -2.0 * embed_real(np.eye(2), model.tag))
    b = chart_point(model, _diag_coord(model, [0.0, 5.0]))
    c = chart_point(model, 2.0 * embed_real(np.eye(2), model.tag))
    t = maslov_index(a, b, c)
    assert t.idx == 0
    assert t.i == 1
    assert t == _reference_index(a, b, c)


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_spacelike_middle_point_has_extremal_index(name):
    model = model_preset(name)
    a = chart_point(model, -2.0 * embed_real(np.eye(2), model.tag))
    b = chart_point(model, _diag_coord(model, [3.0, -3.0]))
    c = chart_point(model, 2.0 * embed_real(np.eye(2), model.tag))
    assert maslov_index(a, b, c).idx == 2
    assert maslov_index(a, b, c) == _reference_index(a, b, c)


def test_base_pair_triple():
    model = model_preset("sp4")
    p_plus, p_minus = base_points(model)
    b = chart_point(model, np.eye(2))
    t = maslov_index(p_minus, b, p_plus)
    assert t.idx in (0, 2)
    assert t == _reference_index(p_minus, b, p_plus)


def test_non_transverse_triple_rejected():
    model = model_preset("sp4")
    a = chart_point(model, np.zeros((2, 2)))
    c = chart_point(model, np.eye(2))
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, a, c)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_nan_margin_in_any_slot_is_rejected(monkeypatch, slot):
    import causalflag.maslov as maslov_module

    model = model_preset("sp4")
    a, b, c = (chart_point(model, v * np.eye(2)) for v in (-2.0, 0.0, 2.0))
    assert maslov_index(a, b, c).idx == 2
    real = maslov_module._margins
    calls = []

    def nan_in_slot(model, P):
        calls.append(None)
        m = real(model, P)
        return np.full_like(m, np.nan) if len(calls) - 1 == slot else m

    monkeypatch.setattr(maslov_module, "_margins", nan_in_slot)
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, b, c)


def test_kernel_band_rejects_a_nearly_degenerate_form():
    # margins above TRANSVERSALITY_TOL, but Kashiwara's form has an eigenvalue of about m / 2
    model = model_preset("sp2")
    line = lambda t: ShilovPoint(model, np.array([[np.cos(t)], [np.sin(t)]]))
    a, b = line(0.0), line(np.pi / 2)
    with pytest.raises(DegenerateSignature):
        maslov_index(a, b, line(1.5e-9))
    assert maslov_index(a, b, line(3e-9)).idx == 1


def _lifted_lines(t1, t2):
    """The sp4 frame of the direct sum of the sp2 lines at angles t1 and t2, in the (x1, x2, y1, y2) layout."""
    return np.array([[np.cos(t1), 0.0], [0.0, np.cos(t2)], [np.sin(t1), 0.0], [0.0, np.sin(t2)]])


def test_band_edge_lines_lifted_to_rank_two():
    # the band-edge sp2 triple summed with a well separated one: the small eigenvalue of the form,
    # about 0.75e-9 or 1.5e-9, stays, so the Schur bound cannot certify it and the full form decides
    model = model_preset("sp4")
    second = (0.0, 2 * np.pi / 3, np.pi / 3)  # pairwise margins sin(pi / 3)
    for t, ok in ((1.5e-9, False), (3e-9, True)):
        A, B, C = (_lifted_lines(t1, t2)[None] for t1, t2 in zip((0.0, np.pi / 2, t), second))
        for triple in ((A, B, C), (C, A, B), (B, C, A)):  # the small margin in each slot, (a, b) too
            idx, margin, valid = maslov_indices(model, *triple)
            assert margin[0] > TRANSVERSALITY_TOL
            assert valid[0] == ok
            _assert_matches_full_form(model, *triple)
    assert idx[0] == 2  # the two summands' signatures share a sign


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["sp4", "su22"]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_schur_matches_the_full_form_at_the_band_edge(name, seed):
    # 2 x 2 pairings take the closed-form Schur spectrum: lifted sp2 lines whose small angle t, drawn
    # log-uniform in [10^-9.5, 10^-6], moves the Schur complement's small eigenvalue across the bound's
    # edge 2e-9 (1 + sqrt(2) / m)^2, summed with a second triple at random angles, the small margin in
    # each slot, moved by one element and given random representatives (complex on su22): idx, margin
    # and valid bit for bit against the whole form
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    t, second = 10.0 ** rng.uniform(-9.5, -6, 32), rng.uniform(0.0, np.pi, (3, 32))
    Z = random_lie_element(model, rng)
    g = group_exp(model, Z / max(norm(Z, model.tag), 1e-300)).g
    A, B, C = (np.stack([_change_representative(model, np.linalg.qr(g @ _lifted_lines(t1, t2))[0], rng)
                         for t1, t2 in zip(first, angles)])
               for first, angles in zip((np.zeros(32), np.full(32, np.pi / 2), t), second))
    for triple in ((A, B, C), (C, A, B), (B, C, A)):
        _assert_matches_full_form(model, *triple)


def _oracle_triples(model, n, rng):
    """Four stacks of n frame triples, each chart point moved by one group element g.

    (A, B, C) are random chart points; (A, B, D), (D, A, B) and (B, D, A) are
    near-degenerate, D's chart coordinate within 10^-k of A's, k in [1, 12].
    """
    X, Y, W, noise = (hermitian_draw(model.tag, (n, model.rank, model.rank), rng) for _ in range(4))
    near = X + 10.0 ** -rng.integers(1, 13, size=n)[:, None, None] * noise
    Z = random_lie_element(model, rng)
    g = group_exp(model, Z / max(norm(Z, model.tag), 1e-300)).g
    A, B, C, D = (np.linalg.qr(product(g, _graph_frames(model, V), model.tag))[0] for V in (X, Y, W, near))
    return (A, B, C), (A, B, D), (D, A, B), (B, D, A)


def _assert_matches_full_form(model, A, B, C):
    for got, want in zip(maslov_indices(model, A, B, C), kashiwara_full_form(model, A, B, C)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["sp2", "sp4", "su22", "sostar8", "sp8"]), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_the_full_kashiwara_form(name, seed):
    # idx, margin and valid bit for bit, on random and near-degenerate triples moved off the chart,
    # stacks with two leading axes, and one frame broadcast against a stack
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    for A, B, C in _oracle_triples(model, 48, rng):
        _assert_matches_full_form(model, A, B, C)
        _assert_matches_full_form(model, *(F.reshape((4, 12) + F.shape[1:]) for F in (A, B, C)))
        _assert_matches_full_form(model, np.broadcast_to(A[0], A.shape), B, C)


@pytest.mark.parametrize("name", ["sp2", "sp4", "su22", "sostar8", "sp8"])
def test_repeated_points_fail_closed_in_a_stack(name):
    # A = B (Mab singular), B = C and A = C rows among good ones: no LinAlgError from the solve,
    # the repeated rows invalid, the good rows as on their own
    model = model_preset(name)
    (A, B, C), *_ = _oracle_triples(model, 12, np.random.default_rng(7))
    good = maslov_indices(model, A, B, C)
    A2, B2, C2 = A.copy(), B.copy(), C.copy()
    B2[::4], C2[1::4], A2[2::4] = A[::4], B[1::4], C[2::4]
    idx, margin, valid = maslov_indices(model, A2, B2, C2)
    repeated = np.arange(12) % 4 < 3
    assert not valid[repeated].any()
    for got, want in zip((idx, margin, valid), good):
        assert np.array_equal(got[~repeated], want[~repeated])
    _assert_matches_full_form(model, A2, B2, C2)


def test_nan_margins_in_a_stack_fail_closed(monkeypatch):
    # NaN margins on some rows keep those rows off the Schur bound; the others keep their verdicts
    import causalflag.maslov as maslov_module

    model = model_preset("sp4")
    A, B, C = _oracle_triples(model, 8, np.random.default_rng(3))[0]
    good = maslov_indices(model, A, B, C)
    real = maslov_module._margins

    def nan_rows(model, P):
        m = real(model, P)
        m[::2] = np.nan
        return m

    monkeypatch.setattr(maslov_module, "_margins", nan_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, margin, valid = maslov_indices(model, A, B, C)
    assert not valid[::2].any()
    for got, want in zip((idx, margin, valid), good):
        assert np.array_equal(got[1::2], want[1::2])


def test_nan_frames_warn_and_raise_as_the_full_form_does():
    # a NaN frame row warns in the margins' det and stops the full form's eigvalsh, as it always did;
    # the Schur bound adds no warning of its own
    import causalflag.maslov as maslov_module

    model = model_preset("su22")
    A, B, C = _oracle_triples(model, 8, np.random.default_rng(5))[0]
    A[3] = np.nan
    seen = {}
    for kernel in (maslov_indices, kashiwara_full_form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid value encountered in det"):
                kernel(model, A, B, C)
        with warnings.catch_warnings(record=True) as seen[kernel]:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError):
                kernel(model, A, B, C)
    assert [(w.category, str(w.message)) for w in seen[maslov_indices]] == \
        [(w.category, str(w.message)) for w in seen[kashiwara_full_form]]
    assert not any(w.filename == maslov_module.__file__ for w in seen[maslov_indices])


def test_mixed_models_rejected():
    sp4, su22 = model_preset("sp4"), model_preset("su22")
    a = chart_point(sp4, -2.0 * np.eye(2))
    b = chart_point(su22, np.zeros((2, 2), dtype=complex))
    c = chart_point(sp4, 2.0 * np.eye(2))
    for triple in ((a, b, c), (b, a, c), (a, c, b)):
        with pytest.raises(ModelMismatch):
            maslov_index(*triple)


@pytest.mark.parametrize("name", LAGRANGIAN + ["so42"])
def test_cyclic_and_swap_symmetry(name):
    model = model_preset(name)
    rng = np.random.default_rng(19)
    done = 0
    while done < 30:
        try:
            (a, b, c), m = _random_transverse_triple(model, rng)
            base = maslov_index(a, b, c)
            cyc = maslov_index(b, c, a)
            swp = maslov_index(a, c, b)
        except Exception:
            continue
        done += 1
        assert base.idx == cyc.idx == swp.idx


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_batched_engine_matches_scalar(name):
    # one stacked kernel call agrees with the batch-of-one maslov_index and its margins
    model = model_preset(name)
    rng = np.random.default_rng(23)
    triples = [_random_transverse_triple(model, rng)[0] for _ in range(100)]
    idx, margin, valid = maslov_indices(model, *_stacks(triples))
    assert valid.all()
    assert idx.tolist() == [maslov_index(*t).idx for t in triples]
    assert margin.tolist() == [
        min(transversality_margin(a, b), transversality_margin(b, c), transversality_margin(a, c))
        for a, b, c in triples
    ]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_kernel_matches_chart_reference_off_the_standard_chart(name):
    model = model_preset(name)
    rng = np.random.default_rng(31)
    triples, expected = [], []
    while len(triples) < 40:
        t = _moved_triple(model, rng)
        try:
            ref = _reference_index(*t)
        except CausalFlagError:  # the chart path's own guards (conditioning, chart, band)
            continue
        triples.append(t)
        expected.append(ref)
    idx, _, valid = maslov_indices(model, *_stacks(triples))
    assert valid.all()
    assert idx.tolist() == [t.idx for t in expected]
    assert [maslov_index(*t) for t in triples] == expected


def _change_representative(model, Q, rng):
    """Q -> QU for a random unitary U; a random sign on SO(n, 2)."""
    if not model.is_lagrangian:
        return rng.choice([-1.0, 1.0]) * Q
    d = Q.shape[-1]
    G = rng.standard_normal((d, d))
    if model.tag != "R":
        G = G + 1j * rng.standard_normal((d, d))
    return Q @ np.linalg.qr(G)[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(ALL_MODELS), seed=st.integers(0, 2**32 - 1))
def test_kernel_invariances(name, seed):
    # frame representative Q -> QU, cyclic and swap symmetry, and the G-action
    model = model_preset(name)
    rng = np.random.default_rng(seed)
    a, b, c = _moved_triple(model, rng)
    A, B, C = (p.ortho[None] for p in (a, b, c))
    idx, _, valid = maslov_indices(model, A, B, C)
    assume(valid[0])

    def index(*stack):
        i, _, ok = maslov_indices(model, *stack)
        assert ok[0]
        return i[0]

    assert index(*(_change_representative(model, Q, rng) for Q in (A, B, C))) == idx[0]
    for perm in ((B, C, A), (C, A, B), (A, C, B), (B, A, C), (C, B, A)):
        assert index(*perm) == idx[0]
    Z = random_lie_element(model, rng)
    g = group_exp(model, (1.0 / max(norm(Z, model.tag), 1e-300)) * Z)
    assert index(*(act(g, p).ortho[None] for p in (a, b, c))) == idx[0]


@pytest.mark.parametrize("pid,max_len", [("tau0-sp4-f2", 6), ("tau0-sostar8-f2", 5)])
def test_verify_maslov_zero_matches_per_triple_reference(pid, max_len):
    sample = sample_limit_set(preset(pid), max_len, seed=2)
    pts = sample.points
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        violations = 0
        skipped = {"not_transverse": 0, "degenerate_form": 0}
        margins = []
        for _ in range(200):
            i, j, k = reps._distinct_triples(rng, len(sample), 1)[0]
            a, b, c = pts[i], pts[j], pts[k]
            m = min(transversality_margin(a, b), transversality_margin(b, c), transversality_margin(a, c))
            if not m > TRANSVERSALITY_TOL:
                skipped["not_transverse"] += 1
                continue
            try:
                t = _reference_index(a, b, c)
            except DegenerateSignature:
                skipped["degenerate_form"] += 1
                continue
            margins.append(m)
            violations += t.idx != 0
        assert verify_maslov_zero(sample, 200, seed=seed) == {
            "triples": 200,
            "violations": violations,
            "skipped": sum(skipped.values()),
            "skipped_by_reason": skipped,
            "min_margin": float(min(margins)) if margins else None,
            "median_margin": float(np.median(margins)) if margins else None,
        }


@pytest.mark.parametrize("name", LAGRANGIAN + ["so42"])
def test_invariance_report_small(name):
    model = model_preset(name)
    rep = maslov_invariance_report(model, 300, seed=3)
    assert rep["violations"] == 0
    assert rep["skipped"] < 50
    assert list(rep["skipped_by_reason"]) == ["not_transverse", "degenerate_form", "base_margin"]
    assert sum(rep["skipped_by_reason"].values()) == rep["skipped"]
    assert rep["min_margin"] is None or rep["min_margin"] > 1e-9


def test_skip_reasons_take_the_first_reason():
    # trials: kept, one margin in the band (and a degenerate form), a degenerate form, a small base margin
    from causalflag.maslov import _skip_reasons

    margins = [np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, np.nan, 1.0, 1.0]), np.array([1.0, 1.0, 1.0, 1.0])]
    valid = np.array([True, False, False, True])
    base_ok = np.array([True, False, True, False])
    assert _skip_reasons(margins, valid, base_ok).tolist() == [-1, 0, 1, 2]
    assert _skip_reasons(margins[:2], valid).tolist() == [-1, 0, 1, -1]


def test_invariance_sampler_stays_in_the_quaternionic_layout(monkeypatch):
    # the sampled elements and the moved frames g F are chi arrays: every product goes through kmat.product
    import causalflag.maslov as maslov_module

    exp_stack, orthonormal = maslov_module.exp_stack, maslov_module._orthonormal
    elements, frames = [], []

    def record_exp(model, Z):
        elements.append(exp_stack(model, Z))
        return elements[-1]

    def record_frames(model, F):
        frames.append(F)
        return orthonormal(model, F)

    monkeypatch.setattr(maslov_module, "exp_stack", record_exp)
    monkeypatch.setattr(maslov_module, "_orthonormal", record_frames)
    maslov_invariance_report(model_preset("sostar8"), 300, seed=3)
    assert len(elements) == 1 and len(frames) == 6  # base frames, then the moved ones
    assert in_layout(elements[0])
    assert all(in_layout(F) for F in frames)


def test_index_parity():
    # idx and r always share parity by construction
    model = model_preset("sp4")
    rng = np.random.default_rng(29)
    for _ in range(30):
        try:
            (a, b, c), _ = _random_transverse_triple(model, rng)
            t = maslov_index(a, b, c)
        except Exception:
            continue
        assert (t.idx - t.rank) % 2 == 0
        assert 0 <= t.i <= t.rank // 2


@pytest.mark.parametrize("trials", [0, -1])
def test_invariance_report_needs_a_trial(trials):
    with pytest.raises(ValueError, match="at least 1"):
        maslov_invariance_report(model_preset("sp4"), trials, seed=0)
