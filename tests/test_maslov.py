"""Maslov index: oracles, symmetries, the stacked kernel against the chart reference."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalflag.causal import classify_orbit
from causalflag.errors import (
    CausalFlagError,
    DegenerateSignature,
    ModelMismatch,
    NotPairwiseTransverse,
)
from causalflag.groups import group_exp, model_preset, random_lie_element
from causalflag.causal import _random_hermitian
from causalflag.kmat import KMat, norm
from causalflag.linalg import signature
from causalflag.maslov import (
    MARGIN_TOL,
    TripleType,
    maslov_index,
    maslov_indices,
    maslov_invariance_report,
)
from causalflag.reps import preset, sample_limit_set, verify_maslov_zero
from causalflag.shilov import (
    ShilovPoint,
    act,
    base_points,
    chart_coordinates,
    chart_point,
    standardize_pair,
    transversality_margin,
)

LAGRANGIAN = ["sp4", "su22", "sostar8"]
ALL_MODELS = ["sp2", "sp4", "sp6", "su22", "su33", "sostar8", "so32", "so42"]


def _reference_index(a, b, c):
    """The chart path: standardize (a, c) to the base pair, classify b's chart coordinate."""
    model = a.model
    r = model.r
    X = chart_coordinates(act(standardize_pair(a, c), b))
    if model.is_lagrangian:
        sig = signature(X.embed(), X.tag)
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
    a = chart_point(model, -2.0 * KMat.eye(model.tag, 2))
    b = chart_point(model, KMat(model.tag, np.zeros((2, 2))))
    c = chart_point(model, 2.0 * KMat.eye(model.tag, 2))
    t = maslov_index(a, b, c)
    assert t.idx == model.r
    assert t.i in (0, model.r) or t.i == min(t.i, model.r - t.i)
    assert t == _reference_index(a, b, c)


def _diag_coord(model, entries):
    d = np.diag(np.array(entries, dtype=float))
    return KMat(model.tag, d.astype(complex) if model.tag != "R" else d)


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_mixed_middle_point_has_index_zero(name):
    # one chart eigenvalue between the endpoints and one outside: i = 1
    model = model_preset(name)
    a = chart_point(model, -2.0 * KMat.eye(model.tag, 2))
    b = chart_point(model, _diag_coord(model, [0.0, 5.0]))
    c = chart_point(model, 2.0 * KMat.eye(model.tag, 2))
    t = maslov_index(a, b, c)
    assert t.idx == 0
    assert t.i == 1
    assert t == _reference_index(a, b, c)


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_spacelike_middle_point_has_extremal_index(name):
    model = model_preset(name)
    a = chart_point(model, -2.0 * KMat.eye(model.tag, 2))
    b = chart_point(model, _diag_coord(model, [3.0, -3.0]))
    c = chart_point(model, 2.0 * KMat.eye(model.tag, 2))
    assert maslov_index(a, b, c).idx == 2
    assert maslov_index(a, b, c) == _reference_index(a, b, c)


def test_base_pair_triple():
    model = model_preset("sp4")
    p_plus, p_minus = base_points(model)
    b = chart_point(model, KMat.eye("R", 2))
    t = maslov_index(p_minus, b, p_plus)
    assert t.idx in (0, 2)
    assert t == _reference_index(p_minus, b, p_plus)


def test_non_transverse_triple_rejected():
    model = model_preset("sp4")
    a = chart_point(model, KMat("R", np.zeros((2, 2))))
    c = chart_point(model, KMat.eye("R", 2))
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, a, c)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_nan_margin_in_any_slot_is_rejected(monkeypatch, slot):
    import causalflag.maslov as maslov_module

    model = model_preset("sp4")
    a, b, c = (chart_point(model, v * KMat.eye("R", 2)) for v in (-2.0, 0.0, 2.0))
    assert maslov_index(a, b, c).idx == 2
    real = maslov_module.transversality_margins
    calls = []

    def nan_in_slot(model, X, Y):
        calls.append(None)
        m = real(model, X, Y)
        return np.full_like(m, np.nan) if len(calls) - 1 == slot else m

    monkeypatch.setattr(maslov_module, "transversality_margins", nan_in_slot)
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, b, c)


def test_kernel_band_rejects_a_nearly_degenerate_form():
    # margins above MARGIN_TOL, but Kashiwara's form has an eigenvalue of about m / 2
    model = model_preset("sp2")
    line = lambda t: ShilovPoint(model, KMat("R", np.array([[np.cos(t)], [np.sin(t)]])))
    a, b = line(0.0), line(np.pi / 2)
    with pytest.raises(DegenerateSignature):
        maslov_index(a, b, line(1.5e-9))
    assert maslov_index(a, b, line(3e-9)).idx == 1


def test_mixed_models_rejected():
    sp4, su22 = model_preset("sp4"), model_preset("su22")
    a = chart_point(sp4, -2.0 * KMat.eye("R", 2))
    b = chart_point(su22, KMat("C", np.zeros((2, 2))))
    c = chart_point(sp4, 2.0 * KMat.eye("R", 2))
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
        violations = skipped = 0
        margins = []
        for _ in range(200):
            i, j, k = rng.choice(len(sample), size=3, replace=False)
            a, b, c = pts[i], pts[j], pts[k]
            m = min(transversality_margin(a, b), transversality_margin(b, c), transversality_margin(a, c))
            try:
                if not m > MARGIN_TOL:
                    raise NotPairwiseTransverse("margin in the band")
                t = _reference_index(a, b, c)
            except (NotPairwiseTransverse, DegenerateSignature):
                skipped += 1
                continue
            margins.append(m)
            violations += t.idx != 0
        assert verify_maslov_zero(sample, 200, seed=seed) == {
            "triples": 200,
            "violations": violations,
            "skipped": skipped,
            "min_margin": float(min(margins)) if margins else None,
            "median_margin": float(np.median(margins)) if margins else None,
        }


@pytest.mark.parametrize("name", LAGRANGIAN + ["so42"])
def test_invariance_report_small(name):
    model = model_preset(name)
    rep = maslov_invariance_report(model, 300, seed=3)
    assert rep["violations"] == 0
    assert rep["skipped"] < 50
    assert rep["min_margin"] is None or rep["min_margin"] > 1e-9


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
