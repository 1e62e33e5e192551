"""Maslov index: oracles, symmetries, batched engine against the scalar one."""

import numpy as np
import pytest

from causalflag.errors import NotPairwiseTransverse
from causalflag.groups import model_preset
from causalflag.kmat import KMat
from causalflag.maslov import (
    _batch_idx,
    _random_transverse_triple,
    maslov_index,
    maslov_invariance_report,
)
from causalflag.shilov import base_points, chart_point

LAGRANGIAN = ["sp4", "su22", "sostar8"]


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_causal_chain_has_maximal_index(name):
    # three points in strict causal order realize the top orbit, idx = r
    model = model_preset(name)
    a = chart_point(model, -2.0 * KMat.eye(model.tag, 2))
    b = chart_point(model, KMat.zeros(model.tag, 2))
    c = chart_point(model, 2.0 * KMat.eye(model.tag, 2))
    t = maslov_index(a, b, c)
    assert t.idx == model.r
    assert t.i in (0, model.r) or t.i == min(t.i, model.r - t.i)


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


@pytest.mark.parametrize("name", LAGRANGIAN)
def test_spacelike_middle_point_has_extremal_index(name):
    model = model_preset(name)
    a = chart_point(model, -2.0 * KMat.eye(model.tag, 2))
    b = chart_point(model, _diag_coord(model, [3.0, -3.0]))
    c = chart_point(model, 2.0 * KMat.eye(model.tag, 2))
    assert maslov_index(a, b, c).idx == 2


def test_base_pair_triple():
    model = model_preset("sp4")
    p_plus, p_minus = base_points(model)
    b = chart_point(model, KMat.eye("R", 2))
    t = maslov_index(p_minus, b, p_plus)
    assert t.idx in (0, 2)


def test_non_transverse_triple_rejected():
    model = model_preset("sp4")
    a = chart_point(model, KMat.zeros("R", 2))
    c = chart_point(model, KMat.eye("R", 2))
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, a, c)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_nan_margin_in_any_slot_is_rejected(monkeypatch, slot):
    import causalflag.maslov as maslov_module

    model = model_preset("sp4")
    a, b, c = (chart_point(model, v * KMat.eye("R", 2)) for v in (-2.0, 0.0, 2.0))
    assert maslov_index(a, b, c).idx == 2
    real = maslov_module.transversality_margin
    calls = []

    def nan_in_slot(x, y):
        calls.append(None)
        return float("nan") if len(calls) - 1 == slot else real(x, y)

    monkeypatch.setattr(maslov_module, "transversality_margin", nan_in_slot)
    with pytest.raises(NotPairwiseTransverse):
        maslov_index(a, b, c)


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
    model = model_preset(name)
    rng = np.random.default_rng(23)
    J = model.form().embed()
    if model.tag == "R":
        J = J.real
    checked = 0
    while checked < 100:
        try:
            (a, b, c), m = _random_transverse_triple(model, rng)
            base = maslov_index(a, b, c)
        except Exception:
            continue
        frames = []
        for p in (a, b, c):
            F = p.frame.embed()
            frames.append((F.real if model.tag == "R" else F)[None])
        idx, margins, ok = _batch_idx(model, *frames, J)
        if not ok[0]:
            continue
        checked += 1
        assert int(idx[0]) == base.idx
        assert abs(float(margins[0]) - m) < 1e-8 * max(1.0, m)


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
