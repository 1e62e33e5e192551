"""Group models, projections, Levi embedding."""

import numpy as np
import pytest

from causalflag.errors import ModelMismatch, NotUnimodular, OddRank, UnknownPreset
from causalflag.groups import (
    SO_N2,
    SP,
    SOSTAR,
    GroupElement,
    GroupModel,
    alpha_r,
    cartan_projection,
    form_defect,
    group_exp,
    in_levi_block_form,
    levi_block,
    lyapunov_projection,
    model_preset,
    random_lie_element,
    tau_p,
)
from causalflag.kmat import KMat, norm, product

FAMILIES = ["sp4", "su22", "sostar8", "so42"]


def random_element(model, rng, scale=0.5):
    Z = random_lie_element(model, rng)
    Z = (scale / max(norm(Z, model.tag), 1e-300)) * Z
    return group_exp(model, Z)


def test_preset_shapes():
    assert model_preset("sp4").dim == 4
    assert model_preset("su22").dim == 4
    assert model_preset("sostar8").dim == 4  # quaternionic 4x4, embeds as 8x8
    assert model_preset("so42").dim == 6
    with pytest.raises(UnknownPreset):
        model_preset("nope")


def test_model_rank_guard():
    with pytest.raises(ModelMismatch):
        GroupModel(SO_N2, 1)  # SO(1, 2)
    for family in (SP, SOSTAR):
        with pytest.raises(ModelMismatch):
            GroupModel(family, 0)
    assert GroupModel(SO_N2, 2).dim == 4
    assert GroupModel(SP, 1).dim == 2


def test_form_squares():
    for name in ["sp4", "su22", "sostar8"]:
        model = model_preset(name)
        J = model.form()
        assert norm(product(J, J, model.tag) + np.eye(len(J)), model.tag) < 1e-14
    b = model_preset("so42").form()
    assert np.linalg.norm(b @ b - np.eye(6)) < 1e-14


@pytest.mark.parametrize("name", FAMILIES)
def test_exp_lands_in_group_and_inverse_works(name):
    model = model_preset(name)
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_element(model, rng)
        assert form_defect(model, g.g) < 1e-10
        prod = g @ g.inv()
        assert norm(prod.g - np.eye(len(prod.g)), model.tag) < 1e-10


def test_form_defect_gate():
    model = model_preset("sp4")
    with pytest.raises(ModelMismatch):
        GroupElement(model, 2.0 * np.eye(4))


@pytest.mark.parametrize("name", ["sp4", "su22", "sostar8", "so42"])
def test_form_check_rejects_nan(name):
    model = model_preset(name)
    g = KMat.eye(model.tag, model.dim)
    g.a[0, 0] = np.nan
    with pytest.raises(ModelMismatch):
        GroupElement(model, g.embed())


@pytest.mark.parametrize("name", FAMILIES)
def test_elements_and_forms_are_embedded_arrays(name):
    model = model_preset(name)
    g = random_element(model, np.random.default_rng(4))
    size = 2 * model.dim if model.tag == "H" else model.dim
    for M in (model.form(), g.g, g.inv().g, (g @ g).g):
        assert isinstance(M, np.ndarray) and M.shape == (size, size)
        assert np.iscomplexobj(M) == (model.tag != "R")
    assert g.to_json()["g"] == KMat.unembed(model.tag, g.g).to_json()
    with pytest.raises(ModelMismatch):
        GroupElement(model, g.g[:-1])
    if model.tag == "R":
        with pytest.raises(ModelMismatch):
            GroupElement(model, g.g.astype(complex))


def test_quaternionic_elements_must_be_in_layout():
    model = model_preset("sostar8")
    g = random_element(model, np.random.default_rng(6))
    bad = g.g.copy()
    bad[4:, :4] = 0.0  # the bottom blocks no longer mirror the top ones
    with pytest.raises(ModelMismatch, match="layout"):
        GroupElement(model, bad)
    assert np.array_equal(GroupElement(model, g.g.copy()).g, g.g)


def test_cartan_projection_of_levi_diagonal():
    model = model_preset("sp4")
    g = tau_p(np.diag([3.0, 1.0 / 3.0]), model)
    mu = cartan_projection(g)
    assert np.allclose(mu, [np.log(3.0), np.log(3.0)], atol=1e-12)
    assert abs(alpha_r(mu) - 2.0 * np.log(3.0)) < 1e-12


def test_lyapunov_matches_cartan_on_diagonalizable():
    model = model_preset("sp4")
    g = tau_p(np.diag([3.0, 1.0 / 3.0]), model)
    lam = lyapunov_projection(g, cross_check=True)
    assert np.allclose(lam, cartan_projection(g), atol=1e-10)


@pytest.mark.parametrize("name", FAMILIES)
def test_cartan_dominant_and_nonnegative(name):
    model = model_preset(name)
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = cartan_projection(random_element(model, rng, scale=1.5))
        assert np.all(mu >= 0.0)
        assert np.all(np.diff(mu) <= 1e-12)


def test_tau_p_is_a_homomorphism_into_the_group():
    rng = np.random.default_rng(9)
    for name in ["sp4", "su22", "sostar8"]:
        model = model_preset(name)
        A = np.array([[1.0, 0.7], [0.0, 1.0]])
        B = np.array([[2.0, 0.0], [0.3, 0.5]])
        B /= np.sqrt(np.linalg.det(B))
        lhs = tau_p(A, model) @ tau_p(B, model)
        rhs = tau_p(A @ B, model)
        assert norm(lhs.g - rhs.g, model.tag) < 1e-10
        assert tau_p(A, model).form_defect() < 1e-12


def test_tau_p_rejections():
    with pytest.raises(OddRank):
        tau_p(np.eye(2), model_preset("sp6"))
    with pytest.raises(NotUnimodular):
        tau_p(2.0 * np.eye(2), model_preset("sp4"))
    with pytest.raises(ModelMismatch):
        tau_p(np.eye(2), model_preset("so42"))


def test_levi_block_detection():
    model = model_preset("sp4")
    g = tau_p(np.diag([2.0, 0.5]), model)
    assert in_levi_block_form(g)
    assert np.allclose(levi_block(g), np.diag([2.0, 0.5]))
    rng = np.random.default_rng(1)
    h = random_element(model, rng)
    # a generic element has off-diagonal blocks
    assert not in_levi_block_form(h @ g @ h.inv())


def test_json_roundtrip():
    model = model_preset("sostar8")
    rng = np.random.default_rng(2)
    g = random_element(model, rng)
    h = GroupElement.from_json(g.to_json())
    assert norm(g.g - h.g, model.tag) < 1e-14
