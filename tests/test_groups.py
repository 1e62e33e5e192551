"""Group models, projections, Levi embedding."""

import numpy as np
import pytest

from causalflag.errors import ModelMismatch, NonConvergence, NonFiniteInput, NotUnimodular, OddRank, Singular, UnknownPreset
from causalflag.groups import (
    SO_N2,
    SP,
    SOSTAR,
    _PADE_THETA,
    GroupElement,
    GroupModel,
    cartan_projection,
    cartan_projections,
    exp_stack,
    form_defect,
    group_exp,
    in_levi_block_form,
    levi_block,
    lyapunov_projection,
    lyapunov_projections,
    model_preset,
    random_lie_element,
    shilov_root,
    tau_p,
)
from causalflag.kmat import _chi, _parts, embed_real, from_json, norm, product
from causalflag.linalg import eig_moduli

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
    g = np.eye(model.dim)
    g[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        GroupElement(model, embed_real(g, model.tag))
    g[0, 0] = 1e300  # finite, but the form defect overflows; named without a floating point warning
    with pytest.raises(NonFiniteInput, match="overflows"):
        GroupElement(model, embed_real(g, model.tag))


@pytest.mark.parametrize("name", FAMILIES)
def test_elements_and_forms_are_embedded_arrays(name):
    model = model_preset(name)
    g = random_element(model, np.random.default_rng(4))
    size = 2 * model.dim if model.tag == "H" else model.dim
    for M in (model.form(), g.g, g.inv().g, (g @ g).g):
        assert isinstance(M, np.ndarray) and M.shape == (size, size)
        assert np.iscomplexobj(M) == (model.tag != "R")
    assert np.array_equal(from_json(g.to_json()["g"], model.tag), g.g)
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
    assert abs(shilov_root(model, mu) - 2.0 * np.log(3.0)) < 1e-12


def test_shilov_root_per_family():
    # 2 mu_r on the Lagrangian families (type C_r), mu_1 - mu_2 on SO(n, 2) (type B_2), on any leading shape
    mu = np.array([[3.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(shilov_root(model_preset("sp4"), mu), [2.0, 4.0])
    assert np.array_equal(shilov_root(model_preset("so32"), mu), [2.0, 0.0])
    assert shilov_root(model_preset("sp6"), np.array([3.0, 2.0, 0.5])) == 1.0


def test_lyapunov_matches_cartan_on_diagonalizable():
    model = model_preset("sp4")
    g = tau_p(np.diag([3.0, 1.0 / 3.0]), model)
    lam = lyapunov_projection(g)
    assert np.allclose(lam, cartan_projection(g), atol=1e-10)


def test_lyapunov_underflow_is_masked_in_a_stack_and_raised_for_one():
    model = model_preset("sp4")
    E = np.stack([np.diag([1e301, 2.0, 1e-301, 0.5]), np.diag([3.0, 2.0, 1.0 / 3.0, 0.5])])
    lam, underflow = lyapunov_projections(model, E)
    assert underflow.tolist() == [True, False]
    assert np.array_equal(lam[1], np.log([3.0, 2.0]))
    with pytest.raises(NonConvergence, match="underflow"):
        lyapunov_projection(GroupElement(model, E[0]))


# embedded 1-norms: 1e-8, both sides of the thresholds of the [m/m] Pade approximants for m = 3, 5, 7, 9
# and 13 (Higham 2005), and scaling powers s = 1 to 4 of the [13/13] approximant
_THETAS = [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068e0, _PADE_THETA]
EXP_NORMS = [1e-8] + [t * f for t in _THETAS for f in (0.99, 1.01)] + [1.5 * 2**s * _PADE_THETA for s in range(4)]


def _lie_stack(model, rng, norms, per_norm):
    """per_norm Lie algebra elements of embedded 1-norm n for each n of norms."""
    Z = np.stack([random_lie_element(model, rng) for _ in range(len(norms) * per_norm)])
    scale = np.repeat(norms, per_norm) / np.max(np.sum(np.abs(Z), axis=-2), axis=-1)
    return Z * scale[:, None, None]


@pytest.mark.parametrize("name", FAMILIES)
def test_stacked_kernels_equal_per_element_references(name):
    # exp_stack against scipy's expm within 1e-13 relative Frobenius error; cartan_projections and
    # eig_moduli on its output against one numpy call per element, bit for bit
    import scipy.linalg

    model = model_preset(name)
    rng = np.random.default_rng(12)
    Z = _lie_stack(model, rng, EXP_NORMS, 6)
    G = exp_stack(model, Z)
    mu = cartan_projections(model, G)
    mods = eig_moduli(G, model.tag)
    mult = 2 if model.tag == "H" else 1
    assert mu.shape == (len(Z), model.r)
    for k in range(len(Z)):
        E = scipy.linalg.expm(Z[k].astype(complex))
        E = E.real if model.tag == "R" else _chi(*_parts(E)) if model.tag == "H" else E
        assert np.linalg.norm(G[k] - E) <= 1e-13 * np.linalg.norm(E)
        if EXP_NORMS[k // 6] <= 2.0:  # beyond, exp's entries grow until the form check fails
            assert np.array_equal(group_exp(model, Z[k]).g, G[k])
        s = np.linalg.svd(G[k], compute_uv=False)[::mult]
        assert np.array_equal(mu[k], np.maximum(np.log(s[: model.r]), 0.0))
        assert np.array_equal(cartan_projection(GroupElement(model, G[k], _check=False)), mu[k])
        assert np.array_equal(mods[k], np.sort(np.abs(np.linalg.eigvals(G[k])))[::-1][::mult])


@pytest.mark.parametrize("name", FAMILIES)
def test_exp_bits_do_not_depend_on_the_stack(name):
    # an element's exp is the same in a stack of one and in a stack whose norms select other scaling powers
    model = model_preset(name)
    rng = np.random.default_rng(4)
    Z = _lie_stack(model, rng, EXP_NORMS, 3)[rng.permutation(3 * len(EXP_NORMS))]
    G = exp_stack(model, Z)
    assert G.dtype == (float if model.tag == "R" else complex)
    for k in range(len(Z)):
        assert np.array_equal(exp_stack(model, Z[k : k + 1])[0], G[k])
    assert np.array_equal(exp_stack(model, Z[::-1]), G[::-1])


def test_exp_of_a_non_finite_or_overflowing_element_is_nan():
    model = model_preset("sp4")
    Z = random_lie_element(model, np.random.default_rng(0))
    G = exp_stack(model, np.stack([Z, np.inf * np.sign(Z), 1e300 * Z, 1e-3 * Z]))
    assert np.isnan(G[1:3]).all() and np.isfinite(G[[0, 3]]).all()


def test_cartan_projections_raise_for_the_first_singular_element():
    model = model_preset("sp4")
    # the floor reads s_r against s_1: (1e13, 1, 1, 1e-13) trips it, (1e7, 1e6, 1e-6, 1e-7) does not
    G = np.stack([np.eye(4), np.diag([1e7, 1e6, 1e-7, 1e-6]), np.diag([1e13, 1.0, 1e-13, 1.0]),
                  np.diag([1e14, 1.0, 1e-14, 1.0])])
    np.testing.assert_allclose(cartan_projections(model, G[:2]), [[0.0, 0.0], np.log([1e7, 1e6])], rtol=1e-15)
    with pytest.raises(Singular, match=r"singular value 2 of 1\.000e\+00 .* largest, 1\.000e\+13"):
        cartan_projections(model, G)


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
