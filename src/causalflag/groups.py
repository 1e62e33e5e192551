"""Matrix models of the tube-type groups and their projections.

Families:
  SP      Sp(2r, R)   real 2r x 2r,      g^H J g = J
  SU      SU(r, r)    complex 2r x 2r,   g^H J g = J
  SOSTAR  SO*(4r)     quaternionic 2r x 2r, g^H J g = J
  SO_N2   SO(n, 2)    real (n+2) x (n+2), g^T b g = b

with J = [[0, -I_r], [I_r, 0]] and b = diag(1,...,1, -1, -1).  Forms,
elements and Lie algebra elements are embedded arrays (see kmat): real
on SP and SO(n, 2), complex on SU, the 4r x 4r adjoint matrix on SO*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelMismatch, NonConvergence, NotUnimodular, OddRank, UnknownPreset
from .kmat import KMat, _chi, _parts, adjoint, draw, embed_real, in_layout, norm, product
from .linalg import eig_moduli, frobenius_norms, singular_values
from .scalars import COMPLEX, QUATERNION, REAL

SP = "SP"
SU = "SU"
SOSTAR = "SOSTAR"
SO_N2 = "SO_N2"

FORM_TOL = 1e-8
LEVI_TOL = 1e-8  # off-diagonal block norm allowed in Levi block form, relative to the element
LYAPUNOV_K_MAX = 64  # largest power k of the mu(g^k)/k cross-check

_FAMILY_TAG = {SP: REAL, SU: COMPLEX, SOSTAR: QUATERNION, SO_N2: REAL}

_FORM_CACHE = {}


@dataclass(frozen=True)
class GroupModel:
    family: str
    rank: int  # r for the Lagrangian families, n for SO(n, 2)

    def __post_init__(self):
        if self.family not in _FAMILY_TAG:
            raise ModelMismatch(f"unknown family {self.family!r}")
        if self.rank < (2 if self.family == SO_N2 else 1):
            raise ModelMismatch(f"rank {self.rank} is too small for family {self.family}")

    @property
    def tag(self):
        return _FAMILY_TAG[self.family]

    @property
    def is_lagrangian(self):
        return self.family != SO_N2

    @property
    def r(self):
        """Real rank of the group (2 for every SO(n,2) with n >= 2)."""
        return self.rank if self.is_lagrangian else 2

    @property
    def dim(self):
        """Matrix size of the model."""
        return 2 * self.rank if self.is_lagrangian else self.rank + 2

    def form(self) -> np.ndarray:
        """The preserved form as an embedded array (read-only, built once per model)."""
        key = (self.family, self.rank)
        if key not in _FORM_CACHE:
            r = self.rank
            if self.is_lagrangian:
                J = np.block([[np.zeros((r, r)), -np.eye(r)], [np.eye(r), np.zeros((r, r))]])
                F = embed_real(J, self.tag)
            else:
                F = np.diag([1.0] * r + [-1.0, -1.0])
            F.flags.writeable = False
            _FORM_CACHE[key] = F
        return _FORM_CACHE[key]

    def to_json(self):
        return {"family": self.family, "rank": self.rank}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["family"], obj["rank"])


_MODEL_PRESETS = {
    "sp2": GroupModel(SP, 1),
    "sp4": GroupModel(SP, 2),
    "sp6": GroupModel(SP, 3),
    "sp8": GroupModel(SP, 4),
    "su22": GroupModel(SU, 2),
    "su33": GroupModel(SU, 3),
    "sostar8": GroupModel(SOSTAR, 2),
    "so22": GroupModel(SO_N2, 2),
    "so32": GroupModel(SO_N2, 3),
    "so42": GroupModel(SO_N2, 4),
}


def model_preset(name: str) -> GroupModel:
    try:
        return _MODEL_PRESETS[name]
    except KeyError:
        raise UnknownPreset(f"unknown model preset {name!r}; known: {sorted(_MODEL_PRESETS)}") from None


@dataclass
class GroupElement:
    """A group element held as its embedded array g (see kmat).

    A checked element must have the model's embedded shape and field, the
    chi layout over H, and preserve the form within FORM_TOL; otherwise
    construction raises ModelMismatch.  Unchecked construction (_check=False)
    is for arrays the library built as products and inverses of elements.
    """

    model: GroupModel
    g: np.ndarray
    _check: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self._check:
            size = self.model.form().shape[0]
            real = self.model.tag == REAL
            if real and np.iscomplexobj(self.g):
                raise ModelMismatch(f"family {self.model.family} takes real matrices")
            g = self.g = np.asarray(self.g, dtype=float if real else complex)
            if g.shape != (size, size):
                raise ModelMismatch(f"expected a {size}x{size} embedded matrix, got {g.shape}")
            if self.model.tag == QUATERNION and not in_layout(g):
                raise ModelMismatch("the matrix is not in the quaternionic (chi) layout")
            defect = form_defect(self.model, g)
            if not (defect <= FORM_TOL):
                raise ModelMismatch(f"form-preservation defect {defect:.3e} exceeds {FORM_TOL:.1e}")

    @classmethod
    def identity(cls, model: GroupModel):
        F = model.form()
        return cls(model, np.eye(F.shape[0], dtype=F.dtype), _check=False)

    def __matmul__(self, other: "GroupElement"):
        if other.model != self.model:
            raise ModelMismatch("cannot multiply elements of different models")
        return GroupElement(self.model, product(self.g, other.g, self.model.tag), _check=False)

    def inv(self):
        # g^{-1} = F^{-1} g^H F for the preserved form F; cheap and exactly form-compatible
        F, tag = self.model.form(), self.model.tag
        Finv = -1.0 * F if self.model.is_lagrangian else F  # J^{-1} = -J, b^{-1} = b
        return GroupElement(self.model, product(product(Finv, adjoint(self.g), tag), F, tag), _check=False)

    def form_defect(self):
        return form_defect(self.model, self.g)

    def to_json(self):
        return {"model": self.model.to_json(), "g": KMat.unembed(self.model.tag, self.g).to_json()}

    @classmethod
    def from_json(cls, obj):
        model = GroupModel.from_json(obj["model"])
        g = KMat.from_json(obj["g"])
        if g.tag != model.tag:
            raise ModelMismatch(f"scalar tag {g.tag} does not match family {model.family}")
        return cls(model, g.embed())


def form_defect(model: GroupModel, g) -> float:
    """|g^H F g - F| / |F| for an embedded matrix g (norms in the field's units)."""
    F, tag = model.form(), model.tag
    return norm(product(product(adjoint(g), F, tag), g, tag) - F, tag) / norm(F, tag)


# ---------------------------------------------------------------- projections


def cartan_projection(elem: GroupElement) -> np.ndarray:
    """Log singular values in the dominant chamber.

    Singular values of these models come in pairs (s, 1/s); the vector of
    the top-half logarithms is weakly decreasing and nonnegative.
    """
    s = singular_values(elem.g, elem.model.tag)
    if elem.model.is_lagrangian:
        eps = np.log(s[: elem.model.rank])
    else:
        # (n+2) singular values: (s1, s2, 1, ..., 1, 1/s2, 1/s1)
        eps = np.log(s[:2])
    return np.maximum(eps, 0.0)


def lyapunov_projection(elem: GroupElement, cross_check: bool = False) -> np.ndarray:
    """Log moduli of eigenvalues, dominant chamber ordering.

    Computed directly from the eigenvalue moduli; optionally cross-checked
    against mu(g^k)/k at k = LYAPUNOV_K_MAX when the spectral gaps allow it.
    """
    mods = eig_moduli(elem.g, elem.model.tag)
    if np.any(mods < 1e-300):
        raise NonConvergence("eigenvalue modulus underflow")
    if elem.model.is_lagrangian:
        lam = np.log(mods[: elem.model.rank])
    else:
        lam = np.log(mods[:2])
    lam = np.maximum(lam, 0.0)
    if cross_check:
        power = elem
        k = 1
        # keep the power's singular value spread inside floating range
        growth = float(np.max(lam)) if len(lam) else 0.0
        while 2 * k <= LYAPUNOV_K_MAX and 2 * k * max(growth, 1e-6) <= 12.0:
            power = power @ power
            k *= 2
        mu_k = cartan_projection(power) / k
        gaps = np.diff(np.concatenate([lam, [0.0]]))
        if np.all(np.abs(gaps) > 1e-3) and np.max(np.abs(mu_k - lam)) > 1e-6 * max(1.0, np.max(lam)):
            raise NonConvergence("Lyapunov cross-check against mu(g^k)/k failed")
    return lam


def alpha_r(eps: np.ndarray) -> float:
    """The long-root functional: twice the last chamber coordinate."""
    return 2.0 * float(eps[-1])


# ------------------------------------------------------------- Levi embedding


def tau_p(A, model: GroupModel) -> GroupElement:
    """Embed SL(2, R) along the balanced sl2-triple of the Levi factor.

    A is first inflated to the r x r block matrix [[a I_p, b I_p], [c I_p, d I_p]]
    with r = 2p, then placed in the group as diag(m, conj(m)^-T).
    """
    if not model.is_lagrangian:
        raise ModelMismatch("the Levi embedding is defined for the Lagrangian families")
    r = model.rank
    if r % 2 != 0:
        raise OddRank(f"rank {r} is odd; the balanced embedding needs r = 2p")
    p = r // 2
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ModelMismatch("expected a 2x2 real matrix")
    if abs(np.linalg.det(A) - 1.0) > 1e-10:
        raise NotUnimodular(f"det = {np.linalg.det(A)!r} is not 1")
    m = np.kron(A, np.eye(p))
    m_inv_t = np.kron(np.linalg.inv(A).T, np.eye(p))
    g = np.block([
        [m, np.zeros((r, r))],
        [np.zeros((r, r)), m_inv_t],
    ])
    return GroupElement(model, embed_real(g, model.tag))


def _levi_index(model: GroupModel):
    """Embedded indices of the field rows (columns) 0..r-1, the Levi block m's; adding r gives rows r..2r-1."""
    r = model.rank
    return np.r_[0:r, 2 * r:3 * r] if model.tag == QUATERNION else np.arange(r)


def in_levi_block_form(elem: GroupElement) -> bool:
    """True when the element is block-diagonal diag(m, conj(m)^-T)."""
    if not elem.model.is_lagrangian:
        return False
    top = _levi_index(elem.model)
    bottom = top + elem.model.rank
    off = np.concatenate([elem.g[np.ix_(top, bottom)], elem.g[np.ix_(bottom, top)]])
    tag = elem.model.tag
    return frobenius_norms(off, tag) <= LEVI_TOL * max(1.0, frobenius_norms(elem.g, tag))


def levi_block(elem: GroupElement) -> np.ndarray:
    """The embedded top-left r x r block m of an element diag(m, conj(m)^-T)."""
    top = _levi_index(elem.model)
    return elem.g[np.ix_(top, top)]


# ---------------------------------------------------------------- Lie algebra


def lie_projection(model: GroupModel, Z) -> np.ndarray:
    """Project an arbitrary embedded matrix onto the Lie algebra of the model."""
    F, tag = model.form(), model.tag
    # condition Z^H F + F Z = 0; projection Z -> (Z - F^{-1} Z^H F)/2 with J^{-1} = -J, b^{-1} = b
    Finv = -1.0 * F if model.is_lagrangian else F
    return 0.5 * (Z - product(product(Finv, adjoint(Z), tag), F, tag))


def random_lie_element(model: GroupModel, rng) -> np.ndarray:
    """The Lie algebra projection of a standard normal embedded matrix (the draw of KMat.random)."""
    return lie_projection(model, draw(model.tag, (model.dim, model.dim), rng))


def group_exp(model: GroupModel, Z) -> GroupElement:
    """exp of an embedded Lie algebra element, via scaling-and-squaring.

    expm runs in complex arithmetic on every family, which fixes the bits
    of seeded deformations (the real part is taken on the real families);
    over H its result is laid out again from its top blocks.
    """
    import scipy.linalg  # imported here so that importing causalflag does not load scipy

    E = scipy.linalg.expm(Z.astype(complex, copy=False))
    if model.tag == REAL:
        E = E.real
    elif model.tag == QUATERNION:
        E = _chi(*_parts(E))
    return GroupElement(model, E)


def random_lie_perturbation(elem: GroupElement, eps: float, seed) -> GroupElement:
    """g -> g exp(eps Z) for a seeded random Lie algebra direction Z of unit norm."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return elem
    rng = np.random.default_rng(seed)
    Z = random_lie_element(elem.model, rng)
    Z = (1.0 / max(norm(Z, elem.model.tag), 1e-300)) * Z
    return elem @ group_exp(elem.model, eps * Z)
