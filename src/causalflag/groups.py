"""Matrix models of the tube-type groups and their projections.

Families:
  SP      Sp(2r, R)   real 2r x 2r,      g^H J g = J
  SU      SU(r, r)    complex 2r x 2r,   g^H J g = J
  SOSTAR  SO*(4r)     quaternionic 2r x 2r, g^H J g = J
  SO_N2   SO(n, 2)    real (n+2) x (n+2), g^T b g = b

with J = [[0, -I_r], [I_r, 0]] and b = diag(1,...,1, -1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelMismatch, NonConvergence, NotUnimodular, OddRank, UnknownPreset
from .kmat import KMat
from .linalg import eig_moduli, singular_values
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

    def form(self) -> KMat:
        cached = _FORM_CACHE.get((self.family, self.rank))
        if cached is not None:
            return cached
        built = self._build_form()
        _FORM_CACHE[(self.family, self.rank)] = built
        return built

    def _build_form(self) -> KMat:
        if self.is_lagrangian:
            r = self.rank
            J = np.block([[np.zeros((r, r)), -np.eye(r)], [np.eye(r), np.zeros((r, r))]])
            if self.tag == QUATERNION:
                return KMat(QUATERNION, J.astype(complex), np.zeros((2 * r, 2 * r), dtype=complex))
            return KMat(self.tag, J.astype(complex) if self.tag == COMPLEX else J)
        n = self.rank
        return KMat(REAL, np.diag([1.0] * n + [-1.0, -1.0]))

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
    model: GroupModel
    g: KMat
    _check: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self.g.tag != self.model.tag:
            raise ModelMismatch(f"scalar tag {self.g.tag} does not match family {self.model.family}")
        if self.g.shape != (self.model.dim, self.model.dim):
            raise ModelMismatch(f"expected {self.model.dim}x{self.model.dim} matrix, got {self.g.shape}")
        if self._check:
            defect = form_defect(self.model, self.g)
            if not (defect <= FORM_TOL):
                raise ModelMismatch(f"form-preservation defect {defect:.3e} exceeds {FORM_TOL:.1e}")

    @classmethod
    def identity(cls, model: GroupModel):
        return cls(model, KMat.eye(model.tag, model.dim), _check=False)

    def __matmul__(self, other: "GroupElement"):
        if other.model != self.model:
            raise ModelMismatch("cannot multiply elements of different models")
        return GroupElement(self.model, self.g @ other.g, _check=False)

    def inv(self):
        # g^{-1} = F^{-1} g^H F for the preserved form F; cheap and exactly form-compatible
        F = self.model.form()
        if self.model.is_lagrangian:
            ginv = (-1.0 * F) @ self.g.H @ F  # J^{-1} = -J
        else:
            ginv = F @ self.g.T @ F  # b^{-1} = b
        return GroupElement(self.model, ginv, _check=False)

    def form_defect(self):
        return form_defect(self.model, self.g)

    def to_json(self):
        return {"model": self.model.to_json(), "g": self.g.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(GroupModel.from_json(obj["model"]), KMat.from_json(obj["g"]))


def form_defect(model: GroupModel, g: KMat) -> float:
    F = model.form()
    if model.is_lagrangian:
        return (g.H @ F @ g - F).norm() / F.norm()
    return (g.T @ F @ g - F).norm() / F.norm()


# ---------------------------------------------------------------- projections


def cartan_projection(elem: GroupElement) -> np.ndarray:
    """Log singular values in the dominant chamber.

    Singular values of these models come in pairs (s, 1/s); the vector of
    the top-half logarithms is weakly decreasing and nonnegative.
    """
    s = singular_values(elem.g)
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
    mods = eig_moduli(elem.g)
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
    if model.tag == QUATERNION:
        mat = KMat(QUATERNION, g.astype(complex), np.zeros((2 * r, 2 * r), dtype=complex))
    elif model.tag == COMPLEX:
        mat = KMat(COMPLEX, g.astype(complex))
    else:
        mat = KMat(REAL, g)
    return GroupElement(model, mat)


def in_levi_block_form(elem: GroupElement) -> bool:
    """True when the element is block-diagonal diag(m, conj(m)^-T)."""
    if not elem.model.is_lagrangian:
        return False
    r = elem.model.rank
    off = KMat.hstack([elem.g.block(0, r, r, 2 * r), elem.g.block(r, 2 * r, 0, r)])
    return off.norm() <= LEVI_TOL * max(1.0, elem.g.norm())


def levi_block(elem: GroupElement) -> KMat:
    r = elem.model.rank
    return elem.g.block(0, r, 0, r)


# ---------------------------------------------------------------- Lie algebra


def lie_projection(model: GroupModel, Z: KMat) -> KMat:
    """Project an arbitrary matrix onto the Lie algebra of the model."""
    F = model.form()
    if model.is_lagrangian:
        # condition Z^H J + J Z = 0; projection Z -> (Z - J^{-1} Z^H J)/2 with J^{-1} = -J
        return 0.5 * (Z - (-1.0 * F) @ Z.H @ F)
    return 0.5 * (Z - F @ Z.T @ F)  # b^{-1} = b


def random_lie_element(model: GroupModel, rng) -> KMat:
    Z = KMat.random(model.tag, model.dim, model.dim, rng)
    return lie_projection(model, Z)


def group_exp(model: GroupModel, Z: KMat) -> GroupElement:
    """exp of a Lie algebra element, via scaling-and-squaring on the embedding."""
    import scipy.linalg  # imported here so that importing causalflag does not load scipy

    E = scipy.linalg.expm(Z.embed())
    return GroupElement(model, KMat.unembed(model.tag, E))


def random_lie_perturbation(elem: GroupElement, eps: float, seed) -> GroupElement:
    """g -> g exp(eps Z) for a seeded random Lie algebra direction Z of unit norm."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return elem
    rng = np.random.default_rng(seed)
    Z = random_lie_element(elem.model, rng)
    Z = (1.0 / max(Z.norm(), 1e-300)) * Z
    return elem @ group_exp(elem.model, eps * Z)
