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

import functools
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import ModelMismatch, NonConvergence, NonFiniteInput, NotUnimodular, OddRank, Singular, UnknownPreset
from .kmat import _chi, _parts, adjoint, draw, embed_real, from_json, in_layout, norm, product, to_json
from .linalg import eig_moduli, frobenius_norms
from .scalars import COMPLEX, QUATERNION, REAL

SP = "SP"
SU = "SU"
SOSTAR = "SOSTAR"
SO_N2 = "SO_N2"

FORM_TOL = 1e-8
LEVI_TOL = 1e-8  # off-diagonal block norm allowed in Levi block form, relative to the element
SINGULAR_FLOOR = 1e-12  # smallest singular value allowed, relative to the largest

_FAMILY_TAG = {SP: REAL, SU: COMPLEX, SOSTAR: QUATERNION, SO_N2: REAL}

# Higham (2005): the largest 1-norm at which the [13/13] Pade approximant
# keeps exp's backward error below the unit roundoff
_PADE_THETA = 5.371920351148152e0
_PADE_B = [float(factorial(26 - j) // (factorial(j) * factorial(13 - j))) for j in range(14)]


@dataclass(frozen=True)
class GroupModel:
    family: str
    rank: int  # r for the Lagrangian families, n for SO(n, 2)

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in _FAMILY_TAG):
            raise ModelMismatch(f"unknown family {self.family!r}")
        if type(self.rank) is not int:  # a bool is not a rank
            raise ModelMismatch(f"rank {self.rank!r} is not an integer")
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

    @functools.cache
    def form(self) -> np.ndarray:
        """The preserved form as an embedded array (read-only, built once per model)."""
        r = self.rank
        if self.is_lagrangian:
            Z, I = np.zeros((r, r)), np.eye(r)
            F = embed_real(np.block([[Z, -I], [I, Z]]), self.tag)
        else:
            F = np.diag([1.0] * r + [-1.0, -1.0])
        F.flags.writeable = False
        return F

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
    construction raises ModelMismatch (NonFiniteInput for a NaN or infinite
    entry, or a form defect that overflows).  Unchecked construction (_check=False)
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
            if not np.isfinite(g).all():
                raise NonFiniteInput("the matrix has a NaN or infinite entry")
            if self.model.tag == QUATERNION and not in_layout(g):
                raise ModelMismatch("the matrix is not in the quaternionic (chi) layout")
            with np.errstate(all="ignore"):
                defect = form_defect(self.model, g)
            if not np.isfinite(defect):
                raise NonFiniteInput("the form-preservation defect overflows")
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
        return {"model": self.model.to_json(), "g": to_json(self.g, self.model.tag)}

    @classmethod
    def from_json(cls, obj):
        model = GroupModel.from_json(obj["model"])
        tag = obj["g"]["tag"]
        E = from_json(obj["g"], tag)  # parsed at its own field: a family takes exactly its own
        if tag != model.tag:
            raise ModelMismatch(f"scalar tag {tag} does not match family {model.family}")
        return cls(model, E)


def form_defect(model: GroupModel, g):
    """|g^H F g - F| / |F| of an embedded matrix g, or of each of a stack (norms in the field's units)."""
    F, tag = model.form(), model.tag
    return frobenius_norms(product(product(adjoint(g), F, tag), g, tag) - F, tag) / norm(F, tag)


# ---------------------------------------------------------------- projections


def cartan_projections(model: GroupModel, E) -> np.ndarray:
    """Log singular values in the dominant chamber, one row per element of an embedded stack (N, d, d).

    Singular values of these models come in pairs (s, 1/s); each row holds
    the top-half logarithms (r of them, 2 on SO(n, 2)), weakly decreasing
    and nonnegative.  One stacked SVD serves the stack; quaternionic
    duplicates are dropped.  Raises Singular for the first element whose
    r-th singular value, the smallest one a row reads, is not above
    SINGULAR_FLOOR times its largest: below that the SVD cannot resolve
    its logarithm.
    """
    s = np.linalg.svd(E, compute_uv=False)
    if model.tag == QUATERNION:
        s = s[:, ::2]
    r = model.r
    bad = np.flatnonzero(s[:, r - 1] <= SINGULAR_FLOOR * s[:, 0])
    if len(bad):
        raise Singular(f"singular value {r} of {s[bad[0], r - 1]:.3e} is not above "
                       f"{SINGULAR_FLOOR:.0e} times the largest, {s[bad[0], 0]:.3e}")
    return np.maximum(np.log(s[:, :r]), 0.0)


def cartan_projection(elem: GroupElement) -> np.ndarray:
    """The Cartan projection of one element: cartan_projections on a stack of one."""
    return cartan_projections(elem.model, elem.g[None])[0]


def lyapunov_projections(model: GroupModel, E):
    """Log eigenvalue moduli in the dominant chamber, one row per element of an embedded stack (N, d, d).

    Returns (lam, underflow): each row of lam holds the top-r logarithms
    (2 on SO(n, 2)), weakly decreasing and nonnegative, like
    cartan_projections; underflow[k] is True when an eigenvalue modulus of
    E[k] is below 1e-300, and its row is then not to be trusted.  One
    stacked eigvals serves the stack, without a floating point warning.
    """
    mods = eig_moduli(E, model.tag)
    with np.errstate(divide="ignore"):
        lam = np.maximum(np.log(mods[..., : model.r]), 0.0)
    return lam, np.any(mods < 1e-300, axis=-1)


def lyapunov_projection(elem: GroupElement) -> np.ndarray:
    """The Lyapunov projection of one element: lyapunov_projections on a stack of one.

    Raises NonConvergence on an eigenvalue modulus underflow.
    """
    lam, underflow = lyapunov_projections(elem.model, elem.g[None])
    if underflow[0]:
        raise NonConvergence("eigenvalue modulus underflow")
    return lam[0]


def shilov_root(model: GroupModel, mu):
    """The root of the parabolic that defines the Shilov boundary, on chamber vectors (..., r) of any leading shape.

    A gap in this root is what makes a subgroup transverse (Anosov) with
    respect to that parabolic.  The Lagrangian families have restricted
    roots of type C_r and take the long root 2 eps_r, that is 2 mu_r.
    SO(n, 2) has type B_2, and the parabolic of an isotropic line takes
    eps_1 - eps_2, that is mu_1 - mu_2.
    """
    return 2.0 * mu[..., -1] if model.is_lagrangian else mu[..., 0] - mu[..., 1]


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
    """The Lie algebra projection of a standard normal embedded matrix (kmat.draw)."""
    return lie_projection(model, draw(model.tag, (model.dim, model.dim), rng))


def exp_stack(model: GroupModel, Z) -> np.ndarray:
    """exp of a stack (N, d, d) of embedded Lie algebra elements: Higham's (2005) scaling and squaring.

    Every item takes the [13/13] Pade approximant of Z / 2^s, s the least
    power that brings its 1-norm to _PADE_THETA.  The items that share s
    run as one stack: stacked matmuls, one stacked solve, then s squarings,
    each of them one LAPACK or BLAS call per item, so an element's bits do
    not depend on the stack it comes in.  The real families compute in real
    arithmetic and SU in complex; SO* computes on the chi array and its
    result is laid out again from its top blocks.  An item whose norm or
    result is not finite comes out as NaN, without a floating point warning.
    """
    Z = np.asarray(Z, dtype=float if model.tag == REAL else complex)
    E = np.full_like(Z, np.nan)
    with np.errstate(all="ignore"):
        norm1 = np.max(np.sum(np.abs(Z), axis=-2), axis=-1, initial=0.0)
        finite = np.isfinite(norm1)
        s = np.where(finite & (norm1 > _PADE_THETA), np.ceil(np.log2(norm1 / _PADE_THETA)), 0.0).astype(int)
        for sk in np.unique(s[finite]).tolist():
            sel = np.flatnonzero(finite & (s == sk))
            R = _pade(Z[sel] / 2.0**sk)
            for _ in range(sk):
                R = R @ R
            E[sel] = R
    E[~np.isfinite(E).all(axis=(-2, -1))] = np.nan
    return _chi(*_parts(E)) if model.tag == QUATERNION else E


def _pade(A):
    """The [13/13] Pade approximant of exp on a stack A: (V - U)^-1 (V + U), U odd and V even in A."""
    b = _PADE_B
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    return np.linalg.solve(V - U, V + U)


def group_exp(model: GroupModel, Z) -> GroupElement:
    """exp of one embedded Lie algebra element as a checked group element: exp_stack on a stack of one."""
    return GroupElement(model, exp_stack(model, Z[None])[0])


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
