"""Points of the causal flag manifolds, transversality, and affine charts.

Two models are supported: Lagrangian r-frames (2r x r full-rank matrices
over the model's field, isotropic for J) for the SP/SU/SOSTAR families,
and isotropic lines in R^{n+2} for SO(n, 2).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IllConditioned,
    InvalidFrame,
    ModelMismatch,
    NonFiniteInput,
    NotHermitian,
    NotInChart,
    NotTransverse,
)
from .groups import GroupElement, GroupModel
from .kmat import KMat
from .linalg import check_hermitian, null_space
from .scalars import QUATERNION

ISOTROPY_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-9


def _jmap(v):
    """Antilinear map on embedded vectors implementing right multiplication by j."""
    n = v.shape[0] // 2
    return np.concatenate([-np.conj(v[n:]), np.conj(v[:n])])


def _quat_frame_from_embedded(E):
    """Recover a quaternionic frame from a j-invariant complex column span."""
    n, k = E.shape[0] // 2, E.shape[1]
    basis = []
    cols_a, cols_b = [], []
    for _ in range(k // 2):
        v = None
        for j in range(k):
            w = E[:, j].copy()
            for b in basis:
                w -= b * np.vdot(b, w)
            nw = np.linalg.norm(w)
            if nw > 1e-8:
                v = w / nw
                break
        if v is None:
            raise InvalidFrame("embedded span is not j-invariant of the expected dimension")
        jv = _jmap(v)
        for b in basis:
            jv -= b * np.vdot(b, jv)
        jv /= np.linalg.norm(jv)
        basis += [v, jv]
        cols_a.append(v[:n])
        cols_b.append(-np.conj(v[n:]))
    return KMat(QUATERNION, np.stack(cols_a, axis=1), np.stack(cols_b, axis=1))


def orthonormalize_frame(F: KMat) -> KMat:
    """Column-orthonormal frame with the same span (quaternion-aware)."""
    E = F.embed()
    Q, R = np.linalg.qr(E)
    if np.min(np.abs(np.diag(R))) < 1e-12 * max(1.0, np.max(np.abs(np.diag(R)))):
        raise InvalidFrame("rank-deficient frame")
    if F.tag == QUATERNION:
        return _quat_frame_from_embedded(Q)
    return KMat.unembed(F.tag, Q)


class ShilovPoint:
    """A Lagrangian (frame representative) or an isotropic line (vector representative)."""

    __slots__ = ("model", "frame", "_ortho")

    def __init__(self, model: GroupModel, frame, checked=True):
        self.model = model
        self._ortho = None
        if model.is_lagrangian:
            if not isinstance(frame, KMat):
                frame = KMat(model.tag, frame)
            if frame.shape != (2 * model.rank, model.rank):
                raise InvalidFrame(f"expected a {2 * model.rank}x{model.rank} frame, got {frame.shape}")
            E = frame.embed()
            if not np.isfinite(E).all():
                raise NonFiniteInput("frame has a non-finite entry")
            self.frame = frame
            if checked:
                iso = (frame.H @ model.form() @ frame).norm()
                if not (iso <= ISOTROPY_TOL * max(1.0, frame.norm() ** 2)):
                    raise InvalidFrame(f"isotropy defect {iso:.3e}")
            Q, R = np.linalg.qr(E)
            diag = np.abs(np.diag(R))
            if not (np.min(diag) >= 1e-10 * max(1.0, np.max(diag))):
                raise InvalidFrame("rank-deficient frame")
            self._ortho = Q
        else:
            v = np.asarray(frame, dtype=float).reshape(-1)
            if v.shape != (model.dim,):
                raise InvalidFrame(f"expected a vector of length {model.dim}")
            if not np.isfinite(v).all():
                raise NonFiniteInput("vector has a non-finite entry")
            nv = np.linalg.norm(v)
            if not (nv >= 1e-12):
                raise InvalidFrame("zero vector")
            b = model.form().a
            iso = abs(v @ b @ v)
            if not (iso <= ISOTROPY_TOL * nv**2):
                raise InvalidFrame(f"isotropy defect {iso:.3e}")
            self.frame = v / nv

    @property
    def ortho(self):
        """Orthonormal embedded representative (complex matrix or unit vector)."""
        if self.model.is_lagrangian:
            return self._ortho
        return self.frame

    def projector(self):
        if self.model.is_lagrangian:
            Q = self.ortho
            return Q @ np.conj(Q).T
        v = self.frame
        return np.outer(v, v)

    def distance(self, other: "ShilovPoint") -> float:
        """Representative-independent distance (projector Frobenius norm)."""
        if other.model != self.model:
            raise ModelMismatch("cannot compare points of different models")
        return float(np.linalg.norm(self.projector() - other.projector()))

    def to_json(self):
        if self.model.is_lagrangian:
            return {"model": self.model.to_json(), "frame": self.frame.to_json()}
        return {"model": self.model.to_json(), "frame": [float(x) for x in self.frame]}

    @classmethod
    def from_json(cls, obj):
        model = GroupModel.from_json(obj["model"])
        if model.is_lagrangian:
            return cls(model, KMat.from_json(obj["frame"]))
        return cls(model, np.array(obj["frame"]))

    def __repr__(self):
        return f"ShilovPoint({self.model.family}, rank={self.model.rank})"


# ------------------------------------------------------------------ basepoints


_BASE_CACHE = {}


def base_points(model: GroupModel):
    """The standard transverse pair (p_plus, p_minus)."""
    key = (model.family, model.rank)
    if key in _BASE_CACHE:
        return _BASE_CACHE[key]
    if model.is_lagrangian:
        r = model.rank
        top = KMat.vstack([KMat.eye(model.tag, r), KMat.zeros(model.tag, r, r)])
        bot = KMat.vstack([KMat.zeros(model.tag, r, r), KMat.eye(model.tag, r)])
        pair = ShilovPoint(model, top), ShilovPoint(model, bot)
    else:
        n = model.rank
        e1 = np.zeros(n + 2)
        e1[0] = 1.0
        en1 = np.zeros(n + 2)
        en1[n] = 1.0
        pair = ShilovPoint(model, e1 + en1), ShilovPoint(model, e1 - en1)
    _BASE_CACHE[key] = pair
    return pair


def _spatial_basis(model: GroupModel):
    """The chart basis of the SO(n,2) Minkowski chart: n-1 spacelike, 1 timelike."""
    n = model.rank
    vecs = []
    for i in range(1, n):
        e = np.zeros(n + 2)
        e[i] = 1.0
        vecs.append(e)
    t = np.zeros(n + 2)
    t[n + 1] = 1.0
    vecs.append(t)
    return vecs


def minkowski_form(v: np.ndarray) -> float:
    """psi(v) = v_1^2 + ... + v_{n-1}^2 - v_n^2 on chart coordinates."""
    return float(np.sum(v[:-1] ** 2) - v[-1] ** 2)


# --------------------------------------------------------------- transversality


def transversality_margin(x: ShilovPoint, y: ShilovPoint) -> float:
    """Scale-free margin: |det| of the stacked orthonormal frames (or |b(u,v)|)."""
    if x.model != y.model:
        raise ModelMismatch("points belong to different models")
    return float(transversality_margins(x.model, x.ortho[None], y.ortho[None])[0])


def transversality_margins(model: GroupModel, X, Y) -> np.ndarray:
    """transversality_margin of each pair (X[k], Y[k]) of orthonormal representatives.

    X and Y are stacks of ``ortho`` arrays: one LAPACK det per pair for the
    Lagrangian families, one dot per pair for SO(n, 2).
    """
    if model.is_lagrangian:
        d = np.abs(np.linalg.det(np.concatenate([X, Y], axis=-1)))
        return np.sqrt(d) if model.tag == QUATERNION else d
    b = model.form().a
    return np.abs((X @ b)[..., None, :] @ Y[..., :, None])[..., 0, 0]


def transverse(x: ShilovPoint, y: ShilovPoint, tol=TRANSVERSALITY_TOL) -> bool:
    return transversality_margin(x, y) > tol


# ---------------------------------------------------------------------- charts


def chart_point(model: GroupModel, X) -> ShilovPoint:
    """Point of the standard affine chart with coordinate X."""
    if model.is_lagrangian:
        if not isinstance(X, KMat):
            X = KMat(model.tag, X)
        check_hermitian(X.embed(), X.tag)
        return ShilovPoint(model, KMat.vstack([KMat.eye(model.tag, model.rank), X]))
    v = np.asarray(X, dtype=float).reshape(-1)
    n = model.rank
    if v.shape != (n,):
        raise ModelMismatch(f"expected a chart vector of length {n}")
    return ShilovPoint(model, _socharts_lift(model, v))


def _socharts_lift(model: GroupModel, v: np.ndarray) -> np.ndarray:
    """Lifts p_plus + w + q p_minus of chart vectors v (..., n), with q = -psi(v) / 4."""
    n = model.rank
    q = -(np.sum(v[..., :-1] ** 2, axis=-1) - v[..., -1] ** 2) / 4.0
    lift = np.empty(v.shape[:-1] + (n + 2,))
    lift[..., 0] = 1.0 + q
    lift[..., 1:n] = v[..., :-1]
    lift[..., n] = 1.0 - q
    lift[..., n + 1] = v[..., -1]
    return lift


def chart_coordinates(x: ShilovPoint):
    """Inverse of chart_point on the set of points transverse to p_minus."""
    model = x.model
    _, p_minus = base_points(model)
    if transversality_margin(x, p_minus) < TRANSVERSALITY_TOL:
        raise NotInChart("point is not transverse to the chart base")
    if model.is_lagrangian:
        r = model.rank
        F = x.frame
        top = F.block(0, r, 0, r)
        bot = F.block(r, 2 * r, 0, r)
        X = KMat.unembed(model.tag, np.linalg.solve(top.embed().T, bot.embed().T).T)
        defect = (X - X.H).norm()
        if defect > 1e-7 * max(1.0, X.norm()):
            raise NotHermitian(f"chart coordinate defect {defect:.3e}")
        return 0.5 * (X + X.H)
    n = model.rank
    b = model.form().a
    xi = x.frame.copy()
    # rescale the lift so that b(xi, e1 - e_{n+1}) = 2
    raw_minus = np.zeros(n + 2)
    raw_minus[0] = 1.0
    raw_minus[n] = -1.0
    denom = xi @ b @ raw_minus
    xi = xi * (2.0 / denom)
    basis = _spatial_basis(model)
    v = np.empty(n)
    for i in range(n - 1):
        v[i] = xi @ b @ basis[i]
    v[n - 1] = -(xi @ b @ basis[n - 1])
    return v


# -------------------------------------------------------------- standardization


def act(g: GroupElement, x: ShilovPoint) -> ShilovPoint:
    if g.model != x.model:
        raise ModelMismatch("group element and point live in different models")
    if x.model.is_lagrangian:
        # the action of a form-preserving element keeps the frame isotropic
        return ShilovPoint(x.model, g.g @ x.frame, checked=False)
    return ShilovPoint(x.model, g.g.a @ x.frame)


def standardize_pair(a: ShilovPoint, c: ShilovPoint) -> GroupElement:
    """Group element sending the transverse pair (a, c) to (p_plus, p_minus)."""
    model = a.model
    if c.model != model:
        raise ModelMismatch("points belong to different models")
    if not transverse(a, c):
        raise NotTransverse("standardize_pair requires a transverse pair")
    if model.is_lagrangian:
        A = orthonormalize_frame(a.frame)
        C = orthonormalize_frame(c.frame)
        J = model.form()
        P = A.H @ J @ C
        Pc = P.embed()
        cond = np.linalg.cond(Pc)
        if cond > 1e12:
            raise IllConditioned(f"pairing condition number {cond:.3e}")
        M = KMat.unembed(model.tag, -np.linalg.inv(Pc))
        T = KMat.hstack([A, C @ M])
        return GroupElement(model, T, _check=False).inv()
    n = model.rank
    b = model.form().a
    u = a.frame.copy()
    w = c.frame.copy()
    pairing = u @ b @ w
    if abs(pairing) < 1e-12:
        raise NotTransverse("degenerate pairing")
    w = w * (2.0 / pairing)
    # b-orthogonal complement of span(u, w), with its (n-1, 1) Gram diagonalized
    N = null_space(np.vstack([u @ b, w @ b]))
    G = N.T @ b @ N
    vals, vecs = np.linalg.eigh(G)
    order = np.argsort(-vals)  # positives first, the single negative last
    cols = []
    for k in order:
        f = N @ vecs[:, k]
        cols.append(f / np.sqrt(abs(vals[k])))
    B_pair = np.column_stack([u] + cols[:-1] + [cols[-1], w])
    e1 = np.zeros(n + 2)
    e1[0] = 1.0
    en1 = np.zeros(n + 2)
    en1[n] = 1.0
    basis = _spatial_basis(model)
    B_std = np.column_stack([e1 + en1] + basis[:-1] + [basis[-1], e1 - en1])
    cond = np.linalg.cond(B_pair)
    if cond > 1e12:
        raise IllConditioned(f"basis condition number {cond:.3e}")
    S = B_std @ np.linalg.inv(B_pair)
    elem = GroupElement(model, KMat(model.tag, S), _check=False)
    if elem.form_defect() > 1e-8:
        # roundoff grows with cond(B_pair); the element is exact in theory
        raise IllConditioned(f"standardization lost the form at condition {cond:.3e}")
    return elem
