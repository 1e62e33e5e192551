"""Points of the causal flag manifolds, transversality, and affine charts.

Two models are supported: Lagrangian r-frames (2r x r full-rank matrices
over the model's field, isotropic for J, held as embedded arrays; see
kmat) for the SP/SU/SOSTAR families, and isotropic lines in R^{n+2} for
SO(n, 2).  Chart coordinates cross the API as KMat (vectors on SO(n, 2)).
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
from .kmat import KMat, _chi, _parts, adjoint, as_embedded, concat, embed_real, norm, product
from .linalg import _flat_norms, check_hermitian, null_space
from .scalars import QUATERNION, REAL

ISOTROPY_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-9


def _quat_frame_from_embedded(E):
    """Quaternionic frame parts (A, B) of each j-invariant complex column span in a stack E.

    E is (N, 2n, k) and the frames are A + B j, each (N, n, k / 2).  Per
    item this is a greedy Gram-Schmidt: every step takes the first column
    whose residual against the basis so far is longer than 1e-8, and then
    its image under right multiplication by j.  The dots and norms are
    those of np.vdot and np.linalg.norm per column, so every item gets the
    bits a loop over the items would.
    """
    N, d, k = E.shape
    n = d // 2
    # the columns as contiguous rows, (N, k, 2n): a dot over a strided view rounds differently
    cols = np.ascontiguousarray(np.swapaxes(E, 1, 2))
    items = np.arange(N)

    def deflate(W, basis):
        # W -= b * vdot(b, W) for each basis vector b in turn, on every row of W
        for b in basis:
            W = W - b[:, None, :] * np.matmul(np.conj(b)[:, None, None, :], W[..., None])[..., 0]
        return W

    basis, parts_a, parts_b = [], [], []
    for _ in range(k // 2):
        W = deflate(cols, basis)
        nw = _flat_norms(W.reshape(N * k, d)).reshape(N, k)
        long = nw > 1e-8
        if not long.any(axis=1).all():
            raise InvalidFrame("embedded span is not j-invariant of the expected dimension")
        first = np.argmax(long, axis=1)
        v = W[items, first] / nw[items, first][:, None]
        jv = deflate(np.concatenate([-np.conj(v[:, n:]), np.conj(v[:, :n])], axis=1)[:, None], basis)[:, 0]
        jv = jv / _flat_norms(jv)[:, None]
        basis += [v, jv]
        parts_a.append(v[:, :n])
        parts_b.append(-np.conj(v[:, n:]))
    return np.stack(parts_a, axis=-1), np.stack(parts_b, axis=-1)


def _raise_first(checks):
    """Raise as a loop of per-point guards would: the first failing point, its first failing check.

    checks lists (ok, error) pairs in guard order: ok is a mask over the
    stack and error(k) builds the exception for point k.
    """
    firsts = [int(np.argmin(ok)) if not ok.all() else len(ok) for ok, _ in checks]
    k = min(firsts)
    if k < len(checks[0][0]):
        raise checks[firsts.index(k)][1](k)


def _guard(model: GroupModel, E):
    """The point guards on a stack of embedded frames (lifts on SO(n, 2)); returns their orthos.

    Raises NonFiniteInput for a non-finite entry, then InvalidFrame for a
    zero vector or an isotropy defect on SO(n, 2), or for a rank-deficient
    frame (read off the R factors of one batched QR), as a loop over the
    points would raise.  The orthos are the QR's Q factors, and the unit
    vectors on SO(n, 2).
    """
    kind = "frame" if model.is_lagrangian else "vector"
    _raise_first([(np.isfinite(E).all(axis=tuple(range(1, E.ndim))),
                   lambda k: NonFiniteInput(f"{kind} has a non-finite entry"))])
    if not model.is_lagrangian:
        nv = _flat_norms(E)
        iso = np.abs(np.matmul((E @ model.form())[:, None, :], E[:, :, None])[:, 0, 0])
        _raise_first([
            (nv >= 1e-12, lambda k: InvalidFrame("zero vector")),
            (iso <= ISOTROPY_TOL * nv**2, lambda k: InvalidFrame(f"isotropy defect {iso[k]:.3e}")),
        ])
        return E / nv[:, None]
    # complex on every Lagrangian family: the margins, projectors and indices read complex orthos
    Q, R = np.linalg.qr(E.astype(complex, copy=False))
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    _raise_first([(np.min(diag, axis=-1) >= 1e-10 * np.maximum(1.0, np.max(diag, axis=-1)),
                   lambda k: InvalidFrame("rank-deficient frame"))])
    return Q


def _projectors(model: GroupModel, orthos) -> np.ndarray:
    """ShilovPoint.projector of each point of a stack of orthos."""
    if model.is_lagrangian:
        return orthos @ np.conj(np.swapaxes(orthos, -1, -2))
    return orthos[:, :, None] * orthos[:, None, :]


class ShilovPoint:
    """A Lagrangian (frame representative) or an isotropic line (vector representative).

    A Lagrangian frame is given as a KMat or as an embedded array (see
    kmat), and the point holds the embedded array.  Construction runs the
    stacked point guards (_guard) on a batch of one; a Lagrangian frame
    must also be isotropic for the model's form.  The
    points of act and of the limit samplers are views of guarded stacks
    (_view) and skip that isotropy check: their frames are images of
    points, or attracting subspaces, of form-preserving elements.
    """

    __slots__ = ("model", "frame", "_ortho")

    def __init__(self, model: GroupModel, frame):
        self.model = model
        if model.is_lagrangian:
            E = as_embedded(model.tag, frame)  # a KMat, or an embedded array
            D = model.form().shape[0]
            if E.shape != (D, D // 2):
                raise InvalidFrame(f"expected a {D}x{D // 2} embedded frame, got {E.shape}")
            if np.isfinite(E).all():  # a non-finite frame fails the guard first
                tag = model.tag
                iso = norm(product(product(adjoint(E), model.form(), tag), E, tag), tag)
                if not (iso <= ISOTROPY_TOL * max(1.0, norm(E, tag) ** 2)):
                    raise InvalidFrame(f"isotropy defect {iso:.3e}")
            self.frame = E
            self._ortho = _guard(model, E[None])[0]
        else:
            v = np.ascontiguousarray(frame, dtype=float).reshape(-1)
            if v.shape != (model.dim,):
                raise InvalidFrame(f"expected a vector of length {model.dim}")
            self.frame = self._ortho = _guard(model, v[None])[0]

    @property
    def ortho(self):
        """Orthonormal embedded representative (complex on every Lagrangian family, or the unit vector)."""
        return self._ortho

    def projector(self):
        return _projectors(self.model, self._ortho[None])[0]

    def distance(self, other: "ShilovPoint") -> float:
        """Representative-independent distance (projector Frobenius norm)."""
        if other.model != self.model:
            raise ModelMismatch("cannot compare points of different models")
        return float(np.linalg.norm(self.projector() - other.projector()))

    def to_json(self):
        if self.model.is_lagrangian:
            frame = KMat.unembed(self.model.tag, self.frame)
            return {"model": self.model.to_json(), "frame": frame.to_json()}
        return {"model": self.model.to_json(), "frame": [float(x) for x in self.frame]}

    @classmethod
    def from_json(cls, obj):
        model = GroupModel.from_json(obj["model"])
        if model.is_lagrangian:
            return cls(model, KMat.from_json(obj["frame"]))
        return cls(model, np.array(obj["frame"]))

    def __repr__(self):
        return f"ShilovPoint({self.model.family}, rank={self.model.rank})"


def _view(model: GroupModel, frame, ortho) -> ShilovPoint:
    """The point of one item of guarded stacks: its embedded frame (unit vector) and its ortho."""
    x = object.__new__(ShilovPoint)
    x.model = model
    x.frame = frame
    x._ortho = ortho
    return x


# ------------------------------------------------------------------ basepoints


_BASE_CACHE = {}


def base_points(model: GroupModel):
    """The standard transverse pair (p_plus, p_minus)."""
    key = (model.family, model.rank)
    if key in _BASE_CACHE:
        return _BASE_CACHE[key]
    if model.is_lagrangian:
        r = model.rank
        I = np.eye(2 * r)
        pair = tuple(ShilovPoint(model, embed_real(F, model.tag)) for F in (I[:, :r], I[:, r:]))
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
    b = model.form()
    return np.abs((X @ b)[..., None, :] @ Y[..., :, None])[..., 0, 0]


def transverse(x: ShilovPoint, y: ShilovPoint) -> bool:
    return transversality_margin(x, y) > TRANSVERSALITY_TOL


# ---------------------------------------------------------------------- charts


def chart_point(model: GroupModel, X) -> ShilovPoint:
    """Point of the standard affine chart with coordinate X."""
    if model.is_lagrangian:
        X = as_embedded(model.tag, X)  # a KMat, or an embedded array
        d = model.form().shape[0] // 2
        if X.shape != (d, d):
            raise ModelMismatch(f"expected a {d}x{d} embedded chart coordinate, got {X.shape}")
        check_hermitian(X, model.tag)
        return ShilovPoint(model, _graph_frames(model, X[None])[0])
    v = np.asarray(X, dtype=float).reshape(-1)
    n = model.rank
    if v.shape != (n,):
        raise ModelMismatch(f"expected a chart vector of length {n}")
    return ShilovPoint(model, _socharts_lift(model, v))


def _graph_frames(model: GroupModel, X):
    """Embedded frames [I; X] of a stack of embedded chart coordinates (k, d, d)."""
    eye = np.broadcast_to(embed_real(np.eye(model.rank), model.tag), X.shape)
    return concat([eye, X], -2, model.tag)


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
    """Inverse of chart_point on the points transverse to p_minus; chart_coordinates_stack of one."""
    X = chart_coordinates_stack(x.model, x.frame[None], x.ortho[None])[0]
    return KMat.unembed(x.model.tag, X) if x.model.is_lagrangian else X


def chart_coordinates_stack(model: GroupModel, frames, orthos):
    """Chart coordinates of every point of a stack, from the (frames, orthos) of act_stack.

    The Lagrangian families take one batched solve X = solve(top^T, bot^T)^T
    and give the Hermitian parts of the coordinates as an embedded (k, d, d)
    stack, the form causal works on; SO(n, 2) gives a
    (k, n) Minkowski stack.  NotInChart (margin to p_minus below
    TRANSVERSALITY_TOL) and NotHermitian (|X - X^H| not within
    1e-7 * max(1, |X|), NaN included) are raised as a loop over the points
    would raise them.
    """
    _, p_minus = base_points(model)
    margins = transversality_margins(model, orthos, np.broadcast_to(p_minus.ortho, orthos.shape))
    in_chart = margins >= TRANSVERSALITY_TOL
    checks = [(in_chart, lambda k: NotInChart("point is not transverse to the chart base"))]
    if not model.is_lagrangian:
        _raise_first(checks)
        n = model.rank
        W = frames @ model.form()
        # rescale each lift so that b(xi, e1 - e_{n+1}) = 2
        W = W * (2.0 / (W[:, 0] - W[:, n]))[:, None]
        return np.concatenate([W[:, 1:n], -W[:, n + 1:]], axis=1)
    r = model.rank
    quat = model.tag == QUATERNION
    rows = np.r_[0:r, 2 * r:3 * r] if quat else np.arange(r)
    F = frames[in_chart]
    top, bot = F[:, rows], F[:, rows + r]
    X = np.zeros((len(frames),) + top.shape[1:], frames.dtype)
    X[in_chart] = np.swapaxes(np.linalg.solve(np.swapaxes(top, -1, -2), np.swapaxes(bot, -1, -2)), -1, -2)
    # the field parts of each coordinate and of its adjoint (the solve need not return the chi layout)
    if quat:
        parts = _parts(X)
        adjoints = (adjoint(parts[0]), -np.swapaxes(parts[1], -1, -2))
    else:
        parts, adjoints = (X,), (adjoint(X),)
    defect = np.sqrt(sum(np.sum(np.abs(p - q) ** 2, axis=(1, 2)) for p, q in zip(parts, adjoints)))
    size = np.sqrt(sum(np.sum(np.abs(p) ** 2, axis=(1, 2)) for p in parts))
    checks.append((~in_chart | (defect <= 1e-7 * np.maximum(1.0, size)),
                   lambda k: NotHermitian(f"chart coordinate defect {defect[k]:.3e}")))
    _raise_first(checks)
    C = [0.5 * (p + q) for p, q in zip(parts, adjoints)]
    return _chi(*C) if quat else C[0]


# -------------------------------------------------------------- standardization


def act(g: GroupElement, x: ShilovPoint) -> ShilovPoint:
    """The image g . x: act_stack on a batch of one."""
    if g.model != x.model:
        raise ModelMismatch("group element and point live in different models")
    frames, orthos = act_stack(g.g[None], x)
    return _view(x.model, frames[0], orthos[0])


def act_stack(G, x: ShilovPoint):
    """The images g_k . x of a point under a stack G of embedded elements, as (frames, orthos) arrays.

    frames[k] is the embedded frame g_k x.frame (kmat.product; the unit
    lift on SO(n, 2)) and orthos[k] its ortho.  The point guards (_guard)
    run on the whole stack; the Lagrangian isotropy check does not, since
    the action preserves the form.
    """
    model = x.model
    if not model.is_lagrangian:
        V = _guard(model, G @ x.frame)
        return V, V
    E = product(G, x.frame, model.tag)
    return E, _guard(model, E)


def standardize_pair(a: ShilovPoint, c: ShilovPoint) -> GroupElement:
    """Group element sending the transverse pair (a, c) to (p_plus, p_minus)."""
    model = a.model
    if c.model != model:
        raise ModelMismatch("points belong to different models")
    if not transverse(a, c):
        raise NotTransverse("standardize_pair requires a transverse pair")
    if model.is_lagrangian:
        # orthonormal frames with the spans of a and c: their orthos, over the field
        tag = model.tag
        if tag == QUATERNION:
            A, C = _chi(*_quat_frame_from_embedded(np.stack([a.ortho, c.ortho])))
        else:
            A, C = (x.ortho.real if tag == REAL else x.ortho for x in (a, c))
        P = product(product(adjoint(A), model.form(), tag), C, tag)
        cond = np.linalg.cond(P)
        if cond > 1e12:
            raise IllConditioned(f"pairing condition number {cond:.3e}")
        # product reads only the quaternionic parts (the top blocks) of LAPACK's inverse
        T = concat([A, product(C, -np.linalg.inv(P), tag)], -1, tag)
        return GroupElement(model, T, _check=False).inv()
    n = model.rank
    b = model.form()
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
    elem = GroupElement(model, S, _check=False)
    if elem.form_defect() > 1e-8:
        # roundoff grows with cond(B_pair); the element is exact in theory
        raise IllConditioned(f"standardization lost the form at condition {cond:.3e}")
    return elem
