"""Points of the causal flag manifolds, transversality, and affine charts.

Two models are supported: Lagrangian r-frames (2r x r full-rank matrices
over the model's field, isotropic for J, held as embedded arrays; see
kmat) for the SP/SU/SOSTAR families, and isotropic lines in R^{n+2} for
SO(n, 2).  Chart coordinates are embedded Hermitian matrices (Minkowski
vectors on SO(n, 2)).
"""

from __future__ import annotations

import functools

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
from .groups import GroupElement, GroupModel, _levi_index, form_defect
from .kmat import _chi, _parts, adjoint, as_embedded, concat, embed_real, from_json, product, to_json
from .linalg import check_hermitian, frobenius_norms
from .scalars import COMPLEX, QUATERNION

ISOTROPY_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-9


def _orthonormalize(tag, F):
    """(Q, R) of one QR per frame of an embedded stack (..., D, k): np.linalg.qr over R and C.

    Over H the QR runs on the chi frame's columns interleaved with their
    j-images, [c0, jc0, c1, jc1, ...], read off the quaternionic parts (the
    top blocks); each leading column pair spans a j-invariant plane, so the
    even columns x of Q are orthonormal over H, and Q is the chi frame
    _chi(x_top, -conj(x_bottom)) of the same span, with R that of this QR.
    """
    if tag != QUATERNION:
        return np.linalg.qr(F)
    n, k = F.shape[-2] // 2, F.shape[-1] // 2
    Q, R = np.linalg.qr(_chi(*_parts(F))[..., np.arange(2 * k).reshape(2, k).T.ravel()])  # [c0, jc0, c1, ...]
    return _chi(Q[..., :n, ::2], -np.conj(Q[..., n:, ::2])), R


def _raise_first(checks):
    """Raise for the first check, in the order given, that some item fails, naming its first failing item.

    checks lists (ok, error) pairs: ok is a mask over the stack and
    error(k) builds the exception for item k.
    """
    for ok, error in checks:
        if not ok.all():
            raise error(int(np.argmin(ok)))


def _guard(model: GroupModel, E):
    """The point guards on a stack of embedded frames (lifts on SO(n, 2)); returns their orthos.

    Raises NonFiniteInput for a non-finite entry or an SO(n, 2) vector whose
    norm overflows, without a floating point warning, then InvalidFrame for a
    zero vector on SO(n, 2), or for a rank-deficient frame (read off the R
    factors of one batched QR): the first of these checks that any point
    fails, naming its first failing point (_raise_first).  The orthos are
    the Q factors of _orthonormalize in the frames' own field (real on SP,
    complex on SU, chi frames on SO*), and the unit vectors on SO(n, 2).
    """
    if not model.is_lagrangian:
        return _guard_lifts(model, E)[0]
    _raise_first([(np.isfinite(E).all(axis=tuple(range(1, E.ndim))),
                   lambda k: NonFiniteInput("frame has a non-finite entry"))])
    # the QR in the frames' own field: on SP the margins, projectors and indices then run in real BLAS/LAPACK
    Q, R = _orthonormalize(model.tag, E)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    _raise_first([(np.min(diag, axis=-1) >= 1e-10 * np.maximum(1.0, np.max(diag, axis=-1)),
                   lambda k: InvalidFrame("rank-deficient frame"))])
    return Q


def _guard_lifts(model: GroupModel, E):
    """_guard on SO(n, 2): the unit vectors of a stack of lifts, and the norms it divided them by."""
    _raise_first([(np.isfinite(E).all(axis=1), lambda k: NonFiniteInput("vector has a non-finite entry"))])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is named below
        nv = frobenius_norms(E[..., None], model.tag)
    _raise_first([(np.isfinite(nv), lambda k: NonFiniteInput("vector overflows")),
                  (nv >= 1e-12, lambda k: InvalidFrame("zero vector"))])
    return E / nv[:, None], nv


def _check_isotropy(model: GroupModel, E, lift_norms=None):
    """Raise InvalidFrame for the first frame (lift on SO(n, 2)) of an embedded stack that is not isotropic.

    A frame E is isotropic when |E^H F E| is at most ISOTROPY_TOL * max(1, |E|^2),
    a lift v when |b(v, v)| is at most ISOTROPY_TOL * |v|^2, with |v| from
    lift_norms, the norms _guard_lifts gave.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing defect fails the check
        if model.is_lagrangian:
            iso = frobenius_norms(_pairings(model, E, E), model.tag)
            scale = np.maximum(1.0, frobenius_norms(E, model.tag) ** 2)
        else:
            iso, scale = np.abs(_pairings(model, E, E)), lift_norms ** 2
    _raise_first([(iso <= ISOTROPY_TOL * scale, lambda k: InvalidFrame(f"isotropy defect {iso[k]:.3e}"))])


def _projectors(model: GroupModel, orthos) -> np.ndarray:
    """ShilovPoint.projector of each point of a stack of orthos."""
    if model.is_lagrangian:
        return orthos @ np.conj(np.swapaxes(orthos, -1, -2))
    return orthos[:, :, None] * orthos[:, None, :]


class ShilovPoint:
    """A Lagrangian (frame representative) or an isotropic line (vector representative).

    A Lagrangian frame is given as an embedded array (see kmat), which
    the point holds.  Construction runs the
    stacked point guards (_guard) on a batch of one; the frame (vector)
    must also be isotropic for the model's form.  The points of act,
    chart_point and the limit samplers are views of guarded stacks (_view)
    and skip that isotropy check: their frames are images of points, or
    attracting subspaces, of form-preserving elements, or chart graphs and lifts.
    """

    __slots__ = ("model", "frame", "_ortho")

    def __init__(self, model: GroupModel, frame):
        self.model = model
        if model.is_lagrangian:
            E = as_embedded(model.tag, frame)
            D = model.form().shape[0]
            if E.shape != (D, D // 2):
                raise InvalidFrame(f"expected a {D}x{D // 2} embedded frame, got {E.shape}")
            if np.isfinite(E).all():  # a non-finite frame fails the guard first
                _check_isotropy(model, E[None])
            self.frame = E
            self._ortho = _guard(model, E[None])[0]
        else:
            v = np.ascontiguousarray(frame, dtype=float).reshape(-1)
            if v.shape != (model.dim,):
                raise InvalidFrame(f"expected a vector of length {model.dim}")
            units, norms = _guard_lifts(model, v[None])
            self.frame = self._ortho = units[0]
            _check_isotropy(model, v[None], norms)  # past the guard, v is finite, nonzero and its norm finite

    @property
    def ortho(self):
        """The orthonormal embedded representative (real on SP, a chi frame on SO*), or the unit vector on SO(n, 2)."""
        return self._ortho

    def projector(self):
        return _projectors(self.model, self._ortho[None])[0]

    def distance(self, other: "ShilovPoint") -> float:
        """Representative-independent distance: Frobenius norm of the projector difference, as a complex matrix.

        On SO* the projector is that of the chi frame, so the distance is
        in chi units, sqrt(2) times the field norm of kmat.norm.
        """
        if other.model != self.model:
            raise ModelMismatch("cannot compare points of different models")
        return float(frobenius_norms((self.projector() - other.projector())[None], COMPLEX)[0])

    def to_json(self):
        if self.model.is_lagrangian:
            return {"model": self.model.to_json(), "frame": to_json(self.frame, self.model.tag)}
        return {"model": self.model.to_json(), "frame": [float(x) for x in self.frame]}

    @classmethod
    def from_json(cls, obj):
        model = GroupModel.from_json(obj["model"])
        if model.is_lagrangian:
            return cls(model, from_json(obj["frame"], model.tag))
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


@functools.cache
def base_points(model: GroupModel):
    """The standard transverse pair (p_plus, p_minus), built once per model."""
    if model.is_lagrangian:
        r = model.rank
        I = np.eye(2 * r)
        return tuple(ShilovPoint(model, embed_real(F, model.tag)) for F in (I[:, :r], I[:, r:]))
    S = _standard_basis(model)
    return ShilovPoint(model, S[:, 0]), ShilovPoint(model, S[:, -1])


def _standard_basis(model: GroupModel):
    """The standard basis of R^{n+2} on SO(n, 2), as columns e_0 + e_n, e_1, ..., e_{n-1}, e_{n+1}, e_0 - e_n.

    The first and last columns are p_plus and p_minus; the others span the
    Minkowski chart, n - 1 spacelike and then one timelike.
    """
    n = model.rank
    I = np.eye(n + 2)
    return np.column_stack([I[0] + I[n], I[:, 1:n], I[n + 1], I[0] - I[n]])


def _minkowski_psi(v):
    """psi(v) = v_1^2 + ... + v_{n-1}^2 - v_n^2 of each chart vector of a stack (..., n).

    Where psi overflows it is not finite, without a floating point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(v[..., :-1] ** 2, axis=-1) - v[..., -1] ** 2


# --------------------------------------------------------------- transversality


def transversality_margin(x: ShilovPoint, y: ShilovPoint) -> float:
    """Scale-free margin: |det X^H J Y| of the orthonormal frames (or |b(u,v)|)."""
    if x.model != y.model:
        raise ModelMismatch("points belong to different models")
    return float(transversality_margins(x.model, x.ortho[None], y.ortho[None])[0])


def transversality_margins(model: GroupModel, X, Y) -> np.ndarray:
    """transversality_margin of each pair of orthonormal representatives in broadcast stacks (a single point too)."""
    return _margins(model, _pairings(model, X, Y))


@functools.cache
def _form_permutation(model: GroupModel):
    """(perm, sign) with form()[:, j] = sign[j] e_perm[j]: every embedded form has one +-1 per column.

    So M @ form() is M[..., perm] * sign, bit for bit up to signed zeros.
    """
    F = model.form()
    perm = np.argmax(np.abs(F), axis=0)
    return perm, F[perm, np.arange(len(perm))].real


def _form_rows(model: GroupModel, X) -> np.ndarray:
    """X^H J of a stack of embedded frames (lifts as (..., n+2, 1) columns), by the form's signed permutation."""
    perm, sign = _form_permutation(model)
    return adjoint(X)[..., perm] * sign


def _pairings(model: GroupModel, X, Y) -> np.ndarray:
    """The form pairing of each pair of broadcast stacks: X^H J Y (..., d, d) of frames, b(x, y) of lifts (..., n+2)."""
    if model.is_lagrangian:
        return _form_rows(model, X) @ Y
    return ((X @ model.form())[..., None, :] @ Y[..., :, None])[..., 0, 0]


def _margins(model: GroupModel, P) -> np.ndarray:
    """The margin of each _pairings value P of orthonormal representatives: |det P|, or |b| on SO(n, 2).

    |det X^H J Y| = |det [X, Y]|, as [X, JX] is unitary; over H its square root, as chi doubles singular values.
    A 2 x 2 P (sp4, su22) takes |P00 P11 - P01 P10| (_det2), a few ulps of |P00 P11| + |P01 P10| from
    np.linalg.det, and larger P np.linalg.det; so does a 2 x 2 stack with a non-finite result, which then
    warns and gives NaN as it always has.
    """
    if not model.is_lagrangian:
        return np.abs(P)
    with np.errstate(all="ignore"):  # a non-finite closed form is left to det's own warnings
        d = np.abs(_det2(P)) if P.shape[-2:] == (2, 2) else None
    if d is None or not np.isfinite(d).all():
        d = np.abs(np.linalg.det(P))
    return np.sqrt(d) if model.tag == QUATERNION else d


def _det2(P):
    """P00 P11 - P01 P10 of each matrix of a stack of 2 x 2 matrices."""
    return P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]


def transverse(x: ShilovPoint, y: ShilovPoint) -> bool:
    return transversality_margin(x, y) > TRANSVERSALITY_TOL


# ---------------------------------------------------------------------- charts


def chart_point(model: GroupModel, X) -> ShilovPoint:
    """Point of the standard affine chart with coordinate X: _chart_point_stack on a stack of one."""
    if model.is_lagrangian:
        X = as_embedded(model.tag, X)
        d = model.form().shape[0] // 2
        if X.shape != (d, d):
            raise ModelMismatch(f"expected a {d}x{d} embedded chart coordinate, got {X.shape}")
    else:
        X = np.asarray(X, dtype=float).reshape(-1)
        if X.shape != (model.rank,):
            raise ModelMismatch(f"expected a chart vector of length {model.rank}")
    frames, orthos = _chart_point_stack(model, X[None])
    return _view(model, frames[0], orthos[0])


def _chart_point_stack(model: GroupModel, X):
    """The (frames, orthos) of the standard chart's points with a stack of coordinates X.

    X is an embedded (k, d, d) stack on the Lagrangian families, which
    passes check_hermitian first (E^H J E = X^H - X bit for bit for E = [I; X],
    so no isotropy check is needed), or a (k, n) Minkowski stack on SO(n, 2),
    whose frames are the unit lifts.  The point guards run on the whole stack.
    """
    if not model.is_lagrangian:
        V = _guard(model, _socharts_lift(model, X))
        return V, V
    check_hermitian(X, model.tag)
    E = _graph_frames(model, X)
    return E, _guard(model, E)


def _graph_frames(model: GroupModel, X):
    """Embedded frames [I; X] of a stack of embedded chart coordinates (k, d, d)."""
    eye = np.broadcast_to(embed_real(np.eye(model.rank), model.tag), X.shape)
    return concat([eye, X], -2, model.tag)


def _socharts_lift(model: GroupModel, v: np.ndarray) -> np.ndarray:
    """Lifts p_plus + w + q p_minus of chart vectors v (..., n), with q = -psi(v) / 4.

    Where psi overflows the lift is not finite, without a floating point
    warning, and the point guard names it.
    """
    n = model.rank
    q = -_minkowski_psi(v) / 4.0
    lift = np.empty(v.shape[:-1] + (n + 2,))
    lift[..., 0] = 1.0 + q
    lift[..., 1:n] = v[..., :-1]
    lift[..., n] = 1.0 - q
    lift[..., n + 1] = v[..., -1]
    return lift


def chart_coordinates(x: ShilovPoint):
    """Inverse of chart_point on the points transverse to p_minus; chart_coordinates_stack of one."""
    return chart_coordinates_stack(x.model, x.frame[None], x.ortho[None])[0]


def chart_coordinates_stack(model: GroupModel, frames, orthos):
    """Chart coordinates of every point of a stack, from the (frames, orthos) of act_stack.

    The Lagrangian families take one batched solve X = solve(top^T, bot^T)^T
    and give the Hermitian parts of the coordinates as an embedded (k, d, d)
    stack, the form causal works on; SO(n, 2) gives a
    (k, n) Minkowski stack.  Raises NotInChart (margin to p_minus below
    TRANSVERSALITY_TOL) for the first point outside the chart before the
    solve, then NotHermitian (|X - X^H| not within 1e-7 * max(1, |X|), NaN
    included) for the first coordinate that fails it.
    """
    _, p_minus = base_points(model)
    _raise_first([(transversality_margins(model, p_minus.ortho, orthos) >= TRANSVERSALITY_TOL,
                   lambda k: NotInChart("point is not transverse to the chart base"))])
    if not model.is_lagrangian:
        n = model.rank
        # the pairings of each lift with the standard basis, rescaled so that its pairing with p_minus is 2
        W = frames @ model.form() @ _standard_basis(model)
        W = W * (2.0 / W[:, -1])[:, None]
        return np.concatenate([W[:, 1:n], -W[:, n:n + 1]], axis=1)
    r = model.rank
    rows = _levi_index(model)
    top, bot = frames[:, rows], frames[:, rows + r]
    X = np.swapaxes(np.linalg.solve(np.swapaxes(top, -1, -2), np.swapaxes(bot, -1, -2)), -1, -2)
    if model.tag == QUATERNION:
        X = _chi(*_parts(X))  # the solve need not return the chi layout
    XH = adjoint(X)
    defect = frobenius_norms(X - XH, model.tag)
    _raise_first([(defect <= 1e-7 * np.maximum(1.0, frobenius_norms(X, model.tag)),
                   lambda k: NotHermitian(f"chart coordinate defect {defect[k]:.3e}"))])
    return 0.5 * (X + XH)


# -------------------------------------------------------------- standardization


def act(g: GroupElement, x: ShilovPoint) -> ShilovPoint:
    """The image g . x: act_stack on a batch of one."""
    if g.model != x.model:
        raise ModelMismatch("group element and point live in different models")
    frames, orthos = act_stack(g.g[None], x)
    return _view(x.model, frames[0], orthos[0])


def act_stack(G, x: ShilovPoint):
    """The images g_k . x of a point under a stack G of embedded elements: _act_frames on x's frame."""
    return _act_frames(x.model, G, x.frame)


def _act_frames(model: GroupModel, G, frames):
    """The images of embedded frames (unit lifts on SO(n, 2)) under embedded elements, as (frames, orthos).

    G and frames broadcast over their stacks.  Each image frame is
    kmat.product of its element and frame (the unit lift on SO(n, 2)),
    and its ortho comes from the point guards (_guard) run on the whole
    stack; the isotropy check does not run, since the action preserves the
    form (a short image of a long element rounds far above its bound).
    """
    if not model.is_lagrangian:
        V = _guard(model, (G @ frames[..., None])[..., 0])
        return V, V
    E = product(G, frames, model.tag)
    return E, _guard(model, E)


def standardize_pair(a: ShilovPoint, c: ShilovPoint) -> GroupElement:
    """Element sending a transverse pair (a, c) to (p_plus, p_minus), or raising: _standardize_stack of one."""
    if c.model != a.model:
        raise ModelMismatch("points belong to different models")
    return GroupElement(a.model, _standardize_stack(a.model, a.ortho[None], c.ortho[None])[0], _check=False)


def _standardize_stack(model: GroupModel, A, C):
    """The elements (N, D, D) sending pairs of orthos (unit lifts on SO(n, 2)) to (p_plus, p_minus).

    Lagrangian: T^{-1} = J^H T^H J for T = [A, -C P^{-1}], A and C orthonormal
    over the field (chi frames on SO*, as _guard gives them), P = A^H J C.
    SO(n, 2): with c's lift w scaled to b(u, w) = 2, the Gram
    M = b - (bu (bw)^T + bw (bu)^T) / 2 of the b-projected unit vectors has
    one negative eigenvalue, two zeros and n - 1 positives, in order; an
    eigenpair (l, q), l != 0, gives the complement vector sign(l) sqrt|l| b q,
    whose row of G_0^{-1} B^T b is sqrt|l| q^T, and S = S_0 G_0^{-1} B^T b for
    B = [u, complement, w] and the standard basis S_0 with Gram G_0.  Raises
    NotTransverse (margin not above TRANSVERSALITY_TOL) before it builds any
    element, then IllConditioned where roundoff leaves a form defect above
    1e-8, and only then, after the action, where it leaves an image of the
    pair more than 1e-8 from the base pair; each check names its first
    failing pair.
    """
    margins = transversality_margins(model, A, C)
    _raise_first([(margins > TRANSVERSALITY_TOL,
                   lambda k: NotTransverse("standardize_pair requires a transverse pair"))])
    F, tag = model.form(), model.tag
    if model.is_lagrangian:
        # P's singular values are at most 1, so cond(P) <= 1 / margin < 1e9 on a transverse pair;
        # product reads only the quaternionic parts (the top blocks) of LAPACK's inverse
        P = product(product(adjoint(A), F, tag), C, tag)
        T = concat([A, product(C, -np.linalg.inv(P), tag)], -1, tag)
        G = adjoint(_form_rows(model, _form_rows(model, T)))
    else:
        s = np.diagonal(F)
        bu, bw = A * s, C * s * (2.0 / _pairings(model, A, C))[:, None]
        vals, Q = np.linalg.eigh(np.diag(s) - 0.5 * (bu[:, :, None] * bw[:, None] + bw[:, :, None] * bu[:, None]))
        rows = np.sqrt(np.abs(vals))[:, :, None] * np.swapaxes(Q, 1, 2)
        G = _standard_basis(model) @ np.concatenate([0.5 * bw[:, None], rows[:, 3:], rows[:, :1], 0.5 * bu[:, None]], 1)
    _raise_first([(form_defect(model, G) <= 1e-8,
                   lambda k: IllConditioned(f"standardization lost the form at margin {margins[k]:.3e}"))])
    images = np.split(_act_frames(model, np.concatenate([G, G]), np.concatenate([A, C]))[1], 2)
    miss = np.maximum(*(frobenius_norms(_projectors(model, Y) - p.projector(), COMPLEX)
                        for Y, p in zip(images, base_points(model))))
    _raise_first([(miss <= 1e-8,
                   lambda k: IllConditioned(f"standardization missed the pair at margin {margins[k]:.3e}"))])
    return G
