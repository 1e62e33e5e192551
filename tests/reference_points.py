"""The per-point bodies that the stacked kernels replaced, kept as references for the tests.

ReferencePoint is the former ShilovPoint constructor (checked=False skips
the isotropy check, as the former act did), reference_act and
reference_chart_coordinates the former scalar act and chart_coordinates,
reference_quat_frame the former per-item quaternionic frame recovery, and
reference_standardize_pair the former Lagrangian standardize_pair, which
orthonormalized frames with reference_orthonormalize_frame.  They work on
the embedded arrays the library holds (see causalflag.kmat), with the
quaternionic product kmat.product.  The library's batched paths must
match them bit for bit.
"""

import numpy as np

from causalflag.errors import IllConditioned, InvalidFrame, NonFiniteInput, NotHermitian, NotInChart
from causalflag.groups import GroupElement
from causalflag.kmat import KMat, _chi, adjoint, norm, product
from causalflag.shilov import (
    ISOTROPY_TOL,
    TRANSVERSALITY_TOL,
    _spatial_basis,
    base_points,
    transversality_margin,
)


class ReferencePoint:
    """ShilovPoint's former per-point constructor, ortho and projector."""

    def __init__(self, model, frame, checked=True):
        self.model = model
        self._ortho = None
        if model.is_lagrangian:
            tag = model.tag
            E = frame.embed() if isinstance(frame, KMat) else frame
            D = model.form().shape[0]
            if E.shape != (D, D // 2):
                raise InvalidFrame(f"expected a {D}x{D // 2} embedded frame, got {E.shape}")
            if not np.isfinite(E).all():
                raise NonFiniteInput("frame has a non-finite entry")
            self.frame = E
            if checked:
                iso = norm(product(product(adjoint(E), model.form(), tag), E, tag), tag)
                if not (iso <= ISOTROPY_TOL * max(1.0, norm(E, tag) ** 2)):
                    raise InvalidFrame(f"isotropy defect {iso:.3e}")
            Q, R = np.linalg.qr(E.astype(complex))  # the complex QR on every field
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
            b = model.form()
            iso = abs(v @ b @ v)
            if not (iso <= ISOTROPY_TOL * nv**2):
                raise InvalidFrame(f"isotropy defect {iso:.3e}")
            self.frame = v / nv

    @property
    def ortho(self):
        if self.model.is_lagrangian:
            return self._ortho
        return self.frame

    def projector(self):
        if self.model.is_lagrangian:
            Q = self.ortho
            return Q @ np.conj(Q).T
        v = self.frame
        return np.outer(v, v)

    def distance(self, other):
        return float(np.linalg.norm(self.projector() - other.projector()))


def reference_act(g, x):
    if x.model.is_lagrangian:
        return ReferencePoint(x.model, product(g.g, x.frame, x.model.tag), checked=False)
    return ReferencePoint(x.model, g.g @ x.frame)


def reference_chart_coordinates(x):
    model = x.model
    _, p_minus = base_points(model)
    if transversality_margin(x, p_minus) < TRANSVERSALITY_TOL:
        raise NotInChart("point is not transverse to the chart base")
    if model.is_lagrangian:
        r, tag = model.rank, model.tag
        rows = np.r_[0:r, 2 * r:3 * r] if tag == "H" else np.arange(r)  # embedded rows of field rows 0..r-1
        top, bot = x.frame[rows], x.frame[rows + r]
        X = KMat.unembed(tag, np.linalg.solve(top.T, bot.T).T)
        XH = KMat.unembed(tag, adjoint(X.embed()))
        defect = norm((X - XH).embed(), tag)
        if defect > 1e-7 * max(1.0, norm(X.embed(), tag)):
            raise NotHermitian(f"chart coordinate defect {defect:.3e}")
        return 0.5 * (X + XH)
    n = model.rank
    b = model.form()
    xi = x.frame.copy()
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


def _jmap(v):
    n = v.shape[0] // 2
    return np.concatenate([-np.conj(v[n:]), np.conj(v[:n])])


def reference_quat_frame(E):
    """Quaternionic frame of one j-invariant complex column span E (2n, k)."""
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
    return KMat("H", np.stack(cols_a, axis=1), np.stack(cols_b, axis=1))


def reference_orthonormalize_frame(E, tag):
    """An orthonormal embedded frame with the span of the embedded frame E."""
    Q, R = np.linalg.qr(E.astype(complex))
    if np.min(np.abs(np.diag(R))) < 1e-12 * max(1.0, np.max(np.abs(np.diag(R)))):
        raise InvalidFrame("rank-deficient frame")
    if tag == "H":
        return reference_quat_frame(Q).embed()
    return Q.real if tag == "R" else Q


def reference_standardize_pair(a, c):
    """The Lagrangian branch of standardize_pair, for a transverse pair."""
    model, tag = a.model, a.model.tag
    A = reference_orthonormalize_frame(a.frame, tag)
    C = reference_orthonormalize_frame(c.frame, tag)
    P = product(product(adjoint(A), model.form(), tag), C, tag)
    cond = np.linalg.cond(P)
    if cond > 1e12:
        raise IllConditioned(f"pairing condition number {cond:.3e}")
    M = KMat.unembed(tag, -np.linalg.inv(P))
    Ak, CM = KMat.unembed(tag, A), KMat.unembed(tag, product(C, M.embed(), tag))
    if tag == "H":
        T = _chi(np.hstack([Ak.a, CM.a]), np.hstack([Ak.b, CM.b]))
    else:
        T = np.hstack([Ak.a, CM.a])
    return GroupElement(model, T, _check=False).inv()
