"""The per-point bodies that the stacked kernels replaced, kept as references for the tests.

ReferencePoint is the former ShilovPoint constructor (checked=False skips
the isotropy check, as the former act did), reference_act and
reference_chart_coordinates the former scalar act and chart_coordinates,
reference_quat_frame the former per-item quaternionic frame recovery, and
reference_standardize_pair the former Lagrangian standardize_pair, which
orthonormalized frames with reference_orthonormalize_frame.  The library's
batched paths must match them bit for bit.
"""

import numpy as np

from causalflag.errors import IllConditioned, InvalidFrame, NonFiniteInput, NotHermitian, NotInChart
from causalflag.groups import GroupElement
from causalflag.kmat import KMat
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
        return ReferencePoint(x.model, g.g @ x.frame, checked=False)
    return ReferencePoint(x.model, g.g.a @ x.frame)


def reference_chart_coordinates(x):
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


def reference_orthonormalize_frame(F):
    E = F.embed()
    Q, R = np.linalg.qr(E)
    if np.min(np.abs(np.diag(R))) < 1e-12 * max(1.0, np.max(np.abs(np.diag(R)))):
        raise InvalidFrame("rank-deficient frame")
    if F.tag == "H":
        return reference_quat_frame(Q)
    return KMat.unembed(F.tag, Q)


def reference_standardize_pair(a, c):
    """The Lagrangian branch of standardize_pair, for a transverse pair."""
    model = a.model
    A = reference_orthonormalize_frame(a.frame)
    C = reference_orthonormalize_frame(c.frame)
    P = A.H @ model.form() @ C
    Pc = P.embed()
    cond = np.linalg.cond(Pc)
    if cond > 1e12:
        raise IllConditioned(f"pairing condition number {cond:.3e}")
    M = KMat.unembed(model.tag, -np.linalg.inv(Pc))
    T = KMat.hstack([A, C @ M])
    return GroupElement(model, T, _check=False).inv()
