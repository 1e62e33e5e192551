"""The per-point bodies that the stacked kernels replaced, kept as references for the tests.

ReferencePoint is the former ShilovPoint constructor (checked=False skips
the isotropy check, as the former act did), reference_act and
reference_chart_coordinates the former scalar act and chart_coordinates,
reference_quat_qr the per-item QR of a quaternionic frame (its columns
interleaved with their j-images), reference_quat_frame the former per-item
quaternionic frame recovery, a greedy Gram-Schmidt kept as an oracle of
spans, and reference_standardize_pair the former Lagrangian
standardize_pair, which orthonormalized frames with
reference_orthonormalize_frame, and
reference_pingpong_certificate the former ping-pong check, one letter and
one scanned angle at a time.  chart_maslov_index is the SO(n, 2) Maslov
index by its chart definition, an oracle that shares no sign rule with
maslov.maslov_indices, and kashiwara_full_form the former Lagrangian
maslov_indices, one eigvalsh of the 3d x 3d Hermitian part of Kashiwara's
form per triple.  reference_invisible_membership and
reference_photon_margins are the former two invisibility rules of
einstein (the membership test and the photon scan), each taking the
pairings as one matrix product.  dense_pairings is the Lagrangian form
pairing as a product with the dense embedded form, and sp2_exact_margin
the rank-one margin in rational arithmetic.  They work on
the embedded arrays the library holds (see causalflag.kmat), with the
quaternionic product kmat.product.  The library's batched paths must
match them bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from causalflag.errors import (
    IllConditioned,
    InvalidFrame,
    ModelMismatch,
    NoGap,
    NonFiniteInput,
    NotHermitian,
    NotInChart,
)
from causalflag.causal import classify_orbit
from causalflag.einstein import negative_lifts
from causalflag.groups import GroupElement
from causalflag.kmat import _chi, _parts, adjoint, concat, norm, product
from causalflag.linalg import _sign_counts
from causalflag.reps import PINGPONG_HALF_WIDTH, PINGPONG_SCAN
from causalflag.scalars import QUATERNION
from causalflag.shilov import (
    ISOTROPY_TOL,
    TRANSVERSALITY_TOL,
    act,
    base_points,
    chart_coordinates,
    standardize_pair,
    transversality_margin,
    transversality_margins,
)


class ReferencePoint:
    """ShilovPoint's former per-point constructor, ortho and projector."""

    def __init__(self, model, frame, checked=True):
        self.model = model
        self._ortho = None
        if model.is_lagrangian:
            tag = model.tag
            E = frame
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
            # the QR in the frame's own field: real on SP, interleaved on SO*
            Q, R = reference_quat_qr(E) if tag == "H" else np.linalg.qr(E)
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
        X = np.linalg.solve(top.T, bot.T).T
        X = _chi(*_parts(X)) if tag == "H" else X  # the solve need not return the chi layout
        XH = adjoint(X)
        defect = norm(X - XH, tag)
        if defect > 1e-7 * max(1.0, norm(X, tag)):
            raise NotHermitian(f"chart coordinate defect {defect:.3e}")
        return 0.5 * (X + XH)
    n = model.rank
    b = model.form()
    I = np.eye(n + 2)
    xi = x.frame.copy()
    denom = xi @ b @ (I[0] - I[n])  # the pairing with p_minus = e_0 - e_n
    xi = xi * (2.0 / denom)
    basis = [I[i] for i in range(1, n)] + [I[n + 1]]  # the spacelike chart axes, then the timelike one
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
    return _chi(np.stack(cols_a, axis=1), np.stack(cols_b, axis=1))


def reference_quat_qr(E):
    """(Q, R) of one quaternionic frame E (2n, 2k): the complex QR of [c0, jc0, c1, jc1, ...].

    The columns c are those of the chi frame of E's quaternionic parts (its
    top blocks); Q is the chi frame of the QR's even columns.
    """
    n, k = E.shape[0] // 2, E.shape[1] // 2
    E = _chi(*_parts(E))
    cols = []
    for i in range(k):
        cols += [E[:, i], _jmap(E[:, i])]
    Q, R = np.linalg.qr(np.column_stack(cols))
    return _chi(Q[:n, 0::2], -np.conj(Q[n:, 0::2])), R


def reference_orthonormalize_frame(E, tag):
    """An orthonormal embedded frame with the span of the embedded frame E (a chi frame over H)."""
    Q, R = reference_quat_qr(E) if tag == "H" else np.linalg.qr(E)  # the QR in the frame's own field: real on SP
    if np.min(np.abs(np.diag(R))) < 1e-12 * max(1.0, np.max(np.abs(np.diag(R)))):
        raise InvalidFrame("rank-deficient frame")
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
    M = -np.linalg.inv(P)
    M = _chi(*_parts(M)) if tag == "H" else M  # LAPACK's inverse laid out again
    T = concat([A, product(C, M, tag)], -1, tag)
    return GroupElement(model, T, _check=False).inv()


def reference_pingpong_certificate(rep):
    """The ping-pong check of reps.pingpong_certificate, one letter and one angle at a time."""
    if not (rep.model.family == "SP" and rep.model.rank == 1):
        raise ModelMismatch("the interval check runs on the rank-one SL(2, R) model")

    def angle_mod_pi(v):
        return float(np.arctan2(v[1], v[0]) % np.pi)

    def arc_contains(center, half_width, theta):
        d = (theta - center + np.pi / 2) % np.pi - np.pi / 2
        return half_width - abs(d)

    mats = {}
    for name in rep.gen_names:
        mats[name] = rep.gens[name].g
        mats[name.swapcase()] = np.linalg.inv(mats[name])
    centers = {}
    for letter, A in mats.items():
        w, V = np.linalg.eig(A)
        if np.max(np.abs(np.imag(w))) > 1e-12 or abs(abs(w[0]) - abs(w[1])) < 1e-9:
            raise NoGap(f"letter {letter!r} is not hyperbolic")
        top = np.argmax(np.abs(np.real(w)))
        centers[letter] = angle_mod_pi(np.real(V[:, top]))
    letters = sorted(mats)
    half_width = PINGPONG_HALF_WIDTH
    sep = np.inf
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            d = abs((centers[letters[i]] - centers[letters[j]] + np.pi / 2) % np.pi - np.pi / 2)
            sep = min(sep, d - 2 * half_width)
    contraction = np.inf
    for letter in letters:
        A = mats[letter]
        thetas = centers[letter.swapcase()] + half_width + np.linspace(0.0, np.pi - 2 * half_width,
                                                                           PINGPONG_SCAN)
        for th in thetas:
            image = angle_mod_pi(A @ np.array([np.cos(th), np.sin(th)]))
            contraction = min(contraction, arc_contains(centers[letter], half_width, image))
    return {
        "half_width": half_width,
        "centers": {k: centers[k] for k in letters},
        "separation_margin": float(sep),
        "contraction_margin": float(contraction),
        "passed": bool(sep > 0 and contraction > 0),
    }


def chart_maslov_index(a, b, c):
    """|idx| of an SO(n, 2) triple from the chart that standardizes (a, c): 2 iff b's coordinate is timelike.

    Raises what standardize_pair or chart_coordinates raise on a pair too close to the lightcone.
    """
    v = chart_coordinates(act(standardize_pair(a, c), b))
    return 2 if classify_orbit(a.model, v) in ((2, 0), (0, 2)) else 0


def kashiwara_full_form(model, A, B, C):
    """(idx, margin, valid) of each Lagrangian triple from the sign counts of the whole 3d x 3d form."""
    ab, bc, ac = (transversality_margins(model, X, Y) for X, Y in ((A, B), (B, C), (A, C)))
    margin = np.minimum(np.minimum(np.abs(ab), np.abs(bc)), np.abs(ac))
    valid = margin > TRANSVERSALITY_TOL
    J = model.form()
    d = A.shape[-1]
    T = np.zeros(A.shape[:-2] + (3 * d, 3 * d), dtype=np.result_type(A, B, C, J))
    T[..., :d, d : 2 * d] = adjoint(A) @ J @ B
    T[..., d : 2 * d, 2 * d :] = adjoint(B) @ J @ C
    T[..., 2 * d :, :d] = adjoint(C) @ J @ A
    pos, neg = _sign_counts(np.linalg.eigvalsh(0.5 * (T + adjoint(T))))
    valid &= pos + neg == 3 * d
    return np.abs(pos - neg) // (2 if model.tag == QUATERNION else 1), margin, valid


def reference_invisible_membership(limit_pts, x):
    """The former invisible_domain_membership: False at a pairing in the band, then one shared sign."""
    vals = negative_lifts(limit_pts) @ x.model.form() @ x.frame
    if np.any(np.abs(vals) <= TRANSVERSALITY_TOL):
        return False
    return bool(np.all(vals < 0) or np.all(vals > 0))


def reference_photon_margins(model, lifts, pts):
    """The former photon-scan margins of unit lifts pts (k, n+2) against negative lifts."""
    vals = lifts @ model.form() @ pts.T  # (limit, scan) pairings
    smallest = np.min(np.abs(vals), axis=0)
    one_sign = np.all(vals < 0, axis=0) | np.all(vals > 0, axis=0)
    return np.where(one_sign, smallest, -smallest)


def dense_pairings(model, X, Y):
    """X^H J Y of broadcast stacks of Lagrangian frames, through the dense embedded form."""
    return adjoint(X) @ model.form() @ Y


def sp2_exact_margin(x, y):
    """The sp2 margin |det [x, y]| / (|x| |y|) of two real 2-vectors, exact until the one final square root.

    Each float is a rational, so the determinant and the squared norms are
    exact Fractions; float() and sqrt round once each.
    """
    x1, x2, y1, y2 = (Fraction(float(t)) for t in (*x, *y))
    det = x1 * y2 - x2 * y1
    return math.sqrt(det * det / ((x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)))
