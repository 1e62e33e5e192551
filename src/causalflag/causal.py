"""Cones, futures, diamonds, causal hulls, and the Sylvester orbit law.

Chart coordinates are Hermitian matrices for the Lagrangian families
(the invariant cone is the positive definite cone) and Minkowski
n-vectors for SO(n, 2) (the cone is the open future lightcone).

Every relation and cone margin comes from one stacked kernel over a
stack of coordinate differences; the functions taking one point or one
pair call it with a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyInput, ModelMismatch, NonFiniteInput, NotTransverse, PointsNotInBothCharts
from .groups import GroupElement, GroupModel
from .kmat import KMat
from .linalg import check_hermitian, frobenius_norms, signature
from .scalars import QUATERNION
from .shilov import (
    ShilovPoint,
    act,
    base_points,
    chart_coordinates,
    chart_point,
    minkowski_form,
    standardize_pair,
    transversality_margin,
    transverse,
)


class FutureRelation(Enum):
    STRICT_FUTURE = "STRICT_FUTURE"
    STRICT_PAST = "STRICT_PAST"
    LIGHTCONE = "LIGHTCONE"
    NEITHER = "NEITHER"
    EQUAL = "EQUAL"


# relation codes of the stacked kernel: indices into _RELATIONS
_RELATIONS = tuple(FutureRelation)
_FUTURE, _PAST, _LIGHTCONE, _NEITHER, _EQUAL = range(5)

# ordered pairs per kernel call in the hull scan; bounds the scan's working memory
_SCAN_BLOCK = 4096


def _coord_like(model: GroupModel, X):
    if model.is_lagrangian:
        if not isinstance(X, KMat):
            X = KMat(model.tag, X)
        return X
    return np.asarray(X, dtype=float).reshape(-1)


def _stack(model: GroupModel, coords):
    """Chart coordinates as one array: an embedded (k, d, d) stack or a (k, n) Minkowski stack.

    Real coordinates stay real.  This is where every causal routine takes
    its input, so NaN or inf anywhere raises NonFiniteInput.
    """
    if model.is_lagrangian:
        r = model.rank
        mats = [_coord_like(model, X).astag(model.tag) for X in coords]
        S = np.array([X.a for X in mats]).reshape(len(mats), r, r)
        if model.tag == QUATERNION:
            B = np.array([X.b for X in mats]).reshape(len(mats), r, r)
            S = np.block([[S, B], [-np.conj(B), np.conj(S)]])
    else:
        S = np.array([_coord_like(model, X) for X in coords], dtype=float).reshape(len(coords), model.rank)
    if not np.isfinite(S).all():
        raise NonFiniteInput("chart coordinates must be finite")
    return S


def _norms(model: GroupModel, D):
    """Norms of a coordinate stack: KMat.norm per matrix, Euclidean per Minkowski vector."""
    if model.is_lagrangian:
        return frobenius_norms(D, model.tag)
    return np.linalg.norm(D, axis=-1)


def _relations(model: GroupModel, D):
    """Relation code, forward margin, zero band and norm of each coordinate difference in D.

    Lagrangian families: D is an embedded (k, d, d) stack and one eigvalsh
    call decides everything.  The forward margin is the minimal eigenvalue
    and the band is 1e-9 * max(1, max |eigenvalue|).  SO(n, 2): D is a
    (k, n) Minkowski stack; the forward margin is v_n - |v_space|.
    """
    if model.is_lagrangian:
        H, norm = check_hermitian(D, model.tag)
        lam = np.linalg.eigvalsh(H)
        fwd, top = lam[:, 0], lam[:, -1]
        band = 1e-9 * np.maximum(1.0, np.maximum(-fwd, top))
        past = -top
        light = (top <= band) | (fwd >= -band)  # semidefinite with kernel
    else:
        norm = _norms(model, D)
        band = 1e-9 * np.maximum(1.0, norm)
        space = np.linalg.norm(D[:, :-1], axis=-1)
        fwd = D[:, -1] - space
        past = -D[:, -1] - space
        psi = np.sum(D[:, :-1] ** 2, axis=-1) - D[:, -1] ** 2
        light = np.abs(psi) <= 2 * band * np.maximum(1.0, norm)
    code = np.where(light, _LIGHTCONE, _NEITHER)
    code = np.where(past > band, _PAST, code)
    code = np.where(fwd > band, _FUTURE, code)
    code = np.where(norm <= band, _EQUAL, code)  # the last assignment takes precedence
    return code, fwd, band, norm


def _single(model: GroupModel, D):
    """(code, forward margin, band) of a stack of one difference."""
    code, fwd, band, _ = _relations(model, D)
    return int(code[0]), float(fwd[0]), float(band[0])


def cone_margin(model: GroupModel, X) -> float:
    """Signed margin of cone membership; positive inside the future cone.

    Lagrangian families: the minimal eigenvalue.  SO(n, 2): the future
    cone is {psi < 0, v_n > 0} and the margin is min(v_n - |v_space|)
    style, here sqrt-free: v_n - ||spatial part||.
    """
    return _single(model, _stack(model, [X]))[1]


def zero_band(model: GroupModel, X) -> float:
    if model.is_lagrangian:
        return 1e-9 * max(1.0, _coord_like(model, X).opnorm())
    return 1e-9 * max(1.0, float(np.linalg.norm(X)))


def in_cone(model: GroupModel, X) -> bool:
    _, fwd, band = _single(model, _stack(model, [X]))
    return fwd > band


def future_membership(model: GroupModel, X, Y) -> FutureRelation:
    """Classify Y relative to X by the position of Y - X w.r.t. the cone."""
    return _RELATIONS[_single(model, _stack(model, [Y]) - _stack(model, [X]))[0]]


def classify_orbit(model: GroupModel, X):
    """Sylvester orbit label (i_plus, i_minus) of a chart coordinate."""
    X = _coord_like(model, X)
    if model.is_lagrangian:
        sig = signature(X)
        return (sig.pos, sig.neg)
    psi = minkowski_form(X)
    tol = zero_band(model, X)
    if psi > tol:
        return (1, 1)
    if psi < -tol:
        return (2, 0) if X[-1] > 0 else (0, 2)
    return (0, 0)  # degenerate stratum


# -------------------------------------------------------------------- diamonds


@dataclass
class Diamond:
    """The interval I+(x) intersect I-(y) in a fixed chart."""

    model: GroupModel
    x: object
    y: object

    def __post_init__(self):
        if future_membership(self.model, self.x, self.y) != FutureRelation.STRICT_FUTURE:
            raise NotTransverse("diamond endpoints must be strictly causally related")


def diamond_membership(d: Diamond, Z, closed=False) -> bool:
    # relations of Z to x and of y to Z, in one kernel call
    codes = _relations(d.model, _stack(d.model, [Z, d.y]) - _stack(d.model, [d.x, Z]))[0]
    ok = (_FUTURE, _LIGHTCONE, _EQUAL) if closed else (_FUTURE,)
    return bool(np.isin(codes, ok).all())


# ------------------------------------------------------------------------ hull


@dataclass
class Hull:
    """Causal convex hull of finitely many chart coordinates.

    Membership is a finite disjunction: a point belongs to the hull iff
    it coincides with an input point or lies in a closed diamond spanned
    by a causally related input pair.  Pairs are stored (X, Y) with Y in
    the closed future of X.
    """

    model: GroupModel
    points: list
    pairs: list = field(default_factory=list)

    def __post_init__(self):
        self._points = _stack(self.model, self.points)
        self._lo = _stack(self.model, [X for X, _ in self.pairs])
        self._hi = _stack(self.model, [Y for _, Y in self.pairs])

    def margin(self, Z) -> float:
        """Positive inside, negative outside; magnitude is the deciding margin."""
        z = _stack(self.model, [Z])
        # Z lies in the closed diamond [X, Y] iff Z - X and Y - Z are both in the closed cone
        fwd = _relations(self.model, np.concatenate([z - self._lo, self._hi - z]))[1]
        k = len(self._lo)
        inside = np.max(np.minimum(fwd[:k], fwd[k:]), initial=-np.inf)
        nearest = np.min(_norms(self.model, self._points - z), initial=np.inf)
        return float(max(inside, -nearest))

    def membership(self, Z, tol=None) -> bool:
        margin = self.margin(Z)  # first, so that non-finite Z raises NonFiniteInput
        if tol is None:
            tol = zero_band(self.model, Z)
        return margin >= -tol


def causal_hull(model: GroupModel, points) -> Hull:
    """Hull of a finite coordinate list: all diamonds over causally related pairs.

    The ordered pairs (i, j) are scanned in row blocks of the stacked
    kernel; the pair list keeps the nested-loop order of (i, j).
    """
    points = [_coord_like(model, X) for X in points]
    if not points:
        raise EmptyInput("causal_hull of an empty list")
    P = _stack(model, points)
    n = len(points)
    rows = max(1, _SCAN_BLOCK // n)
    pairs = []
    for i0 in range(0, n, rows):
        D = P[None, :] - P[i0 : i0 + rows, None]  # D[i, j] = P[j] - P[i0 + i]
        code, fwd, band, _ = _relations(model, D.reshape(-1, *P.shape[1:]))
        # a past-pointing lightcone pair is left to its mirror (j, i)
        keep = (code == _FUTURE) | ((code == _LIGHTCONE) & (fwd >= -band))
        for i, j in zip(*np.nonzero(keep.reshape(-1, n))):
            pairs.append((points[i0 + i], points[j]))
    return Hull(model, points, pairs)


# ------------------------------------------------------------------ chart atlas


@dataclass
class ChartedChart:
    """An affine chart A_z given by its base point and a transporter from the standard chart."""

    base: ShilovPoint
    transporter: GroupElement
    time_orientation: int = 1

    def __post_init__(self):
        _, p_minus = base_points(self.base.model)
        image = act(self.transporter, p_minus)
        if image.distance(self.base) > 1e-8:
            raise ModelMismatch("transporter does not map the standard base to the chart base")

    @classmethod
    def standard(cls, model: GroupModel):
        _, p_minus = base_points(model)
        return cls(p_minus, GroupElement.identity(model))

    @classmethod
    def at_point(cls, z: ShilovPoint, witness: ShilovPoint):
        """Chart based at z, built from any point transverse to z."""
        S = standardize_pair(witness, z)
        return cls(z, S.inv())

    def contains(self, x: ShilovPoint, tol=1e-9) -> bool:
        return transversality_margin(x, self.base) > tol

    def coords(self, x: ShilovPoint):
        return chart_coordinates(act(self.transporter.inv(), x))

    def point(self, X) -> ShilovPoint:
        return act(self.transporter, chart_point(self.base.model, X))


def chart_independence_check(points, chart_a: ChartedChart, chart_b: ChartedChart, n_probe: int, seed) -> dict:
    """Compare hull membership computed in two charts on seeded probe points.

    Probes near a lightcone boundary (margin inside the tolerance band in
    either chart) are flagged WITHIN_TOL and not counted as disagreements.
    """
    model = chart_a.base.model
    for x in points:
        if not (chart_a.contains(x) and chart_b.contains(x)):
            raise PointsNotInBothCharts("an input point misses one of the charts")
    coords_a = [chart_a.coords(x) for x in points]
    coords_b = [chart_b.coords(x) for x in points]
    hull_a = causal_hull(model, coords_a)
    hull_b = causal_hull(model, coords_b)
    rng = np.random.default_rng(seed)
    disagreements = 0
    within_tol = 0
    max_margin = 0.0
    band = 1e-7
    for _ in range(n_probe):
        # interpolate inside a random diamond, or jitter around a random point
        if hull_a.pairs and rng.random() < 0.7:
            X, Y = hull_a.pairs[rng.integers(len(hull_a.pairs))]
            t = rng.random()
            if model.is_lagrangian:
                Z = X + t * (Y - X)
                noise = KMat.random(model.tag, Z.rows, Z.cols, rng)
                Z = Z + (0.3 * rng.random()) * (0.5 * (noise + noise.H))
            else:
                Z = X + t * (Y - X) + 0.3 * rng.random() * rng.standard_normal(len(X))
        else:
            X = coords_a[rng.integers(len(coords_a))]
            if model.is_lagrangian:
                noise = KMat.random(model.tag, X.rows, X.cols, rng)
                Z = X + 0.5 * (0.5 * (noise + noise.H))
            else:
                Z = X + 0.5 * rng.standard_normal(len(X))
        probe = chart_a.point(Z)
        if not chart_b.contains(probe, tol=1e-6):
            within_tol += 1
            continue
        Zb = chart_b.coords(probe)
        ma = hull_a.margin(Z)
        mb = hull_b.margin(Zb)
        if abs(ma) <= band or abs(mb) <= band:
            within_tol += 1
            continue
        if (ma > 0) != (mb > 0):
            disagreements += 1
            max_margin = max(max_margin, min(abs(ma), abs(mb)))
    return {
        "probes": n_probe,
        "disagreements": disagreements,
        "within_tol": within_tol,
        "max_disagreement_margin": max_margin,
    }


# --------------------------------------------------------------- Sylvester law


def random_signature_coord(model: GroupModel, i: int, rng):
    """Random chart coordinate with Sylvester invariant (i, r - i, 0)."""
    if not model.is_lagrangian:
        raise ModelMismatch("signature sampling targets the Lagrangian families")
    r = model.rank
    diag = np.diag([1.0] * i + [-1.0] * (r - i))
    if model.tag == "R":
        D = KMat("R", diag)
    elif model.tag == "C":
        D = KMat("C", diag.astype(complex))
    else:
        D = KMat("H", diag.astype(complex), np.zeros((r, r), dtype=complex))
    while True:
        M = KMat.random(model.tag, r, r, rng)
        if np.linalg.cond(M.embed()) < 1e4:
            break
    return M.H @ D @ M


def random_positive_coord(model: GroupModel, rng, floor=0.1):
    r = model.rank
    N = KMat.random(model.tag, r, r, rng)
    return N.H @ N + floor * KMat.eye(model.tag, r)


def sylvester_orbit_check(model: GroupModel, i: int, trials: int, seed) -> dict:
    """Empirical check that adding a future vector never lowers the positive index."""
    if not 0 <= i <= model.r:
        raise ValueError("orbit index out of range")
    rng = np.random.default_rng(seed)
    failures = 0
    histogram = {j: 0 for j in range(model.r + 1)}
    for _ in range(trials):
        X = random_signature_coord(model, i, rng)
        Y = random_positive_coord(model, rng)
        pos = signature(X + Y).pos
        histogram[pos] += 1
        if pos < i:
            failures += 1
    return {
        "model": model.to_json(),
        "i": i,
        "trials": trials,
        "failures": failures,
        "histogram": {str(k): v for k, v in histogram.items()},
    }
