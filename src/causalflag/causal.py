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

from .errors import (
    EmptyInput,
    ModelMismatch,
    NonFiniteInput,
    NotTransverse,
    PointsNotInBothCharts,
)
from .groups import GroupElement, GroupModel
from .kmat import KMat, adjoint, as_embedded, draw, embed_real, hermitian_draw, product
from .linalg import _zero_band, check_hermitian, frobenius_norms, signature, signature_counts
from .shilov import (
    TRANSVERSALITY_TOL,
    ShilovPoint,
    _act_frames,
    _chart_point_stack,
    _minkowski_psi,
    act,
    base_points,
    chart_coordinates,
    chart_coordinates_stack,
    chart_point,
    standardize_pair,
    transversality_margin,
    transversality_margins,
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
_ORBITS = ((2, 0), (0, 2), (0, 0), (1, 1), (0, 0))  # SO(n, 2) Sylvester label of each relation code

# ordered pairs per kernel call in the hull scan; bounds the scan's working memory
_SCAN_BLOCK = 4096
POSITIVE_FLOOR = 0.1  # smallest eigenvalue of random_positive_coord
_SYLVESTER_CHUNK = 4096  # trials per stacked draw of the Sylvester check; bounds its working memory


def _stack(model: GroupModel, coords):
    """Chart coordinates (a list of embedded arrays, or one array stacking them) as one array.

    The Lagrangian families give an embedded (k, d, d) stack and SO(n, 2)
    a (k, n) Minkowski stack.  This is where every causal routine takes
    its input, so NaN or inf anywhere raises NonFiniteInput.
    """
    if model.is_lagrangian:
        d = model.form().shape[0] // 2
        S = as_embedded(model.tag, np.asarray(coords).reshape(len(coords), d, d))
    else:
        S = np.asarray(coords, dtype=float).reshape(len(coords), model.rank)
    if not np.isfinite(S).all():
        raise NonFiniteInput("chart coordinates must be finite")
    return S


def _diff(A, B):
    """A - B of coordinate stacks (broadcast); an overflowing entry is inf, for the norm checks to name."""
    with np.errstate(over="ignore"):
        return A - B


def _norms(model: GroupModel, D, what):
    """Norms of a coordinate stack: the field's Frobenius norm per matrix, Euclidean per Minkowski vector.

    Raises NonFiniteInput, naming what, where a norm overflows, without a floating point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = frobenius_norms(D if model.is_lagrangian else D[..., None], model.tag)
    if not np.isfinite(norms).all():
        raise NonFiniteInput(f"{what} overflows")
    return norms


def _cone(model: GroupModel, D):
    """Forward margin, past margin and norm of each coordinate difference in D.

    Lagrangian families: D is an embedded (k, d, d) stack and one eigvalsh
    call gives the minimal eigenvalue (forward) and minus the maximal one
    (past).  SO(n, 2): D is a (k, n) Minkowski stack and the margins are
    +-v_n - |v_space|.  A difference whose Hermitian part or norm
    overflows raises NonFiniteInput; past that, every margin is bounded by
    the norm.
    """
    if model.is_lagrangian:
        H, norm = check_hermitian(D, model.tag)
        lam = np.linalg.eigvalsh(H)
        return lam[:, 0], -lam[:, -1], norm
    norm = _norms(model, D, "a coordinate difference")
    space = frobenius_norms(D[:, :-1, None], model.tag)
    return D[:, -1] - space, -D[:, -1] - space, norm


def _relations(model: GroupModel, D):
    """Relation code, forward margin, zero band and norm of each coordinate difference in D (see _cone).

    The band is the eigenvalue band (linalg._zero_band) on the Lagrangian
    families and 1e-9 * max(1, norm) on SO(n, 2).
    """
    fwd, past, norm = _cone(model, D)
    if model.is_lagrangian:
        band = _zero_band(fwd, -past)
        light = (-past <= band) | (fwd >= -band)  # semidefinite with kernel
    else:
        band = 1e-9 * np.maximum(1.0, norm)
        light = np.abs(_minkowski_psi(D)) <= 2 * band * np.maximum(1.0, norm)
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
    """The zero band of _relations on X (a stack of one): the eigenvalue band 1e-9 * max(1, max |lambda|).

    On SO(n, 2) it is 1e-9 * max(1, |X|).  NotHermitian for a non-Hermitian
    X, NonFiniteInput where X or its norm is not finite.
    """
    return _single(model, _stack(model, [X]))[2]


def in_cone(model: GroupModel, X) -> bool:
    _, fwd, band = _single(model, _stack(model, [X]))
    return fwd > band


def future_membership(model: GroupModel, X, Y) -> FutureRelation:
    """Classify Y relative to X by the position of Y - X w.r.t. the cone."""
    return _RELATIONS[_single(model, _diff(_stack(model, [Y]), _stack(model, [X])))[0]]


def classify_orbit(model: GroupModel, X):
    """Sylvester orbit label (i_plus, i_minus) of a chart coordinate.

    On SO(n, 2) it is the _ORBITS label of future_membership(model, 0, X).
    """
    if model.is_lagrangian:
        sig = signature(as_embedded(model.tag, X), model.tag)
        return (sig.pos, sig.neg)
    return _ORBITS[_single(model, _stack(model, [X]))[0]]


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
    codes = _relations(d.model, _diff(_stack(d.model, [Z, d.y]), _stack(d.model, [d.x, Z])))[0]
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
        """Positive inside, negative outside; magnitude is the deciding margin: margins of a stack of one."""
        return float(self.margins([Z])[0])

    def margins(self, Zs) -> np.ndarray:
        """The margin of each coordinate of a stack (a list, or one embedded or Minkowski array)."""
        z = _stack(self.model, Zs)[:, None]
        with np.errstate(over="ignore"):  # an overflowing difference is inf, which the kernels name
            # Z lies in the closed diamond [X, Y] iff Z - X and Y - Z are both in the closed cone
            D = np.concatenate([z - self._lo, self._hi - z], axis=1)
            P = self._points - z
        k = len(self._lo)
        fwd = _cone(self.model, D.reshape(-1, *D.shape[2:]))[0].reshape(len(D), 2 * k)
        inside = np.max(np.minimum(fwd[:, :k], fwd[:, k:]), axis=1, initial=-np.inf)
        dist = _norms(self.model, P, "a distance to a hull point")
        return np.maximum(inside, -np.min(dist, axis=1, initial=np.inf))

    def membership(self, Z) -> bool:
        """Whether the margin of Z is at least -zero_band(Z)."""
        margin = self.margin(Z)  # first, so that non-finite Z raises NonFiniteInput
        return margin >= -zero_band(self.model, Z)


def causal_hull(model: GroupModel, points) -> Hull:
    """Hull of a finite coordinate list: all diamonds over causally related pairs.

    The ordered pairs (i, j) are scanned in row blocks of the stacked
    kernel; the pair list keeps the nested-loop order of (i, j).
    """
    P = _stack(model, points)
    if not len(P):
        raise EmptyInput("causal_hull of an empty list")
    points = list(P)
    n = len(points)
    rows = max(1, _SCAN_BLOCK // n)
    pairs = []
    for i0 in range(0, n, rows):
        D = _diff(P[None, :], P[i0 : i0 + rows, None])  # D[i, j] = P[j] - P[i0 + i]
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

    def contains(self, x: ShilovPoint, tol=TRANSVERSALITY_TOL) -> bool:
        return transversality_margin(x, self.base) > tol

    def coords(self, x: ShilovPoint):
        return chart_coordinates(act(self.transporter.inv(), x))

    def point(self, X) -> ShilovPoint:
        return act(self.transporter, chart_point(self.base.model, X))


def chart_independence_check(points, chart_a: ChartedChart, chart_b: ChartedChart, n_probe: int, seed) -> dict:
    """Compare hull membership computed in two charts on seeded probe points.

    The probes are drawn one at a time and then run as one stack: their
    points in chart A, the chart B coordinates of those that stay in chart
    B (transversality margin to its base above 1e-6), and one
    Hull.margins call per hull.  A probe that leaves chart B, or whose
    margin lies inside the tolerance band in either chart, is flagged
    WITHIN_TOL and not counted as a disagreement; within_tol_by_reason
    counts the two cases.  Each stacked step runs once on all the probes
    and raises for its own first failing probe, so the error is that of the
    first step that any probe fails.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be at least 1")
    if not points:
        raise ValueError("need at least one point")
    model = chart_a.base.model
    for x in points:
        if not (chart_a.contains(x) and chart_b.contains(x)):
            raise PointsNotInBothCharts("an input point misses one of the charts")
    coords_a = [chart_a.coords(x) for x in points]
    coords_b = [chart_b.coords(x) for x in points]
    hull_a = causal_hull(model, coords_a)
    hull_b = causal_hull(model, coords_b)
    rng = np.random.default_rng(seed)
    band = 1e-7
    probes = []
    for _ in range(n_probe):
        # interpolate inside a random diamond, or jitter around a random point
        if hull_a.pairs and rng.random() < 0.7:
            X, Y = hull_a.pairs[rng.integers(len(hull_a.pairs))]
            t = rng.random()
            if model.is_lagrangian:
                Z = X + t * (Y - X)
                noise = _random_hermitian(model, rng)
                Z = Z + (0.3 * rng.random()) * noise
            else:
                Z = X + t * (Y - X) + 0.3 * rng.random() * rng.standard_normal(len(X))
        else:
            X = coords_a[rng.integers(len(coords_a))]
            if model.is_lagrangian:
                Z = X + 0.5 * _random_hermitian(model, rng)
            else:
                Z = X + 0.5 * rng.standard_normal(len(X))
        probes.append(Z)
    Z = np.array(probes)
    frames, orthos = _act_frames(model, chart_a.transporter.g, _chart_point_stack(model, Z)[0])
    stays = transversality_margins(model, chart_b.base.ortho, orthos) > 1e-6
    Zb = chart_coordinates_stack(model, *_act_frames(model, chart_b.transporter.inv().g, frames[stays]))
    ma, mb = hull_a.margins(Z[stays]), hull_b.margins(Zb)
    in_band = (np.abs(ma) <= band) | (np.abs(mb) <= band)
    disagree = ~in_band & ((ma > 0) != (mb > 0))
    left, near = int(np.sum(~stays)), int(np.sum(in_band))
    return {
        "probes": n_probe,
        "disagreements": int(np.sum(disagree)),
        "within_tol": left + near,
        "within_tol_by_reason": {"left_chart_b": left, "margin_in_band": near},
        "max_disagreement_margin": float(np.max(np.minimum(np.abs(ma), np.abs(mb))[disagree], initial=0.0)),
    }


# --------------------------------------------------------------- Sylvester law


def _random_hermitian(model: GroupModel, rng) -> np.ndarray:
    """A random Hermitian chart coordinate: kmat.hermitian_draw on a stack of one."""
    return hermitian_draw(model.tag, (1, model.rank, model.rank), rng)[0]


def _signature_coords(model: GroupModel, i: int, n: int, rng):
    """n random chart coordinates M^H D M with Sylvester invariant (i, r - i, 0), as an embedded stack.

    D = diag(1, ..., 1, -1, ..., -1) with i ones.  Every M is a standard
    normal draw, redrawn (only where rejected) until its condition number
    is below 1e4; a stack of one draws as kmat.draw of one matrix does.
    """
    if not model.is_lagrangian:
        raise ModelMismatch("signature sampling targets the Lagrangian families")
    r, tag = model.rank, model.tag
    M = draw(tag, (n, r, r), rng)
    redraw = np.flatnonzero(~(np.linalg.cond(M) < 1e4))
    while len(redraw):
        M[redraw] = draw(tag, (len(redraw), r, r), rng)
        redraw = redraw[~(np.linalg.cond(M[redraw]) < 1e4)]
    D = embed_real(np.diag([1.0] * i + [-1.0] * (r - i)), tag)
    return product(product(adjoint(M), D, tag), M, tag)


def _positive_coords(model: GroupModel, n: int, rng):
    """n random positive definite chart coordinates N^H N + POSITIVE_FLOOR * I, as an embedded stack."""
    if not model.is_lagrangian:
        raise ModelMismatch("positive sampling targets the Lagrangian families")
    r, tag = model.rank, model.tag
    N = draw(tag, (n, r, r), rng)
    return product(adjoint(N), N, tag) + POSITIVE_FLOOR * embed_real(np.eye(r), tag)


def random_signature_coord(model: GroupModel, i: int, rng) -> KMat:
    """Random chart coordinate with Sylvester invariant (i, r - i, 0): _signature_coords of one."""
    return KMat(_signature_coords(model, i, 1, rng)[0])


def random_positive_coord(model: GroupModel, rng) -> KMat:
    """Random positive definite chart coordinate N^H N + POSITIVE_FLOOR * I: _positive_coords of one."""
    return KMat(_positive_coords(model, 1, rng)[0])


def sylvester_orbit_check(model: GroupModel, i: int, trials: int, seed) -> dict:
    """Empirical check that adding a future vector never lowers the positive index.

    The trials are drawn in chunks of _SYLVESTER_CHUNK, each as two stacks
    (signature coordinates, then positive ones), and one stacked eigvalsh
    per chunk decides every signature.
    """
    if not 0 <= i <= model.r:
        raise ValueError("orbit index out of range")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    pos = []
    for start in range(0, trials, _SYLVESTER_CHUNK):
        n = min(_SYLVESTER_CHUNK, trials - start)
        X = _signature_coords(model, i, n, rng)
        pos.append(signature_counts(X + _positive_coords(model, n, rng), model.tag)[0])
    pos = np.concatenate(pos)
    histogram = np.bincount(pos, minlength=model.r + 1)
    return {
        "model": model.to_json(),
        "i": i,
        "trials": trials,
        "failures": int(np.sum(pos < i)),
        "histogram": {str(k): int(v) for k, v in enumerate(histogram)},
    }
