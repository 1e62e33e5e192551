"""Lorentzian Einstein universe: lightcones, photons, invisible domains.

Points are isotropic lines of a form of signature (n, 2); every lift
pairing b(u, v) is shilov._pairings, and points of two models are a
ModelMismatch.  The sign rule of a triple lives in maslov.maslov_indices;
ein_maslov_sign and lightcone_membership are batches of one of
maslov_index and shilov.transverse.  Negativity three by three is one
Gram matrix: flip each lift so that it pairs negatively with lift 0, and
the family is negative iff every pairing is then negative.  One
invisibility margin against those negative lifts (_one_sign_margins)
decides the invisible domain and the photon scan.

A photon through [u], u = (x, t) a unit lift, is {[cos s u + sin s w]}
with w = (z, Jt), z orthogonal to x with |z| = |t| and J the quarter
turn of R^2: w is a unit isotropic lift, b- and Euclidean-orthogonal to
u.  As b(l, cos s u + sin s w) = cos s b(l, u) + sin s b(l, w), the photon
scan reads two pairings per negative lift l and builds no points.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryNotBracketed, LimitSetNotNegative, ModelMismatch, NotInDomain
from .groups import SO_N2, GroupModel
from .maslov import maslov_index
from .shilov import TRANSVERSALITY_TOL, ShilovPoint, _pairings, transverse

PHOTON_SCAN = 1000  # points per photon in photon_convexity_check
_SCAN_ANGLES = np.linspace(0.0, np.pi, PHOTON_SCAN, endpoint=False)
_SCAN_COS_SIN = np.stack([np.cos(_SCAN_ANGLES), np.sin(_SCAN_ANGLES)])  # (2, PHOTON_SCAN)
HILBERT_T_SPAN = 1e8  # largest affine parameter searched for a boundary point
HILBERT_TOL = 1e-12  # relative bisection width of a boundary point


def _check_model(model: GroupModel, points=()):
    """ModelMismatch unless model is an SO(n, 2) model and every one of points is of it."""
    if model.family != SO_N2:
        raise ModelMismatch("Einstein-universe routines require an SO(n, 2) model")
    if any(p.model != model for p in points):
        raise ModelMismatch("points belong to different models")


def pairing(x: ShilovPoint, y: ShilovPoint) -> float:
    """b(u, v) on the stored unit lifts: shilov._pairings of a batch of one."""
    _check_model(x.model, [y])
    return float(_pairings(x.model, x.frame[None], y.frame[None])[0])


def lightcone_membership(x: ShilovPoint, y: ShilovPoint) -> bool:
    """True iff y lies on the lightcone of x: the pair is not transverse."""
    _check_model(x.model)
    return not transverse(x, y)


def ein_maslov_sign(a: ShilovPoint, b_: ShilovPoint, c: ShilovPoint) -> int:
    """0 when the three pairings multiply to a negative number, else 2: maslov_index of the triple."""
    _check_model(a.model)
    return maslov_index(a, b_, c).idx


def invisible_domain_membership(limit_pts, x: ShilovPoint) -> bool:
    """True iff x is transverse to every limit point with index 0 against every pair: _invisible_memberships of one.

    With negative lifts u_i, the sign of (u_i, x, u_j) is 0 iff b(u_i, x) b(u_j, x) > 0.
    """
    return bool(_invisible_memberships(limit_pts, [x])[0])


def _invisible_memberships(limit_pts, points) -> np.ndarray:
    """invisible_domain_membership of each of points (none or more): their _invisible_margins above
    TRANSVERSALITY_TOL.  The limit set is checked negative whatever the number of points."""
    lifts = negative_lifts(limit_pts)
    _check_model(limit_pts[0].model, points)
    V = np.reshape([x.frame for x in points], (len(points), *lifts.shape[1:]))
    return _invisible_margins(limit_pts[0].model, lifts, V) > TRANSVERSALITY_TOL


def _invisible_margins(model: GroupModel, lifts, V) -> np.ndarray:
    """_one_sign_margins of the pairings of each lift v of a stack V with the negative lifts u_i."""
    return _one_sign_margins(_pairings(model, lifts[:, None], V[None]))


def _one_sign_margins(vals) -> np.ndarray:
    """min |b| over each column of (limit, k) pairings b if the column shares one sign, else minus it."""
    smallest = np.min(np.abs(vals), axis=0)
    one_sign = np.all(vals < 0, axis=0) | np.all(vals > 0, axis=0)
    return np.where(one_sign, smallest, -smallest)


def negative_lifts(limit_pts) -> np.ndarray:
    """Lifts with signs fixed so that every pairwise pairing is negative.

    One Gram matrix decides negativity three by three: flip each lift so
    that b(u_0, u_k) < 0; the triple (0, j, k) is then negative iff
    b(u_j, u_k) < 0, and a family is negative iff all of these are.
    """
    if not limit_pts:
        raise LimitSetNotNegative("empty limit set")
    model = limit_pts[0].model
    _check_model(model, limit_pts)
    L = np.stack([p.frame for p in limit_pts])
    gram = _pairings(model, L[:, None], L[None])
    iu = np.triu_indices(len(L), 1)
    close = np.flatnonzero(np.abs(gram[iu]) <= TRANSVERSALITY_TOL)
    if len(close):
        raise LimitSetNotNegative(f"points {iu[0][close[0]]}, {iu[1][close[0]]} are lightcone-related")
    flip = np.where(gram[0] > 0, -1.0, 1.0)
    flip[0] = 1.0
    positive = np.flatnonzero((flip[:, None] * gram * flip[None, :])[iu] > 0)
    if len(positive):
        j, k = iu[0][positive[0]], iu[1][positive[0]]
        raise LimitSetNotNegative(f"triple (0, {j}, {k}) is not negative")
    return L * flip[:, None]


def random_ein_point(model: GroupModel, rng) -> ShilovPoint:
    """Uniform-ish random isotropic line."""
    n = model.rank
    while True:
        u = rng.standard_normal(n)
        t = rng.standard_normal(2)
        nt = np.linalg.norm(t)
        if nt < 1e-6 or np.linalg.norm(u) < 1e-6:
            continue
        v = np.concatenate([u / np.linalg.norm(u), t / nt])
        return ShilovPoint(model, v)


def random_photon(model: GroupModel, rng):
    """The photon (u, w) of the module docstring through random_ein_point; a z below 1e-6 is redrawn."""
    _check_model(model)
    n = model.rank
    u = random_ein_point(model, rng).frame
    x, t = u[:n], u[n:]
    while True:
        z = rng.standard_normal(n)
        for _ in range(2):  # projected twice, so that x.z stays at rounding level for a short z
            z -= (z @ x) / (x @ x) * x
        nz = np.linalg.norm(z)
        if nz >= 1e-6:
            return u, np.concatenate([z * (np.linalg.norm(t) / nz), [-t[1], t[0]]])


def _photon_margins(model: GroupModel, lifts, u, w) -> np.ndarray:
    """_one_sign_margins at the photon scan's angles s, from b(l, u) and b(l, w) of each lift l."""
    return _one_sign_margins(_pairings(model, lifts[:, None], np.stack([u, w])[None]) @ _SCAN_COS_SIN)


def photon_convexity_check(limit_pts, n_photons: int, seed) -> dict:
    """Scan random photons: membership along each must form a single arc."""
    if n_photons < 1:
        raise ValueError("n_photons must be at least 1")
    lifts = negative_lifts(limit_pts)
    model = limit_pts[0].model
    rng = np.random.default_rng(seed)
    violations = 0
    vacuous = 0
    within_tol = 0
    scanned = 0
    band = 1e-8
    for _ in range(n_photons):
        margins = _photon_margins(model, lifts, *random_photon(model, rng))
        if np.any(np.abs(margins) <= band):
            within_tol += 1
            continue
        inside = margins > 0
        if not np.any(inside):
            vacuous += 1
            continue
        scanned += 1
        # cyclically count sign changes; a single arc has exactly two
        changes = int(np.sum(inside != np.roll(inside, 1)))
        if changes > 2:
            violations += 1
    return {
        "photons": n_photons,
        "scanned": scanned,
        "vacuous": vacuous,
        "within_tol": within_tol,
        "violations": violations,
    }


# ------------------------------------------------------------- Hilbert metric


def hilbert_distance(domain, x, y) -> float:
    """log cross ratio distance for a convex membership oracle on a line.

    domain(p) -> bool must be convex along the affine line p(t) = x + t (y - x);
    the two boundary points are located by bisection.  Points of two shapes are a ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"points of shapes {x.shape} and {y.shape}")
    if not domain(x):
        raise NotInDomain("x outside the domain")
    if not domain(y):
        raise NotInDomain("y outside the domain")
    d = np.linalg.norm(y - x)
    if d == 0.0:
        return 0.0

    def member(t):
        return domain(x + t * (y - x))

    def boundary(direction):
        t_in = 1.0 if direction > 0 else 0.0
        t_out = direction
        while member(t_out):
            t_in = t_out
            t_out *= 2.0
            if abs(t_out) > HILBERT_T_SPAN:
                raise BoundaryNotBracketed("no boundary point within the scan span")
        while abs(t_out - t_in) > HILBERT_TOL * max(1.0, abs(t_in)):
            mid = 0.5 * (t_in + t_out)
            if member(mid):
                t_in = mid
            else:
                t_out = mid
        return 0.5 * (t_in + t_out)

    t_b = boundary(+1.0)  # beyond y
    t_a = boundary(-1.0)  # behind x
    # affine parameters: a = t_a, x = 0, y = 1, b = t_b
    cr = ((1.0 - t_a) * (t_b - 0.0)) / ((0.0 - t_a) * (t_b - 1.0))
    return float(np.log(cr))
