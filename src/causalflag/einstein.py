"""Lorentzian Einstein universe: lightcones, photons, invisible domains.

Points are isotropic lines of a form of signature (n, 2); every lift
pairing b(u, v) is shilov._pairings, and points of two models are a
ModelMismatch.  The sign rule of a triple lives in maslov.maslov_indices;
ein_maslov_sign and lightcone_membership are batches of one of
maslov_index and shilov.transverse.  Negativity three by three is one
Gram matrix: flip each lift so that it pairs negatively with lift 0, and
the family is negative iff every pairing is then negative.  One
invisibility margin against those negative lifts (_invisible_margins)
decides the invisible domain and the photon scan.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryNotBracketed, LimitSetNotNegative, ModelMismatch, NotInDomain
from .groups import SO_N2, GroupModel
from .linalg import frobenius_norms, null_space
from .maslov import maslov_index
from .shilov import TRANSVERSALITY_TOL, ShilovPoint, _pairings, transverse

PHOTON_SCAN = 1000  # points per photon in photon_convexity_check
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
    """True iff x is transverse to every limit point with index 0 against every pair.

    With negative lifts u_i, the sign of (u_i, x, u_j) is 0 iff
    b(u_i, x) b(u_j, x) > 0: _invisible_margins of a batch of one, above TRANSVERSALITY_TOL.
    """
    lifts = negative_lifts(limit_pts)
    _check_model(x.model, limit_pts[:1])
    return bool(_invisible_margins(x.model, lifts, x.frame[None])[0] > TRANSVERSALITY_TOL)


def _invisible_margins(model: GroupModel, lifts, V) -> np.ndarray:
    """min_i |b(u_i, v)| of each lift v of a stack V if its pairings with the u_i share one sign, else minus it."""
    vals = _pairings(model, lifts[:, None], V[None])  # (limit, k) pairings
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
    """A totally isotropic 2-plane, as a pair of b-orthogonal isotropic lifts."""
    _check_model(model)
    b = model.form()
    u = random_ein_point(model, rng).frame
    N = null_space((b @ u).reshape(1, -1))
    for _ in range(100):
        # random 2-plane in u-perp; solve for an isotropic direction inside it
        y = N @ rng.standard_normal(N.shape[1])
        z = N @ rng.standard_normal(N.shape[1])
        # b(y + t z) = 0 quadratic in t
        aa, yz, cc = _pairings(model, np.stack([z, y, y]), np.stack([z, z, y]))
        bb = 2 * yz
        disc = bb * bb - 4 * aa * cc
        if abs(aa) < 1e-12 or disc <= 0:
            continue
        t = (-bb + np.sqrt(disc)) / (2 * aa)
        w = y + t * z
        w = w - (u @ w) / (u @ u) * u  # make independent of u (Euclidean projection is fine here)
        if np.linalg.norm(w) < 1e-8:
            continue
        w = w / np.linalg.norm(w)
        if np.all(np.abs(_pairings(model, np.stack([w, u]), w)) < 1e-8):
            return u, w
    return None


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
        ph = random_photon(model, rng)
        if ph is None:
            vacuous += 1
            continue
        u, w = ph
        thetas = np.linspace(0.0, np.pi, PHOTON_SCAN, endpoint=False)
        # photon points cos(th) u + sin(th) w, margins vectorized over the scan
        pts = np.outer(np.cos(thetas), u) + np.outer(np.sin(thetas), w)
        pts = pts / np.maximum(frobenius_norms(pts[..., None], model.tag), 1e-300)[:, None]
        margins = _invisible_margins(model, lifts, pts)
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
    the two boundary points are located by bisection.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
