"""Maslov index of pairwise transverse triples.

The triple (a, b, c) is standardized so that (a, c) becomes the base
pair; the orbit of the middle point is then read off the Sylvester
signature of its chart coordinate.  Only |r - 2i| is a well-defined
invariant; we report i as min(i, r - i) alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .causal import classify_orbit
from .errors import DegenerateSignature, IllConditioned, NotPairwiseTransverse
from .groups import GroupModel
from .linalg import signature
from .shilov import ShilovPoint, act, chart_coordinates, standardize_pair, transversality_margin

MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class TripleType:
    i: int  # classifying positive index, reported as min(i, r - i)
    idx: int  # the invariant |r - 2i|
    rank: int

    def __post_init__(self):
        assert 0 <= self.i <= self.rank
        assert (self.idx - self.rank) % 2 == 0


def maslov_index(a: ShilovPoint, b: ShilovPoint, c: ShilovPoint) -> TripleType:
    """Type and Maslov index of a pairwise transverse triple."""
    model = a.model
    r = model.r
    margins = (
        transversality_margin(a, b),
        transversality_margin(b, c),
        transversality_margin(a, c),
    )
    if not all(m > MARGIN_TOL for m in margins):
        raise NotPairwiseTransverse(f"margins {margins} not all above {MARGIN_TOL:.1e}")
    S = standardize_pair(a, c)
    X = chart_coordinates(act(S, b))
    if model.is_lagrangian:
        sig = signature(X)
        if sig.zero > 0:
            raise DegenerateSignature(f"signature {sig.as_tuple()} has a kernel")
        i = sig.pos
    else:
        i_plus, i_minus = classify_orbit(model, X)
        if i_plus + i_minus != 2:
            raise DegenerateSignature("middle point lies on a lightcone stratum")
        i = i_plus
    return TripleType(min(i, r - i), abs(r - 2 * i), r)


def _random_transverse_triple(model: GroupModel, rng, margin_floor=1e-6, max_tries=200):
    from .causal import random_signature_coord  # local import to avoid a cycle at import time
    from .shilov import base_points, chart_point, transverse

    for _ in range(max_tries):
        if model.is_lagrangian:
            r = model.rank
            pts = []
            for _k in range(3):
                from .kmat import KMat

                X = KMat.random(model.tag, r, r, rng)
                pts.append(chart_point(model, 0.5 * (X + X.H)))
        else:
            n = model.rank
            pts = [chart_point(model, rng.standard_normal(n)) for _k in range(3)]
        m = min(
            transversality_margin(pts[0], pts[1]),
            transversality_margin(pts[1], pts[2]),
            transversality_margin(pts[0], pts[2]),
        )
        if m > margin_floor:
            return pts, m
    raise NotPairwiseTransverse("could not sample a well-separated triple")


def _adjoint(M):
    return np.conj(np.swapaxes(M, -1, -2))


def _batch_hermitian(model: GroupModel, n, rng):
    """Stack of embedded random Hermitian chart coordinates."""
    r = model.rank
    if model.tag == "R":
        G = rng.standard_normal((n, r, r))
        return 0.5 * (G + np.swapaxes(G, 1, 2))
    if model.tag == "C":
        G = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
        return 0.5 * (G + _adjoint(G))
    A = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    B = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    a = 0.5 * (A + _adjoint(A))
    b = 0.5 * (B - np.swapaxes(B, 1, 2))
    out = np.empty((n, 2 * r, 2 * r), dtype=complex)
    out[:, :r, :r] = a
    out[:, :r, r:] = b
    out[:, r:, :r] = -np.conj(b)
    out[:, r:, r:] = np.conj(a)
    return out


def _batch_frames(model: GroupModel, X):
    """Embedded chart-point frames [I; X], respecting the quaternion embedding."""
    n = X.shape[0]
    r = model.rank
    if model.tag != "H":
        eye = np.eye(r) if model.tag == "R" else np.eye(r, dtype=complex)
        return np.concatenate([np.broadcast_to(eye, (n, r, r)), X], axis=1)
    # chi([I; X]) interleaves the j-part blocks below the identity rows
    Xa = X[:, :r, :r]
    Xb = X[:, :r, r:]
    F = np.zeros((n, 4 * r, 2 * r), dtype=complex)
    F[:, :r, :r] = np.eye(r)
    F[:, r : 2 * r, :r] = Xa
    F[:, r : 2 * r, r:] = Xb
    F[:, 2 * r : 3 * r, r:] = np.eye(r)
    F[:, 3 * r :, :r] = -np.conj(Xb)
    F[:, 3 * r :, r:] = np.conj(Xa)
    return F


def _batch_group(model: GroupModel, n, rng, J):
    """Stack of embedded group elements exp(Z) with |Z| about one half."""
    import scipy.linalg

    d = J.shape[0]
    if model.tag == "R":
        Z = rng.standard_normal((n, d, d))
    elif model.tag == "C":
        Z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    else:
        h = d // 2
        A = rng.standard_normal((n, h, h)) + 1j * rng.standard_normal((n, h, h))
        B = rng.standard_normal((n, h, h)) + 1j * rng.standard_normal((n, h, h))
        Z = np.empty((n, d, d), dtype=complex)
        Z[:, :h, :h] = A
        Z[:, :h, h:] = B
        Z[:, h:, :h] = -np.conj(B)
        Z[:, h:, h:] = np.conj(A)
    Z = 0.5 * (Z + J @ _adjoint(Z) @ J)  # Lie algebra projection, J^{-1} = -J
    mult = np.sqrt(2.0) if model.tag == "H" else 1.0
    norms = np.linalg.norm(Z, axis=(1, 2)) / mult
    Z = Z * (0.5 / np.maximum(norms, 1e-300))[:, None, None]
    return scipy.linalg.expm(Z)


def _batch_idx(model: GroupModel, Fa, Fb, Fc, J):
    """Vectorized index of frame triples; returns (idx, margins, valid)."""
    r = model.rank
    m = 2 if model.tag == "H" else 1
    d = r * m
    Qa = np.linalg.qr(Fa)[0]
    Qb = np.linalg.qr(Fb)[0]
    Qc = np.linalg.qr(Fc)[0]

    def margin(Qx, Qy):
        return np.abs(np.linalg.det(np.concatenate([Qx, Qy], axis=2))) ** (1.0 / m)

    margins = np.minimum(np.minimum(margin(Qa, Qb), margin(Qb, Qc)), margin(Qa, Qc))
    valid = margins > MARGIN_TOL
    # standardize (a, c) to the base pair, then read the middle chart coordinate
    P = _adjoint(Qa) @ J @ Qc
    safe = np.abs(np.linalg.det(P)) > 1e-300
    valid &= safe
    Pinv = np.linalg.inv(np.where(safe[:, None, None], P, np.eye(d)))
    T = np.concatenate([Qa, -Qc @ Pinv], axis=2)
    s = np.linalg.svd(T, compute_uv=False)
    valid &= s[:, -1] > 1e-12 * s[:, 0]
    mid = np.linalg.solve(np.where(valid[:, None, None], T, np.eye(2 * d)), Qb)
    top = np.swapaxes(mid[:, :d, :], 1, 2)
    bot = np.swapaxes(mid[:, d:, :], 1, 2)
    st = np.linalg.svd(top, compute_uv=False)
    ok_top = st[:, -1] > 1e-12 * np.maximum(st[:, 0], 1.0)
    valid &= ok_top
    X = np.swapaxes(
        np.linalg.solve(np.where(ok_top[:, None, None], top, np.eye(d)), bot), 1, 2
    )
    defect = np.linalg.norm(X - _adjoint(X), axis=(1, 2))
    valid &= defect <= 1e-7 * np.maximum(1.0, np.linalg.norm(X, axis=(1, 2)))
    ev = np.linalg.eigvalsh(0.5 * (X + _adjoint(X)))
    tol = 1e-9 * np.maximum(1.0, np.max(np.abs(ev), axis=1))
    valid &= ~np.any(np.abs(ev) <= tol[:, None], axis=1)
    pos = np.sum(ev > tol[:, None], axis=1) // m
    return np.abs(r - 2 * pos), margins, valid


def maslov_invariance_report(model: GroupModel, n_trials: int, seed, chunk=512) -> dict:
    """G-invariance and swap symmetry of the index on random triples.

    The Lagrangian families run through a vectorized pipeline (same
    algorithm as maslov_index, trial-stacked); SO(n, 2) uses the scalar
    path.  Trials whose margins or conditioning fall inside the guard
    bands are counted as skipped, never as passes.
    """
    if not model.is_lagrangian:
        return _invariance_loop(model, n_trials, seed)
    J = model.form().embed()
    if model.tag == "R":
        J = J.real
    rng = np.random.default_rng(seed)
    violations = 0
    skipped = 0
    margins_all = []
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        done += n
        Fa = _batch_frames(model, _batch_hermitian(model, n, rng))
        Fb = _batch_frames(model, _batch_hermitian(model, n, rng))
        Fc = _batch_frames(model, _batch_hermitian(model, n, rng))
        g = _batch_group(model, n, rng, J)
        base_idx, base_margin, base_ok = _batch_idx(model, Fa, Fb, Fc, J)
        moved_idx, _, moved_ok = _batch_idx(model, g @ Fa, g @ Fb, g @ Fc, J)
        swap_idx, _, swap_ok = _batch_idx(model, Fa, Fc, Fb, J)
        valid = base_ok & moved_ok & swap_ok & (base_margin > 1e-6)
        bad = valid & ((moved_idx != base_idx) | (swap_idx != base_idx))
        violations += int(np.sum(bad))
        skipped += int(np.sum(~valid))
        margins_all.append(base_margin[valid])
    margins = np.concatenate(margins_all) if margins_all else np.array([])
    return {
        "model": model.to_json(),
        "trials": n_trials,
        "violations": violations,
        "skipped": skipped,
        "min_margin": float(np.min(margins)) if len(margins) else None,
        "median_margin": float(np.median(margins)) if len(margins) else None,
    }


def _invariance_loop(model: GroupModel, n_trials: int, seed) -> dict:
    from .groups import group_exp, random_lie_element

    rng = np.random.default_rng(seed)
    violations = 0
    skipped = 0
    margins = []
    for _ in range(n_trials):
        try:
            (a, b, c), m = _random_transverse_triple(model, rng)
        except NotPairwiseTransverse:
            skipped += 1
            continue
        Z = random_lie_element(model, rng)
        Z = (0.5 / max(Z.norm(), 1e-300)) * Z
        g = group_exp(model, Z)
        try:
            base = maslov_index(a, b, c)
            moved = maslov_index(act(g, a), act(g, b), act(g, c))
            swapped = maslov_index(a, c, b)
        except (NotPairwiseTransverse, DegenerateSignature, IllConditioned):
            skipped += 1
            continue
        margins.append(m)
        if moved.idx != base.idx or swapped.idx != base.idx:
            violations += 1
    return {
        "model": model.to_json(),
        "trials": n_trials,
        "violations": violations,
        "skipped": skipped,
        "min_margin": float(min(margins)) if margins else None,
        "median_margin": float(np.median(margins)) if margins else None,
    }
