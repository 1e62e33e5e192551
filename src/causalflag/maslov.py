"""Maslov index of pairwise transverse triples.

One kernel, ``maslov_indices``, computes the index for stacks of triples
of orthonormal representatives (``ShilovPoint.ortho``).  On the
Lagrangian families it is Kashiwara's index: the signature of the
quadratic form q(x1, x2, x3) = w(x1, x2) + w(x2, x3) + w(x3, x1) on
L1 + L2 + L3 (Kashiwara-Schapira, Sheaves on Manifolds, App. A.3), read
off one ``eigvalsh`` of the Hermitian part of the 3x3 block matrix with
Qa^H J Qb, Qb^H J Qc and Qc^H J Qa in the slots (1,2), (2,3) and (3,1).
No chart, standardization or solve is involved.  Clerc and Orsted ("The
Maslov index revisited", Transform. Groups 2001) show that this index
covers the Shilov boundary of every tube-type domain; on SO(n, 2) it is
0 when the three pairings of the unit lifts multiply to a negative
number and 2 otherwise.  Only |r - 2i| is a well-defined invariant; the
scalar ``maslov_index`` reports i as min(i, r - i) alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignature, ModelMismatch, NotPairwiseTransverse
from .groups import GroupModel
from .kmat import _chi, adjoint
from .scalars import QUATERNION
from .shilov import ShilovPoint, _graph_frames, _socharts_lift, transversality_margins

MARGIN_TOL = 1e-9
_CHUNK = 512  # trials per stacked batch of the invariance report; fixes the draw order


@dataclass(frozen=True)
class TripleType:
    i: int  # classifying positive index, reported as min(i, r - i)
    idx: int  # the invariant |r - 2i|
    rank: int

    def __post_init__(self):
        assert 0 <= self.i <= self.rank
        assert (self.idx - self.rank) % 2 == 0


def maslov_indices(model: GroupModel, A, B, C):
    """Index of each triple (A[k], B[k], C[k]) of orthonormal representatives.

    Returns (idx, margin, valid): the invariant |r - 2i|, the smallest of
    the three pairwise transversality margins, and a mask that is False
    where a margin is not above MARGIN_TOL (NaN included) or where an
    eigenvalue of Kashiwara's form falls in the band
    1e-9 * max(1, max |lambda|).
    """
    margin = np.minimum(
        np.minimum(transversality_margins(model, A, B), transversality_margins(model, B, C)),
        transversality_margins(model, A, C),
    )
    valid = margin > MARGIN_TOL
    J = model.form()
    if not model.is_lagrangian:
        pairing = lambda X, Y: np.sum((X @ J) * Y, axis=-1)
        negative = pairing(A, B) * pairing(B, C) * pairing(C, A) < 0
        return np.where(negative, 0, 2), margin, valid
    d = A.shape[-1]
    T = np.zeros(A.shape[:-2] + (3 * d, 3 * d), dtype=np.result_type(A, B, C, J))
    T[..., :d, d : 2 * d] = adjoint(A) @ J @ B
    T[..., d : 2 * d, 2 * d :] = adjoint(B) @ J @ C
    T[..., 2 * d :, :d] = adjoint(C) @ J @ A
    ev = np.linalg.eigvalsh(0.5 * (T + adjoint(T)))
    band = 1e-9 * np.maximum(1.0, np.max(np.abs(ev), axis=-1))[..., None]
    valid &= ~np.any(np.abs(ev) <= band, axis=-1)
    mult = 2 if model.tag == QUATERNION else 1
    idx = np.abs(np.sum(ev > band, axis=-1) - np.sum(ev < -band, axis=-1)) // mult
    return idx, margin, valid


def maslov_index(a: ShilovPoint, b: ShilovPoint, c: ShilovPoint) -> TripleType:
    """Type and Maslov index of a pairwise transverse triple (a batch of one)."""
    model = a.model
    if b.model != model or c.model != model:
        raise ModelMismatch("points belong to different models")
    idx, margin, valid = maslov_indices(model, a.ortho[None], b.ortho[None], c.ortho[None])
    if not margin[0] > MARGIN_TOL:
        raise NotPairwiseTransverse(f"smallest margin {margin[0]:.3e} not above {MARGIN_TOL:.1e}")
    if not valid[0]:
        raise DegenerateSignature("Kashiwara's form of the triple has a kernel")
    r = model.r
    idx = int(idx[0])
    return TripleType((r - idx) // 2, idx, r)


def _batch_hermitian(model: GroupModel, n, rng):
    """Stack of embedded random Hermitian chart coordinates."""
    r = model.rank
    if model.tag == "R":
        G = rng.standard_normal((n, r, r))
        return 0.5 * (G + np.swapaxes(G, 1, 2))
    if model.tag == "C":
        G = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
        return 0.5 * (G + adjoint(G))
    A = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    B = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    return _chi(0.5 * (A + adjoint(A)), 0.5 * (B - np.swapaxes(B, 1, 2)))


def _chart_frames(model: GroupModel, n, rng):
    """Frames of n random chart points; on SO(n, 2), their lifts as (n+2) x 1 columns."""
    if model.is_lagrangian:
        return _graph_frames(model, _batch_hermitian(model, n, rng))
    return _socharts_lift(model, rng.standard_normal((n, model.rank)))[..., None]


def _orthonormal(model: GroupModel, F):
    """The ``ShilovPoint.ortho`` stack of a stack of frames (or lift columns)."""
    if model.is_lagrangian:
        return np.linalg.qr(F)[0]
    v = F[..., 0]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


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
        Z = _chi(A, B)
    Z = 0.5 * (Z - adjoint(J) @ adjoint(Z) @ J)  # Lie algebra projection, J^{-1} = J^H for J and b
    mult = np.sqrt(2.0) if model.tag == "H" else 1.0
    norms = np.linalg.norm(Z, axis=(1, 2)) / mult
    Z = Z * (0.5 / np.maximum(norms, 1e-300))[:, None, None]
    return scipy.linalg.expm(Z)


def maslov_invariance_report(model: GroupModel, n_trials: int, seed) -> dict:
    """G-invariance and swap symmetry of the index on random triples.

    Each chunk of trials draws three stacks of chart points and a stack of
    group elements exp(Z), then runs the kernel on the base, moved and
    swapped triples.  Trials whose margins or eigenvalues fall inside the
    guard bands, or whose base margin is not above 1e-6, are counted as
    skipped, never as passes.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    J = model.form()
    rng = np.random.default_rng(seed)
    violations = 0
    skipped = 0
    margins_all = []
    for start in range(0, n_trials, _CHUNK):
        n = min(_CHUNK, n_trials - start)
        F = [_chart_frames(model, n, rng) for _ in range(3)]
        g = _batch_group(model, n, rng, J)
        A, B, C = (_orthonormal(model, Fk) for Fk in F)
        base_idx, base_margin, base_ok = maslov_indices(model, A, B, C)
        moved_idx, _, moved_ok = maslov_indices(model, *(_orthonormal(model, g @ Fk) for Fk in F))
        swap_idx, _, swap_ok = maslov_indices(model, A, C, B)
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
