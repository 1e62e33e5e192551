"""Maslov index of pairwise transverse triples.

One kernel, ``maslov_indices``, computes the index for stacks of triples
of orthonormal representatives (``ShilovPoint.ortho``).  On the
Lagrangian families it is Kashiwara's index: the signature of the
quadratic form q(x1, x2, x3) = w(x1, x2) + w(x2, x3) + w(x3, x1) on
L1 + L2 + L3 (Kashiwara-Schapira, Sheaves on Manifolds, App. A.3), the
Hermitian part H of the 3x3 block matrix with Mab = Qa^H J Qb,
Mbc = Qb^H J Qc and Mca = Qc^H J Qa = -Mac^H in the slots (1,2), (2,3) and
(3,1); the three pairings are shilov._pairings, and the pairwise margins
are read off them.  No chart or standardization is involved.  The hyperbolic (a, b) block of H
has counts (d, d), so H has those plus the counts of the d x d Schur
complement S = -(P + P^H) / 2, P = Mca Mab^-H Mbc (Haynsworth inertia
additivity): one solve and one d x d ``eigvalsh`` per triple, and one
``eigvalsh`` of H on the rows whose bound does not certify S's counts.  At
d = 2 (sp4, su22) the solve, the margins' dets and S's spectrum are closed
forms (``_schur_spectra``, ``shilov._margins``); the orthos, and so the
whole kernel, are real on SP and complex on SU and SO*, where they are
chi frames from one interleaved QR (``shilov._orthonormalize``).
Clerc and Orsted ("The Maslov index revisited", Transform. Groups 2001)
show that this index covers the Shilov boundary of every tube-type domain;
on SO(n, 2) it is 0 when the three pairings of the unit lifts multiply to
a negative number and 2 otherwise.  Only |r - 2i| is a well-defined
invariant; the scalar ``maslov_index`` reports i as min(i, r - i) alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignature, ModelMismatch, NotPairwiseTransverse
from .groups import GroupModel, exp_stack, lie_projection
from .kmat import adjoint, draw, hermitian_draw, product
from .linalg import _sign_counts, frobenius_norms
from .scalars import QUATERNION
from .shilov import (TRANSVERSALITY_TOL, ShilovPoint, _det2, _graph_frames, _margins, _orthonormalize, _pairings,
                     _socharts_lift)

_SKIP_REASONS = ("not_transverse", "degenerate_form", "base_margin")
_CHUNK = 512  # trials per stacked batch of the invariance report; fixes the draw order
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # adj(M)^H = conj(M[::-1, ::-1]) * _ADJ_SIGNS for 2 x 2 M


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
    where a margin is not above TRANSVERSALITY_TOL (NaN included) or where an
    eigenvalue of Kashiwara's form falls in its zero band (linalg._sign_counts).

    The frames are orthonormal and J is orthogonal, so |H| <= 1 and the zero
    band is 1e-9; sigma_min(Mab) >= m_ab, the (a, b) margin, so
    min |lambda(H)| >= 1 / ((1 + sqrt(2) / m_ab)^2 max(2 / m_ab, 1 / min |lambda(S)|)).
    A row whose bound is above 2e-9 takes the counts of S; every other row
    (a margin in the band, or no certificate) those of H itself, so each
    verdict is that of the whole form.
    """
    # the three pairings and their margins; Mca = -Mac^H, as J^H = -J
    Mab, Mbc, Mac = _pairings(model, A, B), _pairings(model, B, C), _pairings(model, A, C)
    m_ab = _margins(model, Mab)
    margin = np.minimum(np.minimum(m_ab, _margins(model, Mbc)), _margins(model, Mac))
    valid = margin > TRANSVERSALITY_TOL
    if not model.is_lagrangian:
        return np.where(Mab * Mbc * Mac < 0, 0, 2), margin, valid
    Mca = -adjoint(Mac)
    d = A.shape[-1]
    pos, neg = (np.zeros(np.shape(valid), dtype=int) for _ in range(2))
    # transverse rows: (d, d) plus the counts of the Schur complement S, where its bound certifies them
    on_s = np.array(valid)
    m = m_ab[on_s]
    lam = _schur_spectra(Mab[on_s], Mbc[on_s], Mca[on_s])
    w = 2e-9 * (1 + np.sqrt(2) / m) ** 2  # the bound is above 2e-9 iff 2 w < m and w < min |lambda(S)|
    certified = (2 * w < m) & (w < np.min(np.abs(lam), axis=-1))
    on_s[on_s] = certified
    n_s = np.sum(lam[certified] < 0, axis=-1)
    pos[on_s], neg[on_s] = 2 * d - n_s, d + n_s
    # every other row: the sign counts of the whole 3d x 3d form
    full = ~on_s
    if full.any():
        T = np.zeros((np.count_nonzero(full), 3 * d, 3 * d), dtype=Mab.dtype)
        T[:, :d, d : 2 * d], T[:, d : 2 * d, 2 * d :], T[:, 2 * d :, :d] = (X[full] for X in (Mab, Mbc, Mca))
        pos[full], neg[full] = _sign_counts(np.linalg.eigvalsh(0.5 * (T + adjoint(T))))
    valid &= pos + neg == 3 * d
    return np.abs(pos - neg) // (2 if model.tag == QUATERNION else 1), margin, valid


def _schur_spectra(Mab, Mbc, Mca):
    """The eigenvalues of each Schur complement S = -(P + P^H) / 2, P = Mca Mab^-H Mbc, of a stack of pairings.

    Pairings of any other size take one solve and one eigvalsh per row.  At
    d = 2, Mab^-H = adj(Mab)^H / conj(det Mab), and the Hermitian S has the
    eigenvalues mean +- hypot((S00 - S11) / 2, |S01|): the one of larger
    modulus is taken so, the other as det S over it, which keeps its
    relative accuracy where the two nearly cancel.  The pair is unordered.
    """
    if Mab.shape[-1] != 2:
        P = Mca @ np.linalg.solve(adjoint(Mab), Mbc)
        return np.linalg.eigvalsh(-0.5 * (P + adjoint(P)))
    adj_h = np.conj(Mab[..., ::-1, ::-1]) * _ADJ_SIGNS
    P = Mca @ adj_h @ Mbc / np.conj(_det2(Mab))[..., None, None]
    s00, s11, s01 = -P[..., 0, 0].real, -P[..., 1, 1].real, -0.5 * (P[..., 0, 1] + np.conj(P[..., 1, 0]))
    mean = 0.5 * (s00 + s11)
    big = mean + np.copysign(np.hypot(0.5 * (s00 - s11), np.abs(s01)), mean)
    det = s00 * s11 - (np.square(s01.real) + np.square(s01.imag))
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0)  # big = 0 only where S = 0
    return np.stack([small, big], axis=-1)


def maslov_index(a: ShilovPoint, b: ShilovPoint, c: ShilovPoint) -> TripleType:
    """Type and Maslov index of a pairwise transverse triple (a batch of one)."""
    model = a.model
    if b.model != model or c.model != model:
        raise ModelMismatch("points belong to different models")
    idx, margin, valid = maslov_indices(model, a.ortho[None], b.ortho[None], c.ortho[None])
    if not margin[0] > TRANSVERSALITY_TOL:
        raise NotPairwiseTransverse(f"smallest margin {margin[0]:.3e} not above {TRANSVERSALITY_TOL:.1e}")
    if not valid[0]:
        raise DegenerateSignature("Kashiwara's form of the triple has a kernel")
    r = model.r
    idx = int(idx[0])
    return TripleType((r - idx) // 2, idx, r)


def _skip_reasons(margins, valid, base_ok=None):
    """Index into _SKIP_REASONS of each trial's first reason to be skipped, or -1 for a kept trial.

    margins and valid (their conjunction) come from a trial's maslov_indices
    calls; base_ok, if given, is the further condition of base_margin.
    """
    transverse = np.logical_and.reduce([m > TRANSVERSALITY_TOL for m in margins])
    fails = [~transverse, ~valid] + ([] if base_ok is None else [~base_ok])
    return np.select(fails, range(len(fails)), -1)


def _trial_report(reason, bad, margin, n_reasons):
    """Violations among the kept trials, skips by the first n_reasons of _SKIP_REASONS, and the kept margins.

    reason is each trial's _skip_reasons code, bad its violation flag and
    margin the margin it reports.
    """
    kept = reason < 0
    margins = margin[kept]
    skipped = np.bincount(reason[~kept], minlength=n_reasons)
    return {
        "violations": int(np.sum(bad & kept)),
        "skipped": int(np.sum(skipped)),
        "skipped_by_reason": dict(zip(_SKIP_REASONS[:n_reasons], skipped.tolist())),
        "min_margin": float(np.min(margins)) if len(margins) else None,
        "median_margin": float(np.median(margins)) if len(margins) else None,
    }


def _chart_frames(model: GroupModel, n, rng):
    """Frames of n random chart points; on SO(n, 2), their lifts as (n+2) x 1 columns."""
    if model.is_lagrangian:
        return _graph_frames(model, hermitian_draw(model.tag, (n, model.rank, model.rank), rng))
    return _socharts_lift(model, rng.standard_normal((n, model.rank)))[..., None]


def _orthonormal(model: GroupModel, F):
    """The ``ShilovPoint.ortho`` stack of a stack of frames (or lift columns): chi frames on SO*."""
    if model.is_lagrangian:
        return _orthonormalize(model.tag, F)[0]
    return F[..., 0] / frobenius_norms(F, model.tag)[..., None]


def maslov_invariance_report(model: GroupModel, n_trials: int, seed) -> dict:
    """G-invariance and swap symmetry of the index on random triples.

    Each chunk of trials draws three stacks of chart points and a stack of
    group elements exp(Z), Z the Lie algebra projection of a standard
    normal draw scaled to norm 0.5, then runs the kernel on the base, moved
    and swapped triples.  Trials whose margins or eigenvalues fall inside the
    guard bands, or whose base margin is not above 1e-6, are counted as
    skipped, never as passes; skipped_by_reason counts each under the
    first of its reasons (see _skip_reasons).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    rng = np.random.default_rng(seed)
    trials = []
    for start in range(0, n_trials, _CHUNK):
        n = min(_CHUNK, n_trials - start)
        F = [_chart_frames(model, n, rng) for _ in range(3)]
        Z = lie_projection(model, draw(model.tag, (n, model.dim, model.dim), rng))
        g = exp_stack(model, Z * (0.5 / np.maximum(frobenius_norms(Z, model.tag), 1e-300))[:, None, None])
        A, B, C = (_orthonormal(model, Fk) for Fk in F)
        base_idx, base_margin, base_ok = maslov_indices(model, A, B, C)
        moved = (_orthonormal(model, product(g, Fk, model.tag)) for Fk in F)
        moved_idx, moved_margin, moved_ok = maslov_indices(model, *moved)
        swap_idx, swap_margin, swap_ok = maslov_indices(model, A, C, B)
        reason = _skip_reasons([base_margin, moved_margin, swap_margin], base_ok & moved_ok & swap_ok,
                               base_margin > 1e-6)
        trials.append((reason, (moved_idx != base_idx) | (swap_idx != base_idx), base_margin))
    reason, bad, margin = (np.concatenate(part) for part in zip(*trials))
    return {"model": model.to_json(), "trials": n_trials, **_trial_report(reason, bad, margin, len(_SKIP_REASONS))}
