"""Spectral routines at small fixed sizes: eigenvalues, signatures, singular values.

All decompositions run through numpy's LAPACK wrappers on the complex
embedding, which is deterministic for fixed input bits.  Quaternionic
spectra are read off the embedding with multiplicities halved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, Singular
from .kmat import KMat
from .scalars import QUATERNION

HERMITIAN_TOL = 1e-8
SINGULAR_FLOOR = 1e-12  # smallest singular value allowed, relative to the largest


@dataclass(frozen=True)
class Signature:
    """Sylvester signature (pos, neg, zero) of a Hermitian matrix."""

    pos: int
    neg: int
    zero: int

    @property
    def dim(self):
        return self.pos + self.neg + self.zero

    def as_tuple(self):
        return (self.pos, self.neg, self.zero)


def frobenius_norms(E, tag):
    """Frobenius norms of a stack (..., d, d) of embedded matrices, in the units of KMat.norm."""
    norms = np.linalg.norm(E, axis=(-2, -1))
    return norms / np.sqrt(2.0) if tag == QUATERNION else norms


def _flat_norms(X):
    """np.linalg.norm(X[k]) for every k of a stack, bit for bit.

    numpy's flat norm is sqrt(re.re + im.im) over BLAS dots; a stacked
    (1, n) @ (n, 1) matmul runs the same dot per item, where a norm over
    axes would sum in another order.
    """
    F = X.reshape(len(X), int(np.prod(X.shape[1:])))

    def dots(V):
        return np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0]

    if np.iscomplexobj(F):
        return np.sqrt(dots(F.real) + dots(F.imag))
    return np.sqrt(dots(F))


def check_hermitian(E, tag):
    """Hermitian parts and norms of a stack (..., d, d) of embedded matrices.

    Raises NotHermitian where the defect |X - X^H| exceeds HERMITIAN_TOL * max(1, |X|);
    NaN and inf fail the guard.
    """
    EH = np.conj(np.swapaxes(E, -1, -2))
    norms = frobenius_norms(E, tag)
    defect = frobenius_norms(E - EH, tag)
    scale = np.maximum(1.0, norms)
    bad = ~(defect <= HERMITIAN_TOL * scale)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise NotHermitian(f"Hermitian defect {defect.flat[k]:.3e} exceeds "
                           f"{HERMITIAN_TOL:.1e} * {scale.flat[k]:.3e}")
    return 0.5 * (E + EH), norms


def hermitian_eigenvalues(X: KMat):
    """Real eigenvalues of a Hermitian matrix, descending.

    Quaternionic input is routed through the complex adjoint embedding;
    each eigenvalue there appears twice and the duplicates are dropped.
    """
    if X.rows != X.cols:
        raise NotHermitian("matrix is not square")
    M, _ = check_hermitian(X.embed(), X.tag)
    vals = np.linalg.eigvalsh(M)[::-1]
    if X.tag == QUATERNION:
        vals = vals[::2]
    return vals.copy()


def signature(X: KMat) -> Signature:
    """Counts of eigenvalues above, below, and inside the zero band 1e-9 * max(1, max |lambda|)."""
    vals = hermitian_eigenvalues(X)
    zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    pos = int(np.sum(vals > zero_tol))
    neg = int(np.sum(vals < -zero_tol))
    return Signature(pos, neg, len(vals) - pos - neg)


def singular_values(g: KMat):
    """Descending singular values; quaternionic duplicates dropped."""
    if g.rows != g.cols:
        raise Singular("singular values of non-square input are not needed here")
    s = np.linalg.svd(g.embed(), compute_uv=False)
    if g.tag == QUATERNION:
        s = s[::2]
    if s[-1] <= SINGULAR_FLOOR * s[0]:
        raise Singular(f"minimal singular value {s[-1]:.3e} below floor")
    return s.copy()


def eig_moduli(g: KMat):
    """Moduli of eigenvalues, descending; quaternionic duplicates dropped."""
    vals = np.abs(np.linalg.eigvals(g.embed()))
    vals = np.sort(vals)[::-1]
    if g.tag == QUATERNION:
        vals = vals[::2]
    return vals


def null_space(A):
    """Orthonormal basis (columns) of ker A; singular values up to eps * max(A.shape) * s_max count as zero."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > np.max(s, initial=0.0) * np.finfo(float).eps * max(A.shape)))
    return vh[rank:].conj().T
