"""Spectral routines at small fixed sizes: eigenvalues, signatures, singular values.

All decompositions run through numpy's LAPACK wrappers on embedded
arrays (see kmat; real for the real families), which is deterministic
for fixed input bits.  Quaternionic spectra are read off the embedding
with multiplicities halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotHermitian, Singular
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
    """Frobenius norms of a stack (..., d, d) of embedded matrices, in the units of kmat.norm."""
    norms = np.linalg.norm(E, axis=(-2, -1))
    return norms / np.sqrt(2.0) if tag == QUATERNION else norms


def _flat_norms(X):
    """np.linalg.norm(X[k]) for every k of a stack, bit for bit.

    numpy's flat norm is sqrt(re.re + im.im) over BLAS dots; a stacked
    (1, n) @ (n, 1) matmul runs the same dot per item, where a norm over
    axes would sum in another order.
    """
    F = X.reshape(len(X), math.prod(X.shape[1:]))

    def dots(V):
        return np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0]

    if np.iscomplexobj(F):
        return np.sqrt(dots(F.real) + dots(F.imag))
    return np.sqrt(dots(F))


def check_hermitian(E, tag):
    """Hermitian parts and norms of a stack (..., d, d) of embedded matrices.

    Raises NotHermitian where the defect |X - X^H| exceeds HERMITIAN_TOL * max(1, |X|);
    NaN and inf fail the guard.  Raises NonFiniteInput where a norm overflows,
    which covers every Hermitian part that would.
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
    # a finite norm (squares summed unscaled) bounds every entry by 1.4e154: the Hermitian part is finite
    if not np.isfinite(norms).all():
        raise NonFiniteInput("a matrix norm overflows")
    return 0.5 * (E + EH), norms


def hermitian_eigenvalues(E, tag):
    """Real eigenvalues of an embedded Hermitian matrix, or of each of a stack (..., d, d), descending.

    Each eigenvalue of a quaternionic matrix appears twice in its
    embedding and the duplicates are dropped.  check_hermitian guards the input.
    """
    if E.ndim < 2 or E.shape[-1] != E.shape[-2]:
        raise NotHermitian("matrix is not square")
    M, _ = check_hermitian(E, tag)
    vals = np.linalg.eigvalsh(M)[..., ::-1]
    if tag == QUATERNION:
        vals = vals[..., ::2]
    return vals.copy()


def signature_counts(E, tag):
    """(pos, neg) eigenvalue counts above and below the zero band, per matrix of an embedded Hermitian stack.

    The band is 1e-9 * max(1, max |lambda|); one eigvalsh decides the whole stack.
    """
    vals = hermitian_eigenvalues(E, tag)
    zero_tol = 1e-9 * np.maximum(1.0, np.max(np.abs(vals), axis=-1, initial=0.0))[..., None]
    return np.sum(vals > zero_tol, axis=-1), np.sum(vals < -zero_tol, axis=-1)


def signature(E, tag) -> Signature:
    """Sylvester signature of one embedded Hermitian matrix: signature_counts on a stack of one."""
    pos, neg = signature_counts(E[None], tag)
    dim = E.shape[-1] // (2 if tag == QUATERNION else 1)
    return Signature(int(pos[0]), int(neg[0]), dim - int(pos[0]) - int(neg[0]))


def singular_values(E, tag):
    """Descending singular values of an embedded square matrix; quaternionic duplicates dropped."""
    if E.shape[-1] != E.shape[-2]:
        raise Singular("singular values of non-square input are not needed here")
    s = np.linalg.svd(E, compute_uv=False)
    if tag == QUATERNION:
        s = s[::2]
    if s[-1] <= SINGULAR_FLOOR * s[0]:
        raise Singular(f"minimal singular value {s[-1]:.3e} below floor")
    return s.copy()


def eig_moduli(E, tag):
    """Moduli of the eigenvalues of an embedded matrix, descending; quaternionic duplicates dropped."""
    vals = np.sort(np.abs(np.linalg.eigvals(E)))[::-1]
    if tag == QUATERNION:
        vals = vals[::2]
    return vals


def null_space(A):
    """Orthonormal basis (columns) of ker A; singular values up to eps * max(A.shape) * s_max count as zero."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > np.max(s, initial=0.0) * np.finfo(float).eps * max(A.shape)))
    return vh[rank:].conj().T
