"""Spectral routines at small fixed sizes: eigenvalues, signatures, eigenvalue moduli.

All decompositions run through numpy's LAPACK wrappers on embedded
arrays (see kmat; real for the real families), which is deterministic
for fixed input bits.  Quaternionic spectra are read off the embedding
with multiplicities halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotHermitian
from .scalars import QUATERNION

HERMITIAN_TOL = 1e-8


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
    """Frobenius norms of a stack (..., m, k) of embedded matrices (a column stack: vector norms).

    Each item takes one BLAS dot in C order, sqrt(re.re + im.im), so a
    C-ordered item gets the bits of np.linalg.norm.  Over H (tag QUATERNION)
    the chi norm is divided by sqrt(2); any other tag takes the arrays as they are.
    """
    F = E.reshape(-1, 1, math.prod(E.shape[-2:]))  # each item as one row
    parts = (F.real, F.imag) if np.iscomplexobj(F) else (F,)
    norms = np.sqrt(sum(V @ np.swapaxes(V, 1, 2) for V in parts)).reshape(E.shape[:-2])
    return norms / np.sqrt(2.0) if tag == QUATERNION else norms


def check_hermitian(E, tag):
    """Hermitian parts and norms of a stack (..., d, d) of embedded matrices.

    Raises NonFiniteInput for a NaN or inf entry and, without a floating
    point warning, where a norm overflows, which covers every Hermitian
    part that would; then NotHermitian where the defect |X - X^H| exceeds
    HERMITIAN_TOL * max(1, |X|).
    """
    if not np.isfinite(E).all():
        raise NonFiniteInput("a matrix has a non-finite entry")
    EH = np.conj(np.swapaxes(E, -1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = frobenius_norms(E, tag)
    # a finite norm (squares summed unscaled) bounds every entry by 1.4e154: the Hermitian part is finite
    if not np.isfinite(norms).all():
        raise NonFiniteInput("a matrix norm overflows")
    defect = frobenius_norms(E - EH, tag)
    scale = np.maximum(1.0, norms)
    bad = ~(defect <= HERMITIAN_TOL * scale)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise NotHermitian(f"Hermitian defect {defect.flat[k]:.3e} exceeds "
                           f"{HERMITIAN_TOL:.1e} * {scale.flat[k]:.3e}")
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


def _zero_band(lo, hi):
    """The zero band 1e-9 * max(1, max |lambda|) of spectra whose extreme eigenvalues are lo and hi (stacks)."""
    return 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))


def _sign_counts(vals):
    """(pos, neg) counts of each sorted spectrum of a stack (..., k) above and below its zero band."""
    band = _zero_band(vals[..., 0], vals[..., -1])[..., None]
    return np.sum(vals > band, axis=-1), np.sum(vals < -band, axis=-1)


def signature_counts(E, tag):
    """(pos, neg) eigenvalue counts above and below the zero band, per matrix of an embedded Hermitian stack.

    One eigvalsh decides the whole stack; _sign_counts counts.
    """
    return _sign_counts(hermitian_eigenvalues(E, tag))


def signature(E, tag) -> Signature:
    """Sylvester signature of one embedded Hermitian matrix: signature_counts on a stack of one."""
    pos, neg = signature_counts(E[None], tag)
    dim = E.shape[-1] // (2 if tag == QUATERNION else 1)
    return Signature(int(pos[0]), int(neg[0]), dim - int(pos[0]) - int(neg[0]))


def eig_moduli(E, tag):
    """Moduli of the eigenvalues of an embedded matrix, or of each of a stack (..., d, d), descending.

    Each modulus of a quaternionic matrix appears twice in its embedding
    and the duplicates are dropped.
    """
    vals = np.sort(np.abs(np.linalg.eigvals(E)), axis=-1)[..., ::-1]
    if tag == QUATERNION:
        vals = vals[..., ::2]
    return vals

