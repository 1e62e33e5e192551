"""Matrices over R, C and H: the embedded arrays the library computes with, and their JSON codecs.

Every matrix is worked on as one array, its embedding: the real matrix
over R, the complex matrix over C, and over H the complex adjoint
embedding of Q = A + B*j,

    chi(Q) = [[A, B], [-conj(B), conj(A)]],

a multiplicative *-homomorphism, so eigenvalues, singular values and
determinants of quaternionic matrices are computed on chi(Q) and read
back with halved multiplicities.  Sums, real multiples and adjoints keep
the chi layout bit for bit; products over H go through ``product``, which
multiplies the (A, B) parts and lays the result out again.  ``norm`` is
linalg.frobenius_norms of one (over H the chi norm over sqrt(2)).  A
matrix crosses JSON by its field entries (to_json, from_json).
"""

from __future__ import annotations

import numpy as np

from .errors import ModelMismatch
from .linalg import frobenius_norms
from .scalars import COMPLEX, QUATERNION, REAL

_WIDTH = {REAL: 1, COMPLEX: 2, QUATERNION: 4}  # real components per field entry


def _chi(a, b):
    """The adjoint embedding [[a, b], [-conj(b), conj(a)]] of a stack of quaternionic parts (..., n, m)."""
    n, m = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * m), dtype=complex)
    out[..., :n, :m] = a
    out[..., :n, m:] = b
    out[..., n:, :m] = -np.conj(b)
    out[..., n:, m:] = np.conj(a)
    return out


def _parts(E):
    """The quaternionic parts (a, b) of a stack of chi arrays: views of the top blocks."""
    n, m = E.shape[-2] // 2, E.shape[-1] // 2
    return E[..., :n, :m], E[..., :n, m:]


def adjoint(E):
    """Conjugate transpose of a stack of embedded matrices (chi of the quaternionic adjoint over H).

    A real stack gives its transposed view.
    """
    T = np.swapaxes(E, -1, -2)
    return np.conj(T) if np.iscomplexobj(T) else T


def product(X, Y, tag):
    """The product of embedded matrices (stacks broadcast).

    Over R and C a plain matmul; over H the quaternionic product
    (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
    of the parts, laid out again by _chi.
    """
    if tag != QUATERNION:
        return X @ Y
    a1, b1 = _parts(X)
    a2, b2 = _parts(Y)
    return _chi(a1 @ a2 - b1 @ np.conj(b2), a1 @ b2 + b1 @ np.conj(a2))


def embed_real(M, tag):
    """The embedded array of a real matrix M taken over the field of tag."""
    if tag == REAL:
        return M
    if tag == COMPLEX:
        return M.astype(complex)
    return _chi(M.astype(complex), np.zeros(M.shape, dtype=complex))


def concat(mats, axis, tag):
    """np.concatenate of embedded matrices along a field axis (-2 rows, -1 columns), in chi layout over H."""
    if tag != QUATERNION:
        return np.concatenate(mats, axis=axis)
    return _chi(*(np.concatenate(p, axis=axis) for p in zip(*map(_parts, mats))))


def norm(E, tag) -> float:
    """Frobenius norm of one embedded matrix or vector in the field's units: frobenius_norms on a stack of one."""
    return float(frobenius_norms(np.reshape(E, (1, -1, 1)), tag)[0])


def in_layout(E) -> bool:
    """Whether a complex array of even shape is in chi layout: its bottom blocks mirror its top blocks."""
    a, b = _parts(E)
    n, m = a.shape[-2:]
    # NaN mirrors NaN here: a non-finite entry is left to the guards that name it
    return (np.array_equal(E[..., n:, :m], -np.conj(b), equal_nan=True)
            and np.array_equal(E[..., n:, m:], np.conj(a), equal_nan=True))


def draw(tag, shape, rng):
    """Standard normal embedded matrices of field shape (..., n, m)."""
    if tag == REAL:
        return rng.standard_normal(shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if tag == COMPLEX:
        return a
    return _chi(a, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def hermitian_draw(tag, shape, rng):
    """The Hermitian parts (X + X^H) / 2 of a draw X of square field shape (..., r, r), in chi layout over H."""
    E = draw(tag, shape, rng)
    return 0.5 * (E + adjoint(E))


def as_embedded(tag, X):
    """X taken as an embedded array (anything np.asarray reads, a stack too).

    Arrays are real over R and complex otherwise; over H an array must be
    in chi layout (ModelMismatch otherwise).
    """
    X = np.asarray(X)
    if tag == REAL:
        if np.iscomplexobj(X):
            raise ModelMismatch("a real family takes real matrices")
        return X.astype(float, copy=False)
    E = X.astype(complex, copy=False)
    if tag == QUATERNION and not (E.ndim >= 2 and E.shape[-2] % 2 == 0 == E.shape[-1] % 2 and in_layout(E)):
        raise ModelMismatch("a quaternionic array must be in chi layout")
    return E


def to_json(E, tag) -> dict:
    """JSON object {tag, rows, cols, entries} of an embedded matrix.

    rows and cols count field entries, and entries lists each entry's
    real components row-major: (x,) over R, (re, im) over C and
    (re a, im a, re b, im b) for a + b j over H.
    """
    a, b = _parts(E) if tag == QUATERNION else (E, None)
    parts = [a] if tag == REAL else [a.real, a.imag] + ([] if b is None else [b.real, b.imag])
    rows, cols = a.shape
    entries = np.stack(parts, axis=-1).reshape(rows * cols, len(parts)).tolist()
    return {"tag": tag, "rows": rows, "cols": cols, "entries": entries}


def from_json(obj, tag):
    """The embedded array, over the field of tag, of a to_json object.

    A matrix over a smaller field is promoted R -> C -> H, as embed_real
    does.  Raises ValueError for an unknown tag, a larger field than tag's,
    rows or cols that are not non-negative integers, or an entry count other than rows * cols.
    """
    src, rows, cols, entries = obj["tag"], obj["rows"], obj["cols"], obj["entries"]
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValueError(f"rows and cols must be non-negative integers, got {rows!r} and {cols!r}")
    if not (isinstance(src, str) and src in _WIDTH):
        raise ValueError(f"unknown scalar tag {src!r}")
    if _WIDTH[src] > _WIDTH[tag]:
        raise ValueError(f"cannot convert {src} matrix to {tag}")
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    w = _WIDTH[src]
    c = np.array([e[:w] for e in entries], dtype=float).reshape(rows, cols * w)
    if src == REAL:
        return embed_real(c, tag)
    z = c.view(complex).reshape(rows, cols, w // 2)  # the components pairwise, as complex entries
    a, b = z[..., 0], (z[..., 1] if src == QUATERNION else np.zeros_like(z[..., 0]))
    return a if tag == COMPLEX else _chi(a, b)


class KMat:
    """A chart coordinate of causal's samplers: its embedded array E, with the operator norm."""

    __slots__ = ("E",)

    def __init__(self, E):
        self.E = E

    def __array__(self, dtype=None, copy=None):
        return np.array(self.E, dtype=dtype, copy=copy)

    def __rmul__(self, scalar):
        return float(scalar) * self.E

    def opnorm(self) -> float:
        return float(np.linalg.norm(self.E, 2))
