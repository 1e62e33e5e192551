"""Matrices over R, C and H: the embedded arrays the library computes with, and KMat at the API edge.

Every matrix is worked on as one array, its embedding: the real matrix
over R, the complex matrix over C, and over H the complex adjoint
embedding of Q = A + B*j,

    chi(Q) = [[A, B], [-conj(B), conj(A)]],

a multiplicative *-homomorphism, so eigenvalues, singular values and
determinants of quaternionic matrices are computed on chi(Q) and read
back with halved multiplicities.  Sums, real multiples and adjoints keep
the chi layout bit for bit; products over H go through ``product``, which
multiplies the (A, B) parts and lays the result out again.  KMat holds a
matrix by its parts where one crosses the API edge: JSON, chart
coordinates and seeded draws.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelMismatch
from .scalars import COMPLEX, QUATERNION, REAL

_TAG_ORDER = {REAL: 0, COMPLEX: 1, QUATERNION: 2}


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
    """Frobenius norm of one embedded matrix, in the field's units: over H, that of the parts."""
    if tag == QUATERNION:
        a, b = _parts(E)
        return float(np.sqrt(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)))
    return float(np.linalg.norm(E))


def in_layout(E) -> bool:
    """Whether a complex array of even shape is in chi layout: its bottom blocks mirror its top blocks."""
    a, b = _parts(E)
    n, m = a.shape[-2:]
    # NaN mirrors NaN here: a non-finite entry is left to the guards that name it
    return (np.array_equal(E[..., n:, :m], -np.conj(b), equal_nan=True)
            and np.array_equal(E[..., n:, m:], np.conj(a), equal_nan=True))


def draw(tag, shape, rng):
    """Standard normal embedded matrices of field shape (..., n, m); KMat.random is a draw of one."""
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
    """The embedded array of a KMat (promoted to tag), or an array taken as already embedded.

    Arrays are real over R and complex otherwise; over H an array must be
    in chi layout (ModelMismatch otherwise).
    """
    if isinstance(X, KMat):
        return X.astag(tag).embed()
    if tag == REAL:
        if np.iscomplexobj(X):
            raise ModelMismatch("a real family takes real matrices")
        return np.asarray(X, dtype=float)
    E = np.asarray(X, dtype=complex)
    if tag == QUATERNION and not (E.ndim >= 2 and E.shape[-2] % 2 == 0 == E.shape[-1] % 2 and in_layout(E)):
        raise ModelMismatch("a quaternionic array must be in chi layout")
    return E


def _field_array(a, tag):
    """a as a 2-D float (R) or complex (C, H) array; a 2-D array of that dtype is kept as it is."""
    dtype = np.float64 if tag == REAL else np.complex128
    if isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == dtype:
        return a
    return np.atleast_2d(np.asarray(a, dtype=dtype))


class KMat:
    """Matrix over one of the three ground fields, held by its parts: the value type at the API edge."""

    __slots__ = ("tag", "a", "b")

    def __init__(self, tag, a, b=None):
        if tag not in _TAG_ORDER:
            raise ValueError(f"unknown scalar tag {tag!r}")
        self.tag = tag
        self.a = _field_array(a, tag)
        self.b = None
        if tag == QUATERNION:
            self.b = np.zeros_like(self.a) if b is None else _field_array(b, tag)
            if self.a.shape != self.b.shape:
                raise ValueError("quaternion parts must share a shape")

    @classmethod
    def eye(cls, tag, n):
        return cls(tag, np.eye(n))

    @classmethod
    def random(cls, tag, n, m, rng):
        return cls.unembed(tag, draw(tag, (n, m), rng))

    # -------------------------------------------------------------- arithmetic

    def _promoted(self, other):
        """Promote self and other to a common tag (R < C < H)."""
        if self.tag == other.tag:
            return self, other
        tag = self.tag if _TAG_ORDER[self.tag] >= _TAG_ORDER[other.tag] else other.tag
        return self.astag(tag), other.astag(tag)

    def astag(self, tag):
        if tag == self.tag:
            return self
        if _TAG_ORDER[tag] < _TAG_ORDER[self.tag]:
            raise ValueError(f"cannot convert {self.tag} matrix to {tag}")
        return KMat(tag, self.a.astype(complex))  # a quaternionic matrix gets a zero j-part

    def __add__(self, other):
        x, y = self._promoted(other)
        if x.tag == QUATERNION:
            return KMat(QUATERNION, x.a + y.a, x.b + y.b)
        return KMat(x.tag, x.a + y.a)

    def __sub__(self, other):
        x, y = self._promoted(other)
        if x.tag == QUATERNION:
            return KMat(QUATERNION, x.a - y.a, x.b - y.b)
        return KMat(x.tag, x.a - y.a)

    def __mul__(self, scalar):
        scalar = float(scalar)
        if self.tag == QUATERNION:
            return KMat(QUATERNION, scalar * self.a, scalar * self.b)
        return KMat(self.tag, scalar * self.a)

    __rmul__ = __mul__

    # --------------------------------------------------------------- embedding

    def embed(self):
        """The embedded array: the matrix itself over R and C, the 2n x 2m adjoint matrix over H."""
        if self.b is None:
            return self.a
        return _chi(self.a, self.b)

    @classmethod
    def unembed(cls, tag, mat):
        """Inverse of embed for matrices lying in the embedded image."""
        if tag == REAL:
            return cls(REAL, mat.real)
        if tag == COMPLEX:
            return cls(COMPLEX, mat)
        return cls(QUATERNION, *_parts(mat))

    def opnorm(self):
        return float(np.linalg.norm(self.embed(), 2))

    # ----------------------------------------------------------- serialization

    def to_json(self):
        """JSON object {tag, rows, cols, entries}, entries flat row-major component tuples."""
        parts = [self.a] if self.tag == REAL else [self.a.real, self.a.imag]
        if self.tag == QUATERNION:
            parts += [self.b.real, self.b.imag]
        rows, cols = self.a.shape
        entries = np.stack(parts, axis=-1).reshape(rows * cols, len(parts)).tolist()
        return {"tag": self.tag, "rows": rows, "cols": cols, "entries": entries}

    @classmethod
    def from_json(cls, obj):
        tag, n, m = obj["tag"], obj["rows"], obj["cols"]
        ent = obj["entries"]
        if len(ent) != n * m:
            raise ValueError("entry count does not match rows*cols")
        if tag == REAL:
            return cls(REAL, np.array([e[0] for e in ent]).reshape(n, m))
        if tag == COMPLEX:
            return cls(COMPLEX, np.array([complex(e[0], e[1]) for e in ent]).reshape(n, m))
        a = np.array([complex(e[0], e[1]) for e in ent]).reshape(n, m)
        b = np.array([complex(e[2], e[3]) for e in ent]).reshape(n, m)
        return cls(QUATERNION, a, b)

    def __repr__(self):
        return f"KMat({self.tag}, {self.a.shape[0]}x{self.a.shape[1]})"
