"""Dense matrices over R, C, and H with a uniform interface.

Real and complex matrices wrap a numpy array directly.  A quaternionic
matrix Q = A + B*j is stored as the complex pair (A, B); its complex
adjoint embedding is

    chi(Q) = [[A, B], [-conj(B), conj(A)]],

a multiplicative *-homomorphism, so eigenvalues, singular values and
determinants of quaternionic matrices are computed on chi(Q) and read
back with halved multiplicities.
"""

from __future__ import annotations

import numpy as np

from .scalars import COMPLEX, QUATERNION, REAL

_TAG_ORDER = {REAL: 0, COMPLEX: 1, QUATERNION: 2}


class KMat:
    """Matrix over one of the three ground fields."""

    __slots__ = ("tag", "a", "b")

    def __init__(self, tag, a, b=None):
        self.tag = tag
        if tag == REAL:
            if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64):
                a = np.atleast_2d(np.asarray(a, dtype=float))
            self.a = a
            self.b = None
        elif tag == COMPLEX:
            if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.complex128):
                a = np.atleast_2d(np.asarray(a, dtype=complex))
            self.a = a
            self.b = None
        elif tag == QUATERNION:
            if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.complex128):
                a = np.atleast_2d(np.asarray(a, dtype=complex))
            self.a = a
            if b is None:
                b = np.zeros_like(a)
            elif not (isinstance(b, np.ndarray) and b.ndim == 2 and b.dtype == np.complex128):
                b = np.atleast_2d(np.asarray(b, dtype=complex))
            self.b = b
            if self.a.shape != self.b.shape:
                raise ValueError("quaternion parts must share a shape")
        else:
            raise ValueError(f"unknown scalar tag {tag!r}")

    # ------------------------------------------------------------------ basics

    @property
    def shape(self):
        return self.a.shape

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @classmethod
    def eye(cls, tag, n):
        if tag == QUATERNION:
            return cls(tag, np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))
        return cls(tag, np.eye(n))

    @classmethod
    def zeros(cls, tag, n, m=None):
        m = n if m is None else m
        if tag == QUATERNION:
            z = np.zeros((n, m), dtype=complex)
            return cls(tag, z, z.copy())
        return cls(tag, np.zeros((n, m)))

    @classmethod
    def random(cls, tag, n, m, rng):
        if tag == REAL:
            return cls(tag, rng.standard_normal((n, m)))
        if tag == COMPLEX:
            return cls(tag, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        return cls(tag, a, b)

    def copy(self):
        return KMat(self.tag, self.a.copy(), None if self.b is None else self.b.copy())

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
        if self.tag == REAL and tag == COMPLEX:
            return KMat(COMPLEX, self.a.astype(complex))
        if self.tag in (REAL, COMPLEX) and tag == QUATERNION:
            return KMat(QUATERNION, self.a.astype(complex), np.zeros_like(self.a, dtype=complex))
        raise ValueError(f"cannot convert {self.tag} matrix to {tag}")

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

    def __neg__(self):
        if self.tag == QUATERNION:
            return KMat(QUATERNION, -self.a, -self.b)
        return KMat(self.tag, -self.a)

    def __mul__(self, scalar):
        scalar = float(scalar)
        if self.tag == QUATERNION:
            return KMat(QUATERNION, scalar * self.a, scalar * self.b)
        return KMat(self.tag, scalar * self.a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        x, y = self._promoted(other)
        if x.tag == QUATERNION:
            # (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
            a = x.a @ y.a - x.b @ np.conj(y.b)
            b = x.a @ y.b + x.b @ np.conj(y.a)
            return KMat(QUATERNION, a, b)
        return KMat(x.tag, x.a @ y.a)

    @property
    def H(self):
        """Conjugate transpose."""
        if self.tag == REAL:
            return KMat(REAL, self.a.T)
        if self.tag == COMPLEX:
            return KMat(COMPLEX, np.conj(self.a).T)
        return KMat(QUATERNION, np.conj(self.a).T, -self.b.T)

    @property
    def T(self):
        """Plain transpose (only meaningful over R and C)."""
        if self.tag == QUATERNION:
            raise ValueError("plain transpose is not used for quaternionic matrices")
        return KMat(self.tag, self.a.T)

    # --------------------------------------------------------------- embedding

    def embed(self):
        """Complex matrix faithfully representing this one.

        R and C matrices embed as themselves; a quaternionic n x m matrix
        embeds as the 2n x 2m complex adjoint matrix.
        """
        if self.tag == REAL:
            return self.a.astype(complex)
        if self.tag == COMPLEX:
            return self.a
        n, m = self.a.shape
        out = np.empty((2 * n, 2 * m), dtype=complex)
        out[:n, :m] = self.a
        out[:n, m:] = self.b
        out[n:, :m] = -np.conj(self.b)
        out[n:, m:] = np.conj(self.a)
        return out

    @classmethod
    def unembed(cls, tag, mat):
        """Inverse of embed for matrices lying in the embedded image."""
        if tag == REAL:
            return cls(REAL, mat.real)
        if tag == COMPLEX:
            return cls(COMPLEX, mat)
        n, m = mat.shape[0] // 2, mat.shape[1] // 2
        return cls(QUATERNION, mat[:n, :m], mat[:n, m:])

    # ------------------------------------------------------------------- norms

    def norm(self):
        if self.tag == QUATERNION:
            return float(np.sqrt(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2)))
        return float(np.linalg.norm(self.a))

    def opnorm(self):
        return float(np.linalg.norm(self.embed(), 2))

    def dist(self, other):
        return (self - other).norm()

    # ------------------------------------------------------------------ linalg

    def inv(self):
        inv = np.linalg.inv(self.embed())
        return KMat.unembed(self.tag, inv)

    def solve(self, rhs):
        """Solve self @ X = rhs."""
        x, y = self._promoted(rhs)
        sol = np.linalg.solve(x.embed(), y.embed())
        return KMat.unembed(x.tag, sol)

    # ------------------------------------------------------------------ blocks

    def block(self, r0, r1, c0, c1):
        if self.tag == QUATERNION:
            return KMat(QUATERNION, self.a[r0:r1, c0:c1], self.b[r0:r1, c0:c1])
        return KMat(self.tag, self.a[r0:r1, c0:c1])

    @classmethod
    def hstack(cls, mats):
        tags = {m.tag for m in mats}
        if len(tags) != 1:
            raise ValueError("hstack requires a uniform tag")
        tag = tags.pop()
        if tag == QUATERNION:
            return cls(tag, np.hstack([m.a for m in mats]), np.hstack([m.b for m in mats]))
        return cls(tag, np.hstack([m.a for m in mats]))

    @classmethod
    def vstack(cls, mats):
        tags = {m.tag for m in mats}
        if len(tags) != 1:
            raise ValueError("vstack requires a uniform tag")
        tag = tags.pop()
        if tag == QUATERNION:
            return cls(tag, np.vstack([m.a for m in mats]), np.vstack([m.b for m in mats]))
        return cls(tag, np.vstack([m.a for m in mats]))

    @classmethod
    def block_diag(cls, m1, m2):
        x, y = m1._promoted(m2)
        top = cls.hstack([x, cls.zeros(x.tag, x.rows, y.cols)])
        bot = cls.hstack([cls.zeros(x.tag, y.rows, x.cols), y])
        return cls.vstack([top, bot])

    # ----------------------------------------------------------- serialization

    def to_json(self):
        """JSON object {tag, rows, cols, entries}, entries flat row-major component tuples."""
        comp = []
        for i in range(self.rows):
            for j in range(self.cols):
                if self.tag == REAL:
                    comp.append([float(self.a[i, j])])
                elif self.tag == COMPLEX:
                    comp.append([float(self.a[i, j].real), float(self.a[i, j].imag)])
                else:
                    comp.append([
                        float(self.a[i, j].real), float(self.a[i, j].imag),
                        float(self.b[i, j].real), float(self.b[i, j].imag),
                    ])
        return {"tag": self.tag, "rows": self.rows, "cols": self.cols, "entries": comp}

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
        return f"KMat({self.tag}, {self.rows}x{self.cols})"
