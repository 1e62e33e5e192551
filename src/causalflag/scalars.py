"""Scalar ground fields: R, C, and the quaternions H.

Quaternions are written q = a + b*j with a, b complex, so that the whole
quaternionic linear algebra of the library can run through the complex
embedding  q -> [[a, b], [-conj(b), conj(a)]].
"""

REAL = "R"
COMPLEX = "C"
QUATERNION = "H"
