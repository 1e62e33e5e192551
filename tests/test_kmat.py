"""Matrix layer: quaternion embedding, arithmetic, serialization."""

import numpy as np
import pytest

from causalflag.kmat import KMat
from causalflag.scalars import COMPLEX, QUATERNION, REAL

rng = np.random.default_rng(0)


def test_embedding_is_multiplicative():
    A = KMat.random(QUATERNION, 3, 3, rng)
    B = KMat.random(QUATERNION, 3, 3, rng)
    lhs = (A @ B).embed()
    rhs = A.embed() @ B.embed()
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_embedding_respects_adjoint():
    A = KMat.random(QUATERNION, 3, 2, rng)
    assert np.linalg.norm(A.H.embed() - np.conj(A.embed()).T) < 1e-14


def test_unembed_roundtrip():
    for tag in (REAL, COMPLEX, QUATERNION):
        A = KMat.random(tag, 3, 3, rng)
        B = KMat.unembed(tag, A.embed())
        assert A.dist(B) < 1e-14


def test_inverse():
    for tag in (REAL, COMPLEX, QUATERNION):
        A = KMat.random(tag, 3, 3, rng) + 3.0 * KMat.eye(tag, 3)
        I = A @ A.inv()
        assert I.dist(KMat.eye(tag, 3)) < 1e-10


def test_quaternion_norm_matches_embedding():
    A = KMat.random(QUATERNION, 3, 3, rng)
    assert abs(A.norm() - np.linalg.norm(A.embed()) / np.sqrt(2.0)) < 1e-12


def test_promotion_ladder():
    R = KMat.random(REAL, 2, 2, rng)
    C = KMat.random(COMPLEX, 2, 2, rng)
    H = KMat.random(QUATERNION, 2, 2, rng)
    assert (R + C).tag == COMPLEX
    assert (C + H).tag == QUATERNION
    assert (R @ H).tag == QUATERNION


def test_plain_transpose_rejected_for_quaternions():
    H = KMat.random(QUATERNION, 2, 2, rng)
    with pytest.raises(ValueError):
        H.T


def test_stacking_and_blocks():
    A = KMat.random(QUATERNION, 2, 2, rng)
    B = KMat.random(QUATERNION, 2, 2, rng)
    V = KMat.vstack([A, B])
    assert V.shape == (4, 2)
    assert V.block(0, 2, 0, 2).dist(A) == 0.0
    assert V.block(2, 4, 0, 2).dist(B) == 0.0


def test_json_roundtrip():
    for tag in (REAL, COMPLEX, QUATERNION):
        A = KMat.random(tag, 2, 3, rng)
        B = KMat.from_json(A.to_json())
        assert A.dist(B) == 0.0


def test_bad_tag_rejected():
    with pytest.raises(ValueError):
        KMat("X", np.eye(2))
