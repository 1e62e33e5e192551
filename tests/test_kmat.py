"""Matrix layer: quaternion embedding, the embedded product, arithmetic, serialization."""

import numpy as np
import pytest

from causalflag.errors import ModelMismatch
from causalflag.kmat import KMat, adjoint, as_embedded, concat, in_layout, norm, product
from causalflag.scalars import COMPLEX, QUATERNION, REAL

rng = np.random.default_rng(0)


def test_embedding_is_multiplicative():
    A = KMat.random(QUATERNION, 3, 3, rng)
    B = KMat.random(QUATERNION, 3, 3, rng)
    lhs = product(A.embed(), B.embed(), QUATERNION)
    rhs = A.embed() @ B.embed()
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))
    assert in_layout(lhs)


def test_embedding_respects_adjoint():
    A = KMat.random(QUATERNION, 3, 2, rng)
    assert np.array_equal(adjoint(A.embed()), KMat(QUATERNION, np.conj(A.a).T, -A.b.T).embed())


def test_unembed_roundtrip():
    for tag in (REAL, COMPLEX, QUATERNION):
        A = KMat.random(tag, 3, 3, rng)
        B = KMat.unembed(tag, A.embed())
        assert np.array_equal(A.a, B.a) and (A.b is None or np.array_equal(A.b, B.b))
    assert KMat.random(REAL, 2, 2, rng).embed().dtype == np.float64  # a real matrix embeds as itself


def test_quaternion_norm_matches_embedding():
    A = KMat.random(QUATERNION, 3, 3, rng)
    assert abs(norm(A.embed(), QUATERNION) - np.linalg.norm(A.embed()) / np.sqrt(2.0)) < 1e-12


def test_promotion_ladder():
    R = KMat.random(REAL, 2, 2, rng)
    C = KMat.random(COMPLEX, 2, 2, rng)
    H = KMat.random(QUATERNION, 2, 2, rng)
    assert (R + C).tag == COMPLEX
    assert (C + H).tag == QUATERNION
    assert (R - H).tag == QUATERNION
    assert np.array_equal(as_embedded(QUATERNION, R), (R - 0.0 * H).embed())


def test_stacking_and_blocks():
    A = KMat.random(QUATERNION, 2, 2, rng)
    B = KMat.random(QUATERNION, 2, 2, rng)
    V = concat([A.embed(), B.embed()], -2, QUATERNION)
    assert V.shape == (8, 4)
    assert np.array_equal(V, KMat(QUATERNION, np.vstack([A.a, B.a]), np.vstack([A.b, B.b])).embed())
    W = concat([A.embed(), B.embed()], -1, QUATERNION)
    assert np.array_equal(W, KMat(QUATERNION, np.hstack([A.a, B.a]), np.hstack([A.b, B.b])).embed())


def test_arrays_outside_the_layout_are_rejected():
    E = KMat.random(QUATERNION, 2, 2, rng).embed()
    assert np.array_equal(as_embedded(QUATERNION, E), E)
    E[3, 0] += 1.0
    assert not in_layout(E)
    with pytest.raises(ModelMismatch):
        as_embedded(QUATERNION, E)
    with pytest.raises(ModelMismatch):
        as_embedded(QUATERNION, np.eye(3))
    with pytest.raises(ModelMismatch):
        as_embedded(REAL, np.eye(2) * 1j)


def test_json_roundtrip():
    for tag in (REAL, COMPLEX, QUATERNION):
        A = KMat.random(tag, 2, 3, rng)
        B = KMat.from_json(A.to_json())
        assert np.array_equal(A.embed(), B.embed())


def test_bad_tag_rejected():
    with pytest.raises(ValueError):
        KMat("X", np.eye(2))
