"""Matrix layer: quaternion embedding, the embedded product, the JSON codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalflag.errors import ModelMismatch
from causalflag.kmat import (
    KMat,
    _chi,
    _parts,
    adjoint,
    as_embedded,
    concat,
    draw,
    embed_real,
    from_json,
    in_layout,
    norm,
    product,
    to_json,
)
from causalflag.linalg import frobenius_norms
from causalflag.scalars import COMPLEX, QUATERNION, REAL

rng = np.random.default_rng(0)


def test_embedding_is_multiplicative():
    A = draw(QUATERNION, (3, 3), rng)
    B = draw(QUATERNION, (3, 3), rng)
    lhs = product(A, B, QUATERNION)
    rhs = A @ B
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))
    assert in_layout(lhs)


def test_embedding_respects_adjoint():
    A = draw(QUATERNION, (3, 2), rng)
    a, b = _parts(A)
    assert np.array_equal(adjoint(A), _chi(np.conj(a).T, -b.T))


def test_parts_roundtrip():
    E = draw(QUATERNION, (3, 3), rng)
    assert np.array_equal(_chi(*_parts(E)), E)
    A = draw(REAL, (2, 2), rng)
    assert A.dtype == np.float64 and embed_real(A, REAL) is A  # a real matrix embeds as itself


def test_quaternion_norm_matches_embedding():
    A = draw(QUATERNION, (3, 3), rng)
    assert abs(norm(A, QUATERNION) - np.linalg.norm(A) / np.sqrt(2.0)) < 1e-12


def test_stacking_and_blocks():
    A = draw(QUATERNION, (2, 2), rng)
    B = draw(QUATERNION, (2, 2), rng)
    (a1, b1), (a2, b2) = _parts(A), _parts(B)
    V = concat([A, B], -2, QUATERNION)
    assert V.shape == (8, 4)
    assert np.array_equal(V, _chi(np.vstack([a1, a2]), np.vstack([b1, b2])))
    W = concat([A, B], -1, QUATERNION)
    assert np.array_equal(W, _chi(np.hstack([a1, a2]), np.hstack([b1, b2])))


def test_arrays_outside_the_layout_are_rejected():
    E = draw(QUATERNION, (2, 2), rng)
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
    # bit for bit, dtype and shape included
    for tag in (REAL, COMPLEX, QUATERNION):
        E = draw(tag, (2, 3), rng)
        parts = [p.copy() for p in _parts(E)] if tag == QUATERNION else [E]
        parts[0][0, 0] = -0.0  # signed zeros survive too
        E = _chi(*parts) if tag == QUATERNION else E
        obj = to_json(E, tag)
        assert (obj["rows"], obj["cols"]) == (2, 3)
        back = from_json(obj, tag)
        assert back.dtype == E.dtype and back.shape == E.shape
        assert np.array_equal(back.view(np.uint8), E.view(np.uint8))


def test_promotion_ladder():
    # R -> C -> H as embed_real and a zero j-part give it; a larger field is refused
    R = draw(REAL, (2, 2), rng)
    C = draw(COMPLEX, (2, 2), rng)
    for E, src, tag, expected in (
        (R, REAL, COMPLEX, embed_real(R, COMPLEX)),
        (R, REAL, QUATERNION, embed_real(R, QUATERNION)),
        (C, COMPLEX, QUATERNION, _chi(C, np.zeros_like(C))),
    ):
        out = from_json(to_json(E, src), tag)
        assert out.dtype == expected.dtype
        assert np.array_equal(out.view(np.uint8), expected.view(np.uint8))
    H = to_json(draw(QUATERNION, (2, 2), rng), QUATERNION)
    for tag in (REAL, COMPLEX):
        with pytest.raises(ValueError):
            from_json(H, tag)
    with pytest.raises(ValueError):
        from_json(to_json(C, COMPLEX), REAL)


def test_bad_tag_rejected():
    H = to_json(draw(QUATERNION, (2, 2), rng), QUATERNION)
    with pytest.raises(ValueError):
        from_json(dict(H, tag="X"), QUATERNION)
    with pytest.raises(ValueError):
        from_json(dict(H, rows=3), QUATERNION)


def test_sampled_coordinate_reads_as_its_array():
    E = draw(COMPLEX, (2, 2), rng)
    X = KMat(E)
    assert np.array_equal(np.asarray(X), E) and np.array_equal(np.array([X, X]), np.stack([E, E]))
    scaled = 0.5 * X
    assert type(scaled) is np.ndarray and np.array_equal(scaled, 0.5 * E)
    assert X.opnorm() == float(np.linalg.norm(E, 2))


# ------------------------------------------- the one norm (derandomized hypothesis property tests)

NORMS = settings(derandomize=True, max_examples=60, deadline=None)
# field shapes: leading shapes (k,) and (k, l), a column stack and the empty stack
norm_shapes = st.sampled_from([(7, 3, 3), (4, 2, 5), (3, 4, 2, 2), (9, 6, 1), (0, 3, 3)])


def _items(E):
    return E.reshape((-1,) + E.shape[-2:])


@NORMS
@given(seed=st.integers(0, 2**32 - 1), tag=st.sampled_from([REAL, COMPLEX]), shape=norm_shapes)
def test_frobenius_norms_are_the_flat_norm_of_each_item(seed, tag, shape):
    E = draw(tag, shape, np.random.default_rng(seed))
    norms = frobenius_norms(E, tag)
    assert norms.shape == shape[:-2]
    assert np.array_equal(norms.reshape(-1), [np.linalg.norm(e) for e in _items(E)])
    assert [norm(e, tag) for e in _items(E)] == norms.reshape(-1).tolist()


@NORMS
@given(seed=st.integers(0, 2**32 - 1), shape=norm_shapes)
def test_quaternionic_norms_are_the_chi_norm_over_sqrt2(seed, shape):
    E = draw(QUATERNION, shape, np.random.default_rng(seed))
    norms = frobenius_norms(E, QUATERNION)
    assert norms.shape == shape[:-2]
    assert np.array_equal(norms.reshape(-1), [np.linalg.norm(e) / np.sqrt(2.0) for e in _items(E)])
    a, b = _parts(E)
    parts = np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)) + np.sum(np.abs(b) ** 2, axis=(-2, -1)))
    np.testing.assert_allclose(norms, parts, rtol=1e-15, atol=0)
    assert [norm(e, QUATERNION) for e in _items(E)] == norms.reshape(-1).tolist()
