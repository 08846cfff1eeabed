import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dorsalhash import hashing
from dorsalhash.errors import BadKeyError, DegenerateKeyError, DimensionError, UndefinedScoreError
from dorsalhash.hashing import (
    CancelableTemplate,
    UserKey,
    basis_for_key,
    binarize,
    generate_random_vectors,
    hash_features,
    orthonormalize,
    project,
    template_distance,
    template_from_basis,
)


def key(seed=41, bits=128, user="u1"):
    return UserKey(user_id=user, seed=seed, bit_length=bits)


# -- key material -------------------------------------------------------------

def test_bit_lengths_supported():
    assert hashing.BIT_LENGTHS == (32, 64, 128)
    with pytest.raises(BadKeyError):
        UserKey(user_id="u", seed=1, bit_length=256)
    with pytest.raises(BadKeyError):
        UserKey(user_id="", seed=1, bit_length=64)
    with pytest.raises(BadKeyError):
        UserKey(user_id="u", seed=1, bit_length=64, key_version=0)


def test_random_vectors_shape_and_determinism():
    v1 = generate_random_vectors(key(), feature_dim=256)
    v2 = generate_random_vectors(key(), feature_dim=256)
    assert v1.shape == (256, 128)
    assert np.array_equal(v1, v2)
    v3 = generate_random_vectors(key(seed=42), feature_dim=256)
    assert not np.array_equal(v1, v3)


def test_random_vector_columns_are_stream_blocks():
    from dorsalhash import rand
    k = key(seed=77, bits=32)
    v = generate_random_vectors(k, feature_dim=64)
    z = rand.normals(77, rand.PURPOSE_BIOHASH, 64 * 32)
    assert np.array_equal(v[:, 0], z[:64])
    assert np.array_equal(v[:, 1], z[64:128])


def test_more_bits_than_dims_rejected():
    with pytest.raises(BadKeyError):
        generate_random_vectors(key(bits=128), feature_dim=64)


def test_orthonormalize_two_vector_oracle():
    # Gram-Schmidt on columns [1,0] and [1,1] gives the standard basis.
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    basis = orthonormalize(v)
    assert np.allclose(basis.matrix, np.eye(2), atol=1e-15)


def test_orthonormalize_output_is_orthonormal():
    rng = np.random.default_rng(0)
    basis = orthonormalize(rng.standard_normal((64, 32)))
    assert basis.orthonormality_error() < 1e-9


def test_orthonormalize_rejects_duplicate_directions():
    v = np.ones((8, 2))
    with pytest.raises(DegenerateKeyError) as info:
        orthonormalize(v, origin_key=key())
    assert "reissue" in str(info.value).lower()


def test_orthonormalize_rejects_wide_matrix():
    with pytest.raises(DimensionError):
        orthonormalize(np.ones((2, 8)))


def test_basis_for_key_deterministic_and_validated():
    b1 = basis_for_key(key(), 256)
    b2 = basis_for_key(key(), 256)
    assert np.array_equal(b1.matrix, b2.matrix)
    assert b1.orthonormality_error() < 1e-9
    assert b1.feature_dim == 256
    assert b1.bit_length == 128


# Vault key records store only the seed and this digest, and verification
# rebuilds the basis; any drift in the pinned stream or in Gram-Schmidt
# must fail here rather than at a user's verify.
PINNED_BASIS_BLAKE2B = "33cbcfabdd8696b14c27ee5187146cd481ac16a27ddb822ab770bd8148c62b82"


def test_basis_for_key_digest_is_pinned():
    basis = basis_for_key(UserKey(user_id="u", seed=1, bit_length=128), 256)
    raw = np.ascontiguousarray(basis.matrix, dtype="<f8").tobytes()
    assert hashlib.blake2b(raw, digest_size=32).hexdigest() == PINNED_BASIS_BLAKE2B


# -- hashing ------------------------------------------------------------------

def test_projection_applies_transpose():
    basis = orthonormalize(np.eye(4)[:, :2])
    f = np.array([3.0, -1.0, 2.0, 5.0])
    assert project(f, basis).tolist() == [3.0, -1.0]


def test_projection_validates_dimension():
    basis = orthonormalize(np.eye(4)[:, :2])
    with pytest.raises(DimensionError):
        project(np.ones(5), basis)


def test_binarize_strictly_positive_rule():
    bits = binarize(np.array([0.5, -0.5, 0.0, 1e-300]))
    assert bits.tolist() == [1, 0, 0, 1]
    assert bits.dtype == np.uint8


def test_hash_features_carries_key_lineage():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(256)
    k = UserKey(user_id="carol", seed=9, bit_length=32, key_version=3)
    t = hash_features(f, k)
    assert t.bits.shape == (32,)
    assert t.user_id == "carol"
    assert t.key_version == 3
    assert set(np.unique(t.bits)) <= {0, 1}


def test_template_distance_hand_oracle():
    d = template_distance(np.array([1, 1, 0, 0], dtype=np.uint8),
                          np.array([0, 0, 1, 1], dtype=np.uint8))
    assert abs(d - 1.0 / np.sqrt(2.0)) < 1e-15


def test_template_distance_identical_and_disjoint():
    a = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert template_distance(a, a) == 0.0
    b = np.array([0, 1, 0, 1], dtype=np.uint8)
    assert abs(template_distance(a, b) - 1.0 / np.sqrt(2.0)) < 1e-15


def test_template_distance_one_sided_zero():
    z = np.zeros(4, dtype=np.uint8)
    a = np.array([1, 1, 1, 1], dtype=np.uint8)
    assert template_distance(z, a) == 1.0


def test_template_distance_undefined_for_two_zero_templates():
    z = np.zeros(8, dtype=np.uint8)
    with pytest.raises(UndefinedScoreError):
        template_distance(z, z)


def test_template_distance_length_mismatch():
    with pytest.raises(DimensionError):
        template_distance(np.ones(4, dtype=np.uint8), np.ones(8, dtype=np.uint8))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_template_distance_properties(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, 64).astype(np.uint8)
    b = rng.integers(0, 2, 64).astype(np.uint8)
    if not a.any() and not b.any():
        return
    d_ab = template_distance(a, b)
    assert d_ab == template_distance(b, a)
    assert 0.0 <= d_ab <= 1.0
    if np.array_equal(a, b):
        assert d_ab == 0.0
    else:
        assert d_ab > 0.0


def test_positive_scaling_leaves_template_unchanged():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(256)
    k = key()
    t1 = hash_features(f, k)
    assert np.array_equal(t1.bits, hash_features(2.5 * f, k).bits)
    assert np.array_equal(t1.bits, hash_features(0.001 * f, k).bits)


def test_different_keys_give_uncorrelated_templates():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(256)
    t1 = hash_features(f, key(seed=100))
    t2 = hash_features(f, key(seed=200))
    ham = np.mean(t1.bits != t2.bits)
    assert 0.3 < ham < 0.7


def test_hash_deterministic():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(256)
    assert np.array_equal(hash_features(f, key()).bits, hash_features(f, key()).bits)


def test_template_hex_round_trip():
    rng = np.random.default_rng(4)
    t = CancelableTemplate(bits=rng.integers(0, 2, 128).astype(np.uint8),
                           user_id="u", key_version=2)
    again = CancelableTemplate.from_hex(t.to_hex(), "u", 2, 128)
    assert np.array_equal(t.bits, again.bits)
    assert again.key_version == 2


def test_template_rejects_non_binary_bits():
    with pytest.raises(DimensionError):
        CancelableTemplate(bits=np.array([0, 1, 2], dtype=np.uint8), user_id="u", key_version=1)


def test_template_from_basis_matches_hash_features():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(256)
    k = key()
    basis = basis_for_key(k, 256)
    assert np.array_equal(template_from_basis(f, basis).bits, hash_features(f, k).bits)


def test_template_from_basis_needs_origin_key():
    basis = orthonormalize(np.eye(4)[:, :2])
    with pytest.raises(BadKeyError):
        template_from_basis(np.ones(4), basis)
