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
    assert np.abs(basis.matrix.T @ basis.matrix - np.eye(32)).max() < 1e-9


def test_orthonormalize_rejects_duplicate_directions():
    v = np.ones((8, 2))
    with pytest.raises(DegenerateKeyError) as info:
        orthonormalize(v, origin_key=key())
    assert "reissue" in str(info.value).lower()


def test_orthonormalize_rejects_wide_matrix():
    with pytest.raises(DimensionError):
        orthonormalize(np.ones((2, 8)))


def layouts():
    a = np.random.default_rng(3).standard_normal((96, 48))
    return {"c": a[:64, :32].copy(), "f": np.asfortranarray(a[:64, :32]), "strided": a[::3, ::2][:, :24]}


@pytest.mark.parametrize("layout", ["c", "f", "strided"])
def test_orthonormalize_and_basis_leave_their_input_alone(layout):
    a = layouts()[layout]
    before = a.copy()
    q = orthonormalize(a).matrix
    assert np.array_equal(a, before)
    # The same orthonormal values in the layout under test.
    q_in = layouts()[layout]
    q_in[...] = q
    before = q_in.copy()
    hashing.ProjectionBasis(q_in)
    assert np.array_equal(q_in, before)


def near_orthonormal(seed):
    q = orthonormalize(np.random.default_rng(seed).standard_normal((64, 16))).matrix
    return q + 1e-12 * np.random.default_rng(seed + 1).standard_normal(q.shape)


@pytest.mark.parametrize("make", [
    lambda s: np.random.default_rng(s).standard_normal((40, 12)),
    lambda s: np.asfortranarray(np.random.default_rng(s).standard_normal((40, 12))),
    near_orthonormal,
    lambda s: basis_for_key(key(seed=s, bits=32), 64).matrix,
], ids=["random_c", "random_f", "near_orthonormal", "basis"])
@pytest.mark.parametrize("seed", range(5))
def test_gram_error_equals_the_identity_difference(make, seed):
    q = make(seed)
    assert hashing._gram_error(q) == np.abs(q.T @ q - np.eye(q.shape[1])).max()


def scaled_first_entry(gram_error):
    # Orthonormal columns whose first column has squared norm 1 + gram_error.
    q = np.eye(6)[:, :3].copy()
    q[0, 0] = np.sqrt(1.0 + gram_error)
    return q


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_basis_rejects_non_finite_values(bad):
    q = np.eye(6)[:, :3].copy()
    q[2, 1] = bad
    with pytest.raises(DimensionError):
        hashing.ProjectionBasis(q)


def test_basis_rejects_just_above_the_tolerance():
    hashing.ProjectionBasis(scaled_first_entry(0.99 * hashing.ORTHO_TOL))
    with pytest.raises(DegenerateKeyError):
        hashing.ProjectionBasis(scaled_first_entry(1.01 * hashing.ORTHO_TOL))


def test_basis_for_key_deterministic_and_validated():
    b1 = basis_for_key(key(), 256)
    b2 = basis_for_key(key(), 256)
    assert np.array_equal(b1.matrix, b2.matrix)
    assert np.abs(b1.matrix.T @ b1.matrix - np.eye(128)).max() < 1e-9
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


def basis_digest(matrix: np.ndarray) -> str:
    raw = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


# (seed, bits, feature dim) -> digest of basis_for_key, recorded before the
# Gram-Schmidt column loop was last reworked; every BLAS call must keep its
# operands and layout for these to hold.
PINNED_BASES = {
    (1, 32, 128): "870e2cd96e8b90744d1ba959dd048934",
    (1, 32, 256): "be36c4012e376f4c68f799176797ec25",
    (1, 64, 128): "7b7828cd55f37dbb47bd95c898168296",
    (1, 64, 256): "918c4aae5ec1afa776870a01f0b73cb1",
    (1, 128, 128): "b64dd82483ddcfb617bbd8c5a585e463",
    (1, 128, 256): "7cf33c57db435a497a75fbe0330d08d6",
    (7, 32, 128): "a5b1f7f8b1ff14d0035cd43de263887a",
    (7, 32, 256): "de047139716e5470b1652e42723e93b0",
    (7, 64, 128): "d9e23c95d94da0808994836556bc4bd6",
    (7, 64, 256): "1acfbb86d2c1e3b14bbaa5fe2bd0f71b",
    (7, 128, 128): "a9fe0a1f693706e71e6f655abbe1aeac",
    (7, 128, 256): "2c15eb5481124161602df71c770dfe5a",
    (2024, 32, 128): "f321294b9561efc74747bd30f7ad1679",
    (2024, 32, 256): "63e079f6a4329dacb9203dd0bb03df2a",
    (2024, 64, 128): "18262af2f45ffa4d286eb4b3ceb176b8",
    (2024, 64, 256): "8f2873f09116e0189747e426bceed955",
    (2024, 128, 128): "a74623cff3ccfcee74fbee59764aaa42",
    (2024, 128, 256): "09b7b03d70de0236c751711d3f4ead31",
}


@pytest.mark.parametrize("seed,bits,dim", sorted(PINNED_BASES))
def test_basis_for_key_digests_across_seeds_bits_and_dims(seed, bits, dim):
    basis = basis_for_key(UserKey(user_id="u", seed=seed, bit_length=bits), dim)
    assert basis_digest(basis.matrix) == PINNED_BASES[seed, bits, dim]


def nearly_dependent():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((16, 4))
    a[:, 3] = a[:, 0] + 1e-7 * rng.standard_normal(16)
    return a


# (input, its (C, Fortran) contiguity, Gram-Schmidt passes, output digest)
@pytest.mark.parametrize("make,contiguous,sweeps,pinned", [
    (lambda: np.random.default_rng(5).standard_normal((64, 32)), (True, False), 1,
     "0177ca5e8f9f69d6b14adb5161bf35ba"),
    (lambda: np.eye(4)[:, :2], (False, False), 1, "4890d0cc0bd906d143487d96a5e43207"),
    (nearly_dependent, (True, False), 2, "292f8e581ab56232205484ddc6c28168"),
], ids=["c_ordered_64x32", "strided_eye_slice", "nearly_dependent"])
def test_orthonormalize_digests_are_pinned(monkeypatch, make, contiguous, sweeps, pinned):
    a = make()
    assert (a.flags.c_contiguous, a.flags.f_contiguous) == contiguous
    calls = []
    sweep = hashing._sweep
    monkeypatch.setattr(hashing, "_sweep", lambda cols: calls.append(cols) or sweep(cols))
    q = orthonormalize(a).matrix
    assert len(calls) == sweeps
    if sweeps == 2:
        first = sweep(a)
        assert np.abs(first.T @ first - np.eye(a.shape[1])).max() > hashing.REORTH_TRIGGER
    assert basis_digest(q) == pinned


@pytest.fixture
def gram_calls(monkeypatch):
    calls = []
    gram = hashing._gram_error
    monkeypatch.setattr(hashing, "_gram_error", lambda q: calls.append(q.shape) or gram(q))
    return calls


@pytest.mark.parametrize("seed,bits,dim", [(1, 128, 256), (7, 32, 128), (2024, 64, 256)])
def test_key_basis_forms_the_gram_error_once(gram_calls, seed, bits, dim):
    basis = basis_for_key(UserKey(user_id="u", seed=seed, bit_length=bits), dim)
    assert gram_calls == [(dim, bits)]
    assert basis_digest(basis.matrix) == PINNED_BASES[seed, bits, dim]


def test_reorthogonalized_basis_forms_the_gram_error_twice(gram_calls):
    orthonormalize(nearly_dependent())
    assert len(gram_calls) == 2


def test_direct_basis_still_measures_itself(gram_calls):
    hashing.ProjectionBasis(np.eye(6)[:, :3])
    assert gram_calls == [(6, 3)]
    with pytest.raises(DegenerateKeyError):
        hashing.ProjectionBasis(scaled_first_entry(1.01 * hashing.ORTHO_TOL))


# The sweep's arithmetic on a NaN or inf warns on its way to the check.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_orthonormalize_rejects_non_finite_input(bad):
    a = np.random.default_rng(3).standard_normal((16, 4))
    a[5, 2] = bad
    with pytest.raises(DimensionError):
        orthonormalize(a)


def test_orthonormalize_rejects_a_sweep_left_above_the_tolerance(monkeypatch):
    # Both sweeps return the same matrix, off orthonormal by 10 * ORTHO_TOL:
    # the check on the returned basis reads the error of the second sweep.
    monkeypatch.setattr(hashing, "_sweep", lambda cols: scaled_first_entry(10 * hashing.ORTHO_TOL))
    with pytest.raises(DegenerateKeyError):
        orthonormalize(np.eye(6)[:, :3])


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


# -- batch forms --------------------------------------------------------------

def norm_form_distance(q_bits, t_bits):
    """Reference: the norm form ``|Q - T| / (|Q| + |T|)`` on float
    vectors, which the count form must equal bit for bit."""
    q = np.asarray(q_bits, dtype=np.float64)
    t = np.asarray(t_bits, dtype=np.float64)
    return float(np.linalg.norm(q - t) / (np.linalg.norm(q) + np.linalg.norm(t)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("bits", [32, 64, 128])
def test_batch_rows_equal_single_calls(seed, bits):
    basis = basis_for_key(key(seed=seed + 10, bits=bits), 256)
    rng = np.random.default_rng(seed)
    template = binarize(project(rng.standard_normal(256), basis))
    for rows in (0, 1, 5, 33):
        feats = rng.standard_normal((rows, 256))
        projections = project(feats, basis)
        assert projections.shape == (rows, bits)
        bit_rows = binarize(projections)
        assert bit_rows.shape == (rows, bits) and bit_rows.dtype == np.uint8
        distances = template_distance(bit_rows, template)
        assert distances.shape == (rows,)
        for i in range(rows):
            # A GEMM row and a GEMV sum in different orders: a few ulps of
            # |f| (the basis columns have unit norm) bound the difference.
            single = project(feats[i], basis)
            bound = 4 * 256 * np.finfo(float).eps * np.linalg.norm(feats[i])
            assert np.abs(projections[i] - single).max() <= bound
            assert np.array_equal(bit_rows[i], binarize(projections[i]))
            assert distances[i] == template_distance(bit_rows[i], template)
            assert distances[i] == template_distance(template, bit_rows[i])


def test_batch_distance_pairs_rows_of_two_matrices():
    rng = np.random.default_rng(6)
    q = rng.integers(0, 2, (7, 64)).astype(np.uint8)
    t = rng.integers(0, 2, (7, 64)).astype(np.uint8)
    q[:, 0] = t[:, 0] = 1
    d = template_distance(q, t)
    assert d.tolist() == [template_distance(a, b) for a, b in zip(q, t)]
    with pytest.raises(DimensionError):
        template_distance(q, t[:6])


@pytest.mark.parametrize("case", ["random", "zero_query", "zero_template", "all_ones", "ones_vs_random"])
@pytest.mark.parametrize("bits", [32, 64, 128])
def test_count_form_equals_norm_form(case, bits):
    rng = np.random.default_rng(bits)
    for _ in range(20):
        q = rng.integers(0, 2, bits).astype(np.uint8)
        t = rng.integers(0, 2, bits).astype(np.uint8)
        if case == "zero_query":
            q[:] = 0
        elif case == "zero_template":
            t[:] = 0
        elif case == "all_ones":
            q[:] = t[:] = 1
        elif case == "ones_vs_random":
            q[:] = 1
        if not q.any() and not t.any():
            continue
        assert template_distance(q, t) == norm_form_distance(q, t)


@pytest.mark.parametrize("bad", [2, 0.5])
def test_template_distance_rejects_values_other_than_bits(bad):
    q = np.array([1, 0, 1, 0], dtype=np.float64)
    t = np.array([1, 1, 0, 0], dtype=np.float64)
    for args in ((np.where(q == 1, bad, q), t), (q, np.where(t == 1, bad, t))):
        with pytest.raises(DimensionError):
            template_distance(*args)
    with pytest.raises(DimensionError):
        template_distance(np.stack([q, np.where(q == 1, bad, q)]), t)


def test_all_zero_row_against_all_zero_template_is_undefined():
    rows = np.ones((3, 16), dtype=np.uint8)
    rows[1] = 0
    zero = np.zeros(16, dtype=np.uint8)
    with pytest.raises(UndefinedScoreError):
        template_distance(rows, zero)
    assert template_distance(rows[[0, 2]], zero).tolist() == [1.0, 1.0]


def test_batch_forms_reject_other_ranks():
    basis = orthonormalize(np.eye(4)[:, :2])
    with pytest.raises(DimensionError):
        project(np.ones((2, 3, 4)), basis)
    with pytest.raises(DimensionError):
        project(np.ones((3, 5)), basis)
    with pytest.raises(DimensionError):
        binarize(np.ones((2, 2, 2)))
    with pytest.raises(DimensionError):
        template_distance(np.ones((2, 2, 2), dtype=np.uint8), np.ones(2, dtype=np.uint8))


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


@pytest.mark.parametrize("bits", [[0.0, 1.0, 0.5], [0, 1, 256]])
def test_template_checks_bits_before_the_uint8_cast(bits):
    # 0.5 and 256 both cast to 0 as uint8; the 0/1 rule of
    # template_distance refuses them first.
    with pytest.raises(DimensionError):
        CancelableTemplate(bits=np.array(bits), user_id="u", key_version=1)


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
