import numpy as np
import pytest
from hypothesis import given, strategies as st

from dorsalhash import rand


def test_raw_words_frozen_values():
    w = rand.raw_words(12345, rand.PURPOSE_BIOHASH, 4)
    assert w.dtype == np.uint64
    assert w.tolist() == [
        3128460161920723631,
        6908618801227403848,
        6506155590598657888,
        1129070946885288752,
    ]


def test_uniforms_are_shifted_raw_words():
    w = rand.raw_words(12345, rand.PURPOSE_BIOHASH, 4)
    expect = ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    assert np.array_equal(rand.uniforms(12345, rand.PURPOSE_BIOHASH, 4), expect)


def test_uniforms_in_half_open_unit_interval():
    u = rand.uniforms(99, rand.PURPOSE_AUGMENT, 10_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_normals_match_box_muller_of_uniforms():
    n = 8
    u = rand.uniforms(999, rand.PURPOSE_LBC_BANK, n)
    got = rand.normals(999, rand.PURPOSE_LBC_BANK, n)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    assert np.array_equal(got[0::2], r * np.cos(theta))
    assert np.array_equal(got[1::2], r * np.sin(theta))


def reference_normals(seed, purpose, n):
    """The pinned map as the module docstring writes it, one array per step."""
    pairs = (n + 1) // 2
    w = rand.raw_words(seed, purpose, 2 * pairs)
    u = ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z[:n]


@pytest.mark.parametrize("purpose", [rand.PURPOSE_BIOHASH, rand.PURPOSE_SYNTH])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 4097, 8192, 32768])
def test_normals_equal_the_reference_bit_for_bit(purpose, n):
    for seed in range(50):
        got = rand.normals(seed, purpose, n)
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.array_equal(got, reference_normals(seed, purpose, n))


def test_normals_odd_count():
    a = rand.normals(4, rand.PURPOSE_SYNTH, 5)
    b = rand.normals(4, rand.PURPOSE_SYNTH, 6)
    assert a.shape == (5,)
    assert np.array_equal(a, b[:5])


def test_normals_moments():
    x = rand.normals(2024, rand.PURPOSE_DENSE_INIT, 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_purpose_separates_streams():
    a = rand.uniforms(5, rand.PURPOSE_LBC_BANK, 16)
    b = rand.uniforms(5, rand.PURPOSE_BIOHASH, 16)
    assert not np.array_equal(a, b)


def test_seed_separates_streams():
    a = rand.uniforms(5, rand.PURPOSE_BIOHASH, 16)
    b = rand.uniforms(6, rand.PURPOSE_BIOHASH, 16)
    assert not np.array_equal(a, b)


def test_same_inputs_reproduce():
    a = rand.uniforms(5, rand.PURPOSE_BIOHASH, 64)
    b = rand.uniforms(5, rand.PURPOSE_BIOHASH, 64)
    assert np.array_equal(a, b)


def test_prefix_stability():
    # Drawing more values never changes the earlier part of the stream.
    short = rand.uniforms(17, rand.PURPOSE_SHUFFLE, 10)
    long = rand.uniforms(17, rand.PURPOSE_SHUFFLE, 1000)
    assert np.array_equal(short, long[:10])


def test_permutation_is_a_permutation():
    p = rand.permutation(5, rand.PURPOSE_SHUFFLE, 6)
    assert p.tolist() == [5, 1, 4, 2, 0, 3]
    assert sorted(p.tolist()) == list(range(6))


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=1, max_value=200))
def test_permutation_property(seed, n):
    p = rand.permutation(seed, rand.PURPOSE_SHUFFLE, n)
    assert sorted(p.tolist()) == list(range(n))


def test_derive_seed_frozen_values():
    assert rand.derive_seed("alice") == 5614559425216174729
    assert rand.derive_seed(7, "user", 3) == 514853553530920856


def test_derive_seed_order_and_boundaries_matter():
    assert rand.derive_seed("ab", "c") != rand.derive_seed("a", "bc")
    assert rand.derive_seed(1, 2) != rand.derive_seed(2, 1)


def test_derive_seed_fits_uint64():
    for parts in (("x",), (0,), ("user", 41, "major")):
        s = rand.derive_seed(*parts)
        assert 0 <= s < 2**64


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        rand.uniforms(1, rand.PURPOSE_BIOHASH, -1)
