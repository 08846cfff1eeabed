import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dorsalhash import ops
from dorsalhash.errors import DimensionError, TrainingError
from dorsalhash.network import FixedFilterNet, NetworkConfig


# Sliding-window references for the convolution kernels: a tensordot over
# the window view for the forward, and a full correlation with the flipped
# kernels for the input gradient.

def reference_conv2d(image, kernels):
    k, kh, kw = kernels.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    padded = np.pad(image, ((ph, ph), (pw, pw)), mode="edge")
    windows = sliding_window_view(padded, (kh, kw))
    out = np.tensordot(windows, kernels, axes=([2, 3], [1, 2]))
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def reference_conv2d_input_grad(grad_out, kernels):
    k, kh, kw = kernels.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    gp = np.pad(grad_out, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    win = sliding_window_view(gp, (kh, kw), axis=(1, 2))
    acc = np.einsum("kabuv,kuv->ab", win, kernels[:, ::-1, ::-1], optimize=True)
    return ops._replicate_pad_adjoint(acc, ph, pw)


# Reference for the 1x1 combine's gradients with no ReLU behind it: the
# per-channel dot product for the weights and the outer product of the
# weights with the incoming gradient for the maps.

def reference_combine1x1_grads(maps, weights, grad_out):
    d_w = np.array([np.sum(grad_out * maps[i]) for i in range(maps.shape[0])])
    return d_w, np.outer(weights, grad_out).reshape(maps.shape)


def package_banks(lbc_seed):
    cfg = NetworkConfig(num_classes=2, input_height=16, input_width=32,
                        fc1_dim=8, fc2_dim=128, lbc_seed=lbc_seed)
    return FixedFilterNet.build(cfg).banks


# -- convolution --------------------------------------------------------------

def test_conv_1x1_kernel_scales():
    out = ops.conv2d(np.array([[2.0]]), np.array([[[3.0]]]))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 6.0


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    img = rng.standard_normal((6, 9))
    delta = np.zeros((1, 3, 5))
    delta[0, 1, 2] = 1.0
    out = ops.conv2d(img, delta)
    assert np.array_equal(out[0], img)


def test_conv_plus_minus_pair_kernel_kills_constant_input():
    # One +1 and one -1 cell per kernel, like the difference banks.  With
    # replicate padding a constant image stays constant, so the response
    # must be exactly zero, not merely small.
    rng = np.random.default_rng(4)
    kernels = np.zeros((6, 3, 5))
    for k in kernels:
        a, b = rng.choice(15, size=2, replace=False)
        k.flat[a], k.flat[b] = 1.0, -1.0
    out = ops.conv2d(np.full((8, 16), 0.37), kernels)
    assert np.all(out == 0.0)


def test_conv_replicate_padding_edge_values():
    img = np.array([[1.0, 2.0, 3.0]])
    k = np.zeros((1, 3, 5))
    k[0, 1, 0] = 1.0  # reads two columns to the left
    out = ops.conv2d(img, k)
    assert out[0].tolist() == [[1.0, 1.0, 1.0]]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_conv_linearity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 10))
    b = rng.standard_normal((5, 10))
    k = rng.standard_normal((3, 3, 5))
    lhs = ops.conv2d(a + 2.0 * b, k)
    rhs = ops.conv2d(a, k) + 2.0 * ops.conv2d(b, k)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_conv_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        ops.conv2d(np.zeros((2, 2, 2)), np.zeros((1, 3, 5)))
    with pytest.raises(DimensionError):
        ops.conv2d(np.zeros((4, 4)), np.zeros(5))


def test_conv_accepts_single_2d_kernel():
    out = ops.conv2d(np.ones((4, 6)), np.ones((3, 5)))
    assert out.shape == (1, 4, 6)


@pytest.mark.parametrize("lbc_seed", [0, 7, 123456789])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 255.0])
def test_conv_matches_reference_bit_for_bit_on_package_banks(lbc_seed, scale):
    # Ternary taps make every product exact and both sum the taps in the
    # same order, so the package's banks give identical bits.
    rng = np.random.default_rng(lbc_seed)
    for bank in package_banks(lbc_seed):
        for shape in ((16, 32), (5, 7)):
            img = scale * rng.uniform(0, 1, shape)
            assert np.array_equal(ops.conv2d(img, bank), reference_conv2d(img, bank))


def test_conv_matches_reference_with_real_kernels():
    rng = np.random.default_rng(30)
    for k_count, shape in ((1, (4, 6)), (5, (9, 13)), (64, (16, 32))):
        img = rng.standard_normal(shape)
        kern = rng.standard_normal((k_count, 3, 5))
        np.testing.assert_allclose(ops.conv2d(img, kern), reference_conv2d(img, kern),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lbc_seed", [0, 7])
def test_conv_input_grad_matches_reference(lbc_seed):
    rng = np.random.default_rng(31 + lbc_seed)
    kernels = list(package_banks(lbc_seed)) + [rng.standard_normal((6, 3, 5))]
    for kern in kernels:
        g = rng.standard_normal((kern.shape[0], 16, 32))
        np.testing.assert_allclose(ops.conv2d_input_grad(g, kern, (16, 32)),
                                   reference_conv2d_input_grad(g, kern),
                                   rtol=1e-12, atol=1e-12)


def test_conv_input_grad_is_adjoint():
    rng = np.random.default_rng(7)
    for k_count in (1, 4):
        a = rng.standard_normal((9, 13))
        kern = rng.standard_normal((k_count, 3, 5))
        g = rng.standard_normal((k_count, 9, 13))
        lhs = np.sum(g * ops.conv2d(a, kern))
        rhs = np.sum(ops.conv2d_input_grad(g, kern, a.shape) * a)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_conv_rejects_an_empty_map():
    for shape in ((0, 8), (8, 0), (0, 0)):
        with pytest.raises(DimensionError, match="non-empty"):
            ops.conv2d(np.zeros(shape), np.zeros((2, 3, 5)))


# -- fused stage ----------------------------------------------------------------

def reference_stage(image, kernels, weights):
    return ops.combine1x1(ops.relu(reference_conv2d(image, kernels)), weights)


# Small maps, the 64x128 stage-1 to stage-4 map and the 32x64 stage-5 map.
# "rows" sets the band height: the default size (one band on the small maps,
# several on the large ones, not always dividing the map), single rows and
# three rows.  With ``keep`` the response is always one band.
STAGE_SHAPES = ((8, 16), (6, 12), (64, 128), (32, 64))


@pytest.mark.parametrize("lbc_seed", [0, 7, 123456789])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 255.0])
def test_conv_stage_matches_composition_bit_for_bit(monkeypatch, lbc_seed, scale):
    rng = np.random.default_rng(lbc_seed)
    default = ops.BAND_BYTES
    for bank in package_banks(lbc_seed):
        k = bank.shape[0]
        w = rng.standard_normal(k)
        for shape in STAGE_SHAPES:
            img = scale * rng.uniform(0, 1, shape)
            rectified = ops.relu(ops.conv2d(img, bank))
            assert np.array_equal(rectified, ops.relu(reference_conv2d(img, bank)))
            expect = ops.combine1x1(rectified, w)
            assert np.array_equal(expect, reference_stage(img, bank, w))
            for rows in (None, 1, 3):
                band_bytes = default if rows is None else rows * 8 * k * shape[1]
                monkeypatch.setattr(ops, "BAND_BYTES", band_bytes)
                assert np.array_equal(ops.conv_stage(img, bank, w), expect)
                keep = np.full((k,) + shape, np.nan)
                assert np.array_equal(ops.conv_stage(img, bank, w, keep=keep), expect)
                assert np.array_equal(keep, rectified)


def test_conv_stage_band_counts():
    # The default band size splits the full-size maps into several bands,
    # not all of them full, and keeps the small maps in one.
    def rows(k, w):
        return max(1, ops.BAND_BYTES // (8 * k * w))
    assert rows(12, 16) >= 8 and rows(128, 12) >= 6
    assert 64 % rows(12, 128) and 64 % rows(24, 128) and 64 % rows(36, 128)
    assert 1 < 64 // rows(64, 128) and 1 < 32 // rows(128, 64)


def test_conv_stage_accepts_single_2d_kernel():
    img = np.random.default_rng(40).uniform(0, 1, (4, 6))
    kern = np.ones((3, 5))
    w = np.array([0.5])
    assert np.array_equal(ops.conv_stage(img, kern, w), ops.combine1x1(ops.relu(ops.conv2d(img, kern)), w))


def test_conv_stage_rejects_bad_inputs():
    bank = package_banks(0)[0]
    w = np.ones(bank.shape[0])
    img = np.zeros((6, 10))
    for bad_img in (np.zeros((0, 8)), np.zeros((8, 0)), np.zeros(8), np.zeros((2, 6, 10))):
        with pytest.raises(DimensionError):
            ops.conv_stage(bad_img, bank, w)
    for bad_w in (np.ones(bank.shape[0] + 1), np.ones((bank.shape[0], 1))):
        with pytest.raises(DimensionError):
            ops.conv_stage(img, bank, bad_w)


def test_conv_stage_writes_into_keep():
    rng = np.random.default_rng(32)
    img = rng.uniform(0, 1, (6, 10))
    kern = package_banks(0)[3]
    w = rng.standard_normal(kern.shape[0])
    block = np.full(2 * kern.shape[0] * img.size, np.nan)
    keep = block[:kern.shape[0] * img.size].reshape(-1, *img.shape)
    ops.conv_stage(img, kern, w, keep=keep)
    assert np.array_equal(keep, ops.relu(ops.conv2d(img, kern)))
    assert np.isnan(block[keep.size:]).all()
    # Wrong shape, wrong dtype, not contiguous.
    for bad in (np.empty((kern.shape[0], 6, 9)), np.empty((kern.shape[0], 6, 10), dtype=np.float32),
                np.empty((kern.shape[0], 6, 20))[:, :, ::2]):
        with pytest.raises(DimensionError):
            ops.conv_stage(img, kern, w, keep=bad)


# -- relu / combine / pooling -------------------------------------------------

def test_relu_and_subgradient():
    x = np.array([-2.0, 0.0, 3.0])
    assert ops.relu(x).tolist() == [0.0, 0.0, 3.0]
    g = ops.relu_grad(x, np.ones(3))
    assert g.tolist() == [0.0, 0.0, 1.0]


def test_combine1x1_weighted_sum():
    maps = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 10.0)])
    out = ops.combine1x1(maps, np.array([0.5, 0.25]))
    assert np.all(out == 3.0)


def test_combine1x1_grads():
    rng = np.random.default_rng(11)
    maps = ops.relu(rng.standard_normal((3, 4, 4)))
    w = rng.standard_normal(3)
    g = rng.standard_normal((4, 4))
    d_w, d_pre = ops.combine1x1_grads(maps, w, g)
    expect_w, expect_maps = reference_combine1x1_grads(maps, w, g)
    assert np.allclose(d_w, expect_w, rtol=1e-12)
    assert np.allclose(d_pre, np.where(maps > 0.0, expect_maps, 0.0), rtol=1e-12)


def test_combine1x1_grads_rectified_is_relu_pullback():
    rng = np.random.default_rng(12)
    pre = rng.standard_normal((5, 4, 6))
    pre[0, 0, 0] = 0.0  # the kink passes no gradient
    w = rng.standard_normal(5)
    g = rng.standard_normal((4, 6))
    maps = ops.relu(pre)
    d_w, d_maps = reference_combine1x1_grads(maps, w, g)
    d_w_fused, d_pre = ops.combine1x1_grads(maps, w, g)
    assert np.array_equal(d_w_fused, maps.reshape(5, -1) @ g.ravel())
    assert np.allclose(d_w_fused, d_w, rtol=1e-12)
    assert np.array_equal(d_pre, ops.relu_grad(pre, d_maps))
    assert d_pre[0, 0, 0] == 0.0


def test_maxpool2_block_maxima():
    img = np.arange(16.0).reshape(4, 4)
    out = ops.maxpool2(img)
    assert out.tolist() == [[5.0, 7.0], [13.0, 15.0]]


def test_maxpool2_needs_even_dims():
    with pytest.raises(DimensionError):
        ops.maxpool2(np.zeros((3, 4)))


def test_maxpool2_needs_two_dims():
    for bad in (np.zeros(4), np.float64(1.0)):
        with pytest.raises(DimensionError):
            ops.maxpool2(bad)


def reference_maxpool2(x):
    h, w = x.shape[-2:]
    return x.reshape(x.shape[:-2] + (h // 2, 2, w // 2, 2)).max(axis=(-3, -1))


@pytest.mark.parametrize("shape", [(2, 2), (4, 6), (64, 128), (3, 8, 4)])
def test_maxpool2_matches_reshape_max(shape):
    rng = np.random.default_rng(41)
    ties = rng.integers(-2, 3, size=shape).astype(np.float64)  # many tied blocks
    negative = -rng.uniform(1, 2, size=shape)
    for x in (ties, negative, np.full(shape, -3.0)):
        got = ops.maxpool2(x)
        assert np.array_equal(got, reference_maxpool2(x))
        assert got.shape == shape[:-2] + (shape[-2] // 2, shape[-1] // 2)


def test_maxpool2_grad_routes_to_argmax():
    img = np.array([[1.0, 4.0], [2.0, 3.0]])
    g = ops.maxpool2_grad(img, np.array([[5.0]]))
    assert g.tolist() == [[0.0, 5.0], [0.0, 0.0]]


def test_maxpool2_grad_needs_even_dims():
    # (3, 4) halves to (1, 2), so only the parity check can catch it.
    with pytest.raises(DimensionError, match="even"):
        ops.maxpool2_grad(np.zeros((3, 4)), np.zeros((1, 2)))
    with pytest.raises(DimensionError, match="even"):
        ops.maxpool2_grad(np.zeros((4, 5)), np.zeros((2, 2)))


def test_maxpool2_grad_tie_takes_first():
    img = np.full((2, 2), 7.0)
    g = ops.maxpool2_grad(img, np.array([[1.0]]))
    assert g.sum() == 1.0
    assert g[0, 0] == 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_maxpool2_grad_conserves_mass(seed):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((6, 8))
    up = rng.standard_normal((3, 4))
    g = ops.maxpool2_grad(img, up)
    assert np.isclose(g.sum(), up.sum(), rtol=1e-12)


# -- dense layers -------------------------------------------------------------

def test_softmax_normalizes_and_shifts():
    z = np.array([1.0, 2.0, 3.0])
    p = ops.softmax(z)
    assert np.isclose(p.sum(), 1.0, rtol=1e-12)
    assert np.allclose(p, ops.softmax(z + 500.0), rtol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    p = ops.softmax(np.array([1e4, 0.0, -1e4]))
    assert np.all(np.isfinite(p))
    assert np.isclose(p.sum(), 1.0)


# -- optimizer ----------------------------------------------------------------

def test_sgd_single_step_no_momentum():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.0)
    theta = np.array([1.0, 2.0])
    new = opt.step(theta, np.array([1.0, -1.0]))
    assert new.tolist() == [0.9, 2.1]
    assert theta.tolist() == [1.0, 2.0]  # a new vector; the old one is untouched


def test_sgd_momentum_recurrence():
    # v1 = -lr*g = -0.1 ; p1 = 0.9
    # v2 = 0.5*v1 - lr*g = -0.15 ; p2 = 0.75
    opt = ops.SgdMomentum(lr=0.1, momentum=0.5)
    p = np.array([1.0])
    g = np.array([1.0])
    p = opt.step(p, g)
    assert np.isclose(p[0], 0.9)
    p = opt.step(p, g)
    assert np.isclose(p[0], 0.75)


def test_sgd_rejects_non_finite_grads():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.9)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(TrainingError):
            opt.step(np.array([1.0, 1.0]), np.array([0.5, bad]))
    assert opt.velocity is None


def test_sgd_rejects_shape_mismatch():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.9)
    with pytest.raises(TrainingError):
        opt.step(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(TrainingError):
        opt.step(np.zeros(6), np.zeros((2, 3)))


# -- numeric gradient checks ---------------------------------------------------

FD_STEP = 1e-4


def central_diff(f, x, step=FD_STEP):
    """d f(x) / dx by central differences, one flat entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.ravel()[i] = step
        flat[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return grad


def test_conv_input_grad_matches_finite_differences():
    rng = np.random.default_rng(20)
    img = rng.uniform(0, 1, (6, 8))
    kern = rng.standard_normal((2, 3, 5))
    cost = rng.standard_normal((2, 6, 8))
    analytic = ops.conv2d_input_grad(cost, kern, img.shape)
    numeric = central_diff(lambda x: np.sum(cost * ops.conv2d(x, kern)), img)
    assert np.allclose(analytic, numeric, atol=1e-8)


def test_combine_grads_match_finite_differences():
    # The gradients of combine1x1(relu(pre), w) with respect to w and pre.
    rng = np.random.default_rng(21)
    pre = rng.standard_normal((3, 4, 6))
    pre[np.abs(pre) < 1e-2] = 0.5  # keep every cell away from the kink
    w = rng.standard_normal(3)
    cost = rng.standard_normal((4, 6))
    d_w, d_pre = ops.combine1x1_grads(ops.relu(pre), w, cost)
    num_w = central_diff(lambda ww: np.sum(cost * ops.combine1x1(ops.relu(pre), ww)), w)
    num_pre = central_diff(lambda pp: np.sum(cost * ops.combine1x1(ops.relu(pp), w)), pre)
    assert np.allclose(d_w, num_w, atol=1e-8)
    assert np.allclose(d_pre, num_pre, atol=1e-8)


def test_maxpool_grad_matches_finite_differences():
    rng = np.random.default_rng(22)
    # Entries spaced well apart so the FD step cannot flip a block argmax.
    x = rng.permutation(24).astype(np.float64).reshape(4, 6)
    cost = rng.standard_normal((2, 3))
    analytic = ops.maxpool2_grad(x, cost)
    numeric = central_diff(lambda xx: np.sum(cost * ops.maxpool2(xx)), x)
    assert np.allclose(analytic, numeric, atol=1e-8)


def test_relu_grad_matches_finite_differences_off_kink():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(40)
    x[np.abs(x) < 1e-2] = 0.5  # keep every coordinate away from the kink
    cost = rng.standard_normal(40)
    analytic = ops.relu_grad(x, cost)
    numeric = central_diff(lambda xx: np.sum(cost * ops.relu(xx)), x)
    assert np.allclose(analytic, numeric, atol=1e-8)


def test_softmax_pullback_matches_finite_differences():
    rng = np.random.default_rng(24)
    z = rng.standard_normal(7)
    cost = rng.standard_normal(7)
    p = ops.softmax(z)
    analytic = p * cost - p * np.dot(p, cost)
    numeric = central_diff(lambda zz: np.dot(cost, ops.softmax(zz)), z)
    assert np.allclose(analytic, numeric, atol=1e-7)
