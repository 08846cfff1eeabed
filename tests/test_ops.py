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


def test_conv_writes_into_out():
    rng = np.random.default_rng(32)
    img = rng.uniform(0, 1, (6, 10))
    kern = package_banks(0)[3]
    block = np.full(2 * kern.shape[0] * img.size, np.nan)
    out = block[:kern.shape[0] * img.size].reshape(-1, *img.shape)
    assert ops.conv2d(img, kern, out=out) is out
    assert np.array_equal(out, ops.conv2d(img, kern))
    assert np.isnan(block[out.size:]).all()
    for bad in (np.empty((kern.shape[0], 6, 9)), np.empty((kern.shape[0], 6, 10), dtype=np.float32),
                np.empty((kern.shape[0], 6, 20))[:, :, ::2]):
        with pytest.raises(DimensionError):
            ops.conv2d(img, kern, out=bad)


def test_conv_input_grad_is_adjoint():
    rng = np.random.default_rng(7)
    for k_count in (1, 4):
        a = rng.standard_normal((9, 13))
        kern = rng.standard_normal((k_count, 3, 5))
        g = rng.standard_normal((k_count, 9, 13))
        lhs = np.sum(g * ops.conv2d(a, kern))
        rhs = np.sum(ops.conv2d_input_grad(g, kern, a.shape) * a)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


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
    maps = rng.standard_normal((3, 4, 4))
    w = rng.standard_normal(3)
    g = rng.standard_normal((4, 4))
    d_w, d_maps = ops.combine1x1_grads(maps, w, g)
    expect_w = np.array([np.sum(g * maps[i]) for i in range(3)])
    assert np.allclose(d_w, expect_w, rtol=1e-12)
    assert np.allclose(d_maps, w[:, None, None] * g, rtol=1e-12)


def test_combine1x1_grads_rectified_is_relu_pullback():
    rng = np.random.default_rng(12)
    pre = rng.standard_normal((5, 4, 6))
    pre[0, 0, 0] = 0.0  # the kink passes no gradient
    w = rng.standard_normal(5)
    g = rng.standard_normal((4, 6))
    maps = ops.relu(pre)
    d_w, d_maps = ops.combine1x1_grads(maps, w, g)
    d_w_fused, d_pre = ops.combine1x1_grads(maps, w, g, rectified=True)
    assert np.array_equal(d_w_fused, d_w)
    assert np.array_equal(d_pre, ops.relu_grad(pre, d_maps))
    assert d_pre[0, 0, 0] == 0.0


def test_maxpool2_block_maxima():
    img = np.arange(16.0).reshape(4, 4)
    out = ops.maxpool2(img)
    assert out.tolist() == [[5.0, 7.0], [13.0, 15.0]]


def test_maxpool2_needs_even_dims():
    with pytest.raises(DimensionError):
        ops.maxpool2(np.zeros((3, 4)))


def test_maxpool2_grad_routes_to_argmax():
    img = np.array([[1.0, 4.0], [2.0, 3.0]])
    g = ops.maxpool2_grad(img, np.array([[5.0]]))
    assert g.tolist() == [[0.0, 5.0], [0.0, 0.0]]


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

def test_dense_forward_linear_oracle():
    layer = ops.DenseLayer(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 0.0]))
    out = ops.dense_forward(layer, np.array([3.0, 4.0]), activation="linear")
    assert out.tolist() == [11.5, -4.0]


def test_dense_forward_relu_clips():
    layer = ops.DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2))
    out = ops.dense_forward(layer, np.array([2.0]), activation="relu")
    assert out.tolist() == [2.0, 0.0]


def test_softmax_normalizes_and_shifts():
    z = np.array([1.0, 2.0, 3.0])
    p = ops.softmax(z)
    assert np.isclose(p.sum(), 1.0, rtol=1e-12)
    assert np.allclose(p, ops.softmax(z + 500.0), rtol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    p = ops.softmax(np.array([1e4, 0.0, -1e4]))
    assert np.all(np.isfinite(p))
    assert np.isclose(p.sum(), 1.0)


def test_dense_layer_shape_validation():
    with pytest.raises(DimensionError):
        ops.DenseLayer(np.zeros((2, 3)), np.zeros(3))


# -- optimizer ----------------------------------------------------------------

def test_sgd_single_step_no_momentum():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.0)
    new = opt.step({"p": np.array([1.0])}, {"p": np.array([1.0])})
    assert new["p"].tolist() == [0.9]


def test_sgd_momentum_recurrence():
    # v1 = -lr*g = -0.1 ; p1 = 0.9
    # v2 = 0.5*v1 - lr*g = -0.15 ; p2 = 0.75
    opt = ops.SgdMomentum(lr=0.1, momentum=0.5)
    p = {"p": np.array([1.0])}
    g = {"p": np.array([1.0])}
    p = opt.step(p, g)
    assert np.isclose(p["p"][0], 0.9)
    p = opt.step(p, g)
    assert np.isclose(p["p"][0], 0.75)


def test_sgd_rejects_non_finite_grads():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.9)
    with pytest.raises(TrainingError):
        opt.step({"p": np.array([1.0])}, {"p": np.array([np.nan])})


def test_sgd_rejects_shape_mismatch():
    opt = ops.SgdMomentum(lr=0.1, momentum=0.9)
    with pytest.raises(TrainingError):
        opt.step({"p": np.array([1.0])}, {"p": np.array([1.0, 2.0])})


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
    rng = np.random.default_rng(21)
    maps = rng.standard_normal((3, 4, 6))
    w = rng.standard_normal(3)
    cost = rng.standard_normal((4, 6))
    d_w, d_maps = ops.combine1x1_grads(maps, w, cost)
    num_w = central_diff(lambda ww: np.sum(cost * ops.combine1x1(maps, ww)), w)
    num_maps = central_diff(lambda mm: np.sum(cost * ops.combine1x1(mm, w)), maps)
    assert np.allclose(d_w, num_w, atol=1e-8)
    assert np.allclose(d_maps, num_maps, atol=1e-8)


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
