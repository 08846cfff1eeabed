"""Numeric kernels for the fixed-filter feature network.

Everything is float64 and pure: inputs are never mutated (conv_stage's
``keep`` is an output), and each forward op has a matching analytic-gradient
helper used by the trainer.  Convolution means correlation (kernels are not
flipped) with replicate-edge padding, so output size equals input size and
zero-sum kernels null constant inputs even at the borders.

Convolution is one matrix product over shifted views.  The forward pass
stacks the kh*kw shifted views of the padded map into a (kh*kw, n) tap
matrix and multiplies it by the (K, kh*kw) kernel matrix; the backward pass
multiplies the transposed kernel matrix by the (K, H*W) gradient and adds
each of the kh*kw rows back into the padded grid at its shift.  With the
package's ternary banks every product is exact, so where the BLAS kernel
sums the taps of each output cell in row-major kernel order, as a sliding-
window contraction does, the forward matches one bit for bit.  That order
is the BLAS kernel's choice: OpenBLAS's SkylakeX kernel keeps it, and its
Haswell kernel (OPENBLAS_CORETYPE=Haswell) does not.  The backward sums
over kernels before shifts, so its results differ from a per-shift
correlation by rounding only (a few ulps).

conv2d forms the whole (K, H, W) response in one product (n = H*W).
conv_stage is a network stage, conv2d then ReLU then the 1x1 combine, run
one row band at a time: each band's (K, rows*W) response is small enough to
stay in cache (BAND_BYTES) while it is rectified in place and combined into
its rows of the (H, W) output, so inference never writes a whole response
to memory.  A cell's taps, its ReLU and its combine are the same operations
in either form, so the two agree bit for bit.  Training asks conv_stage to
keep the rectified response, which it then writes as one band into the
caller's array, the way conv2d would.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, TrainingError

# Bytes of one row band of a stage's (K, rows*W) bank response in
# conv_stage: small enough to stay in a per-core L2 cache between the
# product that writes it and the combine that reads it.
BAND_BYTES = 512 * 1024

__all__ = [
    "conv2d",
    "conv_stage",
    "conv2d_input_grad",
    "relu",
    "relu_grad",
    "combine1x1",
    "combine1x1_grads",
    "maxpool2",
    "maxpool2_grad",
    "softmax",
    "SgdMomentum",
]


def _as_kernel_stack(kernels) -> np.ndarray:
    stack = np.asarray(kernels, dtype=np.float64)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.ndim != 3:
        raise DimensionError(f"kernel stack must be (count, kh, kw), got shape {stack.shape}")
    kh, kw = stack.shape[1:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"kernels must have odd spatial dims for same-size output, got {kh}x{kw}")
    return stack


def _check_map(image, op: str) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise DimensionError(f"{op} expects a non-empty 2-D map, got shape {img.shape}")
    return img


def _check_out(out: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"{what} must be C-contiguous float64 {shape}, got {out.dtype} {out.shape}")


def _edge_pad(img: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Replicate-edge padding, equal to np.pad(mode="edge") but done in five
    slice copies: on a 64x128 map np.pad's general path took about 80 us
    (2-vCPU Xeon VM), more than one row band of a stage, against about
    10 us here."""
    h, w = img.shape
    out = np.empty((h + 2 * ph, w + 2 * pw))
    out[ph:ph + h, pw:pw + w] = img
    out[ph:ph + h, :pw] = img[:, :1]
    out[ph:ph + h, pw + w:] = img[:, -1:]
    out[:ph] = out[ph]
    out[ph + h:] = out[ph + h - 1]
    return out


def _fill_shifted(padded: np.ndarray, r0: int, rows: int, kh: int, kw: int, out: np.ndarray) -> np.ndarray:
    """Write the kh*kw shifted views behind output rows [r0, r0+rows) of a
    same-size correlation over ``padded`` into ``out`` and return it as the
    (kh*kw, rows*W) tap matrix."""
    w = padded.shape[1] - kw + 1
    views = out[:kh * kw * rows * w].reshape(kh, kw, rows, w)
    for i in range(kh):
        for j in range(kw):
            views[i, j] = padded[r0 + i:r0 + i + rows, j:j + w]
    return views.reshape(kh * kw, rows * w)


def conv2d(image: np.ndarray, kernels) -> np.ndarray:
    """Correlate one 2-D map with a stack of kernels, same-size output.

    Args:
        image: (H, W) array.
        kernels: (K, kh, kw) stack (or a single 2-D kernel); odd dims only.

    Returns:
        (K, H, W) array; channel k is the correlation of image with kernel k.
    """
    img = _check_map(image, "conv2d")
    stack = _as_kernel_stack(kernels)
    k, kh, kw = stack.shape
    h, w = img.shape
    out = np.empty((k, h, w))
    padded = _edge_pad(img, kh // 2, kw // 2)
    taps = _fill_shifted(padded, 0, h, kh, kw, np.empty(kh * kw * h * w))
    np.matmul(stack.reshape(k, kh * kw), taps, out=out.reshape(k, h * w))
    return out


def conv_stage(image: np.ndarray, kernels, weights: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """One network stage: combine1x1(relu(conv2d(image, kernels)), weights).

    Without ``keep`` the (K, H, W) bank response is formed one row band at a
    time, each band small enough (BAND_BYTES) to stay in cache while it is
    rectified in place and combined into its rows of the (H, W) result, so
    the whole response is never held.  With ``keep`` the response is wanted
    whole, and it is formed as one band written straight into ``keep``.
    Every band runs the same tap-matrix product and combine as the
    whole-map ops, so the result equals the composition of conv2d, relu and
    combine1x1 bit for bit.

    Args:
        image: (H, W) map.
        kernels: (K, kh, kw) stack (or a single 2-D kernel); odd dims only.
        weights: (K,) combine weights.
        keep: optional C-contiguous float64 (K, H, W) array; the rectified
            response relu(conv2d(image, kernels)) is written into it, as the
            backward pass needs.

    Returns:
        (H, W) combined map.
    """
    img = _check_map(image, "conv_stage")
    stack = _as_kernel_stack(kernels)
    k, kh, kw = stack.shape
    wts = np.asarray(weights, dtype=np.float64)
    if wts.shape != (k,):
        raise DimensionError(f"conv_stage got {k} kernels and weights of shape {wts.shape}")
    h, w = img.shape
    padded = _edge_pad(img, kh // 2, kw // 2)
    matrix = stack.reshape(k, kh * kw)
    if keep is None:
        rows = max(1, min(h, BAND_BYTES // (8 * k * w)))
        band_buf = np.empty(k * rows * w)
    else:
        # The whole response is wanted, so it is one band written in place.
        _check_out(keep, (k, h, w), "conv_stage keep")
        rows = h
        band_buf = keep.reshape(k * h * w)
    taps_buf = np.empty(kh * kw * rows * w)
    out = np.empty((h, w))
    flat = out.reshape(h * w)
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        cells = slice(r0 * w, (r0 + n) * w)
        band = band_buf[:k * n * w].reshape(k, n * w)
        np.matmul(matrix, _fill_shifted(padded, r0, n, kh, kw, taps_buf), out=band)
        np.maximum(band, 0.0, out=band)
        np.matmul(wts, band, out=flat[cells])
    return out


def _replicate_pad_adjoint(grad_padded: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Fold gradients on replicated border cells back onto their sources."""
    hp, wp = grad_padded.shape
    h, w = hp - 2 * ph, wp - 2 * pw
    rows = grad_padded[ph:ph + h, :].copy()
    if ph:
        rows[0, :] += grad_padded[:ph, :].sum(axis=0)
        rows[-1, :] += grad_padded[ph + h:, :].sum(axis=0)
    out = rows[:, pw:pw + w].copy()
    if pw:
        out[:, 0] += rows[:, :pw].sum(axis=1)
        out[:, -1] += rows[:, pw + w:].sum(axis=1)
    return out


def conv2d_input_grad(grad_out: np.ndarray, kernels, input_shape: tuple[int, int]) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input map.

    grad_out is (K, H, W); returns (H, W).  The op is linear, so the input
    value itself is not needed.
    """
    stack = _as_kernel_stack(kernels)
    k, kh, kw = stack.shape
    h, w = input_shape
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (k, h, w):
        raise DimensionError(f"grad shape {g.shape} does not match (K={k}, {h}, {w})")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    # Row (i, j) of taps is the gradient reaching the input view shifted by
    # (i, j); adding each view back at its shift gives d/d(padded input).
    taps = (stack.reshape(k, kh * kw).T @ g.reshape(k, h * w)).reshape(kh, kw, h, w)
    acc = np.zeros((h + 2 * ph, w + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            acc[i:i + h, j:j + w] += taps[i, j]
    return _replicate_pad_adjoint(acc, ph, pw)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink.
    return np.where(np.asarray(x) > 0.0, grad_out, 0.0)


def combine1x1(maps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of channels: (C, H, W) x (C,) -> (H, W)."""
    m = np.asarray(maps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if m.ndim != 3 or w.ndim != 1 or m.shape[0] != w.shape[0]:
        raise DimensionError(f"combine1x1 got maps {m.shape} and weights {w.shape}")
    return (w @ m.reshape(m.shape[0], -1)).reshape(m.shape[1:])


def combine1x1_grads(maps: np.ndarray, weights: np.ndarray, grad_out: np.ndarray):
    """Returns (d_weights, d_pre) for combine1x1(relu(pre), weights), given
    the rectified maps relu(pre).

    d_pre is the gradient with respect to the ReLU input: w[c] * grad_out
    on the cells where maps > 0 and 0 elsewhere (subgradient 0 at the
    kink), formed in one product without a separate relu_grad pass.
    """
    m = np.asarray(maps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    flat = m.reshape(m.shape[0], -1)
    d_w = flat @ g
    d_pre = np.multiply(flat > 0.0, w[:, None])
    d_pre *= g
    return d_w, d_pre.reshape(m.shape)


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over the last two axes."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError(f"maxpool2 needs at least 2 dims, got shape {a.shape}")
    h, w = a.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    top = np.maximum(a[..., 0::2, 0::2], a[..., 0::2, 1::2])
    return np.maximum(top, np.maximum(a[..., 1::2, 0::2], a[..., 1::2, 1::2]), out=top)


def maxpool2_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route pooled gradients to the first maximum of each 2x2 block."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"maxpool2_grad expects a 2-D map, got shape {a.shape}")
    h, w = a.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2_grad requires even spatial dims, got {h}x{w}")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (h // 2, w // 2):
        raise DimensionError(f"pooled grad shape {g.shape} does not match input {a.shape}")
    blocks = a.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 4)
    idx = blocks.argmax(axis=1)
    out = np.zeros((h // 2 * (w // 2), 4), dtype=np.float64)
    out[np.arange(out.shape[0]), idx] = g.ravel()
    return out.reshape(h // 2, w // 2, 2, 2).transpose(0, 2, 1, 3).reshape(h, w)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    e = np.exp(shifted)
    return e / e.sum()


class SgdMomentum:
    """Momentum SGD on a parameter vector: v <- momentum*v - lr*grad;
    theta <- theta + v.

    The velocity starts at zero, so with momentum 0 the update reduces to
    plain gradient descent.
    """

    def __init__(self, lr: float, momentum: float = 0.9):
        if not (lr > 0.0 and np.isfinite(lr)):
            raise TrainingError(f"learning rate must be positive and finite, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise TrainingError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity: np.ndarray | None = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return the updated parameters as a new vector; the velocity
        advances."""
        if grad.shape != theta.shape:
            raise TrainingError(f"gradient shape {grad.shape} mismatches parameters {theta.shape}")
        if not np.isfinite(grad).all():
            raise TrainingError("non-finite gradient")
        v = np.zeros_like(theta) if self.velocity is None else self.velocity
        self.velocity = self.momentum * v - self.lr * grad
        return theta + self.velocity
