"""Numeric kernels for the fixed-filter feature network.

Everything is float64 and pure: inputs are never mutated, and each forward
op has a matching analytic-gradient helper used by the trainer.  Convolution
means correlation (kernels are not flipped) with replicate-edge padding, so
output size equals input size and zero-sum kernels null constant inputs even
at the borders.

Convolution is one matrix product over shifted views.  The forward pass
stacks the kh*kw shifted views of the padded map into a (kh*kw, H*W) array
and multiplies it by the (K, kh*kw) kernel matrix; the backward pass
multiplies the transposed kernel matrix by the (K, H*W) gradient and adds
each of the kh*kw rows back into the padded grid at its shift.  The forward
sums the taps of each output cell in row-major kernel order, as a sliding-
window contraction does, so with the package's ternary banks (every product
exact) it matches one bit for bit.  The backward sums over kernels before
shifts, so its results differ from a per-shift correlation by rounding
only (a few ulps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrainingError

__all__ = [
    "conv2d",
    "conv2d_input_grad",
    "relu",
    "relu_grad",
    "combine1x1",
    "combine1x1_grads",
    "maxpool2",
    "maxpool2_grad",
    "DenseLayer",
    "dense_forward",
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


def conv2d(image: np.ndarray, kernels, padding: str = "replicate", out: np.ndarray | None = None) -> np.ndarray:
    """Correlate one 2-D map with a stack of kernels, same-size output.

    Args:
        image: (H, W) array.
        kernels: (K, kh, kw) stack (or a single 2-D kernel); odd dims only.
        padding: only "replicate" is supported; the argument exists so call
            sites state the edge rule explicitly.
        out: optional C-contiguous float64 (K, H, W) array to write into.

    Returns:
        (K, H, W) array (``out`` when given); channel k is the correlation
        of image with kernel k.
    """
    if padding != "replicate":
        raise DimensionError(f"unsupported padding mode: {padding!r}")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"conv2d expects a 2-D map, got shape {img.shape}")
    stack = _as_kernel_stack(kernels)
    k, kh, kw = stack.shape
    h, w = img.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    padded = np.pad(img, ((ph, ph), (pw, pw)), mode="edge")
    if padded.shape[0] < kh or padded.shape[1] < kw:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {padded.shape[0]}x{padded.shape[1]}"
        )
    if out is None:
        out = np.empty((k, h, w))
    elif out.shape != (k, h, w) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"conv2d out must be C-contiguous float64 {(k, h, w)}, got {out.dtype} {out.shape}")
    shifted = np.empty((kh, kw, h, w))
    for i in range(kh):
        for j in range(kw):
            shifted[i, j] = padded[i:i + h, j:j + w]
    np.matmul(stack.reshape(k, kh * kw), shifted.reshape(kh * kw, h * w), out=out.reshape(k, h * w))
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


def combine1x1_grads(maps: np.ndarray, weights: np.ndarray, grad_out: np.ndarray, rectified: bool = False):
    """Returns (d_weights, d_maps) for combine1x1.

    With ``rectified`` the maps are ReLU outputs and the second result is
    the gradient with respect to the ReLU input instead: d_maps masked to
    the cells where maps > 0 (subgradient 0 at the kink), formed in one
    product without a separate relu_grad pass.
    """
    m = np.asarray(maps, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    flat = m.reshape(m.shape[0], -1)
    d_w = flat @ g
    if rectified:
        d_m = np.multiply(flat > 0.0, w[:, None])
        d_m *= g
    else:
        d_m = np.outer(w, g)
    return d_w, d_m.reshape(m.shape)


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over the last two axes."""
    a = np.asarray(x, dtype=np.float64)
    h, w = a.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    blocks = a.reshape(a.shape[:-2] + (h // 2, 2, w // 2, 2))
    return blocks.max(axis=(-3, -1))


def maxpool2_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route pooled gradients to the first maximum of each 2x2 block."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"maxpool2_grad expects a 2-D map, got shape {a.shape}")
    h, w = a.shape
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (h // 2, w // 2):
        raise DimensionError(f"pooled grad shape {g.shape} does not match input {a.shape}")
    blocks = a.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 4)
    idx = blocks.argmax(axis=1)
    out = np.zeros((h // 2 * (w // 2), 4), dtype=np.float64)
    out[np.arange(out.shape[0]), idx] = g.ravel()
    return out.reshape(h // 2, w // 2, 2, 2).transpose(0, 2, 1, 3).reshape(h, w)


@dataclass
class DenseLayer:
    """Fully connected layer parameters: out = weights @ x + biases."""

    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray   # (out_dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise DimensionError(
                f"dense layer needs 2-D weights and 1-D biases, got {self.weights.shape} / {self.biases.shape}"
            )
        if self.weights.shape[0] != self.biases.shape[0]:
            raise DimensionError(
                f"weights {self.weights.shape} incompatible with biases {self.biases.shape}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise DimensionError("dense layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    e = np.exp(shifted)
    return e / e.sum()


def dense_forward(layer: DenseLayer, x: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Affine map followed by ReLU ("relu"), softmax ("softmax") or nothing ("linear")."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != layer.in_dim:
        raise DimensionError(f"dense input shape {v.shape} does not match in_dim {layer.in_dim}")
    z = layer.weights @ v + layer.biases
    if activation == "relu":
        return relu(z)
    if activation == "softmax":
        return softmax(z)
    if activation == "linear":
        return z
    raise DimensionError(f"unknown activation {activation!r}")


class SgdMomentum:
    """Momentum SGD: v <- momentum*v - lr*grad; param <- param + v.

    Velocities are kept per parameter name and start at zero, so with
    momentum 0 the update reduces to plain gradient descent.
    """

    def __init__(self, lr: float, momentum: float = 0.9):
        if not (lr > 0.0 and np.isfinite(lr)):
            raise TrainingError(f"learning rate must be positive and finite, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise TrainingError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Return updated copies of params; internal velocity state advances."""
        updated: dict[str, np.ndarray] = {}
        for name, p in params.items():
            if name not in grads:
                raise TrainingError(f"missing gradient for parameter {name!r}")
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != np.shape(p):
                raise TrainingError(f"gradient shape {g.shape} mismatches parameter {name!r} {np.shape(p)}")
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            v = self.velocities.get(name)
            if v is None:
                v = np.zeros_like(np.asarray(p, dtype=np.float64))
            v = self.momentum * v - self.lr * g
            self.velocities[name] = v
            updated[name] = np.asarray(p, dtype=np.float64) + v
        return updated
