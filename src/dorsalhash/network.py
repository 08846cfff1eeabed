"""Fixed-filter feature network.

Five convolution stages followed by three dense layers.  Stages 1-3 apply
boundary-ring difference banks (12, 24, 36 kernels), stages 4-5 apply sparse
ternary banks (64, 128 kernels) with 2x2 max pooling.  Every stage ends in a
trainable 1x1 combination that collapses the bank's channels back to one
map, so the only trainable parameters are the five combination vectors and
the dense layers; the banks themselves never receive gradient.

The trainable parameters live in one float64 vector, ``theta``, laid out as
a model file stores them: combine1-5, then the weights and biases of
fc1-fc3.  Each parameter is a named view of it, and the gradient and the
optimizer's velocity are vectors of the same layout, so a training step is
arithmetic on whole vectors.  A step rebinds ``theta`` rather than writing
into it, which lets a model loaded as read-only views of its file train as a
built one does.

The banks are a pure function of ``lbc_seed``, derived once per seed and
shared read-only.  A model file (version 2) stores the config, ``theta`` and
``banks_blake2b``, the digest of the derived banks, so a bank drawn otherwise
fails the load closed; a version-1 file also stores the banks, which must
equal the derived ones byte for byte.  Neither may hold a non-finite value.

The penultimate dense activation is the feature vector consumed by the
hashing side of the package.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import ops, rand
from .errors import ConfigError, DataError, DimensionError, ModelFormatError, TrainingError
from .filters import LAYER_GAPS, RING_SIZE, make_layer_bank, make_lbc_filters

MODEL_MAGIC = b"DHFN"
MODEL_VERSION = 2

LBC_COUNTS = (64, 128)  # stages 4 and 5
BANK_COUNTS = (*(RING_SIZE * len(LAYER_GAPS[i]) for i in (1, 2, 3)), *LBC_COUNTS)

# Config keys of options that no longer exist.  Model files written before
# their removal carry them set to false, and still load; a file with either
# set to true was built by code this package no longer has.
RETIRED_CONFIG_KEYS = ("use_star_bank", "hard_binarize")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and seeding knobs.

    Inputs are half as tall as they are wide and divisible by 4 in both
    directions (two pooling stages).  fc2_dim is the feature dimension and
    must stay at or above the longest supported hash length (128).
    """

    num_classes: int
    input_height: int = 64
    input_width: int = 128
    fc1_dim: int = 512
    fc2_dim: int = 256
    lbc_seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.input_height * 2 != self.input_width:
            raise ConfigError(
                f"input must be half as tall as wide, got {self.input_height}x{self.input_width}"
            )
        if self.input_height % 4 or self.input_width % 4:
            raise ConfigError(
                f"two pooling stages need dims divisible by 4, got {self.input_height}x{self.input_width}"
            )
        if self.fc1_dim < 1 or self.fc2_dim < 128:
            raise ConfigError(
                f"fc dims out of range: fc1={self.fc1_dim}, fc2={self.fc2_dim} (fc2 must be >= 128)"
            )

    @property
    def flat_dim(self) -> int:
        return (self.input_height // 4) * (self.input_width // 4)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    shuffle_seed: int = 0
    # Global-norm gradient clip; the infinite default never binds.  A
    # whitened first dense layer (calibrate_dense) amplifies gradients
    # reaching the small 1x1 combine weights; clipping keeps those early
    # steps from overshooting.
    clip_norm: float = math.inf

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainingError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.clip_norm > 0.0:
            raise TrainingError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training.  grad_norm is the mean global gradient norm
    of the epoch's steps, taken before clipping; clipped_frac is the
    fraction of those steps that clipping shrank (0 under the default
    infinite clip_norm)."""

    epoch: int
    loss: float
    accuracy: float
    grad_norm: float
    clipped_frac: float


def _init_dense(views: dict[str, np.ndarray], lbc_seed: int, gain: float = 4.0) -> None:
    # Scaled uniform init of the fc1-fc3 weight views, bound
    # gain*sqrt(6 / (fan_in + fan_out)); biases are left as they are.  The
    # default gain of 4 per layer counters the contrast attenuation of the
    # fixed difference banks (roughly one decade per stage), so unit-contrast
    # inputs reach logits large enough for SGD to make progress; a
    # calibrated model (see calibrate_dense) uses gain 1 because whitening
    # already restores unit scale.  Each step runs in place in the view, so
    # the only temporary is the uniform draw.
    for i in (1, 2, 3):
        w = views[f"fc{i}.w"]
        u = rand.uniforms(rand.derive_seed(lbc_seed, "dense", i), rand.PURPOSE_DENSE_INIT, w.size)
        np.multiply(u.reshape(w.shape), 2.0, out=w)
        w -= 1.0
        w *= gain * np.sqrt(6.0 / sum(w.shape))


class FixedFilterNet:
    """The feature extractor plus its training-time classification head.

    ``views`` maps each trainable parameter's name to its view of
    ``theta``; assigning ``theta`` re-derives them.
    """

    def __init__(self, config: NetworkConfig, theta: np.ndarray):
        self.config = config
        self.banks = _derive_banks(config.lbc_seed)[0]  # read-only, shared by the seed's models
        self.theta = theta

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    @theta.setter
    def theta(self, theta: np.ndarray) -> None:
        self.views = self.split(theta)
        self._theta = theta

    def split(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector laid out as theta (a parameter vector or
        a gradient)."""
        return _segments(vector, _theta_shapes(self.config))

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, config: NetworkConfig) -> "FixedFilterNet":
        model = cls(config, np.zeros(_size(_theta_shapes(config))))
        for i, k in enumerate(BANK_COUNTS, start=1):
            model.views[f"combine{i}"][:] = 1.0 / k
        _init_dense(model.views, config.lbc_seed)
        return model

    @property
    def feature_dim(self) -> int:
        return self.config.fc2_dim

    def calibrate_dense(self, images) -> None:
        """Re-seat the dense stack against the flatten statistics of a
        calibration set (normally the training images).

        The fixed banks attenuate contrast by roughly a decade per stage, so
        raw flatten activations are tiny and dominated by one shared
        direction, which leaves plain SGD ill-conditioned.  This folds
        per-column standardization (subtract mean, divide by deviation) into
        the first dense layer as a data-dependent initialization: FC1 weights
        are unit-gain scaled-uniform divided by the per-column deviation, its
        biases cancel the column means, and FC2/FC3 restart at unit gain.
        The architecture and every later forward pass are unchanged; only
        initial parameter values move.  Calling this after training would
        discard the fit, so do it once, before train().
        """
        imgs = [self._check_input(im) for im in images]
        if not imgs:
            raise DataError("calibration needs at least one image")
        flats = np.stack([self._trace(im)["v"] for im in imgs])
        mu = flats.mean(axis=0)
        sd = flats.std(axis=0) + 1e-12
        # A fresh vector with the same combines.  It is bound before its
        # dense views are filled, so the old vector is released first and
        # the two are never held alongside the initializer's draws.
        theta = np.zeros_like(self.theta)
        theta[:sum(BANK_COUNTS)] = self.theta[:sum(BANK_COUNTS)]
        self.theta = theta
        _init_dense(self.views, self.config.lbc_seed, gain=1.0)
        w1 = self.views["fc1.w"]
        w1 /= sd
        np.negative(w1 @ mu, out=self.views["fc1.b"])

    # -- forward ----------------------------------------------------------

    def _check_input(self, image: np.ndarray) -> np.ndarray:
        img = np.asarray(image, dtype=np.float64)
        want = (self.config.input_height, self.config.input_width)
        if img.shape != want:
            raise DimensionError(f"input stage: image shape {img.shape} does not match configured {want}")
        if not np.isfinite(img).all():
            raise DataError("input stage: image contains non-finite values")
        return img

    def _response_buffer(self) -> list[np.ndarray]:
        """Room for the rectified bank responses of all five stages of one
        image, as (K, H, W) views of one block, for _trace(image, maps)."""
        h, w = self.config.input_height, self.config.input_width
        dims = [(h, w)] * 4 + [(h // 2, w // 2)]  # stage 5 runs after one pooling
        shapes = {s: (k, hh, ww) for s, (k, (hh, ww)) in enumerate(zip(BANK_COUNTS, dims))}
        return list(_segments(np.empty(_size(shapes)), shapes).values())

    def _trace(self, image: np.ndarray, maps: list[np.ndarray] | None = None) -> dict:
        """Forward pass keeping the intermediates that backprop needs.

        Each stage runs as one ops.conv_stage: bank, ReLU and 1x1 combine
        per cache-sized row band, so without ``maps`` no stage's K-channel
        response is ever held in full and the trace keeps only the small
        per-stage maps ("x", "c") and the dense activations.  With ``maps``
        (from _response_buffer) each stage also writes its rectified
        response into its entry, exposed as "b" for the backward pass; the
        ReLU output is positive exactly where its input was, which is all
        the backward needs of the pre-activation.  The block is the
        caller's, so a training call that reuses one block for every sample
        faults no fresh multi-MB memory per sample.
        """
        x = self._check_input(image)
        t: dict = {"x": [x], "c": []}
        keep = [None] * 5
        if maps is not None:
            if len(maps) != 5:
                raise DimensionError(f"need 5 stage response arrays, got {len(maps)}")
            keep = t["b"] = maps
        p = self.views
        for s in range(5):
            c = ops.conv_stage(t["x"][-1], self.banks[s], p[f"combine{s + 1}"], keep=keep[s])
            t["c"].append(c)
            t["x"].append(ops.maxpool2(c) if s >= 3 else c)
        v = t["x"][-1].ravel()
        z1 = p["fc1.w"] @ v + p["fc1.b"]
        h1 = ops.relu(z1)
        # FC2 output is the feature vector and stays linear: downstream
        # bio-hashing thresholds projections at zero, which needs signed,
        # roughly centered features rather than rectified ones.
        f = p["fc2.w"] @ h1 + p["fc2.b"]
        z3 = p["fc3.w"] @ f + p["fc3.b"]
        t.update(v=v, z1=z1, h1=h1, f=f, z3=z3)
        return t

    def forward(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (feature vector, class probabilities) for one image."""
        t = self._trace(image)
        return t["f"], ops.softmax(t["z3"])

    def extract_features(self, images) -> np.ndarray:
        """Feature vectors for a sequence of images, stacked (N, fc2_dim)."""
        feats = [self.forward(img)[0] for img in images]
        if not feats:
            raise DataError("extract_features got an empty image list")
        return np.stack(feats)

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write a version-2 container: the config, the digest of the banks
        it derives, and theta.

        The byte layout is fixed (JSON header with sorted keys, float64
        little-endian payload, CRC32 trailer) so identical models always
        serialize to identical bytes.  The banks are not written.
        """
        header = {
            "config": asdict(self.config),
            "arrays": [[name, list(shape)] for name, shape in _theta_shapes(self.config).items()],
            "banks_blake2b": _derive_banks(self.config.lbc_seed)[1],
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        buf = np.ascontiguousarray(self.theta, dtype="<f8")  # theta itself unless it is not <f8
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<IQ", MODEL_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            fh.write(buf)
            fh.write(struct.pack("<I", zlib.crc32(buf, zlib.crc32(header_bytes))))

    @classmethod
    def load(cls, path) -> "FixedFilterNet":
        """Read a container written by save(), or a version-1 one.

        The payload is read once, straight into one 8-byte-aligned float64
        buffer that the CRC32 then covers together with the header.  The
        buffer is marked read-only and theta is its tail; training rebinds
        theta, so loaded models train as built ones do.  A malformed file, a
        non-finite value, or a banks_blake2b (version 2) or a stored bank
        (version 1) that is not what the config derives raises
        ModelFormatError naming the path.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(16)  # magic, u32 version, u64 header length
            if size < 16 + 4 or prefix[:4] != MODEL_MAGIC:
                raise ModelFormatError(f"{path}: not a model container")
            version, header_len = struct.unpack("<IQ", prefix[4:])
            if version not in (1, MODEL_VERSION):
                raise ModelFormatError(f"{path}: unsupported container version {version}")
            payload_len = size - 16 - header_len - 4
            if payload_len < 0:
                raise ModelFormatError(f"{path}: truncated header")
            if payload_len % 8:
                raise ModelFormatError(f"{path}: payload of {payload_len} bytes is not whole float64 values")
            header_bytes = fh.read(header_len)
            payload = np.empty(payload_len // 8, dtype="<f8")
            got = fh.readinto(payload.view(np.uint8))
            trailer = fh.read(4)
        if len(header_bytes) != header_len or got != payload_len or len(trailer) != 4:
            raise ModelFormatError(f"{path}: file changed size while it was read")
        if zlib.crc32(payload, zlib.crc32(header_bytes)) != struct.unpack("<I", trailer)[0]:
            raise ModelFormatError(f"{path}: checksum mismatch, file is corrupt")
        payload.flags.writeable = False
        config, layout = _parse_header(path, header_bytes, version)
        declared = _size(layout)
        if declared != payload.size:
            raise ModelFormatError(
                f"{path}: header declares {8 * declared} payload bytes, file holds {payload_len}"
            )
        arrays = _segments(payload, layout)
        bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
        if bad:
            raise ModelFormatError(f"{path}: non-finite values in {', '.join(bad)}")
        model = cls(config, payload[payload.size - _size(_theta_shapes(config)):])
        # Bytes, not values, are compared, so that -0.0 is not taken for 0.0.
        for name, derived in zip(arrays, model.banks if version == 1 else ()):
            if arrays[name].tobytes() != derived.astype("<f8").tobytes():
                raise ModelFormatError(f"{path}: stored {name} is not the bank its config derives")
        return model


@functools.cache
def _derive_banks(lbc_seed: int) -> tuple[tuple[np.ndarray, ...], str]:
    """The five fixed banks of a model seeded with lbc_seed, read-only so
    that every model of the seed can share them, and the BLAKE2b of their
    little-endian float64 bytes in stage order."""
    banks = (*map(make_layer_bank, (1, 2, 3)),
             *(make_lbc_filters(k, rand.derive_seed(lbc_seed, "lbc", s)) for s, k in zip((4, 5), LBC_COUNTS)))
    for bank in banks:
        bank.flags.writeable = False
    return banks, hashlib.blake2b(np.concatenate(banks).astype("<f8"), digest_size=32).hexdigest()


def _theta_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable parameter, in its order within theta."""
    shapes = {f"combine{i}": (k,) for i, k in enumerate(BANK_COUNTS, start=1)}
    for name, out_dim, in_dim in (
        ("fc1", config.fc1_dim, config.flat_dim),
        ("fc2", config.fc2_dim, config.fc1_dim),
        ("fc3", config.num_classes, config.fc2_dim),
    ):
        shapes[f"{name}.w"] = (out_dim, in_dim)
        shapes[f"{name}.b"] = (out_dim,)
    return shapes


def _size(shapes: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in shapes.values())


def _segments(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Named views of consecutive segments of a 1-D vector, in shapes order."""
    if vector.shape != (_size(shapes),):
        raise DimensionError(f"vector of shape {vector.shape} does not fit layout {list(shapes)}")
    views, offset = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        views[name] = vector[offset:offset + n].reshape(shape)
        offset += n
    return views


def _parse_header(path, header_bytes: bytes, version: int) -> tuple[NetworkConfig, dict[str, tuple[int, ...]]]:
    """The config of a model header and the shapes of the arrays its file
    stores, in file order: theta's parameters, after the five banks in a
    version-1 file.  The header's array list must name exactly these, and a
    version-2 header must carry the digest of the banks the config derives."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict) \
            or not isinstance(header.get("arrays"), list):
        raise ModelFormatError(f"{path}: header needs a config object and an arrays list")
    settings = dict(header["config"])
    for key in RETIRED_CONFIG_KEYS:
        if settings.pop(key, False) is not False:
            raise ModelFormatError(f"{path}: model sets the removed option {key!r}")
    bad = sorted(k for k, v in settings.items() if type(v) is not int)
    if bad:
        raise ModelFormatError(f"{path}: model config values must be integers: {', '.join(bad)}")
    try:
        config = NetworkConfig(**settings)
    except (TypeError, ConfigError) as exc:
        raise ModelFormatError(f"{path}: invalid model config ({exc})") from exc
    banks = _derive_banks(config.lbc_seed)[0] if version == 1 else ()
    layout = {**{f"bank{i}": b.shape for i, b in enumerate(banks, start=1)}, **_theta_shapes(config)}
    want = [[name, list(shape)] for name, shape in layout.items()]
    for i, (got, need) in enumerate(itertools.zip_longest(header["arrays"], want)):
        if got != need:
            raise ModelFormatError(f"{path}: header array {i} is {got}, its config implies {need}")
    if version != 1 and header.get("banks_blake2b") != _derive_banks(config.lbc_seed)[1]:
        raise ModelFormatError(f"{path}: banks_blake2b is not the digest of the banks its config derives")
    return config, layout


# -- training ---------------------------------------------------------------


# The gradient segments in the order the backward pass reaches them.  The
# global norm sums their squares in this order; a sum over the whole vector
# would round differently and move every clip factor.
_BACKPROP_ORDER = (*(f"fc{i}.{p}" for i in (3, 2, 1) for p in "wb"),
                   *(f"combine{s}" for s in (5, 4, 3, 2, 1)))


def _loss_and_grads(model: FixedFilterNet, image: np.ndarray, label: int,
                    maps: list[np.ndarray], grad: np.ndarray) -> tuple[float, int]:
    """Cross-entropy loss and correctness flag of one sample; its gradient
    is written into ``grad``, a vector laid out as model.theta.

    ``maps`` is a model._response_buffer() to trace into; the gradient does
    not refer to it, so one buffer serves every sample.
    """
    t = model._trace(image, maps)
    p, g = model.views, model.split(grad)
    z3 = t["z3"]
    logz = z3 - (np.max(z3) + np.log(np.exp(z3 - np.max(z3)).sum()))
    loss = -logz[label]
    correct = int(np.argmax(z3) == label)

    dz3 = np.exp(logz)
    dz3[label] -= 1.0
    np.outer(dz3, t["f"], out=g["fc3.w"])
    g["fc3.b"][:] = dz3
    df = p["fc3.w"].T @ dz3
    np.outer(df, t["h1"], out=g["fc2.w"])
    g["fc2.b"][:] = df
    dz1 = ops.relu_grad(t["z1"], p["fc2.w"].T @ df)
    np.outer(dz1, t["v"], out=g["fc1.w"])
    g["fc1.b"][:] = dz1
    dv = p["fc1.w"].T @ dz1

    h4 = model.config.input_height // 4
    w4 = model.config.input_width // 4
    dx = dv.reshape(h4, w4)
    for s in (4, 3, 2, 1):
        dc = ops.maxpool2_grad(t["c"][s], dx) if s >= 3 else dx
        g[f"combine{s + 1}"][:], dd = ops.combine1x1_grads(t["b"][s], p[f"combine{s + 1}"], dc)
        dx = ops.conv2d_input_grad(dd, model.banks[s], t["x"][s].shape)
    # The image is not trained, so stage 1 needs only its weight gradient,
    # the same product combine1x1_grads forms.
    b1 = t["b"][0]
    g["combine1"][:] = b1.reshape(b1.shape[0], -1) @ dx.ravel()
    return loss, correct


def train(
    model: FixedFilterNet,
    images,
    labels,
    epochs: int,
    config: TrainConfig = TrainConfig(),
) -> list[EpochStats]:
    """Fit the trainable parameters, rebinding model.theta once per batch;
    returns per-epoch stats.

    The fixed banks are never touched.  With ``epochs == 0`` the model is
    returned unchanged and the log is empty.
    """
    if epochs < 0:
        raise TrainingError(f"epochs must be >= 0, got {epochs}")
    imgs = [model._check_input(im) for im in images]
    labs = [int(l) for l in labels]
    if len(imgs) != len(labs) or not imgs:
        raise DataError(f"got {len(imgs)} images and {len(labs)} labels")
    counts = np.zeros(model.config.num_classes, dtype=int)
    for l in labs:
        if not 0 <= l < model.config.num_classes:
            raise DataError(f"label {l} outside [0, {model.config.num_classes})")
        counts[l] += 1
    if (counts < 1).any():
        missing = int(np.argmin(counts))
        raise DataError(f"class {missing} has no training samples")

    opt = ops.SgdMomentum(lr=config.lr, momentum=config.momentum)
    maps = model._response_buffer()
    # The batch gradient, and room for each later sample's gradient.
    batch_grad = np.empty_like(model.theta)
    sample_grad = np.empty_like(model.theta)
    segments = model.split(batch_grad)
    history: list[EpochStats] = []
    n = len(imgs)
    for epoch in range(epochs):
        order = rand.permutation(
            rand.derive_seed(config.shuffle_seed, "epoch", epoch), rand.PURPOSE_SHUFFLE, n
        )
        total_loss = 0.0
        total_correct = 0
        norms: list[float] = []
        clipped = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            for j, idx in enumerate(batch):
                loss, correct = _loss_and_grads(model, imgs[idx], labs[idx], maps,
                                                sample_grad if j else batch_grad)
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, sample {int(idx)}")
                total_loss += float(loss)
                total_correct += correct
                if j:
                    batch_grad += sample_grad
            batch_grad *= 1.0 / len(batch)
            norm = np.sqrt(sum(float((segments[k] ** 2).sum()) for k in _BACKPROP_ORDER))
            norms.append(float(norm))
            if norm > config.clip_norm:
                clipped += 1
                batch_grad *= config.clip_norm / norm
            model.theta = opt.step(model.theta, batch_grad)
        history.append(EpochStats(
            epoch=epoch,
            loss=total_loss / n,
            accuracy=total_correct / n,
            grad_norm=float(np.mean(norms)),
            clipped_frac=clipped / len(norms),
        ))
    return history
