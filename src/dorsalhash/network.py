"""Fixed-filter feature network.

Five convolution stages followed by three dense layers.  Stages 1-3 apply
boundary-ring difference banks (12, 24, 36 kernels), stages 4-5 apply sparse
ternary banks (64, 128 kernels) with 2x2 max pooling.  Every stage ends in a
trainable 1x1 combination that collapses the bank's channels back to one
map, so the only trainable parameters are the five combination vectors and
the dense layers; the banks themselves never receive gradient.

The penultimate dense activation is the feature vector consumed by the
hashing side of the package.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import ops, rand
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    ModelFormatError,
    TrainingError,
)
from .filters import (
    KERNEL_HEIGHT,
    KERNEL_WIDTH,
    LAYER_GAPS,
    RING_SIZE,
    make_layer_bank,
    make_lbc_filters,
)

MODEL_MAGIC = b"DHFN"
MODEL_VERSION = 1

LBC_COUNTS = (64, 128)  # stages 4 and 5

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
    # Optional global-norm gradient clip.  A whitened first dense layer
    # (calibrate_dense) amplifies gradients reaching the small 1x1 combine
    # weights; clipping keeps those early steps from overshooting.
    clip_norm: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainingError(f"batch size must be >= 1, got {self.batch_size}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise TrainingError(f"clip_norm must be positive, got {self.clip_norm}")


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training.  grad_norm is the mean global gradient norm
    of the epoch's steps, taken before clipping; clipped_frac is the
    fraction of those steps that clipping shrank (0 without clip_norm)."""

    epoch: int
    loss: float
    accuracy: float
    grad_norm: float
    clipped_frac: float


def _init_dense(out_dim: int, in_dim: int, seed: int, gain: float = 4.0) -> ops.DenseLayer:
    # Scaled uniform init, bound gain*sqrt(6 / (fan_in + fan_out)), zero
    # biases.  The default gain of 4 per layer counters the contrast
    # attenuation of the fixed difference banks (roughly one decade per
    # stage), so unit-contrast inputs reach logits large enough for SGD to
    # make progress; a calibrated model (see calibrate_dense) uses gain 1
    # because whitening already restores unit scale.
    limit = gain * np.sqrt(6.0 / (in_dim + out_dim))
    u = rand.uniforms(seed, rand.PURPOSE_DENSE_INIT, out_dim * in_dim)
    w = (2.0 * u - 1.0).reshape(out_dim, in_dim) * limit
    return ops.DenseLayer(weights=w, biases=np.zeros(out_dim))


class FixedFilterNet:
    """The feature extractor plus its training-time classification head."""

    def __init__(self, config: NetworkConfig, banks, combine, fc1, fc2, fc3):
        self.config = config
        self.banks = [np.asarray(b, dtype=np.float64) for b in banks]
        self.combine = [np.asarray(w, dtype=np.float64) for w in combine]
        if len(self.banks) != 5 or len(self.combine) != 5:
            raise DimensionError("expected 5 banks and 5 combination vectors")
        for i, (b, w) in enumerate(zip(self.banks, self.combine), start=1):
            if b.shape[0] != w.shape[0]:
                raise DimensionError(f"stage {i}: bank {b.shape} vs combine weights {w.shape}")
        self.fc1 = fc1
        self.fc2 = fc2
        self.fc3 = fc3

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, config: NetworkConfig) -> "FixedFilterNet":
        banks = [
            make_layer_bank(1),
            make_layer_bank(2),
            make_layer_bank(3),
            make_lbc_filters(LBC_COUNTS[0], rand.derive_seed(config.lbc_seed, "lbc", 4)),
            make_lbc_filters(LBC_COUNTS[1], rand.derive_seed(config.lbc_seed, "lbc", 5)),
        ]
        combine = [np.full(b.shape[0], 1.0 / b.shape[0]) for b in banks]
        fc1 = _init_dense(config.fc1_dim, config.flat_dim, rand.derive_seed(config.lbc_seed, "dense", 1))
        fc2 = _init_dense(config.fc2_dim, config.fc1_dim, rand.derive_seed(config.lbc_seed, "dense", 2))
        fc3 = _init_dense(config.num_classes, config.fc2_dim, rand.derive_seed(config.lbc_seed, "dense", 3))
        return cls(config, banks, combine, fc1, fc2, fc3)

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
        cfg = self.config
        w1 = _init_dense(cfg.fc1_dim, cfg.flat_dim,
                         rand.derive_seed(cfg.lbc_seed, "dense", 1), gain=1.0).weights / sd
        self.fc1 = ops.DenseLayer(weights=w1, biases=-(w1 @ mu))
        self.fc2 = _init_dense(cfg.fc2_dim, cfg.fc1_dim,
                               rand.derive_seed(cfg.lbc_seed, "dense", 2), gain=1.0)
        self.fc3 = _init_dense(cfg.num_classes, cfg.fc2_dim,
                               rand.derive_seed(cfg.lbc_seed, "dense", 3), gain=1.0)

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
        shapes = [(bank.shape[0], hh, ww) for bank, (hh, ww) in zip(self.banks, dims)]
        sizes = [k * hh * ww for k, hh, ww in shapes]
        chunks = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        return [chunk.reshape(shape) for chunk, shape in zip(chunks, shapes)]

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
        for s in range(5):
            c = ops.conv_stage(t["x"][-1], self.banks[s], self.combine[s], keep=keep[s])
            t["c"].append(c)
            t["x"].append(ops.maxpool2(c) if s >= 3 else c)
        v = t["x"][-1].ravel()
        z1 = self.fc1.weights @ v + self.fc1.biases
        h1 = ops.relu(z1)
        # FC2 output is the feature vector and stays linear: downstream
        # bio-hashing thresholds projections at zero, which needs signed,
        # roughly centered features rather than rectified ones.
        f = self.fc2.weights @ h1 + self.fc2.biases
        z3 = self.fc3.weights @ f + self.fc3.biases
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

    # -- parameters -------------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        p = {f"combine{i + 1}": self.combine[i] for i in range(5)}
        for name, layer in (("fc1", self.fc1), ("fc2", self.fc2), ("fc3", self.fc3)):
            p[f"{name}.w"] = layer.weights
            p[f"{name}.b"] = layer.biases
        return p

    def set_params(self, p: dict[str, np.ndarray]) -> None:
        self.combine = [np.asarray(p[f"combine{i + 1}"], dtype=np.float64) for i in range(5)]
        self.fc1 = ops.DenseLayer(p["fc1.w"], p["fc1.b"])
        self.fc2 = ops.DenseLayer(p["fc2.w"], p["fc2.b"])
        self.fc3 = ops.DenseLayer(p["fc3.w"], p["fc3.b"])

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned container: config, materialized banks, weights.

        The byte layout is fixed (JSON header with sorted keys, float64
        little-endian payload, CRC32 trailer) so identical models always
        serialize to identical bytes.
        """
        arrays: list[tuple[str, np.ndarray]] = []
        for i, b in enumerate(self.banks, start=1):
            arrays.append((f"bank{i}", b))
        for i, w in enumerate(self.combine, start=1):
            arrays.append((f"combine{i}", w))
        for name, layer in (("fc1", self.fc1), ("fc2", self.fc2), ("fc3", self.fc3)):
            arrays.append((f"{name}.w", layer.weights))
            arrays.append((f"{name}.b", layer.biases))
        header = {
            "config": asdict(self.config),
            "arrays": [[name, list(a.shape)] for name, a in arrays],
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        crc = zlib.crc32(header_bytes)
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<IQ", MODEL_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            # Each array's little-endian buffer goes to the file as it is
            # (a copy only where an array is not already contiguous <f8).
            for _, a in arrays:
                buf = np.ascontiguousarray(a, dtype="<f8")
                fh.write(buf)
                crc = zlib.crc32(buf, crc)
            fh.write(struct.pack("<I", crc))

    @classmethod
    def load(cls, path) -> "FixedFilterNet":
        """Read a container written by save().

        The payload is read once, straight into one 8-byte-aligned float64
        buffer that the CRC32 then covers together with the header.  The
        buffer is marked read-only and every bank, combination vector and
        dense layer is a view into it.  Training never writes into its
        parameters (the optimizer returns new arrays), so loaded models
        train as built ones do.  Any malformed file raises ModelFormatError
        naming the path.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(16)  # magic, u32 version, u64 header length
            if size < 16 + 4 or prefix[:4] != MODEL_MAGIC:
                raise ModelFormatError(f"{path}: not a model container")
            version, header_len = struct.unpack("<IQ", prefix[4:])
            if version != MODEL_VERSION:
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
        config, layout = _parse_header(path, header_bytes)
        declared = sum(math.prod(shape) for shape in layout.values())
        if declared != payload.size:
            raise ModelFormatError(
                f"{path}: header declares {8 * declared} payload bytes, file holds {payload_len}"
            )
        loaded: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout.items():
            n = math.prod(shape)
            loaded[name] = payload[offset:offset + n].reshape(shape)
            offset += n
        return cls(
            config,
            [loaded[f"bank{i}"] for i in range(1, 6)],
            [loaded[f"combine{i}"] for i in range(1, 6)],
            ops.DenseLayer(loaded["fc1.w"], loaded["fc1.b"]),
            ops.DenseLayer(loaded["fc2.w"], loaded["fc2.b"]),
            ops.DenseLayer(loaded["fc3.w"], loaded["fc3.b"]),
        )


def _array_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every array a model of this config saves, in save order."""
    counts = [RING_SIZE * len(LAYER_GAPS[i]) for i in (1, 2, 3)] + list(LBC_COUNTS)
    shapes = {f"bank{i}": (k, KERNEL_HEIGHT, KERNEL_WIDTH) for i, k in enumerate(counts, start=1)}
    shapes.update({f"combine{i}": (k,) for i, k in enumerate(counts, start=1)})
    for name, out_dim, in_dim in (
        ("fc1", config.fc1_dim, config.flat_dim),
        ("fc2", config.fc2_dim, config.fc1_dim),
        ("fc3", config.num_classes, config.fc2_dim),
    ):
        shapes[f"{name}.w"] = (out_dim, in_dim)
        shapes[f"{name}.b"] = (out_dim,)
    return shapes


def _parse_header(path, header_bytes: bytes) -> tuple[NetworkConfig, dict[str, tuple[int, ...]]]:
    """The config and the {name: shape} layout of a model header, checked
    against each other: exactly the arrays save() writes, each of the shape
    the config implies."""
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
    want = _array_shapes(config)
    layout: dict[str, tuple[int, ...]] = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)):
            raise ModelFormatError(f"{path}: malformed array entry {entry!r}")
        name, shape = entry[0], tuple(entry[1])
        if name not in want or name in layout:
            raise ModelFormatError(f"{path}: unexpected or repeated array {name!r}")
        if shape != want[name]:
            raise ModelFormatError(
                f"{path}: array {name!r} has shape {list(shape)}, its config implies {list(want[name])}"
            )
        layout[name] = want[name]
    missing = [name for name in want if name not in layout]
    if missing:
        raise ModelFormatError(f"{path}: header lacks arrays {', '.join(missing)}")
    return config, layout


# -- training ---------------------------------------------------------------


def _loss_and_grads(model: FixedFilterNet, image: np.ndarray, label: int, maps: list[np.ndarray]):
    """Cross-entropy loss, correctness flag and gradients for one sample.

    ``maps`` is a model._response_buffer() to trace into; the gradients do
    not refer to it, so one buffer serves every sample.
    """
    t = model._trace(image, maps)
    z3 = t["z3"]
    logz = z3 - (np.max(z3) + np.log(np.exp(z3 - np.max(z3)).sum()))
    loss = -logz[label]
    correct = int(np.argmax(z3) == label)

    dz3 = np.exp(logz)
    dz3[label] -= 1.0
    grads: dict[str, np.ndarray] = {}
    grads["fc3.w"] = np.outer(dz3, t["f"])
    grads["fc3.b"] = dz3
    df = model.fc3.weights.T @ dz3
    grads["fc2.w"] = np.outer(df, t["h1"])
    grads["fc2.b"] = df
    dh1 = model.fc2.weights.T @ df
    dz1 = ops.relu_grad(t["z1"], dh1)
    grads["fc1.w"] = np.outer(dz1, t["v"])
    grads["fc1.b"] = dz1
    dv = model.fc1.weights.T @ dz1

    h4 = model.config.input_height // 4
    w4 = model.config.input_width // 4
    dx = dv.reshape(h4, w4)
    for s in (4, 3, 2, 1):
        dc = ops.maxpool2_grad(t["c"][s], dx) if s >= 3 else dx
        d_w, dd = ops.combine1x1_grads(t["b"][s], model.combine[s], dc)
        grads[f"combine{s + 1}"] = d_w
        dx = ops.conv2d_input_grad(dd, model.banks[s], t["x"][s].shape)
    # The image is not trained, so stage 1 needs only its weight gradient,
    # the same product combine1x1_grads forms.
    b1 = t["b"][0]
    grads["combine1"] = b1.reshape(b1.shape[0], -1) @ dx.ravel()
    return loss, correct, grads


def train(
    model: FixedFilterNet,
    images,
    labels,
    epochs: int,
    config: TrainConfig = TrainConfig(),
) -> list[EpochStats]:
    """Fit the trainable parameters in place; returns per-epoch stats.

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
            acc_grads: dict[str, np.ndarray] | None = None
            for idx in batch:
                loss, correct, grads = _loss_and_grads(model, imgs[idx], labs[idx], maps)
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, sample {int(idx)}")
                total_loss += float(loss)
                total_correct += correct
                if acc_grads is None:
                    acc_grads = grads
                else:
                    for k in acc_grads:
                        acc_grads[k] += grads[k]
            assert acc_grads is not None
            scale = 1.0 / len(batch)
            for k in acc_grads:
                acc_grads[k] *= scale
            norm = np.sqrt(sum(float((g ** 2).sum()) for g in acc_grads.values()))
            norms.append(float(norm))
            if config.clip_norm is not None and norm > config.clip_norm:
                clipped += 1
                shrink = config.clip_norm / norm
                for k in acc_grads:
                    acc_grads[k] *= shrink
            model.set_params(opt.step(model.params(), acc_grads))
        history.append(EpochStats(
            epoch=epoch,
            loss=total_loss / n,
            accuracy=total_correct / n,
            grad_norm=float(np.mean(norms)),
            clipped_frac=clipped / len(norms),
        ))
    return history
