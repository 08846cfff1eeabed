"""Image ingestion, augmentation and synthetic corpus generation.

On disk a dataset is ``root/<subject_id>/<sample>.pgm``: one directory per
subject, binary 8-bit PGM (P5) samples, index order defining the sample
sequence: runs of digits in a file name compare as integers, so ``img2``
comes before ``img10``.  PNG files are accepted too when Pillow is installed.
Pixels are handled as float64 in [0, 1] everywhere past the loaders.

A synthetic sample is a pure function of (spec, subject, sample): the same
arguments give the same bits in any call order or process.  The one thing
kept between calls is a one-entry memo of the last subject's base texture,
read-only, so a subject-major loop builds each subject's texture once
rather than once per sample; any other call order just rebuilds it.

The geometry is separable: coordinates are an (h, 1) column of rows and a
(1, w) row of columns that broadcast, so anything that depends on one axis
only (the crease curves, the rotation terms, resize weights) is computed
once per row or column, and only what needs both axes fills the grid.
Every pixel still goes through the same float operations in the same order
as a full-grid evaluation, and ``tests/test_corpus.py`` pins the bits
against a full-grid reference and against stored digests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rand
from .errors import DataError, DimensionError, IngestionError

IMAGE_SUFFIXES = (".pgm", ".png")


# -- PGM (P5) ----------------------------------------------------------------

_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\S+)")


def _read_pgm_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    tokens, pos = [], 0
    for _ in range(count):
        m = _PGM_TOKEN.match(blob, pos)
        if not m:
            raise ValueError("it ends early")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit P5 file into a float64 grid scaled to [0, 1]."""
    blob = Path(path).read_bytes()
    try:
        (magic, w, h, maxval), pos = _read_pgm_tokens(blob, 4)
        if magic != b"P5":
            raise IngestionError(f"{path}: not a P5 PGM (magic {magic!r})")
        width, height, mv = int(w), int(h), int(maxval)
    except IngestionError:
        raise
    except Exception as exc:
        raise IngestionError(f"{path}: malformed PGM header ({exc})") from exc
    if mv != 255:
        raise IngestionError(f"{path}: only maxval 255 is supported, got {mv}")
    if width < 1 or height < 1:
        raise IngestionError(f"{path}: image is {width}x{height}, width and height must be positive")
    data = blob[pos + 1:pos + 1 + width * height]
    if len(data) != width * height:
        raise IngestionError(f"{path}: pixel payload truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width).astype(np.float64) / 255.0


def write_pgm(path, grid: np.ndarray) -> None:
    """Write a [0, 1] float grid as binary 8-bit P5 (round-to-nearest)."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionError(f"PGM output must be 2-D, got shape {g.shape}")
    if g.size == 0:
        raise DimensionError(f"PGM output must be non-empty, got shape {g.shape}")
    pixels = np.clip(np.rint(g * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def load_image(path) -> np.ndarray:
    """Load a grayscale image (PGM natively; PNG via Pillow) as [0, 1] floats."""
    p = Path(path)
    if p.suffix.lower() == ".pgm":
        return read_pgm(p)
    if p.suffix.lower() == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise IngestionError(f"{p}: PNG support requires Pillow") from exc
        try:
            with Image.open(p) as im:
                arr = np.asarray(im.convert("L"), dtype=np.float64)
        except Exception as exc:
            raise IngestionError(f"{p}: cannot decode PNG ({exc})") from exc
        return arr / 255.0
    raise IngestionError(f"{p}: unsupported image type {p.suffix!r}")


# -- geometry ----------------------------------------------------------------


def bilinear_sample(grid: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample grid at float coordinates with bilinear weights, edge-clamped.

    ys and xs broadcast against each other, so a separable lookup passes an
    (h, 1) column of rows and a (1, w) row of columns.  Integer coordinates
    reproduce grid values exactly, so identity warps are lossless.
    """
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    flat = g.ravel()
    y = np.clip(ys, 0.0, h - 1.0)
    x = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(y).astype(int)
    x0 = np.floor(x).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = y - y0
    fx = x - x0
    gx = 1.0 - fx
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    top = flat[row0 + x0] * gx + flat[row0 + x1] * fx
    bot = flat[row1 + x0] * gx + flat[row1 + x1] * fx
    return top * (1.0 - fy) + bot * fy


def bilinear_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize with bilinear interpolation (pixel-center alignment)."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionError(f"resize expects a 2-D grid, got shape {g.shape}")
    if g.size == 0:
        raise DimensionError(f"resize needs a non-empty grid, got shape {g.shape}")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"target dims must be positive, got {out_h}x{out_w}")
    h, w = g.shape
    if (out_h, out_w) == (h, w):
        return g.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    return bilinear_sample(g, ys[:, None], xs[None, :])


def _warp(grid: np.ndarray, angle_deg: float, zoom: float, shift=(0.0, 0.0), elastic=None) -> np.ndarray:
    """Inverse-map warp: rotate by angle about the center, scale by zoom,
    translate by shift (dy, dx), then add an optional elastic displacement
    field before sampling."""
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yr = np.arange(h, dtype=np.float64)[:, None] - cy
    xr = np.arange(w, dtype=np.float64)[None, :] - cx
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # Inverse of rotate-then-zoom: un-zoom, then rotate by -theta.
    src_y = (cos_t * yr + sin_t * xr) / zoom + cy - shift[0]
    src_x = (-sin_t * yr + cos_t * xr) / zoom + cx - shift[1]
    if elastic is not None:
        src_y = src_y + elastic[0]
        src_x = src_x + elastic[1]
    return bilinear_sample(g, src_y, src_x)


# -- dataset layout ----------------------------------------------------------


@dataclass(frozen=True)
class DatasetLayout:
    """Validated view of an on-disk dataset: subject ids to sample paths."""

    root: Path
    subjects: dict[str, list[Path]]


def _index_order(path: Path) -> tuple[list, str]:
    """Sort key of a sample file: its name with each run of digits read as
    an integer (``img2`` before ``img10``), then the plain name, which
    breaks ties such as ``img01`` and ``img1``."""
    parts = re.split(r"([0-9]+)", path.name)
    return [int(part) if i % 2 else part for i, part in enumerate(parts)], path.name


def ingest(root) -> DatasetLayout:
    """Scan root/<subject>/<sample> without decoding anything.

    Subjects are the immediate subdirectories, samples their image files in
    index order (see ``_index_order``).  A subject directory without a
    single image is a DataError, and a file without an image suffix an
    IngestionError naming it; ``load_samples`` decodes, and its errors name
    the file.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise DataError(f"dataset root {rootp} is not a directory")
    subjects: dict[str, list[Path]] = {}
    subdirs = sorted(p for p in rootp.iterdir() if p.is_dir())
    if not subdirs:
        raise DataError(f"dataset root {rootp} has no subject directories")
    for sub in subdirs:
        paths = sorted((p for p in sub.iterdir() if p.is_file()), key=_index_order)
        for f in paths:
            if f.suffix.lower() not in IMAGE_SUFFIXES:
                raise IngestionError(f"{f}: not a supported image file")
        if not paths:
            raise DataError(f"subject directory {sub} contains no images")
        subjects[sub.name] = paths
    return DatasetLayout(root=rootp, subjects=subjects)


def load_samples(layout: DatasetLayout, height: int, width: int) -> dict[str, list[np.ndarray]]:
    """Load every sample, resized to (height, width) and scaled to [0, 1]."""
    out: dict[str, list[np.ndarray]] = {}
    for sid, paths in sorted(layout.subjects.items()):
        out[sid] = [bilinear_resize(load_image(p), height, width) for p in paths]
    return out


# -- augmentation ------------------------------------------------------------


# Augmentation ranges.  Each output draws, in order: a zoom factor, a
# rotation angle and a brightness offset, each uniform in its range, and an
# elastic displacement field: two smoothed noise planes scaled to a peak of
# ELASTIC_AMPLITUDE pixels.
ZOOM = (0.9, 1.1)
ROTATION_DEG = (-10.0, 10.0)
BRIGHTNESS = (-0.15, 0.15)
ELASTIC_AMPLITUDE = 2.0
ELASTIC_SIGMA = 8.0


@dataclass(frozen=True)
class AugmentationSpec:
    """How many augmented variants to make, and the seed of their stream."""

    count: int = 45
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise DataError(f"augmentation count must be >= 1, got {self.count}")


def _uniform_in(u: float, rng: tuple[float, float]) -> float:
    return rng[0] + u * (rng[1] - rng[0])


def _gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of axes 1 and 2 of a 3-D field, bit for bit what
    ``scipy.ndimage.gaussian_filter(field, sigma=(0, sigma, sigma),
    mode="reflect")`` gives.

    The kernel is scipy's: radius int(4 sigma + 0.5), weights
    exp(-x**2 / (2 sigma**2)) normalised by their sum.  Each axis in turn is
    padded by mirroring the edge cell too (scipy's "reflect" is numpy's
    "symmetric", repeated where a side is shorter than the radius), and
    each cell sums as scipy's symmetric-kernel loop does: the centre times
    its weight, then (left + right) times their weight from the farthest
    pair to the nearest.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = weights / weights.sum()
    out = field
    for axis in (1, 2):
        n = out.shape[axis]
        pad = [(0, 0)] * 3
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="symmetric")

        def cells(shift: int) -> np.ndarray:
            # Each output cell's neighbour at offset shift - radius along the axis.
            cut = [slice(None)] * 3
            cut[axis] = slice(shift, shift + n)
            return padded[tuple(cut)]

        acc = cells(radius) * weights[radius]
        pair = np.empty_like(acc)
        for k in range(radius, 0, -1):
            np.add(cells(radius - k), cells(radius + k), out=pair)
            pair *= weights[radius - k]
            acc += pair
        out = acc
    return out


def augment(image: np.ndarray, spec: AugmentationSpec) -> list[np.ndarray]:
    """Produce spec.count augmented variants of one image.

    Deterministic in (image, spec): variant i uses draws 3i..3i+2 of the
    (seed, augment) uniform stream plus its own elastic field block.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"augment expects a 2-D image, got shape {img.shape}")
    h, w = img.shape
    draws = rand.uniforms(spec.seed, rand.PURPOSE_AUGMENT, 3 * spec.count)
    out = []
    for i in range(spec.count):
        zoom = _uniform_in(draws[3 * i], ZOOM)
        angle = _uniform_in(draws[3 * i + 1], ROTATION_DEG)
        bright = _uniform_in(draws[3 * i + 2], BRIGHTNESS)
        field = rand.uniforms(rand.derive_seed(spec.seed, "elastic", i), rand.PURPOSE_AUGMENT, 2 * h * w)
        field = (2.0 * field - 1.0).reshape(2, h, w)
        field = _gaussian_smooth(field, ELASTIC_SIGMA)
        peak = np.abs(field).max()
        if peak > 0.0:
            field = field * (ELASTIC_AMPLITUDE / peak)
        warped = _warp(img, angle, zoom, elastic=(field[0], field[1]))
        out.append(np.clip(warped + bright, 0.0, 1.0))
    return out


# -- synthetic corpus --------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, noise and seed of the generated ridge-texture corpus.

    Every subject gets a unique (frequency, orientation) pair drawn from
    FREQ_BAND and a fixed orientation fan, plus a few dark crease curves.
    Samples perturb the base texture with pixel noise of sigma noise_level
    and geometric jitter whose amplitude scales with noise_level, so a
    noise_level of zero reproduces the base exactly.
    """

    num_subjects: int
    samples_per_subject: int
    height: int = 64
    width: int = 128
    noise_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_subjects < 1 or self.samples_per_subject < 1:
            raise DataError("need at least one subject and one sample")
        if self.height < 1 or self.width < 1:
            raise DataError(f"image size must be positive, got {self.height}x{self.width}")
        if not 0.0 <= self.noise_level < math.inf:
            raise DataError(f"noise level must be finite and >= 0, got {self.noise_level}")


# Ridge frequencies of the subjects' sinusoids, in cycles per image width,
# spread evenly from the first subject to the last.
FREQ_BAND = (6.0, 16.0)
MAX_CREASES = 6


def subject_base_texture(spec: SyntheticSpec, subject_index: int) -> np.ndarray:
    """Deterministic base texture for one subject: an oriented sinusoid
    crossed by dark crease curves.

    Identity is carried mostly by the crease layout (count, position, bend,
    tilt, width, depth all subject-seeded): the fixed difference banks
    respond to local contrast edges, so spatially distinct curves survive
    the feature cascade where a bare frequency/orientation change would
    wash out.  The sinusoid keeps a unique (frequency, orientation) per
    subject and fills the background.
    """
    if not 0 <= subject_index < spec.num_subjects:
        raise DataError(f"subject index {subject_index} outside corpus of {spec.num_subjects}")
    h, w = spec.height, spec.width
    n = spec.num_subjects
    freqs = np.linspace(FREQ_BAND[0], FREQ_BAND[1], n)
    angles = np.deg2rad(np.linspace(-40.0, 40.0, n))
    shuffle = rand.permutation(rand.derive_seed(spec.seed, "assign"), rand.PURPOSE_SYNTH, n)
    freq = freqs[subject_index]
    angle = angles[shuffle[subject_index]]
    u = rand.uniforms(
        rand.derive_seed(spec.seed, "subject", subject_index),
        rand.PURPOSE_SYNTH,
        8 + 6 * MAX_CREASES,
    )
    phase = 2.0 * np.pi * u[0]

    # A crease curve depends on x alone, so it and its sin are formed once
    # per column; only the sinusoid and the Gaussian profiles fill the grid.
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    axis = (np.cos(angle) * xx + np.sin(angle) * yy) / w
    base = 0.55 + 0.22 * np.sin(2.0 * np.pi * freq * axis + phase)
    ncrease = min(MAX_CREASES, (MAX_CREASES - 2) + int(u[1] * 3.0))
    for c in range(ncrease):
        k = 2 + 6 * c
        center = (0.08 + 0.84 * u[k]) * h
        bend = (u[k + 1] - 0.5) * 0.5 * h
        tilt = (u[k + 2] - 0.5) * 0.6 * h
        sigma = 1.0 + 2.5 * u[k + 3]
        depth = 0.20 + 0.25 * u[k + 4]
        curve = center + bend * np.sin(np.pi * xx / w + 2.0 * np.pi * u[k + 5]) + tilt * (xx / w - 0.5)
        base -= depth * np.exp(-((yy - curve) ** 2) / (2.0 * sigma ** 2))
    return np.clip(base, 0.0, 1.0)


# (key, texture) of the last texture synthesize_sample built, replaced in one
# assignment, so a thread that races another can only rebuild a texture,
# never read one filed under another key.
_last_base: tuple[str, np.ndarray] | None = None


def _memo_base_texture(spec: SyntheticSpec, subject_index: int) -> np.ndarray:
    """subject_base_texture, served read-only from the one-entry memo.

    The key is the repr of (spec, subject), not the pair itself: seeds 1,
    1.0 and True compare equal but derive_seed labels them differently.
    """
    global _last_base
    key = repr((spec, subject_index))
    entry = _last_base
    if entry is not None and entry[0] == key:
        return entry[1]
    base = subject_base_texture(spec, subject_index)
    base.flags.writeable = False
    _last_base = (key, base)
    return base


def synthesize_sample(spec: SyntheticSpec, subject_index: int, sample_index: int) -> np.ndarray:
    """One corpus sample: base texture plus seeded noise and jitter."""
    if not 0 <= sample_index < spec.samples_per_subject:
        raise DataError(f"sample index {sample_index} outside {spec.samples_per_subject} samples per subject")
    base = _memo_base_texture(spec, subject_index)
    if spec.noise_level == 0.0:
        return base.copy()
    sub_seed = rand.derive_seed(spec.seed, "sample", subject_index, sample_index)
    u = rand.uniforms(sub_seed, rand.PURPOSE_SYNTH, 3)
    # Jitter scales with the noise knob: at the 0.05 default this is about
    # +/-1.5 px shift and +/-1.5 degrees rotation.
    shift_amp = 30.0 * spec.noise_level
    rot_amp = 30.0 * spec.noise_level
    shifted = _warp(
        base,
        angle_deg=(2.0 * u[0] - 1.0) * rot_amp,
        zoom=1.0,
        shift=((2.0 * u[1] - 1.0) * shift_amp, (2.0 * u[2] - 1.0) * shift_amp),
    )
    noise = rand.normals(sub_seed, rand.PURPOSE_SYNTH, base.size).reshape(base.shape)
    return np.clip(shifted + spec.noise_level * noise, 0.0, 1.0)


def numbered_names(prefix: str, count: int, suffix: str = "") -> list[str]:
    """Names of ``count`` items, ``prefix`` then the index then ``suffix``.
    Indexes are zero-padded to the digits of the largest, and to at least
    two, so that the names sort in index order."""
    digits = max(2, len(str(count - 1)))
    return [f"{prefix}{i:0{digits}d}{suffix}" for i in range(count)]


def fresh_directory(path) -> Path:
    """path as a new or empty directory, created with its parents.  One that
    already has entries is a DataError naming it, so that an output never
    mixes with the files of an earlier run."""
    p = Path(path)
    if p.is_dir() and any(p.iterdir()):
        raise DataError(f"output directory {p} is not empty")
    p.mkdir(parents=True, exist_ok=True)
    return p


def generate_synthetic(spec: SyntheticSpec, out_dir) -> DatasetLayout:
    """Write the corpus under out_dir/<subject>/<sample>.pgm and return its
    layout.  out_dir must be new or empty (``fresh_directory``).  Subject ids
    are s00, s01, ... and samples img00.pgm, ..., widened past 100 of them
    (``numbered_names``)."""
    out = fresh_directory(out_dir)
    sample_names = numbered_names("img", spec.samples_per_subject, ".pgm")
    subjects: dict[str, list[Path]] = {}
    for si, sid in enumerate(numbered_names("s", spec.num_subjects)):
        sdir = out / sid
        sdir.mkdir()
        paths = []
        for qi, name in enumerate(sample_names):
            p = sdir / name
            write_pgm(p, synthesize_sample(spec, si, qi))
            paths.append(p)
        subjects[sid] = paths
    return DatasetLayout(root=out, subjects=subjects)
