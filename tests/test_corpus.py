"""Image IO, augmentation and synthetic-corpus generation."""

import hashlib
import sys

import numpy as np
import pytest

from dorsalhash import corpus, rand
from dorsalhash.corpus import (
    ELASTIC_SIGMA,
    AugmentationSpec,
    SyntheticSpec,
    augment,
    bilinear_resize,
    generate_synthetic,
    ingest,
    load_samples,
    numbered_names,
    read_pgm,
    subject_base_texture,
    synthesize_sample,
    write_pgm,
)
from dorsalhash.errors import DataError, DimensionError, IngestionError


# -- full-grid reference -------------------------------------------------------
# The package evaluates its geometry on broadcast (h, 1) and (1, w) vectors.
# These are the full-grid (meshgrid) forms it replaced, kept as written so
# the tests can check that every pixel still comes out bit for bit the same.


def reference_bilinear_sample(grid, ys, xs):
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    y = np.clip(ys, 0.0, h - 1.0)
    x = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(y).astype(int)
    x0 = np.floor(x).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = y - y0
    fx = x - x0
    top = g[y0, x0] * (1.0 - fx) + g[y0, x1] * fx
    bot = g[y1, x0] * (1.0 - fx) + g[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def reference_resize(grid, out_h, out_w):
    h, w = grid.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return reference_bilinear_sample(grid, yy, xx)


def reference_warp(grid, angle_deg, zoom, shift=(0.0, 0.0), elastic=None):
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    yr = yy - cy
    xr = xx - cx
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_y = (cos_t * yr + sin_t * xr) / zoom + cy - shift[0]
    src_x = (-sin_t * yr + cos_t * xr) / zoom + cx - shift[1]
    if elastic is not None:
        src_y = src_y + elastic[0]
        src_x = src_x + elastic[1]
    return reference_bilinear_sample(g, src_y, src_x)


def reference_subject_base_texture(spec, subject_index):
    h, w = spec.height, spec.width
    n = spec.num_subjects
    freqs = np.linspace(6.0, 16.0, n)
    angles = np.deg2rad(np.linspace(-40.0, 40.0, n))
    shuffle = rand.permutation(rand.derive_seed(spec.seed, "assign"), rand.PURPOSE_SYNTH, n)
    freq = freqs[subject_index]
    angle = angles[shuffle[subject_index]]
    u = rand.uniforms(
        rand.derive_seed(spec.seed, "subject", subject_index),
        rand.PURPOSE_SYNTH,
        8 + 6 * corpus.MAX_CREASES,
    )
    phase = 2.0 * np.pi * u[0]
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    axis = (np.cos(angle) * xx + np.sin(angle) * yy) / w
    base = 0.55 + 0.22 * np.sin(2.0 * np.pi * freq * axis + phase)
    ncrease = min(corpus.MAX_CREASES, (corpus.MAX_CREASES - 2) + int(u[1] * 3.0))
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


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def blake2b_hex(grid):
    return hashlib.blake2b(np.ascontiguousarray(grid, dtype="<f8").tobytes(), digest_size=16).hexdigest()


class TestPgm:
    def test_round_trip_exact_at_8bit(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.round(rng.uniform(0.0, 1.0, (9, 13)) * 255.0) / 255.0
        p = tmp_path / "a.pgm"
        write_pgm(p, img)
        assert np.array_equal(read_pgm(p), img)

    def test_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0.0, 1.0, (6, 7))
        p = tmp_path / "b.pgm"
        write_pgm(p, img)
        assert np.abs(read_pgm(p) - img).max() <= 0.5 / 255.0 + 1e-12

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        payload = bytes(range(6))
        p.write_bytes(b"P5\n# a comment line\n3 2\n# another\n255\n" + payload)
        img = read_pgm(p)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0 and img[1, 2] == pytest.approx(5 / 255.0)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(IngestionError):
            read_pgm(p)

    def test_rejects_nonstandard_maxval(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(IngestionError):
            read_pgm(p)

    def test_truncated_header_named_in_error(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4")
        with pytest.raises(IngestionError, match="short.pgm: malformed PGM header"):
            read_pgm(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(IngestionError):
            read_pgm(p)

    @pytest.mark.parametrize("dims", [b"0 0", b"0 4", b"4 0", b"-1 -1"])
    def test_rejects_zero_or_negative_size(self, tmp_path, dims):
        p = tmp_path / "z.pgm"
        p.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(1))
        with pytest.raises(IngestionError, match="must be positive"):
            read_pgm(p)

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(DimensionError):
            write_pgm(tmp_path / "g.pgm", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_write_rejects_empty_grid(self, tmp_path, shape):
        p = tmp_path / "empty.pgm"
        with pytest.raises(DimensionError, match="non-empty"):
            write_pgm(p, np.zeros(shape))
        assert not p.exists()


class TestResize:
    def test_identity_is_lossless(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0.0, 1.0, (8, 10))
        assert np.array_equal(bilinear_resize(img, 8, 10), img)

    def test_constant_image_stays_constant(self):
        img = np.full((5, 5), 0.37)
        out = bilinear_resize(img, 12, 9)
        assert np.allclose(out, 0.37)

    def test_dims_validated(self):
        with pytest.raises(DimensionError):
            bilinear_resize(np.zeros((4, 4)), 0, 5)
        with pytest.raises(DimensionError):
            bilinear_resize(np.zeros(4), 4, 4)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_source_rejected(self, shape):
        with pytest.raises(DimensionError, match="non-empty"):
            bilinear_resize(np.zeros(shape), 4, 8)


class TestIngest:
    def _make_corpus(self, root, subjects=2, samples=3):
        rng = np.random.default_rng(3)
        for s in range(subjects):
            d = root / f"sub{s}"
            d.mkdir(parents=True)
            for q in range(samples):
                write_pgm(d / f"im{q}.pgm", rng.uniform(0.0, 1.0, (6, 8)))

    def test_png_without_pillow_is_an_ingestion_error_naming_the_file(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
        with pytest.raises(IngestionError, match=r"^x\.png: PNG support requires Pillow$"):
            corpus.load_image("x.png")

    def test_layout_sorted(self, tmp_path):
        self._make_corpus(tmp_path, subjects=2, samples=3)
        layout = ingest(tmp_path)
        assert sorted(layout.subjects) == ["sub0", "sub1"]
        assert [p.name for p in layout.subjects["sub0"]] == ["im0.pgm", "im1.pgm", "im2.pgm"]

    def test_samples_sort_by_index_where_names_are_not_padded(self, tmp_path):
        d = tmp_path / "sub0"
        d.mkdir()
        names = ["img1.pgm", "img2.pgm", "img10.pgm", "img11.pgm", "img01.pgm", "img1b.pgm", "a3x2.pgm", "a3x10.pgm"]
        for name in names:
            write_pgm(d / name, np.zeros((2, 2)))
        got = [p.name for p in ingest(tmp_path).subjects["sub0"]]
        # Equal numbers tie, and the plain name breaks the tie.
        assert got == ["a3x2.pgm", "a3x10.pgm", "img01.pgm", "img1.pgm", "img1b.pgm", "img2.pgm", "img10.pgm",
                       "img11.pgm"]

    def test_load_samples_resizes(self, tmp_path):
        self._make_corpus(tmp_path)
        layout = ingest(tmp_path)
        data = load_samples(layout, 16, 12)
        assert all(img.shape == (16, 12) for imgs in data.values() for img in imgs)

    def test_empty_subject_dir_rejected(self, tmp_path):
        self._make_corpus(tmp_path)
        (tmp_path / "sub9").mkdir()
        with pytest.raises(DataError):
            ingest(tmp_path)

    def test_undecodable_file_named_in_error(self, tmp_path):
        self._make_corpus(tmp_path, subjects=1)
        bad = tmp_path / "sub0" / "im9.pgm"
        bad.write_bytes(b"not a pgm at all")
        # ingest checks the layout only; load_samples is the one decoder.
        layout = ingest(tmp_path)
        with pytest.raises(IngestionError, match="im9"):
            load_samples(layout, 6, 8)

    def test_stray_file_type_rejected(self, tmp_path):
        self._make_corpus(tmp_path, subjects=1)
        (tmp_path / "sub0" / "notes.txt").write_text("hello")
        with pytest.raises(IngestionError):
            ingest(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "nowhere")


class TestAugment:
    def test_count_and_shape(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0.0, 1.0, (12, 16))
        spec = AugmentationSpec(count=7, seed=5)
        out = augment(img, spec)
        assert len(out) == 7
        assert all(v.shape == img.shape for v in out)
        assert all(v.min() >= 0.0 and v.max() <= 1.0 for v in out)

    def test_default_count_is_45(self):
        assert AugmentationSpec().count == 45

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0.0, 1.0, (10, 10))
        spec = AugmentationSpec(count=4, seed=9)
        a = augment(img, spec)
        b = augment(img, spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_identity_warp_gives_exact_copies(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0.0, 1.0, (9, 11))
        zero = np.zeros_like(img)
        assert np.array_equal(corpus._warp(img, 0.0, 1.0), img)
        assert np.array_equal(corpus._warp(img, 0.0, 1.0, elastic=(zero, zero)), img)

    def test_variants_differ_from_source(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0.2, 0.8, (16, 16))
        out = augment(img, AugmentationSpec(count=5, seed=2))
        assert all(np.abs(v - img).max() > 1e-6 for v in out)

    def test_spec_validation(self):
        for count in (0, -1):
            with pytest.raises(DataError, match="augmentation count"):
                AugmentationSpec(count=count)

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            augment(np.zeros((3, 3, 3)), AugmentationSpec(count=1))

    # Elastic fields at the default geometry, with sides below the 32-pixel
    # radius of sigma 8 (where one mirror image of the edge does not reach)
    # and with sides of 1; the other sigmas give other radii.
    @pytest.mark.parametrize("shape", [(2, 64, 128), (2, 12, 16), (2, 10, 10), (2, 9, 11), (2, 19, 33),
                                       (2, 24, 40), (2, 20, 40), (2, 1, 1), (2, 3, 70), (2, 65, 64), (2, 200, 7)])
    def test_elastic_smoothing_is_scipys_gaussian_filter_bit_for_bit(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        for seed in range(4):
            field = 2.0 * rand.uniforms(seed, rand.PURPOSE_AUGMENT, int(np.prod(shape))).reshape(shape) - 1.0
            for sigma in (ELASTIC_SIGMA, 0.5, 1.5, 3.0, 20.0):
                got = corpus._gaussian_smooth(field, sigma)
                want = ndimage.gaussian_filter(field, sigma=(0.0, sigma, sigma), mode="reflect")
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), f"seed {seed}, sigma {sigma}"

    def test_augment_is_what_scipys_smoothing_gives(self, monkeypatch):
        ndimage = pytest.importorskip("scipy.ndimage")
        img = np.random.default_rng(12).uniform(0.0, 1.0, (24, 40))
        spec = AugmentationSpec(count=3, seed=1)
        got = augment(img, spec)
        monkeypatch.setattr(corpus, "_gaussian_smooth", lambda field, sigma: ndimage.gaussian_filter(
            field, sigma=(0.0, sigma, sigma), mode="reflect"))
        for g, w in zip(got, augment(img, spec)):
            assert_same_bits(g, w)


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(num_subjects=0, samples_per_subject=3)
        for noise in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError, match="noise level"):
                SyntheticSpec(num_subjects=2, samples_per_subject=2, noise_level=noise)

    def test_base_texture_deterministic(self):
        spec = SyntheticSpec(num_subjects=4, samples_per_subject=2, seed=3)
        a = subject_base_texture(spec, 1)
        b = subject_base_texture(spec, 1)
        assert np.array_equal(a, b)
        assert a.shape == (spec.height, spec.width)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_subjects_differ_substantially(self):
        # Pairwise over a handful of subjects: more than 10% of pixels move
        # by more than 0.1 between any two base textures.
        spec = SyntheticSpec(num_subjects=6, samples_per_subject=2, seed=0)
        bases = [subject_base_texture(spec, s) for s in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                frac = np.mean(np.abs(bases[i] - bases[j]) > 0.1)
                assert frac > 0.10, f"subjects {i},{j} differ at only {frac:.2%}"

    @pytest.mark.parametrize("dims", [(0, 128), (64, 0), (0, 0), (-1, 8)])
    def test_spec_rejects_empty_images(self, dims):
        with pytest.raises(DataError, match="image size must be positive"):
            SyntheticSpec(num_subjects=2, samples_per_subject=2, height=dims[0], width=dims[1])

    def test_one_pixel_geometry_works(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2, height=1, width=1)
        assert synthesize_sample(spec, 1, 1).shape == (1, 1)

    def test_sample_index_bounds(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=3, height=8, width=16)
        assert synthesize_sample(spec, 0, 0).shape == (8, 16)
        assert synthesize_sample(spec, 1, 2).shape == (8, 16)
        for bad in (-1, 3):
            with pytest.raises(DataError, match="sample index"):
                synthesize_sample(spec, 0, bad)

    def test_subject_index_bounds(self):
        spec = SyntheticSpec(num_subjects=3, samples_per_subject=2)
        with pytest.raises(DataError):
            subject_base_texture(spec, 3)
        with pytest.raises(DataError):
            subject_base_texture(spec, -1)

    def test_zero_noise_reproduces_base(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=3, noise_level=0.0, seed=5)
        base = subject_base_texture(spec, 0)
        for i in range(3):
            assert np.array_equal(synthesize_sample(spec, 0, i), base)

    def test_noisy_samples_differ_but_are_deterministic(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2, noise_level=0.05, seed=5)
        a = synthesize_sample(spec, 0, 0)
        b = synthesize_sample(spec, 0, 1)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, synthesize_sample(spec, 0, 0))

    def test_generate_writes_layout(self, tmp_path):
        spec = SyntheticSpec(num_subjects=4, samples_per_subject=3,
                             height=16, width=24, seed=2)
        layout = generate_synthetic(spec, tmp_path / "corpus")
        assert sorted(layout.subjects) == ["s00", "s01", "s02", "s03"]
        files = sorted((tmp_path / "corpus").rglob("*.pgm"))
        assert len(files) == 12
        reloaded = ingest(tmp_path / "corpus")
        assert reloaded.subjects == layout.subjects

    def test_names_are_padded_to_the_largest_index(self):
        assert numbered_names("aug", 1) == ["aug00"]
        assert numbered_names("s", 100)[-2:] == ["s98", "s99"]
        assert numbered_names("img", 101, ".pgm")[:2] == ["img000.pgm", "img001.pgm"]
        assert numbered_names("img", 101, ".pgm")[-1] == "img100.pgm"
        assert numbered_names("aug", 1001)[-1] == "aug1000"
        for count in (1, 10, 100, 101, 1000, 1001):
            names = numbered_names("x", count)
            assert sorted(names) == names and len(set(names)) == count

    def test_a_corpus_past_100_samples_ingests_in_index_order(self, tmp_path):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=101, height=8, width=16, seed=3)
        written = generate_synthetic(spec, tmp_path / "corpus")
        read = ingest(tmp_path / "corpus")
        assert read.subjects == written.subjects
        assert [p.name for p in read.subjects["s01"]] == [f"img{q:03d}.pgm" for q in range(101)]
        loaded = load_samples(read, 8, 16)["s01"]
        for q in (10, 11, 100):
            assert np.abs(loaded[q] - synthesize_sample(spec, 1, q)).max() <= 0.5 / 255.0 + 1e-12

    def test_generate_refuses_a_directory_with_entries(self, tmp_path):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "notes.txt").write_bytes(b"left by hand")
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2, height=8, width=16)
        with pytest.raises(DataError, match="is not empty"):
            generate_synthetic(spec, out)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_bytes() == b"left by hand"
        empty = tmp_path / "empty"
        empty.mkdir()
        assert sorted(generate_synthetic(spec, empty).subjects) == ["s00", "s01"]

    def test_generated_files_quantize_faithfully(self, tmp_path):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2,
                             height=16, width=24, seed=4)
        generate_synthetic(spec, tmp_path / "c")
        disk = read_pgm(tmp_path / "c" / "s01" / "img01.pgm")
        fresh = synthesize_sample(spec, 1, 1)
        assert np.abs(disk - fresh).max() <= 0.5 / 255.0 + 1e-12


class TestSeparableGeometry:
    """The separable geometry against the full-grid reference, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("subjects", [8, 20, 64])
    def test_textures_match_reference(self, seed, subjects):
        spec = SyntheticSpec(num_subjects=subjects, samples_per_subject=1, seed=seed)
        for s in range(subjects):
            assert_same_bits(subject_base_texture(spec, s), reference_subject_base_texture(spec, s))

    @pytest.mark.parametrize("dims", [(32, 64), (17, 45), (1, 9), (9, 1)])
    def test_textures_match_reference_off_default_geometry(self, dims):
        spec = SyntheticSpec(num_subjects=6, samples_per_subject=1, height=dims[0], width=dims[1], seed=2)
        for s in range(6):
            assert_same_bits(subject_base_texture(spec, s), reference_subject_base_texture(spec, s))

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("dims", [(64, 128), (32, 64)])
    def test_samples_match_reference(self, monkeypatch, noise, dims):
        spec = SyntheticSpec(num_subjects=10, samples_per_subject=4, height=dims[0], width=dims[1],
                             noise_level=noise, seed=3)
        pairs = [(s, q) for s in range(10) for q in range(4)]
        got = [synthesize_sample(spec, s, q) for s, q in pairs]
        # Empty the memo first, or its last texture would serve the
        # reference side and the texture would go unchecked.
        monkeypatch.setattr(corpus, "_last_base", None)
        monkeypatch.setattr(corpus, "subject_base_texture", reference_subject_base_texture)
        monkeypatch.setattr(corpus, "_warp", reference_warp)
        for (s, q), g in zip(pairs, got):
            assert_same_bits(g, synthesize_sample(spec, s, q))

    @pytest.mark.parametrize("shape", [(64, 128), (19, 33)])
    def test_augment_matches_reference(self, monkeypatch, shape):
        img = np.random.default_rng(11).uniform(0.0, 1.0, shape)
        spec = AugmentationSpec(count=4, seed=6)
        got = augment(img, spec)
        monkeypatch.setattr(corpus, "_warp", reference_warp)
        for g, w in zip(got, augment(img, spec)):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("src", [(1, 1), (1, 9), (7, 1), (16, 24), (64, 128)])
    @pytest.mark.parametrize("out", [(64, 128), (32, 64), (45, 97), (3, 5), (1, 1)])
    def test_resize_matches_reference(self, src, out):
        grid = np.random.default_rng(src[0] * 100 + src[1]).uniform(0.0, 1.0, src)
        assert_same_bits(bilinear_resize(grid, *out), reference_resize(grid, *out))

    # Digests taken from the full-grid implementation at the default
    # geometry (seed 0, 20 subjects x 12 samples).  Like the basis digests
    # they depend on numpy's SIMD dispatch of sin, cos, log and exp.  The
    # augment digests, recorded when scipy smoothed the elastic field, also
    # go through np.exp for the smoothing weights, as scipy's did, so they
    # too change with numpy's AVX-512 loops turned off.
    PINNED = {
        ("sample", 0, 0): "2b3a084945f2b33de09cbb27286cddc3",
        ("sample", 7, 5): "6efd05c60260e71b8d43a2cae8048437",
        ("sample", 19, 11): "8641d8390b72dce1d149c790eeaddd04",
        ("texture", 3, None): "a81555e329ff76e06836ccc552454bb9",
        ("noise_0.2", 4, 2): "139dfb012f153f04878307e4788dd045",
    }
    PINNED_AUGMENT = ["0f4bf7c547aeaaa384523b7f5b32e49d", "324205a20898fbd6d5762c439fa37c23"]

    def test_pinned_digests(self):
        spec = SyntheticSpec(num_subjects=20, samples_per_subject=12, seed=0)
        noisy = SyntheticSpec(num_subjects=20, samples_per_subject=12, seed=0, noise_level=0.2)
        got = {
            ("sample", 0, 0): synthesize_sample(spec, 0, 0),
            ("sample", 7, 5): synthesize_sample(spec, 7, 5),
            ("sample", 19, 11): synthesize_sample(spec, 19, 11),
            ("texture", 3, None): subject_base_texture(spec, 3),
            ("noise_0.2", 4, 2): synthesize_sample(noisy, 4, 2),
        }
        assert {k: blake2b_hex(v) for k, v in got.items()} == self.PINNED
        variants = augment(synthesize_sample(spec, 1, 0), AugmentationSpec(count=2, seed=0))
        assert [blake2b_hex(v) for v in variants] == self.PINNED_AUGMENT

    def test_samples_do_not_depend_on_call_order(self):
        spec = SyntheticSpec(num_subjects=5, samples_per_subject=3, height=16, width=24, seed=8)
        pairs = [(s, q) for s in range(5) for q in range(3)]
        forward = {p: synthesize_sample(spec, *p) for p in pairs}
        for p in reversed(pairs):
            assert_same_bits(synthesize_sample(spec, *p), forward[p])


def uncached_sample(spec, subject, sample):
    corpus._last_base = None
    return synthesize_sample(spec, subject, sample)


# Holds the three pinned default-geometry samples.
MEMO_PAIRS = [(s, q) for s in (0, 1, 7, 19) for q in (0, 5, 11)]
MEMO_ORDERS = {
    "subject-major": sorted(MEMO_PAIRS),
    "sample-major": sorted(MEMO_PAIRS, key=lambda p: (p[1], p[0])),
    "reversed": sorted(MEMO_PAIRS, reverse=True),
    "random": [MEMO_PAIRS[i] for i in np.random.default_rng(5).permutation(len(MEMO_PAIRS))],
}


class TestBaseTextureMemo:
    """synthesize_sample keeps the last subject's texture; bits must not
    depend on what it holds."""

    DEFAULT = SyntheticSpec(num_subjects=20, samples_per_subject=12, seed=0)

    @pytest.mark.parametrize("order", sorted(MEMO_ORDERS))
    def test_call_order_does_not_change_bits(self, order):
        want = {p: uncached_sample(self.DEFAULT, *p) for p in MEMO_PAIRS}
        got = {p: synthesize_sample(self.DEFAULT, *p) for p in MEMO_ORDERS[order]}
        for p in MEMO_PAIRS:
            assert_same_bits(got[p], want[p])
        pinned = {k: v for k, v in TestSeparableGeometry.PINNED.items() if k[0] == "sample"}
        assert {k: blake2b_hex(got[k[1:]]) for k in pinned} == pinned

    @pytest.mark.parametrize("other", [
        {"seed": 2},
        {"seed": 1.0},  # equal to 1, but derive_seed labels it "1.0"
        {"noise_level": 0.2},
        {"seed": True},  # equal to 1, but derive_seed labels it "True"
    ])
    def test_interleaved_specs_keep_their_bits(self, other):
        base = {"num_subjects": 5, "samples_per_subject": 3, "height": 16, "width": 24, "seed": 1}
        specs = [SyntheticSpec(**base), SyntheticSpec(**{**base, **other})]
        pairs = [(s, q) for s in range(5) for q in range(3)]
        want = [{p: uncached_sample(spec, *p) for p in pairs} for spec in specs]
        # Each subject's samples of one spec, then of the other: the memo
        # hits within a run and must miss when the spec changes.
        for s in range(5):
            for spec, expected in zip(specs, want):
                for q in range(3):
                    assert_same_bits(synthesize_sample(spec, s, q), expected[s, q])

    def test_pinned_noisy_sample_after_the_default_spec(self):
        noisy = SyntheticSpec(num_subjects=20, samples_per_subject=12, seed=0, noise_level=0.2)
        synthesize_sample(self.DEFAULT, 4, 2)
        got = synthesize_sample(noisy, 4, 2)
        assert blake2b_hex(got) == TestSeparableGeometry.PINNED[("noise_0.2", 4, 2)]

    def test_subject_major_corpus_builds_each_texture_once(self, monkeypatch, tmp_path):
        calls = []

        def counted(spec, subject_index):
            calls.append(subject_index)
            return subject_base_texture(spec, subject_index)

        monkeypatch.setattr(corpus, "_last_base", None)
        monkeypatch.setattr(corpus, "subject_base_texture", counted)
        generate_synthetic(SyntheticSpec(num_subjects=3, samples_per_subject=4, height=16, width=24),
                           tmp_path / "c")
        assert calls == [0, 1, 2]

    def test_zero_noise_sample_is_a_writable_copy(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=3, noise_level=0.0, seed=5)
        first = synthesize_sample(spec, 1, 0)
        assert first.flags.writeable
        want = first.copy()
        first[:] = -1.0
        assert_same_bits(synthesize_sample(spec, 1, 1), want)

    def test_base_texture_stays_fresh_and_writable(self):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2, height=16, width=24, seed=5)
        sample = synthesize_sample(spec, 0, 0)
        texture = subject_base_texture(spec, 0)
        assert texture.flags.writeable
        texture[:] = -1.0
        assert_same_bits(synthesize_sample(spec, 0, 0), sample)
        assert subject_base_texture(spec, 0).min() >= 0.0
