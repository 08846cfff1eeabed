"""Image IO, augmentation and synthetic-corpus generation."""

import numpy as np
import pytest

from dorsalhash.corpus import (
    AugmentationSpec,
    SyntheticSpec,
    augment,
    bilinear_resize,
    generate_synthetic,
    ingest,
    load_samples,
    read_pgm,
    subject_base_texture,
    synthesize_sample,
    write_pgm,
)
from dorsalhash.errors import DataError, DimensionError, IngestionError


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

    def test_layout_sorted(self, tmp_path):
        self._make_corpus(tmp_path, subjects=2, samples=3)
        layout = ingest(tmp_path)
        assert layout.subject_ids() == ["sub0", "sub1"]
        assert [p.name for p in layout.subjects["sub0"]] == ["im0.pgm", "im1.pgm", "im2.pgm"]

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
        with pytest.raises(IngestionError, match="im9"):
            ingest(tmp_path)

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

    def test_identity_ranges_give_exact_copies(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0.0, 1.0, (9, 11))
        spec = AugmentationSpec(
            count=3, zoom=(1.0, 1.0), rotation_deg=(0.0, 0.0),
            elastic_amplitude=0.0, brightness=(0.0, 0.0), seed=1,
        )
        for v in augment(img, spec):
            assert np.array_equal(v, img)

    def test_variants_differ_from_source(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0.2, 0.8, (16, 16))
        out = augment(img, AugmentationSpec(count=5, seed=2))
        assert all(np.abs(v - img).max() > 1e-6 for v in out)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            AugmentationSpec(count=0)
        with pytest.raises(DataError):
            AugmentationSpec(zoom=(1.1, 0.9))
        with pytest.raises(DataError):
            AugmentationSpec(zoom=(-0.5, 1.0))
        with pytest.raises(DataError):
            AugmentationSpec(elastic_sigma=0.0)

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            augment(np.zeros((3, 3, 3)), AugmentationSpec(count=1))


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(num_subjects=0, samples_per_subject=3)
        with pytest.raises(DataError):
            SyntheticSpec(num_subjects=2, samples_per_subject=2, freq_band=(8.0, 4.0))
        with pytest.raises(DataError):
            SyntheticSpec(num_subjects=2, samples_per_subject=2, noise_level=-0.1)

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
        assert layout.subject_ids() == ["s00", "s01", "s02", "s03"]
        files = sorted((tmp_path / "corpus").rglob("*.pgm"))
        assert len(files) == 12
        reloaded = ingest(tmp_path / "corpus")
        assert reloaded.subject_ids() == layout.subject_ids()

    def test_generated_files_quantize_faithfully(self, tmp_path):
        spec = SyntheticSpec(num_subjects=2, samples_per_subject=2,
                             height=16, width=24, seed=4)
        generate_synthetic(spec, tmp_path / "c")
        disk = read_pgm(tmp_path / "c" / "s01" / "img01.pgm")
        fresh = synthesize_sample(spec, 1, 1)
        assert np.abs(disk - fresh).max() <= 0.5 / 255.0 + 1e-12
