"""Enrollment lifecycle: stores, verification, revocation, fusion."""

import base64
import json

import numpy as np
import pytest

from dorsalhash.enrollment import (
    LogicalClock,
    TemplateVault,
    VerificationDecision,
    fuse_features,
)
from dorsalhash.errors import (
    DataError,
    DimensionError,
    NormalizationError,
    RevokedCredentialError,
    UnknownIdentityError,
)
from dorsalhash.hashing import ProjectionBasis, UserKey, basis_for_key, binarize, project

# BLAKE2b of basis_for_key(UserKey("u", 1, 128), 256); also pinned in test_hashing.
PINNED_BASIS_BLAKE2B = "33cbcfabdd8696b14c27ee5187146cd481ac16a27ddb822ab770bd8148c62b82"


def _dump(records) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def _edit_key_record(path, **fields):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1].update(fields)
    path.write_text(_dump(records))


@pytest.fixture
def vault(tmp_path):
    return TemplateVault(tmp_path / "keys.jsonl", tmp_path / "templates.jsonl", master_seed=42)


@pytest.fixture
def image(tiny_config):
    rng = np.random.default_rng(11)
    return rng.uniform(0.1, 0.9, (tiny_config.input_height, tiny_config.input_width))


@pytest.fixture(scope="module")
def calibrated_net(tiny_config):
    # An uncalibrated model's features share one dominant direction, which
    # makes every projection sign agree; calibration spreads them so that
    # cross-subject scores actually discriminate.
    from dorsalhash.network import FixedFilterNet

    net = FixedFilterNet.build(tiny_config)
    rng = np.random.default_rng(99)
    shape = (tiny_config.input_height, tiny_config.input_width)
    net.calibrate_dense([rng.uniform(0.1, 0.9, shape) for _ in range(8)])
    return net


class TestClock:
    def test_logical_clock_is_deterministic(self):
        a, b = LogicalClock(), LogicalClock()
        assert [a() for _ in range(3)] == [b() for _ in range(3)]

    def test_logical_clock_advances(self):
        c = LogicalClock()
        assert c() != c()


class TestDecision:
    def test_contradictory_flag_rejected(self):
        with pytest.raises(DataError):
            VerificationDecision(
                user_id="u", modality="major", key_version=1,
                score=0.9, threshold=0.1, accepted=True,
            )


class TestLifecycle:
    def test_enroll_then_verify_self_is_zero(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        decision = vault.verify(image, "alice", tiny_net, threshold=0.2)
        assert decision.score == 0.0
        assert decision.accepted
        assert decision.key_version == 1

    def test_verify_other_user_scores_high(self, vault, calibrated_net, image):
        rng = np.random.default_rng(12)
        other = rng.uniform(0.1, 0.9, image.shape)
        vault.enroll("alice", [image], calibrated_net, bit_length=32)
        vault.enroll("bob", [other], calibrated_net, bit_length=32)
        own = vault.verify(image, "alice", calibrated_net, threshold=0.2)
        cross = vault.verify(other, "alice", calibrated_net, threshold=0.2)
        assert own.score < cross.score
        assert not cross.accepted

    def test_unknown_user_rejected(self, vault, tiny_net, image):
        with pytest.raises(UnknownIdentityError):
            vault.verify(image, "nobody", tiny_net, threshold=0.5)

    def test_unknown_modality_rejected(self, vault, tiny_net, image):
        with pytest.raises(DataError):
            vault.enroll("alice", [image], tiny_net, modality="iris")

    def test_enroll_needs_images(self, vault, tiny_net):
        with pytest.raises(DataError):
            vault.enroll("alice", [], tiny_net)

    def test_reenroll_bumps_version_and_supersedes(self, vault, tiny_net, image):
        t1 = vault.enroll("alice", [image], tiny_net, bit_length=32)
        t2 = vault.enroll("alice", [image], tiny_net, bit_length=32)
        assert (t1.key_version, t2.key_version) == (1, 2)
        active = vault.active_record("alice")
        assert active["key_version"] == 2
        with pytest.raises(RevokedCredentialError):
            vault.verify(image, "alice", tiny_net, threshold=0.5, key_version=1)

    def test_revoke_and_reissue(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        new = vault.revoke_and_reissue("alice", [image], tiny_net)
        assert new.key_version == 2
        with pytest.raises(RevokedCredentialError):
            vault.verify(image, "alice", tiny_net, threshold=0.5, key_version=1)
        ok = vault.verify(image, "alice", tiny_net, threshold=0.2)
        assert ok.key_version == 2 and ok.score == 0.0

    def test_revoke_unknown_user_rejected(self, vault, tiny_net, image):
        with pytest.raises(UnknownIdentityError):
            vault.revoke_and_reissue("ghost", [image], tiny_net)

    def test_new_key_changes_template_bits(self, vault, tiny_net, image):
        t1 = vault.enroll("alice", [image], tiny_net, bit_length=64)
        t2 = vault.revoke_and_reissue("alice", [image], tiny_net)
        assert t1.bit_length == t2.bit_length == 64
        assert not np.array_equal(t1.bits, t2.bits)

    def test_verify_missing_version_rejected(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net)
        with pytest.raises(UnknownIdentityError):
            vault.verify(image, "alice", tiny_net, threshold=0.5, key_version=7)


class TestStore:
    def test_append_only_under_lifecycle(self, vault, tiny_net, image, tmp_path):
        path = vault.templates.path
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        first = path.read_bytes()
        vault.revoke_and_reissue("alice", [image], tiny_net)
        second = path.read_bytes()
        assert second.startswith(first)
        assert len(second) > len(first)

    def test_template_store_holds_no_biometrics(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        vault.revoke_and_reissue("alice", [image], tiny_net)
        allowed = {
            "kind", "user_id", "modality", "key_version", "bit_length",
            "bits_hex", "basis_ref", "created_at", "schema", "reason",
        }
        for line in vault.templates.path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) <= allowed
            if rec["kind"] == "enroll":
                assert len(rec["bits_hex"]) == rec["bit_length"] // 4

    def test_reopen_uses_stored_basis(self, vault, tiny_net, image, tmp_path):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        # Different master seed on reopen: verification must still match,
        # because the basis is rebuilt from the seed in the key record, not
        # derived again from the master seed.
        reopened = TemplateVault(
            vault.keys.path, vault.templates.path, master_seed=999,
        )
        decision = reopened.verify(image, "alice", tiny_net, threshold=0.2)
        assert decision.score == 0.0

    def test_deterministic_stores_across_runs(self, tiny_net, image, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            v = TemplateVault(d / "k.jsonl", d / "t.jsonl", master_seed=7)
            v.enroll("alice", [image], tiny_net, bit_length=32)
            v.revoke_and_reissue("alice", [image], tiny_net)
            blobs.append((v.keys.path.read_bytes(), v.templates.path.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_corrupt_store_line_rejected(self, tmp_path):
        p = tmp_path / "k.jsonl"
        p.write_text('{"schema":1,"kind":"key"}\nnot json\n')
        with pytest.raises(DataError):
            TemplateVault(p, tmp_path / "t.jsonl")

    def test_unsupported_schema_rejected(self, tmp_path):
        p = tmp_path / "k.jsonl"
        p.write_text('{"schema":99,"kind":"key"}\n')
        with pytest.raises(DataError):
            TemplateVault(p, tmp_path / "t.jsonl")

    def test_torn_last_line_is_dropped_then_cut_off(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        before = {s.path: s.path.read_bytes() for s in (vault.keys, vault.templates)}
        for path in before:
            with open(path, "ab") as fh:
                fh.write(b'{"kind":"enroll","user_id":"bo')
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert (len(reopened.keys), len(reopened.templates)) == (1, 1)
        assert reopened.verify(image, "alice", tiny_net, threshold=0.2).score == 0.0
        reopened.enroll("bob", [image], tiny_net, bit_length=32)
        for path, prefix in before.items():
            data = path.read_bytes()
            assert data.startswith(prefix)
            assert [json.loads(line)["user_id"] for line in data.splitlines()] == ["alice", "bob"]
        again = TemplateVault(vault.keys.path, vault.templates.path)
        assert again.verify(image, "bob", tiny_net, threshold=0.2).score == 0.0

    def test_torn_only_line_leaves_an_empty_store(self, tmp_path, tiny_net, image):
        keys, templates = tmp_path / "k.jsonl", tmp_path / "t.jsonl"
        keys.write_bytes(b'{"schema":2,"ki')
        v = TemplateVault(keys, templates, master_seed=1)
        assert len(v.keys) == 0
        v.enroll("alice", [image], tiny_net, bit_length=32)
        assert [json.loads(line)["user_id"] for line in keys.read_bytes().splitlines()] == ["alice"]

    def test_corrupt_line_before_torn_tail_still_rejected(self, tmp_path):
        p = tmp_path / "k.jsonl"
        p.write_text('not json\n{"schema":2,"ki')
        with pytest.raises(DataError):
            TemplateVault(p, tmp_path / "t.jsonl")


class TestDerivedBasis:
    def test_key_record_digest_is_pinned(self, vault):
        key, basis = vault.issue_key("u", bit_length=128, feature_dim=256, seed=1)
        record = vault.keys.records[-1]
        assert record["schema"] == 2
        assert record["basis_blake2b"] == PINNED_BASIS_BLAKE2B
        loaded_key, loaded = vault.load_basis("u", "major", key.key_version)
        assert loaded_key == key
        assert np.array_equal(loaded.matrix, basis.matrix)

    def test_key_store_holds_no_basis_or_features(self, vault, tiny_net, image):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        vault.revoke_and_reissue("alice", [image], tiny_net)
        allowed = {
            "kind", "user_id", "modality", "key_version", "seed", "bit_length",
            "feature_dim", "basis_blake2b", "created_at", "schema",
        }
        for line in vault.keys.path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) <= allowed
            assert len(rec["basis_blake2b"]) == 64

    @pytest.mark.parametrize("field, value", [("seed", 12345), ("basis_blake2b", "00" * 32)])
    def test_edited_key_record_fails_closed(self, vault, tiny_net, image, field, value):
        vault.enroll("alice", [image], tiny_net, bit_length=32)
        _edit_key_record(vault.keys.path, **{field: value})
        reopened = TemplateVault(vault.keys.path, vault.templates.path)
        with pytest.raises(DataError):
            reopened.load_basis("alice", "major", 1)
        with pytest.raises(DataError):
            reopened.verify(image, "alice", tiny_net, threshold=0.2)

    def test_schema1_store_still_verifies(self, tmp_path, tiny_net, image):
        # A schema-1 key record inlines its basis.  This one is an arbitrary
        # orthonormal basis, not the one its seed regenerates, so a score of
        # 0 shows the inlined basis is what verification reads.
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((tiny_net.feature_dim, 32)))
        features = tiny_net.extract_features([image])[0]
        bits = binarize(project(features, ProjectionBasis(q)))
        keys, templates = tmp_path / "keys.jsonl", tmp_path / "templates.jsonl"
        keys.write_text(_dump([{
            "kind": "key", "user_id": "alice", "modality": "major", "key_version": 1,
            "seed": 77, "bit_length": 32, "feature_dim": tiny_net.feature_dim,
            "basis_b64": base64.b64encode(q.astype("<f8").tobytes()).decode("ascii"),
            "created_at": "1970-01-01T00:00:00+00:00", "schema": 1,
        }]))
        templates.write_text(_dump([{
            "kind": "enroll", "user_id": "alice", "modality": "major", "key_version": 1,
            "bit_length": 32, "bits_hex": np.packbits(bits).tobytes().hex(),
            "basis_ref": "keys:alice:major:v1", "created_at": "1970-01-01T00:00:01+00:00",
            "schema": 1,
        }]))
        vault = TemplateVault(keys, templates, master_seed=3)
        assert vault.verify(image, "alice", tiny_net, threshold=0.2).score == 0.0

        other = np.random.default_rng(12).uniform(0.1, 0.9, image.shape)
        vault.enroll("bob", [other], tiny_net, bit_length=32)
        mixed = TemplateVault(keys, templates)
        assert [r["schema"] for r in mixed.keys.records] == [1, 2]
        assert mixed.verify(image, "alice", tiny_net, threshold=0.2).score == 0.0
        assert mixed.verify(other, "bob", tiny_net, threshold=0.2).score == 0.0


class TestFusion:
    def test_min_max_then_centering(self):
        # [2, 4, 6] ranges to [0, 0.5, 1]; subtracting its mean gives a
        # signed vector, which is what sign hashing needs downstream.
        fused = fuse_features([np.array([2.0, 4.0, 6.0])])
        assert np.allclose(fused, [-0.5, 0.0, 0.5])

    def test_sum_rule(self):
        fused = fuse_features([np.array([0.0, 1.0]), np.array([10.0, 20.0])])
        assert np.allclose(fused, [-1.0, 1.0])

    def test_fused_vector_has_zero_mean(self):
        rng = np.random.default_rng(7)
        fused = fuse_features([rng.normal(size=32) for _ in range(3)])
        assert abs(fused.mean()) < 1e-12

    def test_self_fusion_preserves_template_bits(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=64)
        key = UserKey(user_id="u", seed=5, bit_length=32)
        basis = basis_for_key(key, 64)
        once = binarize(project(fuse_features([f]), basis))
        twice = binarize(project(fuse_features([f, f]), basis))
        assert np.array_equal(once, twice)

    def test_constant_vector_rejected(self):
        with pytest.raises(NormalizationError):
            fuse_features([np.full(8, 3.3)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fuse_features([np.zeros(4), np.zeros(5)])
        with pytest.raises(DimensionError):
            fuse_features([np.zeros((2, 2))])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fuse_features([])
