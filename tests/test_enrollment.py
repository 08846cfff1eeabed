"""Enrollment lifecycle: stores, verification, revocation, fusion."""

import base64
import hashlib
import json
import re

import numpy as np
import pytest

from dorsalhash import enrollment, rand
from dorsalhash.enrollment import LogicalClock, TemplateVault, VerificationDecision
from dorsalhash.errors import (
    BadKeyError,
    DataError,
    DimensionError,
    NormalizationError,
    RevokedCredentialError,
    UnknownIdentityError,
)
from dorsalhash.hashing import CancelableTemplate, ProjectionBasis, UserKey, basis_for_key, binarize, project
from dorsalhash.pipeline import fuse_features

# BLAKE2b of basis_for_key(UserKey("u", 1, 128), 256); also pinned in test_hashing.
PINNED_BASIS_BLAKE2B = "33cbcfabdd8696b14c27ee5187146cd481ac16a27ddb822ab770bd8148c62b82"


def _dump(records) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def feats(net, *images):
    """Mean feature vector of images, as the CLI extracts it to enroll,
    reissue (the mean of several) or verify (one image)."""
    return net.extract_features(images).mean(axis=0)


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
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        decision = vault.verify(feats(tiny_net, image), "alice", threshold=0.2)
        assert decision.score == 0.0
        assert decision.accepted
        assert decision.key_version == 1

    def test_verify_other_user_scores_high(self, vault, calibrated_net, image):
        rng = np.random.default_rng(12)
        other = rng.uniform(0.1, 0.9, image.shape)
        vault.enroll_features("alice", feats(calibrated_net, image), bit_length=32)
        vault.enroll_features("bob", feats(calibrated_net, other), bit_length=32)
        own = vault.verify(feats(calibrated_net, image), "alice", threshold=0.2)
        cross = vault.verify(feats(calibrated_net, other), "alice", threshold=0.2)
        assert own.score < cross.score
        assert not cross.accepted

    def test_unknown_user_rejected(self, vault, tiny_net, image):
        with pytest.raises(UnknownIdentityError):
            vault.verify(feats(tiny_net, image), "nobody", threshold=0.5)

    def test_unknown_modality_rejected(self, vault, tiny_net, image):
        with pytest.raises(DataError):
            vault.enroll_features("alice", feats(tiny_net, image), modality="iris")

    def test_enroll_needs_images(self, vault, tiny_net):
        with pytest.raises(DataError, match="empty image list"):
            vault.enroll_features("alice", feats(tiny_net))
        assert len(vault.keys) == len(vault.templates) == 0

    def test_reenroll_bumps_version_and_supersedes(self, vault, tiny_net, image):
        t1 = vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        t2 = vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        assert (t1.key_version, t2.key_version) == (1, 2)
        active = vault.active_record("alice")
        assert active["key_version"] == 2
        with pytest.raises(RevokedCredentialError):
            vault.verify(feats(tiny_net, image), "alice", threshold=0.5, key_version=1)

    def test_failed_reenroll_keeps_the_active_enrollment(self, vault, tiny_net, image):
        other = np.random.default_rng(12).uniform(0.1, 0.9, image.shape)
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        before = vault.verify(feats(tiny_net, other), "alice", threshold=0.5)
        stores = (vault.keys.path.read_bytes(), vault.templates.path.read_bytes())
        with pytest.raises(BadKeyError):
            vault.enroll_features("alice", np.ones(32), bit_length=64)
        assert (vault.keys.path.read_bytes(), vault.templates.path.read_bytes()) == stores
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert reopened.active_record("alice")["key_version"] == 1
        assert reopened.verify(feats(tiny_net, other), "alice", threshold=0.5) == before

    @pytest.mark.parametrize("bad", ["all_nan", "one_inf"])
    def test_non_finite_features_refused_before_any_append(self, vault, tiny_net, image, bad):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        stores = (vault.keys.path.read_bytes(), vault.templates.path.read_bytes())
        features = np.full(256, np.nan) if bad == "all_nan" else np.where(np.arange(256) == 9, np.inf, 0.5)
        for user in ("u", "alice"):
            with pytest.raises(DataError, match=f"features of '{user}' are not finite"):
                vault.enroll_features(user, features)
        assert (vault.keys.path.read_bytes(), vault.templates.path.read_bytes()) == stores
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert reopened.active_record("u") is None
        assert reopened.active_record("alice")["key_version"] == 1

    @pytest.mark.parametrize("shape", [(2, 256), (1, 256), (), (256, 1)])
    def test_features_that_are_not_one_vector_refused_before_any_append(self, vault, tiny_net, image, shape):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        stores = (vault.keys.path.read_bytes(), vault.templates.path.read_bytes())
        bad = np.full(shape, 0.5)
        for user in ("u", "alice"):
            with pytest.raises(DataError, match=f"features of '{user}' must be one vector"):
                vault.enroll_features(user, bad, bit_length=64)
        with pytest.raises(DataError, match="features of 'alice' must be one vector"):
            vault.revoke_and_reissue("alice", bad)
        with pytest.raises(DataError, match="features of 'alice' must be one vector"):
            vault.verify(bad, "alice", threshold=0.5)
        assert (vault.keys.path.read_bytes(), vault.templates.path.read_bytes()) == stores
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert reopened.active_record("u") is None
        assert reopened.active_record("alice")["key_version"] == 1

    @pytest.mark.parametrize("bad", ["all_nan", "one_inf", "one_minus_inf"])
    def test_non_finite_query_features_refused(self, vault, tiny_net, image, bad):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        query = np.full(tiny_net.feature_dim, np.nan) if bad == "all_nan" else feats(tiny_net, image)
        query[9] = {"all_nan": np.nan, "one_inf": np.inf, "one_minus_inf": -np.inf}[bad]
        with pytest.raises(DataError, match="features of 'alice' are not finite"):
            vault.score_features(query, vault.active_record("alice"))
        with pytest.raises(DataError, match="features of 'alice' are not finite"):
            vault.verify(query, "alice", threshold=0.5)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.01, 1.01])
    def test_threshold_outside_the_unit_interval_refused(self, vault, tiny_net, image, threshold):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        other = feats(tiny_net, np.random.default_rng(12).uniform(0.1, 0.9, image.shape))
        with pytest.raises(DataError, match="threshold must lie in \\[0, 1\\]"):
            vault.verify(other, "alice", threshold=threshold)
        assert not vault.verify(other, "alice", threshold=0.0).accepted
        assert vault.verify(other, "alice", threshold=1.0).accepted

    def test_failed_reissue_keeps_the_active_enrollment(self, vault, tiny_net, image):
        other = np.random.default_rng(12).uniform(0.1, 0.9, image.shape)
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        before = vault.verify(feats(tiny_net, other), "alice", threshold=0.5)
        stores = (vault.keys.path.read_bytes(), vault.templates.path.read_bytes())
        with pytest.raises(DataError, match="features of 'alice' are not finite"):
            vault.revoke_and_reissue("alice", np.full(tiny_net.feature_dim, np.nan))
        assert (vault.keys.path.read_bytes(), vault.templates.path.read_bytes()) == stores
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert reopened.active_record("alice")["key_version"] == 1
        assert reopened.verify(feats(tiny_net, other), "alice", threshold=0.5) == before

    def test_revoke_and_reissue(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        new = vault.revoke_and_reissue("alice", feats(tiny_net, image))
        assert new.key_version == 2
        with pytest.raises(RevokedCredentialError):
            vault.verify(feats(tiny_net, image), "alice", threshold=0.5, key_version=1)
        ok = vault.verify(feats(tiny_net, image), "alice", threshold=0.2)
        assert ok.key_version == 2 and ok.score == 0.0

    def test_revoke_unknown_user_rejected(self, vault, tiny_net, image):
        with pytest.raises(UnknownIdentityError):
            vault.revoke_and_reissue("ghost", feats(tiny_net, image))

    def test_new_key_changes_template_bits(self, vault, tiny_net, image):
        t1 = vault.enroll_features("alice", feats(tiny_net, image), bit_length=64)
        t2 = vault.revoke_and_reissue("alice", feats(tiny_net, image))
        assert t1.bit_length == t2.bit_length == 64
        assert not np.array_equal(t1.bits, t2.bits)

    def test_verify_missing_version_rejected(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image))
        with pytest.raises(UnknownIdentityError):
            vault.verify(feats(tiny_net, image), "alice", threshold=0.5, key_version=7)


class TestStore:
    def test_append_only_under_lifecycle(self, vault, tiny_net, image, tmp_path):
        path = vault.templates.path
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        first = path.read_bytes()
        vault.revoke_and_reissue("alice", feats(tiny_net, image))
        second = path.read_bytes()
        assert second.startswith(first)
        assert len(second) > len(first)

    def test_template_store_holds_no_biometrics(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        vault.revoke_and_reissue("alice", feats(tiny_net, image))
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
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        # Different master seed on reopen: verification must still match,
        # because the basis is rebuilt from the seed in the key record, not
        # derived again from the master seed.
        reopened = TemplateVault(
            vault.keys.path, vault.templates.path, master_seed=999,
        )
        decision = reopened.verify(feats(tiny_net, image), "alice", threshold=0.2)
        assert decision.score == 0.0

    def test_deterministic_stores_across_runs(self, tiny_net, image, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            v = TemplateVault(d / "k.jsonl", d / "t.jsonl", master_seed=7)
            v.enroll_features("alice", feats(tiny_net, image), bit_length=32)
            v.revoke_and_reissue("alice", feats(tiny_net, image))
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

    @pytest.mark.parametrize("store, field, value", [
        ("keys", "seed", "abc"),
        ("keys", "bit_length", 32.0),
        ("keys", "feature_dim", True),
        ("keys", "key_version", "1"),
        ("keys", "basis_blake2b", 0),
        ("keys", "user_id", None),
        ("templates", "bits_hex", 7),
        ("templates", "modality", ["major"]),
    ])
    def test_field_of_wrong_type_rejected(self, vault, tiny_net, image, store, field, value):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        path = getattr(vault, store).path
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, **{field: value})) + "\n")
        with pytest.raises(DataError, match=f"{path.name}:1: .*{field}"):
            TemplateVault(vault.keys.path, vault.templates.path)

    @pytest.mark.parametrize("bits_hex", ["zz" * 4, "ab cd ef", "0x000000", "0" * 7, "0" * 10, ""])
    def test_bits_hex_that_does_not_spell_its_bits_rejected(self, vault, tiny_net, image, bits_hex):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        path = vault.templates.path
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, bits_hex=bits_hex)) + "\n")
        with pytest.raises(DataError, match=f"{path.name}:1: .*bits_hex"):
            TemplateVault(vault.keys.path, vault.templates.path)

    def test_upper_case_bits_hex_still_verifies(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        path = vault.templates.path
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, bits_hex=record["bits_hex"].upper())) + "\n")
        reopened = TemplateVault(vault.keys.path, vault.templates.path)
        assert reopened.verify(feats(tiny_net, image), "alice", threshold=0.2).score == 0.0

    def test_torn_last_line_is_dropped_then_cut_off(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        before = {s.path: s.path.read_bytes() for s in (vault.keys, vault.templates)}
        for path in before:
            with open(path, "ab") as fh:
                fh.write(b'{"kind":"enroll","user_id":"bo')
        reopened = TemplateVault(vault.keys.path, vault.templates.path, master_seed=42)
        assert (len(reopened.keys), len(reopened.templates)) == (1, 1)
        assert reopened.verify(feats(tiny_net, image), "alice", threshold=0.2).score == 0.0
        reopened.enroll_features("bob", feats(tiny_net, image), bit_length=32)
        for path, prefix in before.items():
            data = path.read_bytes()
            assert data.startswith(prefix)
            assert [json.loads(line)["user_id"] for line in data.splitlines()] == ["alice", "bob"]
        again = TemplateVault(vault.keys.path, vault.templates.path)
        assert again.verify(feats(tiny_net, image), "bob", threshold=0.2).score == 0.0

    def test_torn_only_line_leaves_an_empty_store(self, tmp_path, tiny_net, image):
        keys, templates = tmp_path / "k.jsonl", tmp_path / "t.jsonl"
        keys.write_bytes(b'{"schema":2,"ki')
        v = TemplateVault(keys, templates, master_seed=1)
        assert len(v.keys) == 0
        v.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        assert [json.loads(line)["user_id"] for line in keys.read_bytes().splitlines()] == ["alice"]

    def test_corrupt_line_before_torn_tail_still_rejected(self, tmp_path):
        p = tmp_path / "k.jsonl"
        p.write_text('not json\n{"schema":2,"ki')
        with pytest.raises(DataError):
            TemplateVault(p, tmp_path / "t.jsonl")


class TestKeyExposure:
    @pytest.mark.xfail(strict=True, reason="keys derive from public labels under a known master "
                       "seed until the vault has a secret (ROADMAP item 3)")
    def test_template_file_alone_does_not_give_a_verifying_preimage(self, tmp_path):
        # The CLI's default master seed is 0.  An attacker holding only
        # templates.jsonl derives alice's key seed from public labels,
        # rebuilds the basis B and forms the pre-image f' = B(2b - 1).
        vault = TemplateVault(tmp_path / "keys.jsonl", tmp_path / "templates.jsonl", master_seed=0)
        feature_dim = 128
        vault.enroll_features("alice", np.random.default_rng(3).normal(size=feature_dim))
        record = next(json.loads(line) for line in vault.templates.path.read_text().splitlines()
                      if json.loads(line)["kind"] == "enroll")
        version, bits = record["key_version"], record["bit_length"]
        seed = rand.derive_seed(0, "alice", "major", version)
        basis = basis_for_key(UserKey("alice", seed, bits, version), feature_dim)
        stored = CancelableTemplate.from_hex(record["bits_hex"], "alice", version, bits)
        preimage = basis.matrix @ (2.0 * stored.bits - 1.0)
        # With secret keys the pre-image is a guess against an unknown
        # basis and scores near 0.5; with public keys it scores 0.0.
        assert vault.score_features(preimage, record) > 0.25


def _sidecar(path):
    return path.with_name(path.name + ".index")


def _edit_sidecar(path, edit):
    """Apply edit(head, groups) to a sidecar and write it back whole: the
    digest line, the header line, then one compact JSON line per (user,
    modality).  The digest is recomputed over the store's first length
    bytes (as the header gave it before the edit) and the edited rest, so
    only the edit can make the sidecar unsound."""
    head, *groups = [json.loads(line) for line in _sidecar(path).read_text().splitlines()[1:]]
    prefix = path.read_bytes()[:head["length"]]
    edit(head, groups)
    rest = json.dumps(head) + "\n" + "".join(json.dumps(g, separators=(",", ":")) + "\n" for g in groups)
    digest = hashlib.blake2b(prefix + rest.encode(), digest_size=32).hexdigest()
    _sidecar(path).write_text(digest + "\n" + rest)


def _head(path):
    return json.loads(_sidecar(path).read_text().splitlines()[1])


def _swap_alice_and_bob(head, groups):
    alice, bob = (next(g for g in groups if g[0] == user) for user in ("alice", "bob"))
    alice[2:], bob[2:] = bob[2:], alice[2:]


def _set_first_offset(user, offset):
    return lambda head, groups: next(g for g in groups if g[0] == user).__setitem__(2, offset)


def _cut_below_the_sidecar(keys, templates):
    length = _head(templates)["length"]
    data = templates.read_bytes()
    templates.write_bytes(data[:data.rfind(b"\n", 0, length - 1) + 1])


def _rename_bob(keys, templates):
    # A same-length edit of the sidecar's group lines hides bob's records:
    # only the digest can tell.
    side = _sidecar(templates).read_bytes()
    assert side.count(b'["bob",') == 1
    _sidecar(templates).write_bytes(side.replace(b'["bob",', b'["bpb",'))


def _blank_later_entries_of_alice(keys, templates):
    # Spaces in place of all but alice's first entry, at the same length,
    # leave her first enrollment looking active.
    lines = _sidecar(templates).read_bytes().split(b"\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(b'["alice",'))
    first = json.dumps(json.loads(lines[i])[:3], separators=(",", ":")).encode()
    assert len(first) < len(lines[i])
    lines[i] = first[:-1] + b" " * (len(lines[i]) - len(first)) + b"]"
    _sidecar(templates).write_bytes(b"\n".join(lines))


def _flip_a_bit_of_alice(keys, templates):
    # A same-length edit of a line the sidecar covers: still a valid
    # record, so only the digest can tell the sidecar is stale.
    lines = templates.read_bytes().split(b"\n")
    i = next(i for i, line in enumerate(lines) if b'"alice"' in line and b'"enroll"' in line)
    rec = json.loads(lines[i])
    rec["bits_hex"] = f"{int(rec['bits_hex'], 16) ^ 1:0{len(rec['bits_hex'])}x}"
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    templates.write_bytes(b"\n".join(lines))


def _write_older_format_sidecar(path):
    """The sidecar as it was before one digest covered it: a six-field
    header, then ``[user, modality, [offset, line], ...]`` per group, with
    separate digests of the prefix and of the body."""
    data = path.read_bytes()
    groups, pos = {}, 0
    lines = data.split(b"\n")[:-1]
    for n, line in enumerate(lines, 1):
        rec = json.loads(line)
        groups.setdefault((rec["user_id"], rec["modality"]), []).append([pos, n])
        pos += len(line) + 1
    body = "\n" + "".join(json.dumps([*key, *entries], separators=(",", ":")) + "\n"
                          for key, entries in groups.items())
    head = {"length": len(data), "blake2b": hashlib.blake2b(data, digest_size=32).hexdigest(),
            "lines": len(lines), "records": len(lines), "body": len(body),
            "body_blake2b": hashlib.blake2b(body.encode(), digest_size=32).hexdigest()}
    _sidecar(path).write_text(json.dumps(head, separators=(",", ":")) + body)


def _miscount_records(keys, templates):
    # A leading digit on the template count (7 becomes 17): an open that
    # believed it reported 18 records where a replay finds 8, and the
    # logical clock moved with it.
    side = _sidecar(templates).read_bytes()
    assert side.count(b'"records":7}') == 1
    _sidecar(templates).write_bytes(side.replace(b'"records":7}', b'"records":17}'))


SIDECAR_FAULTS = {
    "none": lambda k, t: None,
    "deleted": lambda k, t: (_sidecar(k).unlink(), _sidecar(t).unlink()),
    "torn": lambda k, t: _sidecar(t).write_bytes(_sidecar(t).read_bytes()[:20]),
    "cut_at_a_line_end": lambda k, t: _sidecar(k).write_bytes(
        _sidecar(k).read_bytes()[:_sidecar(k).read_bytes().rindex(b"\n", 0, -1) + 1]),
    "not_json": lambda k, t: _sidecar(k).write_text("not json"),
    "header_not_an_object": lambda k, t: _sidecar(t).write_text("[]\n"),
    "wrong_types": lambda k, t: _edit_sidecar(t, lambda h, g: h.update(length=str(h["length"]))),
    "digest_mismatch": lambda k, t: _sidecar(k).write_bytes(b"00" * 32 + _sidecar(k).read_bytes()[64:]),
    "length_past_the_file": lambda k, t: _edit_sidecar(t, lambda h, g: h.update(length=t.stat().st_size + 10)),
    "store_cut_below_the_sidecar": _cut_below_the_sidecar,
    "prefix_line_edited": _flip_a_bit_of_alice,
    "offset_out_of_range": lambda k, t: _edit_sidecar(t, _set_first_offset("alice", 10**9)),
    "offset_negative": lambda k, t: _edit_sidecar(k, _set_first_offset("bob", -1)),
    "offset_inside_a_line": lambda k, t: _edit_sidecar(t, _set_first_offset("bob", 1)),
    "offsets_filed_under_another_user": lambda k, t: (_edit_sidecar(k, _swap_alice_and_bob),
                                                      _edit_sidecar(t, _swap_alice_and_bob)),
    "group_renamed_same_length": _rename_bob,
    "entries_blanked_same_length": _blank_later_entries_of_alice,
    "records_miscounted": _miscount_records,
}

INDEXED_PAIRS = [("alice", "major"), ("bob", "major"), ("carol", "minor"), ("dave", "major"), ("nobody", "major")]


@pytest.fixture
def indexed(tmp_path, tiny_net, image):
    """Two stores whose sidecars cover every line but a tail: alice
    re-enrolled, bob reissued, carol on another modality, and dave enrolled
    after the sidecars were written."""
    rng = np.random.default_rng(21)
    dim = tiny_net.feature_dim
    v = TemplateVault(tmp_path / "keys.jsonl", tmp_path / "templates.jsonl", master_seed=5)
    for user, modality in [("alice", "major"), ("bob", "major"), ("carol", "minor"), ("alice", "major")]:
        v.enroll_features(user, rng.standard_normal(dim), modality=modality, bit_length=32)
    v.revoke_and_reissue("bob", feats(tiny_net, image))
    assert not _sidecar(v.keys.path).exists()  # appends never write it
    v = TemplateVault(v.keys.path, v.templates.path, master_seed=5)
    assert _sidecar(v.keys.path).exists() and _sidecar(v.templates.path).exists()
    v.enroll_features("dave", rng.standard_normal(dim), bit_length=32)
    return v.keys.path, v.templates.path


def _answers(keys, templates, net, image):
    vault = TemplateVault(keys, templates, master_seed=5)
    out = [len(vault.keys), len(vault.templates)]
    for user, modality in INDEXED_PAIRS:
        out += [vault.active_record(user, modality), vault.keys.group(user, modality)]
        try:
            out.append(vault.verify(feats(net, image), user, threshold=0.5, modality=modality))
        except (UnknownIdentityError, RevokedCredentialError) as exc:
            out.append(type(exc))
    return out


class TestIndexSidecar:
    @pytest.mark.parametrize("fault", SIDECAR_FAULTS.values(), ids=SIDECAR_FAULTS.keys())
    def test_indexed_open_answers_as_a_full_replay(self, indexed, tiny_net, image, fault):
        keys, templates = indexed
        fault(keys, templates)
        got = _answers(keys, templates, tiny_net, image)
        # Each open validated lines past its sidecar, so it rewrote it.
        for path in (keys, templates):
            assert _head(path)["length"] == path.stat().st_size
        for path in (keys, templates):
            _sidecar(path).unlink()
        assert got == _answers(keys, templates, tiny_net, image)

    def test_edited_line_inside_the_indexed_prefix_raises(self, indexed):
        keys, templates = indexed
        data = templates.read_bytes()
        first = data[:data.index(b"\n")]
        rec = json.loads(first)
        edited = json.dumps(dict(rec, bits_hex="zz" * 4), sort_keys=True, separators=(",", ":")).encode()
        assert len(edited) == len(first)
        templates.write_bytes(edited + data[len(first):])
        with pytest.raises(DataError, match="templates.jsonl:1: .*bits_hex"):
            TemplateVault(keys, templates)

    def test_a_sidecar_in_the_older_format_is_replayed_once_and_rewritten(self, indexed, monkeypatch):
        keys, templates = indexed
        for path in (keys, templates):
            _write_older_format_sidecar(path)
        checked = []
        check = enrollment._check_record
        monkeypatch.setattr(enrollment, "_check_record", lambda line: checked.append(line) or check(line))
        TemplateVault(keys, templates)
        assert len(checked) == len(keys.read_bytes().splitlines()) + len(templates.read_bytes().splitlines())
        for path in (keys, templates):
            digest, head = _sidecar(path).read_text().splitlines()[:2]
            assert re.fullmatch("[0-9a-f]{64}", digest)
            assert json.loads(head) == {"length": path.stat().st_size, "records": len(path.read_bytes().splitlines())}
        checked.clear()
        TemplateVault(keys, templates)
        assert checked == []  # the rewritten sidecars vouch for every line

    def test_a_corrupt_line_the_digest_vouches_for_is_named_when_its_group_is_read(self, indexed):
        # The digest is recomputed over the damaged store, so the open
        # trusts the line; reading alice's records finds it.
        keys, templates = indexed
        lines = templates.read_bytes().split(b"\n")
        n = max(i for i, line in enumerate(lines, 1) if b'"alice"' in line and b'"enroll"' in line)
        assert 3 <= n <= len(templates.read_bytes()[:_head(templates)["length"]].splitlines())
        lines[n - 1] = re.sub(rb'"bits_hex":"..', b'"bits_hex":"zz', lines[n - 1])
        templates.write_bytes(b"\n".join(lines))
        _edit_sidecar(templates, lambda h, g: None)
        vault = TemplateVault(keys, templates)
        assert vault.active_record("bob")["key_version"] == 2
        with pytest.raises(DataError, match=f"templates.jsonl:{n}: enroll record field bits_hex"):
            vault.active_record("alice")

    def test_a_corrupt_line_past_a_sound_sidecar_is_named_by_its_line(self, indexed):
        keys, templates = indexed
        with open(templates, "ab") as fh:
            fh.write(b"not json\n")
        n = len(templates.read_bytes().splitlines())
        assert n > len(templates.read_bytes()[:_head(templates)["length"]].splitlines()) + 1
        with pytest.raises(DataError, match=f"templates.jsonl:{n}: corrupt store line"):
            TemplateVault(keys, templates)

    def test_unwritable_sidecar_is_skipped(self, indexed, tiny_net, image):
        keys, templates = indexed
        for path in (keys, templates):
            _sidecar(path).unlink()
            _sidecar(path).mkdir()  # os.replace onto a directory fails
        got = _answers(keys, templates, tiny_net, image)
        for path in (keys, templates):
            _sidecar(path).rmdir()
        assert got == _answers(keys, templates, tiny_net, image)
        assert not list(keys.parent.glob("*.tmp"))

    def test_open_decodes_only_the_addressed_users_and_the_tail(self, tmp_path, monkeypatch):
        users = 10_000
        keys, templates = tmp_path / "keys.jsonl", tmp_path / "templates.jsonl"

        def lineage(u, version=1):
            return {"user_id": f"u{u:05d}", "modality": "major", "key_version": version, "schema": 2,
                    "created_at": "1970-01-01T00:00:00+00:00"}

        def key(u, version=1):
            return {**lineage(u, version), "kind": "key", "seed": u, "bit_length": 128, "feature_dim": 256,
                    "basis_blake2b": "00" * 32}

        def enroll(u, version=1):
            return {**lineage(u, version), "kind": "enroll", "bit_length": 128, "bits_hex": f"{u + version:032x}"}

        keys.write_text(_dump(key(u) for u in range(users)))
        templates.write_text(_dump(enroll(u) for u in range(users)))
        TemplateVault(keys, templates)  # replays both stores in full and writes their sidecars
        tails = {keys: [key(7, 2)], templates: [dict(lineage(7), kind="revoke"), enroll(7, 2)]}
        for path, records in tails.items():
            with open(path, "a") as fh:
                fh.write(_dump(records))
        # active_record reads the template store only; the key store's tail
        # is validated at open.
        addressed = {line for line in templates.read_bytes().splitlines()
                     if b'"u00007"' in line or b'"u09999"' in line}
        addressed |= set(_dump(tails[keys]).encode().splitlines())

        decoded = []
        loads = json.loads
        monkeypatch.setattr(enrollment.json, "loads", lambda s, *a, **kw: decoded.append(s) or loads(s, *a, **kw))
        vault = TemplateVault(keys, templates)
        assert vault.active_record("u00007")["bits_hex"] == f"{9:032x}"
        assert vault.active_record("u09999")["bits_hex"] == f"{10000:032x}"
        monkeypatch.undo()

        lines = [bytes(s) for s in decoded if b'"kind":' in s]  # not a sidecar line
        assert set(lines) == addressed
        assert len(lines) < 2 * len(addressed)
        assert (len(vault.keys), len(vault.templates)) == (users + 1, users + 2)


class TestDerivedBasis:
    def test_key_record_digest_is_pinned(self, vault):
        # Keys are minted from the vault's master seed, so the seed-1 key is
        # appended directly.
        key = UserKey(user_id="u", seed=1, bit_length=128)
        basis = basis_for_key(key, 256)
        vault._append_key("major", key, basis)
        record = json.loads(vault.keys.path.read_text().splitlines()[-1])
        assert record["schema"] == 2
        assert record["basis_blake2b"] == PINNED_BASIS_BLAKE2B
        loaded_key, loaded = vault.load_basis("u", "major", key.key_version, 256)
        assert loaded_key == key
        assert np.array_equal(loaded.matrix, basis.matrix)

    def test_key_store_holds_no_basis_or_features(self, vault, tiny_net, image):
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        vault.revoke_and_reissue("alice", feats(tiny_net, image))
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
        vault.enroll_features("alice", feats(tiny_net, image), bit_length=32)
        _edit_key_record(vault.keys.path, **{field: value})
        reopened = TemplateVault(vault.keys.path, vault.templates.path)
        with pytest.raises(DataError):
            reopened.load_basis("alice", "major", 1, tiny_net.feature_dim)
        with pytest.raises(DataError):
            reopened.verify(feats(tiny_net, image), "alice", threshold=0.2)

    @pytest.mark.parametrize("basis_b64, why", [
        ("QUJDA", "not base64"),
        ("QUJD\u00e9", "not base64"),
        (base64.b64encode(b"\x00" * 8).decode("ascii"), "wrong size"),
    ])
    def test_schema1_basis_that_does_not_decode_rejected(self, tmp_path, basis_b64, why):
        records = [{
            "kind": "key", "user_id": user, "modality": "major", "key_version": 1,
            "seed": 77, "bit_length": 32, "feature_dim": 32,
            "basis_b64": base64.b64encode(np.eye(32).astype("<f8").tobytes()).decode("ascii"),
            "created_at": "1970-01-01T00:00:00+00:00", "schema": 1,
        } for user in ("bob", "alice")]
        records[1]["basis_b64"] = basis_b64
        keys = tmp_path / "keys.jsonl"
        keys.write_text(_dump(records))
        with pytest.raises(DataError, match=f"keys.jsonl:2: key record field basis_b64 .*{why}"):
            TemplateVault(keys, tmp_path / "templates.jsonl")

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
        assert vault.verify(feats(tiny_net, image), "alice", threshold=0.2).score == 0.0

        other = np.random.default_rng(12).uniform(0.1, 0.9, image.shape)
        vault.enroll_features("bob", feats(tiny_net, other), bit_length=32)
        mixed = TemplateVault(keys, templates)
        assert [json.loads(line)["schema"] for line in keys.read_text().splitlines()] == [1, 2]
        assert mixed.verify(feats(tiny_net, image), "alice", threshold=0.2).score == 0.0
        assert mixed.verify(feats(tiny_net, other), "bob", threshold=0.2).score == 0.0


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
