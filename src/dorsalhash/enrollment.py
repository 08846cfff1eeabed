"""Enrollment lifecycle: key issuance, template stores, verification,
revocation and multi-stream feature fusion.

Both stores are append-only JSON-lines files with a versioned per-record
schema.  Template records hold only the protected bits and key lineage --
never feature vectors or image data -- so leaking the store does not leak
the biometric.  Superseded enrollments are marked revoked by follow-up
records; no complete record is ever rewritten or deleted, which keeps the
history auditable.

Store format.  Every record carries a ``schema`` number.  New records are
schema 2.  A schema-2 key record holds the key's seed and dimensions plus
``basis_blake2b``, the BLAKE2b digest of its realized basis, and never the
basis itself: the basis is a pure function of (seed, feature_dim,
bit_length), so ``load_basis`` rebuilds it and raises ``DataError`` if the
rebuilt basis does not match the digest.  Regeneration drift therefore
fails closed.  Schema-1 key records, which inline the basis as
``basis_b64``, still load as written, so old and mixed stores verify.

The vault assumes a single writer.  The CLI holds an exclusive lock on
``<store>/.lock`` across each ``enroll`` and ``revoke``; ``verify`` only
reads.  A crash mid-append leaves an unterminated last line, which replay
ignores and the next append cuts off.

Timestamps come from an injectable clock.  The default is a logical
monotone clock (epoch seconds equal to the store's record count) so that
repeated runs from one seed produce byte-identical files; pass
``wall_clock`` for real timestamps.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import secrets
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import rand
from .errors import (
    DataError,
    DimensionError,
    NormalizationError,
    RevokedCredentialError,
    UnknownIdentityError,
)
from .hashing import (
    CancelableTemplate,
    ProjectionBasis,
    UserKey,
    basis_for_key,
    template_distance,
    template_from_basis,
)

MODALITIES = ("major", "minor", "nail", "fused")
STORE_SCHEMA = 2
READABLE_SCHEMAS = (1, 2)

# Fields the vault reads from each record, by (kind, schema), and the type
# each must have.  Replay checks both, so a damaged record fails as DataError
# at open rather than as a KeyError or ValueError wherever the field is
# first read.
_LINEAGE_FIELDS = ("kind", "user_id", "modality", "key_version")
_KEY_FIELDS = _LINEAGE_FIELDS + ("seed", "bit_length", "feature_dim")
RECORD_FIELDS = {
    ("key", 1): _KEY_FIELDS + ("basis_b64",),
    ("key", 2): _KEY_FIELDS + ("basis_blake2b",),
    **{("enroll", s): _LINEAGE_FIELDS + ("bit_length", "bits_hex") for s in READABLE_SCHEMAS},
    **{("revoke", s): _LINEAGE_FIELDS for s in READABLE_SCHEMAS},
}
FIELD_TYPES = {
    **{f: int for f in ("key_version", "seed", "bit_length", "feature_dim")},
    **{f: str for f in ("kind", "user_id", "modality", "basis_b64", "basis_blake2b", "bits_hex")},
}
_HEX = re.compile(r"[0-9a-fA-F]*")


def wall_clock() -> str:
    return datetime.now(timezone.utc).isoformat()


class LogicalClock:
    """Deterministic clock: successive calls yield epoch + n seconds."""

    def __init__(self, start: int = 0):
        self.counter = int(start)

    def __call__(self) -> str:
        stamp = datetime.fromtimestamp(self.counter, tz=timezone.utc).isoformat()
        self.counter += 1
        return stamp


@dataclass(frozen=True)
class VerificationDecision:
    user_id: str
    modality: str
    key_version: int
    score: float
    threshold: float
    accepted: bool

    def __post_init__(self):
        if self.accepted != (self.score <= self.threshold):
            raise DataError("decision flag contradicts score/threshold")


class _JsonlStore:
    """Append-only JSON-lines file; records are replayed at open.

    A final segment without a trailing newline is a torn append: replay
    drops it and the next append truncates it away.  A corrupt line that is
    terminated raises, wherever it sits, and so does a record of unknown
    kind, one that lacks a field listed in RECORD_FIELDS, or one whose
    field has another type than FIELD_TYPES gives (a JSON boolean is not
    an int), or an enroll record whose bits_hex is not the hex of
    bit_length bits.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.records: list[dict] = []
        self._line_nos: list[int] = []  # file line of each record
        self._lines = 0  # terminated lines in the file
        self._end = None  # byte length of the terminated lines, if a torn tail follows
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self._end = end
        lines = data[:end].split(b"\n")[:-1]
        self._lines = len(lines)
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise DataError(f"{self.path}:{line_no}: corrupt store line ({exc})") from exc
            schema = rec.get("schema") if isinstance(rec, dict) else None
            if schema not in READABLE_SCHEMAS:
                raise DataError(f"{self.path}:{line_no}: unsupported store schema {schema!r}")
            fields = RECORD_FIELDS.get((rec.get("kind"), schema))
            if fields is None:
                raise DataError(f"{self.path}:{line_no}: unknown record kind {rec.get('kind')!r}")
            missing = [f for f in fields if f not in rec]
            if missing:
                raise DataError(f"{self.path}:{line_no}: {rec['kind']} record lacks {', '.join(missing)}")
            for f in fields:
                want = FIELD_TYPES[f]
                if not isinstance(rec[f], want) or isinstance(rec[f], bool):
                    raise DataError(
                        f"{self.path}:{line_no}: {rec['kind']} record field {f} must be "
                        f"{want.__name__}, got {rec[f]!r}"
                    )
            if rec["kind"] == "enroll":
                digits = 2 * -(-rec["bit_length"] // 8)
                if len(rec["bits_hex"]) != digits or not _HEX.fullmatch(rec["bits_hex"]):
                    raise DataError(
                        f"{self.path}:{line_no}: enroll record field bits_hex must be "
                        f"{digits} hex digits, got {rec['bits_hex']!r}"
                    )
            self.records.append(rec)
            self._line_nos.append(line_no)

    def append(self, record: dict) -> None:
        rec = dict(record, schema=STORE_SCHEMA)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._end is not None:
            os.truncate(self.path, self._end)
            self._end = None
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        self.records.append(rec)
        self._lines += 1
        self._line_nos.append(self._lines)

    def where(self, record: dict) -> str:
        """``file:line`` of one of this store's records."""
        i = next(i for i, r in enumerate(self.records) if r is record)
        return f"{self.path}:{self._line_nos[i]}"

    def __len__(self) -> int:
        return len(self.records)


def _basis_digest(matrix: np.ndarray) -> str:
    """BLAKE2b of the basis as little-endian float64 bytes, row-major."""
    return hashlib.blake2b(np.ascontiguousarray(matrix, dtype="<f8"), digest_size=32).hexdigest()


def _decode_basis(text: str, feature_dim: int, bit_length: int) -> np.ndarray:
    """Basis inlined by a schema-1 key record."""
    try:
        raw = base64.b64decode(text.encode("ascii"))
    except ValueError as exc:  # binascii.Error and UnicodeEncodeError
        raise DataError(f"basis_b64 is not base64 ({exc})") from exc
    if len(raw) != 8 * feature_dim * bit_length:
        raise DataError("basis_b64 holds a basis of the wrong size")
    return np.frombuffer(raw, dtype="<f8").reshape(feature_dim, bit_length).copy()


class TemplateVault:
    """Filesystem-backed enrollment state: a key store plus a template store.

    Keys are scoped per (user, modality) and versioned; exactly one
    enrollment per (user, modality) is active at a time.  When
    ``master_seed`` is set, key seeds are derived deterministically from
    (master_seed, user, modality, version); otherwise they are drawn from
    the OS entropy pool.

    A vault assumes a single writer: two vaults appending to one store can
    each see no active enrollment and both add one.  Callers that may run
    concurrently serialize writes themselves (the CLI locks the store).
    """

    def __init__(self, key_path, template_path, master_seed: int | None = None, clock=None):
        self.keys = _JsonlStore(key_path)
        self.templates = _JsonlStore(template_path)
        self.master_seed = master_seed
        self.clock = clock if clock is not None else LogicalClock(start=len(self.keys) + len(self.templates))

    # -- key store ---------------------------------------------------------

    def _key_records(self, user_id: str, modality: str) -> list[dict]:
        return [
            r for r in self.keys.records
            if r["kind"] == "key" and r["user_id"] == user_id and r["modality"] == modality
        ]

    def issue_key(
        self,
        user_id: str,
        modality: str = "major",
        bit_length: int = 128,
        feature_dim: int = 256,
        seed: int | None = None,
    ) -> tuple[UserKey, ProjectionBasis]:
        """Mint the next key version for (user, modality) and persist its
        seed, dimensions and the digest of its realized basis."""
        key, basis = self._mint_key(user_id, modality, bit_length, feature_dim, seed)
        self._append_key(modality, key, basis)
        return key, basis

    def _mint_key(
        self, user_id: str, modality: str, bit_length: int, feature_dim: int, seed: int | None
    ) -> tuple[UserKey, ProjectionBasis]:
        """The next key version for (user, modality) and its basis; writes
        nothing, so a key that fails validation leaves the stores as they were."""
        _check_modality(modality)
        prior = self._key_records(user_id, modality)
        version = 1 + max((r["key_version"] for r in prior), default=0)
        if seed is None:
            if self.master_seed is not None:
                seed = rand.derive_seed(self.master_seed, user_id, modality, version)
            else:
                seed = secrets.randbits(63)
        key = UserKey(user_id=user_id, seed=int(seed), bit_length=bit_length, key_version=version)
        return key, basis_for_key(key, feature_dim)

    def _append_key(self, modality: str, key: UserKey, basis: ProjectionBasis) -> None:
        self.keys.append({
            "kind": "key",
            "user_id": key.user_id,
            "modality": modality,
            "key_version": key.key_version,
            "seed": key.seed,
            "bit_length": key.bit_length,
            "feature_dim": basis.feature_dim,
            "basis_blake2b": _basis_digest(basis.matrix),
            "created_at": self.clock(),
        })

    def load_basis(self, user_id: str, modality: str, key_version: int) -> tuple[UserKey, ProjectionBasis]:
        """The key and basis of one key record.  Schema 1 reads the inlined
        basis; schema 2 rebuilds it from the seed and checks its digest."""
        recs = [r for r in self._key_records(user_id, modality) if r["key_version"] == key_version]
        if not recs:
            raise UnknownIdentityError(f"no key v{key_version} for {user_id!r}/{modality}")
        r = recs[-1]
        key = UserKey(user_id=user_id, seed=r["seed"], bit_length=r["bit_length"], key_version=key_version)
        if r["schema"] == 1:
            try:
                matrix = _decode_basis(r["basis_b64"], r["feature_dim"], r["bit_length"])
            except DataError as exc:
                raise DataError(f"{self.keys.where(r)}: key record field {exc}") from exc
            return key, ProjectionBasis(matrix=matrix, origin_key=key)
        basis = basis_for_key(key, r["feature_dim"])
        if _basis_digest(basis.matrix) != r["basis_blake2b"]:
            raise DataError(
                f"key v{key_version} for {user_id!r}/{modality}: rebuilt basis does not match its stored digest"
            )
        return key, basis

    # -- template store ----------------------------------------------------

    def _enrollments(self, user_id: str, modality: str) -> list[dict]:
        return [
            r for r in self.templates.records
            if r["kind"] == "enroll" and r["user_id"] == user_id and r["modality"] == modality
        ]

    def _revoked_versions(self, user_id: str, modality: str) -> set[int]:
        return {
            r["key_version"] for r in self.templates.records
            if r["kind"] == "revoke" and r["user_id"] == user_id and r["modality"] == modality
        }

    def active_record(self, user_id: str, modality: str = "major") -> dict | None:
        revoked = self._revoked_versions(user_id, modality)
        live = [r for r in self._enrollments(user_id, modality) if r["key_version"] not in revoked]
        if len(live) > 1:
            raise DataError(f"store invariant broken: {len(live)} active records for {user_id!r}/{modality}")
        return live[-1] if live else None

    def _mark_revoked(self, user_id: str, modality: str, key_version: int, reason: str) -> None:
        self.templates.append({
            "kind": "revoke",
            "user_id": user_id,
            "modality": modality,
            "key_version": key_version,
            "reason": reason,
            "created_at": self.clock(),
        })

    # -- lifecycle ----------------------------------------------------------

    def enroll(
        self,
        user_id: str,
        images,
        model,
        modality: str = "major",
        bit_length: int = 128,
        seed: int | None = None,
    ) -> CancelableTemplate:
        """Multishot enrollment: mean of the per-image features, hashed
        under a freshly issued key.  Any previously active enrollment for
        (user, modality) is marked revoked (superseded)."""
        _check_modality(modality)
        imgs = list(images)
        if not imgs:
            raise DataError(f"enrollment for {user_id!r} needs at least one image")
        feats = model.extract_features(imgs)
        return self.enroll_features(user_id, feats.mean(axis=0), modality=modality, bit_length=bit_length, seed=seed)

    def enroll_features(
        self,
        user_id: str,
        mean_features: np.ndarray,
        modality: str = "major",
        bit_length: int = 128,
        seed: int | None = None,
    ) -> CancelableTemplate:
        # Everything that can reject the input runs before the first append,
        # so a failed re-enroll leaves the active enrollment in place.
        f = np.asarray(mean_features, dtype=np.float64)
        key, basis = self._mint_key(user_id, modality, bit_length, f.shape[0], seed)
        template = template_from_basis(f, basis)
        prior = self.active_record(user_id, modality)
        if prior is not None:
            self._mark_revoked(user_id, modality, prior["key_version"], reason="superseded")
        self._append_key(modality, key, basis)
        self.templates.append({
            "kind": "enroll",
            "user_id": user_id,
            "modality": modality,
            "key_version": key.key_version,
            "bit_length": bit_length,
            "bits_hex": template.to_hex(),
            "basis_ref": f"keys:{user_id}:{modality}:v{key.key_version}",
            "created_at": self.clock(),
        })
        return template

    def verify(
        self,
        query_image,
        claimed_user_id: str,
        model,
        threshold: float,
        modality: str = "major",
        key_version: int | None = None,
    ) -> VerificationDecision:
        """Score a query against the claimed user's stored template.

        The query is projected onto the stored basis of the addressed
        record; acceptance means score <= threshold.  Addressing a revoked
        record (or any record of a fully revoked user) raises.
        """
        _check_modality(modality)
        enrollments = self._enrollments(claimed_user_id, modality)
        if not enrollments:
            raise UnknownIdentityError(f"no enrollment for {claimed_user_id!r}/{modality}")
        revoked = self._revoked_versions(claimed_user_id, modality)
        if key_version is None:
            record = self.active_record(claimed_user_id, modality)
            if record is None:
                raise RevokedCredentialError(
                    f"all enrollments for {claimed_user_id!r}/{modality} are revoked"
                )
        else:
            matching = [r for r in enrollments if r["key_version"] == key_version]
            if not matching:
                raise UnknownIdentityError(f"no enrollment v{key_version} for {claimed_user_id!r}/{modality}")
            if key_version in revoked:
                raise RevokedCredentialError(
                    f"enrollment v{key_version} for {claimed_user_id!r}/{modality} is revoked"
                )
            record = matching[-1]
        features = model.forward(np.asarray(query_image, dtype=np.float64))[0]
        score = self.score_features(features, record)
        return VerificationDecision(
            user_id=claimed_user_id,
            modality=modality,
            key_version=record["key_version"],
            score=score,
            threshold=float(threshold),
            accepted=score <= float(threshold),
        )

    def score_features(self, features: np.ndarray, record: dict) -> float:
        """Distance between a fresh feature vector and one stored record."""
        _, basis = self.load_basis(record["user_id"], record["modality"], record["key_version"])
        stored = CancelableTemplate.from_hex(
            record["bits_hex"], record["user_id"], record["key_version"], record["bit_length"]
        )
        return template_distance(template_from_basis(features, basis).bits, stored.bits)

    def revoke_and_reissue(
        self,
        user_id: str,
        images,
        model,
        modality: str = "major",
        bit_length: int | None = None,
    ) -> CancelableTemplate:
        """Invalidate the active enrollment and re-enroll under a new key
        (next version, fresh seed).  The old record stays on file, marked
        revoked."""
        _check_modality(modality)
        record = self.active_record(user_id, modality)
        if record is None:
            if self._enrollments(user_id, modality):
                raise RevokedCredentialError(f"all enrollments for {user_id!r}/{modality} already revoked")
            raise UnknownIdentityError(f"no enrollment for {user_id!r}/{modality}")
        self._mark_revoked(user_id, modality, record["key_version"], reason="revoked")
        bits = bit_length if bit_length is not None else record["bit_length"]
        return self.enroll(user_id, images, model, modality=modality, bit_length=bits)


def _check_modality(modality: str) -> None:
    if modality not in MODALITIES:
        raise DataError(f"modality must be one of {MODALITIES}, got {modality!r}")


def fuse_features(vectors) -> np.ndarray:
    """Sum-rule fusion: min-max each vector to [0, 1], center it to zero
    mean, then add.

    Centering is load-bearing for sign-projection hashing: a sum of
    [0, 1]-range vectors rides a large shared positive offset, and that
    common component correlates projections across unrelated subjects,
    compressing the score distribution. All vectors must share one
    length; a constant vector cannot be normalized and raises.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        raise DataError("fuse_features needs at least one vector")
    length = vecs[0].shape
    if any(v.ndim != 1 for v in vecs) or any(v.shape != length for v in vecs):
        raise DimensionError(f"fusion vectors must be 1-D with equal length, got {[v.shape for v in vecs]}")
    fused = np.zeros(length, dtype=np.float64)
    for v in vecs:
        lo, hi = float(v.min()), float(v.max())
        if hi == lo:
            raise NormalizationError("cannot min-max normalize a constant vector")
        ranged = (v - lo) / (hi - lo)
        fused += ranged - ranged.mean()
    return fused
