"""Enrollment lifecycle: key issuance, template stores, verification and
revocation.

Both stores are append-only JSON-lines files with a versioned per-record
schema.  Template records hold only the protected bits and key lineage --
never feature vectors or image data -- so the raw feature vector is not on
disk.  That is all that is claimed: the keys are not secret.  With a known
master seed (the CLI passes ``--seed``, default 0) a key's seed is
``rand.derive_seed(master_seed, user, modality, version)``, a function of
public labels, so the template file alone lets anyone rebuild the basis B
and form the pre-image B(2b - 1), which verifies at distance 0.  Secret
keys are ROADMAP.md item 2.  Superseded enrollments are marked revoked by
follow-up records; no complete record is ever rewritten or deleted, which
keeps the history auditable.

Store format.  Every record carries a ``schema`` number.  New records are
schema 2.  A schema-2 key record holds the key's seed and dimensions plus
``basis_blake2b``, the BLAKE2b digest of its realized basis, and never the
basis itself: the basis is a pure function of (seed, feature_dim,
bit_length), so ``load_basis`` rebuilds it and raises ``DataError`` if the
rebuilt basis does not match the digest.  Regeneration drift therefore
fails closed.  Schema-1 key records, which inline the basis as
``basis_b64``, still load as written, so old and mixed stores verify.

Index sidecar.  Next to each store file sits ``<file>.index`` (for example
``keys.jsonl.index``): the byte length of the file's validated prefix, the
BLAKE2b of that prefix, its line and record counts, and the (byte offset,
line number) of every record, grouped by (user, modality).  Opening a store
hashes the prefix and compares the digest with the sidecar's; only lines
whose bytes the digest proves unchanged skip re-validation.  Lines past the
prefix are validated in full, and the vault then parses and checks just the
records of the (user, modality) it addresses.  Every sidecar fault -- a
missing, torn or malformed sidecar, a length past the end of the file, a
digest mismatch, an offset out of range or one filed under another (user,
modality) -- falls back to a full replay, so a corrupt or edited line still
raises ``DataError`` naming ``file:line``.  An open that validated lines
past the sidecar rewrites it (best effort: a temporary file, then
``os.replace``); appends never do.  The sidecar is derived data and safe to
delete.

The vault assumes a single writer.  The CLI holds an exclusive lock on
``<store>/.lock`` across each ``enroll`` and ``revoke``; ``verify`` writes
no store record but may rewrite the sidecar.  A crash mid-append leaves an
unterminated last line, which replay ignores and the next append cuts off.

Timestamps come from a logical monotone clock (epoch seconds equal to the
store's record count), so repeated runs from one seed produce
byte-identical files.
"""

from __future__ import annotations

import base64
import contextlib
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
from .errors import DataError, RevokedCredentialError, UnknownIdentityError
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


class _StaleIndex(Exception):
    """A sidecar entry does not describe the store file."""


def _check_record(line: bytes, path: Path, line_no: int) -> dict:
    """One store line, decoded and checked against RECORD_FIELDS and
    FIELD_TYPES; any fault raises DataError naming ``path:line_no``."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise DataError(f"{path}:{line_no}: corrupt store line ({exc})") from exc
    schema = rec.get("schema") if isinstance(rec, dict) else None
    if schema not in READABLE_SCHEMAS:
        raise DataError(f"{path}:{line_no}: unsupported store schema {schema!r}")
    fields = RECORD_FIELDS.get((rec.get("kind"), schema))
    if fields is None:
        raise DataError(f"{path}:{line_no}: unknown record kind {rec.get('kind')!r}")
    missing = [f for f in fields if f not in rec]
    if missing:
        raise DataError(f"{path}:{line_no}: {rec['kind']} record lacks {', '.join(missing)}")
    for f in fields:
        want = FIELD_TYPES[f]
        if not isinstance(rec[f], want) or isinstance(rec[f], bool):
            raise DataError(
                f"{path}:{line_no}: {rec['kind']} record field {f} must be "
                f"{want.__name__}, got {rec[f]!r}"
            )
    if rec["kind"] == "enroll":
        digits = 2 * -(-rec["bit_length"] // 8)
        if len(rec["bits_hex"]) != digits or not _HEX.fullmatch(rec["bits_hex"]):
            raise DataError(
                f"{path}:{line_no}: enroll record field bits_hex must be "
                f"{digits} hex digits, got {rec['bits_hex']!r}"
            )
    return rec


class _JsonlStore:
    """Append-only JSON-lines file, read one (user, modality) at a time.

    Open checks the file against its sidecar, then validates and indexes
    the lines the sidecar does not vouch for (see the module docstring).
    ``group`` parses and checks the records of one (user, modality) on
    first use, from the byte offsets the sidecar and the open recorded;
    appends keep the parsed groups current.

    A final segment without a trailing newline is a torn append: it is not
    indexed, and the next append truncates it away.  A corrupt line that is
    terminated raises, wherever it sits, and so does a record of unknown
    kind, one that lacks a field listed in RECORD_FIELDS, or one whose
    field has another type than FIELD_TYPES gives (a JSON boolean is not
    an int), or an enroll record whose bits_hex is not the hex of
    bit_length bits.

    The sidecar is one JSON header line -- ``length`` and ``blake2b`` of
    the vouched prefix, its ``lines`` and ``records``, and the ``body``
    size -- followed by one line per (user, modality),
    ``[user, modality, [offset, line], ...]``.  A lookup finds its line
    with a byte search, so an open builds nothing per user.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._index_path = self.path.with_name(self.path.name + ".index")
        self._open(use_index=True)

    def _open(self, use_index: bool) -> None:
        """Read the file and index its terminated lines; with use_index,
        skip validating the prefix that a sound sidecar vouches for."""
        self._data = b""
        self._end = 0  # byte length of the terminated lines
        self._torn = False  # an unterminated segment follows them
        self._lines = 0  # terminated lines, then lines appended
        self._count = 0  # records
        self._vouched = 0  # leading bytes validated only by the sidecar's digest
        self._body = b"\n"  # the sidecar's group lines, each after a newline
        self._validated: dict[tuple[str, str], list] = {}  # [[offset, line], ...] of lines this open checked
        self._groups: dict[tuple[str, str], tuple[list[dict], list[int]]] = {}  # parsed: records, lines
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        self._data = data
        self._end = data.rfind(b"\n") + 1
        self._torn = self._end < len(data)
        digest = self._read_index() if use_index else hashlib.blake2b(digest_size=32)
        try:
            self._index_lines()
            if self._end > self._vouched:
                digest.update(memoryview(data)[self._vouched:self._end])
                self._write_index(digest.hexdigest())
        except (DataError, _StaleIndex):
            if not self._vouched:
                raise
            self._open(use_index=False)  # a bad line is reported under its own number

    def _read_index(self):
        """Take over a sound sidecar's counts and group lines, and return
        the BLAKE2b of the prefix it vouches for; an empty hash if there is
        no sound sidecar."""
        data = self._data
        try:
            side = self._index_path.read_bytes()
            cut = side.index(b"\n")
            head = json.loads(side[:cut])
            sound = (
                type(head) is dict
                and all(type(head.get(f)) is int for f in ("length", "lines", "records", "body"))
                and type(head.get("blake2b")) is str
                and 0 < head["length"] <= self._end and data[head["length"] - 1] == 0x0A
                and head["body"] == len(side) - cut
            )
        except (OSError, ValueError):
            sound = False
        if sound:
            length = head["length"]
            digest = hashlib.blake2b(memoryview(data)[:length], digest_size=32)
            if digest.hexdigest() == head["blake2b"]:
                self._vouched, self._lines, self._count = length, head["lines"], head["records"]
                self._body = side[cut:]
                return digest
        return hashlib.blake2b(digest_size=32)

    def _index_lines(self) -> None:
        """Validate and index the terminated lines after the vouched prefix."""
        pos = self._vouched
        for line in self._data[pos:self._end].split(b"\n")[:-1]:
            self._lines += 1
            if line.strip():
                rec = _check_record(line, self.path, self._lines)
                self._validated.setdefault((rec["user_id"], rec["modality"]), []).append([pos, self._lines])
                self._count += 1
            pos += len(line) + 1

    def _find(self, key: tuple[str, str]) -> tuple[int, int] | None:
        """Span of key's group line in the sidecar body, from the newline
        before it to the one after it."""
        start = self._body.find(b"\n" + json.dumps(list(key), separators=(",", ":")).encode()[:-1] + b",")
        if start < 0:
            return None
        stop = self._body.find(b"\n", start + 1)
        if stop < 0:
            raise _StaleIndex
        return start, stop

    def _entries(self, key: tuple[str, str]) -> list:
        """[[offset, line], ...] of key's records, vouched ones first."""
        span = self._find(key)
        vouched = []
        if span:
            try:
                vouched = json.loads(self._body[span[0] + 1:span[1]])[2:]
            except ValueError as exc:
                raise _StaleIndex from exc
        return vouched + self._validated.get(key, [])

    def _write_index(self, digest: str) -> None:
        """Best-effort sidecar for the terminated lines: the group lines of
        keys this open validated lines for are rewritten, the rest are
        kept as they are.  A failed write only means the next open
        validates those lines again."""
        new = [json.dumps([*key, *self._entries(key)], separators=(",", ":")) for key in self._validated]
        kept, pos = [], 0
        for start, stop in sorted(filter(None, map(self._find, self._validated))):
            kept.append(self._body[pos:start])
            pos = stop
        body = b"".join(kept) + self._body[pos:] + "".join(line + "\n" for line in new).encode()
        head = {"length": self._end, "blake2b": digest, "lines": self._lines, "records": self._count,
                "body": len(body)}
        tmp = self._index_path.with_name(f"{self._index_path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(json.dumps(head, separators=(",", ":")).encode() + body)
            os.replace(tmp, self._index_path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)

    def _group(self, key: tuple[str, str]) -> tuple[list[dict], list[int]]:
        group = self._groups.get(key)
        if group is None:
            try:
                group = self._parse(key)
            except (_StaleIndex, DataError):
                if not self._vouched:
                    raise
                self._open(use_index=False)
                return self._group(key)
            self._groups[key] = group
        return group

    def _parse(self, key: tuple[str, str]) -> tuple[list[dict], list[int]]:
        """Decode and check the indexed lines of one (user, modality).  An
        entry that is not the start of a later line of that (user,
        modality) than the entry before it is stale."""
        data, end = self._data, self._end
        records, line_nos = [], []
        prev = -1
        for entry in self._entries(key):
            if not (type(entry) is list and len(entry) == 2 and all(type(x) is int for x in entry)):
                raise _StaleIndex
            offset, line_no = entry
            if not (prev < offset < end and (offset == 0 or data[offset - 1] == 0x0A)):
                raise _StaleIndex
            rec = _check_record(data[offset:data.index(b"\n", offset)], self.path, line_no)
            if (rec["user_id"], rec["modality"]) != key:
                raise _StaleIndex
            records.append(rec)
            line_nos.append(line_no)
            prev = offset
        return records, line_nos

    def group(self, user_id: str, modality: str) -> list[dict]:
        """The records of (user_id, modality), in file order."""
        return self._group((user_id, modality))[0]

    def append(self, record: dict) -> None:
        rec = dict(record, schema=STORE_SCHEMA)
        # Parse the group first: a fallback replay re-reads the file, which
        # must not hold this record yet.
        records, line_nos = self._group((rec["user_id"], rec["modality"]))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._torn:
            os.truncate(self.path, self._end)
            self._torn = False
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        self._lines += 1
        self._count += 1
        records.append(rec)
        line_nos.append(self._lines)

    def where(self, record: dict) -> str:
        """``file:line`` of one of this store's records."""
        records, line_nos = self._group((record["user_id"], record["modality"]))
        return f"{self.path}:{next(n for r, n in zip(records, line_nos) if r is record)}"

    def __len__(self) -> int:
        return self._count


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
    enrollment per (user, modality) is active at a time.  The vault alone
    picks key seeds, and no method takes one: when ``master_seed`` is set,
    they are derived deterministically from (master_seed, user, modality,
    version); otherwise they are drawn from the OS entropy pool.

    A vault assumes a single writer: two vaults appending to one store can
    each see no active enrollment and both add one.  Callers that may run
    concurrently serialize writes themselves (the CLI locks the store).
    """

    def __init__(self, key_path, template_path, master_seed: int | None = None):
        self.keys = _JsonlStore(key_path)
        self.templates = _JsonlStore(template_path)
        self.master_seed = master_seed
        self.clock = LogicalClock(start=len(self.keys) + len(self.templates))

    # -- key store ---------------------------------------------------------

    def _key_records(self, user_id: str, modality: str) -> list[dict]:
        return [r for r in self.keys.group(user_id, modality) if r["kind"] == "key"]

    def issue_key(
        self,
        user_id: str,
        modality: str = "major",
        bit_length: int = 128,
        feature_dim: int = 256,
    ) -> tuple[UserKey, ProjectionBasis]:
        """Mint the next key version for (user, modality) and persist its
        seed, dimensions and the digest of its realized basis."""
        key, basis = self._mint_key(user_id, modality, bit_length, feature_dim)
        self._append_key(modality, key, basis)
        return key, basis

    def _mint_key(
        self, user_id: str, modality: str, bit_length: int, feature_dim: int
    ) -> tuple[UserKey, ProjectionBasis]:
        """The next key version for (user, modality) and its basis; writes
        nothing, so a key that fails validation leaves the stores as they were."""
        _check_modality(modality)
        prior = self._key_records(user_id, modality)
        version = 1 + max((r["key_version"] for r in prior), default=0)
        if self.master_seed is not None:
            seed = rand.derive_seed(self.master_seed, user_id, modality, version)
        else:
            seed = secrets.randbits(63)
        key = UserKey(user_id=user_id, seed=seed, bit_length=bit_length, key_version=version)
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
        return [r for r in self.templates.group(user_id, modality) if r["kind"] == "enroll"]

    def _revoked_versions(self, user_id: str, modality: str) -> set[int]:
        return {r["key_version"] for r in self.templates.group(user_id, modality) if r["kind"] == "revoke"}

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
    ) -> CancelableTemplate:
        """Multishot enrollment: mean of the per-image features, hashed
        under a freshly issued key.  Any previously active enrollment for
        (user, modality) is marked revoked (superseded)."""
        _check_modality(modality)
        features = _mean_features(user_id, images, model)
        return self.enroll_features(user_id, features, modality=modality, bit_length=bit_length)

    def enroll_features(
        self,
        user_id: str,
        mean_features: np.ndarray,
        modality: str = "major",
        bit_length: int = 128,
    ) -> CancelableTemplate:
        return self._replace_active(user_id, mean_features, modality, bit_length, reason="superseded")

    def _replace_active(
        self,
        user_id: str,
        mean_features: np.ndarray,
        modality: str,
        bit_length: int,
        reason: str,
    ) -> CancelableTemplate:
        """Enroll under the next key version, marking the active enrollment
        (if any) revoked for ``reason``.  Everything that can reject the
        input runs before the first append, so a failed call leaves the
        active enrollment in place."""
        f = np.asarray(mean_features, dtype=np.float64)
        if not np.isfinite(f).all():
            raise DataError(f"features of {user_id!r} are not finite")
        key, basis = self._mint_key(user_id, modality, bit_length, f.shape[0])
        template = template_from_basis(f, basis)
        prior = self.active_record(user_id, modality)
        if prior is not None:
            self._mark_revoked(user_id, modality, prior["key_version"], reason=reason)
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
        revoked.  Features, key and template are made before the revoke is
        appended, so a reissue that fails leaves the old enrollment active."""
        _check_modality(modality)
        record = self.active_record(user_id, modality)
        if record is None:
            if self._enrollments(user_id, modality):
                raise RevokedCredentialError(f"all enrollments for {user_id!r}/{modality} already revoked")
            raise UnknownIdentityError(f"no enrollment for {user_id!r}/{modality}")
        bits = bit_length if bit_length is not None else record["bit_length"]
        features = _mean_features(user_id, images, model)
        return self._replace_active(user_id, features, modality, bits, reason="revoked")


def _check_modality(modality: str) -> None:
    if modality not in MODALITIES:
        raise DataError(f"modality must be one of {MODALITIES}, got {modality!r}")


def _mean_features(user_id: str, images, model) -> np.ndarray:
    """Mean feature vector of one user's enrollment images."""
    imgs = list(images)
    if not imgs:
        raise DataError(f"enrollment for {user_id!r} needs at least one image")
    return model.extract_features(imgs).mean(axis=0)
