"""Enrollment lifecycle: key issuance, template stores, verification and
revocation.

The vault works on feature vectors and never sees an image or a model:
``enroll_features`` and ``revoke_and_reissue`` take the mean feature vector
of a user's images, ``verify`` takes one query vector, and the caller
extracts them (the CLI runs its model).  A vector that is not finite raises
``DataError`` naming the user, and so does a ``verify`` threshold outside
[0, 1].  Every lifecycle answer -- the active enrollment, an addressed
version, whether it is revoked -- comes from one read of the (user,
modality) group of enroll and revoke records.

Both stores are append-only JSON-lines files with a versioned per-record
schema.  Template records hold only the protected bits and key lineage --
never feature vectors or image data -- so the raw feature vector is not on
disk.  That is all that is claimed: the keys are not secret.  With a known
master seed (the CLI passes ``--seed``, default 0) a key's seed is
``rand.derive_seed(master_seed, user, modality, version)``, a function of
public labels, so the template file alone lets anyone rebuild the basis B
and form the pre-image B(2b - 1), which verifies at distance 0.  Secret
keys are ROADMAP.md item 3.  Superseded enrollments are marked revoked by
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
``keys.jsonl.index``): a digest line, a header with the byte length of the
file's validated prefix and its record count, and the byte offsets of
every record, grouped by (user, modality).  The digest is the BLAKE2b of
the prefix followed by the rest of the sidecar, so one check covers the
prefix, the count and every offset; only lines it proves unchanged skip
re-validation.  Lines past the prefix are validated in full, and the vault
then parses and checks just the records of the (user, modality) it
addresses.  Every sidecar fault -- a missing, torn or malformed sidecar, a
length past the end of the file, a digest mismatch, an offset out of range
or one filed under another (user, modality) -- falls back to a full
replay, so a corrupt or edited line still raises ``DataError`` naming
``file:line``.  An open that validated lines past the sidecar rewrites it
(best effort: a temporary file, then ``os.replace``); appends never do.
The sidecar is derived data and safe to delete.

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


def _check_record(line: bytes) -> dict:
    """One store line, decoded and checked against RECORD_FIELDS and
    FIELD_TYPES; any fault raises DataError, which the caller locates."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise DataError(f"corrupt store line ({exc})") from exc
    schema = rec.get("schema") if isinstance(rec, dict) else None
    if schema not in READABLE_SCHEMAS:
        raise DataError(f"unsupported store schema {schema!r}")
    fields = RECORD_FIELDS.get((rec.get("kind"), schema))
    if fields is None:
        raise DataError(f"unknown record kind {rec.get('kind')!r}")
    missing = [f for f in fields if f not in rec]
    if missing:
        raise DataError(f"{rec['kind']} record lacks {', '.join(missing)}")
    for f in fields:
        want = FIELD_TYPES[f]
        if not isinstance(rec[f], want) or isinstance(rec[f], bool):
            raise DataError(f"{rec['kind']} record field {f} must be {want.__name__}, got {rec[f]!r}")
    if rec["kind"] == "enroll":
        digits = 2 * -(-rec["bit_length"] // 8)
        if len(rec["bits_hex"]) != digits or not _HEX.fullmatch(rec["bits_hex"]):
            raise DataError(f"enroll record field bits_hex must be {digits} hex digits, got {rec['bits_hex']!r}")
    if rec["kind"] == "key" and schema == 1:
        try:
            size = len(base64.b64decode(rec["basis_b64"].encode("ascii")))
        except ValueError as exc:  # binascii.Error and UnicodeEncodeError
            raise DataError(f"key record field basis_b64 is not base64 ({exc})") from exc
        if size != 8 * rec["feature_dim"] * rec["bit_length"]:
            raise DataError("key record field basis_b64 holds a basis of the wrong size")
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
    an int), an enroll record whose bits_hex is not the hex of bit_length
    bits, or a schema-1 key record whose basis_b64 does not decode to
    8 * feature_dim * bit_length bytes.

    The sidecar is a digest line, a header line ``{"length": L, "records":
    R}``, and one line per (user, modality), ``[user, modality, offset,
    ...]``.  The digest is the BLAKE2b of the file's first L bytes followed
    by every sidecar byte after the digest line.  A lookup finds its line
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
        self._count = 0  # records
        self._vouched = 0  # leading bytes validated only by the sidecar's digest
        self._body = b"\n"  # the group lines, each after a newline
        self._groups: dict[tuple[str, str], list[dict]] = {}  # parsed records
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
                self._write_index(digest)
        except (DataError, _StaleIndex):
            if not self._vouched:
                raise
            self._open(use_index=False)  # a bad line is reported under its own number

    def _read_index(self):
        """Take over a sound sidecar's count and group lines, and return
        the BLAKE2b of the prefix it vouches for; an empty hash if there is
        no sound sidecar."""
        try:
            side = self._index_path.read_bytes()
            cut = side.index(b"\n") + 1  # past the digest line
            body = side.index(b"\n", cut)  # the newline before the group lines
            head = json.loads(side[cut:body])
            length = head["length"] if type(head) is dict and set(head) == {"length", "records"} else None
            sound = type(length) is int and type(head["records"]) is int and 0 < length <= self._end
        except (OSError, ValueError):
            sound = False
        if sound and self._data[length - 1] == 0x0A:
            digest = hashlib.blake2b(memoryview(self._data)[:length], digest_size=32)
            whole = digest.copy()
            whole.update(memoryview(side)[cut:])
            if whole.hexdigest().encode() == side[:cut - 1]:
                self._vouched, self._count = length, head["records"]
                self._body = side[body:]
                return digest
        return hashlib.blake2b(digest_size=32)

    def _index_lines(self) -> None:
        """Validate the terminated lines after the vouched prefix and file
        their offsets into the group lines."""
        pos, new = self._vouched, {}
        for line_no, line in enumerate(self._data[pos:self._end].split(b"\n")[:-1], 1):
            if line.strip():
                try:
                    rec = _check_record(line)
                except DataError as exc:
                    # line_no counts from the vouched prefix; past one,
                    # _open replays from line 1, so only a true number
                    # reaches the caller.
                    raise DataError(f"{self.path}:{line_no}: {exc}") from exc
                new.setdefault((rec["user_id"], rec["modality"]), []).append(pos)
                self._count += 1
            pos += len(line) + 1
        lines = "".join(json.dumps([*key, *self._entries(key), *offsets], separators=(",", ":")) + "\n"
                        for key, offsets in new.items())
        kept, pos = [], 0
        for start, stop in sorted(filter(None, map(self._find, new))):
            kept.append(self._body[pos:start])
            pos = stop
        self._body = b"".join(kept) + self._body[pos:] + lines.encode()

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
        """Byte offsets of key's records, in file order."""
        span = self._find(key)
        if not span:
            return []
        try:
            return json.loads(self._body[span[0] + 1:span[1]])[2:]
        except ValueError as exc:
            raise _StaleIndex from exc

    def _write_index(self, digest) -> None:
        """Best-effort sidecar for the terminated lines, given the hash of
        them.  A failed write only means the next open validates the lines
        past the old sidecar again."""
        rest = json.dumps({"length": self._end, "records": self._count}, separators=(",", ":")).encode() + self._body
        digest.update(rest)
        tmp = self._index_path.with_name(f"{self._index_path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(digest.hexdigest().encode() + b"\n" + rest)
            os.replace(tmp, self._index_path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)

    def _group(self, key: tuple[str, str]) -> list[dict]:
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

    def _parse(self, key: tuple[str, str]) -> list[dict]:
        """Decode and check the indexed lines of one (user, modality).  An
        offset that is not the start of a later line of that (user,
        modality) than the offset before it is stale."""
        data, end = self._data, self._end
        records = []
        prev = -1
        for offset in self._entries(key):
            if not (type(offset) is int and prev < offset < end and (offset == 0 or data[offset - 1] == 0x0A)):
                raise _StaleIndex
            rec = _check_record(data[offset:data.index(b"\n", offset)])
            if (rec["user_id"], rec["modality"]) != key:
                raise _StaleIndex
            records.append(rec)
            prev = offset
        return records

    def group(self, user_id: str, modality: str) -> list[dict]:
        """The records of (user_id, modality), in file order."""
        return self._group((user_id, modality))

    def append(self, record: dict) -> None:
        rec = dict(record, schema=STORE_SCHEMA)
        # Parse the group first: a fallback replay re-reads the file, which
        # must not hold this record yet.
        records = self._group((rec["user_id"], rec["modality"]))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._torn:
            os.truncate(self.path, self._end)
            self._torn = False
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        self._count += 1
        records.append(rec)

    def __len__(self) -> int:
        return self._count


def _basis_digest(matrix: np.ndarray) -> str:
    """BLAKE2b of the basis as little-endian float64 bytes, row-major."""
    return hashlib.blake2b(np.ascontiguousarray(matrix, dtype="<f8"), digest_size=32).hexdigest()


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

    def issue_key(
        self,
        user_id: str,
        modality: str = "major",
        bit_length: int = 128,
        feature_dim: int = 256,
    ) -> tuple[UserKey, ProjectionBasis]:
        """Mint the next key version for (user, modality) and persist its
        seed, dimensions and the digest of its realized basis."""
        _check_modality(modality)
        key, basis = self._mint_key(user_id, modality, bit_length, feature_dim)
        self._append_key(modality, key, basis)
        return key, basis

    def _mint_key(
        self, user_id: str, modality: str, bit_length: int, feature_dim: int
    ) -> tuple[UserKey, ProjectionBasis]:
        """The next key version for (user, modality) and its basis; writes
        nothing, so a key that fails validation leaves the stores as they were."""
        prior = self.keys.group(user_id, modality)
        version = 1 + max((r["key_version"] for r in prior if r["kind"] == "key"), default=0)
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

    def load_basis(
        self, user_id: str, modality: str, key_version: int, feature_dim: int
    ) -> tuple[UserKey, ProjectionBasis]:
        """The key and basis of one key record, for features of
        ``feature_dim`` values.  A record made for another dimension raises
        DataError before any basis is read or drawn, so an edited
        ``feature_dim`` cannot size an allocation.  Schema 1 reads the
        inlined basis; schema 2 rebuilds it from the seed and checks its
        digest."""
        recs = [r for r in self.keys.group(user_id, modality)
                if r["kind"] == "key" and r["key_version"] == key_version]
        if not recs:
            raise UnknownIdentityError(f"no key v{key_version} for {user_id!r}/{modality}")
        r = recs[-1]
        if r["feature_dim"] != feature_dim:
            raise DataError(
                f"key v{key_version} for {user_id!r}/{modality} was made for {r['feature_dim']}-dim features, "
                f"the query has {feature_dim}"
            )
        key = UserKey(user_id=user_id, seed=r["seed"], bit_length=r["bit_length"], key_version=key_version)
        if r["schema"] == 1:  # _check_record vouches that basis_b64 decodes to this shape
            raw = base64.b64decode(r["basis_b64"].encode("ascii"))
            matrix = np.frombuffer(raw, dtype="<f8").reshape(r["feature_dim"], r["bit_length"]).copy()
            return key, ProjectionBasis(matrix=matrix, origin_key=key)
        basis = basis_for_key(key, r["feature_dim"])
        if _basis_digest(basis.matrix) != r["basis_blake2b"]:
            raise DataError(
                f"key v{key_version} for {user_id!r}/{modality}: rebuilt basis does not match its stored digest"
            )
        return key, basis

    # -- template store ----------------------------------------------------

    def _lineage(self, user_id: str, modality: str) -> tuple[list[dict], set[int]]:
        """One read of the (user, modality) template group: its enroll
        records in file order, and the key versions its revoke records
        name.  Every lifecycle question is answered from these two."""
        group = self.templates.group(user_id, modality)
        enrolls = [r for r in group if r["kind"] == "enroll"]
        return enrolls, {r["key_version"] for r in group if r["kind"] == "revoke"}

    def active_record(self, user_id: str, modality: str = "major") -> dict | None:
        return _active(user_id, modality, *self._lineage(user_id, modality))

    def _address(
        self, user_id: str, modality: str, key_version: int | None = None, all_revoked: str = "are revoked"
    ) -> dict:
        """The enroll record a claim addresses: the active one, or the one
        of ``key_version``.  An unknown user or version, or a revoked one,
        raises; ``all_revoked`` ends the message for a user with no active
        record."""
        enrolls, revoked = self._lineage(user_id, modality)
        if not enrolls:
            raise UnknownIdentityError(f"no enrollment for {user_id!r}/{modality}")
        if key_version is None:
            record = _active(user_id, modality, enrolls, revoked)
            if record is None:
                raise RevokedCredentialError(f"all enrollments for {user_id!r}/{modality} {all_revoked}")
            return record
        matching = [r for r in enrolls if r["key_version"] == key_version]
        if not matching:
            raise UnknownIdentityError(f"no enrollment v{key_version} for {user_id!r}/{modality}")
        if key_version in revoked:
            raise RevokedCredentialError(f"enrollment v{key_version} for {user_id!r}/{modality} is revoked")
        return matching[-1]

    # -- lifecycle ----------------------------------------------------------

    def enroll_features(
        self,
        user_id: str,
        mean_features: np.ndarray,
        modality: str = "major",
        bit_length: int = 128,
    ) -> CancelableTemplate:
        """Multishot enrollment: the mean feature vector of the user's
        images, hashed under a freshly issued key.  Any previously active
        enrollment for (user, modality) is marked revoked (superseded)."""
        _check_modality(modality)
        prior = self.active_record(user_id, modality)
        return self._replace(user_id, mean_features, modality, bit_length, prior, reason="superseded")

    def _replace(
        self,
        user_id: str,
        mean_features: np.ndarray,
        modality: str,
        bit_length: int,
        prior: dict | None,
        reason: str,
    ) -> CancelableTemplate:
        """Enroll under the next key version, marking ``prior`` (if any)
        revoked for ``reason``.  Everything that can reject the input runs
        before the first append, so a failed call leaves the active
        enrollment in place."""
        f = _feature_vector(user_id, mean_features)
        key, basis = self._mint_key(user_id, modality, bit_length, f.shape[0])
        template = template_from_basis(f, basis)
        if prior is not None:
            self.templates.append({
                "kind": "revoke",
                "user_id": user_id,
                "modality": modality,
                "key_version": prior["key_version"],
                "reason": reason,
                "created_at": self.clock(),
            })
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
        features: np.ndarray,
        claimed_user_id: str,
        threshold: float,
        modality: str = "major",
        key_version: int | None = None,
    ) -> VerificationDecision:
        """Score a query feature vector against the claimed user's stored
        template.

        The query is projected onto the stored basis of the addressed
        record; acceptance means score <= threshold, and the threshold
        must lie in [0, 1].  Addressing a revoked record (or any record of
        a fully revoked user) raises.
        """
        _check_modality(modality)
        threshold = float(threshold)
        if not 0.0 <= threshold <= 1.0:
            raise DataError(f"threshold must lie in [0, 1], got {threshold}")
        record = self._address(claimed_user_id, modality, key_version)
        score = self.score_features(features, record)
        return VerificationDecision(
            user_id=claimed_user_id,
            modality=modality,
            key_version=record["key_version"],
            score=score,
            threshold=threshold,
            accepted=score <= threshold,
        )

    def score_features(self, features: np.ndarray, record: dict) -> float:
        """Distance between a fresh feature vector and one stored record."""
        f = _feature_vector(record["user_id"], features)
        _, basis = self.load_basis(record["user_id"], record["modality"], record["key_version"], f.shape[0])
        stored = CancelableTemplate.from_hex(
            record["bits_hex"], record["user_id"], record["key_version"], record["bit_length"]
        )
        return template_distance(template_from_basis(f, basis).bits, stored.bits)

    def revoke_and_reissue(
        self, user_id: str, mean_features: np.ndarray, modality: str = "major"
    ) -> CancelableTemplate:
        """Invalidate the active enrollment and re-enroll under a new key
        (next version, fresh seed, same bit length).  The old record stays
        on file, marked revoked.  Key and template are made before the
        revoke is appended, so a reissue that fails leaves the old
        enrollment active."""
        _check_modality(modality)
        prior = self._address(user_id, modality, all_revoked="already revoked")
        return self._replace(user_id, mean_features, modality, prior["bit_length"], prior, reason="revoked")


def _active(user_id: str, modality: str, enrolls: list[dict], revoked: set[int]) -> dict | None:
    """The one enroll record of a lineage that no revoke names, if any."""
    live = [r for r in enrolls if r["key_version"] not in revoked]
    if len(live) > 1:
        raise DataError(f"store invariant broken: {len(live)} active records for {user_id!r}/{modality}")
    return live[-1] if live else None


def _feature_vector(user_id: str, features) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 1:
        raise DataError(f"features of {user_id!r} must be one vector, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise DataError(f"features of {user_id!r} are not finite")
    return f


def _check_modality(modality: str) -> None:
    if modality not in MODALITIES:
        raise DataError(f"modality must be one of {MODALITIES}, got {modality!r}")
