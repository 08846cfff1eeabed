"""Keyed cancelable templates from feature vectors.

A user key seeds a pinned Gaussian stream that fills an (M, m) matrix of
random vectors (M = feature dimension, m = template bit length, columns are
the vectors).  Gram-Schmidt turns the columns into an orthonormal basis, the
feature vector is projected onto every basis column, and each projection is
quantized by its sign: strictly positive -> 1, otherwise 0.  Losing the key
and reissuing a new seed yields a statistically independent basis, hence an
independent template: revocation without touching the biometric.

Orthonormality is measured as the largest entry of ``|Q.T @ Q - I|``: the
re-orthogonalization trigger and the basis check both read it, and
``orthonormalize`` forms it once per sweep.  It is formed inside the Gram
matrix (1 subtracted on the diagonal, then ``abs`` in place), which gives
the same float as subtracting an identity matrix, so every threshold
decision is what it was.  Together with the in-place
``rand.normals``, building a basis allocates little beyond the arrays it
returns, and no bit of any basis changes.

Templates are compared with a normalized Euclidean distance
``|Q - T| / (|Q| + |T|)`` in [0, 1]; 0 means identical bit vectors.  On
bit vectors it is computed from counts, ``sqrt(h) / (sqrt(q) + sqrt(t))``
with h the Hamming distance and q, t the ones in each vector; every dot
product of 0/1 values is an exact integer, so the two forms agree bit for
bit.

``project``, ``binarize`` and ``template_distance`` are batch-first: each
takes one vector or an (N, .) matrix of rows, so the protocol scores every
probe under one basis in one call through the same functions the vault
uses for one query.  A 1-D ``project`` is a matrix-vector product and a
2-D one a matrix product; BLAS sums them in different orders, so a row of
the batch agrees with the single call to a few ulps, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import rand
from .errors import BadKeyError, DegenerateKeyError, DimensionError, UndefinedScoreError

BIT_LENGTHS = (32, 64, 128)

# Gram-Schmidt guards: a pivot below DEGENERATE_NORM means dependent key
# vectors; any off-diagonal above REORTH_TRIGGER after the first pass makes
# a second pass run.  Bases must end up orthonormal within ORTHO_TOL.
DEGENERATE_NORM = 1e-12
REORTH_TRIGGER = 1e-10
ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class UserKey:
    """Seed material issued to one user; seed uniquely identifies a basis."""

    user_id: str
    seed: int
    bit_length: int
    key_version: int = 1

    def __post_init__(self):
        if self.bit_length not in BIT_LENGTHS:
            raise BadKeyError(f"bit length must be one of {BIT_LENGTHS}, got {self.bit_length}")
        if not self.user_id:
            raise BadKeyError("user_id must be non-empty")
        if self.key_version < 1:
            raise BadKeyError(f"key_version starts at 1, got {self.key_version}")


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Orthonormal basis columns; validated on construction.

    ``orthonormalize`` passes ``_gram_err``, the error it has just measured
    on this very matrix, so the check does not form the Gram product again;
    any other caller leaves it unset and the basis measures itself.
    """

    matrix: np.ndarray  # (M, m), columns orthonormal
    origin_key: UserKey | None = None
    _gram_err: InitVar[float | None] = None

    def __post_init__(self, _gram_err):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] < m.shape[1]:
            raise DimensionError(f"basis must be (M, m) with M >= m, got {m.shape}")
        if not np.isfinite(m).all():
            raise DimensionError("basis contains non-finite values")
        err = _gram_error(m) if _gram_err is None else _gram_err
        if err > ORTHO_TOL:
            raise DegenerateKeyError(
                f"basis deviates from orthonormal by {err:.3e} (> {ORTHO_TOL:.0e}); reissue the key"
            )

    @property
    def feature_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def bit_length(self) -> int:
        return self.matrix.shape[1]


def _gram_error(q: np.ndarray) -> float:
    """Largest entry of ``|q.T @ q - I|``, formed in the Gram matrix itself.

    Subtracting the identity changes only the diagonal (``x - 0.0`` is
    ``x``), so this is ``np.abs(q.T @ q - np.eye(m)).max()`` bit for bit,
    without the identity and difference arrays.
    """
    g = q.T @ q
    g.ravel()[:: g.shape[0] + 1] -= 1.0
    return float(np.abs(g, out=g).max())


def _bits(values) -> np.ndarray:
    """Boolean form of 0/1 values; any other value is a DimensionError."""
    a = np.asarray(values)
    if a.ndim not in (1, 2):
        raise DimensionError(f"bit vectors must be 1-D or 2-D, got shape {a.shape}")
    bits = a.astype(bool)
    if (bits != a).any():
        raise DimensionError("bit values must be 0 or 1")
    return bits


@dataclass(frozen=True, eq=False)
class CancelableTemplate:
    """The protected record: bits plus the key lineage that produced them."""

    bits: np.ndarray  # (bit_length,) of {0, 1}
    user_id: str
    key_version: int
    bit_length: int = field(default=0)

    def __post_init__(self):
        b = _bits(self.bits).astype(np.uint8)
        object.__setattr__(self, "bits", b)
        if self.bit_length == 0:
            object.__setattr__(self, "bit_length", int(b.shape[0]))
        if b.ndim != 1 or b.shape[0] != self.bit_length:
            raise DimensionError(f"bits shape {b.shape} does not match bit_length {self.bit_length}")

    def to_hex(self) -> str:
        return np.packbits(self.bits).tobytes().hex()

    @classmethod
    def from_hex(cls, text: str, user_id: str, key_version: int, bit_length: int) -> "CancelableTemplate":
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
        bits = np.unpackbits(raw)[:bit_length]
        return cls(bits=bits, user_id=user_id, key_version=key_version, bit_length=bit_length)


def generate_random_vectors(key: UserKey, feature_dim: int) -> np.ndarray:
    """(feature_dim, bit_length) matrix from the key's pinned normal stream.

    Column j holds stream values ``j*M .. (j+1)*M - 1``, so the matrix is a
    pure function of (seed, feature_dim, bit_length).
    """
    if key.bit_length > feature_dim:
        raise BadKeyError(
            f"bit length {key.bit_length} exceeds feature dimension {feature_dim}"
        )
    z = rand.normals(key.seed, rand.PURPOSE_BIOHASH, feature_dim * key.bit_length)
    return z.reshape(key.bit_length, feature_dim).T


def _sweep(cols: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass: column j minus its projection onto
    the j finished columns, then scaled to unit length."""
    q = np.empty_like(cols)
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        if j:
            done = q[:, :j]
            v -= done @ (done.T @ v)
        # The dot-then-sqrt that np.linalg.norm runs for 1-D real input.
        norm = math.sqrt(v.dot(v))
        if norm < DEGENERATE_NORM:
            raise DegenerateKeyError(
                f"key vectors are rank-deficient at column {j} (pivot {norm:.3e}); reissue the key"
            )
        np.divide(v, norm, out=q[:, j])
    return q


def orthonormalize(vectors: np.ndarray, origin_key: UserKey | None = None) -> ProjectionBasis:
    """Classical Gram-Schmidt over the columns, with one conditional
    re-orthogonalization pass if any off-diagonal inner product exceeds
    REORTH_TRIGGER after the first sweep.  The error is formed once per
    sweep, and the last one is what the returned basis is checked against.
    """
    a = np.asarray(vectors, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionError(f"need an (M, m) matrix with M >= m, got {a.shape}")
    q = _sweep(a)
    err = _gram_error(q)
    if err > REORTH_TRIGGER:
        q = _sweep(q)
        err = _gram_error(q)
    return ProjectionBasis(matrix=q, origin_key=origin_key, _gram_err=err)


def project(features: np.ndarray, basis: ProjectionBasis) -> np.ndarray:
    """Inner products with every basis column: (m,) for one feature vector,
    (N, m) for an (N, M) matrix of feature rows."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1] != basis.feature_dim:
        raise DimensionError(
            f"feature shape {f.shape} does not match basis feature dim {basis.feature_dim}"
        )
    return basis.matrix.T @ f if f.ndim == 1 else f @ basis.matrix


def binarize(projections: np.ndarray) -> np.ndarray:
    """Sign quantization: strictly positive -> 1, zero or negative -> 0."""
    p = np.asarray(projections, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise DimensionError(f"projections must be 1-D or 2-D, got shape {p.shape}")
    return (p > 0.0).astype(np.uint8)


def template_distance(q_bits: np.ndarray, t_bits: np.ndarray):
    """Normalized Euclidean distance between bit vectors, in [0, 1].

    Either argument is one bit vector or an (N, m) matrix of rows; rows
    pair up, and a vector pairs with every row.  Returns a float for two
    vectors, else an (N,) array.  Undefined (raises) when a pair is
    all-zero on both sides, since the normalizer vanishes.
    """
    q, t = _bits(q_bits), _bits(t_bits)
    if q.shape[-1] != t.shape[-1] or (q.ndim == t.ndim == 2 and q.shape != t.shape):
        raise DimensionError(f"bit vectors differ in shape: {q.shape} vs {t.shape}")
    hamming = np.count_nonzero(q != t, axis=-1)
    q_ones = np.count_nonzero(q, axis=-1)
    t_ones = np.count_nonzero(t, axis=-1)
    if np.any((q_ones == 0) & (t_ones == 0)):
        raise UndefinedScoreError("both templates are all-zero; distance undefined")
    d = np.sqrt(hamming) / (np.sqrt(q_ones) + np.sqrt(t_ones))
    return float(d) if np.ndim(d) == 0 else d


def hash_features(features: np.ndarray, key: UserKey) -> CancelableTemplate:
    """Full pipeline: random vectors -> orthonormal basis -> project -> sign."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 1:
        raise DimensionError(f"features must be 1-D, got shape {f.shape}")
    basis = basis_for_key(key, f.shape[0])
    return template_from_basis(f, basis)


def basis_for_key(key: UserKey, feature_dim: int) -> ProjectionBasis:
    return orthonormalize(generate_random_vectors(key, feature_dim), origin_key=key)


def template_from_basis(features: np.ndarray, basis: ProjectionBasis) -> CancelableTemplate:
    if basis.origin_key is None:
        raise BadKeyError("basis has no origin key; build it via basis_for_key")
    bits = binarize(project(features, basis))
    return CancelableTemplate(
        bits=bits,
        user_id=basis.origin_key.user_id,
        key_version=basis.origin_key.key_version,
        bit_length=basis.bit_length,
    )
