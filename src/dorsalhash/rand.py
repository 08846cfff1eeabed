"""Deterministic random streams shared by every seeded component.

Reproducibility of stored artifacts (filter banks, projection bases,
synthetic corpora) requires that the seed-to-value mapping be part of this
package's contract rather than borrowed from a library's distribution
routines, which are free to change.  The mapping pinned here is:

* Bit source: the Philox4x64 counter-based generator keyed with the pair
  ``(seed, purpose)``, counter starting at zero.  numpy guarantees the raw
  bit stream of a keyed ``Philox`` instance is fixed across versions and
  platforms.
* Uniforms: each 64-bit word ``r`` maps to ``((r >> 11) + 1) * 2**-53``,
  a double in ``(0, 1]`` (never zero, so logs are safe).
* Normals: Box-Muller on consecutive uniform pairs ``(u[2i], u[2i+1])``:
  ``z[2i] = sqrt(-2 ln u[2i]) * cos(2 pi u[2i+1])`` and
  ``z[2i+1] = sqrt(-2 ln u[2i]) * sin(2 pi u[2i+1])``.

Only the raw Philox words come from numpy, and the formulas layered on top
are fixed here and covered by regression tests.  Uniforms take a shift,
an exact conversion, an exact add and a multiply by a power of two, so
they are exact on every host.  Normals are not: they pass through ``np.log``,
``np.cos`` and ``np.sin``, whose last bits follow numpy's SIMD dispatch
(with its AVX-512 loops turned off through NPY_DISABLE_CPU_FEATURES, the
same uniforms give other normals), and so does everything drawn from them.

``normals`` runs in the buffer of raw words it draws: the shifted words
are converted through a signed view (exact, since every one is below
2**53) into uniforms, ``r = sqrt(-2 ln u)`` overwrites the even slots, the
angle and then ``r * sin`` the odd ones, and the even slots are scaled by
one cosine temporary.  These are the float operations of the formulas
above, so the values are the formulas' bit for bit; only the throwaway
arrays are gone.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Stream labels. The values take part in the seed -> value mapping and are
# baked into saved artifacts; never renumber them.
PURPOSE_LBC_BANK = 1
PURPOSE_DENSE_INIT = 2
PURPOSE_SHUFFLE = 3
PURPOSE_BIOHASH = 4
PURPOSE_AUGMENT = 5
PURPOSE_SYNTH = 6

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_TWO_NEG53 = 2.0 ** -53


def raw_words(seed: int, purpose: int, n: int) -> np.ndarray:
    """Return ``n`` raw 64-bit words of the (seed, purpose) Philox stream."""
    key = [np.uint64(int(seed) & _MASK64), np.uint64(int(purpose) & _MASK64)]
    return np.random.Philox(key=key).random_raw(n)


def uniforms(seed: int, purpose: int, n: int) -> np.ndarray:
    """Uniform doubles in (0, 1], in stream order."""
    w = raw_words(seed, purpose, n)
    return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53


def normals(seed: int, purpose: int, n: int) -> np.ndarray:
    """Standard-normal doubles via Box-Muller on the uniform stream,
    computed in the buffer of raw words (see the module docstring)."""
    pairs = (n + 1) // 2
    w = raw_words(seed, purpose, 2 * pairs)
    w >>= np.uint64(11)
    z = w.view(np.float64)
    # Every shifted word is below 2**53, so converting it as a signed
    # integer is exact, and faster than the unsigned conversion.
    np.add(w.view(np.int64), 1.0, out=z)
    z *= _TWO_NEG53
    r, ang = z[0::2], z[1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    ang *= 2.0 * np.pi
    cos = np.cos(ang)
    np.sin(ang, out=ang)
    ang *= r
    r *= cos
    return z[:n]


def permutation(seed: int, purpose: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of the uniform stream."""
    return np.argsort(uniforms(seed, purpose, n), kind="stable")


def derive_seed(*parts: object) -> int:
    """Collapse labels into a 64-bit sub-seed (BLAKE2b of the joined parts).

    Used to give every (user, modality, key version) and every synthetic
    subject its own independent stream without coordinating counters.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
