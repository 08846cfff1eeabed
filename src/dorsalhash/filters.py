"""Fixed convolution banks: boundary-ring difference filters and sparse
random ternary filters.

All kernels are 3 rows by 5 columns (short and wide, matching inputs whose
height is half their width).  The 12 cells on the kernel's outer ring are
enumerated clockwise starting at the top-left corner:

    position grid          ring index
    (0,0) .. (0,4)         0  1  2  3  4
    (1,0)       (1,4)      11          5
    (2,0) .. (2,4)         10 9  8  7  6

This enumeration is normative: changing it silently changes every saved
model, so it is pinned here and regression-tested.

A gap-``g`` difference bank holds 12 kernels; kernel ``p`` has +1 at ring
position ``p`` and -1 at ring position ``(p + g) mod 12``.  Every such
kernel sums to zero, which makes the first convolution stage invariant to
constant illumination offsets.  Ternary banks draw each of the 15 cells
independently from {0, +1, -1} with P(0) = SPARSITY and
P(+1 | nonzero) = BERNOULLI_P (both 0.5), using the package's pinned
uniform stream (one draw per cell, kernels in order, cells row-major
within a kernel: u < 0.5 -> 0; u < 0.75 -> +1; else -> -1).
"""

from __future__ import annotations

import numpy as np

from . import rand
from .errors import FilterSpecError

KERNEL_HEIGHT = 3
KERNEL_WIDTH = 5
RING_POSITIONS = (
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 4),
    (2, 4), (2, 3), (2, 2), (2, 1), (2, 0),
    (1, 0),
)
RING_SIZE = len(RING_POSITIONS)  # 12

# Gap assignment per difference stage: stage index -> gaps used.
LAYER_GAPS = {1: (1,), 2: (2, 3), 3: (4, 5, 6)}
MAX_GAP = 6

SPARSITY = 0.5
BERNOULLI_P = 0.5


def make_gap_filters(gap: int) -> np.ndarray:
    """Build the 12-kernel difference bank for one gap in [1, MAX_GAP].

    Returns a (12, 3, 5) float64 stack; kernel p has +1 at ring position p
    and -1 at ring position (p + gap) mod 12.
    """
    if not 1 <= gap <= MAX_GAP:
        raise FilterSpecError(f"gap must lie in [1, {MAX_GAP}], got {gap}")
    bank = np.zeros((RING_SIZE, KERNEL_HEIGHT, KERNEL_WIDTH), dtype=np.float64)
    for p in range(RING_SIZE):
        plus = RING_POSITIONS[p]
        minus = RING_POSITIONS[(p + gap) % RING_SIZE]
        bank[p][plus] = 1.0
        bank[p][minus] = -1.0
    return bank


def make_layer_bank(layer_index: int) -> np.ndarray:
    """Concatenate the gap banks used by one difference stage.

    Stage 1 -> gaps (1,): 12 kernels; stage 2 -> gaps (2, 3): 24 kernels;
    stage 3 -> gaps (4, 5, 6): 36 kernels.
    """
    if layer_index not in LAYER_GAPS:
        raise FilterSpecError(f"difference stages are 1..3, got {layer_index}")
    return np.concatenate([make_gap_filters(g) for g in LAYER_GAPS[layer_index]], axis=0)


def make_lbc_filters(count: int, seed: int) -> np.ndarray:
    """Build a (count, 3, 5) ternary bank from the pinned uniform stream of
    ``seed``; the bank is a pure function of (count, seed)."""
    if count < 1:
        raise FilterSpecError(f"bank count must be >= 1, got {count}")
    u = rand.uniforms(seed, rand.PURPOSE_LBC_BANK, count * KERNEL_HEIGHT * KERNEL_WIDTH)
    bank = np.where(u < SPARSITY, 0.0, np.where(u < SPARSITY + (1.0 - SPARSITY) * BERNOULLI_P, 1.0, -1.0))
    return bank.reshape(count, KERNEL_HEIGHT, KERNEL_WIDTH)
