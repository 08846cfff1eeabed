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
independently from {0, +1, -1} with P(0) = sparsity and
P(+1 | nonzero) = bernoulli_p, using the package's pinned uniform stream
(one draw per cell, kernels in order, cells row-major within a kernel:
u < sparsity -> 0; u < sparsity + (1 - sparsity) * bernoulli_p -> +1;
else -> -1).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class GapFilterSpec:
    """One boundary-ring difference bank: 12 kernels at a fixed gap."""

    gap: int

    def __post_init__(self):
        if not (1 <= self.gap <= MAX_GAP):
            raise FilterSpecError(f"gap must lie in [1, {MAX_GAP}], got {self.gap}")


@dataclass(frozen=True)
class LbcFilterSpec:
    """A sparse random ternary bank.

    Attributes:
        count: number of kernels in the bank.
        sparsity: probability a cell is zero.
        bernoulli_p: probability a nonzero cell is +1.
        seed: stream seed; the bank is a pure function of this spec.
    """

    count: int
    seed: int
    sparsity: float = 0.5
    bernoulli_p: float = 0.5

    def __post_init__(self):
        if self.count < 1:
            raise FilterSpecError(f"bank count must be >= 1, got {self.count}")
        if not (0.0 <= self.sparsity <= 1.0):
            raise FilterSpecError(f"sparsity must lie in [0, 1], got {self.sparsity}")
        if not (0.0 <= self.bernoulli_p <= 1.0):
            raise FilterSpecError(f"bernoulli_p must lie in [0, 1], got {self.bernoulli_p}")


def make_gap_filters(spec: GapFilterSpec | int) -> np.ndarray:
    """Build the 12-kernel difference bank for one gap.

    Returns a (12, 3, 5) float64 stack; kernel p has +1 at ring position p
    and -1 at ring position (p + gap) mod 12.
    """
    if isinstance(spec, int):
        spec = GapFilterSpec(gap=spec)
    bank = np.zeros((RING_SIZE, KERNEL_HEIGHT, KERNEL_WIDTH), dtype=np.float64)
    for p in range(RING_SIZE):
        plus = RING_POSITIONS[p]
        minus = RING_POSITIONS[(p + spec.gap) % RING_SIZE]
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


def make_lbc_filters(spec: LbcFilterSpec) -> np.ndarray:
    """Build a (count, 3, 5) ternary bank from the pinned uniform stream."""
    cells = spec.count * KERNEL_HEIGHT * KERNEL_WIDTH
    u = rand.uniforms(spec.seed, rand.PURPOSE_LBC_BANK, cells)
    bank = np.where(
        u < spec.sparsity,
        0.0,
        np.where(u < spec.sparsity + (1.0 - spec.sparsity) * spec.bernoulli_p, 1.0, -1.0),
    )
    return bank.reshape(spec.count, KERNEL_HEIGHT, KERNEL_WIDTH)

