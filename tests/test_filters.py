import numpy as np
import pytest

from dorsalhash import filters
from dorsalhash.errors import FilterSpecError


def test_ring_enumeration_is_clockwise_outer_boundary():
    assert filters.RING_POSITIONS == (
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 4), (2, 4), (2, 3), (2, 2), (2, 1), (2, 0), (1, 0),
    )
    assert len(filters.RING_POSITIONS) == 12
    # Every cell sits on the boundary of the 3x5 window.
    for r, c in filters.RING_POSITIONS:
        assert r in (0, 2) or c in (0, 4)


def test_gap_filter_layout():
    bank = filters.make_gap_filters(filters.GapFilterSpec(gap=1))
    assert bank.shape == (12, 3, 5)
    for p, k in enumerate(bank):
        plus = filters.RING_POSITIONS[p]
        minus = filters.RING_POSITIONS[(p + 1) % 12]
        assert k[plus] == 1.0
        assert k[minus] == -1.0
        assert np.count_nonzero(k) == 2
        assert k.sum() == 0.0
        assert k[1, 2] == 0.0  # center never used


def test_gap_six_filters_come_in_negated_pairs():
    bank = filters.make_gap_filters(6)
    for p in range(6):
        assert np.array_equal(bank[p], -bank[p + 6])


def test_all_seventy_two_gap_filters_distinct():
    all_banks = [filters.make_gap_filters(g) for g in range(1, 7)]
    flat = np.concatenate(all_banks).reshape(72, -1)
    assert len({tuple(row) for row in flat.tolist()}) == 72


def test_layer_banks_have_documented_sizes():
    assert filters.make_layer_bank(1).shape == (12, 3, 5)
    assert filters.make_layer_bank(2).shape == (24, 3, 5)
    assert filters.make_layer_bank(3).shape == (36, 3, 5)


def test_layer_bank_2_is_gaps_two_and_three():
    bank = filters.make_layer_bank(2)
    assert np.array_equal(bank[:12], filters.make_gap_filters(2))
    assert np.array_equal(bank[12:], filters.make_gap_filters(3))


def test_gap_spec_bounds():
    with pytest.raises(FilterSpecError):
        filters.make_gap_filters(0)
    with pytest.raises(FilterSpecError):
        filters.make_gap_filters(7)
    with pytest.raises(FilterSpecError):
        filters.make_layer_bank(4)


def test_lbc_cells_are_ternary():
    bank = filters.make_lbc_filters(filters.LbcFilterSpec(count=64, seed=5))
    assert bank.shape == (64, 3, 5)
    assert set(np.unique(bank)) <= {-1.0, 0.0, 1.0}


def test_lbc_zero_fraction_near_sparsity():
    bank = filters.make_lbc_filters(filters.LbcFilterSpec(count=512, seed=5))
    frac = np.mean(bank == 0.0)
    assert abs(frac - 0.5) < 0.03
    nonzero = bank[bank != 0.0]
    assert abs(np.mean(nonzero == 1.0) - 0.5) < 0.03


def test_lbc_seed_determinism():
    a = filters.make_lbc_filters(filters.LbcFilterSpec(count=64, seed=9))
    b = filters.make_lbc_filters(filters.LbcFilterSpec(count=64, seed=9))
    c = filters.make_lbc_filters(filters.LbcFilterSpec(count=64, seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lbc_single_draw_per_cell():
    # The ternary value is carved out of one uniform per cell: u < s -> 0,
    # u < s + (1-s)*p -> +1, else -1.
    from dorsalhash import rand
    spec = filters.LbcFilterSpec(count=8, seed=21, sparsity=0.4, bernoulli_p=0.25)
    u = rand.uniforms(21, rand.PURPOSE_LBC_BANK, 8 * 15)
    expect = np.where(u < 0.4, 0.0, np.where(u < 0.4 + 0.6 * 0.25, 1.0, -1.0))
    bank = filters.make_lbc_filters(spec)
    assert np.array_equal(bank.ravel(), expect)


def test_lbc_spec_validation():
    with pytest.raises(FilterSpecError):
        filters.LbcFilterSpec(count=0, seed=1)
    with pytest.raises(FilterSpecError):
        filters.LbcFilterSpec(count=8, seed=1, sparsity=1.5)
    with pytest.raises(FilterSpecError):
        filters.LbcFilterSpec(count=8, seed=1, bernoulli_p=-0.1)

