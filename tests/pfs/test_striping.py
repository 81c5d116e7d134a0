"""StripeLayout arithmetic."""

import numpy as np
import pytest

from repro.pfs import StripeLayout
from repro.pfs.scheduler import split_runs_by_stripe


def test_stripe_and_controller_mapping():
    lay = StripeLayout(stripe_size=100, n_controllers=4)
    assert lay.stripe_of(0) == 0
    assert lay.stripe_of(99) == 0
    assert lay.stripe_of(100) == 1
    assert lay.controller_of(0) == 0
    assert lay.controller_of(399) == 3
    assert lay.controller_of(400) == 0


def test_stripes_spanned():
    lay = StripeLayout(stripe_size=100, n_controllers=4)
    assert lay.stripes_spanned(0, 0) == 0
    assert lay.stripes_spanned(0, 1) == 1
    assert lay.stripes_spanned(0, 100) == 1
    assert lay.stripes_spanned(0, 101) == 2
    assert lay.stripes_spanned(50, 100) == 2
    assert lay.stripes_spanned(99, 2) == 2


def test_controllers_spanned_caps_at_pool_size():
    lay = StripeLayout(stripe_size=10, n_controllers=4)
    assert lay.controllers_spanned(0, 1000) == 4
    assert lay.controllers_spanned(0, 15) == 2


def test_controllers_for_runs():
    """Distinct controllers a run list touches: the controller column of
    the scheduler's stripe cut."""
    lay = StripeLayout(stripe_size=10, n_controllers=4)
    hit = split_runs_by_stripe(lay, [0, 20], [5, 5])[2]  # stripes 0 and 2
    np.testing.assert_array_equal(np.unique(hit), [0, 2])
    all_hit = split_runs_by_stripe(lay, [0], [1000])[2]
    np.testing.assert_array_equal(np.unique(all_hit), [0, 1, 2, 3])


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=0, n_controllers=1)
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=64, n_controllers=0)
