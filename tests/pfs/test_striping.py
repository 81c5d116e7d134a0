"""StripeLayout arithmetic."""

import numpy as np
import pytest

from repro.pfs import StripeLayout
from repro.pfs.scheduler import split_runs_by_stripe


def test_controller_mapping():
    lay = StripeLayout(stripe_size=100, n_controllers=4)
    assert lay.controller_of(0) == 0
    assert lay.controller_of(99) == 0
    assert lay.controller_of(100) == 1
    assert lay.controller_of(399) == 3
    assert lay.controller_of(400) == 0


@pytest.mark.parametrize("offset, length, stripes", [
    (0, 0, 0), (0, 1, 1), (0, 100, 1), (0, 101, 2), (50, 100, 2), (99, 2, 2),
])
def test_stripes_spanned(offset, length, stripes):
    """The stripe cut makes one piece per stripe a run touches."""
    lay = StripeLayout(stripe_size=100, n_controllers=4)
    assert len(split_runs_by_stripe(lay, [offset], [length])[0]) == stripes


def test_controllers_for_runs():
    """Distinct controllers a run list touches: the controller column of
    the scheduler's stripe cut."""
    lay = StripeLayout(stripe_size=10, n_controllers=4)
    hit = split_runs_by_stripe(lay, [0, 20], [5, 5])[2]  # stripes 0 and 2
    np.testing.assert_array_equal(np.unique(hit), [0, 2])
    all_hit = split_runs_by_stripe(lay, [0], [1000])[2]
    np.testing.assert_array_equal(np.unique(all_hit), [0, 1, 2, 3])  # capped
    two = split_runs_by_stripe(lay, [0], [15])[2]
    np.testing.assert_array_equal(np.unique(two), [0, 1])


def test_invalid_layout_rejected():
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=0, n_controllers=1)
    with pytest.raises(ValueError):
        StripeLayout(stripe_size=64, n_controllers=0)
