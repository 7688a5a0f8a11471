import numpy as np
import pytest

from sipspectra.experiments import _separation_jumps, kac_first_escape


@pytest.mark.parametrize("d", [1, 2])
def test_separation_jumps_rates_and_escape_time(d):
    n = 5
    jumps = _separation_jumps(n, d)
    assert jumps.shape == (n**d, n**d)
    assert jumps.diagonal().max() == 0.0
    np.testing.assert_array_equal(np.asarray(jumps.sum(axis=1)).ravel(), 4.0 * d)
    # symmetric: the walk steps to each neighbor and back at the same rate
    assert abs(jumps - jumps.T).max() == 0.0
    assert kac_first_escape(n, d) == 1.0 / (4.0 * d)
