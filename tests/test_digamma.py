import math

import numpy as np
import pytest
import scipy.special

from reliakit.digamma import digamma_table


def test_digamma_at_one_is_minus_euler_gamma():
    # truncation at the threshold is < 1e-15, but the nine recurrence steps
    # from x=1 and the log cancellation cost a couple of ulp on top of that
    assert abs(digamma_table(1)[1] - (-np.euler_gamma)) < 4e-15


def test_integer_identity_harmonic_numbers():
    # psi(m) = H_{m-1} - gamma
    t = digamma_table(59)
    for m in range(2, 60):
        harmonic = math.fsum(1.0 / j for j in range(1, m))
        assert abs(t[m] - (harmonic - np.euler_gamma)) < 1e-13


def test_matches_scipy_across_domain():
    # below, across and far above the threshold of the asymptotic series
    for nmax in (9, 10, 11, 600, 5000):
        t = digamma_table(nmax)
        m = np.arange(1, nmax + 1)
        assert np.abs(t[1:] - scipy.special.digamma(m)).max() < 1e-13


def test_table_is_frozen():
    t = digamma_table(40)
    assert t.shape == (41,)
    assert np.isnan(t[0])
    with pytest.raises(ValueError):
        t[3] = 0.0
    with pytest.raises(ValueError):
        digamma_table(0)


def test_table_cached_instance():
    assert digamma_table(25) is digamma_table(25)
