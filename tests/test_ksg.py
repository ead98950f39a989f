"""Checks for the k-nearest-neighbour mutual information estimator.

The oracle below recomputes the estimate with plain Python loops and
scipy's digamma, sharing no neighbour-search or special-function code with
the implementation under test.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma as scipy_digamma

from reliakit import DegenerateSampleError, EstimatorError, ksg_mi
from reliakit import estimators
from reliakit.estimators import _BLOCK_ELEMENTS, _ksg_counts_brute

from conftest import gauss_pairs, make_sample


def _standardize_plain(v):
    n = len(v)
    mean = math.fsum(v) / n
    var = math.fsum((vi - mean) ** 2 for vi in v) / (n - 1)
    sd = math.sqrt(var)
    if sd > 0:
        return [(vi - mean) / sd for vi in v]
    return [vi - mean for vi in v]


def ksg_oracle(x_raw, y_raw, k):
    x = _standardize_plain([float(v) for v in x_raw])
    y = _standardize_plain([float(v) for v in y_raw])
    n = len(x)
    acc = 0.0
    for i in range(n):
        dists = sorted(
            max(abs(x[j] - x[i]), abs(y[j] - y[i])) for j in range(n) if j != i
        )
        eps = dists[k - 1]
        nx = sum(1 for j in range(n) if j != i and abs(x[j] - x[i]) < eps)
        ny = sum(1 for j in range(n) if j != i and abs(y[j] - y[i]) < eps)
        acc += scipy_digamma(nx + 1) + scipy_digamma(ny + 1)
    return float(scipy_digamma(k) - acc / n + scipy_digamma(n))


def test_frozen_five_point_value():
    s = make_sample([0.0, 1.0, 3.0, 6.0, 10.0], [0.1, 0.9, 3.2, 5.5, 9.0])
    assert ksg_mi(s, k=2) == pytest.approx(0.5833333333333334, abs=1e-12)


def test_matches_loop_oracle_on_random_samples():
    rng = np.random.default_rng(101)
    checked = 0
    for trial in range(25):
        n = int(rng.integers(8, 41))
        k = int(rng.choice([2, 3, 4]))
        if trial % 5 == 4:
            # duplicate-heavy: resample a handful of support points
            base = rng.normal(size=6)
            x1 = rng.choice(base, size=n, replace=True)
            x2 = rng.choice(base, size=n, replace=True)
            s = make_sample(x1, x2)
        else:
            s = gauss_pairs(rng, n, rho=float(rng.uniform(-0.8, 0.8)))
        assert ksg_mi(s, k=k) == pytest.approx(ksg_oracle(s.x1, s.x2, k), abs=1e-12)
        checked += 1
    assert checked == 25


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [181, 182, 256, 600])
def test_matches_loop_oracle_across_block_boundaries(n, ties):
    # 181 x 181 distance elements fill one block; from n = 182 on a sample's
    # query rows are split: 180 + 2 rows, 2 x 128, and 11 x 54 + 6
    assert _BLOCK_ELEMENTS == 1 << 15
    rng = np.random.default_rng(n)
    if ties:
        s = make_sample(rng.integers(0, 8, size=n), rng.integers(0, 8, size=n))
    else:
        s = gauss_pairs(rng, n, rho=0.5)
    assert ksg_mi(s, k=4) == pytest.approx(ksg_oracle(s.x1, s.x2, 4), abs=1e-12)


def _full_matrix_counts(x, y, k):
    """Unblocked reference: one n x n matrix, self excluded by a mask."""
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    others = ~np.eye(x.size, dtype=bool)
    eps = np.sort(np.where(others, np.maximum(dx, dy), np.inf), axis=1)[:, k - 1]
    nx = ((dx < eps[:, None]) & others).sum(axis=1)
    ny = ((dy < eps[:, None]) & others).sum(axis=1)
    return nx, ny


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), support=st.integers(0, 12))
def test_blocked_counts_equal_full_matrix_on_tied_data(data, k, support):
    # several row samples: at small n one block holds many of them, at
    # large n one sample spans many blocks
    n = data.draw(st.integers(k + 1, 600), label="n")
    m = data.draw(st.integers(1, 3 if n > 100 else 40), label="m")
    values = st.lists(st.integers(0, support), min_size=m * n, max_size=m * n)
    x = np.array(data.draw(values, label="x"), dtype=np.float64).reshape(m, n)
    y = np.array(data.draw(values, label="y"), dtype=np.float64).reshape(m, n)
    nx, ny = _ksg_counts_brute(x, y, k)
    for row in range(m):
        want_x, want_y = _full_matrix_counts(x[row], y[row], k)
        assert np.array_equal(nx[row], want_x)
        assert np.array_equal(ny[row], want_y)


def _tied_rows(rng, m, n, support):
    x = rng.integers(0, support + 1, size=(m, n)).astype(np.float64)
    y = rng.integers(0, support + 1, size=(m, n)).astype(np.float64)
    return x, y


def test_back_to_back_calls_share_no_buffer_state():
    # the block buffers are sized per call: a call after a larger or
    # smaller one, at another k, must see none of its values
    rng = np.random.default_rng(211)
    calls = []
    for k, n, m in [(4, 5, 30), (3, 20, 200), (6, 181, 2), (1, 182, 3), (4, 600, 1),
                    (2, 3, 50), (5, 20, 7), (3, 182, 1), (6, 7, 1), (4, 181, 1)]:
        x, y = _tied_rows(rng, m, n, support=int(rng.integers(0, 6)))
        calls.append((x, y, k, _ksg_counts_brute(x, y, k)))
    for x, y, k, (nx, ny) in reversed(calls):
        fresh_x, fresh_y = _ksg_counts_brute(x.copy(), y.copy(), k)
        assert np.array_equal(nx, fresh_x) and np.array_equal(ny, fresh_y)
        for row in range(x.shape[0]):
            want_x, want_y = _full_matrix_counts(x[row], y[row], k)
            assert np.array_equal(nx[row], want_x)
            assert np.array_equal(ny[row], want_y)


def test_counts_leave_inputs_untouched_and_keep_no_module_state():
    rng = np.random.default_rng(223)
    x, y = _tied_rows(rng, 3, 182, support=3)
    x0, y0 = x.copy(), y.copy()
    _ksg_counts_brute(x, y, 4)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)
    # no array cached at module level, so forked pool workers share nothing
    assert not [name for name, value in vars(estimators).items() if isinstance(value, np.ndarray)]


def test_duplicate_ties_stay_finite_and_consistent():
    rng = np.random.default_rng(13)
    x1 = rng.integers(0, 3, size=40).astype(np.float64)
    x2 = rng.integers(0, 3, size=40).astype(np.float64)
    s = make_sample(x1, x2)
    value = ksg_mi(s, k=4)
    assert math.isfinite(value)
    assert value == pytest.approx(ksg_oracle(x1, x2, 4), abs=1e-12)


def test_affine_invariance_power_of_two_is_exact():
    rng = np.random.default_rng(29)
    s = gauss_pairs(rng, 50, rho=0.4)
    mapped = make_sample(4.0 * s.x1 + 2.0, 0.5 * s.x2 - 8.0)
    assert ksg_mi(s, k=3) == ksg_mi(mapped, k=3)


def test_affine_invariance_generic_scale():
    rng = np.random.default_rng(37)
    s = gauss_pairs(rng, 64, rho=0.3)
    mapped = make_sample(1.7 * s.x1 - 3.2, 0.35 * s.x2 + 11.0)
    assert ksg_mi(s, k=4) == pytest.approx(ksg_mi(mapped, k=4), abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(41)
    s = gauss_pairs(rng, 45, rho=0.6)
    perm = rng.permutation(45)
    shuffled = make_sample(s.x1[perm], s.x2[perm])
    # summation order changes, so tolerance rather than bit equality
    assert ksg_mi(shuffled, k=4) == pytest.approx(ksg_mi(s, k=4), abs=1e-12)


def test_near_zero_under_independence():
    values = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        s = gauss_pairs(rng, 500, rho=0.0)
        values.append(ksg_mi(s, k=4))
    assert abs(float(np.median(values))) < 0.05


def test_tracks_gaussian_truth_at_moderate_n():
    truth = -0.5 * math.log(1.0 - 0.6**2)
    errors = []
    for seed in range(9):
        rng = np.random.default_rng(2000 + seed)
        s = gauss_pairs(rng, 800, rho=0.6)
        errors.append(abs(ksg_mi(s, k=4) - truth))
    assert float(np.median(errors)) < 0.05


@pytest.mark.parametrize("bad_k", [0, -1, 2.0, True])
def test_rejects_bad_k(bad_k):
    s = gauss_pairs(np.random.default_rng(3), 20, rho=0.2)
    with pytest.raises(EstimatorError):
        ksg_mi(s, k=bad_k)


def test_needs_more_points_than_k():
    s = make_sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateSampleError):
        ksg_mi(s, k=4)
    assert math.isfinite(ksg_mi(make_sample(np.arange(5.0), np.arange(5.0)), k=4))


def test_rejects_nonfinite_scores():
    with pytest.raises(EstimatorError):
        ksg_mi(make_sample([1.0, 2.0, np.inf, 4.0], [1.0, 2.0, 3.0, 4.0]), k=2)


def test_constant_margin_still_runs():
    # sd = 0 falls back to centering; estimate is defined (and very negative
    # is fine), it must simply not blow up
    s = make_sample([5.0] * 12, list(range(12)))
    assert math.isfinite(ksg_mi(s, k=3))


def test_import_does_not_load_scipy_spatial():
    """Importing the package stays cheap: no scipy.spatial, scipy.stats or
    pandas, each of which costs start-up time and memory."""
    heavy = ("scipy.spatial", "scipy.stats", "pandas")
    code = f"import sys, reliakit; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
