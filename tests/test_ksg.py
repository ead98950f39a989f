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

from reliakit import DegenerateSampleError, EstimatorError, ksg_mi, nlr_delta_rows
from reliakit import estimators
from reliakit.bootstrap import deletion_blocks, replicate_indices
from reliakit.estimators import (
    _BLOCK_ELEMENTS,
    _WINDOW_GROUP,
    _WINDOW_MARGIN,
    CorrMethod,
    _corr_rows,
    _gaussian_mi_rows,
    _ksg_counts,
    _ksg_counts_brute,
    _ksg_counts_window,
    _ksg_rows,
    _standardize,
    _strip_counts,
    _window_eps,
    nlr_deletion_terms,
)

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


WIDTH = _WINDOW_GROUP + 2 * _WINDOW_MARGIN  # widest row counted all-pairs


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [WIDTH, WIDTH + 1, 181, 182, 256, 600])
def test_matches_loop_oracle_across_block_boundaries(n, ties):
    # rows of up to WIDTH = 112 points are counted all-pairs, wider ones in
    # sorted windows. 181 x 181 all-pairs elements would fill one block;
    # from n = 182 on, a sample's query rows would be split
    assert _BLOCK_ELEMENTS == 1 << 15 and WIDTH == 112
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


def _window_rows(kind, seed, m, n):
    """(m, n) rows of one kind, standardized as the estimator sees them."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        x, y = rng.integers(0, 4, size=(2, m, n)).astype(np.float64)
    elif kind == "bootstrap":
        # rows gathered by replicate indices: duplicates sit at distance 0
        base = rng.standard_normal((2, n))
        idx = replicate_indices(seed, 0, m, n)
        x, y = base[0][idx], 0.6 * base[0][idx] + 0.8 * base[1][idx]
    else:
        x = rng.standard_normal((m, n))
        y = float(rng.uniform(-0.9, 0.9)) * x + rng.standard_normal((m, n))
        if kind == "constant x":
            x = np.full((m, n), 3.0)
        elif kind == "constant y":
            y = np.full((m, n), -1.0)
    return _standardize(x), _standardize(y)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["gauss", "ties", "bootstrap", "constant x", "constant y"]),
    seed=st.integers(0, 2**32 - 1),
    group=st.integers(1, 3),
    margin=st.integers(3, 4),
    k=st.integers(1, 6),
    extra=st.integers(0, 40),
    m=st.integers(1, 4),
)
def test_window_counts_equal_all_pairs(kind, seed, group, margin, k, extra, m):
    # small windows, so that rows of a few dozen points have windows shifted
    # at both row edges, points whose eps falls back to the full row, and
    # n = W and n = W + 1
    width = group + 2 * margin
    n = width + extra
    x, y = _window_rows(kind, seed, m, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_WINDOW_GROUP", group)
        mp.setattr(estimators, "_WINDOW_MARGIN", margin)
        window = _ksg_counts_window(x, y, k)
        chosen = _ksg_counts(x, y, k)
    brute = _ksg_counts_brute(x, y, k)
    for got in (window, chosen):
        assert np.array_equal(got[0], brute[0]) and np.array_equal(got[1], brute[1])
    for row in range(m):
        want_x, want_y = _full_matrix_counts(x[row], y[row], k)
        assert np.array_equal(window[0][row], want_x)
        assert np.array_equal(window[1][row], want_y)


def test_window_check_fails_on_some_points_and_counts_stay_exact(monkeypatch):
    # with windows of 2 + 2 * 3 points, Gaussian rows of 60 points have
    # points whose x window misses a joint neighbour; their eps comes from
    # the full row
    monkeypatch.setattr(estimators, "_WINDOW_GROUP", 2)
    monkeypatch.setattr(estimators, "_WINDOW_MARGIN", 3)
    checks = []

    def window_eps(*args):
        eps, ok = _window_eps(*args)
        checks.append(ok)
        return eps, ok

    monkeypatch.setattr(estimators, "_window_eps", window_eps)
    x, y = _window_rows("gauss", 5, 3, 60)
    nx, ny = _ksg_counts(x, y, 4)
    assert len(checks) == 1 and checks[0].any() and not checks[0].all()
    want = _ksg_counts_brute(x, y, 4)
    assert np.array_equal(nx, want[0]) and np.array_equal(ny, want[1])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["gauss", "ties", "bootstrap", "constant x", "tiny"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 70),
    m=st.integers(1, 4),
)
def test_strip_counts_equal_direct_count(kind, seed, n, m):
    # eps drawn from the row's own pairwise distances, their neighbouring
    # floats and 0, so that points sit exactly on, just inside and just
    # outside every boundary; n = 2, 3 and every power of two up to 64
    # are in range for the binary search
    x, _ = _window_rows("gauss" if kind == "tiny" else kind, seed, m, n)
    if kind == "tiny":
        # subtractions that round: values far apart in magnitude
        x = x * np.ldexp(1.0, np.random.default_rng(seed).integers(-60, 60, size=(m, n)))
    rng = np.random.default_rng(seed)
    d = np.abs(x[:, :, None] - x[:, None, :])
    pick = d[np.arange(m)[:, None], np.arange(n), rng.integers(0, n, size=(m, n))]
    eps = np.choose(rng.integers(0, 4, size=(m, n)), [
        pick, np.nextafter(pick, np.inf), np.nextafter(pick, 0.0), np.zeros((m, n))
    ])
    got = _strip_counts(x, np.argsort(x, axis=1), eps)
    want = (d < eps[:, :, None]).sum(axis=2) - (eps > 0)
    assert np.array_equal(got, want)


def test_rows_no_wider_than_a_window_are_counted_all_pairs(monkeypatch):
    calls = []
    monkeypatch.setattr(estimators, "_ksg_counts_window", lambda *a: calls.append(a[0].shape))
    x, y = _window_rows("gauss", 3, 2, WIDTH)
    nx, ny = _ksg_counts(x, y, 4)
    assert calls == [] and np.array_equal(nx, _ksg_counts_brute(x, y, 4)[0])
    _ksg_counts(*_window_rows("gauss", 3, 2, WIDTH + 1), 4)
    assert calls == [(2, WIDTH + 1)]


METHODS = (CorrMethod.PEARSON, CorrMethod.SPEARMAN)


def _deletion_rows_terms(sample, ks, methods=METHODS):
    """Both terms of the deletion rows, counted row by row: the KSG term at
    each k, NaN where a deletion has fewer than k + 1 pairs, and the
    Gaussian baseline under each method."""
    mi_ksg = np.full((len(ks), sample.n), np.nan)
    mi_gauss = np.empty((len(methods), sample.n))
    for start, stop, x1, x2 in deletion_blocks(sample):
        for j, k in enumerate(ks):
            if x1.shape[1] >= k + 1:
                mi_ksg[j, start:stop] = _ksg_rows(x1, x2, (k,))[0]
        for j, method in enumerate(methods):
            mi_gauss[j, start:stop] = _gaussian_mi_rows(_corr_rows(x1, x2, method))
    return mi_ksg, mi_gauss


def _assert_terms_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)


def _deletion_sample(kind, seed, n):
    rng = np.random.default_rng(seed)
    x, e = rng.standard_normal((2, n))
    y = 0.6 * x + 0.8 * e
    if kind == "rounded":
        # accuracy-like scores: exact ties, many points at equal distances
        x, y = np.round(2.0 * x) / 2.0, np.round(2.0 * y) / 2.0
    elif kind == "x ties":
        x = np.round(x)
    elif kind == "outlier":
        # its deletion shrinks both sd, the others stretch them a little
        x[rng.integers(n)], y[rng.integers(n)] = 40.0, -25.0
    elif kind == "cluster":
        x, y = 1e-6 * x + 3.0, 1e-6 * y - 2.0
    elif kind == "constant":
        x = np.full(n, 0.75)
    elif kind == "ceiling":
        # one subject off the ceiling: its deletion leaves a constant session
        x = np.ones(n)
        x[rng.integers(n)] = 0.9
    elif kind == "offset":
        x, y = x + 1e7, y - 3e7
    elif kind == "near ties":
        # a grid whose neighbours lie a few ulps nearer or farther than one
        # step: only the rounding allowance keeps their order certain
        grid = np.arange(n, dtype=np.float64)
        x = grid + rng.integers(-3, 4, n) * np.spacing(grid + 1.0)
        y = 2.0 * x + rng.integers(-3, 4, n) * np.spacing(2.0 * grid + 2.0)
    return make_sample(x, y)


DELETION_KINDS = ["gauss", "rounded", "x ties", "outlier", "cluster", "constant", "ceiling", "offset", "near ties"]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(DELETION_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30) | st.integers(110, 150),
    ks=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
)
def test_deletion_terms_equal_the_deletion_rows(kind, seed, n, ks):
    # from n = 114 on the deletion rows are wider than a window and their
    # KSG terms come from the observed sample's nearest neighbours, below
    # they are counted all pairs; the terms equal the deletion rows' either
    # way, NaN where a deletion has k pairs or a constant session
    sample = _deletion_sample(kind, seed, n)
    got = nlr_deletion_terms(sample.x1, sample.x2, ks, METHODS)
    assert got[0].shape == (len(ks), n) and got[1].shape == (len(METHODS), n)
    _assert_terms_equal(got, _deletion_rows_terms(sample, ks))


class _CertificateSpy:
    """Counts, over nlr_deletion_terms calls, the observed points that fail
    the strict gap test, and the deletion-row positions that the
    certificate leaves to the candidate sort, of all positions."""

    def __init__(self, mp):
        self.gap_failures = self.uncertified = self.positions = 0
        observed_star, near_eps = estimators._observed_star, estimators._near_eps

        def star(z1, *args):
            observed = observed_star(z1, *args)
            self.gap_failures += z1.size - observed.points.size
            return observed

        def near(z1, z2, full, gone, near, ks, at):
            self.uncertified += at.size
            self.positions += z1.size
            return near_eps(z1, z2, full, gone, near, ks, at)

        mp.setattr(estimators, "_observed_star", star)
        mp.setattr(estimators, "_near_eps", near)


def _check_certified_terms(kind, seed, n, ks):
    sample = _deletion_sample(kind, seed, n)
    with pytest.MonkeyPatch.context() as mp:
        spy = _CertificateSpy(mp)
        got = nlr_deletion_terms(sample.x1, sample.x2, ks, METHODS)
    _assert_terms_equal(got, _deletion_rows_terms(sample, ks))
    if kind == "gauss":
        # distinct distances: the certificate takes most points
        assert spy.uncertified < 0.5 * spy.positions
    if kind in ("rounded", "x ties"):
        assert spy.uncertified > 0
    if kind == "rounded":
        assert spy.gap_failures > 0
    return spy


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(DELETION_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(114, 200),
    ks=st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True),
)
def test_certified_deletion_terms_equal_the_deletion_rows(kind, seed, n, ks):
    # every deletion row is wider than a window: eps of each point comes
    # from its observed k-th nearest where the certificate holds, from its
    # candidates or its full row elsewhere, and each count from the
    # observed prefix lengths where its two edges confirm them
    _check_certified_terms(kind, seed, n, ks)


@pytest.mark.parametrize("kind", DELETION_KINDS)
def test_certified_deletion_terms_at_600_subjects(kind):
    spy = _check_certified_terms(kind, 600, 600, (4,))
    if kind == "x ties":
        assert spy.gap_failures > 0


def test_deletion_terms_check_their_eps(monkeypatch):
    # on tied data some points cannot be shown to have their nearest
    # neighbours among the candidates; their eps comes from the full row
    fallback = []
    eps_points_of_rows = estimators._ksg_eps_points

    def eps_points(x, y, k, row, point):
        fallback.append(row.size)
        return eps_points_of_rows(x, y, k, row, point)

    monkeypatch.setattr(estimators, "_ksg_eps_points", eps_points)
    for kind, checked in (("gauss", False), ("rounded", True)):
        fallback.clear()
        sample = _deletion_sample(kind, 7, 130)
        got = nlr_deletion_terms(sample.x1, sample.x2, (3, 6), ())
        assert (sum(fallback) > 0) == checked
        _assert_terms_equal(got, _deletion_rows_terms(sample, (3, 6), ()))


def test_deletion_candidates_where_deletions_are_windowed(monkeypatch):
    # the candidates are found only where a deletion row, of n - 1 points,
    # is wider than a window and k < WIDTH
    calls = []
    nearest_others = estimators._nearest_others

    def spy(z1, z2, size):
        calls.append(size)
        return nearest_others(z1, z2, size)

    monkeypatch.setattr(estimators, "_nearest_others", spy)
    rng = np.random.default_rng(5)
    for n, k, used in ((WIDTH + 1, 4, False), (WIDTH + 2, 4, True), (WIDTH + 2, WIDTH, False)):
        calls.clear()
        sample = gauss_pairs(rng, n, rho=0.5)
        got = nlr_deletion_terms(sample.x1, sample.x2, (k,), ())
        assert bool(calls) == used, (n, k)
        _assert_terms_equal(got, _deletion_rows_terms(sample, (k,), ()))


def test_deletion_terms_reject_bad_input():
    x = np.arange(6.0)
    with pytest.raises(EstimatorError):
        nlr_deletion_terms(x, np.append(x[:-1], np.nan), (2,), ())
    with pytest.raises(EstimatorError):
        nlr_deletion_terms(x, x[:-1], (2,), ())
    with pytest.raises(EstimatorError):
        nlr_deletion_terms(x, x, (0,), ())
    assert np.isnan(nlr_deletion_terms(x, x, (5,), ())[0]).all()


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
    for counts in (_ksg_counts_brute, _ksg_counts_window):
        counts(x, y, 4)
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


@pytest.mark.parametrize("bad_k", [0, -1, 2.0, True, np.float64(4.0), np.int64(0), "4"])
def test_rejects_bad_k(bad_k):
    s = gauss_pairs(np.random.default_rng(3), 20, rho=0.2)
    with pytest.raises(EstimatorError):
        ksg_mi(s, k=bad_k)
    with pytest.raises(EstimatorError):
        nlr_delta_rows(s.x1[None], s.x2[None], k=bad_k)


def test_accepts_numpy_integer_k():
    s = gauss_pairs(np.random.default_rng(3), 20, rho=0.2)
    assert ksg_mi(s, k=np.int64(4)) == ksg_mi(s, k=4)
    assert ksg_mi(s, k=np.int32(4)) == ksg_mi(s, k=4)
    rows = nlr_delta_rows(s.x1[None], s.x2[None], k=np.int32(4))
    assert np.array_equal(rows, nlr_delta_rows(s.x1[None], s.x2[None], k=4))


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
