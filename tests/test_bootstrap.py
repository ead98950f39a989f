import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from reliakit import (
    BootstrapFailureError,
    DegenerateSampleError,
    EstimatorError,
    PairedSample,
    nlr_delta_rows,
    pearson,
)
from reliakit import bootstrap
from reliakit.bootstrap import (
    _BLOCK_ELEMENTS,
    ALPHA,
    MAX_B,
    bca_interval,
    derive_entropy,
    jackknife_values,
    one_sided_p,
    replicate_indices,
    replicate_rng,
    resample_statistic,
)
from reliakit.digamma import digamma_table
from reliakit.estimators import RHO_CLAMP
from reliakit.multiverse import CORR_GRID, K_GRID

from conftest import gauss_pairs, make_sample, nlr_delta


def mean_x1(x1, x2):
    return x1.mean(axis=1)


def rows_of(scalar):
    """Batch statistic from a scalar one: NaN where the scalar raises."""

    def batch(x1, x2):
        out = []
        for a, b in zip(x1, x2):
            try:
                out.append(scalar(PairedSample(measure_id="m", x1=a, x2=b)))
            except EstimatorError:
                out.append(np.nan)
        return np.array(out, dtype=np.float64)

    return batch


def nlr_delta_1d(sample, k, method="pearson"):
    """Reference nlr delta of one sample in 1-d numpy arithmetic: np.dot
    for the correlation, whole-array mean and std, one unblocked distance
    matrix. Raises DegenerateSampleError where conftest.nlr_delta does."""
    x1, x2 = sample.x1, sample.x2
    n = x1.size
    if n < k + 1:
        raise DegenerateSampleError("too few pairs")
    a, b = (rankdata(x1), rankdata(x2)) if method == "spearman" else (x1, x2)
    d1, d2 = a - a.mean(), b - b.mean()
    s1, s2 = float(np.sqrt(np.dot(d1, d1))), float(np.sqrt(np.dot(d2, d2)))
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateSampleError("zero variance")
    rho = float(np.dot(d1, d2) / (s1 * s2))
    clamped = max(-RHO_CLAMP, min(RHO_CLAMP, rho))
    mi_gauss = -0.5 * math.log1p(-(clamped * clamped))

    def standardize(v):
        sd = v.std(ddof=1)
        c = v - v.mean()
        return c / sd if sd > 0 else c

    x, y = standardize(x1), standardize(x2)
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dj = np.maximum(dx, dy)
    np.fill_diagonal(dj, np.inf)
    eps = np.partition(dj, k - 1, axis=1)[:, k - 1]
    has_ball = eps > 0
    nx = (dx < eps[:, None]).sum(axis=1) - has_ball
    ny = (dy < eps[:, None]).sum(axis=1) - has_ball
    t = digamma_table(n)
    return float(t[k] - np.mean(t[nx + 1] + t[ny + 1]) + t[n]) - mi_gauss


def loop_resample(sample, statistic, b, entropy):
    """Reference: the per-replicate loop over a scalar statistic."""
    n = sample.n
    values = []
    dropped = 0
    for r in range(b):
        idx = replicate_rng(entropy, r).integers(0, n, size=n)
        resample = PairedSample(
            measure_id=sample.measure_id, x1=sample.x1[idx], x2=sample.x2[idx]
        )
        try:
            value = statistic(resample)
        except EstimatorError:
            dropped += 1
            continue
        if not np.isfinite(value):
            dropped += 1
            continue
        values.append(float(value))
    return np.asarray(values, dtype=np.float64), dropped


def loop_jackknife(sample, statistic):
    """Reference: the per-deletion loop over a scalar statistic."""
    n = sample.n
    values = []
    for i in range(n):
        keep = np.arange(n) != i
        reduced = PairedSample(
            measure_id=sample.measure_id, x1=sample.x1[keep], x2=sample.x2[keep]
        )
        try:
            value = statistic(reduced)
        except EstimatorError:
            continue
        if np.isfinite(value):
            values.append(float(value))
    return np.asarray(values, dtype=np.float64)


def test_entropy_frozen_value():
    assert (
        derive_entropy(42, "m1", "k4_pearson_nmin10")
        == 337220426253822842314995371046025233930
    )


def test_entropy_separates_all_components():
    base = derive_entropy(42, "m1", "s1")
    assert derive_entropy(43, "m1", "s1") != base
    assert derive_entropy(42, "m2", "s1") != base
    assert derive_entropy(42, "m1", "s2") != base
    # the two string fields are not interchangeable
    assert derive_entropy(42, "a", "b") != derive_entropy(42, "b", "a")


def test_entropy_fits_in_128_bits():
    for seed in (0, 1, 2**31):
        assert 0 <= derive_entropy(seed, "m", "s") < 2**128


def test_replicate_rng_reproducible_and_independent():
    e = derive_entropy(7, "m", "s")
    a = replicate_rng(e, 3).integers(0, 1000, size=8)
    b = replicate_rng(e, 3).integers(0, 1000, size=8)
    c = replicate_rng(e, 4).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def oracle_indices(entropy, start, stop, n):
    """Reference: one numpy generator per replicate."""
    return np.stack(
        [replicate_rng(entropy, r).integers(0, n, size=n) for r in range(start, stop)]
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    entropy=st.one_of(
        # below 2**96 the entropy's words and r fit SeedSequence's four-word
        # pool; above it, r is the fifth word and is mixed in after the pool
        st.integers(0, 2**96 - 1),
        st.integers(2**96, 2**128 - 1),
        st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 - 1]),
    ),
    n=st.integers(2, 1000),
    count=st.integers(1, 24),
)
def test_replicate_indices_equal_numpy_streams(data, entropy, n, count):
    rows_per_block = _BLOCK_ELEMENTS // n
    start = data.draw(
        st.one_of(
            # a range across the edge of blocks k and k + 1 of resample_statistic
            st.builds(
                lambda k, back: max(0, (k + 1) * rows_per_block - back),
                st.integers(0, 4),
                st.integers(0, count),
            ),
            # the last replicate indices a 32-bit seed word can hold
            st.integers(MAX_B - 64, MAX_B - count),
        ),
        label="start",
    )
    got = replicate_indices(entropy, start, start + count, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle_indices(entropy, start, start + count, n))


def test_replicate_indices_redraws_lemire_rejections_exactly(monkeypatch):
    # found by a vectorized scan: these four rows of (entropy, n = 997) each
    # hold a word that Lemire's method rejects, so numpy draws one word more
    entropy = derive_entropy(1, "m", "k4_pearson_nmin10")
    redrawn = []

    def spy(e, r):
        redrawn.append(r)
        return replicate_rng(e, r)

    monkeypatch.setattr(bootstrap, "replicate_rng", spy)
    got = replicate_indices(entropy, 4200, 7000, 997)
    assert redrawn == [4294, 4977, 6777, 6921]
    assert np.array_equal(got, oracle_indices(entropy, 4200, 7000, 997))


def test_replicate_indices_bounds():
    assert replicate_indices(5, 3, 3, 10).shape == (0, 10)
    assert np.array_equal(replicate_indices(5, 0, 4, 1), np.zeros((4, 1), dtype=np.int64))
    # r = 2**32 would need a second seed word; only two-row ranges are
    # tried, so a missing check cannot start a 2**32-row draw
    for start, stop in ((MAX_B - 1, MAX_B + 1), (MAX_B, MAX_B + 1), (5, 4), (-1, 2)):
        with pytest.raises(ValueError):
            replicate_indices(5, start, stop, 10)
    with pytest.raises(ValueError):
        replicate_indices(-1, 0, 2, 10)
    with pytest.raises(ValueError):
        replicate_indices(5, 0, 2, 0)


def test_resample_bitwise_deterministic():
    rng = np.random.default_rng(3)
    s = gauss_pairs(rng, 25, rho=0.5)
    e = derive_entropy(42, "m", "spec")
    first, drop1 = resample_statistic(s, mean_x1, 40, e)
    second, drop2 = resample_statistic(s, mean_x1, 40, e)
    assert np.array_equal(first, second)
    assert drop1 == drop2 == 0


def test_resample_prefix_stable_under_budget():
    # replicate r depends only on (entropy, r), so a bigger budget extends
    # the sequence instead of reshuffling it
    rng = np.random.default_rng(4)
    s = gauss_pairs(rng, 20, rho=0.3)
    e = derive_entropy(1, "m", "s")
    small, _ = resample_statistic(s, mean_x1, 10, e)
    large, _ = resample_statistic(s, mean_x1, 50, e)
    assert np.array_equal(large[:10], small)
    # across blocks: B = 5000 spans several blocks of rows and ends in a
    # partial one, B = 200 fits in one; both equal the per-replicate loop
    rows_per_block = _BLOCK_ELEMENTS // s.n
    assert 200 < rows_per_block < 5000 and 5000 % rows_per_block
    statistic = partial(nlr_delta_rows, k=4)
    small, _ = resample_statistic(s, statistic, 200, e)
    large, dropped = resample_statistic(s, statistic, 5000, e)
    assert np.array_equal(large[:200], small)
    want, want_dropped = loop_resample(s, partial(nlr_delta_1d, k=4), 5000, e)
    assert np.array_equal(large, want) and dropped == want_dropped == 0


def test_resample_needs_two_pairs_and_budget():
    with pytest.raises(BootstrapFailureError):
        resample_statistic(make_sample([1.0], [2.0]), mean_x1, 10, 0)
    with pytest.raises(BootstrapFailureError):
        resample_statistic(make_sample([1.0, 2.0], [3.0, 4.0]), mean_x1, 0, 0)


def test_resample_all_degenerate_raises():
    s = make_sample([3.0, 3.0, 3.0, 3.0], [5.0, 5.0, 5.0, 5.0])
    with pytest.raises(BootstrapFailureError):
        resample_statistic(s, rows_of(pearson), 20, 0)


def test_resample_drop_accounting():
    rng = np.random.default_rng(9)
    s = gauss_pairs(rng, 12, rho=0.2)

    def picky(x1, x2):
        # reject low-diversity draws; at n = 12 roughly half the resamples
        # keep 7 or fewer distinct subjects, so both branches are exercised
        distinct = np.array([np.unique(row).size for row in x1])
        return np.where(distinct <= 7, np.nan, x1.mean(axis=1))

    values, dropped = resample_statistic(s, picky, 200, 5)
    assert dropped > 0
    assert 0 < values.size < 200
    assert values.size + dropped == 200
    assert np.isfinite(values).all()


def test_resample_drops_nonfinite_values():
    s = make_sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def sometimes_nan(x1, x2):
        return np.where(x1[:, 0] == 1.0, np.nan, x1.mean(axis=1))

    values, dropped = resample_statistic(s, sometimes_nan, 100, 11)
    assert dropped > 0
    assert values.size + dropped == 100


def test_jackknife_leaves_one_out():
    s = make_sample([1.0, 2.0, 3.0, 10.0], [0.0, 0.0, 0.0, 0.0])
    got = jackknife_values(s, mean_x1)
    want = np.array([15.0, 14.0, 13.0, 6.0]) / 3.0
    assert np.allclose(got, want, atol=1e-15)


def test_bca_frozen_oracle_case():
    reps = np.array([-0.5, -0.2, -0.1, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9])
    jack = np.array([0.1, 0.15, 0.2, 0.12, 0.3, 0.25, 0.05, 0.18])
    interval = bca_interval(reps, point=0.18, jackknife=jack)
    assert interval.method == "bca"
    assert interval.z0 == 0.0
    assert interval.a == pytest.approx(-0.01176183230352536, abs=1e-15)
    assert interval.ci_low == pytest.approx(-0.43947470061265526, abs=1e-12)
    assert interval.ci_high == pytest.approx(0.825222661703247, abs=1e-12)


def test_bca_extreme_bias_falls_back_to_percentile():
    reps = np.linspace(1.0, 2.0, 40)  # every replicate above the point
    jack = np.array([0.1, 0.2, 0.3, 0.15])
    interval = bca_interval(reps, point=0.5, jackknife=jack)
    assert interval.method == "percentile_fallback"
    assert interval.z0 == -np.inf
    lo, hi = np.quantile(reps, [ALPHA / 2.0, 1.0 - ALPHA / 2.0], method="linear")
    assert (interval.ci_low, interval.ci_high) == (float(lo), float(hi))

    flipped = bca_interval(reps, point=3.0, jackknife=jack)
    assert flipped.z0 == np.inf
    assert flipped.method == "percentile_fallback"


def test_bca_flat_jackknife_falls_back():
    rng = np.random.default_rng(15)
    reps = rng.normal(size=200)
    interval = bca_interval(reps, point=0.0, jackknife=np.full(10, 0.4))
    assert interval.method == "percentile_fallback"
    assert np.isfinite(interval.z0)
    assert interval.a == 0.0
    lo, hi = np.quantile(reps, [ALPHA / 2.0, 1.0 - ALPHA / 2.0], method="linear")
    assert (interval.ci_low, interval.ci_high) == (float(lo), float(hi))


def test_bca_tiny_jackknife_falls_back():
    reps = np.linspace(-1.0, 1.0, 50)
    interval = bca_interval(reps, point=0.0, jackknife=np.array([0.3]))
    assert interval.method == "percentile_fallback"


def test_bca_empty_replicates():
    with pytest.raises(BootstrapFailureError):
        bca_interval(np.array([]), point=0.0, jackknife=np.array([0.1, 0.2]))


def test_one_sided_p_counting():
    assert one_sided_p(np.array([0.5, 0.2, 0.9])) == pytest.approx(1.0 / 4.0)
    assert one_sided_p(np.array([-1.0, 0.0, -0.5])) == 1.0
    reps = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
    assert one_sided_p(reps) == pytest.approx(51.0 / 101.0)
    with pytest.raises(BootstrapFailureError):
        one_sided_p(np.array([]))


def bootstrap_at_point(sample, statistic, b, entropy):
    """The engine's steps around the statistic's observed value: its B
    replicates, then the BCa interval on its kept jackknife values and the
    one-sided p."""
    point = float(statistic(sample.x1[None], sample.x2[None])[0])
    replicates, n_dropped = resample_statistic(sample, statistic, b, entropy)
    jack = jackknife_values(sample, statistic)
    interval = bca_interval(replicates, point, jack)
    return SimpleNamespace(
        point=point,
        replicates=replicates,
        n_dropped=n_dropped,
        interval=interval,
        p=one_sided_p(replicates),
    )


def test_bootstrap_at_point_fields():
    rng = np.random.default_rng(21)
    s = gauss_pairs(rng, 30, rho=0.6)
    e = derive_entropy(42, "m", "s")
    result = bootstrap_at_point(s, rows_of(pearson), b=400, entropy=e)
    assert result.point == pearson(s)
    assert result.replicates.size + result.n_dropped == 400
    assert result.interval.ci_low <= result.interval.ci_high
    assert 0.0 < result.p <= 1.0
    assert result.interval.method in ("bca", "percentile_fallback")
    again = bootstrap_at_point(s, rows_of(pearson), b=400, entropy=e)
    assert np.array_equal(again.replicates, result.replicates)
    assert (again.n_dropped, again.interval, again.p) == (result.n_dropped, result.interval, result.p)


def test_bootstrap_at_point_interval_covers_truth_mostly():
    # 95% BCa interval for a normal mean at n = 60: nominal coverage is
    # 0.95 with the usual finite-n, finite-B shortfall. The seeds are fixed
    # so this is a deterministic regression (realization 0.927); the band
    # is wide enough for the sampling noise of 1000 trials but would catch
    # a mis-set alpha or broken endpoint transform outright.
    hits = 0
    trials = 1000
    for t in range(trials):
        rng = np.random.default_rng(50_000 + t)
        x = rng.normal(loc=0.3, scale=1.0, size=60)
        s = make_sample(x, np.zeros_like(x))
        result = bootstrap_at_point(s, mean_x1, b=500, entropy=t)
        if result.interval.ci_low <= 0.3 <= result.interval.ci_high:
            hits += 1
    coverage = hits / trials
    assert 0.91 <= coverage <= 0.97, f"coverage {coverage}"


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    k=st.sampled_from(K_GRID),
    method=st.sampled_from(CORR_GRID),
    tied=st.booleans(),
)
def test_blocked_values_equal_per_sample_loop(data, k, method, tied):
    # n up to 200 reaches both block shapes of the neighbour counts: whole
    # samples per block up to n = 181, split query rows above
    n = data.draw(st.integers(k + 1, 200), label="n")
    b = data.draw(st.integers(1, 40), label="b")
    if tied:
        scores = st.integers(0, 4).map(float)
    else:
        scores = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    pairs = st.lists(st.tuples(scores, scores), min_size=n, max_size=n)
    x1, x2 = np.array(data.draw(pairs, label="pairs"), dtype=np.float64).T
    s = make_sample(x1, x2)
    entropy = data.draw(st.integers(0, 2**128 - 1), label="entropy")
    batch = partial(nlr_delta_rows, k=k, corr_method=method)
    scalar = partial(nlr_delta_1d, k=k, method=method.value)
    try:
        assert nlr_delta(s, k, method) == scalar(s)
    except DegenerateSampleError:
        with pytest.raises(DegenerateSampleError):
            nlr_delta(s, k, method)
    want, want_dropped = loop_resample(s, scalar, b, entropy)
    if want.size:
        got, dropped = resample_statistic(s, batch, b, entropy)
        assert np.array_equal(got, want) and dropped == want_dropped
    else:
        with pytest.raises(BootstrapFailureError):
            resample_statistic(s, batch, b, entropy)
    assert np.array_equal(jackknife_values(s, batch), loop_jackknife(s, scalar))


@pytest.mark.parametrize("k", K_GRID)
def test_every_deletion_degenerate_at_n_k_plus_1(k):
    # n - 1 = k pairs admit no KSG estimate, so every deletion is dropped
    # and the interval falls back to the percentile endpoints
    s = gauss_pairs(np.random.default_rng(k), k + 1, rho=0.5)
    statistic = partial(nlr_delta_rows, k=k)
    assert jackknife_values(s, statistic).size == 0
    assert loop_jackknife(s, partial(nlr_delta_1d, k=k)).size == 0
    result = bootstrap_at_point(s, statistic, b=100, entropy=k)
    assert result.interval.method == "percentile_fallback"
    assert result.point == nlr_delta(s, k)
