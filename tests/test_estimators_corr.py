import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from reliakit import (
    CorrMethod,
    DegenerateSampleError,
    EstimatorError,
    gaussian_mi,
    nlr,
    pearson,
    spearman,
)
from reliakit.estimators import (
    RHO_CLAMP,
    _gaussian_mi_rows,
    _midranks,
    clamped_gaussian_mi,
    correlation,
)

from conftest import gauss_pairs, make_sample


def test_pearson_perfect_positive():
    s = make_sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert pearson(s) == pytest.approx(1.0, abs=1e-15)


def test_pearson_perfect_negative():
    s = make_sample([1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0])
    assert pearson(s) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_frozen_interleaved_case():
    # hand-computable: sum of products 4, both sums of squares 5
    s = make_sample([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 4.0])
    assert pearson(s) == pytest.approx(0.8, abs=1e-14)


def test_pearson_two_points():
    s = make_sample([0.0, 1.0], [5.0, 9.0])
    assert pearson(s) == pytest.approx(1.0, abs=1e-15)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 60))
        s = gauss_pairs(rng, n, rho=float(rng.uniform(-0.9, 0.9)))
        assert pearson(s) == pytest.approx(
            float(np.corrcoef(s.x1, s.x2)[0, 1]), abs=1e-13
        )


def test_pearson_rejects_single_pair():
    with pytest.raises(DegenerateSampleError):
        pearson(make_sample([1.0], [2.0]))


def test_pearson_rejects_constant_session():
    with pytest.raises(DegenerateSampleError):
        pearson(make_sample([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))


def test_pearson_rejects_nonfinite():
    with pytest.raises(EstimatorError):
        pearson(make_sample([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]))


def test_spearman_invariant_under_monotone_map():
    x = np.array([0.3, 1.7, 2.2, 5.9, 8.1])
    s = make_sample(x, np.exp(x))
    assert spearman(s) == pytest.approx(1.0, abs=1e-15)


def test_spearman_sees_through_square():
    s = make_sample([1.0, 2.0, 3.0, 4.0], [1.0, 4.0, 9.0, 16.0])
    assert spearman(s) == pytest.approx(1.0, abs=1e-15)
    assert pearson(s) < 1.0


def test_spearman_tie_case_frozen():
    # midranks [1,2,3] and [1.5,1.5,3]: correlation sqrt(3)/2
    s = make_sample([1.0, 2.0, 3.0], [1.0, 1.0, 2.0])
    assert spearman(s) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)


def loop_midranks(v):
    """The tie-run loop _midranks replaced, kept as its oracle."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.integers(-3, 3).map(float)
        | st.sampled_from([0.0, -0.0, 1e300, -1e300, float("inf"), -float("inf"), float("nan")]),
        max_size=300,
    )
)
def test_midranks_equal_loop_version_on_tied_data(values):
    v = np.array(values, dtype=np.float64)
    assert np.array_equal(_midranks(v), loop_midranks(v))


def test_spearman_equals_pearson_on_midranks():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x1 = rng.integers(0, 6, size=15).astype(np.float64)  # plenty of ties
        x2 = rng.integers(0, 6, size=15).astype(np.float64) + 0.5 * x1
        s = make_sample(x1, x2)
        ranked = make_sample(
            scipy.stats.rankdata(x1, method="average"),
            scipy.stats.rankdata(x2, method="average"),
        )
        assert spearman(s) == pearson(ranked)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        x1 = np.round(rng.normal(size=n), 1)  # rounding induces ties
        x2 = np.round(0.6 * x1 + rng.normal(size=n), 1)
        got = spearman(make_sample(x1, x2))
        want = float(scipy.stats.spearmanr(x1, x2).statistic)
        assert got == pytest.approx(want, abs=1e-13)


def test_correlation_dispatch():
    s = make_sample([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    assert correlation(s, CorrMethod.PEARSON) == pearson(s)
    assert correlation(s, "spearman") == spearman(s)
    with pytest.raises(ValueError):
        correlation(s, "kendall")


def test_gaussian_mi_zero():
    assert gaussian_mi(0.0) == 0.0


def test_gaussian_mi_frozen_value():
    # -0.5 * ln(1 - 0.36)
    assert gaussian_mi(0.6) == pytest.approx(0.22314355131420976, abs=1e-12)


def test_gaussian_mi_even_and_monotone():
    grid = np.linspace(0.0, 0.999, 40)
    values = [gaussian_mi(r) for r in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    for r in (0.2, 0.5, 0.9):
        assert gaussian_mi(-r) == gaussian_mi(r)


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_gaussian_mi_domain(bad):
    with pytest.raises(EstimatorError):
        gaussian_mi(bad)


def test_nlr_internal_consistency():
    rng = np.random.default_rng(5)
    s = gauss_pairs(rng, 60, rho=0.7)
    value = nlr(s, k=4)
    assert value.delta == value.mi_ksg - value.mi_gauss
    assert value.rho == pearson(s)
    assert value.mi_gauss == gaussian_mi(value.rho)
    assert value.ratio == value.mi_ksg / value.mi_gauss
    assert value.k == 4
    assert value.corr_method is CorrMethod.PEARSON


def test_nlr_ratio_absent_when_baseline_zero():
    # orthogonal by construction: sample correlation is exactly 0
    s = make_sample([-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0])
    value = nlr(s, k=2)
    assert value.rho == 0.0
    assert value.mi_gauss == 0.0
    assert value.ratio is None
    assert math.isfinite(value.delta)


def test_nlr_collinear_sample_is_finite():
    # rho -> 1 hits the clamp; baseline must stay finite, no exception
    x = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0])
    value = nlr(make_sample(x, x))
    assert math.isfinite(value.mi_gauss)
    assert value.mi_gauss > 10.0
    assert math.isfinite(value.delta)


def test_nlr_spearman_route():
    rng = np.random.default_rng(17)
    s = gauss_pairs(rng, 50, rho=0.6)
    value = nlr(s, corr_method="spearman")
    assert value.rho == spearman(s)
    assert value.corr_method is CorrMethod.SPEARMAN


def _assert_baseline_rows_equal_scalar(rho):
    got = _gaussian_mi_rows(np.asarray(rho, dtype=np.float64))
    assert got.dtype == np.float64 and got.shape == (len(rho),)
    for r, g in zip(rho, got.tolist()):
        if math.isnan(r):
            assert math.isnan(g)
        else:
            # bitwise, sign of zero included
            assert g.hex() == clamped_gaussian_mi(r).hex(), r


def test_baseline_rows_equal_scalar_at_the_edges():
    below = math.nextafter(RHO_CLAMP, 0.0)
    above = math.nextafter(RHO_CLAMP, 2.0)
    edges = [
        0.0, -0.0, 1.0, -1.0, RHO_CLAMP, -RHO_CLAMP, below, -below, above, -above,
        math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0), 1e-300, -1e-300,
        5e-324, float("nan"),
    ]
    _assert_baseline_rows_equal_scalar(edges)
    _assert_baseline_rows_equal_scalar([])
    # outside the clamp every value gets the clamp's baseline
    rows = _gaussian_mi_rows(np.array([above, 1.0, -1.0]))
    assert np.all(rows == clamped_gaussian_mi(RHO_CLAMP))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True) | st.just(float("nan")),
        min_size=1,
        max_size=50,
    )
)
def test_baseline_rows_equal_scalar_on_random_values(rho):
    _assert_baseline_rows_equal_scalar(rho)


def test_baseline_rows_equal_scalar_on_a_dense_draw():
    # a vectorized np.log1p differs from math.log1p in the last bit on a
    # few percent of such values; the rows must not
    rho = np.random.default_rng(5).uniform(-1.0, 1.0, size=20000)
    _assert_baseline_rows_equal_scalar(rho.tolist())
