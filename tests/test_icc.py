"""Intraclass correlation checks against hand-computed tables and an
independent ANOVA oracle that uses scipy.stats.f for its quantiles."""

import numpy as np
import pytest
import scipy.stats

from reliakit import DegenerateSampleError, IccVariant, icc
from reliakit.estimators import _f_quantile

from conftest import make_sample

# six-subject table used throughout; mean squares verified by hand:
# msr = 9.770833..., msc = 1.020833..., mse = 0.370833...
TABLE_X1 = [9.0, 10.5, 6.0, 12.0, 8.0, 11.0]
TABLE_X2 = [10.0, 11.0, 7.5, 12.5, 7.0, 12.0]


def icc_oracle(x1, x2, variant):
    """Two-way ANOVA recomputation with explicit loops and scipy quantiles
    for the 95% interval."""
    n = len(x1)
    m = 2
    table = np.column_stack([np.asarray(x1, float), np.asarray(x2, float)])
    grand = table.mean()
    row_means = table.mean(axis=1)
    col_means = table.mean(axis=0)
    msr = m * float(((row_means - grand) ** 2).sum()) / (n - 1)
    msc = n * float(((col_means - grand) ** 2).sum()) / (m - 1)
    sse = 0.0
    for i in range(n):
        for j in range(m):
            sse += (table[i, j] - row_means[i] - col_means[j] + grand) ** 2
    mse = sse / ((n - 1) * (m - 1))
    q = 1.0 - (1.0 - 0.95) / 2.0
    if variant == "icc_3_1":
        value = (msr - mse) / (msr + (m - 1) * mse)
        f0 = msr / mse
        fl = f0 / scipy.stats.f.ppf(q, n - 1, (n - 1) * (m - 1))
        fu = f0 * scipy.stats.f.ppf(q, (n - 1) * (m - 1), n - 1)
        return value, (fl - 1) / (fl + m - 1), (fu - 1) / (fu + m - 1)
    value = (msr - mse) / (msr + (m - 1) * mse + (m / n) * (msc - mse))
    fj = msc / mse
    a = m * value * fj
    b = n * (1 + (m - 1) * value) - m * value
    v = (m - 1) * (n - 1) * (a + b) ** 2 / ((n - 1) * a**2 + b**2)
    fu = scipy.stats.f.ppf(q, n - 1, v)
    fl = scipy.stats.f.ppf(q, v, n - 1)
    low = n * (msr - fu * mse) / (fu * (m * msc + (m * n - m - n) * mse) + n * msr)
    high = n * (fl * msr - mse) / (m * msc + (m * n - m - n) * mse + n * fl * msr)
    return value, low, high


def offset_table(rng, n):
    """Random table in the usual regime: subject variance dominates and the
    sessions differ by a shared offset (so msc >= mse holds comfortably)."""
    subject = rng.normal(0.0, 2.0, size=n)
    x1 = subject + rng.normal(0.0, 0.3, size=n)
    x2 = subject + 1.5 + rng.normal(0.0, 0.3, size=n)
    return make_sample(x1, x2)


def test_frozen_six_subject_table_agreement():
    s = make_sample(TABLE_X1, TABLE_X2)
    est = icc(s, IccVariant.TWO_WAY_RANDOM)
    assert est.value == pytest.approx(0.9074818986323411, abs=1e-10)
    assert est.ci_low == pytest.approx(0.5035014848419925, abs=1e-10)
    assert est.ci_high == pytest.approx(0.9864215623861153, abs=1e-10)
    assert not est.degenerate


def test_frozen_six_subject_table_consistency():
    s = make_sample(TABLE_X1, TABLE_X2)
    est = icc(s, IccVariant.TWO_WAY_FIXED)
    assert est.value == pytest.approx(0.9268693508627773, abs=1e-10)
    assert est.ci_low == pytest.approx(0.5732827826936768, abs=1e-10)
    assert est.ci_high == pytest.approx(0.9894344870875729, abs=1e-10)


def test_six_subject_table_matches_oracle():
    s = make_sample(TABLE_X1, TABLE_X2)
    for variant in ("icc_2_1", "icc_3_1"):
        est = icc(s, variant)
        value, low, high = icc_oracle(TABLE_X1, TABLE_X2, variant)
        assert est.value == pytest.approx(value, abs=1e-10)
        assert est.ci_low == pytest.approx(low, abs=1e-10)
        assert est.ci_high == pytest.approx(high, abs=1e-10)


def test_identical_sessions():
    s = make_sample([1.0, 4.0, 2.0, 6.0], [1.0, 4.0, 2.0, 6.0])
    for variant in IccVariant:
        est = icc(s, variant)
        assert (est.value, est.ci_low, est.ci_high) == (1.0, 1.0, 1.0)
        assert not est.degenerate


def test_pure_session_offset():
    # agreement is destroyed by the offset, consistency is perfect
    x1 = np.arange(1.0, 7.0)
    s = make_sample(x1, x1 + 10.0)
    agreement = icc(s, "icc_2_1")
    assert agreement.value == pytest.approx(0.06542056074766354, abs=1e-12)
    assert agreement.ci_low == pytest.approx(7.592866973237002e-05, abs=1e-12)
    assert agreement.ci_high == pytest.approx(0.41193377622337324, abs=1e-12)
    consistency = icc(s, "icc_3_1")
    assert (consistency.value, consistency.ci_low, consistency.ci_high) == (
        1.0,
        1.0,
        1.0,
    )


def test_no_subject_variance_is_degenerate():
    s = make_sample([5.0, 5.0, 5.0], [7.0, 7.0, 7.0])
    for variant in IccVariant:
        est = icc(s, variant)
        assert est.degenerate
        assert (est.value, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)


def test_random_tables_match_oracle():
    rng = np.random.default_rng(97)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        s = offset_table(rng, n)
        for variant in ("icc_2_1", "icc_3_1"):
            est = icc(s, variant)
            value, low, high = icc_oracle(list(s.x1), list(s.x2), variant)
            assert est.value == pytest.approx(value, abs=1e-10)
            assert est.ci_low == pytest.approx(low, abs=1e-10)
            assert est.ci_high == pytest.approx(high, abs=1e-10)


def test_random_table_invariants():
    rng = np.random.default_rng(89)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        s = offset_table(rng, n)
        agreement = icc(s, "icc_2_1")
        consistency = icc(s, "icc_3_1")
        for est in (agreement, consistency):
            assert est.ci_low <= est.value <= est.ci_high
            assert est.value <= 1.0
        # session effects only lower agreement relative to consistency
        assert agreement.value <= consistency.value + 1e-12


def test_f_quantile_matches_scipy():
    for p in (0.5, 0.9, 0.975, 0.995):
        for d1, d2 in ((1, 1), (2, 8), (5, 5), (3.7, 12.2), (19, 1), (40, 60)):
            want = float(scipy.stats.f.ppf(p, d1, d2))
            assert _f_quantile(p, d1, d2) == pytest.approx(want, rel=1e-10)


def test_needs_three_subjects():
    with pytest.raises(DegenerateSampleError):
        icc(make_sample([1.0, 2.0], [1.0, 2.0]), "icc_2_1")


def test_variant_strings():
    s = make_sample(TABLE_X1, TABLE_X2)
    assert icc(s, "icc_2_1") == icc(s, IccVariant.TWO_WAY_RANDOM)
    with pytest.raises(ValueError):
        icc(s, "icc_1_1")
