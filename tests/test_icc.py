"""Intraclass correlation checks against hand-computed tables, an
independent ANOVA oracle that uses scipy.stats.f for its quantiles, and the
arithmetic of one estimator call per variant that icc replaced."""

from dataclasses import astuple

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reliakit import DegenerateSampleError, icc
from reliakit.estimators import _f_quantile

from conftest import make_sample

# six-subject table used throughout; mean squares verified by hand:
# msr = 9.770833..., msc = 1.020833..., mse = 0.370833...
TABLE_X1 = [9.0, 10.5, 6.0, 12.0, 8.0, 11.0]
TABLE_X2 = [10.0, 11.0, 7.5, 12.5, 7.0, 12.0]


def icc_oracle(x1, x2):
    """Two-way ANOVA recomputation with explicit loops and scipy quantiles
    for the 95% interval: (icc_2_1, icc_2_1_low, icc_2_1_high, icc_3_1)."""
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
    consistency = (msr - mse) / (msr + (m - 1) * mse)
    value = (msr - mse) / (msr + (m - 1) * mse + (m / n) * (msc - mse))
    fj = msc / mse
    a = m * value * fj
    b = n * (1 + (m - 1) * value) - m * value
    v = (m - 1) * (n - 1) * (a + b) ** 2 / ((n - 1) * a**2 + b**2)
    fu = scipy.stats.f.ppf(q, n - 1, v)
    fl = scipy.stats.f.ppf(q, v, n - 1)
    low = n * (msr - fu * mse) / (fu * (m * msc + (m * n - m - n) * mse) + n * msr)
    high = n * (fl * msr - mse) / (m * msc + (m * n - m - n) * mse + n * fl * msr)
    return value, low, high, consistency


def two_call_icc(x1, x2, variant):
    """The arithmetic of the former icc(sample, variant), one ANOVA table per
    call: (value, ci_low, ci_high, degenerate)."""
    n = x1.size
    m = 2
    table = np.column_stack([x1, x2])
    grand = table.mean()
    row_means = table.mean(axis=1)
    col_means = table.mean(axis=0)
    msr = m * float(np.sum((row_means - grand) ** 2)) / (n - 1)
    msc = n * float(np.sum((col_means - grand) ** 2)) / (m - 1)
    resid = table - row_means[:, None] - col_means[None, :] + grand
    mse = float(np.sum(resid**2)) / ((n - 1) * (m - 1))
    q = 1.0 - (1.0 - 0.95) / 2.0

    if msr == 0.0:
        return 0.0, 0.0, 0.0, True

    if variant == "icc_3_1":
        if mse == 0.0:
            return 1.0, 1.0, 1.0, False
        value = (msr - mse) / (msr + (m - 1) * mse)
        f0 = msr / mse
        fl = f0 / _f_quantile(q, n - 1, (n - 1) * (m - 1))
        fu = f0 * _f_quantile(q, (n - 1) * (m - 1), n - 1)
        low = (fl - 1.0) / (fl + m - 1.0)
        high = (fu - 1.0) / (fu + m - 1.0)
        return value, low, high, False

    if mse == 0.0 and msc == 0.0:
        return 1.0, 1.0, 1.0, False
    value = (msr - mse) / (msr + (m - 1) * mse + (m / n) * (msc - mse))
    if mse == 0.0:
        v = float(m - 1)
    else:
        fj = msc / mse
        a_term = m * value * fj
        b_term = n * (1.0 + (m - 1) * value) - m * value
        v_num = (m - 1) * (n - 1) * (a_term + b_term) ** 2
        v_den = (n - 1) * a_term**2 + b_term**2
        v = v_num / v_den
    fu = _f_quantile(q, n - 1, v)
    fl = _f_quantile(q, v, n - 1)
    low = n * (msr - fu * mse) / (fu * (m * msc + (m * n - m - n) * mse) + n * msr)
    high = n * (fl * msr - mse) / (m * msc + (m * n - m - n) * mse + n * fl * msr)
    return value, low, high, False


def offset_table(rng, n):
    """Random table in the usual regime: subject variance dominates and the
    sessions differ by a shared offset (so msc >= mse holds comfortably)."""
    subject = rng.normal(0.0, 2.0, size=n)
    x1 = subject + rng.normal(0.0, 0.3, size=n)
    x2 = subject + 1.5 + rng.normal(0.0, 0.3, size=n)
    return make_sample(x1, x2)


def test_frozen_six_subject_table_agreement():
    est = icc(make_sample(TABLE_X1, TABLE_X2))
    assert est.icc_2_1 == pytest.approx(0.9074818986323411, abs=1e-10)
    assert est.icc_2_1_low == pytest.approx(0.5035014848419925, abs=1e-10)
    assert est.icc_2_1_high == pytest.approx(0.9864215623861153, abs=1e-10)


def test_frozen_six_subject_table_consistency():
    est = icc(make_sample(TABLE_X1, TABLE_X2))
    assert est.icc_3_1 == pytest.approx(0.9268693508627773, abs=1e-10)


def test_six_subject_table_matches_oracle():
    est = icc(make_sample(TABLE_X1, TABLE_X2))
    assert astuple(est) == pytest.approx(icc_oracle(TABLE_X1, TABLE_X2), abs=1e-10)


def test_identical_sessions():
    est = icc(make_sample([1.0, 4.0, 2.0, 6.0], [1.0, 4.0, 2.0, 6.0]))
    assert astuple(est) == (1.0, 1.0, 1.0, 1.0)


def test_pure_session_offset():
    # agreement is destroyed by the offset, consistency is perfect
    x1 = np.arange(1.0, 7.0)
    est = icc(make_sample(x1, x1 + 10.0))
    assert est.icc_2_1 == pytest.approx(0.06542056074766354, abs=1e-12)
    assert est.icc_2_1_low == pytest.approx(7.592866973237002e-05, abs=1e-12)
    assert est.icc_2_1_high == pytest.approx(0.41193377622337324, abs=1e-12)
    assert est.icc_3_1 == 1.0


def test_no_subject_variance_raises():
    with pytest.raises(DegenerateSampleError, match="m: no between-subject variance"):
        icc(make_sample([5.0, 5.0, 5.0], [7.0, 7.0, 7.0]))
    # each subject's two scores sum to the same total: the row means agree
    x1 = np.arange(30) / 4.0
    with pytest.raises(DegenerateSampleError, match="crossed"):
        icc(make_sample(x1, 10.0 - x1, measure_id="crossed"))


def test_random_tables_match_oracle():
    rng = np.random.default_rng(97)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        s = offset_table(rng, n)
        want = icc_oracle(list(s.x1), list(s.x2))
        assert astuple(icc(s)) == pytest.approx(want, abs=1e-10)


def test_random_table_invariants():
    rng = np.random.default_rng(89)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        est = icc(offset_table(rng, n))
        assert est.icc_2_1_low <= est.icc_2_1 <= est.icc_2_1_high
        assert est.icc_2_1 <= 1.0 and est.icc_3_1 <= 1.0
        # session effects only lower agreement relative to consistency
        assert est.icc_2_1 <= est.icc_3_1 + 1e-12


@st.composite
def icc_tables(draw):
    """Score pairs of 3 to 30 subjects whose second session is free, a
    copy of the first, or the first shifted by one offset."""
    n = draw(st.integers(3, 30))
    score = st.floats(-1e3, 1e3, allow_subnormal=False)
    x1 = np.array(draw(st.lists(score, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["free", "identical", "offset"]))
    if kind == "free":
        x2 = np.array(draw(st.lists(score, min_size=n, max_size=n)))
    elif kind == "identical":
        x2 = x1.copy()
    else:
        x2 = x1 + draw(score)
    return x1, x2


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(icc_tables())
@example((np.array([1.0, 4.0, 2.0]), np.array([1.0, 4.0, 2.0])))
@example((np.arange(1.0, 7.0), np.arange(1.0, 7.0) + 10.0))
@example((np.array([9.0, 10.5, 6.0]), np.array([10.0, 11.0, 7.5])))
def test_one_table_matches_the_two_calls_bit_for_bit(table):
    x1, x2 = table
    random = two_call_icc(x1, x2, "icc_2_1")
    fixed = two_call_icc(x1, x2, "icc_3_1")
    sample = make_sample(x1, x2)
    if random[3]:
        with pytest.raises(DegenerateSampleError):
            icc(sample)
        return
    assert _bits(astuple(icc(sample))) == _bits(random[:3] + fixed[:1])


def test_f_quantile_matches_scipy():
    for p in (0.5, 0.9, 0.975, 0.995):
        for d1, d2 in ((1, 1), (2, 8), (5, 5), (3.7, 12.2), (19, 1), (40, 60)):
            want = float(scipy.stats.f.ppf(p, d1, d2))
            assert _f_quantile(p, d1, d2) == pytest.approx(want, rel=1e-10)


def test_needs_three_subjects():
    with pytest.raises(DegenerateSampleError):
        icc(make_sample([1.0, 2.0], [1.0, 2.0]))
