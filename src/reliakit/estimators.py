"""Statistical estimators: correlation, mutual information, nonlinear
reliability, and intraclass correlation.

The headline quantity is the nonlinear reliability difference

    nlr_delta = I_KSG(x1; x2) - I_Gauss(rho)

where I_KSG is the Kraskov/Stoegbauer/Grassberger k-nearest-neighbour
estimator (variant 1; Kraskov et al. 2004, Phys Rev E 69, 066138) and
I_Gauss(rho) = -0.5 * ln(1 - rho^2) is the mutual information a bivariate
Gaussian with the same correlation would carry. Positive values mean the
test-retest dependence exceeds what the linear correlation alone explains.

Implementation notes that matter for reproducibility:

* Margins are standardized (mean 0, sd 1, ddof=1) before any distance is
  computed; constant margins fall back to centering. The estimate then
  depends only on integer neighbour counts, which makes it exactly
  invariant under positive-slope affine maps of either margin as long as
  the map does not perturb the count geometry.
* Marginal counts use the same floating-point subtraction as the joint
  distances (|x_j - x_i| < eps_i, strict). Counting against precomputed
  interval endpoints x_i +- eps_i rounds differently and can flip the
  neighbour that sits exactly at distance eps_i.
* Ties: eps_i = 0 (at least k exact duplicates of point i) yields marginal
  counts of 0 and the digamma formula proceeds. No jitter is ever added.
* Neighbour counts come from one chunked all-pairs path. At k = 4 it was
  faster than a k-d tree query with a per-point strict refilter at every
  measured n up to 3000 (the two draw level near n = 5000, far above the
  cohorts this pipeline sees), and processing _BRUTE_CHUNK rows at a time
  bounds memory to a few (chunk, n) matrices.

ICC follows McGraw & Wong (1996): ICC(2,1) treats sessions as random,
ICC(3,1) as fixed. Confidence bounds use F quantiles at 1 - alpha/2 with
the Satterthwaite degrees of freedom for ICC(2,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betaincinv

from .digamma import digamma_table
from .errors import DegenerateSampleError, EstimatorError
from .ingest import PairedSample

RHO_CLAMP = 1.0 - 1e-12
DEFAULT_K = 4

_BRUTE_CHUNK = 256


class CorrMethod(str, Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"


class IccVariant(str, Enum):
    TWO_WAY_RANDOM = "icc_2_1"
    TWO_WAY_FIXED = "icc_3_1"


@dataclass(frozen=True)
class NlrValue:
    """nlr() result: the difference is the inferential quantity, the ratio
    is descriptive only (undefined when the Gaussian baseline is ~0)."""

    delta: float
    ratio: float | None
    rho: float
    mi_ksg: float
    mi_gauss: float
    k: int
    corr_method: CorrMethod


@dataclass(frozen=True)
class IccEstimate:
    variant: IccVariant
    value: float
    ci_low: float
    ci_high: float
    level: float = 0.95
    degenerate: bool = False


def _check_sample(sample: PairedSample, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    x1 = np.asarray(sample.x1, dtype=np.float64)
    x2 = np.asarray(sample.x2, dtype=np.float64)
    if x1.size < min_n:
        raise DegenerateSampleError(
            f"{sample.measure_id}: need at least {min_n} pairs, have {x1.size}"
        )
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise EstimatorError(f"{sample.measure_id}: non-finite score")
    return x1, x2


def pearson(sample: PairedSample) -> float:
    """Pearson product-moment correlation of the two sessions."""
    x1, x2 = _check_sample(sample, 2)
    d1 = x1 - x1.mean()
    d2 = x2 - x2.mean()
    s1 = float(np.sqrt(np.dot(d1, d1)))
    s2 = float(np.sqrt(np.dot(d2, d2)))
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateSampleError(
            f"{sample.measure_id}: zero variance in at least one session"
        )
    return float(np.dot(d1, d2) / (s1 * s2))


def _midranks(v: np.ndarray) -> np.ndarray:
    """Average ranks, ties sharing the mean of their rank range.

    A run of equal values at sorted positions i..j gets 0.5 * (i + j) + 1.0,
    so every rank is exact."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    edge = np.empty(v.size + 1, dtype=bool)  # where a run of equal values starts or ends
    edge[0] = edge[-1] = True
    np.not_equal(sv[1:], sv[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    start, end = bounds[:-1], bounds[1:] - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def spearman(sample: PairedSample) -> float:
    """Spearman rank correlation: Pearson on midranks."""
    x1, x2 = _check_sample(sample, 2)
    ranked = PairedSample(
        measure_id=sample.measure_id, x1=_midranks(x1), x2=_midranks(x2)
    )
    return pearson(ranked)


def correlation(sample: PairedSample, method: CorrMethod) -> float:
    method = CorrMethod(method)
    if method is CorrMethod.PEARSON:
        return pearson(sample)
    return spearman(sample)


def gaussian_mi(rho: float) -> float:
    """MI of a bivariate Gaussian with correlation rho, in nats.

    Strict contract: requires |rho| < 1. Callers that may sit on the
    boundary clamp first (see nlr()).
    """
    rho = float(rho)
    if not math.isfinite(rho) or abs(rho) >= 1.0:
        raise EstimatorError(f"gaussian_mi requires |rho| < 1, got {rho!r}")
    return -0.5 * math.log1p(-(rho * rho))


def _standardize(v: np.ndarray) -> np.ndarray:
    s = v.std(ddof=1)
    c = v - v.mean()
    return c / s if s > 0 else c


def _ksg_counts_brute(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    n = x.size
    nx = np.empty(n, dtype=np.int64)
    ny = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BRUTE_CHUNK):
        end = min(start + _BRUTE_CHUNK, n)
        dx = np.abs(x[start:end, None] - x[None, :])
        dy = np.abs(y[start:end, None] - y[None, :])
        dj = np.maximum(dx, dy)
        dj[np.arange(end - start), np.arange(start, end)] = np.inf
        eps = np.partition(dj, k - 1, axis=1)[:, k - 1]
        has_ball = eps > 0
        # strict inequality; the subtraction in dx/dy is the same one used
        # for eps, so boundary neighbours compare with equal bits
        nx[start:end] = (dx < eps[:, None]).sum(axis=1) - has_ball
        ny[start:end] = (dy < eps[:, None]).sum(axis=1) - has_ball
    return nx, ny


def ksg_mi(sample: PairedSample, k: int = DEFAULT_K) -> float:
    """KSG variant-1 mutual information estimate, in nats.

    psi(k) - mean_i[psi(nx_i + 1) + psi(ny_i + 1)] + psi(n), with eps_i the
    distance to the k-th joint neighbour in the max norm and nx_i/ny_i the
    marginal neighbours strictly inside eps_i. Can be negative at finite n;
    that bias is exactly what nlr_delta is designed to carry.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise EstimatorError(f"k must be a positive integer, got {k!r}")
    x1, x2 = _check_sample(sample, k + 1)
    n = x1.size
    x = _standardize(x1)
    y = _standardize(x2)
    nx, ny = _ksg_counts_brute(x, y, k)
    t = digamma_table(n)
    return float(t[k] - np.mean(t[nx + 1] + t[ny + 1]) + t[n])


def nlr(
    sample: PairedSample,
    k: int = DEFAULT_K,
    corr_method: CorrMethod = CorrMethod.PEARSON,
) -> NlrValue:
    """Nonlinear reliability: KSG MI minus the Gaussian baseline.

    The sample correlation is reported as computed; only the baseline sees
    the clamp to +-(1 - 1e-12), so a perfectly collinear sample yields a
    large finite baseline instead of a domain error.
    """
    corr_method = CorrMethod(corr_method)
    rho = correlation(sample, corr_method)
    clamped = max(-RHO_CLAMP, min(RHO_CLAMP, rho))
    mi_gauss = gaussian_mi(clamped)
    mi_ksg = ksg_mi(sample, k=k)
    ratio = mi_ksg / mi_gauss if mi_gauss > 0.0 else None
    return NlrValue(
        delta=mi_ksg - mi_gauss,
        ratio=ratio,
        rho=rho,
        mi_ksg=mi_ksg,
        mi_gauss=mi_gauss,
        k=k,
        corr_method=corr_method,
    )


def _f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F(d1, d2) distribution via the inverse regularized
    incomplete beta function. Cross-checked against scipy.stats.f.ppf in
    the test suite; kept here so the hot path avoids scipy.stats dispatch."""
    y = float(betaincinv(d1 / 2.0, d2 / 2.0, p))
    if y >= 1.0:
        return math.inf
    return d2 * y / (d1 * (1.0 - y))


def icc(sample: PairedSample, variant: IccVariant | str, level: float = 0.95) -> IccEstimate:
    """Single-rater intraclass correlation for the two-session design.

    Two-way ANOVA decomposition with subjects as rows and sessions as the
    m = 2 columns. Degenerate tables (zero between-subject variance) are
    reported as value 0 with the degenerate flag rather than a negative
    artifact of the ratio.
    """
    variant = IccVariant(variant)
    x1, x2 = _check_sample(sample, 3)
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

    if msr == 0.0:
        return IccEstimate(variant, 0.0, 0.0, 0.0, level=level, degenerate=True)

    alpha = 1.0 - level
    q = 1.0 - alpha / 2.0

    if variant is IccVariant.TWO_WAY_FIXED:
        if mse == 0.0:
            return IccEstimate(variant, 1.0, 1.0, 1.0, level=level)
        value = (msr - mse) / (msr + (m - 1) * mse)
        f0 = msr / mse
        fl = f0 / _f_quantile(q, n - 1, (n - 1) * (m - 1))
        fu = f0 * _f_quantile(q, (n - 1) * (m - 1), n - 1)
        low = (fl - 1.0) / (fl + m - 1.0)
        high = (fu - 1.0) / (fu + m - 1.0)
        return IccEstimate(variant, value, low, high, level=level)

    if mse == 0.0 and msc == 0.0:
        return IccEstimate(variant, 1.0, 1.0, 1.0, level=level)
    value = (msr - mse) / (msr + (m - 1) * mse + (m / n) * (msc - mse))
    if mse == 0.0:
        # session-offset-only residual: Satterthwaite df collapses to m - 1
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
    low = (
        n * (msr - fu * mse)
        / (fu * (m * msc + (m * n - m - n) * mse) + n * msr)
    )
    high = (
        n * (fl * msr - mse)
        / (m * msc + (m * n - m - n) * mse + n * fl * msr)
    )
    return IccEstimate(variant, value, low, high, level=level)
