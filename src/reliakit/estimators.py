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
* Neighbour counts come from one blocked all-pairs path. At k = 4 it was
  faster than a k-d tree query with a per-point strict refilter at every
  measured n up to 3000 (the two draw level near n = 5000, far above the
  cohorts this pipeline sees).
* Every stage works on rows: the (m, n) arrays hold m samples of n pairs
  (bootstrap replicates, jackknife deletions, or one observed sample), and
  ranks, standardization, correlation, neighbour counts and the digamma
  mean run along axis 1. The scalar pearson, spearman, ksg_mi and nlr are
  one-row calls into the same kernels, so a sample gets the same bits
  alone or in a batch. Each row is also reduced exactly as a 1-d array
  would be, so batching leaves every float of a 1-d evaluation intact:
  mean and std(ddof=1) run along the last axis of C-contiguous arrays, and
  np.vecdot runs the same BLAS dot as 1-d np.dot (an elementwise product
  summed along axis 1, or einsum, rounds differently). The Gaussian
  baseline stays a per-row math.log1p.
* The neighbour-count kernel takes its (block, n) distance matrices in
  blocks of about _BLOCK_ELEMENTS elements, whatever n and the number of
  samples: many whole samples per block when n is small, a few query rows
  of one sample when n is large. A block's few distance matrices stay in
  cache and memory stays bounded; a block of whole samples pays numpy's
  per-call cost once for all of them. Counts are integers from the same
  float operations in any blocking, so the block size never changes a bit.

ICC follows McGraw & Wong (1996): ICC(2,1) treats sessions as random,
ICC(3,1) as fixed. Confidence bounds use F quantiles at 1 - alpha/2 with
the Satterthwaite degrees of freedom for ICC(2,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np
from scipy.special import betaincinv

from .digamma import digamma_table
from .errors import DegenerateSampleError, EstimatorError
from .ingest import PairedSample

RHO_CLAMP = 1.0 - 1e-12
DEFAULT_K = 4

_BLOCK_ELEMENTS = 1 << 15  # distance-matrix elements per count block


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


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise EstimatorError(f"k must be a positive integer, got {k!r}")


def _pearson_rows(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair; NaN where a row has zero variance."""
    d1 = x1 - x1.mean(axis=-1, keepdims=True)
    d2 = x2 - x2.mean(axis=-1, keepdims=True)
    s1 = np.sqrt(np.vecdot(d1, d1))
    s2 = np.sqrt(np.vecdot(d2, d2))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.vecdot(d1, d2) / (s1 * s2)
    r[(s1 == 0.0) | (s2 == 0.0)] = np.nan
    return r


def _midranks(v: np.ndarray) -> np.ndarray:
    """Average ranks along the last axis, ties sharing the mean of their
    rank range.

    A run of equal values at sorted positions i..j gets 0.5 * (i + j) + 1.0,
    so every rank is exact."""
    order = np.argsort(v, axis=-1, kind="stable")
    sv = np.take_along_axis(v, order, axis=-1)
    n = v.shape[-1]
    pos = np.arange(n)
    starts = np.ones(v.shape, dtype=bool)  # where a run of equal values starts
    np.not_equal(sv[..., 1:], sv[..., :-1], out=starts[..., 1:])
    ends = np.ones(v.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(v.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)
    return ranks


def _corr_rows(x1: np.ndarray, x2: np.ndarray, method: CorrMethod) -> np.ndarray:
    if method is CorrMethod.SPEARMAN:
        x1, x2 = _midranks(x1), _midranks(x2)
    return _pearson_rows(x1, x2)


def _correlation(sample: PairedSample, method: CorrMethod) -> float:
    x1, x2 = _check_sample(sample, 2)
    r = float(_corr_rows(x1[None], x2[None], method)[0])
    if math.isnan(r):
        raise DegenerateSampleError(
            f"{sample.measure_id}: zero variance in at least one session"
        )
    return r


def pearson(sample: PairedSample) -> float:
    """Pearson product-moment correlation of the two sessions."""
    return _correlation(sample, CorrMethod.PEARSON)


def spearman(sample: PairedSample) -> float:
    """Spearman rank correlation: Pearson on midranks."""
    return _correlation(sample, CorrMethod.SPEARMAN)


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


def _clamped_gaussian_mi(rho: float) -> float:
    return gaussian_mi(max(-RHO_CLAMP, min(RHO_CLAMP, rho)))


def _standardize(v: np.ndarray) -> np.ndarray:
    """Each row to mean 0, sd 1 (ddof=1); a constant row is only centered."""
    s = v.std(axis=-1, ddof=1, keepdims=True)
    c = v - v.mean(axis=-1, keepdims=True)
    return np.divide(c, s, out=c, where=s > 0)


def _ksg_counts_brute(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Marginal neighbour counts (nx, ny) of every point of each row sample
    of the (m, n) arrays x and y."""
    m, n = x.shape
    nx = np.empty((m, n), dtype=np.int64)
    ny = np.empty((m, n), dtype=np.int64)
    rows = max(1, min(n, _BLOCK_ELEMENTS // n))  # query points per sample and block
    samples = max(1, _BLOCK_ELEMENTS // (n * n))  # samples per block; 1 unless rows == n
    for s, i in product(range(0, m, samples), range(0, n, rows)):
        xs, ys = x[s : s + samples], y[s : s + samples]
        stop = min(i + rows, n)
        dx = np.abs(xs[:, i:stop, None] - xs[:, None, :])
        dy = np.abs(ys[:, i:stop, None] - ys[:, None, :])
        dj = np.maximum(dx, dy)
        own = np.arange(stop - i)
        dj[:, own, i + own] = np.inf
        eps = np.partition(dj, k - 1, axis=2)[:, :, k - 1, None]
        has_ball = eps[:, :, 0] > 0
        # strict inequality; the subtraction in dx/dy is the same one used
        # for eps, so boundary neighbours compare with equal bits
        nx[s : s + samples, i:stop] = (dx < eps).sum(axis=2) - has_ball
        ny[s : s + samples, i:stop] = (dy < eps).sum(axis=2) - has_ball
    return nx, ny


def _ksg_rows(x1: np.ndarray, x2: np.ndarray, k: int) -> np.ndarray:
    n = x1.shape[-1]
    nx, ny = _ksg_counts_brute(_standardize(x1), _standardize(x2), k)
    t = digamma_table(n)
    return t[k] - np.mean(t[nx + 1] + t[ny + 1], axis=-1) + t[n]


def ksg_mi(sample: PairedSample, k: int = DEFAULT_K) -> float:
    """KSG variant-1 mutual information estimate, in nats.

    psi(k) - mean_i[psi(nx_i + 1) + psi(ny_i + 1)] + psi(n), with eps_i the
    distance to the k-th joint neighbour in the max norm and nx_i/ny_i the
    marginal neighbours strictly inside eps_i. Can be negative at finite n;
    that bias is exactly what nlr_delta is designed to carry.
    """
    _check_k(k)
    x1, x2 = _check_sample(sample, k + 1)
    return float(_ksg_rows(x1[None], x2[None], k)[0])


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
    mi_gauss = _clamped_gaussian_mi(rho)
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


def nlr_delta_rows(
    x1: np.ndarray,
    x2: np.ndarray,
    k: int = DEFAULT_K,
    corr_method: CorrMethod = CorrMethod.PEARSON,
) -> np.ndarray:
    """Batch form of nlr(...).delta, the bootstrap's statistic.

    x1 and x2 are (m, n) arrays holding m samples of n pairs, one per row.
    Returns the m deltas, bitwise those of nlr() on each row alone, with
    NaN for every row on which nlr() raises: a non-finite score, fewer
    than k + 1 pairs, or zero variance in a session.
    """
    _check_k(k)
    corr_method = CorrMethod(corr_method)
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.ndim != 2 or x1.shape != x2.shape:
        raise EstimatorError("nlr_delta_rows requires two (m, n) arrays of equal shape")
    delta = np.full(x1.shape[0], np.nan)
    valid = np.isfinite(x1).all(axis=1) & np.isfinite(x2).all(axis=1)
    if x1.shape[1] < k + 1 or not valid.any():
        return delta
    if not valid.all():
        x1, x2 = x1[valid], x2[valid]
    rho = _corr_rows(x1, x2, corr_method)
    mi_gauss = [math.nan if math.isnan(r) else _clamped_gaussian_mi(r) for r in rho.tolist()]
    delta[valid] = _ksg_rows(x1, x2, k) - np.array(mi_gauss)
    return delta


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
