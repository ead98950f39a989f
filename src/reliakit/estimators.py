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
* Neighbour counts of a row of n <= W = _WINDOW_GROUP + 2 * _WINDOW_MARGIN
  (112) points come from one blocked all-pairs path, _ksg_counts_brute.
  A wider row finds eps in sorted windows. Each group of _WINDOW_GROUP
  consecutive points of the row sorted by x meets only the W sorted
  positions [a, a + W) around it: the k-th smallest max-norm distance
  there is a candidate eps, never below the true one. Rounding a
  subtraction is monotone, so when the two points just outside the window,
  a - 1 and a + W, lie at least eps away in x, every point outside does
  too, and eps is the all-pairs one, bit for bit. A point that fails the
  check (5-8% of the points of the 600-subject bootstrap and jackknife
  rows of the large_n benchmark) gets eps from its full row with the
  all-pairs arithmetic. By the same monotonicity, the points within eps of
  a point along a margin form one run of that margin's sorted row, so nx
  and ny come from binary searches, the same log2(n) steps for every
  point, with the all-pairs subtraction and strict comparison (_prefixes;
  a -inf and a +inf sentinel around each sorted row stand for its ends).
  So only the fallback's share of the work depends on the data. At n = 600
  a count call takes about 0.3 of the all-pairs time; at n near W windows
  gain nothing, so narrower rows (and k >= W) stay all-pairs.
* The n leave-one-out samples of the jackknife (nlr_deletion_terms) take
  eps and the counts from the observed sample, examined once: each point's
  K = max(ks) + _LOO_MARGIN nearest other points (its candidates) in order
  of distance d_(1) <= ... <= d_(K), and bound, its (K + 1)-th smallest
  distance; and at each k its k-th nearest, star, and its two prefix
  lengths along each margin's sorted order at eps = d_k. A deletion row is
  the observed sample rescaled by r = sd_full / sd_row in each margin (the
  shift cancels in a difference), so each of its all-pairs distances lies
  within tau of r_min * d and r_max * d, the observed distance d rescaled
  by the smaller and the larger of the two margins' ratios. tau = 64 *
  2**-52 * (max|z_row| + max|z_full|) * max(1, r_max) covers the rounding
  of both standardizations, some ten times over.
  Certificate: the deleted point is not a candidate, no margin of the row
  is constant, d_(k-1) < d_k < d_(k+1), r_max * d_(k-1) + tau < r_min *
  d_k - tau (no such test at k = 1) and r_max * d_k + tau < r_min *
  d_(k+1) - tau. A test compares two deletion-row distances, each only
  known to within tau of its rescaled observed value: the left side bounds
  the nearer one from above, the right side the farther one from below,
  so a tau on each side keeps them apart. Where all hold, the k - 1
  points nearer than star stay nearer, every other point stays farther,
  and eps is star's distance in the deletion row with the all-pairs
  arithmetic, bit for bit. Points whose observed gaps are not strict (ties)
  skip the certificate. A point it does not cover (3-4% of the points of
  Gaussian data at n = 600) takes the k-th smallest of the all-pairs
  distances to its candidates other than the deleted point; where that is
  at most r_min * bound - tau, no other point can come closer and it is the
  all-pairs eps. A point that fails this check too, and every point of a
  deletion with a constant margin, gets eps from its full deletion row;
  eps = 0 needs no check.
  nx and ny come from the prefix searches above, each deletion row sorted
  by the observed order less the deleted point, as standardizing is
  monotone. Each prefix length starts from the observed one, less one
  where the deleted point sorts inside it, and is kept where the two
  sorted points at its edge confirm it with the all-pairs subtraction and
  comparison; only the lengths they refute (about 2% at n = 600) are
  searched. nlr_deletion_terms takes this path at a k where the deletion
  rows would be counted in sorted windows (n - 1 > W and k < W). At n =
  600, k = 4 the jackknife takes about 0.4 of the time of a candidate sort
  and full binary searches for every point, about 0.15 of counting the
  deletion rows in windows. Narrower deletion rows are counted all pairs:
  there a candidate path took 3.9, 2.6 and 1.2 times as long at n = 12, 23
  and 56, though 0.52 times at n = 100 (k = 4, Gaussian data, 2 CPUs), a
  range no benchmark workload measures.
* Every stage works on rows: the (m, n) arrays hold m samples of n pairs
  (bootstrap replicates, jackknife deletions, or one observed sample), and
  ranks, standardization, correlation, neighbour counts and the digamma
  mean run along axis 1. The scalar pearson, spearman and ksg_mi are
  one-row calls into the same kernels, so a sample gets the same bits
  alone or in a batch: the engine's point estimate ksg_mi(s, k) -
  clamped_gaussian_mi(correlation(s, method)) is nlr_delta_rows of s as
  a row of any block. Each row is also reduced exactly as a 1-d array
  would be, so batching leaves every float of a 1-d evaluation intact:
  mean and std(ddof=1) run along the last axis of C-contiguous arrays, and
  np.vecdot runs the same BLAS dot as 1-d np.dot (an elementwise product
  summed along axis 1, or einsum, rounds differently). The Gaussian
  baseline stays the scalar math.log1p, one list comprehension over the
  clamped rows (a vectorized np.log1p differs in the last bit).
* nlr_deletion_terms evaluates both terms of that point on the n
  leave-one-out samples for several k and correlation methods in one
  pass, each block of deletion rows built and standardized once for all
  of them, so a caller that shares them across specifications (the
  multiverse engine) gets the bits each specification would get alone.
* The neighbour-count kernels take their distance matrices in blocks of
  about _BLOCK_ELEMENTS elements, whatever n and the number of samples:
  many whole samples per block when n is small, a few query rows of one
  sample or a few sorted windows when n is large. A block's few distance
  matrices stay in cache and memory stays bounded; a block of whole
  samples pays numpy's per-call cost once for all of them. Counts are
  integers from the same float operations in any blocking, so the block
  size never changes a bit.
  The block's distance and mask buffers are allocated once per call and
  refilled in place by every block (out= ufuncs, an in-place partition);
  they are local to the call, so no state is shared between calls or
  between pool workers.

ICC follows McGraw & Wong (1996): ICC(2,1) treats sessions as random,
ICC(3,1) as fixed. Both come from one two-way ANOVA table per sample.
ICC(2,1) carries a 95% interval from F quantiles at 1 - alpha/2 with the
Satterthwaite degrees of freedom; ICC(3,1) is a point value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .digamma import digamma_table
from .errors import DegenerateSampleError, EstimatorError
from .ingest import PairedSample
from .special import betaincinv

RHO_CLAMP = 1.0 - 1e-12
DEFAULT_K = 4

_BLOCK_ELEMENTS = 1 << 15  # distance-matrix elements per count block
# Sorted-window counts: a window of _WINDOW_GROUP query positions and
# _WINDOW_MARGIN positions on each side. On the 600-subject large_n run
# (B = 200, 2 CPUs; least CPU time of 4 in-process runs, mean over 3
# seeds) 16 and 48 took 0.75 s, with 6.7% of the points falling back,
# against 0.74 s for 32 and 48, 0.69 s for 8 and 48 (13% apart from seed
# to seed), 0.83 s for 16 and 32 (19% falling back), and 0.85 s and 0.87 s
# for 16 and 64 or 80 (3.1% and 1.9%).
_WINDOW_GROUP = 16
_WINDOW_MARGIN = 48
# Leave-one-out eps: each point's max(ks) + _LOO_MARGIN nearest other
# points of the observed sample are its candidates. Chosen when every point
# took the candidate sort; jackknife at n = 600,
# k = 4 (2 CPUs, median CPU time of 3): on Gaussian data no point falls back
# and margins 3, 6, 8 and 12 took 0.16, 0.17, 0.19 and 0.26 s (counting the
# deletion rows: 0.59 s); on accuracy scores of 20 binomial trials 41%, 13%,
# 5.9% and 2.0% of the points fell back and they took 0.64, 0.32, 0.24 and
# 0.23 s (rows: 0.48 s), and of 10 trials 8.5%, 5.5% and 3.5% at 6, 8 and
# 10, in 0.37, 0.33 and 0.30 s (rows: 0.65 s).
_LOO_MARGIN = 8
# rounding allowance of the rescaling check, per unit of max|z| over the
# deletion row and the observed sample, times max(1, sd ratio)
_LOO_ROUNDING = 64 * 2.0**-52


class CorrMethod(str, Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"


@dataclass(frozen=True)
class IccEstimate:
    """ICC(2,1) with its 95% interval and ICC(3,1), named as the columns
    of the results they fill."""

    icc_2_1: float
    icc_2_1_low: float
    icc_2_1_high: float
    icc_3_1: float


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


def _check_k(k: int) -> int:
    """k as a Python int: a positive int or numpy integer, never a bool or
    a float."""
    if not isinstance(k, bool):
        try:
            value = operator.index(k)
        except TypeError:
            pass
        else:
            if value >= 1:
                return value
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
    boundary clamp first (clamped_gaussian_mi).
    """
    rho = float(rho)
    if not math.isfinite(rho) or abs(rho) >= 1.0:
        raise EstimatorError(f"gaussian_mi requires |rho| < 1, got {rho!r}")
    return -0.5 * math.log1p(-(rho * rho))


def clamped_gaussian_mi(rho: float) -> float:
    """The Gaussian baseline of nlr_delta: gaussian_mi of rho clamped to
    +-RHO_CLAMP, so that a perfectly collinear sample gets a large finite
    baseline instead of a domain error."""
    return gaussian_mi(max(-RHO_CLAMP, min(RHO_CLAMP, rho)))


def _gaussian_mi_rows(rho: np.ndarray) -> np.ndarray:
    """clamped_gaussian_mi of each element, NaN for NaN: the same scalar
    math.log1p, in one list comprehension."""
    clamped = np.clip(rho, -RHO_CLAMP, RHO_CLAMP).tolist()
    return np.array([-0.5 * math.log1p(-(c * c)) for c in clamped], dtype=np.float64)


def _standardize_sd(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row to mean 0, sd 1 (ddof=1), and the sd of each row (kept as a
    length-1 last axis); a constant row, sd 0, is only centered."""
    s = v.std(axis=-1, ddof=1, keepdims=True)
    c = v - v.mean(axis=-1, keepdims=True)
    return np.divide(c, s, out=c, where=s > 0), s


def _standardize(v: np.ndarray) -> np.ndarray:
    return _standardize_sd(v)[0]


def _ksg_counts_brute(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Marginal neighbour counts (nx, ny) of every point of each row sample
    of the (m, n) arrays x and y."""
    m, n = x.shape
    nx = np.empty((m, n), dtype=np.int64)
    ny = np.empty((m, n), dtype=np.int64)
    rows = max(1, min(n, _BLOCK_ELEMENTS // n))  # query points per sample and block
    samples = max(1, _BLOCK_ELEMENTS // (n * n))  # samples per block; 1 unless rows == n
    shape = (min(samples, m), rows, n)
    dx_buf, dy_buf, dj_buf = np.empty(shape), np.empty(shape), np.empty(shape)
    below_buf = np.empty(shape, dtype=bool)
    for s, i in product(range(0, m, samples), range(0, n, rows)):
        xs, ys = x[s : s + samples], y[s : s + samples]
        stop = min(i + rows, n)
        block = (slice(0, xs.shape[0]), slice(0, stop - i))
        dx, dy, dj, below = dx_buf[block], dy_buf[block], dj_buf[block], below_buf[block]
        np.abs(np.subtract(xs[:, i:stop, None], xs[:, None, :], out=dx), out=dx)
        np.abs(np.subtract(ys[:, i:stop, None], ys[:, None, :], out=dy), out=dy)
        np.maximum(dx, dy, out=dj)
        dj.partition(k, axis=2)  # past each point's own distance, 0
        eps = dj[:, :, k, None]
        has_ball = eps[:, :, 0] > 0
        # strict inequality; the subtraction in dx/dy is the same one used
        # for eps, so boundary neighbours compare with equal bits
        nx[s : s + samples, i:stop] = np.less(dx, eps, out=below).sum(axis=2) - has_ball
        ny[s : s + samples, i:stop] = np.less(dy, eps, out=below).sum(axis=2) - has_ball
    return nx, ny


def _ksg_eps_points(x: np.ndarray, y: np.ndarray, k: int, row: np.ndarray, point: np.ndarray) -> np.ndarray:
    """eps of the points x[row, point], each against its full row, with the
    arithmetic of _ksg_counts_brute."""
    n = x.shape[1]
    eps = np.empty(row.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    shape = (min(step, row.size), n)
    dx_buf, dj_buf = np.empty(shape), np.empty(shape)
    for s in range(0, row.size, step):
        r, p = row[s : s + step], point[s : s + step]
        dx, dj = dx_buf[: r.size], dj_buf[: r.size]
        np.abs(np.subtract(x[r, p, None], x[r], out=dx), out=dx)
        np.abs(np.subtract(y[r, p, None], y[r], out=dj), out=dj)
        np.maximum(dx, dj, out=dj)
        dj.partition(k, axis=1)  # past the point's own distance, 0
        eps[s : s + step] = dj[:, k]
    return eps


def _window_eps(s: np.ndarray, t: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """eps of every position of the (m, n) rows s, each sorted ascending,
    from sorted windows; t is the other margin in the same order.

    Each group of _WINDOW_GROUP consecutive positions is compared with the
    W = _WINDOW_GROUP + 2 * _WINDOW_MARGIN positions [a, a + W) around it,
    and eps of a position is the k-th smallest max-norm distance within its
    window. Returns eps and the check: both points just outside the window,
    a - 1 and a + W, lie at least eps away along s. Rounding a subtraction
    is monotone, so where the check holds no point outside the window is
    within eps, and eps is its all-pairs value, bit for bit."""
    m, n = s.shape
    width = _WINDOW_GROUP + 2 * _WINDOW_MARGIN
    groups = -(-n // _WINDOW_GROUP)
    # query positions of each group; the last group repeats position n - 1
    query = np.minimum(np.arange(groups * _WINDOW_GROUP), n - 1).reshape(groups, -1)
    first = np.clip(query[:, 0] - _WINDOW_MARGIN, 0, n - width)
    # a window at the row's edge checks against the -inf or +inf pad
    pad = np.full((m, 1), np.inf)
    edged = sliding_window_view(np.concatenate([-pad, s, pad], axis=1), width + 2, axis=1)
    t_win = sliding_window_view(t, width, axis=1)
    total = m * groups
    eps = np.empty((total, _WINDOW_GROUP))
    ok = np.empty((total, _WINDOW_GROUP), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // (_WINDOW_GROUP * (width + 2)))  # windows per block
    shape = (min(step, total), _WINDOW_GROUP, width)
    ds_buf, dj_buf = np.empty(shape[:2] + (width + 2,)), np.empty(shape)
    for j in range(0, total, step):
        stop = min(j + step, total)
        r, g = np.divmod(np.arange(j, stop), groups)
        ds, dj = ds_buf[: stop - j], dj_buf[: stop - j]
        np.abs(np.subtract(s[r[:, None], query[g], None], edged[r, first[g]][:, None, :], out=ds), out=ds)
        np.abs(np.subtract(t[r[:, None], query[g], None], t_win[r, first[g]][:, None, :], out=dj), out=dj)
        np.maximum(ds[:, :, 1:-1], dj, out=dj)
        dj.partition(k, axis=2)  # past the query's own distance, 0
        e = dj[:, :, k]
        eps[j:stop] = e
        ok[j:stop] = (ds[:, :, 0] >= e) & (ds[:, :, -1] >= e)
    return eps.reshape(m, -1)[:, :n], ok.reshape(m, -1)[:, :n]


def _search(flat: np.ndarray, first: np.ndarray, n: int, s: np.ndarray, bound: np.ndarray, within) -> np.ndarray:
    """Length of the prefix of sorted points j with within(fl(s_j - s_i),
    bound_i), for every entry i of s: flat holds sorted rows of n points end
    to end, each between a -inf and a +inf sentinel, and first the flat
    index of each entry's row's -inf. A binary search, the same log2(n)
    steps for every entry."""
    length = np.zeros(s.shape, dtype=np.intp)
    probe, d, passes = np.empty(s.shape, dtype=np.intp), np.empty(s.shape), np.empty(s.shape, dtype=bool)
    step = 1 << (n.bit_length() - 1)
    while step:
        # does the sorted point at length + step - 1 pass? Past the row's
        # end the +inf sentinel fails
        np.minimum(np.add(length, step, out=probe), n + 1, out=probe)
        np.subtract(np.take(flat, np.add(probe, first, out=probe), out=d), s, out=d)
        length += np.multiply(within(d, bound, out=passes), step, out=probe)
        step >>= 1
    return length


def _prefixes(s: np.ndarray, order: np.ndarray, eps: np.ndarray, guess=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of two prefixes of each (m, n) row of s sorted by order,
    for every point i of the row: of the points j with fl(s_j - s_i) <
    eps_i, and of those with fl(s_j - s_i) <= -eps_i.

    Rounding a subtraction is monotone, so fl(s_j - s_i) never decreases
    along the sorted row and both sets are prefixes of it. A length in
    guess is kept where the sorted points on its two edges confirm it (the
    one before it passes, the one at it fails), with the same subtraction
    and comparison; every other length comes from a binary search
    (_search). A -inf before each sorted row and a +inf after it stand for
    the edges past its ends: fl(-inf - s_i) passes both tests for any eps_i,
    and fl(+inf - s_i) fails both."""
    m, n = s.shape
    padded = np.empty((m, n + 2))
    padded[:, 0], padded[:, -1] = -np.inf, np.inf
    padded[:, 1:-1] = np.take(s, order + (np.arange(m) * n)[:, None])
    flat = padded.ravel()
    first = (np.arange(m) * (n + 2))[:, None]
    lengths = []
    for within, bound, length in zip((np.less, np.less_equal), (eps, -eps), guess):
        if length is None:
            lengths.append(_search(flat, first, n, s, bound, within))
            continue
        edge = np.add(length, first)  # flat index of the sorted point before it
        d = np.subtract(np.take(flat, edge), s)
        good = within(d, bound)
        np.subtract(np.take(flat, np.add(edge, 1, out=edge), out=d), s, out=d)
        good &= ~within(d, bound)
        miss = np.flatnonzero(~good)
        length.reshape(-1)[miss] = _search(
            flat, first[miss // n, 0], n, np.take(s, miss), np.take(bound, miss), within
        )
        lengths.append(length)
    return lengths[0], lengths[1]


def _strip_counts(s: np.ndarray, order: np.ndarray, eps: np.ndarray, guess=(None, None)) -> np.ndarray:
    """Count, for every point i of each (m, n) row of s, the other points j
    with |fl(s_i - s_j)| < eps_i, as _ksg_counts_brute counts them: the
    difference of the two prefix lengths of _prefixes (each started from
    guess where one is given), less the point itself (none when eps_i =
    0)."""
    inside, below = _prefixes(s, order, eps, guess)
    inside -= below
    return np.maximum(inside, 0, out=inside) - (eps > 0)


def _certified_counts(
    x: np.ndarray, y: np.ndarray, k: int, ox: np.ndarray, oy: np.ndarray, eps: np.ndarray, ok: np.ndarray,
    guess_x=(None, None), guess_y=(None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Counts (nx, ny) of every point of the (m, n) rows x and y: eps is
    taken where its check ok holds, and a point that fails it gets eps from
    its full row; both counts come from the prefixes of the rows sorted by
    ox and oy (_strip_counts, started from guess_x and guess_y)."""
    row, point = np.nonzero(~ok)
    eps[row, point] = _ksg_eps_points(x, y, k, row, point)
    return _strip_counts(x, ox, eps, guess_x), _strip_counts(y, oy, eps, guess_y)


def _ksg_counts_window(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_ksg_counts_brute's counts for rows of more than W points and k < W,
    eps from windows over each row sorted by x (_certified_counts)."""

    def unsort(order, rows):
        out = np.empty(rows.shape, dtype=rows.dtype)
        np.put_along_axis(out, order, rows, 1)
        return out

    ox = np.argsort(x, axis=1, kind="stable")
    eps, ok = (unsort(ox, a) for a in _window_eps(np.take_along_axis(x, ox, 1), np.take_along_axis(y, ox, 1), k))
    return _certified_counts(x, y, k, ox, np.argsort(y, axis=1, kind="stable"), eps, ok)


def _windowed(n: int, k: int) -> bool:
    """Whether _ksg_counts counts rows of n points at k in sorted windows."""
    width = _WINDOW_GROUP + 2 * _WINDOW_MARGIN
    return n > width and k < width


def _ksg_counts(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Marginal neighbour counts (nx, ny) of every point of each row sample:
    all pairs for rows no wider than one window, sorted windows above."""
    if not _windowed(x.shape[1], k):
        return _ksg_counts_brute(x, y, k)
    return _ksg_counts_window(x, y, k)


def _ksg_term(t: np.ndarray, k: int, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """The KSG estimate of each row from its counts; t is digamma_table(n)
    or longer, for rows of n points."""
    return t[k] - np.mean(t[nx + 1] + t[ny + 1], axis=-1) + t[nx.shape[-1]]


def _ksg_rows(x1: np.ndarray, x2: np.ndarray, ks) -> list[np.ndarray]:
    """KSG estimate of each row at each k in ks; the rows are standardized
    once for all k."""
    z1, z2 = _standardize(x1), _standardize(x2)
    t = digamma_table(x1.shape[-1])
    return [_ksg_term(t, k, *_ksg_counts(z1, z2, k)) for k in ks]


def _nearest_others(z1: np.ndarray, z2: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size nearest other points of every point of the standardized
    sample (z1, z2), in the max norm with the all-pairs arithmetic: an
    (n, size) index array ordered by distance, their distances, and bound,
    each point's (size + 1)-th smallest distance, below which no other
    point lies (inf where size = n - 1)."""
    n = z1.size
    near = np.empty((n, size), dtype=np.intp)
    dist = np.empty((n, size))
    bound = np.empty(n)
    rows = max(1, _BLOCK_ELEMENTS // n)
    shape = (min(rows, n), n)
    d1_buf, d_buf = np.empty(shape), np.empty(shape)
    for i in range(0, n, rows):
        stop = min(i + rows, n)
        d1, d = d1_buf[: stop - i], d_buf[: stop - i]
        np.abs(np.subtract(z1[i:stop, None], z1, out=d1), out=d1)
        np.abs(np.subtract(z2[i:stop, None], z2, out=d), out=d)
        np.maximum(d1, d, out=d)
        own = np.arange(stop - i)
        d[own, i + own] = np.inf
        order = np.argpartition(d, size, axis=1)
        bound[i:stop] = d[own, order[:, size]]
        dist[i:stop] = np.take_along_axis(d, order[:, :size], 1)
        by_distance = np.argsort(dist[i:stop], axis=1, kind="stable")
        near[i:stop] = np.take_along_axis(order, by_distance, 1)
        dist[i:stop] = np.take_along_axis(dist[i:stop], by_distance, 1)
    return near, dist, bound


class _Star(NamedTuple):
    """What the observed sample says of each point's eps at one k. points
    are the points whose sorted candidate distances pass the strict gap test
    d_(k-1) < d_k < d_(k+1) (no d_(k-1) at k = 1, read as -inf); star, below,
    at and above hold, for each of them, its k-th nearest other point and
    those three distances. prefixes1 and prefixes2 hold every point's two
    prefix lengths of _prefixes at eps = d_k, in each margin's sorted
    order."""

    points: np.ndarray
    star: np.ndarray
    below: np.ndarray
    at: np.ndarray
    above: np.ndarray
    prefixes1: tuple[np.ndarray, np.ndarray]
    prefixes2: tuple[np.ndarray, np.ndarray]


def _observed_star(z1, z2, sorted1, sorted2, near, dist, k) -> _Star:
    """_Star of the standardized observed sample (z1, z2) at k, from its
    candidates near and their distances dist, both ordered by distance,
    and the orders sorted1 and sorted2 that sort each margin."""
    below = dist[:, k - 2] if k > 1 else np.full(z1.size, -np.inf)
    at, above = dist[:, k - 1], dist[:, k]
    points = np.flatnonzero((below < at) & (at < above))
    return _Star(
        points=points,
        star=near[points, k - 1],
        below=below[points],
        at=at[points],
        above=above[points],
        prefixes1=tuple(p[0] for p in _prefixes(z1[None], sorted1[None], at[None])),
        prefixes2=tuple(p[0] for p in _prefixes(z2[None], sorted2[None], at[None])),
    )


def _near_eps(
    z1: np.ndarray, z2: np.ndarray, full: np.ndarray, gone: np.ndarray, near: np.ndarray, ks, at: np.ndarray
) -> np.ndarray:
    """eps at each k in ks of the positions at (flat indices) of the
    (m, n - 1) deletion rows z1 and z2, among the point's observed nearest
    others (near) other than its row's deleted point in gone; full maps each
    position to its observed point. A (len(ks), at.size) array, inf where
    fewer than k of them remain."""
    w = z1.shape[1]
    size = near.shape[1]
    eps = np.empty((len(ks), at.size))
    pick = [k - 1 for k in ks]
    flat1, flat2 = z1.ravel(), z2.ravel()
    step = max(1, _BLOCK_ELEMENTS // size)  # entries per gather
    shape = (min(step, at.size), size)
    c_buf, d1_buf, d_buf = np.empty(shape, dtype=np.intp), np.empty(shape), np.empty(shape)
    dead_buf, after_buf = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for a in range(0, at.size, step):
        q = at[a : a + step]
        c, d1, d, dead, after = (buf[: q.size] for buf in (c_buf, d1_buf, d_buf, dead_buf, after_buf))
        row = q // w
        np.take(near, np.take(full, q), axis=0, out=c)
        g = np.take(gone, row)[:, None]
        np.equal(c, g, out=dead)
        c -= np.greater(c, g, out=after)  # observed point to its deletion-row position
        np.minimum(c, w - 1, out=c)  # the deleted point itself, masked below
        c += (row * w)[:, None]
        q = q[:, None]
        np.abs(np.subtract(np.take(flat1, q), np.take(flat1, c, out=d1), out=d1), out=d1)
        np.abs(np.subtract(np.take(flat2, q), np.take(flat2, c, out=d), out=d), out=d)
        np.maximum(d1, d, out=d)
        np.copyto(d, np.inf, where=dead)
        d.sort(axis=1)
        eps[:, a : a + step] = d[:, pick].T
    return eps


def _order_without(order: np.ndarray, gone: np.ndarray) -> np.ndarray:
    """The order that sorts the observed sample, less each deleted point in
    gone, as positions of its deletion row: one row per deletion. Standardizing
    is monotone, so it sorts the standardized deletion row too."""
    kept = order != gone[:, None]
    rows = np.broadcast_to(order, kept.shape)[kept].reshape(gone.size, -1)
    return rows - (rows > gone[:, None])


def _guess(prefix: np.ndarray, full: np.ndarray, gone_rank: np.ndarray) -> np.ndarray:
    """A deletion row's prefix lengths from the observed ones: one less
    where the deleted point sorts inside the prefix."""
    length = np.take(prefix, full)
    length -= gone_rank < length
    return length


def _certify(
    o: _Star, r1: np.ndarray, r2: np.ndarray, gone: np.ndarray, low: np.ndarray, high: np.ndarray, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where the certificate holds at one k, for every position of the
    (m, n - 1) deletion rows r1 and r2, and eps there: the point's all-pairs
    distance to its observed k-th nearest. It holds where the point passes
    the observed gap test (o) and the rescaled gaps hold, with low and high
    the smaller and larger margin ratio of each row and slack its rounding
    allowance. Whether the deleted point is a candidate, or a margin
    constant, is left to the caller."""
    m, w = r1.shape
    offset = (np.arange(m) * w)[:, None]
    at = o.points - (o.points > gone[:, None])  # deletion-row positions
    star = o.star - (o.star > gone[:, None])
    np.minimum(star, w - 1, out=star)  # the deleted point itself, not certified
    star += offset
    at += offset
    here = np.minimum(at, m * w - 1)  # the deleted point's entry, dropped below
    distance = np.maximum(
        np.abs(np.take(r1, here) - np.take(r1, star)), np.abs(np.take(r2, here) - np.take(r2, star))
    )
    with np.errstate(invalid="ignore"):
        ok = (high * o.below + slack < low * o.at - slack) & (high * o.at + slack < low * o.above - slack)
    np.copyto(at, m * w, where=o.points == gone[:, None])  # to a spare last entry
    eps, certified = np.empty(m * w + 1), np.zeros(m * w + 1, dtype=bool)
    eps[at], certified[at] = distance, ok
    return certified[:-1].reshape(m, w), eps[:-1].reshape(m, w)


def nlr_deletion_terms(x1: np.ndarray, x2: np.ndarray, ks, corr_methods) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of the point estimate on each of the n leave-one-out
    samples of the 1-d sample (x1, x2): the KSG estimate at each k in ks, a
    (len(ks), n) array, and the Gaussian baseline under each method, a
    (len(corr_methods), n) array. Column j, the sample s without pair j, is
    bitwise ksg_mi(s, k) and clamped_gaussian_mi(correlation(s, method)),
    and NaN where those raise: fewer than k + 1 pairs for a KSG term,
    fewer than 2 pairs or zero variance in a session for a baseline.

    Each block of deletion rows is built and standardized once for every k
    and method. A k whose deletion rows are no wider than a window is
    counted all pairs on them; a wider one takes eps and the counts from
    the observed sample, certified exact against the deletion row (see the
    module docstring).
    """
    ks = tuple(_check_k(k) for k in ks)
    corr_methods = [CorrMethod(method) for method in corr_methods]
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.ndim != 1 or x1.shape != x2.shape:
        raise EstimatorError("nlr_deletion_terms requires two 1-d arrays of equal length")
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise EstimatorError("nlr_deletion_terms requires finite scores")
    n = x1.size
    mi_ksg = np.full((len(ks), n), np.nan)
    mi_gauss = np.full((len(corr_methods), n), np.nan)
    if n < 3:  # a deletion of at most one pair admits no term
        return mi_ksg, mi_gauss
    live = [j for j, k in enumerate(ks) if n >= k + 2]
    windowed = [j for j in live if _windowed(n - 1, ks[j])]
    if windowed:
        near_ks = [ks[j] for j in windowed]
        (z1, s1), (z2, s2) = _standardize_sd(x1), _standardize_sd(x2)
        near, dist, bound = _nearest_others(z1, z2, min(max(near_ks) + _LOO_MARGIN, n - 1))
        reach = max(np.abs(z1).max(), np.abs(z2).max())
        sorted1, sorted2 = np.argsort(x1, kind="stable"), np.argsort(x2, kind="stable")
        rank1, rank2 = np.argsort(sorted1), np.argsort(sorted2)
        stars = {j: _observed_star(z1, z2, sorted1, sorted2, near, dist, ks[j]) for j in windowed}
        # the points whose candidates hold each observed point, by that point
        held = np.argsort(near, axis=None, kind="stable")
        held_point, held_by = near.ravel()[held], held // near.shape[1]
    t = digamma_table(n - 1)
    kept = np.arange(n - 1)
    step = max(1, _BLOCK_ELEMENTS // (n - 1))  # the deletion rows of bootstrap.deletion_blocks
    for start in range(0, n, step):
        gone = np.arange(start, min(start + step, n))
        block = slice(start, start + gone.size)
        full = kept + (kept >= gone[:, None])
        raw1, raw2 = x1[full], x2[full]
        for j, method in enumerate(corr_methods):
            mi_gauss[j, block] = _gaussian_mi_rows(_corr_rows(raw1, raw2, method))
        (r1, sd1), (r2, sd2) = _standardize_sd(raw1), _standardize_sd(raw2)
        for j in live:
            if j not in windowed:
                mi_ksg[j, block] = _ksg_term(t, ks[j], *_ksg_counts_brute(r1, r2, ks[j]))
        if not windowed:
            continue
        reach_row = np.maximum(np.abs(r1), np.abs(r2)).max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio1, ratio2 = s1 / sd1, s2 / sd2
            slack = _LOO_ROUNDING * (reach_row + reach) * np.maximum(1.0, np.maximum(ratio1, ratio2))
        low, high = np.minimum(ratio1, ratio2), np.maximum(ratio1, ratio2)
        # a constant deletion margin is no rescaling of the observed one, and
        # a deleted candidate changes the ranks of the others
        constant = ((sd1 == 0.0) | (sd2 == 0.0))[:, 0]
        intact = np.ones(full.shape, dtype=bool)
        intact[constant] = False
        a, b = np.searchsorted(held_point, (start, block.stop))
        held_row, by = held_point[a:b] - start, held_by[a:b]
        intact[held_row, by - (by > gone[held_row])] = False
        certified, eps = {}, {}
        for j in windowed:
            certified[j], eps[j] = _certify(stars[j], r1, r2, gone, low, high, slack)
            certified[j] &= intact
        # the other points take eps from their candidates, checked against
        # the nearest non-candidate; eps = 0 needs no check
        at = np.flatnonzero(~np.logical_and.reduce([certified[j] for j in windowed]))
        row = at // (n - 1)
        with np.errstate(invalid="ignore"):
            lower = low[row, 0] * bound[np.take(full, at)] - slack[row, 0]
        lower[constant[row]] = -np.inf
        np.maximum(lower, 0.0, out=lower)
        near_eps = _near_eps(r1, r2, full, gone, near, near_ks, at)
        order1, order2 = _order_without(sorted1, gone), _order_without(sorted2, gone)
        gone1, gone2 = rank1[gone][:, None], rank2[gone][:, None]
        for j, candidate in zip(windowed, near_eps):
            ok = certified[j].reshape(-1)
            take = ~ok[at]
            eps[j].reshape(-1)[at[take]] = candidate[take]
            ok[at[take]] = candidate[take] <= lower[take]
            counts = _certified_counts(
                r1, r2, ks[j], order1, order2, eps[j], certified[j],
                tuple(_guess(prefix, full, gone1) for prefix in stars[j].prefixes1),
                tuple(_guess(prefix, full, gone2) for prefix in stars[j].prefixes2),
            )
            mi_ksg[j, block] = _ksg_term(t, ks[j], *counts)
    return mi_ksg, mi_gauss


def ksg_mi(sample: PairedSample, k: int = DEFAULT_K) -> float:
    """KSG variant-1 mutual information estimate, in nats.

    psi(k) - mean_i[psi(nx_i + 1) + psi(ny_i + 1)] + psi(n), with eps_i the
    distance to the k-th joint neighbour in the max norm and nx_i/ny_i the
    marginal neighbours strictly inside eps_i. Can be negative at finite n;
    that bias is exactly what nlr_delta is designed to carry.
    """
    k = _check_k(k)
    x1, x2 = _check_sample(sample, k + 1)
    return float(_ksg_rows(x1[None], x2[None], (k,))[0][0])


def nlr_delta_rows(
    x1: np.ndarray,
    x2: np.ndarray,
    k: int = DEFAULT_K,
    corr_method: CorrMethod = CorrMethod.PEARSON,
) -> np.ndarray:
    """NLR_delta of each row, the bootstrap's statistic.

    x1 and x2 are (m, n) arrays holding m samples of n pairs, one per row.
    Returns the m deltas, bitwise ksg_mi(s, k) -
    clamped_gaussian_mi(correlation(s, corr_method)) of each row s alone,
    with NaN for every row on which those raise: a non-finite score, fewer
    than k + 1 pairs, or zero variance in a session.
    """
    k = _check_k(k)
    corr_method = CorrMethod(corr_method)
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.ndim != 2 or x1.shape != x2.shape:
        raise EstimatorError("nlr_delta_rows requires two (m, n) arrays of equal shape")
    m, n = x1.shape
    delta = np.full(m, np.nan)
    valid = np.isfinite(x1).all(axis=1) & np.isfinite(x2).all(axis=1)
    if n < k + 1 or not valid.any():
        return delta
    if not valid.all():
        x1, x2 = x1[valid], x2[valid]
    delta[valid] = _ksg_rows(x1, x2, (k,))[0] - _gaussian_mi_rows(_corr_rows(x1, x2, corr_method))
    return delta


# the upper F quantile of the ICC's 95% interval: 1 - alpha/2, alpha = 1 - 0.95
_ICC_Q = 1.0 - (1.0 - 0.95) / 2.0


def _f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F(d1, d2) distribution via the inverse regularized
    incomplete beta function. Cross-checked against scipy.stats.f.ppf in
    the test suite; kept here so the hot path avoids scipy.stats dispatch."""
    y = float(betaincinv(d1 / 2.0, d2 / 2.0, p))
    if y >= 1.0:
        return math.inf
    return d2 * y / (d1 * (1.0 - y))


def icc(sample: PairedSample) -> IccEstimate:
    """Single-rater intraclass correlations for the two-session design.

    One two-way ANOVA table, subjects as rows and sessions as the m = 2
    columns, gives ICC(2,1) (sessions random) with its 95% interval and
    ICC(3,1) (sessions fixed) as a point value. A table with no
    between-subject variance admits no ICC and raises
    DegenerateSampleError.
    """
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
        raise DegenerateSampleError(f"{sample.measure_id}: no between-subject variance")
    # msr / msr = 1.0 where mse = 0
    icc_3_1 = (msr - mse) / (msr + (m - 1) * mse)

    if mse == 0.0 and msc == 0.0:
        return IccEstimate(1.0, 1.0, 1.0, icc_3_1)
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
    fu = _f_quantile(_ICC_Q, n - 1, v)
    fl = _f_quantile(_ICC_Q, v, n - 1)
    low = (
        n * (msr - fu * mse)
        / (fu * (m * msc + (m * n - m - n) * mse) + n * msr)
    )
    high = (
        n * (fl * msr - mse)
        / (m * msc + (m * n - m - n) * mse + n * fl * msr)
    )
    return IccEstimate(value, low, high, icc_3_1)
