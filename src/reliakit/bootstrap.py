"""Subject-level bootstrap with BCa intervals and one-sided p-values.

Resampling draws whole subject pairs with replacement (both sessions travel
together). Intervals follow Efron's bias-corrected-and-accelerated
construction (Efron 1987, JASA 82:171); when the correction is undefined
(all replicates on one side of the point estimate, or zero jackknife
dispersion) the interval falls back to the plain percentile endpoints and
records that it did.

Reproducibility contract: replicate r draws its indices from an RNG seeded
by (stream entropy, r), where the 128-bit stream entropy is derived by
SHA-256 from (base_seed, measure_id, spec_id). Replicates are therefore
bit-identical regardless of execution order, blocking, or worker count.

The statistic is a batch statistic: it maps two (m, n) arrays, m samples of
n pairs one per row, to m values, a non-finite value marking a sample that
admits none. Replicate and jackknife-deletion rows are built and evaluated
a block of about _BLOCK_ELEMENTS scores (at least one row) at a time, so
working memory is set by the block, not by B or the number of deletions,
and the statistic's per-call cost is paid once per block. Blocks change
neither the index streams (replicate r still draws from its own RNG) nor
the values or the drop counts: each row is evaluated on its own, whichever
block it lands in.

The one-sided p-value for H0: statistic <= 0 is the add-one counting
estimate p = (1 + #{replicate <= 0}) / (b_effective + 1). The upstream
literature leaves this construction open; the counting rule is a declared
choice of this package and is always in (0, 1].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import BootstrapFailureError
from .ingest import PairedSample

DEFAULT_B = 5000
DEFAULT_LEVEL = 0.95

_BLOCK_ELEMENTS = 1 << 15  # scores per block of replicate or deletion rows

# (x1_rows, x2_rows) -> one value per row; non-finite marks a degenerate row
Statistic = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BcaParams:
    """Bias correction z0 and acceleration a, recorded even on fallback
    (z0 may be +-inf there; it is finite whenever method == "bca")."""

    z0: float
    a: float


@dataclass(frozen=True)
class BcaInterval:
    ci_low: float
    ci_high: float
    method: str  # "bca" or "percentile_fallback"
    params: BcaParams


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci_low: float
    ci_high: float
    level: float
    method: str
    b_requested: int
    b_effective: int
    p_one_sided: float
    params: BcaParams


def derive_entropy(base_seed: int, measure_id: str, spec_id: str) -> int:
    """128-bit stream entropy for one (measure, specification) cell."""
    material = f"{base_seed}|{measure_id}|{spec_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


def replicate_rng(entropy: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((entropy, r))))


def _blocks(count: int, width: int):
    """(start, stop) ranges of rows, each block about _BLOCK_ELEMENTS scores."""
    step = max(1, _BLOCK_ELEMENTS // max(1, width))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def resample_statistic(
    sample: PairedSample, statistic: Statistic, b: int, entropy: int
) -> tuple[np.ndarray, int]:
    """B replicate values in replicate order; degenerate replicates are
    dropped and counted, not imputed. Returns (replicates, n_dropped)."""
    if sample.n < 2:
        raise BootstrapFailureError(
            f"{sample.measure_id}: resampling needs at least 2 pairs"
        )
    if b < 1:
        raise BootstrapFailureError(f"bootstrap budget must be >= 1, got {b}")
    n = sample.n
    values = np.empty(b, dtype=np.float64)
    for start, stop in _blocks(b, n):
        idx = np.stack(
            [replicate_rng(entropy, r).integers(0, n, size=n) for r in range(start, stop)]
        )
        values[start:stop] = statistic(sample.x1[idx], sample.x2[idx])
    values = values[np.isfinite(values)]
    if not values.size:
        raise BootstrapFailureError(
            f"{sample.measure_id}: all {b} bootstrap replicates were degenerate"
        )
    return values, b - values.size


def jackknife_values(sample: PairedSample, statistic: Statistic) -> np.ndarray:
    """Leave-one-subject-out recomputation; failing deletions are dropped."""
    n = sample.n
    values = np.empty(n, dtype=np.float64)
    kept = np.arange(n - 1)
    for start, stop in _blocks(n, n - 1):
        # row i holds every subject but i, in order
        idx = kept + (kept >= np.arange(start, stop)[:, None])
        values[start:stop] = statistic(sample.x1[idx], sample.x2[idx])
    return values[np.isfinite(values)]


def _percentile(replicates: np.ndarray, alpha: float) -> tuple[float, float]:
    lo, hi = np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return float(lo), float(hi)


def bca_interval(
    replicates: np.ndarray,
    point: float,
    jackknife: np.ndarray,
    alpha: float = 0.05,
) -> BcaInterval:
    """BCa endpoints, or the percentile fallback when the correction is
    undefined. Quantiles use linear interpolation (numpy default),
    declared here as the package-wide convention."""
    replicates = np.asarray(replicates, dtype=np.float64)
    if replicates.size == 0:
        raise BootstrapFailureError("empty replicate array")
    b = replicates.size
    below = int(np.count_nonzero(replicates < point))
    if below == 0:
        z0 = -np.inf
    elif below == b:
        z0 = np.inf
    else:
        z0 = float(ndtri(below / b))

    a = 0.0
    have_accel = False
    if jackknife.size >= 2:
        dev = jackknife.mean() - jackknife
        ss2 = float(np.sum(dev**2))
        if ss2 > 0.0:
            a = float(np.sum(dev**3) / (6.0 * ss2**1.5))
            have_accel = True

    if not np.isfinite(z0) or not have_accel:
        lo, hi = _percentile(replicates, alpha)
        return BcaInterval(lo, hi, "percentile_fallback", BcaParams(z0=float(z0), a=a))

    def adjusted(alpha_target: float) -> float:
        z = float(ndtri(alpha_target))
        num = z0 + z
        denom = 1.0 - a * num
        if denom <= 0.0:
            return np.nan
        return float(ndtr(z0 + num / denom))

    q_lo = adjusted(alpha / 2.0)
    q_hi = adjusted(1.0 - alpha / 2.0)
    if not (np.isfinite(q_lo) and np.isfinite(q_hi) and q_lo < q_hi):
        lo, hi = _percentile(replicates, alpha)
        return BcaInterval(lo, hi, "percentile_fallback", BcaParams(z0=z0, a=a))
    lo, hi = np.quantile(replicates, [q_lo, q_hi], method="linear")
    return BcaInterval(float(lo), float(hi), "bca", BcaParams(z0=z0, a=a))


def one_sided_p(replicates: np.ndarray) -> float:
    """Add-one bootstrap p for H0: statistic <= 0."""
    replicates = np.asarray(replicates, dtype=np.float64)
    if replicates.size == 0:
        raise BootstrapFailureError("empty replicate array")
    b = replicates.size
    return float((1 + np.count_nonzero(replicates <= 0.0)) / (b + 1))


def bootstrap_estimate(
    sample: PairedSample,
    statistic: Statistic,
    b: int = DEFAULT_B,
    entropy: int = 0,
    level: float = DEFAULT_LEVEL,
) -> BootstrapResult:
    """Point estimate, BCa interval, and one-sided p for one statistic."""
    point = float(statistic(sample.x1[None], sample.x2[None])[0])
    if not np.isfinite(point):
        raise BootstrapFailureError(
            f"{sample.measure_id}: the statistic is undefined on the observed sample"
        )
    replicates, _ = resample_statistic(sample, statistic, b, entropy)
    jack = jackknife_values(sample, statistic)
    interval = bca_interval(replicates, point, jack, alpha=1.0 - level)
    return BootstrapResult(
        point=point,
        ci_low=interval.ci_low,
        ci_high=interval.ci_high,
        level=level,
        method=interval.method,
        b_requested=b,
        b_effective=int(replicates.size),
        p_one_sided=one_sided_p(replicates),
        params=interval.params,
    )
