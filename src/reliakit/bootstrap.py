"""Subject-level bootstrap with BCa intervals and one-sided p-values.

Resampling draws whole subject pairs with replacement (both sessions travel
together). Intervals follow Efron's bias-corrected-and-accelerated
construction (Efron 1987, JASA 82:171); when the correction is undefined
(all replicates on one side of the point estimate, or zero jackknife
dispersion) the interval falls back to the plain percentile endpoints and
records that it did.

Reproducibility contract: replicate r draws its n indices as
Generator(PCG64(SeedSequence((entropy, r)))).integers(0, n, size=n), where
the 128-bit stream entropy is derived by SHA-256 from (base_seed,
measure_id, spec_id). Replicates are therefore bit-identical regardless of
execution order, blocking, or worker count. replicate_indices computes
those streams for a block of r at once in numpy integer arrays: the
SeedSequence pool mixing and PCG64 seeding run over r, the 128-bit LCG
state of every draw comes from a closed-form jump, and the bounded draws
follow Lemire's method as Generator.integers does. A row that hits a
Lemire rejection (a rate below n / 2**32 per draw) is redrawn through
replicate_rng itself. r must fit in one 32-bit SeedSequence word, so B is
at most MAX_B = 2**32. NEP 19 keeps SeedSequence and PCG64 stable; a numpy
feature release may change Generator.integers, which the stream property
test in the test suite would catch.

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

import functools
import hashlib
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import BootstrapFailureError
from .ingest import PairedSample

DEFAULT_B = 5000
DEFAULT_LEVEL = 0.95

MAX_B = 1 << 32  # a replicate index must be one 32-bit SeedSequence word

_BLOCK_ELEMENTS = 1 << 15  # scores per block of replicate or deletion rows

# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

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
    """Replicate r's generator: the definition of its stream, and the exact
    path for the rows replicate_indices redraws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((entropy, r))))


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint32 words; returns the mixed words and
    the next hash constant."""
    following = (const * mult) & _MASK32
    value = (value ^ const) * following
    return value ^ (value >> 16), following


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _seed_state(entropy: int, r: np.ndarray) -> list[np.ndarray]:
    """SeedSequence((entropy, r)).generate_state(4, uint64) for each r in a
    uint32 array: four uint64 arrays over r."""
    words = [
        np.full(r.shape, (entropy >> shift) & _MASK32, dtype=np.uint32)
        for shift in range(0, max(entropy.bit_length(), 1), 32)
    ]
    words.append(r)
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hashmix(
            words[i] if i < len(words) else np.zeros_like(r), const, _MULT_A
        )
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(words[src], const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    out = []
    for i in range(8):
        value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(value.astype(np.uint64))
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64)
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


@functools.lru_cache(maxsize=32)
def _jump_table(outputs: int):
    """Coefficients (A_j, C_j) = (M^(j+2), sum of M^t over t < j+2) mod 2**128
    for j < outputs, as read-only (hi, lo) uint64 arrays. From the value
    S = initstate + inc that PCG64 seeding holds before its last step, the
    LCG state of 64-bit output j is A_j * S + C_j * inc."""
    powers, sums = [], []
    power, total = _PCG_MULT * _PCG_MULT & _MASK128, 1 + _PCG_MULT
    for _ in range(outputs):
        powers.append(power)
        sums.append(total)
        power, total = power * _PCG_MULT & _MASK128, (total + power) & _MASK128
    return _split128(powers), _split128(sums)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> 32)
    v = a_lo * b_hi + (u & _MASK32)
    return a_hi * b_hi + (u >> 32) + (v >> 32)


def _mul128(x_hi, x_lo, y_hi, y_lo):
    """(hi, lo) of x * y mod 2**128."""
    return _mulhi64(x_lo, y_lo) + x_lo * y_hi + x_hi * y_lo, x_lo * y_lo


def _add128(x_hi, x_lo, y_hi, y_lo):
    """(hi, lo) of x + y mod 2**128."""
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def replicate_indices(entropy: int, start: int, stop: int, n: int) -> np.ndarray:
    """Index rows of replicates start..stop-1 as one (stop - start, n) int64
    array, bit for bit equal to stacking
    replicate_rng(entropy, r).integers(0, n, size=n) over r."""
    entropy, start, stop, n = map(operator.index, (entropy, start, stop, n))
    if entropy < 0:
        raise ValueError(f"entropy must be non-negative, got {entropy}")
    if not 0 <= start <= stop <= MAX_B:
        raise ValueError(f"replicates must lie in [0, 2**32), got [{start}, {stop})")
    if not 1 <= n <= _MASK32:
        raise ValueError(f"n must be in [1, 2**32), got {n}")
    r = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    s0, s1, s2, s3 = _seed_state(entropy, r)
    # PCG64 srandom(initstate = s0:s1, initseq = s2:s3)
    inc_hi, inc_lo = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1
    seeded_hi, seeded_lo = _add128(s0, s1, inc_hi, inc_lo)
    outputs = (n + 1) // 2
    (a_hi, a_lo), (c_hi, c_lo) = _jump_table(outputs)
    state_hi, state_lo = _add128(
        *_mul128(seeded_hi[:, None], seeded_lo[:, None], a_hi, a_lo),
        *_mul128(inc_hi[:, None], inc_lo[:, None], c_hi, c_lo),
    )
    # XSL-RR output; Generator.integers takes the low 32 bits, then the high
    x = state_hi ^ state_lo
    rot = state_hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    words = np.stack([out & _MASK32, out >> 32], axis=-1)
    words = words.reshape(r.size, 2 * outputs)[:, :n]
    # Lemire's bounded draw: a word is rejected where the low half of
    # word * n is below (2**32 - n) mod n, and the next word is drawn
    scaled = words * n
    idx = (scaled >> 32).astype(np.int64)
    rejected = ((scaled & _MASK32) < (_MASK32 + 1 - n) % n).any(axis=1)
    for row in np.flatnonzero(rejected):
        idx[row] = replicate_rng(entropy, start + int(row)).integers(0, n, size=n)
    return idx


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
    if not 1 <= b <= MAX_B:
        raise BootstrapFailureError(f"bootstrap budget must be in [1, 2**32], got {b}")
    n = sample.n
    values = np.empty(b, dtype=np.float64)
    for start, stop in _blocks(b, n):
        idx = replicate_indices(entropy, start, stop, n)
        values[start:stop] = statistic(sample.x1[idx], sample.x2[idx])
    values = values[np.isfinite(values)]
    if not values.size:
        raise BootstrapFailureError(
            f"{sample.measure_id}: all {b} bootstrap replicates were degenerate"
        )
    return values, b - values.size


def deletion_blocks(sample: PairedSample):
    """The n leave-one-subject-out samples, a block at a time: yields
    (start, stop, x1_rows, x2_rows), where row i of the two
    (stop - start, n - 1) arrays holds every subject but start + i, in
    order."""
    n = sample.n
    kept = np.arange(n - 1)
    for start, stop in _blocks(n, n - 1):
        idx = kept + (kept >= np.arange(start, stop)[:, None])
        yield start, stop, sample.x1[idx], sample.x2[idx]


def jackknife_values(sample: PairedSample, statistic: Statistic) -> np.ndarray:
    """Leave-one-subject-out recomputation; failing deletions are dropped."""
    values = np.empty(sample.n, dtype=np.float64)
    for start, stop, x1, x2 in deletion_blocks(sample):
        values[start:stop] = statistic(x1, x2)
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
    jackknife = jackknife_values(sample, statistic)
    return bootstrap_around(sample, statistic, point, jackknife, b, entropy, level)


def bootstrap_around(
    sample: PairedSample,
    statistic: Statistic,
    point: float,
    jackknife: np.ndarray,
    b: int,
    entropy: int,
    level: float = DEFAULT_LEVEL,
) -> BootstrapResult:
    """bootstrap_estimate with the finite point estimate and the kept
    jackknife values given, for a caller that evaluates them once for
    several statistics: only the B replicates are drawn here."""
    replicates, _ = resample_statistic(sample, statistic, b, entropy)
    interval = bca_interval(replicates, point, jackknife, alpha=1.0 - level)
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
