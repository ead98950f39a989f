"""Headline rule and FDR adjustment over the primary tier.

The headline rule is deliberately blunt: a measure passes iff its BCa 95%
lower bound is strictly greater than zero. Benjamini-Hochberg q-values
(Benjamini & Hochberg 1995) are computed across exactly the estimable
primary pool; measures that could not be estimated never enter the pool
and never receive p or q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidPValueError
from .registry import ContractRegistry, assert_headline_eligible

STATUS_OK = "ok"
STATUS_INSUFFICIENT_N = "insufficient_n"
STATUS_DEGENERATE = "degenerate"
STATUSES = (STATUS_OK, STATUS_INSUFFICIENT_N, STATUS_DEGENERATE)

Q_STAR = 0.05  # the FDR level reported with the q-values


@dataclass(frozen=True)
class ReliabilityEstimate:
    """One measure under one specification. Non-ok statuses carry n and
    identity only; every estimate field is None."""

    measure_id: str
    spec_id: str
    n: int
    status: str
    rho: float | None = None
    mi_ksg: float | None = None
    mi_gauss: float | None = None
    nlr_delta: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    method: str | None = None
    p: float | None = None
    q: float | None = None
    icc_2_1: float | None = None
    icc_2_1_low: float | None = None
    icc_2_1_high: float | None = None
    icc_3_1: float | None = None
    headline_pass: bool = False


def headline_pass(ci_low: float | None) -> bool:
    """Strictly greater than zero; equality fails."""
    return ci_low is not None and ci_low > 0.0


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up q-values, returned in input order.

    q_(i) = min over j >= i of p_(j) * m / j, capped at 1.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise InvalidPValueError("p-values must be a 1-d array")
    if p.size == 0:
        return np.empty(0, dtype=np.float64)
    if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
        raise InvalidPValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty(m, dtype=np.float64)
    q[order] = q_sorted
    return q


def median_iqr(values: list[float]) -> tuple[float | None, list[float] | None]:
    """Median and linear-interpolation [Q1, Q3] of the values as float64,
    (None, None) for none: the summaries' one convention."""
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = np.quantile(arr, [0.25, 0.75], method="linear")
    return float(np.median(arr)), [float(lo), float(hi)]


def apply_primary_inference(
    estimates: list[ReliabilityEstimate],
    registry: ContractRegistry,
) -> tuple[list[ReliabilityEstimate], dict]:
    """Attach q-values and headline verdicts; build the run summary.

    Every incoming estimate must be headline-eligible (tier check aborts
    otherwise). Only status == ok estimates enter the BH pool.
    """
    for est in estimates:
        assert_headline_eligible(est.measure_id, registry)

    pool_idx = [i for i, e in enumerate(estimates) if e.status == STATUS_OK]
    pool_p = [estimates[i].p for i in pool_idx]
    if any(p is None for p in pool_p):
        raise InvalidPValueError("estimable estimate with no p-value")
    qs = bh_adjust(pool_p) if pool_idx else np.empty(0)

    annotated: list[ReliabilityEstimate] = []
    q_by_idx = dict(zip(pool_idx, qs))
    for i, est in enumerate(estimates):
        if est.status == STATUS_OK:
            annotated.append(
                replace(est, q=float(q_by_idx[i]), headline_pass=headline_pass(est.ci_low))
            )
        else:
            annotated.append(replace(est, q=None, headline_pass=False))

    ok = [e for e in annotated if e.status == STATUS_OK]
    deltas = [e.nlr_delta for e in ok]
    widths = [e.ci_high - e.ci_low for e in ok]
    iccs = [e.icc_2_1 for e in ok]
    delta_median, delta_iqr = median_iqr(deltas)
    width_median, _ = median_iqr(widths)
    icc_median, icc_iqr = median_iqr(iccs)
    summary = {
        "q_star": Q_STAR,
        "n_primary": len(annotated),
        "counts": {
            "ok": len(ok),
            "insufficient_n": sum(e.status == STATUS_INSUFFICIENT_N for e in annotated),
            "degenerate": sum(e.status == STATUS_DEGENERATE for e in annotated),
        },
        "pass_count": sum(e.headline_pass for e in annotated),
        "nlr_delta_median": delta_median,
        "nlr_delta_iqr": delta_iqr,
        "ci_width_median": width_median,
        # minimum detectable effect, reported as the CI half-width
        "mde_median": width_median / 2.0 if width_median is not None else None,
        "min_q": float(np.min(qs)) if len(qs) else None,
        "icc_2_1_median": icc_median,
        "icc_2_1_iqr": icc_iqr,
    }
    return annotated, summary
