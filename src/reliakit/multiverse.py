"""The 24-cell specification grid and per-cell estimation.

Axes: k in {3,4,5,6}, correlation method in {pearson, spearman}, minimum
paired sample size in {10, 15, 20}. The grid varies estimator settings
only; ingestion is never re-run. Every (specification, measure) cell is an
independent unit of work with its own derived seed stream, so cells can be
computed in any order, on any number of workers, and still match a serial
run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .bootstrap import bootstrap_estimate, derive_entropy
from .errors import BootstrapFailureError, EstimatorError
from .estimators import CorrMethod, IccVariant, icc, nlr, nlr_delta_rows
from .inference import (
    STATUS_DEGENERATE,
    STATUS_INSUFFICIENT_N,
    STATUS_OK,
    ReliabilityEstimate,
    headline_pass,
)
from .ingest import PairedSample

K_GRID = (3, 4, 5, 6)
CORR_GRID = (CorrMethod.PEARSON, CorrMethod.SPEARMAN)
N_MIN_GRID = (10, 15, 20)


@dataclass(frozen=True)
class Specification:
    k: int
    corr_method: CorrMethod
    n_min: int

    @property
    def spec_id(self) -> str:
        return f"k{self.k}_{self.corr_method.value}_nmin{self.n_min}"


DEFAULT_SPEC = Specification(k=4, corr_method=CorrMethod.PEARSON, n_min=10)


@dataclass(frozen=True)
class MultiverseCell:
    spec: Specification
    measure_id: str
    estimate: ReliabilityEstimate


def build_grid() -> list[Specification]:
    """All 24 specifications in lexicographic (k, corr, n_min) order."""
    return [
        Specification(k=k, corr_method=corr, n_min=n_min)
        for k, corr, n_min in product(K_GRID, CORR_GRID, N_MIN_GRID)
    ]


def run_cell(
    spec: Specification, sample: PairedSample, base_seed: int, b: int
) -> MultiverseCell:
    """Estimate one measure under one specification.

    Estimator failures demote the cell to degenerate status; they never
    abort the grid. The primary pipeline runs the same function with the
    default specification, which is what makes the two paths bitwise
    comparable.
    """
    spec_id = spec.spec_id
    n = sample.n
    if n < spec.n_min:
        estimate = ReliabilityEstimate(
            measure_id=sample.measure_id,
            spec_id=spec_id,
            n=n,
            status=STATUS_INSUFFICIENT_N,
        )
        return MultiverseCell(spec=spec, measure_id=sample.measure_id, estimate=estimate)
    try:
        value = nlr(sample, k=spec.k, corr_method=spec.corr_method)
        statistic = partial(nlr_delta_rows, k=spec.k, corr_method=spec.corr_method)
        entropy = derive_entropy(base_seed, sample.measure_id, spec_id)
        boot = bootstrap_estimate(sample, statistic, b=b, entropy=entropy)
        icc2 = icc(sample, IccVariant.TWO_WAY_RANDOM)
        icc3 = icc(sample, IccVariant.TWO_WAY_FIXED)
    except (EstimatorError, BootstrapFailureError):
        estimate = ReliabilityEstimate(
            measure_id=sample.measure_id,
            spec_id=spec_id,
            n=n,
            status=STATUS_DEGENERATE,
        )
        return MultiverseCell(spec=spec, measure_id=sample.measure_id, estimate=estimate)
    estimate = ReliabilityEstimate(
        measure_id=sample.measure_id,
        spec_id=spec_id,
        n=n,
        status=STATUS_OK,
        rho=value.rho,
        mi_ksg=value.mi_ksg,
        mi_gauss=value.mi_gauss,
        nlr_delta=boot.point,
        ci_low=boot.ci_low,
        ci_high=boot.ci_high,
        method=boot.method,
        p=boot.p_one_sided,
        q=None,
        icc_2_1=icc2.value,
        icc_2_1_low=icc2.ci_low,
        icc_2_1_high=icc2.ci_high,
        icc_3_1=icc3.value,
        headline_pass=headline_pass(boot.ci_low),
    )
    return MultiverseCell(spec=spec, measure_id=sample.measure_id, estimate=estimate)


def _axis_summary(cells: list[MultiverseCell], key) -> dict:
    by_level: dict[str, dict] = {}
    levels = sorted({key(c) for c in cells}, key=str)
    for level in levels:
        members = [c for c in cells if key(c) == level]
        ok = [c.estimate for c in members if c.estimate.status == STATUS_OK]
        deltas = np.asarray([e.nlr_delta for e in ok], dtype=np.float64)
        by_level[str(level)] = {
            "median_nlr_delta": float(np.median(deltas)) if deltas.size else None,
            "pass_count": sum(e.headline_pass for e in ok),
            "estimable": len(ok),
        }
    return by_level


def summarize(cells: list[MultiverseCell]) -> dict:
    """Marginal table: one row per axis level, plus the grand summary."""
    ok = [c.estimate for c in cells if c.estimate.status == STATUS_OK]
    deltas = np.asarray([e.nlr_delta for e in ok], dtype=np.float64)
    if deltas.size:
        grand_median = float(np.median(deltas))
        lo, hi = np.quantile(deltas, [0.25, 0.75], method="linear")
        grand_iqr = [float(lo), float(hi)]
    else:
        grand_median = None
        grand_iqr = None
    return {
        "grand": {
            "total_cells": len(cells),
            "estimable": len(ok),
            "insufficient_n": sum(
                c.estimate.status == STATUS_INSUFFICIENT_N for c in cells
            ),
            "degenerate": sum(c.estimate.status == STATUS_DEGENERATE for c in cells),
            "pass_count": sum(e.headline_pass for e in ok),
            "median_nlr_delta": grand_median,
            "iqr_nlr_delta": grand_iqr,
        },
        "by_k": _axis_summary(cells, lambda c: c.spec.k),
        "by_corr": _axis_summary(cells, lambda c: c.spec.corr_method.value),
        "by_n_min": _axis_summary(cells, lambda c: c.spec.n_min),
    }
