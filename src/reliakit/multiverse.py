"""The 24-cell specification grid and its estimation engine.

Axes: k in {3,4,5,6}, correlation method in {pearson, spearman}, minimum
paired sample size in {10, 15, 20}. The grid varies estimator settings
only; ingestion is never re-run.

The unit of work is a measure: run_measure estimates one measure under a
list of specifications. What no specification's seed stream enters is
evaluated once per measure: the observed KSG term per k, the observed
correlation and its Gaussian baseline per method, the same two terms on
the n leave-one-out samples, and the ICCs. Each (specification, measure)
cell still draws its own B replicates from its own derived seed stream and
builds its own interval, so a cell gets the same bits whichever other
specifications share its measure, and measures can be computed in any
order, on any number of workers, and still match a serial run bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

import numpy as np

from .bootstrap import bca_interval, derive_entropy, one_sided_p, resample_statistic
from .errors import BootstrapFailureError, EstimatorError
from .estimators import (
    CorrMethod,
    clamped_gaussian_mi,
    correlation,
    icc,
    ksg_mi,
    nlr_deletion_terms,
    nlr_delta_rows,
)
from .inference import (
    STATUS_DEGENERATE,
    STATUS_INSUFFICIENT_N,
    STATUS_OK,
    ReliabilityEstimate,
    headline_pass,
    median_iqr,
)
from .ingest import PairedSample

K_GRID = (3, 4, 5, 6)
CORR_GRID = (CorrMethod.PEARSON, CorrMethod.SPEARMAN)
N_MIN_GRID = (10, 15, 20)


def _positive_int(name: str, value) -> int:
    """value as a Python int: a positive int or numpy integer, never a bool
    or a float."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if number >= 1:
                return number
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Specification:
    k: int
    corr_method: CorrMethod
    n_min: int

    def __post_init__(self) -> None:
        # a bool or float k would share a dict key with an int k in a
        # measure's shared terms (True == 1, 4.0 == 4), and a float n_min
        # would print into spec_id (nmin10.5); numpy integers are stored as
        # the int they equal, so spec_id and the keys stay those of an int
        for name in ("k", "n_min"):
            object.__setattr__(self, name, _positive_int(name, getattr(self, name)))
        # "pearson" is stored as CorrMethod.PEARSON, whose value spec_id
        # reads; an unknown method raises ValueError
        object.__setattr__(self, "corr_method", CorrMethod(self.corr_method))

    @property
    def spec_id(self) -> str:
        return f"k{self.k}_{self.corr_method.value}_nmin{self.n_min}"


DEFAULT_SPEC = Specification(k=4, corr_method=CorrMethod.PEARSON, n_min=10)


@dataclass(frozen=True)
class MultiverseCell:
    spec: Specification
    estimate: ReliabilityEstimate


def build_grid() -> list[Specification]:
    """All 24 specifications in lexicographic (k, corr, n_min) order."""
    return [
        Specification(k=k, corr_method=corr, n_min=n_min)
        for k, corr, n_min in product(K_GRID, CORR_GRID, N_MIN_GRID)
    ]


def _defined(estimator, *args):
    """The estimator's value, or None where the sample admits none."""
    try:
        return estimator(*args)
    except EstimatorError:
        return None


class MeasureTerms:
    """The terms of one measure's cells that no seed stream enters, each
    evaluated once for the given specifications (all with n >= n_min).

    A term the sample does not admit is None, and makes every cell that
    needs it degenerate. The leave-one-out terms come from one
    nlr_deletion_terms call for the k and methods of the cells that are
    still estimable, and from none when no cell is; each of their rows is
    NaN where that deletion admits no term.
    """

    def __init__(self, sample: PairedSample, specs: list[Specification]) -> None:
        self.mi_ksg = {k: _defined(ksg_mi, sample, k) for k in {s.k for s in specs}}
        self.rho = {m: _defined(correlation, sample, m) for m in {s.corr_method for s in specs}}
        self.mi_gauss = {m: clamped_gaussian_mi(r) for m, r in self.rho.items() if r is not None}
        self.icc = _defined(icc, sample)
        live = [s for s in specs if self.estimable(s)]
        ks = list(dict.fromkeys(s.k for s in live))
        methods = list(dict.fromkeys(s.corr_method for s in live))
        jack_ksg, jack_gauss = nlr_deletion_terms(sample.x1, sample.x2, ks, methods) if live else ((), ())
        self.jack_ksg = dict(zip(ks, jack_ksg))
        self.jack_gauss = dict(zip(methods, jack_gauss))

    def estimable(self, spec: Specification) -> bool:
        needed = (self.mi_ksg[spec.k], self.rho[spec.corr_method], self.icc)
        return all(term is not None for term in needed)


def run_measure(
    specs: list[Specification], sample: PairedSample, base_seed: int, b: int
) -> list[MultiverseCell]:
    """Estimate one measure under each specification, in the order given.

    The spec-invariant terms are evaluated once (MeasureTerms) for the
    specifications whose n_min the sample meets; run_cell then draws each
    cell's replicates and builds its interval. The one engine behind both
    commands: run passes the default specification, multiverse the grid.
    """
    active = [spec for spec in specs if sample.n >= spec.n_min]
    terms = MeasureTerms(sample, active) if active else None
    return [run_cell(spec, sample, base_seed, b, terms) for spec in specs]


def _cell(spec: Specification, sample: PairedSample, status: str, **fields) -> MultiverseCell:
    estimate = ReliabilityEstimate(
        measure_id=sample.measure_id, spec_id=spec.spec_id, n=sample.n, status=status, **fields
    )
    return MultiverseCell(spec=spec, estimate=estimate)


def run_cell(
    spec: Specification,
    sample: PairedSample,
    base_seed: int,
    b: int,
    terms: MeasureTerms | None,
) -> MultiverseCell:
    """Estimate one measure under one specification: the per-cell step of
    run_measure. terms holds the measure's shared terms, which run_measure
    evaluates for the specifications whose n_min the sample meets (None
    when it meets none); the cell draws its replicates and builds its
    interval around them.

    Estimator failures demote the cell to degenerate status; they never
    abort the grid.
    """
    if sample.n < spec.n_min:
        return _cell(spec, sample, STATUS_INSUFFICIENT_N)
    if not terms.estimable(spec):
        return _cell(spec, sample, STATUS_DEGENERATE)
    k, method = spec.k, spec.corr_method
    mi_ksg, mi_gauss = terms.mi_ksg[k], terms.mi_gauss[method]
    jack = terms.jack_ksg[k] - terms.jack_gauss[method]
    statistic = partial(nlr_delta_rows, k=k, corr_method=method)
    entropy = derive_entropy(base_seed, sample.measure_id, spec.spec_id)
    try:
        replicates, _ = resample_statistic(sample, statistic, b, entropy)
    except BootstrapFailureError:
        return _cell(spec, sample, STATUS_DEGENERATE)
    point = mi_ksg - mi_gauss
    interval = bca_interval(replicates, point, jack[np.isfinite(jack)])
    return _cell(
        spec,
        sample,
        STATUS_OK,
        rho=terms.rho[method],
        mi_ksg=mi_ksg,
        mi_gauss=mi_gauss,
        nlr_delta=point,
        ci_low=interval.ci_low,
        ci_high=interval.ci_high,
        method=interval.method,
        p=one_sided_p(replicates),
        q=None,
        headline_pass=headline_pass(interval.ci_low),
        **asdict(terms.icc),
    )


def _axis_summary(cells: list[MultiverseCell], levels, key) -> dict:
    """One row per level of an axis, in grid order, also for a level no
    cell has; key gives a cell's level as the row's name."""
    by_level: dict[str, dict] = {}
    for level in levels:
        ok = [c.estimate for c in cells if key(c) == level and c.estimate.status == STATUS_OK]
        by_level[level] = {
            "median_nlr_delta": median_iqr([e.nlr_delta for e in ok])[0],
            "pass_count": sum(e.headline_pass for e in ok),
            "estimable": len(ok),
        }
    return by_level


def summarize(cells: list[MultiverseCell]) -> dict:
    """Marginal table: one row per level of each axis of the grid, plus
    the grand summary."""
    ok = [c.estimate for c in cells if c.estimate.status == STATUS_OK]
    grand_median, grand_iqr = median_iqr([e.nlr_delta for e in ok])
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
        "by_k": _axis_summary(cells, map(str, K_GRID), lambda c: str(c.spec.k)),
        "by_corr": _axis_summary(
            cells, (m.value for m in CORR_GRID), lambda c: c.spec.corr_method.value
        ),
        "by_n_min": _axis_summary(cells, map(str, N_MIN_GRID), lambda c: str(c.spec.n_min)),
    }
