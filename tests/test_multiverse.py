from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliakit import DEFAULT_SPEC, Specification, build_grid, summarize
from reliakit.bootstrap import (
    bca_interval,
    derive_entropy,
    jackknife_values,
    one_sided_p,
    resample_statistic,
)
from reliakit.errors import BootstrapFailureError, EstimatorError
from reliakit import estimators
from reliakit.estimators import (
    CorrMethod,
    IccVariant,
    clamped_gaussian_mi,
    correlation,
    icc,
    ksg_mi,
    nlr_delta_rows,
)
from reliakit.inference import (
    STATUS_DEGENERATE,
    STATUS_INSUFFICIENT_N,
    STATUS_OK,
    ReliabilityEstimate,
    headline_pass,
)
from reliakit.multiverse import CORR_GRID, K_GRID, MultiverseCell, run_measure
from reliakit.outputs import MULTIVERSE_SUMMARY_SCHEMA, check_json

from conftest import gauss_pairs, make_sample


def test_grid_shape_and_order():
    grid = build_grid()
    assert len(grid) == 24
    assert len({s.spec_id for s in grid}) == 24
    assert grid[0] == Specification(3, CorrMethod.PEARSON, 10)
    assert grid[0].spec_id == "k3_pearson_nmin10"
    assert grid[-1] == Specification(6, CorrMethod.SPEARMAN, 20)
    # n_min cycles fastest, k slowest
    assert [s.n_min for s in grid[:3]] == [10, 15, 20]
    assert [s.k for s in grid[::6]] == [3, 4, 5, 6]
    assert DEFAULT_SPEC in grid
    assert DEFAULT_SPEC.spec_id == "k4_pearson_nmin10"


@pytest.mark.parametrize("bad_k", [0, -1, True, 4.0, np.int64(0), "4"])
def test_specification_rejects_bad_k(bad_k):
    with pytest.raises(ValueError):
        Specification(bad_k, CorrMethod.PEARSON, 10)


@pytest.mark.parametrize("bad_n_min", [0, -3, True, 10.5, 10.0, np.float64(10.0), "10"])
def test_specification_rejects_bad_n_min(bad_n_min):
    with pytest.raises(ValueError):
        Specification(4, CorrMethod.PEARSON, bad_n_min)


@pytest.mark.parametrize("bad_method", ["kendall", "Pearson", "", 1, None])
def test_specification_rejects_bad_corr_method(bad_method):
    with pytest.raises(ValueError):
        Specification(4, bad_method, 10)


def test_specification_stores_numpy_integers_as_int():
    spec = Specification(np.int64(4), CorrMethod.PEARSON, np.int32(10))
    assert type(spec.k) is int and type(spec.n_min) is int
    assert spec == DEFAULT_SPEC and hash(spec) == hash(DEFAULT_SPEC)
    assert spec.spec_id == "k4_pearson_nmin10"
    spec = Specification(np.int64(4), "spearman", 10)
    assert spec.corr_method is CorrMethod.SPEARMAN
    assert spec == Specification(4, CorrMethod.SPEARMAN, 10)
    assert spec.spec_id == "k4_spearman_nmin10"
    assert [s.spec_id for s in build_grid()] == [
        f"k{k}_{corr.value}_nmin{n_min}" for k in K_GRID for corr in CORR_GRID for n_min in (10, 15, 20)
    ]


def test_run_cell_ok_status_fields():
    rng = np.random.default_rng(42)
    sample = gauss_pairs(rng, 25, rho=0.6, measure_id="meas")
    cell = run_measure([DEFAULT_SPEC], sample, base_seed=42, b=100)[0]
    est = cell.estimate
    assert est.measure_id == "meas"
    assert est.spec_id == "k4_pearson_nmin10"
    assert est.status == STATUS_OK
    assert est.n == 25
    assert est.q is None  # attached later, across the pool
    assert est.p is not None and 0 < est.p <= 1
    assert est.ci_low <= est.ci_high
    assert est.headline_pass == (est.ci_low > 0)
    assert est.icc_2_1 is not None and est.icc_3_1 is not None


def test_run_cell_insufficient_at_threshold():
    rng = np.random.default_rng(8)
    sample = gauss_pairs(rng, 12, rho=0.5)
    ok_cell = run_measure([Specification(3, CorrMethod.PEARSON, 10)], sample, 1, 50)[0]
    assert ok_cell.estimate.status == STATUS_OK
    short_cell = run_measure([Specification(3, CorrMethod.PEARSON, 15)], sample, 1, 50)[0]
    est = short_cell.estimate
    assert est.status == STATUS_INSUFFICIENT_N
    assert est.n == 12
    assert est.nlr_delta is None
    assert est.rho is None
    assert est.p is None and est.q is None
    assert not est.headline_pass


def test_run_cell_exact_n_min_is_estimable():
    rng = np.random.default_rng(9)
    sample = gauss_pairs(rng, 15, rho=0.5)
    cell = run_measure([Specification(3, CorrMethod.PEARSON, 15)], sample, 1, 50)[0]
    assert cell.estimate.status == STATUS_OK


def test_run_cell_degenerate_never_raises():
    sample = make_sample([2.0] * 12, [3.0] * 12)
    cell = run_measure([DEFAULT_SPEC], sample, base_seed=7, b=50)[0]
    est = cell.estimate
    assert est.status == STATUS_DEGENERATE
    assert est.nlr_delta is None
    assert not est.headline_pass


def test_run_cell_deterministic():
    rng = np.random.default_rng(5)
    sample = gauss_pairs(rng, 20, rho=0.4)
    a = run_measure([DEFAULT_SPEC], sample, base_seed=11, b=80)[0]
    b = run_measure([DEFAULT_SPEC], sample, base_seed=11, b=80)[0]
    assert a == b
    c = run_measure([DEFAULT_SPEC], sample, base_seed=12, b=80)[0]
    assert c.estimate.ci_low != a.estimate.ci_low


def test_cells_differ_across_specs():
    rng = np.random.default_rng(6)
    sample = gauss_pairs(rng, 30, rho=0.5)
    k4 = run_measure([Specification(4, CorrMethod.PEARSON, 10)], sample, 1, 60)[0]
    k5 = run_measure([Specification(5, CorrMethod.PEARSON, 10)], sample, 1, 60)[0]
    assert k4.estimate.mi_ksg != k5.estimate.mi_ksg
    sp = run_measure([Specification(4, CorrMethod.SPEARMAN, 10)], sample, 1, 60)[0]
    assert sp.estimate.rho != k4.estimate.rho
    assert sp.estimate.mi_ksg == k4.estimate.mi_ksg  # MI ignores corr method


def run_toy_grid(b=40):
    """Three measures with n = 22, 12, and 8 over the full grid."""
    rng = np.random.default_rng(77)
    samples = [
        gauss_pairs(rng, 22, rho=0.7, measure_id="big"),
        gauss_pairs(rng, 12, rho=0.5, measure_id="mid"),
        gauss_pairs(rng, 8, rho=0.3, measure_id="small"),
    ]
    cells = []
    for spec in build_grid():
        for sample in samples:
            cells.append(run_measure([spec], sample, base_seed=3, b=b)[0])
    return cells


def test_toy_grid_status_partition():
    cells = run_toy_grid()
    assert len(cells) == 72
    summary = summarize(cells)
    grand = summary["grand"]
    assert grand["total_cells"] == 72
    # n=22 estimable everywhere (24); n=12 only at n_min=10 (8);
    # n=8 nowhere
    assert grand["estimable"] == 32
    assert grand["insufficient_n"] == 40
    assert grand["degenerate"] == 0
    assert (
        grand["estimable"] + grand["insufficient_n"] + grand["degenerate"]
        == grand["total_cells"]
    )


def test_summary_matches_direct_recount():
    cells = run_toy_grid()
    summary = summarize(cells)
    ok = [c for c in cells if c.estimate.status == STATUS_OK]
    deltas = sorted(c.estimate.nlr_delta for c in ok)
    assert summary["grand"]["median_nlr_delta"] == pytest.approx(
        float(np.median(deltas)), abs=1e-15
    )
    lo, hi = summary["grand"]["iqr_nlr_delta"]
    assert lo == pytest.approx(float(np.quantile(deltas, 0.25)), abs=1e-15)
    assert hi == pytest.approx(float(np.quantile(deltas, 0.75)), abs=1e-15)
    assert summary["grand"]["pass_count"] == sum(
        c.estimate.headline_pass for c in ok
    )


def test_axis_summaries_are_consistent():
    cells = run_toy_grid()
    summary = summarize(cells)
    for axis, levels in (("by_k", ["3", "4", "5", "6"]),
                         ("by_corr", ["pearson", "spearman"]),
                         ("by_n_min", ["10", "15", "20"])):
        table = summary[axis]
        assert list(table.keys()) == levels
        assert sum(v["estimable"] for v in table.values()) == summary["grand"]["estimable"]
        assert sum(v["pass_count"] for v in table.values()) == summary["grand"]["pass_count"]


def test_axis_summary_direct_recount():
    cells = run_toy_grid()
    summary = summarize(cells)
    for k in (3, 4, 5, 6):
        ok = [
            c.estimate
            for c in cells
            if c.spec.k == k and c.estimate.status == STATUS_OK
        ]
        level = summary["by_k"][str(k)]
        assert level["estimable"] == len(ok)
        want = float(np.median([e.nlr_delta for e in ok])) if ok else None
        if want is None:
            assert level["median_nlr_delta"] is None
        else:
            assert level["median_nlr_delta"] == pytest.approx(want, abs=1e-15)


def test_n_min_axis_loses_mid_measure():
    cells = run_toy_grid()
    summary = summarize(cells)
    by_n_min = summary["by_n_min"]
    assert by_n_min["10"]["estimable"] == 16  # big + mid, 8 specs each
    assert by_n_min["15"]["estimable"] == 8  # big only
    assert by_n_min["20"]["estimable"] == 8


def test_summarize_empty_and_all_insufficient():
    assert summarize([])["grand"]["total_cells"] == 0
    assert summarize([])["grand"]["median_nlr_delta"] is None
    rng = np.random.default_rng(1)
    tiny = gauss_pairs(rng, 5, rho=0.2)
    cells = run_measure(build_grid(), tiny, 1, 10)
    summary = summarize(cells)
    assert summary["grand"]["estimable"] == 0
    assert summary["grand"]["insufficient_n"] == 24
    assert summary["by_k"]["3"]["median_nlr_delta"] is None


def test_summarize_lists_every_grid_level_without_cells():
    summary = summarize([])
    check_json(summary, MULTIVERSE_SUMMARY_SCHEMA, "multiverse_summary.json")
    empty = {"median_nlr_delta": None, "pass_count": 0, "estimable": 0}
    assert summary["by_k"] == dict.fromkeys(["3", "4", "5", "6"], empty)
    assert summary["by_corr"] == dict.fromkeys(["pearson", "spearman"], empty)
    assert summary["by_n_min"] == dict.fromkeys(["10", "15", "20"], empty)


def oracle_bootstrap(sample, statistic, b, entropy):
    """The bootstrap as a self-contained sequence: point, replicates,
    jackknife, BCa interval, p."""
    point = float(statistic(sample.x1[None], sample.x2[None])[0])
    if not np.isfinite(point):
        raise BootstrapFailureError("undefined point")
    replicates, _ = resample_statistic(sample, statistic, b, entropy)
    jack = jackknife_values(sample, statistic)
    interval = bca_interval(replicates, point, jack)
    return point, interval, one_sided_p(replicates)


def oracle_cell(spec, sample, base_seed, b):
    """The per-cell path the engine replaced: correlation, baseline and KSG
    term, then the bootstrap, then both ICCs, every term evaluated for this
    cell alone."""
    spec_id = spec.spec_id
    n = sample.n
    if n < spec.n_min:
        estimate = ReliabilityEstimate(sample.measure_id, spec_id, n, STATUS_INSUFFICIENT_N)
        return MultiverseCell(spec=spec, estimate=estimate)
    try:
        rho = correlation(sample, spec.corr_method)
        mi_gauss = clamped_gaussian_mi(rho)
        mi_ksg = ksg_mi(sample, k=spec.k)
        statistic = partial(nlr_delta_rows, k=spec.k, corr_method=spec.corr_method)
        entropy = derive_entropy(base_seed, sample.measure_id, spec_id)
        point, interval, p = oracle_bootstrap(sample, statistic, b, entropy)
        icc2 = icc(sample, IccVariant.TWO_WAY_RANDOM)
        icc3 = icc(sample, IccVariant.TWO_WAY_FIXED)
    except (EstimatorError, BootstrapFailureError):
        estimate = ReliabilityEstimate(sample.measure_id, spec_id, n, STATUS_DEGENERATE)
        return MultiverseCell(spec=spec, estimate=estimate)
    estimate = ReliabilityEstimate(
        measure_id=sample.measure_id,
        spec_id=spec_id,
        n=n,
        status=STATUS_OK,
        rho=rho,
        mi_ksg=mi_ksg,
        mi_gauss=mi_gauss,
        nlr_delta=point,
        ci_low=interval.ci_low,
        ci_high=interval.ci_high,
        method=interval.method,
        p=p,
        q=None,
        icc_2_1=icc2.value,
        icc_2_1_low=icc2.ci_low,
        icc_2_1_high=icc2.ci_high,
        icc_3_1=icc3.value,
        headline_pass=headline_pass(interval.ci_low),
    )
    return MultiverseCell(spec=spec, estimate=estimate)


# the grid's (k, method) pairs again at n_min = 2, so that n = k + 1 and
# other tiny samples reach the estimators
LOW_N_MIN_SPECS = [Specification(k, corr, 2) for k in K_GRID for corr in CORR_GRID]


def assert_cells_equal(got, want):
    assert got.spec == want.spec
    for field in fields(ReliabilityEstimate):
        g = getattr(got.estimate, field.name)
        w = getattr(want.estimate, field.name)
        same = g == w or (g != g and w != w)  # NaN is the one value unequal to itself
        assert type(g) is type(w) and same, (got.spec.spec_id, field.name, g, w)


def assert_engine_equals_oracle(specs, sample, base_seed, b):
    cells = run_measure(specs, sample, base_seed, b)
    assert len(cells) == len(specs)
    for spec, cell in zip(specs, cells):
        assert_cells_equal(cell, oracle_cell(spec, sample, base_seed, b))
        assert_cells_equal(run_measure([spec], sample, base_seed, b)[0], cell)
    return cells


# n below, at and above each n_min; n = k + 1 for every k; tiny samples
N_CASES = (2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 15, 16, 19, 20, 21)


@st.composite
def measure_samples(draw):
    n = draw(st.sampled_from(N_CASES) | st.integers(2, 40), label="n")
    kind = draw(st.sampled_from(["gauss", "tied", "ceiling", "constant"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "gauss":
        return gauss_pairs(rng, n, rho=draw(st.floats(-0.95, 0.95), label="rho"))
    # accuracy-like proportions of a few trials, so scores tie
    trials = draw(st.integers(1, 10), label="trials")
    x2 = rng.integers(0, trials + 1, size=n)
    if kind == "constant":
        x1 = np.full(n, trials)
    elif kind == "ceiling":
        # one subject off the ceiling: its deletion leaves a constant session
        x1 = np.full(n, trials)
        x1[rng.integers(n)] = trials - 1
    else:
        x1 = np.clip(x2 + rng.integers(-1, 2, size=n), 0, trials)
    return make_sample(x1 / trials, x2 / trials)


@settings(max_examples=60, deadline=None)
@given(
    sample=measure_samples(),
    base_seed=st.integers(0, 2**31 - 1),
    b=st.integers(1, 30),
)
def test_engine_equals_per_cell_path(sample, base_seed, b):
    assert_engine_equals_oracle(build_grid() + LOW_N_MIN_SPECS, sample, base_seed, b)


@pytest.mark.parametrize("k", K_GRID)
def test_engine_at_n_k_plus_1_falls_back_to_percentile(k):
    # n - 1 = k pairs admit no KSG estimate, so every deletion is dropped
    sample = gauss_pairs(np.random.default_rng(k), k + 1, rho=0.5)
    specs = [Specification(k, corr, k + 1) for corr in CORR_GRID]
    cells = assert_engine_equals_oracle(specs, sample, 5, 100)
    assert [c.estimate.method for c in cells] == ["percentile_fallback"] * 2


def test_engine_on_constant_session_is_degenerate():
    sample = make_sample([0.5] * 12, np.linspace(0.0, 1.0, 12))
    cells = assert_engine_equals_oracle(build_grid() + LOW_N_MIN_SPECS, sample, 3, 20)
    assert {c.estimate.status for c in cells} == {STATUS_DEGENERATE, STATUS_INSUFFICIENT_N}


@pytest.mark.parametrize("n", [113, 114, 181, 182])
def test_engine_across_the_block_boundary(n, monkeypatch):
    # from n = 114 on the deletion rows are wider than a window (112 points)
    # and their KSG terms come from the observed sample's nearest
    # neighbours; at n = 113 they are counted all pairs. From n = 182 on
    # one sample's distance matrix no longer fits a count block; at n = 181
    # the deletion rows (180 pairs) still do
    calls = []
    nearest_others = estimators._nearest_others

    def spy(z1, z2, size):
        calls.append(size)
        return nearest_others(z1, z2, size)

    monkeypatch.setattr(estimators, "_nearest_others", spy)
    sample = gauss_pairs(np.random.default_rng(n), n, rho=0.4)
    cells = assert_engine_equals_oracle(build_grid(), sample, 9, 6)
    assert {c.estimate.status for c in cells} == {STATUS_OK}
    assert bool(calls) == (n > 113)
