"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from tracer import TARGETS, Span, SpanTable, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, write_workspace  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    workload = WORKLOADS["large_n"]
    a = _files(write_workspace(tmp_path / "a", workload, 7))
    b = _files(write_workspace(tmp_path / "b", workload, 7))
    c = _files(write_workspace(tmp_path / "c", workload, 8))
    assert a == b
    assert set(a) == set(c)
    assert a["data/processed/long.csv"] != c["data/processed/long.csv"]
    assert "data/processed/SYNTHETIC_DATA" in a
    lines = a["data/processed/long.csv"].decode().splitlines()
    assert len(lines) - 1 == workload.subjects * 2 * 2 * workload.trials_per_cell


def test_generated_workspace_passes_the_workspace_gate_checks(tmp_path):
    from reliakit.provenance import run_gate

    ws = write_workspace(tmp_path / "ws", WORKLOADS["trial_heavy"], 3)
    report = run_gate("smoke", ws, tmp_path / "no-outputs")
    passed = {c.id for c in report.checks if c.passed}
    assert {"R1", "R3", "R4", "R5", "R6"} <= passed
    samples = oracle.paired_samples(ws)
    assert sorted(samples) == ["flanker_accuracy", "flanker_contrast", "flanker_meanrt"]
    assert all(x1.size == 40 for x1, _ in samples.values())


def _tracer_with(spans: list[tuple[str, float, float, int, dict | None]]) -> Tracer:
    tracer = Tracer()
    for name, start, end, parent, info in spans:
        span = Span(name, start, parent)
        span.end = end
        span.info = info
        tracer.spans.append(span)
    return tracer


def test_self_time_arithmetic_on_a_span_tree():
    tracer = _tracer_with(
        [
            ("pipeline.cmd_run", 0.0, 10.0, -1, None),
            ("bootstrap.resample_statistic", 1.0, 9.0, 0, {"replicates": 2, "dropped": 1}),
            ("bootstrap.replicate_rng", 1.0, 2.0, 1, None),
            ("estimators.nlr", 2.0, 5.0, 1, None),
            ("estimators.ksg_mi", 2.5, 4.5, 3, None),
            ("bootstrap.replicate_rng", 5.0, 6.0, 1, None),
            ("estimators.nlr", 6.0, 9.0, 1, None),
            ("provenance.run_gate", 11.0, 11.5, -1, None),
        ]
    )
    selfs = SpanTable(tracer.spans).self_times()
    np.testing.assert_allclose(selfs, [2.0, 0.0, 1.0, 1.0, 2.0, 1.0, 3.0, 0.5])
    metrics = layer_metrics(tracer, table_rows=0, out_bytes=5)
    assert metrics["pipeline.glue_s"] == [2.0, "s"]
    assert metrics["bootstrap.resample_s"] == [8.0, "s"]
    # wrapper time minus the statistic's time: the rng calls stay in
    assert metrics["bootstrap.self_s"] == [2.0, "s"]
    assert metrics["bootstrap.rng_s"] == [2.0, "s"]
    assert metrics["bootstrap.useful_frac"] == [0.5, "frac"]
    assert metrics["estimators.ksg_calls"] == [1.0, "count"]
    assert metrics["provenance.gate_s"] == [0.5, "s"]
    assert metrics["outputs.bytes"] == [5.0, "count"]
    assert metrics["ingest.read_s"] == [0.0, "s"]
    assert metrics["ingest.rows_per_s"] is None  # no read to divide by


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod defines f; fakepkg.user from-imports it."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    mod.f = f
    user.f = f
    user.call = lambda x: user.f(x)
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user, f


def test_every_binding_is_traced_and_absent_targets_are_reported(fake_package):
    mod, user, f = fake_package
    tracer = Tracer(
        {"mod.f": lambda args, kwargs, result: {"bad": 1 / 0}, "mod.gone": None, "missing.g": None},
        package="fakepkg",
    )
    tracer.install()
    assert mod.f(1) == 2 and user.call(2) == 3
    assert [s.name for s in tracer.spans] == ["mod.f", "mod.f"]
    assert sorted(tracer.absent) == ["missing.g", "mod.gone"]
    assert tracer.probe_failures == {"mod.f"}
    tracer.uninstall()
    assert mod.f is f and user.f is f


def test_metrics_of_absent_targets_are_absent_not_errors(fake_package):
    tracer = Tracer(TARGETS, package="fakepkg")
    tracer.install()
    assert sorted(tracer.absent) == sorted(TARGETS)
    metrics = layer_metrics(tracer, table_rows=10, out_bytes=3)
    assert metrics.pop("outputs.bytes") == [3.0, "count"]
    assert all(value is None for value in metrics.values())


def test_oracle_flags_a_changed_point_estimate(tmp_path):
    ws = write_workspace(tmp_path / "ws", WORKLOADS["large_n"], 1)
    expected = oracle.expected_cells(ws)
    want = expected[(oracle.DEFAULT_SPEC, "flanker_contrast")]
    out = tmp_path / "out"
    out.mkdir()
    header = "measure_id,n,rho,mi_ksg,mi_gauss,nlr_delta,status\n"
    row = [want["n"], want["rho"], want["mi_ksg"], want["mi_gauss"], want["nlr_delta"]]
    body = "flanker_contrast," + ",".join("%.17g" % v for v in row) + ",ok\n"
    (out / "per_measure_results.csv").write_text(header + body)
    assert oracle.check_outputs(out, expected, ("run",)) == []
    row[4] += 1e-6
    body = "flanker_contrast," + ",".join("%.17g" % v for v in row) + ",ok\n"
    (out / "per_measure_results.csv").write_text(header + body)
    assert len(oracle.check_outputs(out, expected, ("run",))) == 1
