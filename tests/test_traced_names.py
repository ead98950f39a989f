"""The benchmark's layer tracer finds every function it names.

perfbench/tracer.py traces reliakit's functions by module and name, and a
name it cannot find makes that layer's metrics absent. Renaming a traced
function (ksg_mi, pearson, jackknife_values, replicate_rng, ...) must fail
here, not only in the traced benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# functions the package no longer has that the tracer still names; no
# per-layer metric reads them
GONE = {
    "estimators._ksg_counts_kdtree",
    "bootstrap.bootstrap_estimate",
    "estimators.nlr",
}


def _metric_targets(tracer) -> set[str]:
    """Every target some per-layer metric needs."""
    names = (
        tracer.READ, tracer.BUILD, tracer.KSG, tracer.CORR, tracer.ICC, tracer.RESAMPLE,
        tracer.JACKKNIFE, tracer.RNG, tracer.CELL, tracer.SUMMARIZE, tracer.APPLY,
        tracer.WRITE, tracer.BUILD_PROVENANCE, tracer.GATE, tracer.SHA, tracer.COMMANDS,
    )
    return {target for name in names for target in ((name,) if isinstance(name, str) else name)}


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        assert set(traced.absent) <= GONE
        assert not set(traced.absent) & _metric_targets(tracer)
    finally:
        traced.uninstall()
