"""The benchmark's layer tracer finds every function it names.

perfbench/tracer.py traces reliakit's functions by module and name, and a
name it cannot find makes that layer's metrics absent. Renaming a traced
function (ksg_mi, pearson, jackknife_values, replicate_rng, ...) must fail
here, not only in the traced benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the package no longer has a kdtree count path; the tracer still names it
GONE = {"estimators._ksg_counts_kdtree"}


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        assert set(traced.absent) <= GONE
    finally:
        traced.uninstall()
