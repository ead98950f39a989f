"""Outside-in tracer for reliakit's layers.

The tracer changes no file of the package. It replaces each traced function
at every module-level binding of that function object in ``reliakit.*``:
because of from-imports, ``run_cell`` is called through
``reliakit.pipeline``, ``nlr`` through ``reliakit.multiverse`` and
``sha256_file`` from five modules, and all of those calls must be seen.

Each call becomes a span with its parent, so a span's self time is its
duration minus the durations of its children (calls nest, so children never
overlap). A target that no longer exists is recorded as absent, and every
metric that needs it is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

PACKAGE = "reliakit"
COMMANDS = ("pipeline.cmd_run", "pipeline.cmd_multiverse")


def _resample_probe(args, kwargs, result):
    values, dropped = result
    return {"replicates": len(values) + dropped, "dropped": dropped}


def _jackknife_probe(args, kwargs, result):
    sample = args[0] if args else kwargs["sample"]
    return {"deletions": sample.n}


def _cell_probe(args, kwargs, result):
    return {"ok": result.estimate.status == "ok"}


def _sha256_probe(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# traced function -> probe that reads counts from its arguments and result
TARGETS = {
    "pipeline.cmd_run": None,
    "pipeline.cmd_multiverse": None,
    "ingest.read_long_csv": None,
    "ingest.build_sample": None,
    "estimators.nlr": None,
    "estimators.ksg_mi": None,
    "estimators._ksg_counts_brute": None,
    "estimators._ksg_counts_kdtree": None,
    "estimators.pearson": None,
    "estimators.spearman": None,
    "estimators._midranks": None,
    "estimators.icc": None,
    "digamma.digamma_table": None,
    "bootstrap.bootstrap_estimate": None,
    "bootstrap.resample_statistic": _resample_probe,
    "bootstrap.jackknife_values": _jackknife_probe,
    "bootstrap.replicate_rng": None,
    "bootstrap.bca_interval": None,
    "multiverse.run_cell": _cell_probe,
    "multiverse.summarize": None,
    "inference.apply_primary_inference": None,
    "outputs.write_csv": None,
    "outputs.write_json": None,
    "provenance.build_provenance": None,
    "provenance.run_gate": None,
    "hashutil.sha256_file": _sha256_probe,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info: dict | None = None


class Tracer:
    """Records a span for every call of the installed targets."""

    def __init__(self, targets: dict = TARGETS, package: str = PACKAGE) -> None:
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.probe_failures: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, probe in self.targets.items():
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, probe)
            prefix = self.package + "."
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != self.package and not mod_name.startswith(prefix):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, wrapper)
                        self._restore.append((mod, binding, fn))

    def uninstall(self) -> None:
        for mod, binding, fn in reversed(self._restore):
            setattr(mod, binding, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, result)
                except Exception:  # a changed signature makes the count absent
                    self.probe_failures.add(name)
            return result

        return traced


READ, BUILD = "ingest.read_long_csv", "ingest.build_sample"
KSG, CORR, ICC = "estimators.ksg_mi", ("estimators.pearson", "estimators.spearman"), "estimators.icc"
RESAMPLE, JACKKNIFE, RNG = "bootstrap.resample_statistic", "bootstrap.jackknife_values", "bootstrap.replicate_rng"
CELL, SUMMARIZE = "multiverse.run_cell", "multiverse.summarize"
APPLY, WRITE = "inference.apply_primary_inference", ("outputs.write_csv", "outputs.write_json")
BUILD_PROVENANCE, GATE, SHA = "provenance.build_provenance", "provenance.run_gate", "hashutil.sha256_file"


class SpanTable:
    """The spans as arrays, for self-time and ancestry arithmetic."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.names = [s.name for s in spans]
        self.duration = np.array([s.end - s.start for s in spans], dtype=np.float64)
        self.parent = np.array([s.parent for s in spans], dtype=np.int64)
        self.has_parent = self.parent >= 0
        self.parent_or_0 = np.where(self.has_parent, self.parent, 0)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        covered = np.zeros(len(self.spans), dtype=np.float64)
        np.add.at(covered, self.parent[self.has_parent], self.duration[self.has_parent])
        return self.duration - covered

    def named(self, names) -> np.ndarray:
        wanted = set(names)
        return np.fromiter((n in wanted for n in self.names), dtype=bool, count=len(self.names))

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Whether each span has an ancestor for which `mask` holds."""
        flags = self.has_parent & mask[self.parent_or_0]
        while True:
            grown = flags | (self.has_parent & flags[self.parent_or_0])
            if np.array_equal(grown, flags):
                return flags
            flags = grown

    def in_commands(self) -> np.ndarray:
        commands = self.named(COMMANDS)
        return commands | self.under(commands)


def layer_metrics(tracer: Tracer, table_rows: int, out_bytes: int) -> dict:
    """Per-layer metrics from the spans inside the traced commands.

    Returns name -> [value, unit]; a metric whose target or probe is gone
    maps to None. `table_rows` (data rows in the processed table) and
    `out_bytes` (bytes in the output directory) are measured by the caller.
    The gate runs outside the commands and only feeds provenance.gate_s.
    """
    table = SpanTable(tracer.spans)
    scope = table.in_commands()
    missing = set(tracer.absent) | tracer.probe_failures

    def pick(*names: str) -> np.ndarray:
        """Outermost spans among `names` within the commands."""
        named = table.named(names)
        return scope & named & ~table.under(named)

    def total(*names: str) -> float:
        return float(table.duration[pick(*names)].sum())

    def count(name: str) -> int:
        return int(pick(name).sum())

    def info_sum(name: str, key: str) -> int:
        return sum(table.spans[i].info[key] for i in np.flatnonzero(pick(name)))

    def quantile(name: str, q: float) -> float:
        return float(np.percentile(table.duration[pick(name)], q))

    def bootstrap_self() -> float:
        # wrapper time minus the statistic's: the wrappers' children outside
        # the bootstrap module are the statistic being resampled
        wrappers = pick(RESAMPLE, JACKKNIFE)
        foreign = ~np.fromiter((n.startswith("bootstrap.") for n in table.names), dtype=bool)
        statistic = table.has_parent & wrappers[table.parent_or_0] & foreign
        return float(table.duration[wrappers].sum() - table.duration[statistic].sum())

    def rows() -> int:
        return table_rows * count(READ)

    # name -> (unit, targets it needs, how to compute it)
    spec = {
        "ingest.read_s": ("s", (READ,), lambda: total(READ)),
        "ingest.build_sample_s": ("s", (BUILD,), lambda: total(BUILD)),
        "ingest.rows": ("count", (READ,), rows),
        "ingest.rows_per_s": ("1/s", (READ,), lambda: rows() / total(READ)),
        "estimators.ksg_calls": ("count", (KSG,), lambda: count(KSG)),
        "estimators.ksg_s": ("s", (KSG,), lambda: total(KSG)),
        "estimators.ksg_ms_p50": ("ms", (KSG,), lambda: 1e3 * quantile(KSG, 50)),
        "estimators.ksg_ms_p99": ("ms", (KSG,), lambda: 1e3 * quantile(KSG, 99)),
        "estimators.corr_s": ("s", CORR, lambda: total(*CORR)),
        "estimators.icc_s": ("s", (ICC,), lambda: total(ICC)),
        "bootstrap.resample_s": ("s", (RESAMPLE,), lambda: total(RESAMPLE)),
        "bootstrap.jackknife_s": ("s", (JACKKNIFE,), lambda: total(JACKKNIFE)),
        "bootstrap.self_s": ("s", (RESAMPLE, JACKKNIFE), bootstrap_self),
        "bootstrap.rng_s": ("s", (RNG,), lambda: total(RNG)),
        "bootstrap.replicates": ("count", (RESAMPLE,), lambda: info_sum(RESAMPLE, "replicates")),
        "bootstrap.dropped": ("count", (RESAMPLE,), lambda: info_sum(RESAMPLE, "dropped")),
        "bootstrap.useful_frac": (
            "frac",
            (RESAMPLE,),
            lambda: 1.0 - info_sum(RESAMPLE, "dropped") / info_sum(RESAMPLE, "replicates"),
        ),
        "bootstrap.jackknife_deletions": ("count", (JACKKNIFE,), lambda: info_sum(JACKKNIFE, "deletions")),
        "multiverse.cells": ("count", (CELL,), lambda: count(CELL)),
        "multiverse.ok_cells": ("count", (CELL,), lambda: info_sum(CELL, "ok")),
        "multiverse.cell_s_p50": ("s", (CELL,), lambda: quantile(CELL, 50)),
        "multiverse.cell_s_p90": ("s", (CELL,), lambda: quantile(CELL, 90)),
        "multiverse.summarize_s": ("s", (SUMMARIZE,), lambda: total(SUMMARIZE)),
        "pipeline.glue_s": (
            "s",
            COMMANDS,
            lambda: float(table.self_times()[table.named(COMMANDS)].sum()),
        ),
        "inference.apply_s": ("s", (APPLY,), lambda: total(APPLY)),
        "outputs.write_s": ("s", WRITE, lambda: total(*WRITE)),
        "outputs.bytes": ("count", (), lambda: out_bytes),
        "provenance.build_s": ("s", (BUILD_PROVENANCE,), lambda: total(BUILD_PROVENANCE)),
        "provenance.gate_s": ("s", (GATE,), lambda: float(table.duration[table.named((GATE,))].sum())),
        "hashutil.sha256_calls": ("count", (SHA,), lambda: count(SHA)),
        "hashutil.sha256_bytes": ("count", (SHA,), lambda: info_sum(SHA, "bytes")),
        "hashutil.sha256_s": ("s", (SHA,), lambda: total(SHA)),
    }
    metrics: dict[str, list | None] = {}
    for name, (unit, needs, compute) in spec.items():
        if missing.intersection(needs):
            metrics[name] = None
            continue
        try:
            metrics[name] = [float(compute()), unit]
        except (ZeroDivisionError, IndexError):
            metrics[name] = None  # nothing to measure, e.g. a percentile of no calls
    return metrics


def self_time_by_function(tracer: Tracer) -> dict[str, float]:
    """Self seconds of each traced function inside the commands. The
    commands' own entries are the glue; the values sum to the commands'
    traced wall time."""
    table = SpanTable(tracer.spans)
    scope = table.in_commands()
    selfs = table.self_times()
    totals: dict[str, float] = {}
    for i in np.flatnonzero(scope):
        name = table.names[i]
        totals[name] = totals.get(name, 0.0) + float(selfs[i])
    return totals
