"""reliakit benchmark: end-to-end times per command and a traced run per layer.

Usage:
    python3 perfbench/run.py --workload {smoke,large_n,trial_heavy,all} \\
        --seed N --seconds S --trace {0,1} [--record FILE]

Run it from the root of a checkout; the package is imported from ``src/``.
Inputs are made from ``--seed`` before any clock starts. Each repetition
runs in a fresh interpreter (``rep.py``), one at a time, with at most
min(2, nproc) workers. Repetitions repeat until ``--seconds`` is used up
and every metric is a median over them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs sets of
three repetitions (untraced serial, traced serial, untraced pooled) and
reports the per-layer metrics of the traced one, the tracing overhead and
the pool speed-up. Every repetition's outputs are checked: the promotion
gate, an independent oracle for every cell's point estimates, n and status,
and byte identity of the digested outputs across repetitions, worker counts
and tracing. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. ``--record FILE`` also merges
the full result set into FILE (``baseline.json`` holds the seed commit's).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import oracle
from workloads import WORKLOADS, write_workspace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "reliakit"
WORK = HERE / "_work"
BASELINE = HERE / "baseline.json"
SETUP_SAMPLES = 7  # set-up is measured at least this often per run
HARD_LIMIT_S = 150.0  # no repetition starts that would end after this


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_child(job: dict, result_path: Path, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result.
    The child gets its own process group, so a timeout also ends its pool
    workers."""
    job = dict(job, result=str(result_path), package=str(PACKAGE))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = "timeout"
    wall = time.perf_counter() - start
    if code != 0 or not result_path.is_file():
        return {"wall": wall, "attempted": job["commands"], "commands": {}, "digests": {},
                "problems": [f"repetition exited with {code}"]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall"] = wall
    return result


class WorkloadRun:
    """One benchmark run of one workload: its repetitions and checks."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool, nproc: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.nproc = nproc
        self.work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._expected = None
        self._digests = None
        self._count = 0
        self._start = 0.0

    def _job(self, commands: tuple[str, ...], workers: int, trace: bool) -> dict:
        self._count += 1
        ws = self.work / "ws" if self.workload.generated else self.work / f"ws-{self._count}"
        return {
            "workspace": str(ws),
            "out": str(self.work / f"out-{self._count}"),
            "generated": self.workload.generated,
            "seed": self.seed,
            "b": self.workload.b,
            "workers": workers,
            "commands": list(commands),
            "trace": trace,
        }

    def _run(self, commands, workers: int, trace: bool) -> dict:
        job = self._job(commands, workers, trace)
        timeout = max(1.0, HARD_LIMIT_S + 20.0 - (time.perf_counter() - self._start))
        rep = run_child(job, self.work / f"result-{self._count}.json", timeout)
        if "setup_s" in rep:
            self.setup_samples.append(rep["setup_s"])
        if commands:
            self._check(rep, job)
        return rep

    def _check(self, rep: dict, job: dict) -> None:
        problems = list(rep["problems"])
        if not problems:
            if self._expected is None:
                self._expected = oracle.expected_cells(Path(job["workspace"]))
            problems += oracle.check_outputs(Path(job["out"]), self._expected, self.workload.commands)
            if self._digests is None:
                self._digests = rep["digests"]
            elif rep["digests"] != self._digests:
                problems.append(
                    f"digested outputs differ from the first repetition "
                    f"(workers {job['workers']}, traced {job['trace']})"
                )
        self.attempted += len(rep["attempted"])
        if problems:
            self.failed += len(rep["attempted"])
            self.problems += problems

    def execute(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            if self.workload.generated:
                write_workspace(self.work / "ws", self.workload, self.seed)
            self._start = time.perf_counter()
            # warm-up: a first import after a pause reads cold caches, which
            # a user who runs the commands repeatedly does not pay
            self._run((), 1, False)
            self.setup_samples.clear()
            pooled = min(2, self.nproc)
            walls: list[float] = []
            while True:
                t = time.perf_counter()
                if self.trace:
                    self.reps.append(
                        {
                            "serial": self._run(self.workload.commands, 1, False),
                            "traced": self._run(self.workload.commands, 1, True),
                            "pooled": self._run(self.workload.commands, pooled, False),
                        }
                    )
                else:
                    workers = self.workload.resolved_workers(self.nproc)
                    self.reps.append(self._run(self.workload.commands, workers, False))
                walls.append(time.perf_counter() - t)
                elapsed = time.perf_counter() - self._start
                typical = statistics.median(walls)
                if elapsed + typical / 2 > self.seconds or elapsed + typical > HARD_LIMIT_S:
                    break
            while not self.trace and len(self.setup_samples) < SETUP_SAMPLES:
                self._run((), 1, False)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def end_to_end(self) -> dict:
        """name -> (median, unit, samples) over the repetitions that passed
        every check. multiverse_s is printed but not a benchmark metric:
        large_n runs no multiverse."""
        ok = [r for r in self.reps if not r["problems"]]
        if not ok:
            return {}
        n = len(ok)
        metrics = {
            "setup_s": (statistics.median(self.setup_samples), "s", len(self.setup_samples)),
            "run_s": (statistics.median(r["commands"]["run"] for r in ok), "s", n),
            "cells_per_s": (
                statistics.median(self.workload.cells / sum(r["commands"].values()) for r in ok),
                "1/s",
                n,
            ),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB", n),
        }
        if "multiverse" in self.workload.commands:
            metrics["multiverse_s"] = (statistics.median(r["commands"]["multiverse"] for r in ok), "s", n)
        return metrics

    def _passed_sets(self) -> list[dict]:
        return [s for s in self.reps if not any(r["problems"] for r in s.values())]

    def per_layer(self) -> dict:
        """name -> (median, unit, samples) over the sets that passed every
        check, or None for a metric whose traced target is gone."""
        sets = self._passed_sets()
        if not sets:
            return {}
        n = len(sets)
        metrics = {}
        for name in sets[0]["traced"]["layers"]:
            values = [s["traced"]["layers"][name] for s in sets]
            metrics[name] = None if None in values else (statistics.median(v[0] for v in values), values[0][1], n)

        def ratio(a: str, b: str) -> float:
            return statistics.median(
                sum(s[a]["commands"].values()) / sum(s[b]["commands"].values()) for s in sets
            )

        metrics["pipeline.pool_speedup"] = (ratio("serial", "pooled"), "ratio", n)
        metrics["trace.overhead_frac"] = (ratio("traced", "serial") - 1.0, "frac", n)
        return metrics

    def command_times(self) -> dict:
        """Median seconds of each command, per kind of repetition in the sets."""
        sets = self._passed_sets()
        if not sets:
            return {}
        return {
            kind: {c: statistics.median(s[kind]["commands"][c] for s in sets) for c in self.workload.commands}
            for kind in sets[0]
        }

    def self_times(self) -> tuple[dict, float]:
        """Median self seconds per traced function, and the median traced
        wall time of the commands they should account for."""
        traced = [s["traced"] for s in self._passed_sets()]
        if not traced:
            return {}, 0.0
        names = traced[0]["self_s"]
        table = {k: statistics.median(r["self_s"].get(k, 0.0) for r in traced) for k in names}
        return table, statistics.median(sum(r["commands"].values()) for r in traced)


def summarize(run: WorkloadRun, host: dict) -> dict:
    metrics = run.per_layer() if run.trace else run.end_to_end()
    first = next(iter(run.reps), {})
    digests = (first.get("traced") if run.trace else first) or {}
    summary = {
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "host": host,
        "repetitions": len(run.reps),
        "metrics": {k: v and {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ops_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems,
        "digests": digests.get("digests", {}),
        "digests_match_reference": None,
    }
    try:
        reference = json.loads(BASELINE.read_text(encoding="utf-8"))["results"][run.workload.name]["trace0"]
    except (OSError, KeyError, ValueError):
        reference = None
    if reference is not None and reference["seed"] == run.seed:
        summary["digests_match_reference"] = reference["digests"] == summary["digests"]
    if run.trace:
        summary["commands_s"] = run.command_times()
        summary["self_s"], summary["traced_commands_s"] = run.self_times()
    else:
        summary["samples"] = {
            "setup_s": run.setup_samples,
            "commands_s": [r["commands"] for r in run.reps],
            "peak_rss_mb": [r.get("peak_rss_mb") for r in run.reps],
        }
    return summary


def print_report(summary: dict) -> None:
    host = summary["host"]
    print(
        f"# {summary['workload']}: seed {summary['seed']}, {summary['seconds']} s, trace {summary['trace']}, "
        f"{summary['repetitions']} repetition{'s' if summary['repetitions'] != 1 else ''}; "
        f"nproc {host['nproc']}, {host['cpu']}, python {host['python']}, "
        f"numpy {host['numpy']}, scipy {host['scipy']}"
    )
    for name, m in summary["metrics"].items():
        if m is None:
            print(f"{name:32s} absent (traced target gone)")
        else:
            print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} median of {m['samples']}")
    for kind, times in summary.get("commands_s", {}).items():
        print(f"# {kind} repetition: " + ", ".join(f"{c} {t:.4g} s" for c, t in times.items()))
    if summary["trace"] and summary["self_s"]:
        wall = summary["traced_commands_s"]
        accounted = sum(summary["self_s"].values())
        print(f"# self time inside the commands (traced wall {wall:.4g} s):")
        for name, value in sorted(summary["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {name:40s} {value:10.4g} s {100 * value / wall:6.1f}%")
        print(f"# stage self times + glue = {accounted:.4g} s = {100 * accounted / wall:.1f}% of traced wall")
    print(
        f"failed_ops_frac                  {summary['failed_ops_frac']:14.6g} frac   "
        f"({summary['failed']} of {summary['attempted']} commands)"
    )
    for problem in summary["problems"][:10]:
        print(f"# check failed: {problem.strip()}")
    if len(summary["problems"]) > 10:
        print(f"# ... and {len(summary['problems']) - 10} more failed checks")
    if not summary["problems"]:
        print("# checks passed: gate, oracle point estimates/n/status, byte identity across repetitions")
    match = summary["digests_match_reference"]
    print(f"# digests match the seed commit's reference: {'n/a (not its seed)' if match is None else match}")


def result_line(summary: dict, names: list[str]) -> dict:
    metrics = summary["metrics"]
    return {
        "correct": summary["failed"] == 0 and not summary["problems"] and all(n in metrics for n in names),
        "attempted": max(summary["attempted"], 1),
        "failed": summary["failed"] if summary["attempted"] else 1,
        "metrics": {
            n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names if metrics.get(n)
        },
    }


def record(path: Path, summary: dict) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"results": {}}
    doc["results"].setdefault(summary["workload"], {})[f"trace{summary['trace']}"] = summary
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", type=Path, help="merge the full result set into this JSON file")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no reliakit sources under {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    host = host_info()
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run = WorkloadRun(name, args.seed, args.seconds, bool(args.trace), host["nproc"])
        run.execute()
        summary = summarize(run, host)
        print_report(summary)
        if args.record:
            record(args.record, summary)
        print(json.dumps(result_line(summary, names)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
