"""One repetition of a workload, run in a fresh interpreter.

Usage: python3 perfbench/rep.py JOB_JSON

The job names the workspace, output directory, seed, B, workers, the
commands to run and whether to trace. Timing starts before ``import
reliakit``, so set-up includes what a command-line user pays for imports and
for materializing the smoke fixture. The result, including the output
digests and the checks that need the package (the gate and its schema
validators), is written as JSON to the job's ``result`` path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# checks a run-only output directory cannot pass: they need multiverse outputs
MULTIVERSE_ONLY_CHECKS = {"R2", "R8", "R9"}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _gate_problems(provenance, outputs, job: dict) -> list[str]:
    report = provenance.run_gate("smoke", Path(job["workspace"]), Path(job["out"]))
    waived = set() if "multiverse" in job["commands"] else MULTIVERSE_ONLY_CHECKS
    problems = [
        f"gate {c.id} {c.name}: {c.detail}"
        for c in report.checks
        if not c.skipped and not c.passed and c.id not in waived
    ]
    if "multiverse" not in job["commands"]:
        # the run's own outputs still go through the gate's schema validators
        out = Path(job["out"])
        for validate, name in (
            (outputs.validate_summary_json, outputs.SUMMARY_JSON),
            (outputs.validate_per_measure_csv, outputs.PER_MEASURE_CSV),
            (outputs.validate_provenance_json, outputs.PROVENANCE_JSON),
        ):
            try:
                validate(out / name)
            except Exception as exc:  # any failure of a validator is a finding
                problems.append(f"schema {name}: {exc}")
    return problems


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import reliakit
    from reliakit import fixtures, outputs, pipeline, provenance

    if not job["generated"]:
        fixtures.ensure_smoke_workspace(job["workspace"])
    result: dict = {"setup_s": time.perf_counter() - t0, "attempted": [], "commands": {}, "problems": []}
    if Path(reliakit.__file__).resolve().parent != Path(job["package"]).resolve():
        result["problems"].append(f"imported reliakit from {reliakit.__file__}")
    if not job["commands"]:
        Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = pipeline.RunConfig(
        mode="smoke",
        workspace=job["workspace"],
        out_dir=job["out"],
        base_seed=job["seed"],
        bootstrap_b=job["b"],
        workers=job["workers"],
    )
    try:
        for command in job["commands"]:
            fn = {"run": pipeline.cmd_run, "multiverse": pipeline.cmd_multiverse}[command]
            result["attempted"].append(command)
            start = time.perf_counter()
            fn(config)
            result["commands"][command] = time.perf_counter() - start
        result["peak_rss_mb"] = _peak_rss_mb()
        result["problems"] += _gate_problems(provenance, outputs, job)
    except Exception:
        result["problems"].append(traceback.format_exc())

    out = Path(job["out"])
    result["digests"] = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in outputs.DIGESTED_OUTPUTS
        if (out / name).is_file()
    }
    if tracer is not None:
        from tracer import layer_metrics, self_time_by_function

        tracer.uninstall()
        table = Path(job["workspace"]) / "data" / "processed" / "long.csv"
        with open(table, "rb") as fh:
            table_rows = sum(1 for _ in fh) - 1
        out_bytes = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        result["layers"] = layer_metrics(tracer, table_rows, out_bytes)
        result["self_s"] = self_time_by_function(tracer)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
