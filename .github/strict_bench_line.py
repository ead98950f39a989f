"""Fail unless the last line of a benchmark report is strict JSON with
"correct": true and every metric the benchmark declares for its trace mode.

Usage: python3 .github/strict_bench_line.py REPORT BENCHMARK_JSON TRACE

REPORT is the standard output of perfbench/run.py, BENCHMARK_JSON the
benchmark declaration and TRACE the --trace mode of the run (0 or 1). The
report's last line must parse with json.loads and no NaN or Infinity
constant, which Python's json module would otherwise accept, and must hold
"correct": true. Its "metrics" must hold every "end_to_end" metric of
BENCHMARK_JSON (trace 0) or every "per_layer" metric (trace 1), each with a
finite number as its value: a metric whose traced target is gone is dropped
from the line, and this check is what notices.
"""

import json
import math
import sys


def reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def is_finite_number(entry) -> bool:
    value = entry.get("value") if isinstance(entry, dict) else None
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def missing_metrics(result: dict, names: list[str]) -> list[str]:
    """The names whose metric is absent or not a finite number."""
    metrics = result.get("metrics")
    metrics = metrics if isinstance(metrics, dict) else {}
    return [name for name in names if not is_finite_number(metrics.get(name))]


def main(path: str, benchmark: str, trace: str) -> int:
    if trace not in ("0", "1"):
        print(f"trace must be 0 or 1, got {trace!r}")
        return 2
    with open(benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        print(f"{path}: empty report")
        return 1
    try:
        result = json.loads(lines[-1], parse_constant=reject_constant)
    except ValueError as exc:
        print(f"{path}: last line is not strict JSON: {exc}")
        return 1
    if not isinstance(result, dict) or result.get("correct") is not True:
        print(f"{path}: last line does not hold \"correct\": true")
        return 1
    bad = missing_metrics(result, names)
    if bad:
        print(f"{path}: {len(bad)} of {len(names)} metrics absent or not finite: {', '.join(bad)}")
        return 1
    print(f"{path}: strict JSON, correct: true, all {len(names)} trace {trace} metrics finite")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        print("usage: python3 .github/strict_bench_line.py REPORT BENCHMARK_JSON TRACE")
        sys.exit(2)
    sys.exit(main(*sys.argv[1:]))
