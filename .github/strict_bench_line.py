"""Fail unless the last line of a benchmark report is strict JSON with
"correct": true.

Usage: python3 .github/strict_bench_line.py REPORT

REPORT is the standard output of perfbench/run.py. Its last line must parse
with json.loads and no NaN or Infinity constant, which Python's json module
would otherwise accept, and must hold "correct": true.
"""

import json
import sys


def reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def main(path: str) -> int:
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
    print(f"{path}: strict JSON, correct: true")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
