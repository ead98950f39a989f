"""The CI check on the last line of a benchmark report."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "strict_bench_line", ROOT / ".github" / "strict_bench_line.py"
)
strict_bench_line = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(strict_bench_line)

BENCHMARK = ROOT / "BENCHMARK.json"


def declared(kind):
    return [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))[kind]]


def check(tmp_path, last_line, trace):
    report = tmp_path / "report.out"
    report.write_text("# a report line\n" + last_line + "\n", encoding="utf-8")
    return strict_bench_line.main(str(report), str(BENCHMARK), trace)


def line(names, **override):
    metrics = {n: {"value": 1.5, "unit": "s"} for n in names}
    metrics.update(override)
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_complete_line_passes(tmp_path, trace, kind):
    assert check(tmp_path, line(declared(kind)), trace) == 0


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_missing_metric_fails(tmp_path, capsys, trace, kind):
    names = declared(kind)
    assert check(tmp_path, line(names[1:]), trace) == 1
    assert names[0] in capsys.readouterr().out


@pytest.mark.parametrize("value", [None, True, "1.5", 1e999])
def test_non_finite_or_non_numeric_value_fails(tmp_path, value):
    names = declared("end_to_end")
    text = line(names, run_s={"value": value, "unit": "s"})
    # json.dumps writes 1e999 (inf) as Infinity, which strict parsing refuses;
    # written as a number literal it parses to inf and must still fail
    text = text.replace("Infinity", "1e999")
    assert check(tmp_path, text, "0") == 1


def test_traced_line_needs_per_layer_metrics(tmp_path):
    assert check(tmp_path, line(declared("end_to_end")), "1") == 1


@pytest.mark.parametrize(
    "last_line",
    ['{"correct": false, "metrics": {}}', '{"correct": true, "x": NaN}', "not json"],
)
def test_incorrect_or_non_strict_line_fails(tmp_path, last_line):
    assert check(tmp_path, last_line, "0") == 1
