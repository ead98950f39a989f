"""Canonical output rendering and schema validation.

Every byte the pipeline emits is pinned: floats render as %.17g
(round-trip safe), JSON is sorted-key with two-space indent and a trailing
newline, text files are UTF-8 with LF line endings. The schema validators
below are the same ones the promotion gate runs, so the writer and the
verifier cannot drift apart.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

from .errors import SchemaError
from .inference import STATUSES, ReliabilityEstimate

PER_MEASURE_CSV = "per_measure_results.csv"
SUMMARY_JSON = "summary.json"
MULTIVERSE_CSV = "multiverse_results.csv"
MULTIVERSE_SUMMARY_JSON = "multiverse_summary.json"
INGEST_EVIDENCE_JSON = "ingest_evidence.json"
PROVENANCE_JSON = "provenance.json"
GATE_REPORT_JSON = "gate_report.json"

# Outputs whose digests provenance records; gate_report and provenance
# itself stay out (the gate writes one, the other cannot self-hash).
DIGESTED_OUTPUTS = (
    PER_MEASURE_CSV,
    SUMMARY_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    INGEST_EVIDENCE_JSON,
)

# the digested outputs each command writes
COMMAND_OUTPUTS = {
    "run": (PER_MEASURE_CSV, SUMMARY_JSON, INGEST_EVIDENCE_JSON),
    "multiverse": (MULTIVERSE_CSV, MULTIVERSE_SUMMARY_JSON, INGEST_EVIDENCE_JSON),
}

PER_MEASURE_COLUMNS = (
    "measure_id",
    "n",
    "rho",
    "mi_ksg",
    "mi_gauss",
    "nlr_delta",
    "ci_low",
    "ci_high",
    "method",
    "p",
    "q",
    "icc_2_1",
    "icc_2_1_low",
    "icc_2_1_high",
    "icc_3_1",
    "status",
    "headline_pass",
)

MULTIVERSE_COLUMNS = (
    "spec_id",
    "k",
    "corr_method",
    "n_min",
    "measure_id",
    "n",
    "nlr_delta",
    "ci_low",
    "ci_high",
    "status",
    "headline_pass",
)

SUMMARY_KEYS = (
    "q_star",
    "n_primary",
    "counts",
    "pass_count",
    "nlr_delta_median",
    "nlr_delta_iqr",
    "ci_width_median",
    "mde_median",
    "min_q",
    "icc_2_1_median",
    "icc_2_1_iqr",
)

MULTIVERSE_SUMMARY_KEYS = ("grand", "by_k", "by_corr", "by_n_min")

PROVENANCE_KEYS = (
    "run_mode",
    "toolchain_versions",
    "input_digests",
    "outputs",
    "timestamp",
)

PROVENANCE_OUTPUT_KEYS = ("sha256", "command", "base_seed", "bootstrap_b")

_SPEC_ID_RE = re.compile(r"^k(\d+)_(pearson|spearman)_nmin(\d+)$")


def fmt_float(value: float) -> str:
    return "%.17g" % value


def render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


@contextmanager
def _replacing(path: Path, newline: str):
    """Open a temporary sibling of `path` for writing and move it onto
    `path` with os.replace once it is complete. A command that dies mid-write
    leaves the old file whole (or none), never a truncated one; the
    pipeline writes provenance.json last, so its digests vouch only for
    files that were finished."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: Path, text: str) -> None:
    with _replacing(path, "\n") as fh:
        fh.write(text)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path: Path, obj) -> None:
    write_text(path, canonical_json(obj))


def write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with _replacing(path, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def per_measure_row(est: ReliabilityEstimate) -> list[str]:
    return [render_cell(getattr(est, column)) for column in PER_MEASURE_COLUMNS]


def multiverse_row(spec, est: ReliabilityEstimate) -> list[str]:
    """k, corr_method and n_min from the specification, every other column
    from the estimate."""
    axes = {"k": spec.k, "corr_method": spec.corr_method.value, "n_min": spec.n_min}
    return [render_cell(axes[c] if c in axes else getattr(est, c)) for c in MULTIVERSE_COLUMNS]


# ---------------------------------------------------------------------------
# validators (used by the promotion gate)


def _read_csv(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    if not path.is_file():
        raise SchemaError(f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != columns:
            raise SchemaError(
                f"{path.name}: header mismatch, got {reader.fieldnames}"
            )
        return list(reader)


def _require_float(row: dict[str, str], col: str, where: str) -> float:
    raw = row[col]
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: column {col!r} is not a float: {raw!r}") from None


def _require_empty(row: dict[str, str], cols: tuple[str, ...], where: str) -> None:
    for col in cols:
        if row[col] != "":
            raise SchemaError(f"{where}: column {col!r} must be empty, got {row[col]!r}")


def _check_common(row: dict[str, str], where: str, value_cols: tuple[str, ...]) -> None:
    status = row["status"]
    if status not in STATUSES:
        raise SchemaError(f"{where}: bad status {status!r}")
    if row["headline_pass"] not in ("true", "false"):
        raise SchemaError(f"{where}: bad headline_pass {row['headline_pass']!r}")
    if not row["measure_id"]:
        raise SchemaError(f"{where}: empty measure_id")
    if not row["n"].isdigit():
        raise SchemaError(f"{where}: n is not a non-negative integer: {row['n']!r}")
    if status == "ok":
        ci_low = _require_float(row, "ci_low", where)
        for col in value_cols:
            _require_float(row, col, where)
        expected = "true" if ci_low > 0.0 else "false"
        if row["headline_pass"] != expected:
            raise SchemaError(f"{where}: headline_pass inconsistent with ci_low")
    else:
        _require_empty(row, value_cols + ("ci_low",), where)
        if row["headline_pass"] != "false":
            raise SchemaError(f"{where}: non-ok row with headline_pass true")


def validate_per_measure_csv(path: Path) -> int:
    rows = _read_csv(path, PER_MEASURE_COLUMNS)
    value_cols = (
        "rho",
        "mi_ksg",
        "mi_gauss",
        "nlr_delta",
        "ci_high",
        "p",
        "q",
        "icc_2_1",
        "icc_2_1_low",
        "icc_2_1_high",
        "icc_3_1",
    )
    for i, row in enumerate(rows, start=2):
        where = f"{path.name}:{i}"
        _check_common(row, where, value_cols)
        if row["status"] == "ok":
            if row["method"] not in ("bca", "percentile_fallback"):
                raise SchemaError(f"{where}: bad method {row['method']!r}")
            p = float(row["p"])
            q = float(row["q"])
            if q < p - 1e-15:
                raise SchemaError(f"{where}: q < p")
        elif row["method"] != "":
            raise SchemaError(f"{where}: non-ok row with method set")
    return len(rows)


def validate_multiverse_csv(path: Path) -> int:
    rows = _read_csv(path, MULTIVERSE_COLUMNS)
    value_cols = ("nlr_delta", "ci_high")
    for i, row in enumerate(rows, start=2):
        where = f"{path.name}:{i}"
        match = _SPEC_ID_RE.match(row["spec_id"])
        if not match:
            raise SchemaError(f"{where}: bad spec_id {row['spec_id']!r}")
        if (match.group(1), match.group(2), match.group(3)) != (
            row["k"],
            row["corr_method"],
            row["n_min"],
        ):
            raise SchemaError(f"{where}: spec_id disagrees with spec fields")
        _check_common(row, where, value_cols)
    return len(rows)


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise SchemaError(f"{path.name}: missing")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path.name}: top level must be an object")
    return doc


def _require_keys(doc: dict, keys: tuple[str, ...], name: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SchemaError(f"{name}: missing keys {missing}")


def is_count(value) -> bool:
    """A JSON integer; true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_counts(doc: dict, keys: tuple[str, ...], name: str) -> None:
    """Each of keys, present in doc, holds a count."""
    bad = [key for key in keys if not is_count(doc[key])]
    if bad:
        raise SchemaError(f"{name}: {', '.join(bad)} must be integers")


def _check_optional_number(doc: dict, key: str, name: str) -> None:
    value = doc[key]
    if value is not None and not isinstance(value, (int, float)):
        raise SchemaError(f"{name}: {key} must be a number or null")


def validate_summary_json(path: Path) -> dict:
    doc = _load_json(path)
    _require_keys(doc, SUMMARY_KEYS, path.name)
    _require_counts(doc, ("n_primary", "pass_count"), path.name)
    counts = doc["counts"]
    if not isinstance(counts, dict):
        raise SchemaError(f"{path.name}: counts must be an object")
    _require_keys(counts, ("ok", "insufficient_n", "degenerate"), path.name)
    _require_counts(counts, tuple(counts), f"{path.name}:counts")
    if sum(counts.values()) != doc["n_primary"]:
        raise SchemaError(f"{path.name}: status counts do not partition n_primary")
    for key in ("nlr_delta_median", "ci_width_median", "mde_median", "min_q", "icc_2_1_median"):
        _check_optional_number(doc, key, path.name)
    return doc


def validate_multiverse_summary_json(path: Path) -> dict:
    doc = _load_json(path)
    _require_keys(doc, MULTIVERSE_SUMMARY_KEYS, path.name)
    grand = doc["grand"]
    if not isinstance(grand, dict):
        raise SchemaError(f"{path.name}: grand must be an object")
    grand_counts = ("total_cells", "estimable", "insufficient_n", "degenerate", "pass_count")
    _require_keys(grand, grand_counts, path.name)
    _require_counts(grand, grand_counts, f"{path.name}:grand")
    parts = grand["estimable"] + grand["insufficient_n"] + grand["degenerate"]
    if parts != grand["total_cells"]:
        raise SchemaError(f"{path.name}: statuses do not partition total_cells")
    for axis in ("by_k", "by_corr", "by_n_min"):
        if not isinstance(doc[axis], dict) or not doc[axis]:
            raise SchemaError(f"{path.name}: {axis} must be a non-empty object")
        for level, entry in doc[axis].items():
            where = f"{path.name}:{axis}:{level}"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: must be an object")
            _require_keys(entry, ("median_nlr_delta", "pass_count", "estimable"), where)
            _require_counts(entry, ("pass_count", "estimable"), where)
    return doc


def validate_provenance_json(path: Path) -> dict:
    doc = _load_json(path)
    _require_keys(doc, PROVENANCE_KEYS, path.name)
    if doc["run_mode"] not in ("smoke", "final"):
        raise SchemaError(f"{path.name}: bad run_mode {doc['run_mode']!r}")
    for key in ("toolchain_versions", "input_digests"):
        block = doc[key]
        if not isinstance(block, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in block.items()
        ):
            raise SchemaError(f"{path.name}: {key} must map strings to strings")
    if not isinstance(doc["outputs"], dict):
        raise SchemaError(f"{path.name}: outputs must be an object")
    for name, entry in doc["outputs"].items():
        where = f"{path.name}:outputs:{name}"
        if name not in DIGESTED_OUTPUTS:
            raise SchemaError(f"{where}: not a digested output")
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        _require_keys(entry, PROVENANCE_OUTPUT_KEYS, where)
        if not isinstance(entry["sha256"], str):
            raise SchemaError(f"{where}: sha256 must be a string")
        if entry["command"] not in COMMAND_OUTPUTS:
            raise SchemaError(f"{where}: bad command {entry['command']!r}")
        if not isinstance(entry["base_seed"], int):
            raise SchemaError(f"{where}: base_seed must be an integer")
        if not isinstance(entry["bootstrap_b"], int) or entry["bootstrap_b"] < 1:
            raise SchemaError(f"{where}: bootstrap_b must be a positive integer")
    if not isinstance(doc["timestamp"], str) or "T" not in doc["timestamp"]:
        raise SchemaError(f"{path.name}: timestamp must be ISO-8601")
    return doc
