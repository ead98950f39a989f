"""Canonical output rendering, and the one typed schema of each output.

Every byte the pipeline emits is pinned: floats render as %.17g
(round-trip safe), JSON is sorted-key with two-space indent and a trailing
newline, text files are UTF-8 with LF line endings.

SCHEMAS describes each output's fields once. A CSV schema maps each
column, in file order, to its Kind; a JSON schema maps each key to a Kind,
a nested schema or a MapOf. The CSV writers take their header and column
order from these schemas, and the validators, which the promotion gate
runs, read each file back through the same schema before they check its
cross-field rules. A cell holds its value only in the rendering
render_cell gives it, so a value read back renders to the bytes it was
read from, and the writer and the verifier cannot drift apart.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError
from .estimators import CorrMethod
from .inference import STATUS_OK, STATUSES, ReliabilityEstimate, headline_pass
from .multiverse import CORR_GRID, K_GRID, N_MIN_GRID, Specification

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


# ---------------------------------------------------------------------------
# field kinds


@dataclass(frozen=True)
class Kind:
    """A field's type: test accepts its values, and cell parses a non-empty
    CSV cell into one (an empty cell is None)."""

    what: str
    test: Callable[[object], bool]
    cell: Callable[[str], object] = str


@dataclass(frozen=True)
class MapOf:
    """A JSON object whose every value has kind; with keys, its keys are
    exactly those."""

    kind: object
    keys: tuple[str, ...] | None = None


def _integer(value) -> bool:
    """A JSON integer; true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    """A finite JSON number; true and false are not numbers."""
    return _integer(value) or (isinstance(value, float) and math.isfinite(value))


def _optional(kind: Kind) -> Kind:
    """kind, or null (an empty cell): the value fields of a row or summary
    that has no estimate."""
    return Kind(f"{kind.what} or null", lambda v: v is None or kind.test(v), kind.cell)


def _one_of(*values) -> Kind:
    cell = type(values[0])
    return Kind(
        f"one of {', '.join(map(str, values))}", lambda v: type(v) is cell and v in values, cell
    )


COUNT = Kind("a non-negative integer", lambda v: _integer(v) and v >= 0, int)
NUMBER = Kind("a finite number", _number, float)
OPTIONAL_NUMBER = _optional(NUMBER)
TEXT = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
FLAG = Kind("true or false", lambda v: isinstance(v, bool), {"true": True, "false": False}.__getitem__)
OPTIONAL_PAIR = _optional(
    Kind(
        "a [low, high] pair of finite numbers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)) and v[0] <= v[1],
    )
)
STRING_MAP = Kind(
    "an object of strings", lambda v: isinstance(v, dict) and all(isinstance(s, str) for s in v.values())
)
LIST = Kind("a list", lambda v: isinstance(v, list))
OBJECT = Kind("an object", lambda v: isinstance(v, dict))


# ---------------------------------------------------------------------------
# the schemas

_STATUS = _one_of(*STATUSES)

# A CSV row's optional cells, its numbers and method, are filled exactly when
# its status is ok.
PER_MEASURE_SCHEMA = {
    "measure_id": TEXT,
    "n": COUNT,
    "rho": OPTIONAL_NUMBER,
    "mi_ksg": OPTIONAL_NUMBER,
    "mi_gauss": OPTIONAL_NUMBER,
    "nlr_delta": OPTIONAL_NUMBER,
    "ci_low": OPTIONAL_NUMBER,
    "ci_high": OPTIONAL_NUMBER,
    "method": _optional(_one_of("bca", "percentile_fallback")),
    "p": OPTIONAL_NUMBER,
    "q": OPTIONAL_NUMBER,
    "icc_2_1": OPTIONAL_NUMBER,
    "icc_2_1_low": OPTIONAL_NUMBER,
    "icc_2_1_high": OPTIONAL_NUMBER,
    "icc_3_1": OPTIONAL_NUMBER,
    "status": _STATUS,
    "headline_pass": FLAG,
}

MULTIVERSE_SCHEMA = {
    "spec_id": TEXT,
    "k": _one_of(*K_GRID),
    "corr_method": _one_of(*(method.value for method in CORR_GRID)),
    "n_min": _one_of(*N_MIN_GRID),
    "measure_id": TEXT,
    "n": COUNT,
    "nlr_delta": OPTIONAL_NUMBER,
    "ci_low": OPTIONAL_NUMBER,
    "ci_high": OPTIONAL_NUMBER,
    "status": _STATUS,
    "headline_pass": FLAG,
}

SUMMARY_SCHEMA = {
    "q_star": NUMBER,
    "n_primary": COUNT,
    "counts": MapOf(COUNT, STATUSES),
    "pass_count": COUNT,
    "nlr_delta_median": OPTIONAL_NUMBER,
    "nlr_delta_iqr": OPTIONAL_PAIR,
    "ci_width_median": OPTIONAL_NUMBER,
    "mde_median": OPTIONAL_NUMBER,
    "min_q": OPTIONAL_NUMBER,
    "icc_2_1_median": OPTIONAL_NUMBER,
    "icc_2_1_iqr": OPTIONAL_PAIR,
}

_LEVEL = {"median_nlr_delta": OPTIONAL_NUMBER, "pass_count": COUNT, "estimable": COUNT}

MULTIVERSE_SUMMARY_SCHEMA = {
    "grand": {
        "total_cells": COUNT,
        "estimable": COUNT,
        "insufficient_n": COUNT,
        "degenerate": COUNT,
        "pass_count": COUNT,
        "median_nlr_delta": OPTIONAL_NUMBER,
        "iqr_nlr_delta": OPTIONAL_PAIR,
    },
    "by_k": MapOf(_LEVEL, tuple(map(str, K_GRID))),
    "by_corr": MapOf(_LEVEL, tuple(method.value for method in CORR_GRID)),
    "by_n_min": MapOf(_LEVEL, tuple(map(str, N_MIN_GRID))),
}

# gate check R14 reads each measure's entry through MEASURE_EVIDENCE_SCHEMA
INGEST_EVIDENCE_SCHEMA = {
    "archives": LIST,
    "processed": {"path": TEXT, "sha256": TEXT, "row_count": COUNT},
    "measures": MapOf(OBJECT),
}

MEASURE_EVIDENCE_SCHEMA = {
    "row_count": COUNT,
    "filter_counts": MapOf(COUNT, ("below_min", "above_max", "kept")),
}

PROVENANCE_SCHEMA = {
    "run_mode": _one_of("smoke", "final"),
    "toolchain_versions": STRING_MAP,
    "input_digests": STRING_MAP,
    "outputs": MapOf(
        {
            "sha256": TEXT,
            "command": _one_of(*COMMAND_OUTPUTS),
            "base_seed": Kind("an integer", _integer),
            "bootstrap_b": Kind("a positive integer", lambda v: _integer(v) and v >= 1),
        }
    ),
    "timestamp": Kind("an ISO-8601 timestamp", lambda v: isinstance(v, str) and "T" in v),
}

SCHEMAS = {
    PER_MEASURE_CSV: PER_MEASURE_SCHEMA,
    SUMMARY_JSON: SUMMARY_SCHEMA,
    MULTIVERSE_CSV: MULTIVERSE_SCHEMA,
    MULTIVERSE_SUMMARY_JSON: MULTIVERSE_SUMMARY_SCHEMA,
    INGEST_EVIDENCE_JSON: INGEST_EVIDENCE_SCHEMA,
    PROVENANCE_JSON: PROVENANCE_SCHEMA,
}


# ---------------------------------------------------------------------------
# writing


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


def write_csv(path: Path, header: Iterable[str], rows: list[list[str]]) -> None:
    """header: the column names, such as a CSV schema's keys."""
    with _replacing(path, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def per_measure_row(est: ReliabilityEstimate) -> list[str]:
    return [render_cell(getattr(est, column)) for column in PER_MEASURE_SCHEMA]


def multiverse_row(spec, est: ReliabilityEstimate) -> list[str]:
    """k, corr_method and n_min from the specification, every other column
    from the estimate."""
    axes = {"k": spec.k, "corr_method": spec.corr_method.value, "n_min": spec.n_min}
    return [render_cell(axes[c] if c in axes else getattr(est, c)) for c in MULTIVERSE_SCHEMA]


# ---------------------------------------------------------------------------
# typed reading and the validators (used by the promotion gate)


def _load_json(path: Path, error: type[Exception] = SchemaError):
    """The JSON document in the file at path. error, naming the file, when
    the file is missing or is not UTF-8 JSON."""
    if not path.is_file():
        raise error(f"{path.name}: missing")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path.name}: invalid JSON ({exc})") from None


def check_json(value, schema, where: str) -> None:
    """Raise SchemaError, naming where, unless value fits schema: a Kind, a
    MapOf, or a dict of keys that value, an object, holds, each fitting its
    own schema (other keys are ignored)."""
    if isinstance(schema, Kind):
        if not schema.test(value):
            raise SchemaError(f"{where} must be {schema.what}, got {value!r}")
        return
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    if isinstance(schema, MapOf):
        if schema.keys is not None and set(value) != set(schema.keys):
            raise SchemaError(f"{where} must have the keys {list(schema.keys)}, got {list(value)}")
        schema = dict.fromkeys(value, schema.kind)
    missing = [key for key in schema if key not in value]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    for key, kind in schema.items():
        check_json(value[key], kind, f"{where}:{key}")


def read_json(path: Path, schema) -> dict:
    doc = _load_json(path)
    check_json(doc, schema, path.name)
    return doc


def _cell(raw: str, kind: Kind, where: str):
    try:
        value = kind.cell(raw) if raw else None
        if render_cell(value) == raw and kind.test(value):
            return value
    except (KeyError, ValueError):
        pass
    raise SchemaError(f"{where} must be {kind.what}, got {raw!r}")


def read_csv(path: Path, schema: dict[str, Kind]) -> list[dict]:
    """The rows of the CSV file at path, each a dict of its cells parsed by
    their columns' kinds."""
    if not path.is_file():
        raise SchemaError(f"{path.name}: missing")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *lines = list(csv.reader(fh)) or [None]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path.name}: unreadable CSV ({exc})") from None
    if header != list(schema):
        raise SchemaError(f"{path.name}: header mismatch, got {header}")
    rows = []
    for i, cells in enumerate(lines, start=2):
        if len(cells) != len(schema):
            raise SchemaError(f"{path.name}:{i}: {len(cells)} fields, expected {len(schema)}")
        rows.append(
            {col: _cell(raw, kind, f"{path.name}:{i}: {col}") for (col, kind), raw in zip(schema.items(), cells)}
        )
    return rows


def _check_status(row: dict, where: str, schema: dict[str, Kind]) -> None:
    """The value cells, the columns whose kind admits null, are filled
    exactly when the status is ok, and headline_pass is the headline rule
    on ci_low."""
    ok = row["status"] == STATUS_OK
    if any((row[col] is None) == ok for col, kind in schema.items() if kind.test(None)):
        raise SchemaError(f"{where}: value cells must be filled exactly when the status is ok")
    if row["headline_pass"] != headline_pass(row["ci_low"]):
        raise SchemaError(f"{where}: headline_pass inconsistent with ci_low")


def validate_per_measure_csv(path: Path) -> int:
    rows = read_csv(path, PER_MEASURE_SCHEMA)
    for i, row in enumerate(rows, start=2):
        where = f"{path.name}:{i}"
        _check_status(row, where, PER_MEASURE_SCHEMA)
        if row["q"] is not None and row["q"] < row["p"] - 1e-15:
            raise SchemaError(f"{where}: q < p")
    return len(rows)


def validate_multiverse_csv(path: Path) -> int:
    rows = read_csv(path, MULTIVERSE_SCHEMA)
    for i, row in enumerate(rows, start=2):
        where = f"{path.name}:{i}"
        spec = Specification(row["k"], CorrMethod(row["corr_method"]), row["n_min"])
        if row["spec_id"] != spec.spec_id:
            raise SchemaError(f"{where}: spec_id disagrees with spec fields")
        _check_status(row, where, MULTIVERSE_SCHEMA)
    return len(rows)


def validate_summary_json(path: Path) -> dict:
    doc = read_json(path, SUMMARY_SCHEMA)
    if sum(doc["counts"].values()) != doc["n_primary"]:
        raise SchemaError(f"{path.name}: status counts do not partition n_primary")
    return doc


def validate_multiverse_summary_json(path: Path) -> dict:
    doc = read_json(path, MULTIVERSE_SUMMARY_SCHEMA)
    grand = doc["grand"]
    if grand["estimable"] + grand["insufficient_n"] + grand["degenerate"] != grand["total_cells"]:
        raise SchemaError(f"{path.name}: statuses do not partition total_cells")
    return doc


def validate_provenance_json(path: Path) -> dict:
    doc = read_json(path, PROVENANCE_SCHEMA)
    for name in doc["outputs"]:
        if name not in DIGESTED_OUTPUTS:
            raise SchemaError(f"{path.name}:outputs:{name}: not a digested output")
    return doc
