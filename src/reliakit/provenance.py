"""Workspace inputs, provenance records and the 16-check promotion gate.

`digest_inputs` is the one definition of what run and multiverse read from
a workspace; provenance records its digests, and R10 re-hashes them. The
gate verifies a workspace/output pair without writing anything:

    R1  workspace structure (contract, hash manifest, processed table)
    R2  expected output files present
    R3  gate config parses and carries its pins
    R4  contract document parses
    R5  declared tier counts match the entries
    R6  contract bytes and tier counts match the gate-config pins
    R7  per-measure CSV schema
    R8  multiverse CSV schema
    R9  summary JSON schemas (run + multiverse)
    R10 provenance schema; recorded output and input digests match the
        files
    R11 toolchain versions recorded and matching the live environment
    R12 run-config echo consistent with the gate mode, and an entry (the
        command, seed and B that wrote it) for every digested output present
    R13 raw archive digests match the manifest            (final only)
    R14 ingest evidence present with a consistent filter partition
                                                          (final only)
    R15 synthetic-data marker absent                      (final only)
    R16 processed table digest matches the manifest       (final only)

Smoke mode executes R1-R12 and reports R13-R16 as skipped, never passed.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

from . import __version__
from .errors import HashMismatchError, IngestError, ReliakitError, SchemaError
from .hashutil import sha256_file
from .ingest import ArchiveEvidence, verify_archive
from .outputs import (
    COMMAND_OUTPUTS,
    DIGESTED_OUTPUTS,
    GATE_REPORT_JSON,
    INGEST_EVIDENCE_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    PER_MEASURE_CSV,
    PROVENANCE_JSON,
    SUMMARY_JSON,
    canonical_json,
    is_count,
    validate_multiverse_csv,
    validate_multiverse_summary_json,
    validate_per_measure_csv,
    validate_provenance_json,
    validate_summary_json,
    write_json,
)
from .registry import parse_contract, verify_declared_counts

CONTRACT_RELPATH = "contracts/measures.json"
HASH_MANIFEST = "expected_hashes.json"
GATE_CONFIG = "gate_config.json"
# the manifest pins paths relative to data/
PROCESSED_PIN = "processed/long.csv"
PROCESSED_RELPATH = f"data/{PROCESSED_PIN}"
SYNTHETIC_MARKER = "data/processed/SYNTHETIC_DATA"

REQUIRED_OUTPUTS = (
    PER_MEASURE_CSV,
    SUMMARY_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    INGEST_EVIDENCE_JSON,
    PROVENANCE_JSON,
)


def _load_hash_manifest(workspace: Path) -> dict[str, str]:
    """The one parser of the hash manifest: an object mapping paths under
    data/ to hex digests."""
    path = workspace / HASH_MANIFEST
    if not path.is_file():
        raise HashMismatchError(f"{HASH_MANIFEST}: missing")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HashMismatchError(f"{HASH_MANIFEST}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in doc.items()
    ):
        raise HashMismatchError(f"{HASH_MANIFEST}: must map relative paths to hex digests")
    return doc


def _verify_pin(workspace: Path, manifest: dict[str, str], pin: str) -> ArchiveEvidence:
    if pin not in manifest:
        raise HashMismatchError(f"{pin} is not pinned in {HASH_MANIFEST}")
    return verify_archive(workspace / "data" / pin, manifest[pin])


def _raw_pins(manifest: dict[str, str]) -> list[str]:
    return sorted(pin for pin in manifest if pin.startswith("raw/"))


def digest_inputs(workspace: Path, mode: str) -> tuple[dict[str, str], list[dict]]:
    """The inputs of run and multiverse, each hashed once: the registry, the
    hash manifest when present and the processed table. Final mode also
    checks the processed table and every raw archive against their pins in
    the manifest, and digests the archives too.

    Returns the digests, keyed by workspace-relative path, that provenance
    records and gate check R10 re-hashes, and the archive evidence for
    ingest_evidence.json."""
    workspace = Path(workspace)
    contract = workspace / CONTRACT_RELPATH
    if not contract.is_file():
        raise IngestError(f"contract file missing: {contract}")
    processed = workspace / PROCESSED_RELPATH
    if not processed.is_file():
        raise IngestError(f"processed table missing: {processed}")
    digests = {CONTRACT_RELPATH: sha256_file(contract)}
    if (workspace / HASH_MANIFEST).is_file():
        digests[HASH_MANIFEST] = sha256_file(workspace / HASH_MANIFEST)
    if mode != "final":
        digests[PROCESSED_RELPATH] = sha256_file(processed)
        return digests, []
    manifest = _load_hash_manifest(workspace)
    digests[PROCESSED_RELPATH] = _verify_pin(workspace, manifest, PROCESSED_PIN).observed_sha256
    archives = []
    for pin in _raw_pins(manifest):
        evidence = _verify_pin(workspace, manifest, pin)
        digests[f"data/{pin}"] = evidence.observed_sha256
        archives.append({**asdict(evidence), "path": f"data/{pin}"})
    return digests, archives


def toolchain_versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "reliakit": __version__,
    }


@dataclass(frozen=True)
class ProvenanceRecord:
    """What produced the output directory. `outputs` maps each digested
    output present to its sha256 and the command, seed and B that wrote it;
    run_mode, toolchain and input digests hold for every entry."""

    run_mode: str
    toolchain_versions: dict[str, str]
    input_digests: dict[str, str]
    outputs: dict[str, dict]
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "run_mode": self.run_mode,
            "toolchain_versions": dict(self.toolchain_versions),
            "input_digests": dict(self.input_digests),
            "outputs": {name: dict(entry) for name, entry in self.outputs.items()},
            "timestamp": self.timestamp,
        }


def _earlier_outputs(out_dir: Path, run_mode: str, input_digests: dict[str, str]) -> dict[str, dict]:
    """Output entries of the record already in out_dir, if it was made in the
    same mode, from the same inputs and with the same toolchain; else none."""
    try:
        doc = validate_provenance_json(out_dir / PROVENANCE_JSON)
    except (SchemaError, ValueError):
        return {}
    same = (
        doc["run_mode"] == run_mode
        and doc["input_digests"] == input_digests
        and doc["toolchain_versions"] == toolchain_versions()
    )
    return doc["outputs"] if same else {}


def build_provenance(
    command: str,
    run_mode: str,
    base_seed: int,
    bootstrap_b: int,
    input_digests: dict[str, str],
    out_dir: Path,
) -> ProvenanceRecord:
    """Digest the known outputs present in out_dir and assemble the record.

    The outputs `command` just wrote are credited to it; any other output
    keeps the entry of an earlier command only while its digest still
    matches, and is left unrecorded otherwise, which fails gate check R12."""
    earlier = _earlier_outputs(out_dir, run_mode, input_digests)
    outputs: dict[str, dict] = {}
    for name in DIGESTED_OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            continue
        digest = sha256_file(path)
        if name in COMMAND_OUTPUTS[command]:
            outputs[name] = {
                "sha256": digest,
                "command": command,
                "base_seed": base_seed,
                "bootstrap_b": bootstrap_b,
            }
        elif name in earlier and earlier[name]["sha256"] == digest:
            outputs[name] = earlier[name]
    return ProvenanceRecord(
        run_mode=run_mode,
        toolchain_versions=toolchain_versions(),
        input_digests=dict(input_digests),
        outputs=outputs,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def emit_provenance(record: ProvenanceRecord, out_dir: Path) -> Path:
    path = out_dir / PROVENANCE_JSON
    write_json(path, record.to_dict())
    return path


# ---------------------------------------------------------------------------
# promotion gate


@dataclass(frozen=True)
class GateCheck:
    id: str
    name: str
    passed: bool
    skipped: bool
    detail: str


@dataclass(frozen=True)
class GateReport:
    mode: str
    checks: tuple[GateCheck, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    @property
    def executed(self) -> int:
        return sum(not c.skipped for c in self.checks)

    @property
    def skipped(self) -> int:
        return sum(c.skipped for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "overall": self.overall,
            "executed": self.executed,
            "skipped": self.skipped,
            "checks": [
                {
                    "id": c.id,
                    "name": c.name,
                    "passed": c.passed,
                    "skipped": c.skipped,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def write_gate_report(report: GateReport, out_dir: Path) -> Path:
    path = out_dir / GATE_REPORT_JSON
    write_json(path, report.to_dict())
    return path


def _load_gate_config(workspace: Path) -> dict:
    path = workspace / GATE_CONFIG
    if not path.is_file():
        raise SchemaError(f"{GATE_CONFIG}: missing")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{GATE_CONFIG}: invalid JSON ({exc})") from None
    for key in ("schema_version", "pinned_tier_counts", "pinned_digests"):
        if key not in doc:
            raise SchemaError(f"{GATE_CONFIG}: missing key {key!r}")
    if not isinstance(doc["pinned_tier_counts"], dict) or not isinstance(
        doc["pinned_digests"], dict
    ):
        raise SchemaError(f"{GATE_CONFIG}: pins must be objects")
    return doc


_FILTER_KEYS = ("below_min", "above_max", "kept")


def run_gate(mode: str, workspace: Path, out_dir: Path) -> GateReport:
    """Execute the promotion gate. Read-only and idempotent: the report is
    returned, not written (cmd_verify persists it)."""
    if mode not in ("smoke", "final"):
        raise ValueError(f"gate mode must be smoke or final, got {mode!r}")
    workspace = Path(workspace)
    out_dir = Path(out_dir)
    checks: list[GateCheck] = []

    def run_check(check_id: str, name: str, fn) -> None:
        try:
            detail = fn()
            checks.append(GateCheck(check_id, name, True, False, detail or "ok"))
        except (ReliakitError, OSError, json.JSONDecodeError, ValueError) as exc:
            checks.append(GateCheck(check_id, name, False, False, str(exc)))

    def skip(check_id: str, name: str) -> None:
        checks.append(GateCheck(check_id, name, False, True, "final mode only"))

    def r1() -> str:
        missing = [
            rel
            for rel in (CONTRACT_RELPATH, HASH_MANIFEST, PROCESSED_RELPATH)
            if not (workspace / rel).is_file()
        ]
        if missing:
            raise SchemaError(f"missing workspace files: {missing}")
        return "workspace layout complete"

    def r2() -> str:
        missing = [name for name in REQUIRED_OUTPUTS if not (out_dir / name).is_file()]
        if missing:
            raise SchemaError(f"missing outputs: {missing}")
        return f"{len(REQUIRED_OUTPUTS)} output files present"

    def r3() -> str:
        _load_gate_config(workspace)
        return "gate config well-formed"

    def r4() -> str:
        registry = parse_contract(workspace / CONTRACT_RELPATH)
        return f"{len(registry.entries)} entries parsed"

    def r5() -> str:
        registry = parse_contract(workspace / CONTRACT_RELPATH)
        verify_declared_counts(registry)
        return "declared counts match entries"

    def r6() -> str:
        config = _load_gate_config(workspace)
        registry = parse_contract(workspace / CONTRACT_RELPATH)
        if registry.tier_counts() != config["pinned_tier_counts"]:
            raise SchemaError(
                f"tier counts {registry.tier_counts()} != pinned "
                f"{config['pinned_tier_counts']}"
            )
        for rel, expected in sorted(config["pinned_digests"].items()):
            observed = sha256_file(workspace / rel)
            if observed != expected:
                raise SchemaError(f"{rel}: digest {observed} != pinned {expected}")
        return "contract pins verified"

    def r7() -> str:
        n = validate_per_measure_csv(out_dir / PER_MEASURE_CSV)
        return f"{n} rows valid"

    def r8() -> str:
        n = validate_multiverse_csv(out_dir / MULTIVERSE_CSV)
        return f"{n} rows valid"

    def r9() -> str:
        validate_summary_json(out_dir / SUMMARY_JSON)
        validate_multiverse_summary_json(out_dir / MULTIVERSE_SUMMARY_JSON)
        return "summaries valid"

    def r10() -> str:
        doc = validate_provenance_json(out_dir / PROVENANCE_JSON)
        outputs = {name: entry["sha256"] for name, entry in doc["outputs"].items()}
        inputs = doc["input_digests"]
        for root, recorded, kind in ((out_dir, outputs, "output"), (workspace, inputs, "input")):
            for rel, expected in sorted(recorded.items()):
                path = root / rel
                if not path.is_file():
                    raise SchemaError(f"{rel}: recorded {kind} missing")
                observed = sha256_file(path)
                if observed != expected:
                    raise SchemaError(f"{rel}: digest {observed} != recorded {expected}")
        return f"{len(outputs)} output and {len(inputs)} input digests verified"

    def r11() -> str:
        doc = validate_provenance_json(out_dir / PROVENANCE_JSON)
        live = toolchain_versions()
        recorded = doc["toolchain_versions"]
        missing = [k for k in live if k not in recorded]
        if missing:
            raise SchemaError(f"toolchain_versions missing {missing}")
        drift = {
            k: (recorded[k], live[k]) for k in live if recorded[k] != live[k]
        }
        if drift:
            raise SchemaError(f"toolchain drift: {drift}")
        return "toolchain matches live environment"

    def r12() -> str:
        doc = validate_provenance_json(out_dir / PROVENANCE_JSON)
        if doc["run_mode"] != mode:
            raise SchemaError(
                f"run_mode {doc['run_mode']!r} inconsistent with gate mode {mode!r}"
            )
        unrecorded = [
            name
            for name in DIGESTED_OUTPUTS
            if (out_dir / name).is_file() and name not in doc["outputs"]
        ]
        if unrecorded:
            raise SchemaError(f"outputs with no provenance entry: {unrecorded}")
        configs = sorted(
            {(e["command"], e["base_seed"], e["bootstrap_b"]) for e in doc["outputs"].values()}
        )
        echo = "; ".join(f"{command}: seed {seed}, B {b}" for command, seed, b in configs)
        return f"run config echo consistent ({doc['run_mode']}; {echo})"

    def r13() -> str:
        manifest = _load_hash_manifest(workspace)
        raw = _raw_pins(manifest)
        if not raw:
            raise SchemaError("no raw archives pinned in the manifest")
        for pin in raw:
            _verify_pin(workspace, manifest, pin)
        return f"{len(raw)} raw archives verified"

    def r14() -> str:
        path = out_dir / INGEST_EVIDENCE_JSON
        if not path.is_file():
            raise SchemaError(f"{INGEST_EVIDENCE_JSON}: missing")
        doc = json.loads(path.read_text(encoding="utf-8"))
        measures = doc.get("measures") if isinstance(doc, dict) else None
        if not isinstance(measures, dict) or not measures:
            raise SchemaError(f"{INGEST_EVIDENCE_JSON}: no per-measure evidence")
        for measure_id, entry in sorted(measures.items()):
            fc = entry.get("filter_counts") if isinstance(entry, dict) else None
            if not (
                isinstance(fc, dict)
                and all(map(is_count, (entry.get("row_count"), *map(fc.get, _FILTER_KEYS))))
            ):
                raise SchemaError(
                    f"{INGEST_EVIDENCE_JSON}: {measure_id}: needs an integer row_count and "
                    "integer filter_counts below_min, above_max and kept"
                )
            total = sum(map(fc.get, _FILTER_KEYS))
            if total != entry["row_count"]:
                raise SchemaError(
                    f"{measure_id}: filter counts {total} != row_count {entry['row_count']}"
                )
        return f"{len(measures)} measures consistent"

    def r15() -> str:
        marker = workspace / SYNTHETIC_MARKER
        if marker.exists():
            raise SchemaError(f"{SYNTHETIC_MARKER} present in a final workspace")
        return "no synthetic-data marker"

    def r16() -> str:
        _verify_pin(workspace, _load_hash_manifest(workspace), PROCESSED_PIN)
        return "processed table digest verified"

    run_check("R1", "workspace-structure", r1)
    run_check("R2", "output-files-present", r2)
    run_check("R3", "gate-config", r3)
    run_check("R4", "contract-parses", r4)
    run_check("R5", "contract-counts", r5)
    run_check("R6", "contract-pins", r6)
    run_check("R7", "per-measure-schema", r7)
    run_check("R8", "multiverse-schema", r8)
    run_check("R9", "summary-schemas", r9)
    run_check("R10", "output-digests", r10)
    run_check("R11", "toolchain-lock", r11)
    run_check("R12", "run-config-echo", r12)
    final_checks = (
        ("R13", "raw-archive-digests", r13),
        ("R14", "ingest-evidence", r14),
        ("R15", "synthetic-data-flag", r15),
        ("R16", "processed-digest", r16),
    )
    for check_id, name, fn in final_checks:
        if mode == "final":
            run_check(check_id, name, fn)
        else:
            skip(check_id, name)
    return GateReport(mode=mode, checks=tuple(checks))


__all__ = [
    "ProvenanceRecord",
    "GateCheck",
    "GateReport",
    "build_provenance",
    "digest_inputs",
    "emit_provenance",
    "run_gate",
    "write_gate_report",
    "toolchain_versions",
    "canonical_json",
]
