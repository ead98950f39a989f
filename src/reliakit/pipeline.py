"""Pipeline orchestration: ingest, estimate, infer, enumerate, verify.

Everything here is glue around the analysis modules. The determinism
contract is absolute: (workspace bytes, contract, mode, seed, B) determine
every output byte, and a parallel run merges to the same bytes as a serial
one because each cell owns a derived seed stream and results are joined in
task order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import HashMismatchError, IngestError
from .fixtures import ensure_smoke_workspace
from .hashutil import sha256_file
from .inference import apply_primary_inference
from .ingest import build_sample, read_long_csv, verify_archive
from .multiverse import (
    DEFAULT_SPEC,
    MultiverseCell,
    Specification,
    build_grid,
    run_cell,
    summarize,
)
from .outputs import (
    INGEST_EVIDENCE_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    PER_MEASURE_CSV,
    SUMMARY_JSON,
    multiverse_row,
    per_measure_row,
    write_csv,
    write_json,
    MULTIVERSE_COLUMNS,
    PER_MEASURE_COLUMNS,
)
from .provenance import (
    CONTRACT_RELPATH,
    HASH_MANIFEST,
    PROCESSED_RELPATH,
    GateReport,
    build_provenance,
    emit_provenance,
    run_gate,
    write_gate_report,
)
from .registry import ContractRegistry, load_contract

SMOKE_DEFAULT_B = 200
FINAL_DEFAULT_B = 5000


@dataclass
class RunConfig:
    mode: str
    workspace: Path
    out_dir: Path
    base_seed: int = 42
    bootstrap_b: int | None = None
    contract_path: Path | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("smoke", "final"):
            raise ValueError(f"mode must be smoke or final, got {self.mode!r}")
        self.workspace = Path(self.workspace)
        self.out_dir = Path(self.out_dir)
        if self.contract_path is not None:
            self.contract_path = Path(self.contract_path)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def resolved_b(self) -> int:
        if self.bootstrap_b is not None:
            return self.bootstrap_b
        return SMOKE_DEFAULT_B if self.mode == "smoke" else FINAL_DEFAULT_B

    @property
    def resolved_contract(self) -> Path:
        return self.contract_path or self.workspace / CONTRACT_RELPATH

    @property
    def processed_path(self) -> Path:
        return self.workspace / PROCESSED_RELPATH


def _input_key(path: Path, workspace: Path) -> str:
    try:
        return path.resolve().relative_to(workspace.resolve()).as_posix()
    except ValueError:
        return path.name


def _prepare_inputs(config: RunConfig) -> tuple[dict[str, str], list[dict]]:
    """Materialize (smoke) or verify (final) inputs; digest them either way.

    Every input, the processed table included, is hashed exactly once here;
    later steps read the digests from the returned mapping."""
    if config.mode == "smoke":
        ensure_smoke_workspace(config.workspace)
    digests: dict[str, str] = {}
    archives: list[dict] = []
    contract = config.resolved_contract
    if not contract.is_file():
        raise IngestError(f"contract file missing: {contract}")
    digests[_input_key(contract, config.workspace)] = sha256_file(contract)
    if not config.processed_path.is_file():
        raise IngestError(f"processed table missing: {config.processed_path}")
    manifest_path = config.workspace / HASH_MANIFEST
    if manifest_path.is_file():
        digests[HASH_MANIFEST] = sha256_file(manifest_path)
    if config.mode == "final":
        if not manifest_path.is_file():
            raise HashMismatchError(f"final mode requires {HASH_MANIFEST}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        expected_processed = manifest.get("processed/long.csv")
        if expected_processed is None:
            raise HashMismatchError("processed/long.csv is not pinned in the manifest")
        processed = verify_archive(config.processed_path, expected_processed)
        digests[PROCESSED_RELPATH] = processed.observed_sha256
        for rel in sorted(manifest):
            if not rel.startswith("raw/"):
                continue
            evidence = verify_archive(config.workspace / "data" / rel, manifest[rel])
            digests[f"data/{rel}"] = evidence.observed_sha256
            archives.append(
                {
                    "archive": evidence.archive,
                    "path": f"data/{rel}",
                    "expected_sha256": evidence.expected_sha256,
                    "observed_sha256": evidence.observed_sha256,
                }
            )
    else:
        digests[PROCESSED_RELPATH] = sha256_file(config.processed_path)
    return digests, archives


def _load_samples(config: RunConfig, registry: ContractRegistry):
    table = read_long_csv(config.processed_path)
    samples = {}
    measures_evidence = {}
    for entry in registry.primary_measures():
        sample, evidence = build_sample(table, entry)
        samples[entry.measure_id] = sample
        measures_evidence[entry.measure_id] = {
            "task": evidence.task,
            "row_count": evidence.row_count,
            "filter_counts": {
                "below_min": evidence.filter_counts.below_min,
                "above_max": evidence.filter_counts.above_max,
                "kept": evidence.filter_counts.kept,
            },
            "zero_trial_cells": list(evidence.zero_trial_cells),
            "dropped_subjects": list(evidence.dropped_subjects),
            "n_pairs": evidence.n_pairs,
        }
    return len(table), samples, measures_evidence


def _cell_task(args) -> MultiverseCell:
    spec, sample, base_seed, b = args
    return run_cell(spec, sample, base_seed, b)


def _run_cells(tasks: list, workers: int) -> list[MultiverseCell]:
    if workers == 1 or len(tasks) <= 1:
        return [_cell_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell_task, tasks))


def _execute(
    config: RunConfig,
    command: str,
    specs: list[Specification],
    write_results: Callable[[Path, list[MultiverseCell], ContractRegistry], dict],
) -> dict:
    """Shared body of run and multiverse: digest inputs, load the samples,
    evaluate each (spec, measure) cell, then write the command's results,
    the ingest evidence and, last, the provenance record."""
    input_digests, archives = _prepare_inputs(config)
    registry = load_contract(config.resolved_contract)
    row_count, samples, measures_evidence = _load_samples(config, registry)
    tasks = [
        (spec, samples[entry.measure_id], config.base_seed, config.resolved_b)
        for spec in specs
        for entry in registry.primary_measures()
    ]
    cells = _run_cells(tasks, config.workers)
    summary = write_results(config.out_dir, cells, registry)
    evidence = {
        "archives": archives,
        "processed": {
            "path": PROCESSED_RELPATH,
            "sha256": input_digests[PROCESSED_RELPATH],
            "row_count": row_count,
        },
        "measures": measures_evidence,
    }
    write_json(config.out_dir / INGEST_EVIDENCE_JSON, evidence)
    record = build_provenance(
        command,
        config.mode,
        config.base_seed,
        config.resolved_b,
        input_digests,
        config.out_dir,
    )
    emit_provenance(record, config.out_dir)
    return summary


def _write_primary(
    out_dir: Path, cells: list[MultiverseCell], registry: ContractRegistry
) -> dict:
    annotated, summary = apply_primary_inference([c.estimate for c in cells], registry)
    write_csv(
        out_dir / PER_MEASURE_CSV,
        PER_MEASURE_COLUMNS,
        [per_measure_row(e) for e in annotated],
    )
    write_json(out_dir / SUMMARY_JSON, summary)
    return summary


def _write_grid(
    out_dir: Path, cells: list[MultiverseCell], registry: ContractRegistry
) -> dict:
    write_csv(
        out_dir / MULTIVERSE_CSV,
        MULTIVERSE_COLUMNS,
        [multiverse_row(cell.spec, cell.estimate) for cell in cells],
    )
    summary = summarize(cells)
    write_json(out_dir / MULTIVERSE_SUMMARY_JSON, summary)
    return summary


def cmd_run(config: RunConfig) -> dict:
    """Primary pipeline: default specification over every primary measure."""
    return _execute(config, "run", [DEFAULT_SPEC], _write_primary)


def cmd_multiverse(config: RunConfig) -> dict:
    """Full 24-cell grid over every primary measure."""
    return _execute(config, "multiverse", build_grid(), _write_grid)


def cmd_verify(mode: str, workspace: str | Path, out_dir: str | Path) -> GateReport:
    """Gate an existing workspace/output pair without recomputing anything.
    Read-only apart from the report, which is written to the output
    directory; run `run` and `multiverse` first."""
    out_dir = Path(out_dir)
    report = run_gate(mode, Path(workspace), out_dir)
    write_gate_report(report, out_dir)
    return report
