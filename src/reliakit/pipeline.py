"""Pipeline orchestration: ingest, estimate, infer, enumerate, verify.

Everything here is glue around the analysis modules. The determinism
contract is absolute: (workspace bytes, mode, seed, B) determine every
output byte, and a parallel run merges to the same bytes as a serial one
because each cell owns a derived seed stream and results are joined in
task order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .bootstrap import MAX_B
from .fixtures import ensure_smoke_workspace
from .inference import apply_primary_inference
from .ingest import build_sample, read_long_csv
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
    PROCESSED_RELPATH,
    GateReport,
    build_provenance,
    digest_inputs,
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
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("smoke", "final"):
            raise ValueError(f"mode must be smoke or final, got {self.mode!r}")
        self.workspace = Path(self.workspace)
        self.out_dir = Path(self.out_dir)
        if self.bootstrap_b is not None and not 1 <= self.bootstrap_b <= MAX_B:
            raise ValueError(f"bootstrap_b must be in [1, 2**32], got {self.bootstrap_b}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def resolved_b(self) -> int:
        if self.bootstrap_b is not None:
            return self.bootstrap_b
        return SMOKE_DEFAULT_B if self.mode == "smoke" else FINAL_DEFAULT_B


def _load_samples(workspace: Path, registry: ContractRegistry):
    table = read_long_csv(workspace / PROCESSED_RELPATH)
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
    """Shared body of run and multiverse: materialize (smoke) and digest the
    workspace inputs, load the samples, evaluate each (spec, measure) cell,
    then write the command's results, the ingest evidence and, last, the
    provenance record."""
    if config.mode == "smoke":
        ensure_smoke_workspace(config.workspace)
    input_digests, archives = digest_inputs(config.workspace, config.mode)
    registry = load_contract(config.workspace / CONTRACT_RELPATH)
    row_count, samples, measures_evidence = _load_samples(config.workspace, registry)
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
