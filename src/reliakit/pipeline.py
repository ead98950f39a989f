"""Pipeline orchestration: ingest, estimate, infer, enumerate, verify.

Everything here is glue around the analysis modules. The determinism
contract is absolute: (workspace bytes, mode, seed, B) determine every
output byte. The unit of work handed to the workers is a measure: one task
runs multiverse.run_measure over the command's specifications, so each
sample is pickled once. Each cell still owns a derived seed stream, and the
cells are joined back in spec-major order (every measure under the first
specification, then the second, ...), so the worker count is invisible in
the outputs: a parallel run merges to the same bytes as a serial one.

The worker count is an upper bound. _pool_size estimates the command's
work from the tasks it is handed and starts a process pool only when each
process gets at least _POOL_MIN_WORK of it; a smaller command runs
serially in the calling process.
"""

from __future__ import annotations

import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
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
    run_measure,
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

# Least estimated work, in pair distances, that pays for one pool process.
# A task of S specifications over a sample of n evaluates S * b replicate
# rows and n deletion rows of about n**2 pair distances each. On the smoke
# fixture (2 CPUs, fresh interpreters, median of 5 runs) serial time over
# the time with a pool of 2 was, for `run`, 0.53 at 0.54 M of work (B =
# 200), 0.68 at 1.3 M, 0.94 at 2.5 M and 1.28 at 4.9 M; for `multiverse`,
# 1.09 at 0.6 M (B = 10), 1.22 at 1.2 M, 1.63 at 1.8 M and 1.54 at 12 M (B =
# 200). Two processes start from 2 * _POOL_MIN_WORK = 2.1 M, between the
# two break-evens: the estimate leaves out each cell's fixed cost, and the
# multiverse's 144 cells pay more of it than the run's 6.
_POOL_MIN_WORK = 1 << 20


def _integer(name: str, value) -> int:
    """value as a Python int: an int or numpy integer, never a bool, a
    float or anything else, which would fail deep inside a command after
    the smoke workspace is written."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        self.base_seed = _integer("base_seed", self.base_seed)
        if self.bootstrap_b is not None:
            self.bootstrap_b = _integer("bootstrap_b", self.bootstrap_b)
            if not 1 <= self.bootstrap_b <= MAX_B:
                raise ValueError(f"bootstrap_b must be in [1, 2**32], got {self.bootstrap_b}")
        self.workers = _integer("workers", self.workers)
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
        fields = asdict(evidence)
        del fields["measure_id"]
        measures_evidence[entry.measure_id] = fields
    return len(table), samples, measures_evidence


def _measure_task(args) -> list[MultiverseCell]:
    specs, sample, base_seed, b = args
    return run_measure(specs, sample, base_seed, b)


def _pool_size(tasks: list, workers: int) -> int:
    """Processes worth starting for tasks: at most workers, one per task,
    and one per _POOL_MIN_WORK of estimated work. At most 1 means serial."""
    work = sum((len(specs) * b + sample.n) * sample.n**2 for specs, sample, _, b in tasks)
    return min(workers, len(tasks), work // _POOL_MIN_WORK)


def _run_measures(tasks: list, workers: int) -> list[list[MultiverseCell]]:
    processes = _pool_size(tasks, workers)
    if processes <= 1:
        return [_measure_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(_measure_task, tasks))


def _execute(
    config: RunConfig,
    command: str,
    specs: list[Specification],
    write_results: Callable[[Path, list[MultiverseCell], ContractRegistry], dict],
) -> dict:
    """Shared body of run and multiverse: materialize (smoke) and digest the
    workspace inputs, load the samples, evaluate every specification on
    each measure (one task per measure), then write the command's results,
    the ingest evidence and, last, the provenance record."""
    if config.mode == "smoke":
        ensure_smoke_workspace(config.workspace)
    input_digests, archives = digest_inputs(config.workspace, config.mode)
    registry = load_contract(config.workspace / CONTRACT_RELPATH)
    row_count, samples, measures_evidence = _load_samples(config.workspace, registry)
    tasks = [
        (specs, samples[entry.measure_id], config.base_seed, config.resolved_b)
        for entry in registry.primary_measures()
    ]
    by_measure = _run_measures(tasks, config.workers)
    cells = [cell for row in zip(*by_measure) for cell in row]  # spec-major
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
