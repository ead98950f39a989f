"""Input verification, trial filtering, aggregation, and session pairing.

The pipeline consumes one processed long-format CSV with columns
subject_id, task, session, condition, rt_ms, accuracy (accuracy may be
empty for pure-RT tasks). Raw archives are verified by SHA-256 before any
row is read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import HashMismatchError, IngestError
from .hashutil import sha256_file
from .registry import AggregationRecipe, MeasureContract

RT_MIN_MS = 200.0
RT_MAX_MS = 5000.0

LONG_CSV_COLUMNS = ("subject_id", "task", "session", "condition", "rt_ms", "accuracy")


@dataclass(frozen=True)
class TrialRow:
    subject_id: str
    task: str
    session: int
    condition: str
    rt_ms: float
    accuracy: int | None


@dataclass(frozen=True)
class FilterCounts:
    below_min: int
    above_max: int
    kept: int

    @property
    def total(self) -> int:
        return self.below_min + self.above_max + self.kept


@dataclass(frozen=True)
class ArchiveEvidence:
    archive: str
    path: str
    expected_sha256: str
    observed_sha256: str


@dataclass(frozen=True)
class MeasureEvidence:
    """Per-measure ingest audit trail: the partition below+above+kept must
    equal row_count, which the promotion gate re-checks from the emitted
    JSON."""

    measure_id: str
    task: str
    row_count: int
    filter_counts: FilterCounts
    zero_trial_cells: tuple[str, ...]
    dropped_subjects: tuple[str, ...]
    n_pairs: int


@dataclass(frozen=True)
class PairedSample:
    """Two same-length score vectors aligned by subject.

    subjects may be empty for transient resamples; when present it is
    sorted and aligned with the score arrays.
    """

    measure_id: str
    x1: np.ndarray
    x2: np.ndarray
    subjects: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.x1.shape != self.x2.shape or self.x1.ndim != 1:
            raise IngestError("paired sample requires two 1-d arrays of equal length")
        if self.subjects and len(self.subjects) != self.x1.size:
            raise IngestError("subjects must align with score arrays")

    @property
    def n(self) -> int:
        return int(self.x1.size)


def verify_archive(path: str | Path, expected_sha256: str) -> ArchiveEvidence:
    """Stream-hash a file and compare against the pinned digest."""
    path = Path(path)
    if not path.is_file():
        raise HashMismatchError(f"input file missing: {path}")
    observed = sha256_file(path)
    if observed != expected_sha256:
        raise HashMismatchError(
            f"{path.name}: expected sha256 {expected_sha256}, observed {observed}"
        )
    return ArchiveEvidence(
        archive=path.name,
        path=str(path),
        expected_sha256=expected_sha256,
        observed_sha256=observed,
    )


def read_long_csv(path: str | Path) -> list[TrialRow]:
    """Parse the processed long table, validating every row."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"processed table missing: {path}")
    rows: list[TrialRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != LONG_CSV_COLUMNS:
            raise IngestError(
                f"{path.name}: expected header {','.join(LONG_CSV_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        for lineno, raw in enumerate(reader, start=2):
            try:
                session = int(raw["session"])
                rt = float(raw["rt_ms"])
                acc_raw = raw["accuracy"]
                accuracy = None if acc_raw in ("", None) else int(acc_raw)
            except (TypeError, ValueError) as exc:
                raise IngestError(f"{path.name}:{lineno}: bad row ({exc})") from None
            if session not in (1, 2):
                raise IngestError(f"{path.name}:{lineno}: session must be 1 or 2")
            if not np.isfinite(rt) or rt < 0:
                raise IngestError(f"{path.name}:{lineno}: rt_ms must be finite and >= 0")
            if accuracy is not None and accuracy not in (0, 1):
                raise IngestError(f"{path.name}:{lineno}: accuracy must be 0, 1, or empty")
            if not raw["subject_id"] or not raw["task"] or not raw["condition"]:
                raise IngestError(f"{path.name}:{lineno}: empty identifier field")
            rows.append(
                TrialRow(
                    subject_id=raw["subject_id"],
                    task=raw["task"],
                    session=session,
                    condition=raw["condition"],
                    rt_ms=rt,
                    accuracy=accuracy,
                )
            )
    return rows


def filter_trials(
    rows: Iterable[TrialRow],
    min_ms: float = RT_MIN_MS,
    max_ms: float = RT_MAX_MS,
) -> tuple[list[TrialRow], FilterCounts]:
    """Drop implausibly fast/slow trials; rows exactly at a bound stay."""
    kept: list[TrialRow] = []
    below = above = 0
    for row in rows:
        if row.rt_ms < min_ms:
            below += 1
        elif row.rt_ms > max_ms:
            above += 1
        else:
            kept.append(row)
    return kept, FilterCounts(below_min=below, above_max=above, kept=len(kept))


def _cell_score(rows: list[TrialRow], condition: str, recipe: AggregationRecipe) -> float | None:
    cell = [r for r in rows if r.condition == condition]
    if not cell:
        return None
    if recipe.unit == "ms":
        return float(np.mean([r.rt_ms for r in cell]))
    accs = [r.accuracy for r in cell]
    if any(a is None for a in accs):
        raise IngestError(
            "accuracy outcome requested but accuracy column is empty "
            f"for condition {condition!r}"
        )
    return float(np.mean(accs))


def aggregate_scores(
    rows: list[TrialRow], recipe: AggregationRecipe
) -> tuple[dict[tuple[str, int], float], list[str]]:
    """One score per (subject, session); cells with no trials are recorded
    and excluded rather than scored."""
    grouped: dict[tuple[str, int], list[TrialRow]] = {}
    for row in rows:
        grouped.setdefault((row.subject_id, row.session), []).append(row)
    scores: dict[tuple[str, int], float] = {}
    zero_cells: list[str] = []
    for key in sorted(grouped):
        subject, session = key
        cell_rows = grouped[key]
        a = _cell_score(cell_rows, recipe.condition_a, recipe)
        if recipe.outcome == "condition_contrast":
            b = _cell_score(cell_rows, recipe.condition_b, recipe)
            if a is None or b is None:
                missing = recipe.condition_a if a is None else recipe.condition_b
                zero_cells.append(f"{subject}/s{session}/{missing}")
                continue
            scores[key] = a - b
        else:
            if a is None:
                zero_cells.append(f"{subject}/s{session}/{recipe.condition_a}")
                continue
            scores[key] = a
    return scores, zero_cells


def pair_sessions(
    scores: dict[tuple[str, int], float], measure_id: str
) -> tuple[PairedSample, list[str]]:
    """Align session-1 and session-2 scores by subject, sorted by subject_id.

    Subjects missing either session (or carrying a non-finite score) are
    dropped and reported.
    """
    subjects = sorted({subject for subject, _ in scores})
    x1: list[float] = []
    x2: list[float] = []
    kept: list[str] = []
    dropped: list[str] = []
    for subject in subjects:
        a = scores.get((subject, 1))
        b = scores.get((subject, 2))
        if a is None or b is None or not (np.isfinite(a) and np.isfinite(b)):
            dropped.append(subject)
            continue
        kept.append(subject)
        x1.append(a)
        x2.append(b)
    sample = PairedSample(
        measure_id=measure_id,
        x1=np.asarray(x1, dtype=np.float64),
        x2=np.asarray(x2, dtype=np.float64),
        subjects=tuple(kept),
    )
    return sample, dropped


def build_sample(
    rows: list[TrialRow], contract: MeasureContract
) -> tuple[PairedSample, MeasureEvidence]:
    """Full ingest path for one measure: select task rows, filter trials,
    aggregate, pair sessions."""
    task_rows = [r for r in rows if r.task == contract.task]
    kept, counts = filter_trials(task_rows)
    scores, zero_cells = aggregate_scores(kept, contract.aggregation)
    sample, dropped = pair_sessions(scores, contract.measure_id)
    evidence = MeasureEvidence(
        measure_id=contract.measure_id,
        task=contract.task,
        row_count=len(task_rows),
        filter_counts=counts,
        zero_trial_cells=tuple(zero_cells),
        dropped_subjects=tuple(dropped),
        n_pairs=sample.n,
    )
    return sample, evidence
