"""Input verification, trial filtering, aggregation, and session pairing.

The pipeline consumes one processed long-format CSV with columns
subject_id, task, session, condition, rt_ms, accuracy (accuracy may be
empty for pure-RT tasks). Raw archives are verified by SHA-256 before any
row is read. The table is read once into numpy columns (a TrialTable), and
each measure's sample is built from those columns.

csv.reader with the default dialect defines the table's format. Most
tables are plain, though: no quotes, no carriage returns, six fields on
every line. On such lines csv.reader splits exactly where str.split(",")
does, so the reader splits plain chunks of lines with one str.split and
hands the rest of the file to csv.reader at the first chunk that is not
plain.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np

from .errors import HashMismatchError, IngestError
from .hashutil import sha256_file
from .registry import AggregationRecipe, MeasureContract

RT_MIN_MS = 200.0
RT_MAX_MS = 5000.0

LONG_CSV_COLUMNS = ("subject_id", "task", "session", "condition", "rt_ms", "accuracy")

MISSING_ACCURACY = -1
_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class TrialTable:
    """The processed long table as columns, one entry per trial in file order.

    All columns are int32 except rt_ms (float64). subject, task and
    condition hold codes into the sorted level tuples subjects, tasks and
    conditions; session holds 1 or 2; accuracy holds 0, 1, or
    MISSING_ACCURACY where the field was empty."""

    subjects: tuple[str, ...]
    tasks: tuple[str, ...]
    conditions: tuple[str, ...]
    subject: np.ndarray
    task: np.ndarray
    session: np.ndarray
    condition: np.ndarray
    rt_ms: np.ndarray
    accuracy: np.ndarray

    def __len__(self) -> int:
        return int(self.rt_ms.size)


def _code(levels: tuple[str, ...], name: str) -> int:
    """The code of `name` among `levels`, or -1, which no row carries."""
    return levels.index(name) if name in levels else -1


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


def _check_row(row: list[str], where: str) -> None:
    """The row-wise validator: raise the message for the first problem of
    one record, checking parse, session, rt, accuracy, then identifiers."""
    if len(row) != len(LONG_CSV_COLUMNS):
        raise IngestError(
            f"{where}: expected {len(LONG_CSV_COLUMNS)} fields, got {len(row)}"
        )
    subject_id, task, session_raw, condition, rt_raw, acc_raw = row
    try:
        session = int(session_raw)
        rt = float(rt_raw)
        accuracy = None if acc_raw == "" else int(acc_raw)
    except ValueError as exc:
        raise IngestError(f"{where}: bad row ({exc})") from None
    if session not in (1, 2):
        raise IngestError(f"{where}: session must be 1 or 2")
    if not math.isfinite(rt) or rt < 0:
        raise IngestError(f"{where}: rt_ms must be finite and >= 0")
    if accuracy is not None and accuracy not in (0, 1):
        raise IngestError(f"{where}: accuracy must be 0, 1, or empty")
    if not subject_id or not task or not condition:
        raise IngestError(f"{where}: empty identifier field")


def _raise_first_bad_row(path: Path, skip: int) -> NoReturn:
    """Re-read the table past its first `skip` records and raise the error
    for the first bad record, reporting the physical line on which the
    record starts. The error is the row-wise validator's, or csv.reader's
    own when it cannot read the record (a field longer than
    csv.field_size_limit()); `skip` = 0 also re-reads the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            next(reader)
            deque(islice(reader, skip), maxlen=0)
            start = reader.line_num + 1
            for row in reader:
                if row:
                    _check_row(row, f"{path.name}:{start}")
                start = reader.line_num + 1
        except csv.Error as exc:
            raise IngestError(f"{path.name}:{start}: {exc}") from None
    raise AssertionError(f"{path.name}: a chunk failed validation but no row did")


def _raise_not_utf8(path: Path) -> NoReturn:
    """Raise the error for the first bytes of the table that are not UTF-8,
    naming the physical line they are on."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise IngestError(
            f"{path.name}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    raise AssertionError(f"{path.name}: decoding failed but the bytes are UTF-8")


def _parse_identifier(text: str, next_code: int) -> int | None:
    return next_code if text else None


def _parse_session(text: str, next_code: int) -> int | None:
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value in (1, 2) else None


def _parse_accuracy(text: str, next_code: int) -> int | None:
    if text == "":
        return MISSING_ACCURACY
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value in (0, 1) else None


def _encode(
    values: Sequence[str],
    levels: dict[str, int],
    parse: Callable[[str, int], int | None],
) -> np.ndarray | None:
    """Map each string to its code. An unseen string's code is
    parse(string, len(levels)), and it joins `levels`; None when parse
    refuses one of the strings."""
    for text in dict.fromkeys(values):
        if text not in levels:
            code = parse(text, len(levels))
            if code is None:
                return None
            levels[text] = code
    return np.fromiter(map(levels.__getitem__, values), dtype=np.int32, count=len(values))


def _parse_rt(values: Sequence[str]) -> np.ndarray | None:
    """Python float() of each value; None unless all are finite and >= 0."""
    try:
        rt = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except ValueError:
        return None
    return rt if (np.isfinite(rt) & (rt >= 0)).all() else None


# per column of LONG_CSV_COLUMNS: the parser of its distinct strings, or
# None for rt_ms, which is parsed value by value
_PARSERS = (_parse_identifier, _parse_identifier, _parse_session, _parse_identifier, None, _parse_accuracy)


def _sorted_codes(codes: np.ndarray, levels: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Re-code first-appearance codes as ranks in sorted() order."""
    names = sorted(levels)
    rank = np.empty(len(names), dtype=np.int32)
    rank[[levels[name] for name in names]] = np.arange(len(names), dtype=np.int32)
    return rank[codes], tuple(names)


def _plain_columns(lines: list[str], field_limit: int) -> list[list[str]] | None:
    """The six columns of a chunk of physical lines, or None unless the
    chunk is plain: no '"', carriage return or NUL (which csv.reader
    refuses before Python 3.11), no line longer than `field_limit`, and
    exactly five commas on every line. csv.reader reads each plain line as
    one record, split where str.split(",") splits it, so the whole chunk
    is split at once and each column taken with a stride-6 slice."""
    width = len(LONG_CSV_COLUMNS)
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    if max(map(len, lines)) > field_limit or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    fields = text.replace("\n", ",").split(",")
    del fields[width * len(lines) :]  # the empty field after a final newline
    return [fields[k::width] for k in range(width)]


def _csv_chunks(
    lines: Iterable[str], path: Path, records: int
) -> Iterator[tuple[int, Sequence[Sequence[str]]]]:
    """csv.reader's records from `lines`, which begin `records` records
    into the table, in chunks of _CHUNK_ROWS as (records before the chunk,
    its six columns). Blank records are dropped; a chunk with a ragged
    record, or one csv.reader cannot read, raises the first bad row."""
    reader = csv.reader(lines)
    while True:
        try:
            chunk = list(islice(reader, _CHUNK_ROWS))
        except csv.Error:
            _raise_first_bad_row(path, records)
        if not chunk:
            return
        skip, records = records, records + len(chunk)
        widths = set(map(len, chunk))
        if 0 in widths:
            widths.discard(0)
            chunk = [row for row in chunk if row]
        if not chunk:
            continue
        if widths != {len(LONG_CSV_COLUMNS)}:
            _raise_first_bad_row(path, skip)
        yield skip, list(zip(*chunk))


def _chunks(fh: TextIO, path: Path) -> Iterator[tuple[int, Sequence[Sequence[str]]]]:
    """The records after the header in chunks, as (records before the
    chunk, its six columns). Chunks of _CHUNK_ROWS physical lines are split
    by _plain_columns while they are plain; the first chunk that is not,
    and every line after it, go through csv.reader."""
    field_limit = csv.field_size_limit()
    records = 0
    while lines := list(islice(fh, _CHUNK_ROWS)):
        columns = _plain_columns(lines, field_limit)
        if columns is None:
            yield from _csv_chunks(chain(lines, fh), path, records)
            return
        yield records, columns
        records += len(lines)


def read_long_csv(path: str | Path) -> TrialTable:
    """Parse and validate the processed long table in one streaming pass.

    The table is what csv.reader reads from it. Records are read in chunks
    of _CHUNK_ROWS: while the chunks are plain (see _plain_columns) each is
    split by one str.split, which is how csv.reader would split it; from
    the first chunk that is not plain on, csv.reader reads the rest, so
    quoted fields, CRLF line ends and blank lines parse as csv defines
    them. Each column of a chunk is parsed and checked at once:
    identifiers, session and accuracy by their distinct strings, rt_ms by
    Python float() per value. A chunk that fails any check is re-read row
    by row, so the error names the first bad record and its physical line.
    Blank lines are skipped; a record with too few or too many fields, a
    field longer than csv.field_size_limit() and bytes that are not UTF-8
    are errors."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"processed table missing: {path}")
    levels: list[dict[str, int]] = [{} for _ in LONG_CSV_COLUMNS]
    columns = [[np.empty(0, np.float64 if parse is None else np.int32)] for parse in _PARSERS]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh), None)
            except csv.Error:
                _raise_first_bad_row(path, 0)
            if header is None or tuple(header) != LONG_CSV_COLUMNS:
                raise IngestError(
                    f"{path.name}: expected header {','.join(LONG_CSV_COLUMNS)}, got {header}"
                )
            for skip, chunk in _chunks(fh, path):
                parts = [
                    _parse_rt(values) if parse is None else _encode(values, seen, parse)
                    for values, seen, parse in zip(chunk, levels, _PARSERS)
                ]
                if any(part is None for part in parts):
                    _raise_first_bad_row(path, skip)
                for column, part in zip(columns, parts):
                    column.append(part)
    except UnicodeDecodeError:
        _raise_not_utf8(path)
    subject, task, session, condition, rt_ms, accuracy = map(np.concatenate, columns)
    subject_levels, task_levels, _, condition_levels, _, _ = levels
    subject, subjects = _sorted_codes(subject, subject_levels)
    task, tasks = _sorted_codes(task, task_levels)
    condition, conditions = _sorted_codes(condition, condition_levels)
    return TrialTable(
        subjects=subjects,
        tasks=tasks,
        conditions=conditions,
        subject=subject,
        task=task,
        session=session,
        condition=condition,
        rt_ms=rt_ms,
        accuracy=accuracy,
    )


def filter_trials(
    rt_ms: np.ndarray,
    min_ms: float = RT_MIN_MS,
    max_ms: float = RT_MAX_MS,
) -> tuple[np.ndarray, FilterCounts]:
    """Mask of the trials to keep, dropping implausibly fast/slow ones;
    trials exactly at a bound stay."""
    below = rt_ms < min_ms
    above = ~below & (rt_ms > max_ms)
    keep = ~(below | above)
    return keep, FilterCounts(
        below_min=int(below.sum()), above_max=int(above.sum()), kept=int(keep.sum())
    )


def _cell_score(values: np.ndarray, condition: str, recipe: AggregationRecipe) -> float | None:
    if values.size == 0:
        return None
    if recipe.unit != "ms" and (values == MISSING_ACCURACY).any():
        raise IngestError(
            "accuracy outcome requested but accuracy column is empty "
            f"for condition {condition!r}"
        )
    return float(np.mean(values))


def aggregate_scores(
    table: TrialTable, rows: np.ndarray, recipe: AggregationRecipe
) -> tuple[dict[tuple[str, int], float], list[str]]:
    """One score per (subject, session) over the table rows `rows` (indices
    in file order); cells with no trials are recorded and excluded rather
    than scored.

    Rows are grouped by a stable argsort on (subject, session), so each
    cell mean runs over its trials in file order."""
    key = table.subject[rows].astype(np.int64) * 2 + (table.session[rows] - 1)
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))  # cell edges
    values = table.rt_ms[rows] if recipe.unit == "ms" else table.accuracy[rows]
    condition = table.condition[rows]
    wanted = [recipe.condition_a]
    if recipe.outcome == "condition_contrast":
        wanted.append(recipe.condition_b)
    codes = [_code(table.conditions, name) for name in wanted]
    scores: dict[tuple[str, int], float] = {}
    zero_cells: list[str] = []
    for lo, hi, cell_key in zip(bounds[:-1], bounds[1:], key[bounds[:-1]].tolist()):
        subject, session = table.subjects[cell_key // 2], cell_key % 2 + 1
        cell = [
            _cell_score(values[lo:hi][condition[lo:hi] == code], name, recipe)
            for name, code in zip(wanted, codes)
        ]
        missing = [name for name, score in zip(wanted, cell) if score is None]
        if missing:
            zero_cells.append(f"{subject}/s{session}/{missing[0]}")
            continue
        scores[(subject, session)] = cell[0] - cell[1] if len(cell) == 2 else cell[0]
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
    table: TrialTable, contract: MeasureContract
) -> tuple[PairedSample, MeasureEvidence]:
    """Full ingest path for one measure: select task rows, filter trials,
    aggregate, pair sessions."""
    task_rows = np.flatnonzero(table.task == _code(table.tasks, contract.task))
    keep, counts = filter_trials(table.rt_ms[task_rows])
    scores, zero_cells = aggregate_scores(table, task_rows[keep], contract.aggregation)
    sample, dropped = pair_sessions(scores, contract.measure_id)
    evidence = MeasureEvidence(
        measure_id=contract.measure_id,
        task=contract.task,
        row_count=int(task_rows.size),
        filter_counts=counts,
        zero_trial_cells=tuple(zero_cells),
        dropped_subjects=tuple(dropped),
        n_pairs=sample.n,
    )
    return sample, evidence
