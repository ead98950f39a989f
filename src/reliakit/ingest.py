"""Input verification, the trial table, and each measure's paired sample.

The pipeline consumes one processed long-format CSV with columns
subject_id, task, session, condition, rt_ms, accuracy (accuracy may be
empty for pure-RT tasks). Raw archives are verified by SHA-256 before any
row is read. The table is read once into numpy columns (a TrialTable), and
build_sample turns those columns into each measure's PairedSample in one
columnar pass: it keeps the task's trials within [RT_MIN_MS, RT_MAX_MS],
scores each (subject, session) cell from its condition means, and pairs
the two sessions of each subject. A cell with no trials of a wanted
condition is a zero-trial cell and is not scored; a subject with rows in
the task that is left without two scored cells is dropped. Both are
recorded in the MeasureEvidence.

csv.reader with the default dialect defines the table's format. Most
tables are plain, though: no quotes, no carriage returns, six fields on
every line. On such lines csv.reader splits exactly at the commas, so the
reader finds the commas and newlines of a chunk of plain lines in one numpy
pass over its bytes and codes each column by its distinct byte strings. It
hands the rest of the file to csv.reader at the first chunk that is not
plain, or that the byte path cannot parse (a wide field, an rt_ms that
float() parses only from a str, a bad value).

rt_ms is the correctly rounded double of each field, equal to Python
float() of it. On the byte path a numpy kernel reads the fields of 1 to 19
ASCII digits with at most one '.' (Clinger's fast path, then Eisel and
Lemire's algorithm), and float() reads every other field and the few the
kernel cannot round.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress, islice
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .errors import HashMismatchError, IngestError
from .hashutil import sha256_file
from .registry import MeasureContract
from .wideint import mulhi64

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


def _level_codes(
    texts: Iterable[str],
    levels: dict[str, int],
    parse: Callable[[str, int], int | None],
) -> list[int] | None:
    """The code of each distinct string. An unseen string's code is
    parse(string, len(levels)), and it joins `levels`; None when parse
    refuses one of the strings."""
    codes = []
    for text in texts:
        if text not in levels:
            code = parse(text, len(levels))
            if code is None:
                return None
            levels[text] = code
        codes.append(levels[text])
    return codes


def _encode(
    values: Sequence[str],
    levels: dict[str, int],
    parse: Callable[[str, int], int | None],
) -> np.ndarray | None:
    """Map each string to its code (see _level_codes); None when parse
    refuses one of the strings."""
    if _level_codes(dict.fromkeys(values), levels, parse) is None:
        return None
    return np.fromiter(map(levels.__getitem__, values), dtype=np.int32, count=len(values))


def _parse_rt(values: Sequence[str | bytes]) -> np.ndarray | None:
    """Python float() of each value; None unless all are finite and >= 0."""
    try:
        rt = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except ValueError:
        return None
    return rt if (np.isfinite(rt) & (rt >= 0)).all() else None


# per column of LONG_CSV_COLUMNS: the parser of its distinct strings, or
# None for rt_ms, which is read value by value (_parse_rt, _rt_from_bytes)
_PARSERS = (_parse_identifier, _parse_identifier, _parse_session, _parse_identifier, None, _parse_accuracy)


def _parse_columns(
    columns: Sequence[Sequence[str]], levels: list[dict[str, int]]
) -> list[np.ndarray] | None:
    """The six parsed columns of a chunk of records, or None when a value
    fails its check."""
    parts = [
        _parse_rt(values) if parse is None else _encode(values, seen, parse)
        for values, seen, parse in zip(columns, levels, _PARSERS)
    ]
    return None if any(part is None for part in parts) else parts


def _sorted_codes(codes: np.ndarray, levels: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Re-code first-appearance codes as ranks in sorted() order."""
    names = sorted(levels)
    rank = np.empty(len(names), dtype=np.int32)
    rank[[levels[name] for name in names]] = np.arange(len(names), dtype=np.int32)
    return rank[codes], tuple(names)


_READ_BYTES = 1 << 20
# widest field, in bytes, coded from the bytes of a plain chunk; a chunk
# with a wider one goes to csv.reader, so the field words stay small
_MAX_FIELD_BYTES = 64
_LE_WORD = np.dtype("<u8")
# _WORD_MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_LE_WORD)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# which of a plain line's six field ends is its newline
_LINE_END = np.arange(len(LONG_CSV_COLUMNS)) == len(LONG_CSV_COLUMNS) - 1

# The decimal kernel reads an rt_ms field of 1 to _MAX_DECIMAL_BYTES ASCII
# digits with at most one '.', so its digits make an integer w < 10**19 <
# 2**64, from the window of three little-endian 8-byte words that ends at
# the field's end. A chunk is read with _WINDOW_BYTES zero bytes before it,
# so every field has a whole window, whose first byte is never the field's.
_MAX_DECIMAL_BYTES = 19
_WINDOW_BYTES = 24
_WINDOW = np.dtype(f"V{_WINDOW_BYTES}")


def _every_byte(value: int) -> int:
    return value * 0x0101010101010101


def _window_masks(masks: Iterable[int]) -> np.ndarray:
    return np.frombuffer(b"".join(m.to_bytes(_WINDOW_BYTES, "little") for m in masks), _WINDOW)


_ZEROS = _every_byte(ord("0"))
_LOW7 = _every_byte(0x7F)
_HIGH_BITS = _every_byte(0x80)
# added to a byte below 0x80, sets its bit 7 exactly when the byte is >= 10
_TENS = _every_byte(0x80 - 10)
_DOT = _every_byte(ord(".") ^ ord("0"))
# multiplied by a word of 0/1 bytes, puts byte k's bit at bit 56 + k
_MOVEMASK = 0x0102040810204080
# _FIELD_BYTES[n] keeps the last min(n, 24) bytes of a window, for a field
# of n <= _MAX_FIELD_BYTES bytes
_FIELD_BYTES = _window_masks(
    (1 << 8 * min(n, _WINDOW_BYTES)) - 1 << 8 * (_WINDOW_BYTES - min(n, _WINDOW_BYTES))
    for n in range(_MAX_FIELD_BYTES + 1)
)
# _BEFORE_DOT[q] holds bytes 1 to q of a window, each of which takes the byte
# before it when a dot at byte q is removed; q = 32 means no dot
_BEFORE_DOT = _window_masks(
    (1 << 8 * q + 8) - 256 if q < _WINDOW_BYTES else 0 for q in range(33)
)
_POW10 = np.array([float(10**f) for f in range(_MAX_DECIMAL_BYTES)])
# 5**-f to 128 bits, truncated: floor(2**(127 + ceil(log2 5**f)) / 5**f),
# whose top bit is set, split into its high and low 64 bits
_POW5 = [(1 << 127 + (5**f - 1).bit_length()) // 5**f for f in range(_MAX_DECIMAL_BYTES)]
_POW5_HI = np.array([m >> 64 for m in _POW5], dtype=np.uint64)
_POW5_LO = np.array([m & (1 << 64) - 1 for m in _POW5], dtype=np.uint64)
# 1085 - ceil(log2 10**f): with the product's top bit and the shift that
# normalized w, the biased exponent less one of w / 10**f
_POW5_EXPONENT = np.array(
    [1085 - (10**f - 1).bit_length() for f in range(_MAX_DECIMAL_BYTES)], dtype=np.uint64
)
_LOW9 = 0x1FF


def _line_chunks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of `fh` in chunks of _CHUNK_ROWS lines, each cut just after
    its last newline; the last chunk may hold fewer lines and lack the
    final newline."""
    rows = _CHUNK_ROWS
    pending: list[bytes] = []
    count = 0  # newlines in pending
    while block := fh.read(_READ_BYTES):
        cuts = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n")) + 1
        start = 0
        for cut in cuts[rows - count - 1 :: rows].tolist():
            yield b"".join([*pending, block[start:cut]])
            pending, start = [], cut
        count = (count + cuts.size) % rows
        pending.append(block[start:])
    if any(pending):
        yield b"".join(pending)


def _plain_fields(data: bytes, field_limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (lines, 6) byte offsets and lengths of the fields of a chunk of
    lines that ends in a newline, or None unless the chunk is plain: no
    '"', carriage return or NUL (which csv.reader refuses before Python
    3.11), exactly five commas and then a newline on every line, and no
    field longer than `field_limit` bytes. csv.reader reads each plain line
    as one record whose fields lie between those commas."""
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    width = len(LONG_CSV_COLUMNS)
    text = np.frombuffer(data, np.uint8)
    newline = text == ord("\n")
    ends = np.flatnonzero(newline | (text == ord(",")))
    if ends.size % width or (newline[ends].reshape(-1, width) != _LINE_END).any():
        return None
    lines = ends.size // width
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    starts, ends = starts.reshape(lines, width), ends.reshape(lines, width)
    lengths = ends - starts
    if lengths.max() > field_limit:
        return None
    return starts, lengths


def _field_words(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One column's fields as rows of little-endian 8-byte words, zero past
    each field's end: `words` holds the word at every byte offset."""
    columns = -(-int(lengths.max()) // 8) or 1
    out = np.empty((starts.size, columns), dtype=_LE_WORD)
    for j in range(columns):
        out[:, j] = words[starts + 8 * j] & _WORD_MASKS[np.clip(lengths - 8 * j, 0, 8)]
    return out


def _code_words(
    rows: np.ndarray, levels: dict[str, int], parse: Callable[[str, int], int | None]
) -> np.ndarray | None:
    """Code each row of field words by its distinct bytes. Rows are grouped
    by a hash of their words, and each row must equal its group's first
    row word for word, so the hash only proposes the groups. None on a
    hash collision or when parse refuses a level."""
    key = rows[:, 0]
    for j in range(1, rows.shape[1]):
        key = key * _HASH_MULTIPLIER + rows[:, j]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if (rows != rows[first][inverse]).any():
        return None
    names = rows[first].view(f"S{rows.shape[1] * 8}").ravel().tolist()
    codes = _level_codes([name.decode("utf-8") for name in names], levels, parse)
    return None if codes is None else np.array(codes, dtype=np.int32)[inverse]


def _words(windows: np.ndarray) -> np.ndarray:
    return windows.view(_LE_WORD).reshape(-1, 3)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The integer of the eight digits 0-9 in the bytes of each word, first
    byte first (SWAR: pairs, then quads, then all eight)."""
    x = (x & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    x = (x & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (x & 0x0000FFFF0000FFFF) * 42949672960001 >> 32


def _decimal_digits(
    windows: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, fraction, taken) of the fields that end at `ends`: w is the
    integer of a field's digits and fraction the number of digits after its
    dot, so the field reads w / 10**fraction. `taken` marks the fields of 1
    to _MAX_DECIMAL_BYTES bytes that are ASCII digits with at most one '.'
    and at least one digit; w and fraction mean nothing elsewhere. No
    length may exceed _MAX_FIELD_BYTES. Every step works on whole words,
    none on single bytes."""
    x = _words(windows[ends - _WINDOW_BYTES])
    x ^= _ZEROS  # a digit becomes 0-9, and '.' becomes _DOT's byte
    x &= _words(_FIELD_BYTES[lengths])  # the bytes before the field become 0
    flags = ((((x & _LOW7) + _TENS) | x) & _HIGH_BITS) >> 7  # 1 in each byte not a digit
    strays = (x ^ _DOT) & flags * 0xFF  # not 0 where such a byte is not a dot
    marks = (flags * _MOVEMASK >> 56).astype(np.uint32)
    dots = marks[:, 0] | marks[:, 1] << 8 | marks[:, 2] << 16  # bit q: byte q is not a digit
    count = np.bitwise_count(dots)
    taken = (
        ((strays[:, 0] | strays[:, 1] | strays[:, 2]) == 0)
        & (count <= 1)
        & (lengths > count)
        & (lengths <= _MAX_DECIMAL_BYTES)
    )
    at = np.bitwise_count(dots - 1).astype(np.intp)  # the dot's byte, or 32
    # close the dot's gap: each byte before it moves one place on; the
    # carry into a window's first word comes from the row before it, and
    # _BEFORE_DOT never takes it
    moved = x << 8
    moved.reshape(-1)[1:] |= x.reshape(-1)[:-1] >> 56
    x ^= (x ^ moved) & _words(_BEFORE_DOT[at])
    c = _eight_digits(x)
    w = (c[:, 0] * 100_000_000 + c[:, 1]) * 100_000_000 + c[:, 2]
    return w, (_WINDOW_BYTES - 1 - at) * count, taken


def _eisel_lemire(w: np.ndarray, fraction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, exact): w / 10**fraction rounded to the nearest double, for
    2**53 < w < 2**64 and fraction <= 18, by Eisel and Lemire's algorithm
    (Lemire, "Number Parsing at a Gigabyte per Second", 2021; as Go's
    strconv.eiselLemire64). `exact` is False where the algorithm bails out
    because the truncated products cannot settle the rounding."""
    # w's top bit; the conversion may round up to the next power of two
    top = (w.astype(np.float64).view(np.uint64) >> 52) - 1023
    top -= (w >> top) == 0
    shift = 63 - top
    man = w << shift
    hi = _POW5_HI[fraction]
    x_hi, x_lo = mulhi64(man, hi), man * hi
    exact = np.ones(w.size, dtype=bool)
    # the low 64 bits of 5**-fraction can carry into the bits kept below
    # only where these are all ones: add their product there
    wide = np.flatnonzero(((x_hi & _LOW9) == _LOW9) & (x_lo + man < man))
    man_w, lo = man[wide], _POW5_LO[fraction[wide]]
    y_hi, y_lo = mulhi64(man_w, lo), man_w * lo
    merged_lo = x_lo[wide] + y_hi
    merged_hi = x_hi[wide] + (merged_lo < y_hi)
    exact[wide] = ~(
        ((merged_hi & _LOW9) == _LOW9) & (merged_lo + 1 == 0) & (y_lo + man_w < man_w)
    )
    x_hi[wide], x_lo[wide] = merged_hi, merged_lo
    upper = x_hi >> 63
    mantissa = x_hi >> upper + 9  # 54 bits
    # an exact product halfway between two doubles: round to even is unknown
    exact &= (x_lo != 0) | ((x_hi & _LOW9) != 0) | ((mantissa & 3) != 1)
    # adding the rounded 53-bit mantissa with its leading bit, or 2**53
    # where rounding carries out, to the exponent less one makes the double
    exponent = _POW5_EXPONENT[fraction] + upper - shift
    bits = (exponent << 52) + (mantissa + (mantissa & 1) >> 1)
    return bits.view(np.float64), exact


def _read_decimals(
    windows: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, taken): float() of each field that ends at `ends`, bit for
    bit, where `taken`. A field is taken when _decimal_digits takes it and
    its w / 10**fraction is either Clinger's fast case, w <= 2**53, which is
    one correctly rounded division of two exact doubles (Clinger, "How to
    Read Floating Point Numbers Accurately", 1990), or one that
    _eisel_lemire rounds without bailing out."""
    w, fraction, taken = _decimal_digits(windows, ends, lengths)
    values = np.zeros(w.size)
    small = w <= 1 << 53
    clinger = np.flatnonzero(taken & small)
    values[clinger] = w[clinger].astype(np.float64) / _POW10[fraction[clinger]]
    lemire = np.flatnonzero(taken & ~small)
    values[lemire], taken[lemire] = _eisel_lemire(w[lemire], fraction[lemire])
    return values, taken


def _rt_from_bytes(padded: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The rt_ms column of a plain chunk, with _parse_rt's values and
    checks: the decimal kernel's value where _read_decimals takes a field,
    float() of its bytes elsewhere. A taken field is digits and a dot, so
    its value is finite and >= 0."""
    windows = np.ndarray((len(padded) - _WINDOW_BYTES + 1,), _WINDOW, padded, strides=(1,))
    rt, taken = _read_decimals(windows, starts + lengths, lengths)
    rest = np.flatnonzero(~taken)
    fields = [padded[s : s + n] for s, n in zip(starts[rest].tolist(), lengths[rest].tolist())]
    parsed = _parse_rt(fields)
    if parsed is None:
        return None
    rt[rest] = parsed
    return rt


def _byte_columns(
    data: bytes, starts: np.ndarray, lengths: np.ndarray, levels: list[dict[str, int]]
) -> list[np.ndarray] | None:
    """The six parsed columns of a plain chunk, read from its bytes, or
    None when a field is longer than _MAX_FIELD_BYTES, when a value fails
    its check, on a hash collision, or when it would need str semantics:
    float() takes Unicode digits and spaces only from a str. Identifiers,
    session and accuracy are coded by their distinct byte strings, each
    decoded and parsed once. rt_ms is the correctly rounded double of each
    field, equal to Python float() of its bytes: the decimal kernel
    (_read_decimals) reads fields of up to _MAX_DECIMAL_BYTES ASCII digits
    with at most one '.', and float() reads the rest. Plain fields hold no
    NUL, so a field's zero-padded words give back its bytes."""
    if lengths.max() > _MAX_FIELD_BYTES:
        return None
    padded = bytes(_WINDOW_BYTES) + data + bytes(_MAX_FIELD_BYTES)
    starts = starts + _WINDOW_BYTES
    words = np.ndarray((len(padded) - 7,), dtype=_LE_WORD, buffer=padded, strides=(1,))
    parts = []
    for column, (seen, parse) in enumerate(zip(levels, _PARSERS)):
        if parse is None:
            part = _rt_from_bytes(padded, starts[:, column], lengths[:, column])
        else:
            part = _code_words(_field_words(words, starts[:, column], lengths[:, column]), seen, parse)
        if part is None:
            return None
        parts.append(part)
    return parts


def _csv_chunks(
    lines: Iterable[str], path: Path, records: int, levels: list[dict[str, int]]
) -> Iterator[list[np.ndarray]]:
    """csv.reader's records from `lines`, which begin `records` records
    into the table, parsed in chunks of _CHUNK_ROWS. Blank records are
    dropped; a chunk with a ragged record, one csv.reader cannot read, or
    one that fails a check raises the first bad row."""
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
        parts = _parse_columns(list(zip(*chunk)), levels)
        if parts is None:
            _raise_first_bad_row(path, skip)
        yield parts


def _is_header(line: bytes) -> bool:
    """Whether csv.reader reads `line`, the table's first line, as the one
    record LONG_CSV_COLUMNS and nothing more. The line must end in a
    newline and hold no other line end, so no record reaches past it."""
    if not line.endswith(b"\n") or b"\r" in line.removesuffix(b"\r\n").removesuffix(b"\n"):
        return False
    try:
        return list(csv.reader([line.decode("utf-8")])) == [list(LONG_CSV_COLUMNS)]
    except csv.Error:
        return False


def _chunks(fh: BinaryIO, path: Path, levels: list[dict[str, int]]) -> Iterator[list[np.ndarray]]:
    """The table's records after the header, parsed in chunks. After a
    header line that csv.reader reads as the column names, chunks of
    _CHUNK_ROWS lines are read from their bytes while they are plain (see
    _plain_fields) and their columns pass (see _byte_columns). From any
    other header, or from the first chunk that is not plain or does not
    pass, on, csv.reader reads the rest of the file."""
    field_limit = csv.field_size_limit()
    records = 0
    first_line = fh.readline()
    offset = len(first_line) if _is_header(first_line) else 0
    if offset:
        for data in _line_chunks(fh):
            if not data.isascii():
                data.decode("utf-8")  # raises on bytes that are not UTF-8
            whole = data if data.endswith(b"\n") else data + b"\n"
            fields = _plain_fields(whole, field_limit)
            parts = None if fields is None else _byte_columns(whole, *fields, levels)
            if parts is None:
                break
            yield parts
            records += len(parts[0])
            offset += len(data)
        else:
            return
    fh.seek(offset)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        if offset == 0:
            try:
                header = next(csv.reader(text), None)
            except csv.Error:
                _raise_first_bad_row(path, 0)
            if header is None or tuple(header) != LONG_CSV_COLUMNS:
                raise IngestError(
                    f"{path.name}: expected header {','.join(LONG_CSV_COLUMNS)}, got {header}"
                )
        yield from _csv_chunks(text, path, records, levels)
    finally:
        # fh belongs to the caller: hand it back rather than leave the
        # wrapper to close it when collected
        text.detach()


def read_long_csv(path: str | Path) -> TrialTable:
    """Parse and validate the processed long table in one streaming pass.

    The table is what csv.reader reads from it. After a first line that
    csv.reader reads as the column names, the file is read in binary chunks
    of _CHUNK_ROWS lines. While the chunks are plain (see _plain_fields),
    each is parsed from its bytes: one numpy pass finds its commas and
    newlines, identifiers, session and accuracy are coded by their distinct
    byte strings, and rt_ms is the correctly rounded double of each field,
    equal to Python float() of it: the decimal kernel (_read_decimals)
    reads fields of 1 to 19 ASCII digits with at most one '.', and float()
    of the bytes reads the rest. From any other
    header, or from the first chunk that is not plain or that the byte path
    cannot parse (a field longer than _MAX_FIELD_BYTES, an rt_ms that only
    a str parses, a bad value), on, csv.reader reads the rest, so quoted
    fields, CRLF line ends and blank lines parse as csv defines them, and
    its chunks' columns are parsed as strings by the same level parsers. A
    chunk that fails any check there is re-read row by row, so the error
    names the first bad record and its physical line. Blank lines are
    skipped; a record with too few or too many fields, a field longer than
    csv.field_size_limit() and bytes that are not UTF-8 are errors."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"processed table missing: {path}")
    levels: list[dict[str, int]] = [{} for _ in LONG_CSV_COLUMNS]
    columns = [[np.empty(0, np.float64 if parse is None else np.int32)] for parse in _PARSERS]
    try:
        with open(path, "rb") as fh:
            for parts in _chunks(fh, path, levels):
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


def filter_trials(rt_ms: np.ndarray) -> tuple[np.ndarray, FilterCounts]:
    """Mask of the trials to keep, dropping those faster than RT_MIN_MS or
    slower than RT_MAX_MS; trials exactly at a bound stay."""
    below = rt_ms < RT_MIN_MS
    above = ~below & (rt_ms > RT_MAX_MS)
    keep = ~(below | above)
    return keep, FilterCounts(
        below_min=int(below.sum()), above_max=int(above.sum()), kept=int(keep.sum())
    )


def build_sample(
    table: TrialTable, contract: MeasureContract
) -> tuple[PairedSample, MeasureEvidence]:
    """One measure's paired sample and ingest evidence: select the task's
    rows, filter trials, score each (subject, session) cell, and pair each
    subject's two sessions.

    A cell is subject * 2 + session - 1. Rows are grouped by a stable
    argsort on (cell, condition), so each group holds its trials in file
    order. The means of all groups of one condition with the same trial
    count come from one row-wise mean of a C-contiguous (groups, count)
    array, which sums each row as the 1-d mean of its trials does. A cell's
    score is its condition_a mean, less its condition_b mean for a
    contrast. A cell with no trials of a wanted condition is a zero-trial
    cell, named by the first such condition, and is not scored. Subject
    codes are ranks in sorted() order, so the pairs come out sorted by
    subject; a subject with a row in the task that is not paired (one
    scored cell, or none, as when the filter drops all its trials) is
    dropped."""
    recipe = contract.aggregation
    task_rows = np.flatnonzero(table.task == _code(table.tasks, contract.task))
    keep, counts = filter_trials(table.rt_ms[task_rows])
    rows = task_rows[keep]
    conditions = max(len(table.conditions), 1)
    key = (table.subject[rows].astype(np.int64) * 2 + (table.session[rows] - 1)) * conditions
    key += table.condition[rows]
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))  # group edges
    size = np.diff(start, append=key.size)
    group_cell, group_condition = np.divmod(key[start], conditions)
    cells = np.unique(group_cell)
    values = table.rt_ms[rows] if recipe.unit == "ms" else table.accuracy[rows]
    wanted = [recipe.condition_a]
    if recipe.outcome == "condition_contrast":
        wanted.append(recipe.condition_b)
    means = np.empty((len(wanted), cells.size))
    present = np.zeros((len(wanted), cells.size), dtype=bool)
    first_missing = None  # (cell, wanted index) of the first group with an empty accuracy
    for w, name in enumerate(wanted):
        groups = np.flatnonzero(group_condition == _code(table.conditions, name))
        column = np.searchsorted(cells, group_cell[groups])
        for count in np.unique(size[groups]).tolist():
            pick = size[groups] == count
            block = values[start[groups[pick], None] + np.arange(count)]
            if recipe.unit != "ms":
                empty = np.flatnonzero((block == MISSING_ACCURACY).any(axis=1))
                if empty.size:
                    found = (int(column[pick][empty[0]]), w)
                    first_missing = min(first_missing or found, found)
            means[w, column[pick]] = block.mean(axis=1)
        present[w, column] = True
    if first_missing is not None:
        raise IngestError(
            "accuracy outcome requested but accuracy column is empty "
            f"for condition {wanted[first_missing[1]]!r}"
        )
    complete = present.all(axis=0)
    first_absent = present[:, ~complete].argmin(axis=0)
    zero_cells = tuple(
        f"{table.subjects[cell // 2]}/s{cell % 2 + 1}/{wanted[w]}"
        for cell, w in zip(cells[~complete].tolist(), first_absent.tolist())
    )
    cell_means = means[:, complete]
    scores = np.zeros((len(table.subjects), 2))
    scored = np.zeros((len(table.subjects), 2), dtype=bool)
    scores.reshape(-1)[cells[complete]] = (
        cell_means[0] - cell_means[1] if len(wanted) == 2 else cell_means[0]
    )
    scored.reshape(-1)[cells[complete]] = True
    paired = scored.all(axis=1)
    dropped = np.zeros(len(table.subjects), dtype=bool)
    dropped[table.subject[task_rows]] = True
    dropped &= ~paired
    sample = PairedSample(
        measure_id=contract.measure_id,
        x1=scores[paired, 0],
        x2=scores[paired, 1],
        subjects=tuple(compress(table.subjects, paired.tolist())),
    )
    evidence = MeasureEvidence(
        measure_id=contract.measure_id,
        task=contract.task,
        row_count=int(task_rows.size),
        filter_counts=counts,
        zero_trial_cells=zero_cells,
        dropped_subjects=tuple(compress(table.subjects, dropped.tolist())),
        n_pairs=sample.n,
    )
    return sample, evidence
