import csv
import hashlib
import io
import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliakit import (
    HashMismatchError,
    IngestError,
    filter_trials,
    read_long_csv,
    verify_archive,
)
from reliakit import ingest
from reliakit.ingest import (
    LONG_CSV_COLUMNS,
    MISSING_ACCURACY,
    RT_MAX_MS,
    RT_MIN_MS,
    FilterCounts,
    MeasureEvidence,
    PairedSample,
    TrialTable,
    build_sample,
)
from reliakit.registry import AggregationRecipe, MeasureContract, Tier

# SHA-256 of zero bytes, a standard published constant
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

HEADER = ",".join(LONG_CSV_COLUMNS)


def trial(subject, session, condition, rt, acc=1, task="stroop"):
    return (subject, task, session, condition, rt, acc)


def write_long_csv(path, trials):
    lines = [HEADER] + [
        f"{s},{t},{session},{c},{rt!r},{'' if acc is None else acc}"
        for s, t, session, c, rt, acc in trials
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def table_of(tmp_path, trials, name="long.csv"):
    return read_long_csv(write_long_csv(tmp_path / name, trials))


def contract(measure_id, outcome, condition_a, condition_b=None, unit="ms", task="stroop"):
    return MeasureContract(
        measure_id=measure_id,
        dataset_id=f"arch:{task}",
        tier=Tier.PRIMARY,
        aggregation=AggregationRecipe(
            outcome=outcome, condition_a=condition_a, condition_b=condition_b, unit=unit
        ),
        description="",
    )


def test_verify_archive_accepts_matching_digest(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"some archive bytes"
    path.write_bytes(payload)
    evidence = verify_archive(path, hashlib.sha256(payload).hexdigest())
    assert evidence.observed_sha256 == evidence.expected_sha256


def test_verify_archive_rejects_mismatch(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"some archive bytes")
    with pytest.raises(HashMismatchError) as err:
        verify_archive(path, "0" * 64)
    assert "0" * 64 in str(err.value)


def test_verify_archive_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert verify_archive(path, EMPTY_SHA256).observed_sha256 == EMPTY_SHA256


def test_verify_archive_missing_file(tmp_path):
    with pytest.raises(HashMismatchError):
        verify_archive(tmp_path / "nope.bin", EMPTY_SHA256)


def test_read_long_csv_roundtrip(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(
        "subject_id,task,session,condition,rt_ms,accuracy\n"
        "s1,stroop,1,congruent,412.5,1\n"
        "s1,stroop,2,congruent,398.0,0\n"
        "s2,posner,1,cue,350.25,\n",
        encoding="utf-8",
    )
    table = read_long_csv(path)
    assert len(table) == 3
    assert table.rt_ms[0] == 412.5
    assert table.accuracy[1] == 0
    assert table.accuracy[2] == MISSING_ACCURACY
    assert table.tasks[table.task[2]] == "posner"
    assert table.subjects == ("s1", "s2")
    assert table.session.tolist() == [1, 2, 1]
    assert [table.conditions[c] for c in table.condition] == ["congruent", "congruent", "cue"]


def test_read_long_csv_parses_like_python(tmp_path):
    """rt_ms goes through float() and session/accuracy through int(), so
    whatever those accept is accepted, with the same value."""
    path = tmp_path / "long.csv"
    path.write_text(
        f"{HEADER}\n"
        "s1,t,1,c, 400,1\n"
        "s1,t, 2,c,1_000,0\n"
        "s1,t,+1,c,4e2, 1\n"
        "s1,t,01,c,0.1,\n",
        encoding="utf-8",
    )
    table = read_long_csv(path)
    assert table.rt_ms.tolist() == [float(" 400"), float("1_000"), float("4e2"), float("0.1")]
    assert table.session.tolist() == [1, 2, 1, 1]
    assert table.accuracy.tolist() == [1, 0, 1, MISSING_ACCURACY]


def test_read_long_csv_orders_levels_with_sorted(tmp_path):
    table = table_of(
        tmp_path,
        [trial(s, 1, "c", 400.0) for s in ("s10", "s2", "S1", "s1", "s2")],
    )
    assert table.subjects == ("S1", "s1", "s10", "s2")
    assert [table.subjects[c] for c in table.subject] == ["s10", "s2", "S1", "s1", "s2"]


def test_read_long_csv_empty_table(tmp_path):
    table = table_of(tmp_path, [])
    assert len(table) == 0
    assert table.subjects == () and table.rt_ms.dtype == np.float64


@pytest.mark.parametrize(
    "body, message",
    [
        (  # wrong header
            "subject_id,task,session,condition,rt\ns1,t,1,c,400\n",
            "long.csv: expected header subject_id,task,session,condition,rt_ms,accuracy, "
            "got ['subject_id', 'task', 'session', 'condition', 'rt']",
        ),
        (f"{HEADER}\ns1,t,3,c,400,1\n", "long.csv:2: session must be 1 or 2"),
        (f"{HEADER}\ns1,t,1,c,-5,1\n", "long.csv:2: rt_ms must be finite and >= 0"),
        (f"{HEADER}\ns1,t,1,c,nan,1\n", "long.csv:2: rt_ms must be finite and >= 0"),
        (f"{HEADER}\ns1,t,1,c,inf,1\n", "long.csv:2: rt_ms must be finite and >= 0"),
        (f"{HEADER}\ns1,t,1,c,400,2\n", "long.csv:2: accuracy must be 0, 1, or empty"),
        (f"{HEADER}\n,t,1,c,400,1\n", "long.csv:2: empty identifier field"),
        (f"{HEADER}\ns1,,1,c,400,1\n", "long.csv:2: empty identifier field"),
        (f"{HEADER}\ns1,t,1,,400,1\n", "long.csv:2: empty identifier field"),
        (
            f"{HEADER}\ns1,t,x,c,400,1\n",
            "long.csv:2: bad row (invalid literal for int() with base 10: 'x')",
        ),
        (
            f"{HEADER}\ns1,t,1,c,fast,1\n",
            "long.csv:2: bad row (could not convert string to float: 'fast')",
        ),
        (
            f"{HEADER}\ns1,t,1,c,400,yes\n",
            "long.csv:2: bad row (invalid literal for int() with base 10: 'yes')",
        ),
        # ragged rows: too few and too many fields
        (f"{HEADER}\ns1,t,1,c,400\n", "long.csv:2: expected 6 fields, got 5"),
        (
            f"{HEADER}\ns1,t,1,c,400,1\ns1,t,2,c,410,1,EXTRA\n",
            "long.csv:3: expected 6 fields, got 7",
        ),
        (f"{HEADER}\ns1,t,1,c,400,1\n \n", "long.csv:3: expected 6 fields, got 1"),
        # blank lines and a quoted two-line field before the bad row
        (
            f'{HEADER}\n\n\ns1,t,1,c,400,1\ns2,t,1,"two\nlines",400,1\ns3,t,3,c,400,1\n',
            "long.csv:7: session must be 1 or 2",
        ),
        (f"{HEADER}\r\n\r\ns1,t,1,c,-1,1\r\n", "long.csv:3: rt_ms must be finite and >= 0"),
        # a bad multi-line record is reported at the line where it starts
        (f'{HEADER}\ns1,t,1,"two\nlines",400,7\n', "long.csv:2: accuracy must be 0, 1, or empty"),
        # within a row: parse, then session, rt, accuracy, identifiers
        (
            f"{HEADER}\n,t,x,c,-5,2\n",
            "long.csv:2: bad row (invalid literal for int() with base 10: 'x')",
        ),
        (f"{HEADER}\n,t,3,c,-5,2\n", "long.csv:2: session must be 1 or 2"),
        (f"{HEADER}\n,t,1,c,-5,2\n", "long.csv:2: rt_ms must be finite and >= 0"),
        (f"{HEADER}\n,t,1,c,5,2\n", "long.csv:2: accuracy must be 0, 1, or empty"),
        # across rows: the first bad row in file order wins
        (
            f"{HEADER}\ns1,t,1,c,400,1\n,t,1,c,400,1\ns1,t,1,c,abc,1\ns1,t,9,c,400,1\n",
            "long.csv:3: empty identifier field",
        ),
    ],
)
def test_read_long_csv_rejects_bad_rows(tmp_path, body, message):
    path = tmp_path / "long.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read_long_csv(path)
    assert str(err.value) == message


def test_read_long_csv_missing_file(tmp_path):
    with pytest.raises(IngestError, match="processed table missing"):
        read_long_csv(tmp_path / "nope.csv")


FIELD_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize(
    "body, message",
    [
        (
            f"{HEADER}\ns1,t,1,c,400,1\n{'x' * (FIELD_LIMIT + 1)},t,1,c,400,1\n",
            f"long.csv:3: field larger than field limit ({FIELD_LIMIT})",
        ),
        # a bad row before the over-long field is reported first
        (
            f"{HEADER}\ns1,t,3,c,400,1\ns1,{'x' * (FIELD_LIMIT + 1)},1,c,400,1\n",
            "long.csv:2: session must be 1 or 2",
        ),
        (
            f'{HEADER}\ns1,t,1,c,400,1\n\ns1,t,1,"a\n{"x" * FIELD_LIMIT}",400,1\n',
            f"long.csv:4: field larger than field limit ({FIELD_LIMIT})",
        ),
        (
            f"{'x' * (FIELD_LIMIT + 1)},task,session,condition,rt_ms,accuracy\n",
            f"long.csv:1: field larger than field limit ({FIELD_LIMIT})",
        ),
    ],
)
def test_read_long_csv_rejects_over_long_fields(tmp_path, body, message):
    path = tmp_path / "long.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read_long_csv(path)
    assert str(err.value) == message


def test_read_long_csv_reads_a_line_longer_than_the_field_limit(tmp_path):
    """Only a field is limited: a longer line of shorter fields is read."""
    half = "x" * (FIELD_LIMIT // 2)
    table = table_of(tmp_path, [trial("s1", 1, "c", 400.0), trial(half, 2, half, 500.0)])
    assert table.subjects == ("s1", half)
    assert table.conditions == ("c", half)
    assert table.rt_ms.tolist() == [400.0, 500.0]


@pytest.mark.parametrize(
    "body, message",
    [
        (
            HEADER.encode() + b"\ns1,t,1,c,400,1\ns\xff,t,1,c,400,1\n",
            "long.csv:3: not UTF-8 text (invalid start byte at byte 65)",
        ),
        (
            HEADER.encode() + b"\r\ns1,t,1,c,400,1\r\rs1,t,1,c\xe2\x82,400,1\r\n",
            "long.csv:4: not UTF-8 text (invalid continuation byte at byte 74)",
        ),
        (b"subject_id\xc3", "long.csv:1: not UTF-8 text (unexpected end of data at byte 10)"),
    ],
)
def test_read_long_csv_rejects_bytes_that_are_not_utf8(tmp_path, body, message):
    path = tmp_path / "long.csv"
    path.write_bytes(body)
    with pytest.raises(IngestError) as err:
        read_long_csv(path)
    assert str(err.value) == message


@pytest.mark.parametrize("bad_line", [2, 3, 4, 5, 9, 10, 13])
def test_read_long_csv_line_numbers_across_chunks(tmp_path, monkeypatch, bad_line):
    """Chunks of three records, blank lines among them: the error still
    names the physical line of the first bad row."""
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 3)
    lines = [HEADER]
    for lineno in range(2, 15):
        if lineno == bad_line:
            lines.append("s1,t,1,c,400,9")
        elif lineno % 4 == 0:
            lines.append("")
        else:
            lines.append("s1,t,1,c,400,1")
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read_long_csv(path)
    assert str(err.value) == f"long.csv:{bad_line}: accuracy must be 0, 1, or empty"


def test_read_long_csv_chunking_does_not_change_the_table(tmp_path, monkeypatch):
    trials = [
        trial(f"s{i % 7}", 1 + i % 2, "ab"[i % 3 == 0], 150.0 + 37.5 * i, (None, 0, 1)[i % 3])
        for i in range(50)
    ]
    path = write_long_csv(tmp_path / "long.csv", trials)
    whole = read_long_csv(path)
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
    chunked = read_long_csv(path)
    for name in ("subject", "task", "session", "condition", "rt_ms", "accuracy"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
    assert (whole.subjects, whole.tasks, whole.conditions) == (
        chunked.subjects,
        chunked.tasks,
        chunked.conditions,
    )


def test_filter_boundaries_are_retained():
    rt = np.array([150.0, 199.99, 200.0, 450.0, 5000.0, 5000.01, 5500.0])
    keep, counts = filter_trials(rt)
    assert rt[keep].tolist() == [200.0, 450.0, 5000.0]
    assert counts.below_min == 2
    assert counts.above_max == 2
    assert counts.kept == 3
    assert counts.total == rt.size


def test_filter_partition_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rt = rng.uniform(0, 6000, size=40)
        keep, counts = filter_trials(rt)
        assert counts.kept == int(keep.sum())
        assert counts.total == rt.size


def test_filter_empty_input():
    keep, counts = filter_trials(np.empty(0))
    assert keep.size == 0 and counts.total == 0


def test_build_sample_mean_rt(tmp_path):
    table = table_of(
        tmp_path,
        [
            trial("s1", 1, "c", 400.0),
            trial("s1", 1, "c", 600.0),
            trial("s1", 1, "x", 999.0),
            trial("s1", 2, "c", 410.0),
        ],
    )
    sample, evidence = build_sample(table, contract("m", "mean_rt", "c"))
    assert sample.x1.tolist() == [500.0] and sample.x2.tolist() == [410.0]
    assert evidence.zero_trial_cells == ()


def test_build_sample_contrast(tmp_path):
    table = table_of(
        tmp_path,
        [
            trial("s1", 1, "incongruent", 540.0),
            trial("s1", 1, "incongruent", 560.0),
            trial("s1", 1, "congruent", 480.0),
            trial("s1", 1, "congruent", 520.0),
            trial("s1", 2, "incongruent", 560.0),
            trial("s1", 2, "congruent", 500.0),
        ],
    )
    sample, _ = build_sample(
        table, contract("m", "condition_contrast", "incongruent", "congruent")
    )
    assert sample.x1.tolist() == [50.0] and sample.x2.tolist() == [60.0]


def test_build_sample_accuracy_proportion(tmp_path):
    table = table_of(
        tmp_path,
        [trial("s1", 1, "c", 400.0, acc=a) for a in (1, 1, 0, 1)]
        + [trial("s1", 2, "c", 400.0, acc=a) for a in (0, 1)],
    )
    sample, _ = build_sample(table, contract("m", "accuracy_proportion", "c", unit="proportion"))
    assert sample.x1.tolist() == [0.75] and sample.x2.tolist() == [0.5]


def test_build_sample_zero_trial_cells(tmp_path):
    table = table_of(
        tmp_path,
        [
            trial("s1", 1, "congruent", 480.0),
            trial("s1", 2, "congruent", 500.0),
            trial("s1", 2, "incongruent", 550.0),
            trial("s2", 1, "incongruent", 450.0),
            trial("s2", 2, "x", 470.0),
            trial("s3", 1, "congruent", 400.0),
            trial("s3", 1, "incongruent", 420.0),
            trial("s3", 2, "congruent", 410.0),
            trial("s3", 2, "incongruent", 440.0),
        ],
    )
    sample, evidence = build_sample(
        table, contract("m", "condition_contrast", "incongruent", "congruent")
    )
    # a cell is named by the first wanted condition it lacks, in cell order;
    # s2 has no scored cell, so it is not a dropped subject
    assert evidence.zero_trial_cells == (
        "s1/s1/incongruent",
        "s2/s1/congruent",
        "s2/s2/incongruent",
    )
    assert evidence.dropped_subjects == ("s1",)
    assert sample.subjects == ("s3",)
    assert sample.x1.tolist() == [20.0] and sample.x2.tolist() == [30.0]


def test_build_sample_missing_accuracy_errors(tmp_path):
    table = table_of(
        tmp_path, [trial("s1", 1, "c", 400.0, acc=None), trial("s1", 2, "c", 400.0, acc=1)]
    )
    with pytest.raises(IngestError) as err:
        build_sample(table, contract("m", "accuracy_proportion", "c", unit="proportion"))
    assert str(err.value) == (
        "accuracy outcome requested but accuracy column is empty for condition 'c'"
    )


def test_empty_accuracy_only_fails_when_a_proportion_is_scored(tmp_path):
    table = table_of(
        tmp_path,
        [trial("s1", session, c, 400.0 + session, acc=None) for session in (1, 2) for c in "ab"],
    )
    sample, _ = build_sample(table, contract("rt", "condition_contrast", "a", "b"))
    assert sample.n == 1
    # a proportion over a condition with no trials scores nothing, so no error
    _, evidence = build_sample(table, contract("acc", "accuracy_proportion", "z", unit="proportion"))
    assert evidence.zero_trial_cells == ("s1/s1/z", "s1/s2/z")
    with pytest.raises(IngestError, match="for condition 'b'"):
        build_sample(table, contract("acc", "condition_contrast", "z", "b", unit="proportion"))


def test_build_sample_is_trial_order_invariant(tmp_path):
    trials = [
        trial("s1", session, "c", rt)
        for session in (1, 2)
        for rt in (410.0, 390.0, 455.0, 505.0 + session / 3)
    ]
    forward, _ = build_sample(table_of(tmp_path, trials, "forward.csv"), contract("m", "mean_rt", "c"))
    backward, _ = build_sample(
        table_of(tmp_path, trials[::-1], "backward.csv"), contract("m", "mean_rt", "c")
    )
    assert forward.x1.tobytes() == backward.x1.tobytes()
    assert forward.x2.tobytes() == backward.x2.tobytes()


def _per_cell_scores(table, rows, recipe):
    """The cell scores one cell at a time: each (subject, session) in
    sorted order, each wanted condition's trials in file order, one 1-d
    np.mean per condition."""
    wanted = [recipe.condition_a] + ([recipe.condition_b] if recipe.condition_b else [])
    column = table.rt_ms if recipe.unit == "ms" else table.accuracy
    scores, zero = {}, []
    cells = sorted({(int(table.subject[r]), int(table.session[r])) for r in rows})
    for subject, session in cells:
        means = []
        for name in wanted:
            code = table.conditions.index(name) if name in table.conditions else -1
            trials = [
                r for r in rows
                if (table.subject[r], table.session[r], table.condition[r]) == (subject, session, code)
            ]
            means.append(float(np.mean(column[trials])) if trials else None)
        label = table.subjects[subject]
        if None in means:
            zero.append(f"{label}/s{session}/{wanted[means.index(None)]}")
        else:
            scores[(label, session)] = means[0] - means[1] if len(means) == 2 else means[0]
    return scores, zero


def pair_scores(scores):
    """Pair each subject's session-1 and session-2 score from a
    {(subject, session): score} dict, subjects in sorted order; a subject
    with one score is dropped. Returns (subjects, x1, x2, dropped)."""
    subjects = sorted({subject for subject, _ in scores})
    kept = [s for s in subjects if (s, 1) in scores and (s, 2) in scores]
    dropped = [s for s in subjects if s not in kept]
    x1 = [scores[(s, 1)] for s in kept]
    x2 = [scores[(s, 2)] for s in kept]
    return tuple(kept), x1, x2, tuple(dropped)


def test_build_sample_equals_the_per_cell_loop_on_ragged_cells(tmp_path):
    # the smoke fixture's cells hold different trial counts per condition,
    # and some conditions none; every score must carry the same bits
    from reliakit.fixtures import ensure_smoke_workspace
    from reliakit.registry import load_contract

    ws = ensure_smoke_workspace(tmp_path / "ws")
    table = read_long_csv(ws / "data" / "processed" / "long.csv")
    counts = set()
    for measure in load_contract(ws / "contracts" / "measures.json").entries:
        rows = np.flatnonzero(table.task == table.tasks.index(measure.task))
        rows = rows[filter_trials(table.rt_ms[rows])[0]]
        scores, zero = _per_cell_scores(table, rows.tolist(), measure.aggregation)
        subjects, x1, x2, dropped = pair_scores(scores)
        sample, evidence = build_sample(table, measure)
        assert evidence.zero_trial_cells == tuple(zero)
        assert (sample.subjects, evidence.dropped_subjects) == (subjects, dropped)
        assert [v.hex() for v in sample.x1.tolist()] == [v.hex() for v in x1]
        assert [v.hex() for v in sample.x2.tolist()] == [v.hex() for v in x2]
        key = table.subject[rows].astype(np.int64) * 2 * len(table.conditions)
        key += (table.session[rows] - 1) * len(table.conditions) + table.condition[rows]
        counts |= set(np.unique(key, return_counts=True)[1].tolist())
    assert len(counts) > 1


def test_smoke_fixture_ingest_facts(tmp_path):
    # the fixture's documented paths: a24 never returns for session 2, and
    # a23 has no incongruent trials at session 2
    from reliakit.fixtures import ensure_smoke_workspace
    from reliakit.registry import load_contract

    ws = ensure_smoke_workspace(tmp_path / "ws")
    table = read_long_csv(ws / "data" / "processed" / "long.csv")
    registry = load_contract(ws / "contracts" / "measures.json")
    evidence = {m.measure_id: build_sample(table, m)[1] for m in registry.primary_measures()}
    assert {m: e.n_pairs for m, e in evidence.items()} == {
        "taskA_meanrt": 23,
        "taskA_contrast": 22,
        "taskA_accuracy": 22,
        "taskB_meanrt": 20,
        "taskB_accuracy": 20,
        "taskC_meanrt": 12,
    }
    assert evidence["taskA_meanrt"].dropped_subjects == ("a24",)
    for measure_id in ("taskA_contrast", "taskA_accuracy"):
        assert evidence[measure_id].zero_trial_cells == ("a23/s2/incongruent",)
        assert evidence[measure_id].dropped_subjects == ("a23", "a24")
    for measure_id in ("taskA_meanrt", "taskB_meanrt", "taskB_accuracy", "taskC_meanrt"):
        assert evidence[measure_id].zero_trial_cells == ()
    for measure_id in ("taskB_meanrt", "taskB_accuracy", "taskC_meanrt"):
        assert evidence[measure_id].dropped_subjects == ()


def test_build_sample_drops_incomplete_subjects(tmp_path):
    table = table_of(
        tmp_path, [trial("A", 1, "c", 410.0), trial("A", 2, "c", 412.0), trial("B", 1, "c", 409.0)]
    )
    sample, evidence = build_sample(table, contract("m", "mean_rt", "c"))
    assert sample.n == 1 and evidence.n_pairs == 1
    assert sample.subjects == ("A",)
    assert sample.x1[0] == 410.0 and sample.x2[0] == 412.0
    assert evidence.dropped_subjects == ("B",)


def test_build_sample_sorts_subjects(tmp_path):
    trials = [
        trial(s, session, "c", rt + session)
        for s, rt in (("zeta", 400.0), ("alpha", 500.0), ("mid", 600.0))
        for session in (1, 2)
    ]
    sample, _ = build_sample(table_of(tmp_path, trials), contract("m", "mean_rt", "c"))
    assert sample.subjects == ("alpha", "mid", "zeta")
    assert sample.x1.tolist() == [501.0, 601.0, 401.0]
    assert sample.x2.tolist() == [502.0, 602.0, 402.0]


def test_build_sample_empty_table(tmp_path):
    sample, evidence = build_sample(table_of(tmp_path, []), contract("m", "mean_rt", "c"))
    assert sample.n == 0 and sample.subjects == ()
    assert evidence.zero_trial_cells == () and evidence.dropped_subjects == ()


def test_build_sample_end_to_end(tmp_path):
    trials = []
    for subject in ("s1", "s2", "s3"):
        for session in (1, 2):
            trials.append(trial(subject, session, "c", 400.0 + 10 * session))
            trials.append(trial(subject, session, "c", 150.0))  # filtered out
    trials.append(trial("zzz", 1, "c", 400.0, task="other"))
    table = table_of(tmp_path, trials)
    sample, evidence = build_sample(table, contract("stroop_meanrt", "mean_rt", "c"))
    assert sample.n == 3
    assert evidence.row_count == 12
    assert evidence.filter_counts.below_min == 6
    assert evidence.filter_counts.kept == 6
    assert evidence.n_pairs == 3
    assert evidence.task == "stroop"


def test_build_sample_unknown_task_is_empty(tmp_path):
    table = table_of(tmp_path, [trial("s1", 1, "c", 400.0)])
    sample, evidence = build_sample(table, contract("m", "mean_rt", "c", task="absent"))
    assert sample.n == 0
    assert evidence.row_count == 0 and evidence.filter_counts.total == 0


# ---------------------------------------------------------------------------
# build_sample against the row-wise algorithm it replaced


def reference_sample(trials, contract):
    """One row at a time: select the task, filter, group (subject, session)
    in file order, average each condition cell with np.mean over a list,
    then pair sessions with pair_scores."""
    recipe = contract.aggregation
    task_rows = [t for t in trials if t[1] == contract.task]
    kept = []
    below = above = 0
    for row in task_rows:
        if row[4] < RT_MIN_MS:
            below += 1
        elif row[4] > RT_MAX_MS:
            above += 1
        else:
            kept.append(row)
    grouped = {}
    for row in kept:
        grouped.setdefault((row[0], row[2]), []).append(row)

    def cell_score(rows, condition):
        cell = [r for r in rows if r[3] == condition]
        if not cell:
            return None
        if recipe.unit == "ms":
            return float(np.mean([r[4] for r in cell]))
        accs = [r[5] for r in cell]
        if any(a is None for a in accs):
            raise IngestError(
                "accuracy outcome requested but accuracy column is empty "
                f"for condition {condition!r}"
            )
        return float(np.mean(accs))

    scores = {}
    zero_cells = []
    for key in sorted(grouped):
        subject, session = key
        a = cell_score(grouped[key], recipe.condition_a)
        if recipe.outcome == "condition_contrast":
            b = cell_score(grouped[key], recipe.condition_b)
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
    subjects, x1, x2, dropped = pair_scores(scores)
    sample = PairedSample(
        contract.measure_id, np.array(x1, dtype=np.float64), np.array(x2, dtype=np.float64), subjects
    )
    evidence = MeasureEvidence(
        measure_id=contract.measure_id,
        task=contract.task,
        row_count=len(task_rows),
        filter_counts=FilterCounts(below_min=below, above_max=above, kept=len(kept)),
        zero_trial_cells=tuple(zero_cells),
        dropped_subjects=dropped,
        n_pairs=sample.n,
    )
    return sample, evidence


PROPERTY_CONTRACTS = [
    contract("mean_a", "mean_rt", "a"),
    contract("contrast_ab", "condition_contrast", "a", "b"),
    contract("contrast_ca", "condition_contrast", "c", "a"),
    contract("acc_b", "accuracy_proportion", "b", unit="proportion"),
    contract("acc_contrast_ba", "condition_contrast", "b", "a", unit="proportion"),
    contract("acc_mean_c", "mean_rt", "c", unit="proportion"),
    contract("flanker_mean", "mean_rt", "a", task="flanker"),
    contract("absent_condition", "mean_rt", "zz"),
]

# bounds, just inside and outside them, repeated values for tied scores, and
# values with full mantissas, whose sums depend on the order of addition
RT_VALUES = st.one_of(
    st.sampled_from(
        [0.0, 150.0, 199.99, 200.0, 200.0, 450.0, 450.0, 612.5, 5000.0, 5000.0, 5000.01, 7000.0]
    ),
    st.integers(0, 6_000_000).map(lambda k: k / 997.0),
    st.floats(0.0, 6000.0, allow_nan=False),
)


@st.composite
def trial_tables(draw):
    """Long tables with few subjects, so cells hold many trials, and with
    empty accuracy fields in about half of them."""
    subjects = draw(st.lists(st.sampled_from(["s1", "s2", "s10", "S3", "s4"]), min_size=1, unique=True))
    accuracy = st.sampled_from([0, 1, None] if draw(st.booleans()) else [0, 1])
    row = st.tuples(
        st.sampled_from(subjects),
        st.sampled_from(["stroop", "stroop", "flanker"]),
        st.sampled_from([1, 2]),
        st.sampled_from(["a", "b", "c"]),
        RT_VALUES,
        accuracy,
    )
    n = draw(st.integers(0, 200), label="rows")
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(trials=trial_tables())
def test_build_sample_matches_rowwise_reference(trials):
    with tempfile.TemporaryDirectory() as tmp:
        table = read_long_csv(write_long_csv(Path(tmp) / "long.csv", trials))
    for measure in PROPERTY_CONTRACTS:
        try:
            expected = reference_sample(trials, measure)
        except IngestError as exc:
            with pytest.raises(IngestError) as err:
                build_sample(table, measure)
            assert str(err.value) == str(exc)
            continue
        sample, evidence = build_sample(table, measure)
        assert sample.x1.tobytes() == expected[0].x1.tobytes()
        assert sample.x2.tobytes() == expected[0].x2.tobytes()
        assert sample.subjects == expected[0].subjects
        assert evidence == expected[1]


# ---------------------------------------------------------------------------
# read_long_csv against csv.reader alone


def csv_reader_long_csv(path):
    """read_long_csv with every record read by csv.reader, as it was before
    plain chunks were split with str.split; csv.reader's own errors are
    reported like a bad row."""
    levels = [{} for _ in LONG_CSV_COLUMNS]
    columns = [[np.empty(0, np.float64 if parse is None else np.int32)] for parse in ingest._PARSERS]
    records = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error:
            ingest._raise_first_bad_row(path, 0)
        if header is None or tuple(header) != LONG_CSV_COLUMNS:
            raise IngestError(
                f"{path.name}: expected header {','.join(LONG_CSV_COLUMNS)}, got {header}"
            )
        while True:
            try:
                chunk = list(islice(reader, ingest._CHUNK_ROWS))
            except csv.Error:
                ingest._raise_first_bad_row(path, records)
            if not chunk:
                break
            skip, records = records, records + len(chunk)
            widths = set(map(len, chunk))
            if 0 in widths:
                widths.discard(0)
                chunk = [row for row in chunk if row]
            if not chunk:
                continue
            if widths != {len(LONG_CSV_COLUMNS)}:
                ingest._raise_first_bad_row(path, skip)
            parts = [
                ingest._parse_rt(values) if parse is None else ingest._encode(values, seen, parse)
                for values, seen, parse in zip(zip(*chunk), levels, ingest._PARSERS)
            ]
            if any(part is None for part in parts):
                ingest._raise_first_bad_row(path, skip)
            for column, part in zip(columns, parts):
                column.append(part)
    subject, task, session, condition, rt_ms, accuracy = map(np.concatenate, columns)
    subject, subjects = ingest._sorted_codes(subject, levels[0])
    task, tasks = ingest._sorted_codes(task, levels[1])
    condition, conditions = ingest._sorted_codes(condition, levels[3])
    return TrialTable(subjects, tasks, conditions, subject, task, session, condition, rt_ms, accuracy)


# per column: values that pass, including leading and trailing spaces, NUL
# and characters that str.splitlines() but not csv.reader ends lines at;
# rt_ms values that float() takes only from a str (Unicode digits and
# spaces; float() refuses "\x1c", which str.isspace() counts, so it is a
# bad value); multi-byte identifiers whose byte length, and whose line's,
# is over a small field limit while their character length is not; and a
# field longer than the widest one coded from bytes
GOOD_FIELDS = (
    ["s1", "s2", "S1", " s1", "s1 ", "s\x85", "a\x00b", "\x0b", " ", "éééééé"],
    ["t", "u", " t", "t\x0c", "\x1c", "ü" * 40],
    ["1", "2", " 2", "+1", "01", "2 "],
    ["a", "b", "b ", "\x1c", "\x85", "条件条件"],
    ["400", " 400", "1_000", "4e2", "0.1", "612.5 ", "0", "5000.01"]
    + ["٤٠٠", "４００", "\u2003400", "\x85400"],
    ["", "", "0", "1", " 1", "1 "],
)
BAD_FIELDS = (
    [""],
    [""],
    ["3", "x", ""],
    [""],
    ["-5", "nan", "fast", "", "\x1c400"],
    ["2", "yes"],
)
# lines that are not plain, each with its line end
NOT_PLAIN = {
    "quote": ['"s1",t,1,a,400,1\n', '"s,1",t,2,b,400,\n', 's"1,t,1,a,400,1\n'],
    "quote across lines": ['s1,t,1,"two\nlines",400,1\n', 's2,"t\n\n",2,a,400,0\n'],
    "bare cr": ["s1,t,1,a,400,1\r", "s1,t,1,a,400,\r", "s1,t,1,a\rb,400,1\n"],
    "crlf": ["s1,t,2,b,400,0\r\n", "s1,t,2,b,400,\r\n"],
    "blank": ["\n", " \n"],
    "ragged": ["s1,t,1,a,400\n", "s1,t,1,a,400,1,\n"],
    # eleven fields that would split into two good rows of six
    "ragged pair": ["1,1,1,1,1\n1,1,1,1,1,1,1\n"],
}


@st.composite
def long_tables(draw):
    """A csv.field_size_limit() and a quote-free long table, sometimes with
    a bad value and sometimes with one line that is not plain: quoted, with
    a bare CR or a CRLF, blank, ragged, with an over-long field, or longer
    than the limit with shorter fields."""
    field_limit = draw(st.sampled_from([131072, 131072, 131072, 10, 16, 24]))
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, GOOD_FIELDS)).map(list), max_size=16))
    if rows and draw(st.booleans()):
        column = draw(st.integers(0, 5))
        draw(st.sampled_from(rows))[column] = draw(st.sampled_from(BAD_FIELDS[column]))
    lines = [",".join(row) + "\n" for row in rows]
    kind = draw(st.sampled_from([None, "over-long field", "long line", *NOT_PLAIN]))
    if kind == "over-long field":
        line = f"s1,{'x' * (field_limit + 1)},1,a,400,1\n"
    elif kind == "long line":
        half = "y" * (field_limit // 2)
        line = f"{half},t,1,{half},400,1\n"
    elif kind is not None:
        line = draw(st.sampled_from(NOT_PLAIN[kind]))
    if kind is not None:
        lines.insert(draw(st.integers(0, len(lines))), line)
    body = HEADER + "\n" + "".join(lines)
    return field_limit, body if draw(st.booleans()) else body.removesuffix("\n")


def read_or_error(read, path):
    try:
        return read(path)
    except IngestError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(table=long_tables(), chunk_rows=st.integers(1, 5))
def test_read_long_csv_matches_csv_reader(table, chunk_rows):
    field_limit, body = table
    previous = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "long.csv"
            path.write_bytes(body.encode("utf-8"))
            expected = read_or_error(csv_reader_long_csv, path)
            actual = read_or_error(read_long_csv, path)
    finally:
        csv.field_size_limit(previous)
    if isinstance(expected, str):
        assert actual == expected
        return
    assert isinstance(actual, TrialTable)
    assert (actual.subjects, actual.tasks, actual.conditions) == (
        expected.subjects,
        expected.tasks,
        expected.conditions,
    )
    for name in ("subject", "task", "session", "condition", "rt_ms", "accuracy"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_same_table(actual, expected):
    assert (actual.subjects, actual.tasks, actual.conditions) == (
        expected.subjects,
        expected.tasks,
        expected.conditions,
    )
    for name in ("subject", "task", "session", "condition", "rt_ms", "accuracy"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def read_counting_csv_reader(path):
    """read_long_csv(path), with the number of csv.reader calls on the way
    and the number of records read from bytes before csv.reader took over
    (None if it did not)."""
    with (
        mock.patch.object(ingest.csv, "reader", wraps=csv.reader) as reader,
        mock.patch.object(ingest, "_csv_chunks", wraps=ingest._csv_chunks) as csv_chunks,
    ):
        table = read_long_csv(path)
    handed_over = csv_chunks.call_args.args[2] if csv_chunks.called else None
    return table, reader.call_count, handed_over


def test_plain_table_is_read_from_bytes(tmp_path, monkeypatch):
    """A plain table of thousands of rows, in chunks that cross the read
    blocks, reaches csv.reader only for its header. Subject ids share
    their first 8 bytes, so they are told apart by their hash."""
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 1000)
    monkeypatch.setattr(ingest, "_READ_BYTES", 4096)
    trials = [
        trial(
            f"subject-{i % 37:04d}",
            1 + i % 2,
            ("congruent", "incongruent")[i % 3 == 0],
            200.0 + (i * 7919 % 4801) / 7.0,
            (None, 0, 1)[i % 3],
            task=("flanker", "stroop")[i % 5 == 0],
        )
        for i in range(5000)
    ]
    path = write_long_csv(tmp_path / "long.csv", trials)
    table, reader_calls, handed_over = read_counting_csv_reader(path)
    assert (reader_calls, handed_over) == (1, None)
    assert len(table) == 5000
    assert_same_table(table, csv_reader_long_csv(path))


@pytest.mark.parametrize("wide", [ingest._MAX_FIELD_BYTES + 1, FIELD_LIMIT])
def test_read_long_csv_reads_from_a_wide_field_with_csv_reader(tmp_path, monkeypatch, wide):
    """csv.reader takes over at the chunk with a field wider than the byte
    coder takes, not before, and the table is csv.reader's."""
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 1024)
    trials = [
        trial("w" * wide if i == 1500 else f"s{i % 9}", 1 + i % 2, "ab"[i % 4 == 0], 300.0 + i)
        for i in range(3000)
    ]
    path = write_long_csv(tmp_path / "long.csv", trials)
    table, reader_calls, handed_over = read_counting_csv_reader(path)
    assert (reader_calls, handed_over) == (2, 1024)
    assert_same_table(table, csv_reader_long_csv(path))


def test_read_long_csv_reparses_rt_as_text(tmp_path):
    """An rt_ms that float() reads only from a str sends its chunk to
    csv.reader, with the same values."""
    path = tmp_path / "long.csv"
    path.write_text(f"{HEADER}\ns1,t,1,c,٤٠٠,1\ns1,t,2,c,\u2003512.5,0\n", encoding="utf-8")
    table, reader_calls, handed_over = read_counting_csv_reader(path)
    assert (reader_calls, handed_over) == (2, 0)
    assert table.rt_ms.tolist() == [400.0, 512.5]


@pytest.mark.parametrize(
    "header, from_bytes",
    [
        (HEADER + "\n", True),
        ('"subject_id",task,"session",condition,rt_ms,"accuracy"\n', True),
        (HEADER + "\r\n", True),
        (HEADER + "\r\r\n", False),
        (HEADER + "\rs0,t,1,a,350,1\n", False),
        ('subject_id,task,session,condition,rt_ms,"accuracy\n', False),
        ('subject_id,task,session,condition,rt_ms,"accuracy\n"\n', False),
        (HEADER + ",\n", False),
        ("subject_id,task,session,condition,rt\n", False),
        (HEADER, False),
    ],
)
def test_read_long_csv_reads_from_bytes_after_any_header_csv_reads(tmp_path, header, from_bytes):
    """The byte path starts after a first line that csv.reader reads as the
    column names, however they are written, and the table or the error is
    csv.reader's; any other first line hands the whole file to csv.reader."""
    path = tmp_path / "long.csv"
    path.write_bytes((header + "s1,t,1,a,400,1\ns2,t,2,b,512.5,\n").encode())
    expected = read_or_error(csv_reader_long_csv, path)
    with (
        mock.patch.object(ingest, "_line_chunks", wraps=ingest._line_chunks) as line_chunks,
        mock.patch.object(ingest, "_csv_chunks", wraps=ingest._csv_chunks) as csv_chunks,
    ):
        actual = read_or_error(read_long_csv, path)
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert_same_table(actual, expected)
    if from_bytes:
        assert not csv_chunks.called
    else:
        assert not line_chunks.called


@settings(max_examples=200, deadline=None)
@given(
    body=st.lists(st.sampled_from([b"a,b\n", b"\n", b"xyz", b"\n\n", b"12,3"]), max_size=40),
    rows=st.integers(1, 6),
    block=st.integers(1, 9),
)
def test_line_chunks_cut_after_every_chunk_rows_newlines(body, rows, block):
    data = b"".join(body)
    with mock.patch.object(ingest, "_CHUNK_ROWS", rows), mock.patch.object(ingest, "_READ_BYTES", block):
        chunks = list(ingest._line_chunks(io.BytesIO(data)))
    assert b"".join(chunks) == data
    assert all(chunks)
    for chunk in chunks[:-1]:
        assert chunk.count(b"\n") == rows and chunk.endswith(b"\n")
    if chunks:
        assert 0 < chunks[-1].count(b"\n") + (not chunks[-1].endswith(b"\n")) <= rows


def field_words(names):
    """The field words of `names`, as _byte_columns builds them."""
    data = ",".join(names).encode() + b"\n"
    starts = np.cumsum([0] + [len(name.encode()) + 1 for name in names[:-1]])
    lengths = np.array([len(name.encode()) for name in names])
    padded = data + bytes(ingest._MAX_FIELD_BYTES)
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    return ingest._field_words(words, starts, lengths)


def test_code_words_checks_the_hash(monkeypatch):
    """Rows are grouped by their hash only where their bytes agree: with a
    hash of the last word alone, two ids that share it collide and the
    coder gives up rather than merge them."""
    names = ["aaaaaaaa-x", "bbbbbbbb-x", "aaaaaaaa-x", "c"]
    levels = {}
    codes = ingest._code_words(field_words(names), levels, ingest._parse_identifier)
    assert [list(levels)[code] for code in codes] == names
    monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(0))
    assert ingest._code_words(field_words(names), {}, ingest._parse_identifier) is None
