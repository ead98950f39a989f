import hashlib

import numpy as np
import pytest

from reliakit import (
    HashMismatchError,
    IngestError,
    aggregate_scores,
    filter_trials,
    pair_sessions,
    read_long_csv,
    verify_archive,
)
from reliakit.ingest import TrialRow, build_sample
from reliakit.registry import AggregationRecipe, MeasureContract, Tier

# SHA-256 of zero bytes, a standard published constant
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def trial(subject, session, condition, rt, acc=1, task="stroop"):
    return TrialRow(
        subject_id=subject,
        task=task,
        session=session,
        condition=condition,
        rt_ms=rt,
        accuracy=acc,
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
    rows = read_long_csv(path)
    assert len(rows) == 3
    assert rows[0].rt_ms == 412.5
    assert rows[1].accuracy == 0
    assert rows[2].accuracy is None
    assert rows[2].task == "posner"


@pytest.mark.parametrize(
    "body",
    [
        "subject_id,task,session,condition,rt\ns1,t,1,c,400\n",  # wrong header
        "subject_id,task,session,condition,rt_ms,accuracy\ns1,t,3,c,400,1\n",  # session
        "subject_id,task,session,condition,rt_ms,accuracy\ns1,t,1,c,-5,1\n",  # rt < 0
        "subject_id,task,session,condition,rt_ms,accuracy\ns1,t,1,c,nan,1\n",  # nonfinite
        "subject_id,task,session,condition,rt_ms,accuracy\ns1,t,1,c,400,2\n",  # accuracy
        "subject_id,task,session,condition,rt_ms,accuracy\n,t,1,c,400,1\n",  # empty id
    ],
)
def test_read_long_csv_rejects_bad_rows(tmp_path, body):
    path = tmp_path / "long.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(IngestError):
        read_long_csv(path)


def test_filter_boundaries_are_retained():
    rows = [trial("s1", 1, "c", rt) for rt in (150.0, 199.99, 200.0, 450.0, 5000.0, 5000.01, 5500.0)]
    kept, counts = filter_trials(rows)
    assert [r.rt_ms for r in kept] == [200.0, 450.0, 5000.0]
    assert counts.below_min == 2
    assert counts.above_max == 2
    assert counts.kept == 3
    assert counts.total == len(rows)


def test_filter_partition_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = [trial("s", 1, "c", float(rt)) for rt in rng.uniform(0, 6000, size=40)]
        kept, counts = filter_trials(rows)
        assert counts.kept == len(kept)
        assert counts.total == len(rows)


def test_filter_empty_input():
    kept, counts = filter_trials([])
    assert kept == [] and counts.total == 0


def test_aggregate_mean_rt():
    recipe = AggregationRecipe(outcome="mean_rt", condition_a="c", condition_b=None, unit="ms")
    rows = [trial("s1", 1, "c", 400.0), trial("s1", 1, "c", 600.0), trial("s1", 1, "x", 999.0)]
    scores, zero = aggregate_scores(rows, recipe)
    assert scores == {("s1", 1): 500.0}
    assert zero == []


def test_aggregate_contrast():
    recipe = AggregationRecipe(
        outcome="condition_contrast", condition_a="incongruent", condition_b="congruent", unit="ms"
    )
    rows = [
        trial("s1", 1, "incongruent", 540.0),
        trial("s1", 1, "incongruent", 560.0),
        trial("s1", 1, "congruent", 480.0),
        trial("s1", 1, "congruent", 520.0),
    ]
    scores, _ = aggregate_scores(rows, recipe)
    assert scores[("s1", 1)] == 50.0


def test_aggregate_accuracy_proportion():
    recipe = AggregationRecipe(
        outcome="accuracy_proportion", condition_a="c", condition_b=None, unit="proportion"
    )
    rows = [trial("s1", 1, "c", 400.0, acc=a) for a in (1, 1, 0, 1)]
    scores, _ = aggregate_scores(rows, recipe)
    assert scores[("s1", 1)] == 0.75


def test_aggregate_zero_trial_cell_recorded():
    recipe = AggregationRecipe(
        outcome="condition_contrast", condition_a="incongruent", condition_b="congruent", unit="ms"
    )
    rows = [trial("s1", 1, "congruent", 480.0), trial("s1", 2, "congruent", 500.0),
            trial("s1", 2, "incongruent", 550.0)]
    scores, zero = aggregate_scores(rows, recipe)
    assert ("s1", 1) not in scores
    assert ("s1", 2) in scores
    assert zero == ["s1/s1/incongruent"]


def test_aggregate_missing_accuracy_errors():
    recipe = AggregationRecipe(
        outcome="accuracy_proportion", condition_a="c", condition_b=None, unit="proportion"
    )
    rows = [trial("s1", 1, "c", 400.0, acc=None)]
    with pytest.raises(IngestError):
        aggregate_scores(rows, recipe)


def test_aggregate_is_trial_order_invariant():
    recipe = AggregationRecipe(outcome="mean_rt", condition_a="c", condition_b=None, unit="ms")
    rows = [trial("s1", 1, "c", rt) for rt in (410.0, 390.0, 455.0, 505.0)]
    forward, _ = aggregate_scores(rows, recipe)
    backward, _ = aggregate_scores(rows[::-1], recipe)
    assert forward == backward


def test_pair_sessions_drops_incomplete_subjects():
    scores = {("A", 1): 10.0, ("A", 2): 12.0, ("B", 1): 9.0}
    sample, dropped = pair_sessions(scores, "m")
    assert sample.n == 1
    assert sample.subjects == ("A",)
    assert sample.x1[0] == 10.0 and sample.x2[0] == 12.0
    assert dropped == ["B"]


def test_pair_sessions_sorted_by_subject():
    scores = {}
    for s in ("zeta", "alpha", "mid"):
        scores[(s, 1)] = 1.0
        scores[(s, 2)] = 2.0
    sample, _ = pair_sessions(scores, "m")
    assert sample.subjects == ("alpha", "mid", "zeta")


def test_pair_sessions_empty():
    sample, dropped = pair_sessions({}, "m")
    assert sample.n == 0 and dropped == []


def test_pair_sessions_drops_nonfinite():
    scores = {("A", 1): float("nan"), ("A", 2): 1.0, ("B", 1): 2.0, ("B", 2): 3.0}
    sample, dropped = pair_sessions(scores, "m")
    assert sample.subjects == ("B",)
    assert dropped == ["A"]


def test_build_sample_end_to_end():
    contract = MeasureContract(
        measure_id="stroop_meanrt",
        dataset_id="arch:stroop",
        tier=Tier.PRIMARY,
        aggregation=AggregationRecipe(
            outcome="mean_rt", condition_a="c", condition_b=None, unit="ms"
        ),
        description="",
    )
    rows = []
    for subject in ("s1", "s2", "s3"):
        for session in (1, 2):
            rows.append(trial(subject, session, "c", 400.0 + 10 * session))
            rows.append(trial(subject, session, "c", 150.0))  # filtered out
    rows.append(trial("zzz", 1, "c", 400.0, task="other"))
    sample, evidence = build_sample(rows, contract)
    assert sample.n == 3
    assert evidence.row_count == 12
    assert evidence.filter_counts.below_min == 6
    assert evidence.filter_counts.kept == 6
    assert evidence.n_pairs == 3
    assert evidence.task == "stroop"

