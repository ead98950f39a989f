import json

import pytest

from reliakit import (
    ClaimTierViolationError,
    ContractParseError,
    ImmutabilityViolationError,
    Tier,
    UnknownMeasureError,
    assert_headline_eligible,
    load_contract,
)
from reliakit.errors import ContractError
from reliakit.registry import parse_contract, verify_declared_counts


def contract_doc():
    return {
        "version": "test-1",
        "declared_counts": {
            "canonical": 0,
            "primary": 2,
            "sensitivity": 1,
            "descriptive": 0,
            "excluded": 1,
        },
        "entries": [
            {
                "measure_id": "stroop_contrast",
                "dataset_id": "archive1:stroop",
                "tier": "primary",
                "aggregation": {
                    "outcome": "condition_contrast",
                    "condition_a": "incongruent",
                    "condition_b": "congruent",
                    "unit": "ms",
                },
                "description": "Stroop interference",
            },
            {
                "measure_id": "stroop_accuracy",
                "dataset_id": "archive1:stroop",
                "tier": "primary",
                "aggregation": {
                    "outcome": "accuracy_proportion",
                    "condition_a": "incongruent",
                    "unit": "proportion",
                },
                "description": "Stroop accuracy",
            },
            {
                "measure_id": "stroop_meanrt_sens",
                "dataset_id": "archive1:stroop",
                "tier": "sensitivity",
                "aggregation": {
                    "outcome": "mean_rt",
                    "condition_a": "congruent",
                    "unit": "ms",
                },
                "description": "Sensitivity-only endpoint",
            },
            {
                "measure_id": "stroop_legacy",
                "dataset_id": "archive1:stroop",
                "tier": "excluded",
                "aggregation": {
                    "outcome": "mean_rt",
                    "condition_a": "congruent",
                    "unit": "ms",
                },
                "description": "Retired endpoint",
            },
        ],
    }


def write_doc(tmp_path, doc, name="measures.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_contract_roundtrip(tmp_path):
    registry = load_contract(write_doc(tmp_path, contract_doc()))
    assert registry.version == "test-1"
    assert len(registry.entries) == 4
    assert registry.tier_counts()["primary"] == 2
    entry = registry.get("stroop_contrast")
    assert entry.tier is Tier.PRIMARY
    assert entry.task == "stroop"
    assert entry.aggregation.condition_b == "congruent"
    assert "stroop_accuracy" in registry
    assert "nope" not in registry


def test_tier_counts_sum_to_entry_count(tmp_path):
    registry = load_contract(write_doc(tmp_path, contract_doc()))
    assert sum(registry.tier_counts().values()) == len(registry.entries)


def test_empty_contract_is_valid(tmp_path):
    doc = {"version": "v", "declared_counts": {}, "entries": []}
    registry = load_contract(write_doc(tmp_path, doc))
    assert registry.entries == ()
    assert all(v == 0 for v in registry.tier_counts().values())


def test_declared_count_mismatch_is_fatal(tmp_path):
    doc = contract_doc()
    doc["declared_counts"]["primary"] = 3
    with pytest.raises(ImmutabilityViolationError):
        load_contract(write_doc(tmp_path, doc))


def test_parse_contract_skips_count_check(tmp_path):
    doc = contract_doc()
    doc["declared_counts"]["primary"] = 3
    registry = parse_contract(write_doc(tmp_path, doc))
    with pytest.raises(ImmutabilityViolationError):
        verify_declared_counts(registry)


def test_duplicate_measure_id_is_fatal(tmp_path):
    doc = contract_doc()
    doc["entries"].append(dict(doc["entries"][0]))
    doc["declared_counts"]["primary"] = 3
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_unknown_tier_is_fatal(tmp_path):
    doc = contract_doc()
    doc["entries"][0]["tier"] = "aspirational"
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_unknown_declared_tier_is_fatal(tmp_path):
    doc = contract_doc()
    doc["declared_counts"]["bonus"] = 1
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_contrast_requires_condition_b(tmp_path):
    doc = contract_doc()
    del doc["entries"][0]["aggregation"]["condition_b"]
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_non_contrast_forbids_condition_b(tmp_path):
    doc = contract_doc()
    doc["entries"][1]["aggregation"]["condition_b"] = "congruent"
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_unknown_aggregation_key_is_fatal(tmp_path):
    doc = contract_doc()
    doc["entries"][0]["aggregation"]["window"] = "full"
    with pytest.raises(ContractParseError):
        load_contract(write_doc(tmp_path, doc))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ContractParseError):
        load_contract(tmp_path / "absent.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ContractParseError):
        load_contract(path)


def test_contract_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"x": "\xff"}')
    with pytest.raises(ContractParseError, match="not valid JSON"):
        load_contract(path)


def test_headline_eligibility(tmp_path):
    registry = load_contract(write_doc(tmp_path, contract_doc()))
    entry = assert_headline_eligible("stroop_contrast", registry)
    assert entry.measure_id == "stroop_contrast"
    with pytest.raises(ClaimTierViolationError):
        assert_headline_eligible("stroop_meanrt_sens", registry)
    with pytest.raises(ClaimTierViolationError):
        assert_headline_eligible("stroop_legacy", registry)
    with pytest.raises(UnknownMeasureError):
        assert_headline_eligible("never_registered", registry)


def test_eligibility_matches_tier_exactly(tmp_path):
    registry = load_contract(write_doc(tmp_path, contract_doc()))
    for entry in registry.entries:
        if entry.tier is Tier.PRIMARY:
            assert_headline_eligible(entry.measure_id, registry)
        else:
            with pytest.raises(ContractError):
                assert_headline_eligible(entry.measure_id, registry)


def test_loading_is_pure(tmp_path):
    path = write_doc(tmp_path, contract_doc())
    assert load_contract(path) == load_contract(path)


DELETE = object()


def mutated(path, value):
    """contract_doc() with the value at path (a tuple of keys and indices)
    replaced by value, or deleted when value is DELETE; the empty path
    replaces the whole document."""
    if not path:
        return value
    doc = contract_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


AGG = ("entries", 0, "aggregation")


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param((), [], id="document-not-object"),
        pytest.param(("entries", 0), "stroop", id="entry-not-object"),
        pytest.param(("version",), DELETE, id="missing-version"),
        pytest.param(("entries", 0, "tier"), DELETE, id="missing-entry-key"),
        pytest.param(AGG + ("unit",), DELETE, id="missing-aggregation-key"),
        pytest.param(("entries", 0, "measure_id"), "", id="empty-measure-id"),
        pytest.param(("entries", 0, "dataset_id"), "", id="empty-dataset-id"),
        pytest.param(("entries", 0, "dataset_id"), "archive1:", id="dataset-id-without-task"),
        pytest.param(("version",), 1, id="version-not-string"),
        pytest.param(("entries", 0, "description"), None, id="description-not-string"),
        pytest.param(("entries", 0, "tier"), "aspirational", id="unknown-tier"),
        pytest.param(AGG, ["mean_rt"], id="aggregation-not-object"),
        pytest.param(AGG + ("window",), "full", id="unknown-aggregation-key"),
        pytest.param(AGG + ("condition_a",), "", id="empty-condition-a"),
        pytest.param(AGG + ("condition_a",), 5, id="condition-a-not-string"),
        pytest.param(AGG + ("condition_b",), "", id="empty-condition-b"),
        pytest.param(AGG + ("condition_b",), 5, id="condition-b-not-string"),
        pytest.param(("declared_counts", "primary"), True, id="bool-declared-count"),
        pytest.param(("declared_counts", "primary"), -1, id="negative-declared-count"),
        pytest.param(("declared_counts", "bonus"), 0, id="unknown-declared-tier"),
        pytest.param(("entries",), {}, id="entries-not-list"),
    ],
)
def test_malformed_contract_is_a_parse_error(tmp_path, path, value):
    with pytest.raises(ContractParseError):
        parse_contract(write_doc(tmp_path, mutated(path, value)))


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("version",), "", id="empty-version"),
        pytest.param(("entries", 0, "description"), "", id="empty-description"),
        pytest.param(("entries", 1, "aggregation", "condition_b"), None, id="null-condition-b"),
        pytest.param(("declared_counts", "canonical"), DELETE, id="missing-declared-tier"),
        pytest.param(("entries", 0, "dataset_id"), "stroop", id="dataset-id-without-archive"),
    ],
)
def test_edge_contract_parses(tmp_path, path, value):
    registry = load_contract(write_doc(tmp_path, mutated(path, value)))
    assert registry.get("stroop_contrast").task == "stroop"
    assert registry.declared_counts["canonical"] == 0
    assert registry.get("stroop_accuracy").aggregation.condition_b is None
