"""Measure contract registry.

The contract file is a JSON document pinning every measure the pipeline is
allowed to touch: its tier, the dataset/task it binds to, and the recipe
that turns trial rows into one score per subject and session. Declared
per-tier counts are part of the document and must match the entries
exactly; a mismatch is treated as tampering, not as a warning.

dataset_id follows the "<archive>:<task>" convention; the suffix after the
first colon selects rows of the processed long table by their task column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    ClaimTierViolationError,
    ContractParseError,
    ImmutabilityViolationError,
    UnknownMeasureError,
)


class Tier(str, Enum):
    CANONICAL = "canonical"
    PRIMARY = "primary"
    SENSITIVITY = "sensitivity"
    DESCRIPTIVE = "descriptive"
    EXCLUDED = "excluded"


VALID_OUTCOMES = ("mean_rt", "accuracy_proportion", "condition_contrast")
VALID_UNITS = ("ms", "proportion")


@dataclass(frozen=True)
class AggregationRecipe:
    """How trial rows become one score per (subject, session) cell.

    condition_contrast subtracts the condition_b cell mean from the
    condition_a cell mean; the base statistic is the mean RT when unit is
    "ms" and the accuracy proportion when unit is "proportion". The other
    outcomes use condition_a alone and must not carry condition_b.
    """

    outcome: str
    condition_a: str
    condition_b: str | None
    unit: str

    def __post_init__(self) -> None:
        if self.outcome not in VALID_OUTCOMES:
            raise ContractParseError(f"unknown outcome {self.outcome!r}")
        if self.unit not in VALID_UNITS:
            raise ContractParseError(f"unknown unit {self.unit!r}")
        if self.outcome == "condition_contrast":
            if not self.condition_b:
                raise ContractParseError(
                    "condition_contrast requires condition_b"
                )
        elif self.condition_b is not None:
            raise ContractParseError(
                f"outcome {self.outcome!r} does not take condition_b"
            )


@dataclass(frozen=True)
class MeasureContract:
    measure_id: str
    dataset_id: str
    tier: Tier
    aggregation: AggregationRecipe
    description: str

    @property
    def task(self) -> str:
        """Task key within the processed long table."""
        _, _, suffix = self.dataset_id.partition(":")
        return suffix if suffix else self.dataset_id


@dataclass(frozen=True)
class ContractRegistry:
    version: str
    declared_counts: dict[str, int]
    entries: tuple[MeasureContract, ...]
    _by_id: dict[str, MeasureContract] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for entry in self.entries:
            if entry.measure_id in self._by_id:
                raise ContractParseError(
                    f"duplicate measure_id {entry.measure_id!r}"
                )
            self._by_id[entry.measure_id] = entry

    def __contains__(self, measure_id: str) -> bool:
        return measure_id in self._by_id

    def get(self, measure_id: str) -> MeasureContract:
        try:
            return self._by_id[measure_id]
        except KeyError:
            raise UnknownMeasureError(
                f"measure {measure_id!r} is not in the contract"
            ) from None

    def tier_counts(self) -> dict[str, int]:
        counts = {tier.value: 0 for tier in Tier}
        for entry in self.entries:
            counts[entry.tier.value] += 1
        return counts

    def by_tier(self, tier: Tier) -> tuple[MeasureContract, ...]:
        return tuple(e for e in self.entries if e.tier is tier)

    def primary_measures(self) -> tuple[MeasureContract, ...]:
        return self.by_tier(Tier.PRIMARY)


def _parse_entry(raw: object, index: int) -> MeasureContract:
    if not isinstance(raw, dict):
        raise ContractParseError(f"entry {index} is not an object")
    try:
        measure_id = raw["measure_id"]
        dataset_id = raw["dataset_id"]
        tier_raw = raw["tier"]
        agg_raw = raw["aggregation"]
        description = raw["description"]
    except KeyError as exc:
        raise ContractParseError(
            f"entry {index} is missing key {exc.args[0]!r}"
        ) from None
    if not isinstance(measure_id, str) or not measure_id:
        raise ContractParseError(f"entry {index}: measure_id must be a non-empty string")
    if not isinstance(dataset_id, str) or not dataset_id:
        raise ContractParseError(f"entry {index}: dataset_id must be a non-empty string")
    if not isinstance(description, str):
        raise ContractParseError(f"entry {index}: description must be a string")
    try:
        tier = Tier(tier_raw)
    except ValueError:
        raise ContractParseError(
            f"entry {index}: unknown tier {tier_raw!r}"
        ) from None
    if not isinstance(agg_raw, dict):
        raise ContractParseError(f"entry {index}: aggregation must be an object")
    unknown = set(agg_raw) - {"outcome", "condition_a", "condition_b", "unit"}
    if unknown:
        raise ContractParseError(
            f"entry {index}: unknown aggregation keys {sorted(unknown)}"
        )
    try:
        recipe = AggregationRecipe(
            outcome=agg_raw["outcome"],
            condition_a=agg_raw["condition_a"],
            condition_b=agg_raw.get("condition_b"),
            unit=agg_raw["unit"],
        )
    except KeyError as exc:
        raise ContractParseError(
            f"entry {index}: aggregation is missing {exc.args[0]!r}"
        ) from None
    return MeasureContract(
        measure_id=measure_id,
        dataset_id=dataset_id,
        tier=tier,
        aggregation=recipe,
        description=description,
    )


def parse_contract(path: str | Path) -> ContractRegistry:
    """Parse a contract document without checking declared counts.

    The promotion gate validates parsing and count immutability as two
    separate checks, so the split lives here too.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ContractParseError(f"contract file not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractParseError(f"contract is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ContractParseError("contract document must be a JSON object")
    try:
        version = doc["version"]
        declared = doc["declared_counts"]
        entries_raw = doc["entries"]
    except KeyError as exc:
        raise ContractParseError(
            f"contract is missing key {exc.args[0]!r}"
        ) from None
    if not isinstance(version, str):
        raise ContractParseError("version must be a string")
    if not isinstance(declared, dict):
        raise ContractParseError("declared_counts must be an object")
    valid_tiers = {tier.value for tier in Tier}
    unknown = set(declared) - valid_tiers
    if unknown:
        raise ContractParseError(
            f"declared_counts has unknown tiers {sorted(unknown)}"
        )
    counts: dict[str, int] = {}
    for tier_name in sorted(valid_tiers):
        value = declared.get(tier_name, 0)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ContractParseError(
                f"declared_counts[{tier_name!r}] must be a non-negative integer"
            )
        counts[tier_name] = value
    if not isinstance(entries_raw, list):
        raise ContractParseError("entries must be an array")
    entries = tuple(_parse_entry(raw, i) for i, raw in enumerate(entries_raw))
    return ContractRegistry(version=version, declared_counts=counts, entries=entries)


def verify_declared_counts(registry: ContractRegistry) -> None:
    """Raise unless declared per-tier counts match the entries exactly."""
    actual = registry.tier_counts()
    mismatches = {
        tier: (registry.declared_counts[tier], actual[tier])
        for tier in actual
        if registry.declared_counts[tier] != actual[tier]
    }
    if mismatches:
        detail = ", ".join(
            f"{tier}: declared {d} vs actual {a}"
            for tier, (d, a) in sorted(mismatches.items())
        )
        raise ImmutabilityViolationError(f"tier count mismatch ({detail})")


def load_contract(path: str | Path) -> ContractRegistry:
    """Parse a contract and enforce declared-count immutability."""
    registry = parse_contract(path)
    verify_declared_counts(registry)
    return registry


def assert_headline_eligible(measure_id: str, registry: ContractRegistry) -> MeasureContract:
    """Gate for headline claims: the measure must exist and be primary."""
    entry = registry.get(measure_id)
    if entry.tier is not Tier.PRIMARY:
        raise ClaimTierViolationError(
            f"measure {measure_id!r} is tier {entry.tier.value!r}; "
            "headline claims require tier 'primary'"
        )
    return entry
