"""Measure contract registry.

The contract file is a JSON document pinning every measure the pipeline is
allowed to touch: its tier, the dataset/task it binds to, and the recipe
that turns trial rows into one score per subject and session. Declared
per-tier counts are part of the document and must match the entries
exactly; a mismatch is treated as tampering, not as a warning.

dataset_id follows the "<archive>:<task>" convention; the suffix after the
first colon selects rows of the processed long table by their task column.
An id without a colon is the task itself, and an id whose suffix is empty
names no task and is refused.
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
    SchemaError,
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
        return self.dataset_id.partition(":")[2] or self.dataset_id


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


def parse_contract(path: str | Path) -> ContractRegistry:
    """Parse a contract document without checking declared counts.

    The promotion gate validates parsing and count immutability as two
    separate checks, so the split lives here too. The document's shape is
    checked through the typed schema kinds of reliakit.outputs; every
    problem, a schema one included, raises ContractParseError.
    """
    # outputs imports inference, which imports this module, so the kinds
    # are taken at call time
    from .outputs import COUNT, LIST, OBJECT, TEXT, Kind, MapOf, _one_of, _optional, check_json

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ContractParseError(f"contract file not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractParseError(f"contract is not valid JSON: {exc}") from None
    tiers = sorted(tier.value for tier in Tier)
    string = Kind("a string", lambda v: isinstance(v, str))
    entry_schema = {
        "measure_id": TEXT,
        "dataset_id": Kind(
            'a non-empty "<archive>:<task>" or "<task>"',
            lambda v: TEXT.test(v) and v.partition(":")[1:] != (":", ""),
        ),
        "tier": _one_of(*tiers),
        "description": string,
        "aggregation": OBJECT,
    }
    recipe_schema = {
        "outcome": string,
        "condition_a": TEXT,
        "condition_b": _optional(TEXT),
        "unit": string,
    }
    try:
        check_json(doc, {"version": string, "declared_counts": MapOf(COUNT), "entries": LIST}, "contract")
        declared = doc["declared_counts"]
        unknown = set(declared) - set(tiers)
        if unknown:
            raise ContractParseError(f"declared_counts has unknown tiers {sorted(unknown)}")
        # a tier the document leaves out is declared empty
        counts = {tier: declared.get(tier, 0) for tier in tiers}
        entries = []
        for i, raw in enumerate(doc["entries"]):
            where = f"contract:entries:{i}"
            check_json(raw, entry_schema, where)
            # condition_b is optional; null reads as absent
            recipe = {"condition_b": None, **raw["aggregation"]}
            unknown = set(recipe) - set(recipe_schema)
            if unknown:
                raise ContractParseError(f"{where}: unknown aggregation keys {sorted(unknown)}")
            check_json(recipe, recipe_schema, f"{where}:aggregation")
            entries.append(
                MeasureContract(
                    measure_id=raw["measure_id"],
                    dataset_id=raw["dataset_id"],
                    tier=Tier(raw["tier"]),
                    aggregation=AggregationRecipe(**recipe),
                    description=raw["description"],
                )
            )
    except SchemaError as exc:
        raise ContractParseError(str(exc)) from None
    return ContractRegistry(version=doc["version"], declared_counts=counts, entries=tuple(entries))


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
