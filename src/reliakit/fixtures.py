"""Deterministic synthetic workspace for smoke runs.

The fixture is generated from a pinned internal seed, never from the CLI
seed, so the workspace bytes are identical no matter how the pipeline is
invoked. Three tasks with different sample sizes exercise the interesting
paths: boundary and out-of-range reaction times, a subject missing one
session, a zero-trial condition cell, an accuracy-free task, and one task
small enough (n = 12) to go insufficient_n at the stricter multiverse
n_min levels.

The processed table carries a SYNTHETIC_DATA marker file; the final-mode
gate refuses any workspace containing it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ContractError
from .hashutil import sha256_file
from .ingest import LONG_CSV_COLUMNS
from .outputs import fmt_float, write_csv, write_json
from .provenance import (
    CONTRACT_RELPATH,
    GATE_CONFIG,
    HASH_MANIFEST,
    PROCESSED_PIN,
    PROCESSED_RELPATH,
    SYNTHETIC_MARKER,
)
from .registry import Tier

FIXTURE_SEED = 20260819

_KEY_FILES = (CONTRACT_RELPATH, PROCESSED_RELPATH, HASH_MANIFEST, GATE_CONFIG)

CONTRACT_DOC = {
    "version": "smoke-1",
    "declared_counts": {
        "canonical": 1,
        "primary": 6,
        "sensitivity": 1,
        "descriptive": 1,
        "excluded": 1,
    },
    "entries": [
        {
            "measure_id": "taskA_meanrt",
            "dataset_id": "fixtures:taskA",
            "tier": "primary",
            "aggregation": {"outcome": "mean_rt", "condition_a": "congruent", "unit": "ms"},
            "description": "Mean congruent RT, task A",
        },
        {
            "measure_id": "taskA_contrast",
            "dataset_id": "fixtures:taskA",
            "tier": "primary",
            "aggregation": {
                "outcome": "condition_contrast",
                "condition_a": "incongruent",
                "condition_b": "congruent",
                "unit": "ms",
            },
            "description": "Incongruent minus congruent mean RT, task A",
        },
        {
            "measure_id": "taskA_accuracy",
            "dataset_id": "fixtures:taskA",
            "tier": "primary",
            "aggregation": {
                "outcome": "accuracy_proportion",
                "condition_a": "incongruent",
                "unit": "proportion",
            },
            "description": "Incongruent accuracy, task A",
        },
        {
            "measure_id": "taskB_meanrt",
            "dataset_id": "fixtures:taskB",
            "tier": "primary",
            "aggregation": {"outcome": "mean_rt", "condition_a": "standard", "unit": "ms"},
            "description": "Mean RT, task B",
        },
        {
            "measure_id": "taskB_accuracy",
            "dataset_id": "fixtures:taskB",
            "tier": "primary",
            "aggregation": {
                "outcome": "accuracy_proportion",
                "condition_a": "standard",
                "unit": "proportion",
            },
            "description": "Accuracy, task B",
        },
        {
            "measure_id": "taskC_meanrt",
            "dataset_id": "fixtures:taskC",
            "tier": "primary",
            "aggregation": {"outcome": "mean_rt", "condition_a": "single", "unit": "ms"},
            "description": "Mean RT, task C (small n)",
        },
        {
            "measure_id": "taskA_contrast_agreement",
            "dataset_id": "fixtures:taskA",
            "tier": "canonical",
            "aggregation": {
                "outcome": "condition_contrast",
                "condition_a": "incongruent",
                "condition_b": "congruent",
                "unit": "ms",
            },
            "description": "Contrast endpoint retained in the canonical subset",
        },
        {
            "measure_id": "taskA_meanrt_incongruent",
            "dataset_id": "fixtures:taskA",
            "tier": "sensitivity",
            "aggregation": {
                "outcome": "mean_rt",
                "condition_a": "incongruent",
                "unit": "ms",
            },
            "description": "Incongruent mean RT, sensitivity only",
        },
        {
            "measure_id": "taskB_meanrt_descriptive",
            "dataset_id": "fixtures:taskB",
            "tier": "descriptive",
            "aggregation": {"outcome": "mean_rt", "condition_a": "standard", "unit": "ms"},
            "description": "Duplicate of taskB_meanrt kept for descriptive reporting",
        },
        {
            "measure_id": "taskA_legacy",
            "dataset_id": "fixtures:taskA",
            "tier": "excluded",
            "aggregation": {"outcome": "mean_rt", "condition_a": "congruent", "unit": "ms"},
            "description": "Legacy endpoint, excluded from all reporting",
        },
    ],
}


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _clip_rt(rt: float) -> float:
    return min(max(rt, 215.0), 4800.0)


def _two_condition_task(
    rng: np.random.Generator,
    task: str,
    prefix: str,
    n_subjects: int,
    trials_per_cell: int,
) -> list[list]:
    rows: list[list] = []
    trait = rng.normal(0.0, 1.0, n_subjects)
    effect = rng.normal(0.0, 1.0, n_subjects)
    acc_trait = rng.normal(0.0, 1.0, n_subjects)
    for i in range(n_subjects):
        subject = f"{prefix}{i + 1:02d}"
        for session in (1, 2):
            latent = trait[i] + rng.normal(0.0, 0.35)
            eff_latent = effect[i] + rng.normal(0.0, 0.45)
            for condition in ("congruent", "incongruent"):
                shift = 65.0 + 14.0 * eff_latent if condition == "incongruent" else 0.0
                p_correct = _sigmoid(
                    2.2 + 0.6 * acc_trait[i] - (0.5 if condition == "incongruent" else 0.0)
                )
                for _ in range(trials_per_cell):
                    rt = _clip_rt(520.0 + 45.0 * latent + shift + rng.normal(0.0, 60.0))
                    acc = int(rng.random() < p_correct)
                    rows.append([subject, task, session, condition, rt, acc])
    return rows


def _single_condition_task(
    rng: np.random.Generator,
    task: str,
    prefix: str,
    condition: str,
    n_subjects: int,
    trials_per_cell: int,
    with_accuracy: bool,
) -> list[list]:
    rows: list[list] = []
    trait = rng.normal(0.0, 1.0, n_subjects)
    acc_trait = rng.normal(0.0, 1.0, n_subjects)
    for i in range(n_subjects):
        subject = f"{prefix}{i + 1:02d}"
        for session in (1, 2):
            latent = trait[i] + rng.normal(0.0, 0.4)
            p_correct = _sigmoid(2.0 + 0.7 * acc_trait[i])
            for _ in range(trials_per_cell):
                rt = _clip_rt(480.0 + 50.0 * latent + rng.normal(0.0, 55.0))
                acc = int(rng.random() < p_correct) if with_accuracy else ""
                rows.append([subject, task, session, condition, rt, acc])
    return rows


def _set_rt(rows: list[list], subject: str, session: int, condition: str, rt: float) -> None:
    for row in rows:
        if row[0] == subject and row[2] == session and row[3] == condition:
            row[4] = rt
            return
    raise LookupError(f"no fixture row for {subject}/s{session}/{condition}")


def _generate_rows() -> list[list]:
    rng = np.random.default_rng(FIXTURE_SEED)
    rows = _two_condition_task(rng, "taskA", "a", 24, 16)
    rows += _single_condition_task(rng, "taskB", "b", "standard", 20, 16, True)
    rows += _single_condition_task(rng, "taskC", "c", "single", 12, 12, False)

    # deterministic filter-path probes: strict exclusions and kept boundaries
    _set_rt(rows, "a01", 1, "congruent", 150.0)
    _set_rt(rows, "a01", 2, "congruent", 185.5)
    _set_rt(rows, "a02", 1, "congruent", 5500.0)
    _set_rt(rows, "a03", 1, "congruent", 200.0)
    _set_rt(rows, "a04", 1, "congruent", 5000.0)
    _set_rt(rows, "b01", 1, "standard", 150.0)
    _set_rt(rows, "b02", 2, "standard", 5200.0)

    # a24 never returns for session 2; a23 contributes no incongruent
    # trials at session 2 (zero-trial cell for the contrast recipe)
    rows = [r for r in rows if not (r[0] == "a24" and r[2] == 2)]
    rows = [
        r
        for r in rows
        if not (r[0] == "a23" and r[2] == 2 and r[3] == "incongruent")
    ]
    return rows


def ensure_smoke_workspace(root: str | Path) -> Path:
    """Materialize the fixture workspace when none of its key files exist.

    A complete workspace (possibly hand-edited) is left untouched so that
    tamper experiments against the gate stay observable. A partial one is
    refused with a ContractError naming the missing files: regenerating it
    would silently overwrite the files that remain.
    """
    root = Path(root)
    missing = [rel for rel in _KEY_FILES if not (root / rel).is_file()]
    if not missing:
        return root
    if len(missing) < len(_KEY_FILES):
        raise ContractError(
            f"incomplete smoke workspace {root}: missing {', '.join(missing)}; "
            "restore them or start from an empty workspace"
        )
    return make_smoke_workspace(root)


def make_smoke_workspace(root: str | Path) -> Path:
    root = Path(root)
    contract = root / CONTRACT_RELPATH
    long_csv = root / PROCESSED_RELPATH
    manifest = root / HASH_MANIFEST

    write_json(contract, CONTRACT_DOC)

    rows = _generate_rows()
    rendered = [
        [r[0], r[1], str(r[2]), r[3], fmt_float(r[4]), str(r[5])]
        for r in rows
    ]
    write_csv(long_csv, LONG_CSV_COLUMNS, rendered)
    (root / SYNTHETIC_MARKER).write_text(
        "Synthetic smoke-fixture data. Never promote results computed from this workspace.\n",
        encoding="utf-8",
    )

    write_json(manifest, {PROCESSED_PIN: sha256_file(long_csv)})
    tier_counts = {tier.value: 0 for tier in Tier}
    for entry in CONTRACT_DOC["entries"]:
        tier_counts[entry["tier"]] += 1
    write_json(
        root / GATE_CONFIG,
        {
            "schema_version": 1,
            "pinned_tier_counts": tier_counts,
            "pinned_digests": {
                CONTRACT_RELPATH: sha256_file(contract),
                HASH_MANIFEST: sha256_file(manifest),
            },
        },
    )
    return root
