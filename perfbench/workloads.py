"""The benchmark's workloads and the seeded generator for their inputs.

Each workload stresses a different layer of reliakit, and each layer is
heavy in one workload and light in another:

* ``smoke``: the package's own fixture, as a user of the quick start gets
  it. Tiny n, so per-replicate overhead, the brute-force KSG path,
  Spearman ranks and the process pool dominate; ingest is negligible.
* ``large_n``: 600 subjects, just above the brute-force limit of the KSG
  counts (n = 512), so every evaluation takes the kdtree path, and the
  600-deletion jackknife outweighs the B = 200 replicates. Ingest and
  orchestration are near zero.
* ``trial_heavy``: 240k trial rows for 40 subjects, so ingest (paid once
  per command) dominates and estimation at n = 40 is small.

``write_workspace`` writes a complete smoke-mode workspace (contract, long
table, hash manifest, gate config pins and the synthetic-data marker) whose
bytes depend on the seed alone. It uses only the standard library and
numpy, so the inputs do not change when reliakit's writers do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIERS = ("canonical", "descriptive", "excluded", "primary", "sensitivity")
SPECS = 24  # the multiverse grid: 4 k x 2 correlation methods x 3 n_min


@dataclass(frozen=True)
class Measure:
    measure_id: str
    outcome: str
    condition_a: str
    condition_b: str | None
    unit: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subjects: int
    measures: int
    b: int
    workers: int  # 0 means min(2, nproc)
    commands: tuple[str, ...]
    trials_per_cell: int = 0  # 0: the package's smoke fixture, not generated

    @property
    def generated(self) -> bool:
        return self.trials_per_cell > 0

    @property
    def cells(self) -> int:
        """(spec, measure) cells attempted, fixed by the workload definition."""
        per_command = {"run": 1, "multiverse": SPECS}
        return sum(per_command[c] for c in self.commands) * self.measures

    def resolved_workers(self, nproc: int) -> int:
        return self.workers or min(2, nproc)


TASK = "flanker"
CONDITIONS = ("congruent", "incongruent")

MEAN_RT = Measure("flanker_meanrt", "mean_rt", "congruent", None, "ms")
CONTRAST = Measure("flanker_contrast", "condition_contrast", "incongruent", "congruent", "ms")
ACCURACY = Measure("flanker_accuracy", "accuracy_proportion", "incongruent", None, "proportion")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smoke",
            why="documented quick start: fixture of 56 subjects, 2.4k rows, 6 measures, "
            "24 specs, B=200, 2 workers; tiny n, so replicate overhead, brute KSG and the pool dominate",
            subjects=56,
            measures=6,
            b=200,
            workers=0,
            commands=("run", "multiverse"),
        ),
        Workload(
            name="large_n",
            why="600 subjects, 4.8k rows, 1 measure, run only, B=200, serial; n above the "
            "brute limit of 512, so kdtree KSG counts and the 600-deletion jackknife dominate",
            subjects=600,
            measures=1,
            b=200,
            workers=1,
            commands=("run",),
            trials_per_cell=2,
        ),
        Workload(
            name="trial_heavy",
            why="40 subjects, 240k rows (11 MB), 3 measures, 24 specs, B=50, serial; "
            "ingest is paid once per command and dominates, estimation at n=40 is small",
            subjects=40,
            measures=3,
            b=50,
            workers=1,
            commands=("run", "multiverse"),
            trials_per_cell=1500,
        ),
    )
}

MEASURES = {"large_n": (CONTRAST,), "trial_heavy": (MEAN_RT, CONTRAST, ACCURACY)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def generate_trials(seed: int, subjects: int, trials_per_cell: int) -> list[str]:
    """CSV lines of a two-condition task, in subject/session/condition order.

    Subjects carry a stable speed trait, an interference effect and an
    accuracy trait; sessions add state noise. Reaction times are clipped
    inside the ingest filter bounds so no trial is excluded and no cell is
    empty, and every operation on the table succeeds.
    """
    rng = np.random.default_rng(seed)
    shape = (subjects, 2, 2, trials_per_cell)
    trait = rng.normal(0.0, 1.0, subjects)[:, None, None, None]
    effect = rng.normal(0.0, 1.0, subjects)[:, None, None, None]
    acc_trait = rng.normal(0.0, 1.0, subjects)[:, None, None, None]
    state = rng.normal(0.0, 0.35, (subjects, 2))[:, :, None, None]
    eff_state = rng.normal(0.0, 0.45, (subjects, 2))[:, :, None, None]
    incongruent = np.array([0.0, 1.0])[None, None, :, None]
    shift = incongruent * (65.0 + 14.0 * (effect + eff_state))
    rt = 520.0 + 45.0 * (trait + state) + shift + rng.normal(0.0, 60.0, shape)
    rt = np.clip(rt, 215.0, 4800.0)
    p_correct = 1.0 / (1.0 + np.exp(-(2.2 + 0.6 * acc_trait - 0.5 * incongruent)))
    acc = (rng.random(shape) < p_correct).astype(np.int64)

    lines = ["subject_id,task,session,condition,rt_ms,accuracy"]
    for s in range(subjects):
        subject = f"s{s + 1:04d}"
        for session in (0, 1):
            for c, condition in enumerate(CONDITIONS):
                prefix = f"{subject},{TASK},{session + 1},{condition},"
                lines.extend(
                    f"{prefix}{'%.17g' % t},{a}"
                    for t, a in zip(rt[s, session, c].tolist(), acc[s, session, c].tolist())
                )
    return lines


def write_workspace(root: Path, workload: Workload, seed: int) -> Path:
    """Write the generated workspace for `workload` under `root`."""
    if not workload.generated:
        raise ValueError(f"{workload.name} uses the package's own fixture")
    measures = MEASURES[workload.name]
    entries = [
        {
            "measure_id": m.measure_id,
            "dataset_id": f"bench:{TASK}",
            "tier": "primary",
            "aggregation": {
                k: v
                for k, v in (
                    ("outcome", m.outcome),
                    ("condition_a", m.condition_a),
                    ("condition_b", m.condition_b),
                    ("unit", m.unit),
                )
                if v is not None
            },
            "description": f"{m.outcome} ({m.measure_id})",
        }
        for m in measures
    ]
    tier_counts = {tier: 0 for tier in TIERS}
    tier_counts["primary"] = len(entries)
    contract = root / "contracts" / "measures.json"
    _write_json(
        contract,
        {"version": f"bench-{workload.name}", "declared_counts": tier_counts, "entries": entries},
    )

    table = root / "data" / "processed" / "long.csv"
    table.parent.mkdir(parents=True, exist_ok=True)
    lines = generate_trials(seed, workload.subjects, workload.trials_per_cell)
    with open(table, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    (table.parent / "SYNTHETIC_DATA").write_text(
        "Synthetic benchmark data. Never promote results computed from this workspace.\n",
        encoding="utf-8",
    )

    manifest = root / "expected_hashes.json"
    _write_json(manifest, {"processed/long.csv": _sha256(table)})
    _write_json(
        root / "gate_config.json",
        {
            "schema_version": 1,
            "pinned_tier_counts": tier_counts,
            "pinned_digests": {
                "contracts/measures.json": _sha256(contract),
                "expected_hashes.json": _sha256(manifest),
            },
        },
    )
    return root

