"""Independent oracle for the point estimates, n and status of every cell.

It reads the workspace the program read (contract and long table) with the
standard library, aggregates trials itself, and recomputes rho, the KSG
estimate by explicit O(n^2) neighbour counting with scipy's digamma, and the
Gaussian baseline. Bootstrap intervals are not recomputed; they are covered
by the byte-identity checks.

The KSG counts are integers that decide the estimate, so the oracle uses the
same float operations as the documented estimator (standardize with
ddof = 1, max-norm distances, strict inequality) and compares the result
within TOL, fixed before any run.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
from scipy.special import digamma
from scipy.stats import rankdata

TOL = 1e-9  # absolute, scaled by max(1, |expected|); float64 leaves ~1e-15
RT_MIN_MS, RT_MAX_MS = 200.0, 5000.0
RHO_CLAMP = 1.0 - 1e-12
K_GRID, CORR_GRID, N_MIN_GRID = (3, 4, 5, 6), ("pearson", "spearman"), (10, 15, 20)
DEFAULT_SPEC = "k4_pearson_nmin10"


def _standardize(v: np.ndarray) -> np.ndarray:
    s = v.std(ddof=1)
    c = v - v.mean()
    return c / s if s > 0 else c


def ksg(x1: np.ndarray, x2: np.ndarray, k: int) -> float:
    n = x1.size
    x, y = _standardize(x1), _standardize(x2)
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    joint = np.maximum(dx, dy)
    np.fill_diagonal(joint, np.inf)
    eps = np.sort(joint, axis=1)[:, k - 1]
    has_ball = eps > 0
    nx = (dx < eps[:, None]).sum(axis=1) - has_ball
    ny = (dy < eps[:, None]).sum(axis=1) - has_ball
    return float(digamma(k) - np.mean(digamma(nx + 1) + digamma(ny + 1)) + digamma(n))


def _rho(x1: np.ndarray, x2: np.ndarray, method: str) -> float:
    if method == "spearman":
        x1, x2 = rankdata(x1), rankdata(x2)
    return float(np.corrcoef(x1, x2)[0, 1])


def paired_samples(workspace: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Session-1 and session-2 scores per primary measure, by subject."""
    contract = json.loads((workspace / "contracts/measures.json").read_text(encoding="utf-8"))
    cells: dict[tuple[str, str, int, str], list[tuple[float, str]]] = {}
    with open(workspace / "data/processed/long.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rt = float(row["rt_ms"])
            if RT_MIN_MS <= rt <= RT_MAX_MS:
                key = (row["task"], row["subject_id"], int(row["session"]), row["condition"])
                cells.setdefault(key, []).append((rt, row["accuracy"]))

    def score(task, subject, session, condition, unit):
        trials = cells.get((task, subject, session, condition))
        if not trials:
            return None
        if unit == "ms":
            return float(np.mean([rt for rt, _ in trials]))
        return float(np.mean([int(acc) for _, acc in trials]))

    samples = {}
    for entry in contract["entries"]:
        if entry["tier"] != "primary":
            continue
        task = entry["dataset_id"].partition(":")[2] or entry["dataset_id"]
        agg = entry["aggregation"]
        subjects = sorted({s for t, s, _, _ in cells if t == task})
        x1, x2 = [], []
        for subject in subjects:
            pair = []
            for session in (1, 2):
                a = score(task, subject, session, agg["condition_a"], agg["unit"])
                if agg["outcome"] == "condition_contrast":
                    b = score(task, subject, session, agg["condition_b"], agg["unit"])
                    a = None if a is None or b is None else a - b
                pair.append(a)
            if None not in pair:
                x1.append(pair[0])
                x2.append(pair[1])
        samples[entry["measure_id"]] = (np.asarray(x1), np.asarray(x2))
    return samples


def expected_cells(workspace: Path) -> dict[tuple[str, str], dict]:
    """(spec_id, measure_id) -> n, status and, for estimable cells, the
    point estimates, for every cell of the 24-spec grid."""
    expected = {}
    for measure_id, (x1, x2) in paired_samples(workspace).items():
        n = x1.size
        estimable = n >= min(N_MIN_GRID)
        mi_ksg = {k: ksg(x1, x2, k) for k in K_GRID} if estimable else {}
        rho = {method: _rho(x1, x2, method) for method in CORR_GRID} if estimable else {}
        for k, method, n_min in product(K_GRID, CORR_GRID, N_MIN_GRID):
            cell = {"n": n, "status": "ok" if n >= n_min else "insufficient_n"}
            if cell["status"] == "ok":
                clamped = max(-RHO_CLAMP, min(RHO_CLAMP, rho[method]))
                mi_gauss = -0.5 * math.log1p(-clamped * clamped)
                cell.update(
                    rho=rho[method], mi_ksg=mi_ksg[k], mi_gauss=mi_gauss, nlr_delta=mi_ksg[k] - mi_gauss
                )
            expected[(f"k{k}_{method}_nmin{n_min}", measure_id)] = cell
    return expected


def _mismatches(where: str, row: dict, want: dict) -> list[str]:
    problems = []
    if int(row["n"]) != want["n"] or row["status"] != want["status"]:
        problems.append(f"{where}: n/status {row['n']}/{row['status']} != {want['n']}/{want['status']}")
    elif want["status"] == "ok":
        for key in ("rho", "mi_ksg", "mi_gauss", "nlr_delta"):
            if key in row and abs(float(row[key]) - want[key]) > TOL * max(1.0, abs(want[key])):
                problems.append(f"{where}: {key} {row[key]} != {want[key]!r}")
    return problems


def check_outputs(out_dir: Path, expected: dict, commands: tuple[str, ...]) -> list[str]:
    """Compare the CSV each command in `commands` wrote to `out_dir` with
    the oracle. Returns one line per mismatch; empty means they agree."""
    problems: list[str] = []
    for command in commands:
        multiverse = command == "multiverse"
        path = out_dir / ("multiverse_results.csv" if multiverse else "per_measure_results.csv")
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        seen = set()
        for row in rows:
            key = (row["spec_id"] if multiverse else DEFAULT_SPEC, row["measure_id"])
            seen.add(key)
            if key not in expected:
                problems.append(f"{path.name}: unexpected cell {key}")
                continue
            problems += _mismatches(f"{path.name} {key}", row, expected[key])
        wanted = {key for key in expected if multiverse or key[0] == DEFAULT_SPEC}
        if seen != wanted:
            problems.append(f"{path.name}: {len(wanted - seen)} cells missing")
    return problems
