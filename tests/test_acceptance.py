"""Acceptance battery.

Each test prints exactly one ACCEPTANCE <n> PASS/FAIL line (visible in the
terminal via the tee-sys capture configured in pyproject.toml) and then
asserts. Criterion 12 is conditional on data this repository does not
redistribute and reports SKIP with the reason.
"""

import csv
import math
import shutil

import numpy as np
import pytest

from reliakit import (
    DEFAULT_SPEC,
    EstimatorError,
    RunConfig,
    build_grid,
    cmd_multiverse,
    cmd_run,
    gaussian_mi,
    icc,
    ksg_mi,
    nlr_delta_rows,
    bh_adjust,
    run_measure,
)
from reliakit.bootstrap import ALPHA, bca_interval
from reliakit.hashutil import sha256_file
from reliakit.outputs import (
    INGEST_EVIDENCE_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    PER_MEASURE_CSV,
    SUMMARY_JSON,
    fmt_float,
    write_csv,
    write_json,
)
from reliakit.provenance import run_gate

from conftest import gauss_pairs, make_sample
from test_icc import icc_oracle
from test_ksg import ksg_oracle


def report(num, desc, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_gaussian_baseline_exactness():
    ok = abs(gaussian_mi(0.6) - (-0.5 * math.log(0.64))) <= 1e-12
    ok = ok and gaussian_mi(0.0) == 0.0
    for bad in (1.0, -1.0, 1.2):
        try:
            gaussian_mi(bad)
            ok = False
        except EstimatorError:
            pass
    report(1, "Gaussian baseline matches -0.5*ln(1-rho^2) exactly", ok)


def test_acceptance_02_ksg_matches_exhaustive_oracle():
    rng = np.random.default_rng(31_415)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(8, 41))
        k = int(rng.choice([2, 3, 4]))
        if trial % 4 == 3:
            base = rng.normal(size=7)
            s = make_sample(
                rng.choice(base, size=n, replace=True),
                rng.choice(base, size=n, replace=True),
            )
        else:
            s = gauss_pairs(rng, n, rho=float(rng.uniform(-0.8, 0.8)))
        diff = abs(ksg_mi(s, k=k) - ksg_oracle(s.x1, s.x2, k))
        worst = max(worst, diff)
    report(2, f"KSG equals exhaustive-count oracle (worst |diff| {worst:.2e})", worst <= 1e-12)


def test_acceptance_03_ksg_consistency():
    truth = -0.5 * math.log(1.0 - 0.36)
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(7_000 + seed)
        errors.append(abs(ksg_mi(gauss_pairs(rng, 2000, rho=0.6), k=4) - truth))
    dependence_err = float(np.median(errors))

    nulls = []
    for seed in range(20):
        rng = np.random.default_rng(8_000 + seed)
        nulls.append(abs(ksg_mi(gauss_pairs(rng, 500, rho=0.0), k=4)))
    null_err = float(np.median(nulls))

    ok = dependence_err < 0.03 and null_err < 0.05
    report(
        3,
        f"KSG consistency (median err {dependence_err:.4f} at rho=0.6, "
        f"{null_err:.4f} under independence)",
        ok,
    )


def test_acceptance_04_small_n_bias_direction():
    rng = np.random.default_rng(535_353)
    deltas = []
    for _ in range(200):
        rho = float(rng.uniform(0.3, 0.8))
        s = gauss_pairs(rng, 53, rho=rho)
        deltas.append(nlr_delta_rows(s.x1[None], s.x2[None], k=4)[0])
    med = float(np.median(deltas))
    ok = -0.30 <= med <= 0.00
    report(4, f"finite-sample bias direction (median nlr_delta {med:.4f} at n=53)", ok)


def test_acceptance_05_null_calibration():
    passes = 0
    measures = 400
    for i in range(measures):
        rng = np.random.default_rng(600_000 + i)
        sample = gauss_pairs(rng, 53, rho=0.0, measure_id=f"null{i:03d}")
        [cell] = run_measure([DEFAULT_SPEC], sample, 20260819, 1000)
        passes += cell.estimate.headline_pass
    fraction = passes / measures
    report(
        5,
        f"null calibration (headline pass fraction {fraction:.4f} over {measures} null measures)",
        fraction <= 0.05,
    )


def test_acceptance_06_bca_degeneracy():
    # flat jackknife: acceleration undefined, endpoints must equal the
    # plain percentile endpoints bit for bit
    rng = np.random.default_rng(99)
    reps = rng.normal(size=500)
    flat = bca_interval(reps, point=0.0, jackknife=np.full(12, 1.0))
    lo, hi = np.quantile(reps, [ALPHA / 2.0, 1.0 - ALPHA / 2.0], method="linear")
    ok = flat.method == "percentile_fallback"
    ok = ok and (flat.ci_low, flat.ci_high) == (float(lo), float(hi))

    # one-sided degeneracy: all replicates on one side of the point
    onesided = bca_interval(
        np.linspace(0.5, 1.5, 100),
        point=0.1,
        jackknife=np.array([0.2, 0.3, 0.25, 0.4]),
    )
    ok = ok and onesided.method == "percentile_fallback"
    ok = ok and onesided.z0 == -np.inf
    report(6, "BCa degeneracy falls back to exact percentile endpoints", ok)


def test_acceptance_07_icc_oracles():
    same = make_sample([4.0, 9.0, 2.0, 7.0, 5.0], [4.0, 9.0, 2.0, 7.0, 5.0])
    ok = icc(same, "icc_2_1").value == 1.0 and icc(same, "icc_3_1").value == 1.0

    x = np.array([3.0, 8.0, 1.0, 6.0, 4.0, 9.0])
    shifted = make_sample(x, x + 5.0)
    ok = ok and icc(shifted, "icc_3_1").value == 1.0
    ok = ok and icc(shifted, "icc_2_1").value < 1.0

    x1 = [9.0, 10.5, 6.0, 12.0, 8.0, 11.0]
    x2 = [10.0, 11.0, 7.5, 12.5, 7.0, 12.0]
    table = make_sample(x1, x2)
    worst = 0.0
    for variant in ("icc_2_1", "icc_3_1"):
        est = icc(table, variant)
        value, low, high = icc_oracle(x1, x2, variant)
        worst = max(
            worst,
            abs(est.value - value),
            abs(est.ci_low - low),
            abs(est.ci_high - high),
        )
    ok = ok and worst <= 1e-10
    report(7, f"ICC limiting cases and ANOVA oracle (worst |diff| {worst:.2e})", ok)


def test_acceptance_08_bh_oracle():
    def brute_force(p):
        m = len(p)
        order = sorted(range(m), key=lambda i: p[i])
        q = [0.0] * m
        for pos, idx in enumerate(order):
            q[idx] = min(1.0, min(p[order[j]] * m / (j + 1) for j in range(pos, m)))
        return np.asarray(q)

    ok = np.allclose(
        bh_adjust([0.005, 0.04, 0.03]), [0.015, 0.04, 0.04], atol=1e-12
    )
    rng = np.random.default_rng(271_828)
    for _ in range(1000):
        m = int(rng.integers(1, 26))
        p = rng.uniform(size=m)
        if rng.uniform() < 0.25:
            p = np.round(p, 1)
        q = bh_adjust(p)
        if not np.allclose(q, brute_force(list(p)), atol=1e-12):
            ok = False
            break
        perm = rng.permutation(m)
        if not np.array_equal(bh_adjust(p[perm]), q[perm]):
            ok = False
            break
        sorted_q = bh_adjust(np.sort(p))
        if (np.diff(sorted_q) < -1e-15).any():
            ok = False
            break
    report(8, "BH q-values match brute-force step-up on 1000 random vectors", ok)


# ---------------------------------------------------------------------------
# pipeline-level criteria


def _build_sim_workspace(root, n_measures=56, n_subjects=16):
    """Workspace with n_measures single-condition tasks, all primary tier."""
    rng = np.random.default_rng(424_242)
    entries = []
    rows = []
    for m in range(n_measures):
        task = f"task{m:02d}"
        entries.append(
            {
                "measure_id": f"sim{m:02d}_meanrt",
                "dataset_id": f"sim:{task}",
                "tier": "primary",
                "aggregation": {"outcome": "mean_rt", "condition_a": "c", "unit": "ms"},
                "description": f"simulated measure {m}",
            }
        )
        trait = rng.normal(0.0, 1.0, n_subjects)
        for i in range(n_subjects):
            subject = f"s{i + 1:02d}"
            for session in (1, 2):
                latent = trait[i] + rng.normal(0.0, 0.5)
                for _ in range(3):
                    rt = float(np.clip(500.0 + 70.0 * latent + rng.normal(0.0, 40.0), 250.0, 4500.0))
                    rows.append([subject, task, str(session), "c", fmt_float(rt), "1"])
    contract = {
        "version": "sim-1",
        "declared_counts": {"primary": n_measures},
        "entries": entries,
    }
    contract_path = root / "contracts" / "measures.json"
    long_csv = root / "data" / "processed" / "long.csv"
    write_json(contract_path, contract)
    write_csv(
        long_csv,
        ("subject_id", "task", "session", "condition", "rt_ms", "accuracy"),
        rows,
    )
    manifest_path = root / "expected_hashes.json"
    write_json(manifest_path, {"processed/long.csv": sha256_file(long_csv)})
    write_json(
        root / "gate_config.json",
        {
            "schema_version": 1,
            "pinned_tier_counts": {
                "canonical": 0,
                "primary": n_measures,
                "sensitivity": 0,
                "descriptive": 0,
                "excluded": 0,
            },
            "pinned_digests": {
                "contracts/measures.json": sha256_file(contract_path),
                "expected_hashes.json": sha256_file(manifest_path),
            },
        },
    )
    return root


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_acceptance_09_grid_and_multiverse_shape(tmp_path):
    ok = len(build_grid()) == 24

    ws = _build_sim_workspace(tmp_path / "ws")
    out = tmp_path / "out"
    config = RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=25)
    cmd_run(config)
    cmd_multiverse(config)

    multi_rows = _read_rows(out / MULTIVERSE_CSV)
    ok = ok and len(multi_rows) == 1344

    run_rows = _read_rows(out / PER_MEASURE_CSV)
    default_rows = [r for r in multi_rows if r["spec_id"] == "k4_pearson_nmin10"]
    ok = ok and len(default_rows) == len(run_rows) == 56
    shared = ("measure_id", "n", "nlr_delta", "ci_low", "ci_high", "status", "headline_pass")
    by_measure = {r["measure_id"]: r for r in default_rows}
    for run_row in run_rows:
        multi_row = by_measure[run_row["measure_id"]]
        if any(run_row[col] != multi_row[col] for col in shared):
            ok = False
            break
    report(
        9,
        "24-spec grid, 56 measures -> 1344 cells, default-spec rows bitwise "
        "equal to the primary run",
        ok,
    )


def test_acceptance_10_byte_determinism(tmp_path, forced_pool):
    ws = tmp_path / "ws"
    outs = [tmp_path / f"out{i}" for i in range(4)]
    for out, workers in zip(outs[:3], (1, 1, 2)):
        config = RunConfig(
            mode="smoke", workspace=ws, out_dir=out, bootstrap_b=60, workers=workers
        )
        cmd_run(config)
        cmd_multiverse(config)

    names = (
        PER_MEASURE_CSV,
        SUMMARY_JSON,
        MULTIVERSE_CSV,
        MULTIVERSE_SUMMARY_JSON,
        INGEST_EVIDENCE_JSON,
    )

    def snapshot(out):
        return {name: (out / name).read_bytes() for name in names}

    repeat_ok = snapshot(outs[0]) == snapshot(outs[1])
    # the workers=2 run and multiverse each ran in a real pool of 2
    worker_ok = snapshot(outs[0]) == snapshot(outs[2]) and forced_pool == [2, 2]
    seeded = RunConfig(
        mode="smoke", workspace=ws, out_dir=outs[3], bootstrap_b=60, base_seed=99
    )
    cmd_run(seeded)
    seed_moves = (outs[3] / PER_MEASURE_CSV).read_bytes() != (
        outs[0] / PER_MEASURE_CSV
    ).read_bytes()
    ok = repeat_ok and worker_ok and seed_moves
    report(
        10,
        "reruns are byte-identical, worker count is invisible, seed changes bytes",
        ok,
    )


def test_acceptance_11_gate_pass_and_tamper(tmp_path):
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    config = RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=40)
    cmd_run(config)
    cmd_multiverse(config)

    clean = run_gate("smoke", ws, out)
    ok = clean.overall and clean.executed == 13 and clean.skipped == 3

    # tamper each pinned file in a scratch copy; the matching check and the
    # overall verdict must both flip. A trailing newline leaves the parsed
    # content identical, so only the digest comparisons can catch it: the
    # gate-config pin (R6) and the input digest provenance recorded (R10).
    for rel in ("contracts/measures.json", "expected_hashes.json"):
        ws2 = tmp_path / f"ws_{rel.replace('/', '_')}"
        shutil.copytree(ws, ws2)
        path = ws2 / rel
        path.write_bytes(path.read_bytes() + b"\n")
        tampered = run_gate("smoke", ws2, out)
        failed = {c.id for c in tampered.checks if not c.skipped and not c.passed}
        ok = ok and not tampered.overall and failed == {"R6", "R10"}
    report(
        11,
        "gate: 13 executed + 3 skipped on clean workspace; pinned-file tampering flips it",
        ok,
    )


def test_acceptance_12_conditional_replication():
    print(
        "ACCEPTANCE 12 SKIP: conditional dataset replication requires "
        "user-supplied raw archives matching the pinned digests (see README); "
        "not CI-gated"
    )
    pytest.skip("requires user-supplied raw archives")
