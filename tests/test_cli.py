import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_sample
import reliakit
from reliakit import RunConfig, build_grid, cmd_multiverse, cmd_run, pipeline
from reliakit.bootstrap import MAX_B
from reliakit.cli import build_parser, main
from reliakit.fixtures import ensure_smoke_workspace
from reliakit.multiverse import DEFAULT_SPEC
from reliakit.outputs import (
    DIGESTED_OUTPUTS,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    PER_MEASURE_CSV,
    PROVENANCE_JSON,
)
from reliakit.registry import load_contract


def read_outputs(out_dir, names=DIGESTED_OUTPUTS):
    return {name: (out_dir / name).read_bytes() for name in names}


def provenance_without_timestamp(out_dir):
    doc = json.loads((out_dir / PROVENANCE_JSON).read_text(encoding="utf-8"))
    doc.pop("timestamp")
    return doc


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(mode="production", workspace=tmp_path, out_dir=tmp_path)
    with pytest.raises(ValueError):
        RunConfig(mode="smoke", workspace=tmp_path, out_dir=tmp_path, workers=0)
    with pytest.raises(ValueError):
        RunConfig(mode="smoke", workspace=tmp_path, out_dir=tmp_path, bootstrap_b=0)
    smoke = RunConfig(mode="smoke", workspace=tmp_path, out_dir=tmp_path)
    final = RunConfig(mode="final", workspace=tmp_path, out_dir=tmp_path)
    assert smoke.resolved_b == 200
    assert final.resolved_b == 5000
    assert RunConfig(
        mode="smoke", workspace=tmp_path, out_dir=tmp_path, bootstrap_b=77
    ).resolved_b == 77


@pytest.mark.parametrize("field", ["base_seed", "bootstrap_b", "workers"])
@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "3"])
def test_run_config_rejects_non_integers(tmp_path, field, value):
    """A bool, float or string is refused when the config is built, before
    a command writes anything."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RunConfig(mode="smoke", workspace=tmp_path / "ws", out_dir=tmp_path / "out",
                  **{field: value})
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("field", ["base_seed", "bootstrap_b", "workers"])
def test_run_config_accepts_numpy_integers(tmp_path, field):
    config = RunConfig(mode="smoke", workspace=tmp_path, out_dir=tmp_path,
                       **{field: np.int64(3)})
    value = getattr(config, field)
    assert value == 3 and type(value) is int


def test_cmd_run_is_byte_deterministic(tmp_path):
    ws = tmp_path / "ws"
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=out1, bootstrap_b=80))
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=out2, bootstrap_b=80))
    first = read_outputs(out1, (PER_MEASURE_CSV, "summary.json", "ingest_evidence.json"))
    second = read_outputs(out2, (PER_MEASURE_CSV, "summary.json", "ingest_evidence.json"))
    assert first == second
    assert provenance_without_timestamp(out1) == provenance_without_timestamp(out2)


def test_cmd_run_seed_changes_intervals(tmp_path):
    ws = tmp_path / "ws"
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=out1, bootstrap_b=80))
    cmd_run(
        RunConfig(
            mode="smoke", workspace=ws, out_dir=out2, bootstrap_b=80, base_seed=7
        )
    )
    assert (out1 / PER_MEASURE_CSV).read_bytes() != (out2 / PER_MEASURE_CSV).read_bytes()
    # the fixture workspace itself never depends on the CLI seed
    assert (ws / "data" / "processed" / "long.csv").read_bytes() == (
        ws / "data" / "processed" / "long.csv"
    ).read_bytes()


def test_cmd_multiverse_worker_invariance(tmp_path, forced_pool):
    ws = tmp_path / "ws"
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    cmd_multiverse(
        RunConfig(mode="smoke", workspace=ws, out_dir=out1, bootstrap_b=30, workers=1)
    )
    cmd_multiverse(
        RunConfig(mode="smoke", workspace=ws, out_dir=out2, bootstrap_b=30, workers=2)
    )
    assert (out1 / MULTIVERSE_CSV).read_bytes() == (out2 / MULTIVERSE_CSV).read_bytes()
    assert (out1 / MULTIVERSE_SUMMARY_JSON).read_bytes() == (
        out2 / MULTIVERSE_SUMMARY_JSON
    ).read_bytes()
    assert forced_pool == [2]


def _tasks(works):
    """One task per work figure: one specification over a sample of one
    subject, so a task's work is b + 1 pair distances."""
    sample = make_sample([0.0], [0.0])
    return [([DEFAULT_SPEC], sample, 42, w - 1) for w in works]


T = pipeline._POOL_MIN_WORK


@pytest.mark.parametrize(
    "works, workers, processes",
    [
        ([], 4, 0),
        ([10 * T], 4, 1),  # one task
        ([T, T], 2, 2),
        ([T, T - 1], 2, 1),  # 2 * T - 1 pays for one process
        ([T // 2] * 6, 2, 2),
        ([T // 4] * 6, 2, 1),
        ([5 * T] * 3, 8, 3),  # never more processes than tasks
        ([5 * T] * 3, 1, 1),  # never more than workers
        ([5 * T] * 3, 2, 2),
    ],
)
def test_pool_size_table(works, workers, processes):
    assert pipeline._pool_size(_tasks(works), workers) == processes


def test_pool_size_counts_specs_and_subjects():
    sample = make_sample(np.arange(20.0), np.arange(20.0))
    # (24 * 50 + 20) * 20**2 = 488,000 pair distances per task
    grid = [(build_grid(), sample, 42, 50)] * 6
    assert pipeline._pool_size(grid, 8) == min(6, 6 * 488_000 // T)
    # (1 * 50 + 20) * 20**2 = 28,000
    single = [([DEFAULT_SPEC], sample, 42, 50)] * 6
    assert pipeline._pool_size(single, 8) == min(6, 6 * 28_000 // T)


def test_smoke_commands_sit_on_either_side_of_the_pool_threshold(tmp_path):
    """The documented smoke quick start (B = 200, 2 workers): `run` is too
    small to pay for a pool and runs serially, the multiverse starts 2."""
    ws = tmp_path / "ws"
    ensure_smoke_workspace(ws)
    registry = load_contract(ws / "contracts" / "measures.json")
    _, samples, _ = pipeline._load_samples(ws, registry)
    for specs, processes in (([DEFAULT_SPEC], 0), (build_grid(), 2)):
        tasks = [(specs, s, 42, 200) for s in samples.values()]
        assert pipeline._pool_size(tasks, 2) == processes


def test_small_run_with_workers_starts_no_pool(tmp_path, monkeypatch):
    """A smoke run at B = 200 and workers=2 runs serially and writes the
    bytes of a workers=1 run."""
    ws = tmp_path / "ws"
    names = (PER_MEASURE_CSV, "summary.json", "ingest_evidence.json")
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=tmp_path / "serial", workers=1))

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=tmp_path / "two", workers=2))
    assert read_outputs(tmp_path / "serial", names) == read_outputs(tmp_path / "two", names)


def test_cli_run_exit_zero(tmp_path, capsys):
    code = main(
        [
            "run",
            "--mode",
            "smoke",
            "--workspace",
            str(tmp_path / "ws"),
            "--out",
            str(tmp_path / "out"),
            "--bootstrap",
            "60",
        ]
    )
    assert code == 0
    assert "run complete" in capsys.readouterr().out
    assert (tmp_path / "out" / PER_MEASURE_CSV).is_file()


def test_cli_final_missing_contract_exits_2_without_outputs(tmp_path, capsys):
    """The registry is always the workspace's contracts/measures.json. Final
    mode does not recreate it, so a workspace without one stops with exit
    code 2 before anything is written."""
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "seeded")])
    (ws / "contracts" / "measures.json").unlink()
    capsys.readouterr()
    code = main(["run", "--mode", "final", "--workspace", str(ws), "--out", str(out)])
    assert code == 2
    assert "contract file missing" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_contract_override(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "smoke", "--workspace", str(tmp_path / "ws"),
              "--contract", str(tmp_path / "other.json")])
    assert exc.value.code != 0
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("flag", ["--bootstrap", "--workers"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_cli_rejects_non_positive_b_and_workers(tmp_path, capsys, flag, value):
    ws, out = tmp_path / "ws", tmp_path / "out"
    for command in ("run", "multiverse"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--mode", "smoke", "--workspace", str(ws), "--out", str(out),
                  flag, value])
        assert exc.value.code != 0
        assert "positive integer" in capsys.readouterr().err
    assert not ws.exists() and not out.exists()


def test_bootstrap_budget_is_at_most_2_32(tmp_path, capsys):
    """A replicate index is one 32-bit seed word, so B > 2**32 is refused
    before anything is written. Checked by parsing and validation alone:
    no run is ever started at such a B."""
    args = ["run", "--mode", "smoke", "--workspace", str(tmp_path / "ws"),
            "--out", str(tmp_path / "out"), "--bootstrap"]
    assert MAX_B == 2**32
    assert build_parser().parse_args(args + [str(MAX_B)]).bootstrap == MAX_B
    for command in ("run", "multiverse"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *args[1:], str(MAX_B + 1)])
        assert exc.value.code == 2
        assert "at most 2**32" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(args + [str(MAX_B + 1)])
    assert exc.value.code == 2
    assert not (tmp_path / "ws").exists() and not (tmp_path / "out").exists()
    assert RunConfig(
        mode="final", workspace=tmp_path, out_dir=tmp_path, bootstrap_b=MAX_B
    ).resolved_b == MAX_B
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RunConfig(mode="final", workspace=tmp_path, out_dir=tmp_path, bootstrap_b=MAX_B + 1)


def snapshot(root):
    return {
        p.relative_to(root): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_smoke_refuses_partial_workspace_and_keeps_edits(tmp_path, capsys):
    """An edited table in a workspace that lost one key file is neither
    regenerated nor used: the command exits 2, names the missing file and
    writes nothing."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    args = ["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(out),
            "--bootstrap", "20"]
    assert main(args) == 0
    long_csv = ws / "data" / "processed" / "long.csv"
    header, first, rest = long_csv.read_bytes().split(b"\n", 2)
    fields = first.split(b",")
    fields[header.split(b",").index(b"rt_ms")] = b"999"
    long_csv.write_bytes(b"\n".join([header, b",".join(fields), rest]))
    edited = long_csv.read_bytes()
    (ws / "contracts" / "measures.json").unlink()
    workspace_before, out_before = snapshot(ws), snapshot(out)
    capsys.readouterr()
    assert main(args) == 2
    assert "contracts/measures.json" in capsys.readouterr().err
    assert long_csv.read_bytes() == edited
    assert snapshot(ws) == workspace_before
    assert snapshot(out) == out_before


@pytest.mark.parametrize("manifest", ["[]", '{"processed/long.csv": 1}', "{not json", "{}"])
def test_cli_final_malformed_manifest_exits_3_without_outputs(tmp_path, capsys, manifest):
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "seeded"),
          "--bootstrap", "20"])
    (ws / "expected_hashes.json").write_text(manifest, encoding="utf-8")
    capsys.readouterr()
    code = main(["run", "--mode", "final", "--workspace", str(ws), "--out", str(out)])
    assert code == 3
    assert "expected_hashes.json" in capsys.readouterr().err
    assert not out.exists()


def test_cli_hash_mismatch_exits_3(tmp_path, capsys):
    ws = tmp_path / "ws"
    main(
        ["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "o1"), "--bootstrap", "40"]
    )
    manifest = ws / "expected_hashes.json"
    manifest.write_text(
        json.dumps({"processed/long.csv": "0" * 64}), encoding="utf-8"
    )
    code = main(
        [
            "run",
            "--mode",
            "final",
            "--workspace",
            str(ws),
            "--out",
            str(tmp_path / "o2"),
            "--bootstrap",
            "40",
        ]
    )
    assert code == 3
    assert "sha256" in capsys.readouterr().err


LONG_CSV_HEADER = b"subject_id,task,session,condition,rt_ms,accuracy\n"


@pytest.mark.parametrize(
    "body, message",
    [
        (LONG_CSV_HEADER + b"s\xff,t,1,c,400,1\n", "long.csv:2: not UTF-8 text"),
        (
            LONG_CSV_HEADER + b"x" * 131073 + b",t,1,c,400,1\n",
            "long.csv:2: field larger than field limit (131072)",
        ),
    ],
)
def test_cli_unreadable_table_exits_2(tmp_path, capsys, body, message):
    ws = tmp_path / "ws"
    main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "o1"),
          "--bootstrap", "20"])
    (ws / "data" / "processed" / "long.csv").write_bytes(body)
    capsys.readouterr()
    code = main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "o2"),
                 "--bootstrap", "20"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_contract_not_utf8_exits_2(tmp_path, capsys):
    ws = tmp_path / "ws"
    main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "o1"),
          "--bootstrap", "20"])
    (ws / "contracts" / "measures.json").write_bytes(b'{"x": "\xff"}')
    capsys.readouterr()
    code = main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(tmp_path / "o2"),
                 "--bootstrap", "20"])
    assert code == 2
    assert "contract is not valid JSON" in capsys.readouterr().err


def test_cli_malformed_contract_exits_2_without_outputs(tmp_path, capsys):
    """The contract is read through its schema before anything is written:
    a condition that is not a string stops the command with exit code 2."""
    ws = ensure_smoke_workspace(tmp_path / "ws")
    contract = ws / "contracts" / "measures.json"
    doc = json.loads(contract.read_text(encoding="utf-8"))
    doc["entries"][0]["aggregation"]["condition_a"] = 5
    contract.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--mode", "smoke", "--workspace", str(ws), "--out", str(out),
                 "--bootstrap", "20"])
    assert code == 2
    assert "condition_a must be a non-empty string" in capsys.readouterr().err
    assert not out.exists()


def run_both(ws, out, *flags):
    """`run` then `multiverse` in smoke mode, the outputs verify gates."""
    for command in ("run", "multiverse"):
        args = [command, "--mode", "smoke", "--workspace", str(ws), "--out", str(out)]
        assert main(args + ["--bootstrap", "50", *flags]) == 0


def test_cli_verify_smoke_passes(tmp_path, capsys):
    run_both(tmp_path / "ws", tmp_path / "out")
    capsys.readouterr()
    code = main(
        [
            "verify",
            "--mode",
            "smoke",
            "--workspace",
            str(tmp_path / "ws"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "gate PASSED (13 executed, 3 skipped)" in out
    lines = [l for l in out.splitlines() if l.strip().startswith("R")]
    assert len(lines) == 16
    assert sum("PASS" in l for l in lines) == 13
    assert sum("SKIP" in l for l in lines) == 3
    assert (tmp_path / "out" / "gate_report.json").is_file()


def test_cli_verify_fails_input_edited_after_the_commands(tmp_path, capsys):
    """R10 re-hashes the inputs provenance recorded: editing one RT of the
    processed table after run and multiverse fails R10 and nothing else."""
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    run_both(ws, out)
    table = ws / "data" / "processed" / "long.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[4] = str(float(cells[4]) + 1.0)
    lines[5] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)])
    assert code == 4
    report = json.loads((out / "gate_report.json").read_text(encoding="utf-8"))
    failed = {c["id"] for c in report["checks"] if not c["skipped"] and not c["passed"]}
    assert failed == {"R10"}
    r10 = next(c for c in report["checks"] if c["id"] == "R10")
    assert "data/processed/long.csv" in r10["detail"]


def test_cli_verify_smoke_is_read_only(tmp_path, capsys):
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    run_both(ws, out, "--seed", "7")
    names = DIGESTED_OUTPUTS + (PROVENANCE_JSON,)
    before = read_outputs(out, names)
    assert main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)]) == 0
    assert "seed 7, B 50" in capsys.readouterr().out
    assert read_outputs(out, names) == before


def test_cli_verify_tampered_gate_config_exits_4(tmp_path, capsys):
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    run_both(ws, out)
    assert main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)]) == 0
    capsys.readouterr()
    config_path = ws / "gate_config.json"
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["pinned_digests"]["contracts/measures.json"] = "f" * 64
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)])
    assert code == 4
    assert "gate FAILED" in capsys.readouterr().out


def test_cli_verify_final_on_synthetic_exits_4(tmp_path, capsys):
    ws = tmp_path / "ws"
    out = tmp_path / "out"
    run_both(ws, out)
    assert main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", "--mode", "final", "--workspace", str(ws), "--out", str(out)])
    assert code == 4
    text = capsys.readouterr().out
    assert "gate FAILED" in text
    assert "R15" in text


def test_cli_requires_mode():
    with pytest.raises(SystemExit):
        main(["run"])


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["analyze", "--mode", "smoke"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reliakit", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "multiverse" in proc.stdout


def test_command_imports_stay_light():
    """What the console script and the benchmark load never imports scipy's
    heavy subpackages (scipy.stats alone costs about 0.9 s and 45 MB at
    start-up), nor scipy.special's __init__ and the array-API layer it
    builds, which loads numpy.f2py and numpy.testing: reliakit.special takes
    the three ufuncs from scipy.special._ufuncs without it."""
    src = Path(reliakit.__file__).resolve().parents[1]
    unwanted = (
        "scipy.stats",
        "scipy.linalg",
        "scipy.optimize",
        "scipy.sparse",
        "scipy.special._basic",
        "scipy._lib._array_api",
        "numpy.f2py",
        "numpy.testing",
    )
    code = (
        "import sys\n"
        "import reliakit, reliakit.fixtures, reliakit.outputs, reliakit.pipeline\n"
        "import reliakit.provenance, reliakit.cli\n"
        f"print(sorted(name for name in {unwanted!r} if name in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_import_nothing_on_first_call(tmp_path):
    """Every module a command needs is loaded with the package, so its cost
    stays in start-up and never lands in the first command (np.quantile,
    for one, imports numpy.ma on its first call). The smoke workspace is
    made beforehand, in this process, as the benchmark makes it before its
    clocks start."""
    src = Path(reliakit.__file__).resolve().parents[1]
    ws, out = tmp_path / "ws", tmp_path / "out"
    ensure_smoke_workspace(ws)
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import reliakit.cli\n"
        "from reliakit.pipeline import RunConfig, cmd_multiverse, cmd_run, cmd_verify\n"
        f"ws, out = Path({str(ws)!r}), Path({str(out)!r})\n"
        "before = set(sys.modules)\n"
        "for command in (cmd_run, cmd_multiverse):\n"
        "    command(RunConfig(mode='smoke', workspace=ws, out_dir=out, bootstrap_b=20, workers=1))\n"
        "cmd_verify('smoke', ws, out)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
