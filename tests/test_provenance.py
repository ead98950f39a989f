import json
import shutil

import numpy as np
import pytest

from reliakit import RunConfig, cmd_multiverse, cmd_run, pipeline
from reliakit.cli import main
from reliakit.outputs import (
    COMMAND_OUTPUTS,
    DIGESTED_OUTPUTS,
    GATE_REPORT_JSON,
    INGEST_EVIDENCE_JSON,
    MULTIVERSE_CSV,
    MULTIVERSE_SUMMARY_JSON,
    PER_MEASURE_CSV,
    PROVENANCE_JSON,
    SCHEMAS,
    SUMMARY_JSON,
    MapOf,
    canonical_json,
    fmt_float,
    read_csv,
    read_json,
    render_cell,
    validate_multiverse_csv,
    validate_per_measure_csv,
    validate_provenance_json,
    validate_summary_json,
    write_csv,
    write_json,
)
from reliakit.errors import SchemaError
from reliakit.provenance import (
    _load_gate_config,
    build_provenance,
    run_gate,
)

ALL_CHECK_IDS = [f"R{i}" for i in range(1, 17)]
FINAL_ONLY = {"R13", "R15", "R16"}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One small-B smoke run shared by the read-only gate tests."""
    root = tmp_path_factory.mktemp("gatefix")
    ws = root / "ws"
    out = root / "out"
    config = RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=60)
    cmd_run(config)
    cmd_multiverse(config)
    return ws, out


def copy_run(smoke_run, tmp_path):
    ws, out = smoke_run
    ws2 = tmp_path / "ws"
    out2 = tmp_path / "out"
    shutil.copytree(ws, ws2)
    shutil.copytree(out, out2)
    return ws2, out2


def checks_by_id(report):
    return {c.id: c for c in report.checks}


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a.splitlines()[1]


def test_canonical_json_preserves_unicode():
    text = canonical_json({"name": "Grün"})
    assert "Grün" in text


# the bytes of the smoke fixture's contract and gate config: the gate
# config pins the digests of the contract and of the table's manifest
SMOKE_FIXTURE_SHA256 = {
    "contracts/measures.json": "e9b4fc25cdb1c93f6d30e30e1b9c2172b277e8fdd7996f9aa0c3c95b003bb290",
    "gate_config.json": "e6ae1a2df79548e73e7d5b1367d1d3236f7fdeef25fc738f70d55bd38b71af7a",
}


def test_smoke_fixture_contract_and_gate_config_are_pinned(tmp_path):
    from reliakit.fixtures import make_smoke_workspace
    from reliakit.hashutil import sha256_file

    root = make_smoke_workspace(tmp_path)
    assert {name: sha256_file(root / name) for name in SMOKE_FIXTURE_SHA256} == SMOKE_FIXTURE_SHA256


def test_fmt_float_round_trips():
    rng = np.random.default_rng(2)
    values = list(rng.normal(size=500)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    for v in values:
        assert float(fmt_float(float(v))) == float(v)


def test_render_cell_conventions():
    assert render_cell(None) == ""
    assert render_cell(True) == "true"
    assert render_cell(False) == "false"
    assert render_cell(12) == "12"
    assert render_cell("ok") == "ok"
    assert render_cell(0.1) == "0.10000000000000001"


def test_build_provenance_empty_dir(tmp_path):
    record = build_provenance("run", "smoke", 1, 10, {}, tmp_path)
    assert record.outputs == {}
    assert record.run_mode == "smoke"
    assert set(record.toolchain_versions) == {"python", "numpy", "scipy", "reliakit"}


def test_build_provenance_ignores_unknown_files(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    (out / "scratch.txt").write_text("not an output\n", encoding="utf-8")
    inputs = validate_provenance_json(out / PROVENANCE_JSON)["input_digests"]
    record = build_provenance("multiverse", "smoke", 42, 60, inputs, out)
    assert set(record.outputs) == set(DIGESTED_OUTPUTS)
    assert PROVENANCE_JSON not in record.outputs
    assert GATE_REPORT_JSON not in record.outputs


def test_emitted_provenance_validates(smoke_run):
    _, out = smoke_run
    doc = validate_provenance_json(out / PROVENANCE_JSON)
    assert set(doc["outputs"]) == set(DIGESTED_OUTPUTS)
    for entry in doc["outputs"].values():
        assert entry["bootstrap_b"] == 60
        assert entry["base_seed"] == 42
    assert set(doc["input_digests"]) == {
        "contracts/measures.json",
        "expected_hashes.json",
        "data/processed/long.csv",
    }


def test_provenance_credits_each_output_to_the_command_that_wrote_it(tmp_path):
    """run --seed 1 --bootstrap 50, then multiverse --seed 2 --bootstrap 60:
    the run's outputs stay credited to seed 1, B 50."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    where = ["--mode", "smoke", "--workspace", str(ws), "--out", str(out)]
    assert main(["run", "--seed", "1", "--bootstrap", "50", *where]) == 0
    assert main(["multiverse", "--seed", "2", "--bootstrap", "60", *where]) == 0
    outputs = validate_provenance_json(out / PROVENANCE_JSON)["outputs"]
    configs = {
        name: (e["command"], e["base_seed"], e["bootstrap_b"]) for name, e in outputs.items()
    }
    assert configs == {
        PER_MEASURE_CSV: ("run", 1, 50),
        SUMMARY_JSON: ("run", 1, 50),
        MULTIVERSE_CSV: ("multiverse", 2, 60),
        MULTIVERSE_SUMMARY_JSON: ("multiverse", 2, 60),
        INGEST_EVIDENCE_JSON: ("multiverse", 2, 60),
    }
    report = run_gate("smoke", ws, out)
    r12 = checks_by_id(report)["R12"]
    assert r12.passed
    assert "run: seed 1, B 50" in r12.detail and "multiverse: seed 2, B 60" in r12.detail
    assert main(["verify", *where]) == 0


def test_gate_fails_output_changed_before_the_next_command(tmp_path):
    """An earlier command's entry is not carried forward once its output's
    bytes changed, so R12 fails that output."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=50))
    with open(out / PER_MEASURE_CSV, "a", encoding="utf-8") as fh:
        fh.write("\n")
    cmd_multiverse(RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=50))
    outputs = validate_provenance_json(out / PROVENANCE_JSON)["outputs"]
    assert PER_MEASURE_CSV not in outputs and SUMMARY_JSON in outputs
    by_id = checks_by_id(run_gate("smoke", ws, out))
    assert by_id["R10"].passed  # every recorded digest still matches
    assert not by_id["R12"].passed
    assert PER_MEASURE_CSV in by_id["R12"].detail


def test_gate_fails_outputs_of_other_inputs(tmp_path):
    """Outputs made from inputs that changed before the next command keep no
    entry: provenance records one set of input digests."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    cmd_run(RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=50))
    manifest = ws / "expected_hashes.json"
    manifest.write_text(manifest.read_text(encoding="utf-8") + " ", encoding="utf-8")
    cmd_multiverse(RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=50))
    outputs = validate_provenance_json(out / PROVENANCE_JSON)["outputs"]
    assert set(outputs) == set(COMMAND_OUTPUTS["multiverse"])
    r12 = checks_by_id(run_gate("smoke", ws, out))["R12"]
    assert not r12.passed
    assert PER_MEASURE_CSV in r12.detail and SUMMARY_JSON in r12.detail


def test_gate_fails_output_without_provenance_entry(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    path = out / PROVENANCE_JSON
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["outputs"][SUMMARY_JSON]
    path.write_text(canonical_json(doc), encoding="utf-8")
    by_id = checks_by_id(run_gate("smoke", ws, out))
    assert by_id["R10"].passed
    assert not by_id["R12"].passed
    assert "outputs with no provenance entry: ['summary.json']" in by_id["R12"].detail


def test_write_failure_keeps_the_old_file_whole(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a",), [["1"]])

    class Unprintable:
        def __str__(self):
            raise RuntimeError("crash mid-write")

    rows = [["2"]] * 10_000 + [[Unprintable()]]  # fails after many rows
    with pytest.raises(RuntimeError):
        write_csv(path, ("a",), rows)
    assert path.read_text(encoding="utf-8") == "a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_crash_after_first_output_fails_the_gate(tmp_path, monkeypatch):
    """multiverse dies after writing its results CSV: the run's files stay
    byte-identical, nothing is truncated, and verify refuses the mix."""
    ws, out = tmp_path / "ws", tmp_path / "out"
    config = RunConfig(mode="smoke", workspace=ws, out_dir=out, bootstrap_b=50)
    cmd_run(config)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def crash(*args, **kwargs):
        raise RuntimeError("killed")

    monkeypatch.setattr(pipeline, "write_json", crash)
    with pytest.raises(RuntimeError):
        cmd_multiverse(config)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(after) == set(before) | {MULTIVERSE_CSV}
    assert all(after[name] == data for name, data in before.items())
    assert validate_multiverse_csv(out / MULTIVERSE_CSV) == 24 * 6
    report = run_gate("smoke", ws, out)
    assert not report.overall
    assert not checks_by_id(report)["R12"].passed
    assert main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)]) != 0


def test_gate_smoke_all_green(smoke_run):
    ws, out = smoke_run
    report = run_gate("smoke", ws, out)
    assert report.overall
    assert report.executed == 13
    assert report.skipped == 3
    by_id = checks_by_id(report)
    assert [c.id for c in report.checks] == ALL_CHECK_IDS
    for check_id in ALL_CHECK_IDS:
        check = by_id[check_id]
        if check_id in FINAL_ONLY:
            assert check.skipped and not check.passed
        else:
            assert check.passed and not check.skipped, check


def test_gate_is_idempotent_and_read_only(smoke_run):
    ws, out = smoke_run
    before = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    first = run_gate("smoke", ws, out)
    second = run_gate("smoke", ws, out)
    assert first == second
    after = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert before == after


def test_gate_report_round_trip(smoke_run, tmp_path):
    ws, out = smoke_run
    report = run_gate("smoke", ws, out)
    path = tmp_path / GATE_REPORT_JSON
    write_json(path, report.to_dict())
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["overall"] is True
    assert doc["mode"] == "smoke"
    assert doc["executed"] == 13
    assert doc["skipped"] == 3
    assert len(doc["checks"]) == 16


def test_gate_rejects_unknown_mode(smoke_run):
    ws, out = smoke_run
    with pytest.raises(ValueError):
        run_gate("production", ws, out)


def test_gate_on_empty_dirs_fails_without_raising(tmp_path):
    report = run_gate("smoke", tmp_path / "ws", tmp_path / "out")
    assert not report.overall
    by_id = checks_by_id(report)
    assert not by_id["R1"].passed
    assert not by_id["R2"].passed


def test_tamper_declared_count_trips_count_check(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    contract_path = ws / "contracts" / "measures.json"
    doc = json.loads(contract_path.read_text(encoding="utf-8"))
    doc["declared_counts"]["primary"] += 1
    contract_path.write_text(canonical_json(doc), encoding="utf-8")
    report = run_gate("smoke", ws, out)
    by_id = checks_by_id(report)
    assert not report.overall
    assert by_id["R4"].passed  # still parses
    assert not by_id["R5"].passed
    assert not by_id["R6"].passed  # pinned digest also moved


def test_tamper_contract_byte_trips_pin_only(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    contract_path = ws / "contracts" / "measures.json"
    doc = json.loads(contract_path.read_text(encoding="utf-8"))
    doc["entries"][0]["description"] = "reworded, same structure"
    contract_path.write_text(canonical_json(doc), encoding="utf-8")
    report = run_gate("smoke", ws, out)
    by_id = checks_by_id(report)
    assert not report.overall
    assert by_id["R4"].passed
    assert by_id["R5"].passed  # counts untouched
    assert not by_id["R6"].passed
    assert "digest" in by_id["R6"].detail
    assert not by_id["R10"].passed  # the recorded input digest moved too
    assert "contracts/measures.json" in by_id["R10"].detail


def test_tamper_missing_output(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    (out / MULTIVERSE_SUMMARY_JSON).unlink()
    report = run_gate("smoke", ws, out)
    by_id = checks_by_id(report)
    assert not report.overall
    assert not by_id["R2"].passed
    assert MULTIVERSE_SUMMARY_JSON in by_id["R2"].detail


def test_tamper_schema_break_in_results_csv(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    path = out / PER_MEASURE_CSV
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace(",ok,", ",confused,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = run_gate("smoke", ws, out)
    by_id = checks_by_id(report)
    assert not report.overall
    assert not by_id["R7"].passed
    assert not by_id["R10"].passed  # bytes moved under the recorded digest


def test_tamper_value_edit_keeps_schema_but_trips_digest(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    path = out / PER_MEASURE_CSV
    text = path.read_text(encoding="utf-8")
    rows = text.splitlines()
    header = rows[0].split(",")
    cells = rows[1].split(",")
    rho_idx = header.index("rho")
    cells[rho_idx] = fmt_float(float(cells[rho_idx]) + 0.001)
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = run_gate("smoke", ws, out)
    by_id = checks_by_id(report)
    assert by_id["R7"].passed  # still schema-valid
    assert not by_id["R10"].passed
    assert not report.overall


def test_final_mode_refuses_synthetic_workspace(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    report = run_gate("final", ws, out)
    assert report.executed == 16
    assert report.skipped == 0
    by_id = checks_by_id(report)
    assert not report.overall
    # the smoke fixture pins no raw archives and carries the marker
    assert not by_id["R13"].passed
    assert not by_id["R15"].passed
    assert "SYNTHETIC" in by_id["R15"].detail
    # R12 compares the provenance echo against the gate mode
    assert not by_id["R12"].passed
    # the evidence partition and processed digest themselves are fine
    assert by_id["R14"].passed
    assert by_id["R16"].passed


@pytest.mark.parametrize(
    "tamper",
    [
        lambda entry: entry.pop("filter_counts"),
        lambda entry: entry.pop("row_count"),
        lambda entry: entry["filter_counts"].pop("kept"),
        lambda entry: entry["filter_counts"].update(below_min="0"),
        lambda entry: entry["filter_counts"].update(above_max=None),
        lambda entry: entry.update(row_count=True),
        lambda entry: entry.update(filter_counts=[0, 0, 0]),
    ],
)
def test_final_mode_fails_r14_on_misshapen_evidence(smoke_run, tmp_path, tamper):
    """A measure entry that lacks a count, or holds one that is not an
    integer, fails R14 with a detail rather than crashing the gate."""
    ws, out = copy_run(smoke_run, tmp_path)
    path = out / INGEST_EVIDENCE_JSON
    doc = json.loads(path.read_text(encoding="utf-8"))
    measure_id = sorted(doc["measures"])[0]
    tamper(doc["measures"][measure_id])
    path.write_text(canonical_json(doc), encoding="utf-8")
    r14 = checks_by_id(run_gate("final", ws, out))["R14"]
    assert not r14.passed
    assert r14.detail == (
        f"{INGEST_EVIDENCE_JSON}: {measure_id}: needs an integer row_count and "
        "integer filter_counts below_min, above_max and kept"
    )


def _first_level(doc, axis):
    return sorted(doc[axis])[0]


def _verify_after_tamper(smoke_run, tmp_path, capsys, name, tamper):
    """Apply tamper to the path of output `name` in a copy of the smoke run,
    re-record that file's digest in provenance.json, and run verify. Returns
    the ids of the failed checks and the checks of the gate report, after
    asserting that verify exits 4 without a traceback."""
    from reliakit.hashutil import sha256_file

    ws, out = copy_run(smoke_run, tmp_path)
    path = out / name
    tamper(path)
    provenance = json.loads((out / PROVENANCE_JSON).read_text(encoding="utf-8"))
    provenance["outputs"][name]["sha256"] = sha256_file(path)
    (out / PROVENANCE_JSON).write_text(canonical_json(provenance), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify", "--mode", "smoke", "--workspace", str(ws), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert "Traceback" not in captured.err and "unexpected error" not in captured.err
    report = json.loads((out / GATE_REPORT_JSON).read_text(encoding="utf-8"))
    failed = {c["id"] for c in report["checks"] if not c["skipped"] and not c["passed"]}
    return failed, {c["id"]: c for c in report["checks"]}


def _edit_json(edit):
    def tamper(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(canonical_json(doc), encoding="utf-8")

    return tamper


def _edit_first_ok_row(column, value):
    """Set one cell of the first ok row of a results CSV."""

    def tamper(path):
        header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        row = next(r for r in rows if r[header.index("status")] == "ok")
        row[header.index(column)] = value
        path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]), encoding="utf-8")

    return tamper


def test_smoke_verify_fails_r14_on_empty_ingest_evidence(smoke_run, tmp_path, capsys):
    """Smoke mode reads ingest_evidence.json too: an empty list, with its
    digest re-recorded, fails R14 alone."""
    tamper = lambda path: path.write_text("[]", encoding="utf-8")  # noqa: E731
    failed, checks = _verify_after_tamper(smoke_run, tmp_path, capsys, INGEST_EVIDENCE_JSON, tamper)
    assert failed == {"R14"}
    assert INGEST_EVIDENCE_JSON in checks["R14"]["detail"]


@pytest.mark.parametrize(
    "name, tamper",
    [
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["grand"].update(estimable="x")),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["grand"].update(pass_count=False)),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["by_k"].update({_first_level(doc, "by_k"): 7})),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["by_corr"][_first_level(doc, "by_corr")].update(estimable=1.0)),
        (SUMMARY_JSON, lambda doc: doc["counts"].update(ok="6")),
        (SUMMARY_JSON, lambda doc: doc.update(pass_count=True)),
        (SUMMARY_JSON, lambda doc: doc.update(n_primary=None)),
    ],
)
def test_verify_fails_r9_on_a_count_that_is_not_an_integer(smoke_run, tmp_path, capsys, name, tamper):
    """A summary count that is not a JSON integer fails R9 alone, even with
    its file's digest re-recorded, and verify exits 4 without a traceback."""
    failed, checks = _verify_after_tamper(smoke_run, tmp_path, capsys, name, _edit_json(tamper))
    assert failed == {"R9"}
    assert name in checks["R9"]["detail"]


@pytest.mark.parametrize(
    "name, tamper",
    [
        (SUMMARY_JSON, lambda doc: doc.update(nlr_delta_median=True)),
        (SUMMARY_JSON, lambda doc: doc.update(nlr_delta_iqr="x")),
        (SUMMARY_JSON, lambda doc: doc.update(icc_2_1_iqr={"a": 1})),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["grand"].update(median_nlr_delta="x")),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["grand"].update(iqr_nlr_delta=False)),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["by_k"][_first_level(doc, "by_k")].update(median_nlr_delta=[1])),
        (MULTIVERSE_SUMMARY_JSON, lambda doc: doc["by_k"].update(banana=doc["by_k"][_first_level(doc, "by_k")])),
    ],
)
def test_verify_fails_r9_on_a_field_of_the_wrong_type(smoke_run, tmp_path, capsys, name, tamper):
    """A summary number that is a bool or not a number, an IQR that is not
    a pair, and an axis level outside the grid each fail R9 alone."""
    failed, checks = _verify_after_tamper(smoke_run, tmp_path, capsys, name, _edit_json(tamper))
    assert failed == {"R9"}
    assert name in checks["R9"]["detail"]


@pytest.mark.parametrize(
    "name, column, value, check",
    [
        (PER_MEASURE_CSV, "nlr_delta", "nan", "R7"),
        (PER_MEASURE_CSV, "rho", "inf", "R7"),
        (PER_MEASURE_CSV, "n", "\u0663", "R7"),  # ARABIC-INDIC DIGIT THREE
        (PER_MEASURE_CSV, "rho", "0.5e0", "R7"),  # not the %.17g rendering
        (MULTIVERSE_CSV, "ci_high", "-inf", "R8"),
    ],
)
def test_verify_fails_a_results_cell_that_is_not_finite_or_canonical(
    smoke_run, tmp_path, capsys, name, column, value, check
):
    """An ok row's number must be finite and in its writer's rendering, and
    a count must be ASCII digits; each such edit fails its file's check
    alone, with a detail that names the file."""
    failed, checks = _verify_after_tamper(
        smoke_run, tmp_path, capsys, name, _edit_first_ok_row(column, value)
    )
    assert failed == {check}
    assert name in checks[check]["detail"] and column in checks[check]["detail"]


@pytest.mark.parametrize(
    "field, value",
    [("base_seed", True), ("bootstrap_b", True), ("bootstrap_b", 0), ("base_seed", 1.5)],
)
def test_provenance_seed_and_b_must_be_integers(smoke_run, tmp_path, field, value):
    """A bool is not a seed or a B, and B is at least 1: the record fails
    its schema, so every check that reads it (R10-R12) fails."""
    ws, out = copy_run(smoke_run, tmp_path)
    path = out / PROVENANCE_JSON
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["outputs"][SUMMARY_JSON][field] = value
    path.write_text(canonical_json(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{PROVENANCE_JSON}:outputs:{SUMMARY_JSON}:{field}"):
        validate_provenance_json(path)
    report = run_gate("smoke", ws, out)
    failed = {c.id for c in report.checks if not c.skipped and not c.passed}
    assert failed == {"R10", "R11", "R12"}
    assert PROVENANCE_JSON in checks_by_id(report)["R12"].detail


def test_final_mode_r14_names_evidence_that_is_not_utf8(smoke_run, tmp_path):
    ws, out = copy_run(smoke_run, tmp_path)
    (out / INGEST_EVIDENCE_JSON).write_bytes(b'{"measures": "\xff"}')
    r14 = checks_by_id(run_gate("final", ws, out))["R14"]
    assert not r14.passed
    assert r14.detail.startswith(f"{INGEST_EVIDENCE_JSON}: invalid JSON")


def _described(value, schema) -> bool:
    """Every key the writer wrote into value has a kind in schema."""
    if isinstance(schema, MapOf):
        return all(_described(v, schema.kind) for v in value.values())
    if isinstance(schema, dict):
        return set(value) == set(schema) and all(_described(value[k], s) for k, s in schema.items())
    return True


def test_every_output_reads_back_through_its_schema(smoke_run, tmp_path):
    """Each digested output and provenance.json has a schema, and a smoke
    run's files read back through it to the values the writers rendered:
    CSV cells re-render to the file's bytes (the %.17g round trip), and
    every JSON key is described."""
    _, out = smoke_run
    assert set(SCHEMAS) == {*DIGESTED_OUTPUTS, PROVENANCE_JSON}
    for name, schema in SCHEMAS.items():
        path = out / name
        if name.endswith(".csv"):
            rows = read_csv(path, schema)
            assert rows and all(row["status"] in ("ok", "insufficient_n", "degenerate") for row in rows)
            copy = tmp_path / name
            write_csv(copy, schema, [[render_cell(row[c]) for c in schema] for row in rows])
            assert copy.read_bytes() == path.read_bytes(), name
        else:
            doc = read_json(path, schema)
            assert canonical_json(doc) == path.read_text(encoding="utf-8"), name
            assert _described(doc, schema), name


def test_output_csv_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / PER_MEASURE_CSV
    path.write_bytes(b"measure_id\n\xff\n")
    with pytest.raises(SchemaError, match=f"{PER_MEASURE_CSV}: unreadable CSV"):
        validate_per_measure_csv(path)


@pytest.mark.parametrize("doc", [[], {"measures": {"m": "not an object"}}])
def test_final_mode_fails_r14_on_evidence_that_is_not_an_object(smoke_run, tmp_path, doc):
    ws, out = copy_run(smoke_run, tmp_path)
    (out / INGEST_EVIDENCE_JSON).write_text(json.dumps(doc), encoding="utf-8")
    r14 = checks_by_id(run_gate("final", ws, out))["R14"]
    assert not r14.passed and INGEST_EVIDENCE_JSON in r14.detail


def test_final_mode_passes_on_sanitized_workspace(smoke_run, tmp_path):
    """A workspace with verified raw archives, no marker, and a final-mode
    provenance echo clears all 16 checks."""
    from reliakit.hashutil import sha256_file

    ws, out = copy_run(smoke_run, tmp_path)
    # promote the fixture to a plausible final workspace
    (ws / "data" / "processed" / "SYNTHETIC_DATA").unlink()
    raw = ws / "data" / "raw" / "archive.csv"
    raw.parent.mkdir(parents=True)
    shutil.copyfile(ws / "data" / "processed" / "long.csv", raw)
    manifest_path = ws / "expected_hashes.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["raw/archive.csv"] = sha256_file(raw)
    manifest_path.write_text(canonical_json(manifest), encoding="utf-8")
    gate_config_path = ws / "gate_config.json"
    gate_config = json.loads(gate_config_path.read_text(encoding="utf-8"))
    gate_config["pinned_digests"]["expected_hashes.json"] = sha256_file(manifest_path)
    gate_config_path.write_text(canonical_json(gate_config), encoding="utf-8")
    # rerun in final mode so the provenance echo says final
    config = RunConfig(
        mode="final", workspace=ws, out_dir=out, bootstrap_b=60
    )
    cmd_run(config)
    cmd_multiverse(config)
    report = run_gate("final", ws, out)
    failed = [c.id for c in report.checks if not c.skipped and not c.passed]
    assert report.overall, failed
    assert report.executed == 16
    doc = validate_provenance_json(out / PROVENANCE_JSON)
    assert set(doc["input_digests"]) == {
        "contracts/measures.json",
        "expected_hashes.json",
        "data/processed/long.csv",
        "data/raw/archive.csv",
    }
    evidence = json.loads((out / INGEST_EVIDENCE_JSON).read_text(encoding="utf-8"))
    assert [a["path"] for a in evidence["archives"]] == ["data/raw/archive.csv"]
    assert evidence["archives"][0]["observed_sha256"] == manifest["raw/archive.csv"]

    # a raw archive edited after the commands fails its pin (R13) and the
    # input digest provenance recorded for it (R10)
    raw.write_bytes(raw.read_bytes() + b"\n")
    failed = {c.id for c in run_gate("final", ws, out).checks if not c.passed}
    assert failed == {"R10", "R13"}


def test_gate_manifest_checks_share_the_loader(smoke_run, tmp_path):
    """R13 and R16 read the manifest through the loader the commands use, so
    a manifest that is not an object fails both as a digest error."""
    ws, out = copy_run(smoke_run, tmp_path)
    (ws / "expected_hashes.json").write_text("[]", encoding="utf-8")
    by_id = checks_by_id(run_gate("final", ws, out))
    for check_id in ("R13", "R16"):
        assert not by_id[check_id].passed
        assert "must map relative paths" in by_id[check_id].detail


def test_gate_config_not_utf8_is_a_schema_error(tmp_path):
    (tmp_path / "gate_config.json").write_bytes(b'{"x": "\xff"}')
    with pytest.raises(SchemaError, match="gate_config.json: invalid JSON"):
        _load_gate_config(tmp_path)


def test_output_json_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / SUMMARY_JSON
    path.write_bytes(b'{"x": "\xff"}')
    with pytest.raises(SchemaError, match="summary.json: invalid JSON"):
        validate_summary_json(path)
