"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q wcbench

The traced suite test runs the whole scenario suite twice (about 40 s).
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result, _ = run.measure(name, 1, 0.0, trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in want)


def test_latency_percentiles_are_over_every_timed_operation():
    passes = [
        {"ops": [["S1", 0.3, True], ["S2", 2.0, True]], "peak_rss_mb": 1.0},
        {"ops": [["S1", 0.5, True], ["S2", 1.0, True]], "peak_rss_mb": 2.0},
    ]
    m = run.end_to_end(0.1, passes)
    assert m["op_p50_ms"] == pytest.approx(750.0)
    assert m["pass_s"] == pytest.approx(1.9)
    assert m["ops_per_s"] == pytest.approx(4 / 3.8)
    assert m["peak_rss_mb"] == 2.0


def test_suite_runs_at_least_two_passes():
    result, _ = run.measure("suite", 1, 0.0, False, smoke=True)
    assert result["attempted"] == 2 * len(run.SMOKE_SCENARIOS)


def test_tampered_passed_flag_fails_the_scenario():
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        ref = json.load(fh)
    bad = copy.deepcopy(ref)
    check = next(iter(bad["S3-uniform-iteration"]["checks"].values()))
    check["passed"] = not check["passed"]
    ids = ("S3-uniform-iteration", "S6-unitary-weight")
    assert [op.ok for op in workloads.Suite(ref, ids).run_pass()] == [True, True]
    assert [op.ok for op in workloads.Suite(bad, ids).run_pass()] == [False, True]


def test_tampered_reference_value_fails_the_quasinormal_step():
    w = workloads.OrderStudy(1, ms=(320,))
    assert all(op.ok for op in w.run_pass())
    w.quasinormal_ref *= 1.0 + 1e-8
    failed = [op.kind for op in w.run_pass() if not op.ok]
    assert failed == ["quasinormal.M320"]


def test_suite_drift_is_reported_not_failed():
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        ref = json.load(fh)
    check = next(iter(ref["S6-unitary-weight"]["checks"].values()))
    check["value"] = check["value"] + 1e-3
    w = workloads.Suite(ref, ("S6-unitary-weight",))
    assert all(op.ok for op in w.run_pass())
    assert w.max_rel_drift > 0.0


def test_traced_suite_reproduces_the_kernel_probe_counts():
    result, _ = run.measure("suite", 1, 0.0, True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["failed"] == 0
    kcp = "probes.kernel_condition_probe"
    assert m[f"{kcp}.calls"] == 15
    assert m[f"{kcp}.points"] == 1920
    assert m[f"{kcp}.doublings"] == 0
    assert m[f"{kcp}.slow_at_cap"] == 0
    assert m[f"{kcp}.series_coeffs"] == 984960
    assert 0.0 < m[f"{kcp}.share"] < 1.0
    assert m["scenarios.max_rel_drift"] < 1e-9


def test_tracer_patches_every_binding_and_restores_them():
    from tracer import Tracer

    from wcolab import cli, opmat, probes, scenarios

    original = probes.quasinormality_defect
    tr = Tracer()
    tr.install()
    try:
        assert scenarios.quasinormality_defect is probes.quasinormality_defect
        assert probes.quasinormality_defect is not original
        assert cli.build_block is opmat.build_block
        scenarios.run_scenario("S6-unitary-weight")
    finally:
        tr.uninstall()
    assert probes.quasinormality_defect is original
    assert tr.spans["opmat.gram_blocks"][0] == 3
    assert tr.spans["probes.unitary_defect"][0] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "wcbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
