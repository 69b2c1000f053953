"""Tests for the scenario registry and its reports."""

import json

import pytest

from wcolab.errors import UnknownScenarioError
from wcolab.probes import KERNEL_PROBE_MAX_ORDER, KernelProbePoint
from wcolab.scenarios import (
    ALIASES,
    Overrides,
    REGISTRY,
    _above_floor,
    _below_ceiling,
    _kernel_witness,
    list_scenarios,
    load_thresholds,
    run_scenario,
)

EXPECTED_IDS = [
    "S1-cowen-adjoint",
    "S2-parabolic-eigen",
    "S3-uniform-iteration",
    "S4-nonparabolic-defect",
    "S5-rotation-quasinormal",
    "S6-unitary-weight",
    "S7-sadraoui",
    "S8-thm38",
    "S9-zorboska",
    "S10-hyperbolic-nonauto",
    "S11-parabolic-kernel-weight",
]


def strip_runtime(report_json):
    trimmed = dict(report_json)
    trimmed.pop("runtime_s")
    return trimmed


def test_registry_lists_all_scenarios_in_order():
    assert [sid for sid, _ in list_scenarios()] == EXPECTED_IDS
    assert set(REGISTRY) == set(EXPECTED_IDS)


def test_alias_resolves():
    assert ALIASES["S8-thm38-expweight"] == "S8-thm38"
    rep = run_scenario("S8-thm38-expweight")
    assert rep.scenario_id == "S8-thm38"
    assert rep.verdict == "PASS"


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        run_scenario("S99-nothing")


def test_fast_scenarios_pass():
    for sid in ("S3-uniform-iteration", "S5-rotation-quasinormal", "S6-unitary-weight"):
        rep = run_scenario(sid)
        assert rep.verdict == "PASS", sid
        assert rep.runtime_s >= 0.0
        assert all(c.passed for c in rep.checks if c.passed is not None)


def test_exploratory_scenario_reports_without_gating():
    rep = run_scenario("S11-parabolic-kernel-weight")
    assert rep.verdict == "REPORT"
    assert all(c.passed is None for c in rep.checks)
    assert len(rep.checks) > 0


def test_reports_are_deterministic():
    a = strip_runtime(run_scenario("S4-nonparabolic-defect").to_json())
    b = strip_runtime(run_scenario("S4-nonparabolic-defect").to_json())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pass_survives_doubled_orders():
    rep = run_scenario("S4-nonparabolic-defect", Overrides(order_scale=2.0))
    assert rep.verdict == "PASS"
    assert rep.orders["N"] == 32 and rep.orders["M"] == 640


def test_check_sources_are_tagged():
    rep = run_scenario("S7-sadraoui")
    assert rep.verdict == "PASS"
    for c in rep.checks:
        assert c.source in ("exact", "analytic", "oracle")
        assert c.threshold


def test_report_json_shape():
    rep = run_scenario("S3-uniform-iteration").to_json()
    assert rep["scenario_id"] == "S3-uniform-iteration"
    assert rep["verdict"] == "PASS"
    assert isinstance(rep["claim"], str) and rep["claim"]
    assert isinstance(rep["checks"], list)
    for c in rep["checks"]:
        assert set(c) == {"name", "value", "threshold", "passed", "source", "details"}


def test_kernel_witness_counts_only_points_not_slow_at_the_cap():
    slow = KernelProbePoint(0.9 + 0j, -1.0, KERNEL_PROBE_MAX_ORDER, True)
    fast = KernelProbePoint(0.1 + 0j, -1e-3, 512, False)
    check = _kernel_witness("kernel-witness-min-chi.x", [slow, fast])
    assert check.passed is True and check.value == -1e-3
    assert check.details == {"grid_points": 2, "slow_at_cap": 1}
    # nothing certified: the check fails and the report stays strict JSON
    check = _kernel_witness("kernel-witness-min-chi.x", [slow, slow])
    assert check.passed is False and check.value is None
    json.dumps(check.to_json(), allow_nan=False)


def test_an_unpinned_oracle_key_fails_and_keeps_its_value():
    floor = _above_floor("quasinormal-defect.x", 1.5, "S4.unpinned.x")
    assert (floor.passed, floor.value, floor.threshold) == (False, 1.5, ">= nan")
    assert floor.source == "oracle" and floor.details == {"key": "S4.unpinned.x"}
    ceiling = _below_ceiling("selfcommutator-min-eig.x", -0.5, "S9.unpinned.x", certificate=True)
    assert (ceiling.passed, ceiling.value, ceiling.threshold) == (False, -0.5, "<= nan")
    assert ceiling.details == {"key": "S9.unpinned.x", "certificate": True}
    json.dumps(ceiling.to_json(), allow_nan=False)
    # a pinned key reads its committed floor
    pinned = load_thresholds()["quasinormal_floors"]["S4.hardy.psi-one"]["floor"]
    assert _above_floor("q", 1e9, "S4.hardy.psi-one").threshold == f">= {pinned:.12g}"


def test_thresholds_file_is_coherent():
    data = load_thresholds()
    assert data["meta"]["orders"]["N"] >= 4
    for key, rec in data["quasinormal_floors"].items():
        assert rec["floor"] > 0.0, key
        assert rec["floor"] <= rec["observed"], key
    for key, rec in data["mineig_ceilings"].items():
        assert rec["ceiling"] < 0.0, key
        assert rec["ceiling"] >= rec["observed"], key
    stab = data["stability"]["S8.hardy.f-exp"]
    vals = list(stab["observed"].values())
    assert stab["delta"] <= min(vals)
    assert max(vals) / min(vals) <= 1.10


def test_scenarios_reference_existing_threshold_keys():
    data = load_thresholds()
    known = set(data["quasinormal_floors"]) | set(data["mineig_ceilings"])
    for sid in ("S4-nonparabolic-defect", "S5-rotation-quasinormal"):
        rep = run_scenario(sid)
        for c in rep.checks:
            key = c.details.get("key")
            if key is not None:
                assert key in known, key
