"""Tests for the scenario registry and its reports."""

import dataclasses
import json

import pytest

from wcolab import scenarios
from wcolab.cli import _write_json
from wcolab.errors import InputError, UnknownScenarioError
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


def written(obj, tmp_path):
    """obj as the CLI writes it (strict JSON: no NaN or Infinity), read back."""
    path = tmp_path / "out.json"
    _write_json(str(path), obj)
    return json.loads(path.read_text())


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


def test_fast_scenarios_pass(suite):
    for sid in ("S3", "S5", "S6"):
        rep = suite.reports[sid]
        assert rep.verdict == "PASS", sid
        assert rep.runtime_s >= 0.0
        assert all(c.passed for c in rep.checks if c.passed is not None)


def test_exploratory_scenario_reports_without_gating(suite):
    rep = suite.reports["S11"]
    assert rep.verdict == "REPORT"
    assert all(c.passed is None for c in rep.checks)
    assert len(rep.checks) > 0


def test_reports_are_deterministic(tmp_path):
    a = strip_runtime(written(run_scenario("S4-nonparabolic-defect"), tmp_path))
    b = strip_runtime(written(run_scenario("S4-nonparabolic-defect"), tmp_path))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pass_survives_doubled_orders():
    rep = run_scenario("S4-nonparabolic-defect", Overrides(order_scale=2.0))
    assert rep.verdict == "PASS"
    assert rep.orders["N"] == 32 and rep.orders["M"] == 640


def test_check_sources_are_tagged(suite):
    for rep in suite.reports.values():
        assert rep.verdict != "FAIL", rep.scenario_id
        for c in rep.checks:
            assert c.source in ("exact", "analytic", "oracle")
            assert c.threshold


def test_report_json_shape(suite, tmp_path):
    assert [rep.scenario_id for rep in suite.reports.values()] == EXPECTED_IDS
    for report in suite.reports.values():
        rep = written(report, tmp_path)
        assert rep["scenario_id"] == report.scenario_id
        assert rep["verdict"] in ("PASS", "REPORT")
        assert isinstance(rep["claim"], str) and rep["claim"]
        assert isinstance(rep["checks"], list)
        for c in rep["checks"]:
            assert set(c) == {"name", "value", "threshold", "passed", "source", "details"}


def test_whole_reports_are_strict_json(suite, tmp_path):
    written(list(suite.reports.values()), tmp_path)


def test_an_infinite_tail_bound_is_reported_as_null(tmp_path):
    # at N = 40 from 160 rows the block tail of S8's f-exp pair is infinite;
    # S7's and S8 f-linear's rational pairs are Stein solves with finite bounds
    bounds = {}
    for sid in ("S7-sadraoui", "S8-thm38"):
        rep = run_scenario(sid, Overrides(N=40, M=160))
        for c in written(rep, tmp_path)["checks"]:
            if "tail_bound" in c["details"]:
                bounds[c["name"]] = c["details"]["tail_bound"]
    assert bounds.pop("selfcommutator-min-eig.f-exp") is None
    assert set(bounds) == {"selfcommutator-min-eig", "selfcommutator-min-eig.f-linear"}
    assert all(0.0 <= b < 1e-12 for b in bounds.values())


def test_kernel_witness_counts_only_points_not_slow_at_the_cap(tmp_path):
    slow = KernelProbePoint(0.9 + 0j, -1.0, KERNEL_PROBE_MAX_ORDER, True)
    fast = KernelProbePoint(0.1 + 0j, -1e-3, 512, False)
    check = _kernel_witness("kernel-witness-min-chi.x", [slow, fast])
    assert check.passed is True and check.value == -1e-3
    assert check.details == {"grid_points": 2, "slow_at_cap": 1}
    # nothing certified: the check fails and the report stays strict JSON
    check = _kernel_witness("kernel-witness-min-chi.x", [slow, slow])
    assert check.passed is False and check.value is None
    assert written(check, tmp_path)["value"] is None


def test_an_unpinned_oracle_key_fails_and_keeps_its_value(tmp_path):
    floor = _above_floor("quasinormal-defect.x", 1.5, "S4.unpinned.x")
    assert (floor.passed, floor.value, floor.threshold) == (False, 1.5, ">= nan")
    assert floor.source == "oracle" and floor.details == {"key": "S4.unpinned.x"}
    ceiling = _below_ceiling("selfcommutator-min-eig.x", -0.5, "S9.unpinned.x", certificate=True)
    assert (ceiling.passed, ceiling.value, ceiling.threshold) == (False, -0.5, "<= nan")
    assert ceiling.details == {"key": "S9.unpinned.x", "certificate": True}
    written(ceiling, tmp_path)
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


def test_scenarios_reference_existing_threshold_keys(suite):
    data = load_thresholds()
    known = set(data["quasinormal_floors"]) | set(data["mineig_ceilings"])
    keys = [
        c.details["key"]
        for rep in suite.reports.values()
        for c in rep.checks
        if c.source == "oracle"
    ]
    assert len(keys) == 26
    assert set(keys) <= known, set(keys) - known


# -- one computation per distinct operator in a run ----------------------------

MEMOIZED = ("kernel_condition_probe", "hyponormality_probe", "quasinormality_defect")


def _count_memoized_calls(monkeypatch) -> dict[str, int]:
    """Counts of the memoized probes' calls from the scenarios module."""
    counts = dict.fromkeys(MEMOIZED, 0)
    for name in MEMOIZED:
        fn = getattr(scenarios, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, counting)
    return counts


def _without_runtime(rep):
    return repr(dataclasses.replace(rep, runtime_s=0.0))


def test_scenarios_run_alone_report_what_run_all_reports(suite):
    for sid in ("S4", "S9", "S10"):
        (full_id,) = [s for s in REGISTRY if s.split("-")[0] == sid]
        assert _without_runtime(run_scenario(full_id)) == _without_runtime(suite.reports[sid])


def test_run_all_computes_each_distinct_operator_once(suite, monkeypatch):
    # S10's psi-one and psi-kernel cases are S9's affine-half operator in each
    # space, and S4's two weights are one operator
    counts = _count_memoized_calls(monkeypatch)
    reports = scenarios.run_all()
    assert counts == {
        "kernel_condition_probe": 9,
        "hyponormality_probe": 12,
        "quasinormality_defect": 8,
    }
    assert [_without_runtime(r) for r in reports] == [
        _without_runtime(r) for r in suite.reports.values()
    ]


def test_each_run_computes_its_own_evidence(monkeypatch):
    counts = _count_memoized_calls(monkeypatch)
    for runs in (1, 2):
        run_scenario("S10-hyperbolic-nonauto")
        # per space: psi-one and psi-kernel share, psi-one-minus-z is its own
        assert counts["kernel_condition_probe"] == 6 * runs
        assert counts["hyponormality_probe"] == 6 * runs
    assert scenarios._MEMO.get() is None


def test_a_scenario_that_raises_leaves_no_run_open():
    with pytest.raises(InputError):
        run_scenario("S4-nonparabolic-defect", Overrides(N=-1))
    assert scenarios._MEMO.get() is None
    with pytest.raises(InputError):
        scenarios.run_all(Overrides(N=-1))
    assert scenarios._MEMO.get() is None
