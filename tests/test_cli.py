"""Tests for the command-line interface and its exit-code contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

from wcolab import cli
from wcolab.mobius import MoebiusMap
from wcolab.opmat import OperatorSpec, build_block, composition
from wcolab.scenarios import CheckResult, ScenarioReport
from wcolab.series import tail_diagnostics
from wcolab.space import hardy

HALF_SHIFT_JSON = '{"a":[1,0],"b":[0,0],"c":[-1,0],"d":[2,0]}'
AFFINE_JSON = '{"a":[1,0],"b":[1,0],"c":[0,0],"d":[2,0]}'
ROTATION_JSON = '{"a":[0,1],"b":[0,0],"c":[0,0],"d":[1,0]}'
PSI_JSON = (
    '{"type":"rational","num":{"type":"poly","coeffs":[[2,0]]},'
    '"den":{"type":"poly","coeffs":[[2,0],[-1,0]]}}'
)

# exp((1+z)/(1-z)), unbounded on the disk
EXP_CAYLEY_JSON = (
    '{"type":"exp","arg":{"type":"rational",'
    '"num":{"type":"poly","coeffs":[[1,0],[1,0]]},'
    '"den":{"type":"poly","coeffs":[[1,0],[-1,0]]}}}'
)

# a power whose exponent is no number
POWER_X_JSON = '{"type":"power","base":{"type":"poly","coeffs":[[1,0]]},"exponent":"x"}'


def run_cli(args):
    return cli.main(args)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_classify_self_map(capsys):
    code = run_cli(["classify", "--map", HALF_SHIFT_JSON])
    out = capsys.readouterr().out
    assert code == 0
    assert "interior-dw-with-boundary-fixed-point" in out
    assert "denjoy-wolff" in out


def test_classify_rejects_non_self_map(capsys):
    code = run_cli(["classify", "--map", '{"a":[2,0],"b":[0,0],"c":[0,0],"d":[1,0]}'])
    err = capsys.readouterr().err
    assert code == 2
    assert "self-map" in err


def test_classify_rejects_bad_json(capsys):
    code = run_cli(["classify", "--map", "{broken"])
    assert code == 2


def test_classify_json_roundtrips(tmp_path, capsys):
    out = tmp_path / "cls.json"
    code = run_cli(["classify", "--map", HALF_SHIFT_JSON, "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = _strict_json(out.read_text())
    again = MoebiusMap.from_json(payload["map"])
    assert abs(again.apply(0.5) - 1.0 / 3.0) < 1e-12
    assert payload["classification"]["class"] == "interior-dw-with-boundary-fixed-point"


def test_block_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "block.csv"
    json_path = tmp_path / "block.json"
    code = run_cli(
        [
            "block",
            "--map",
            HALF_SHIFT_JSON,
            "--order",
            "6",
            "--tail",
            "48",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("i,re_0,im_0")
    assert len(lines) == 50  # header + rows 0..48
    payload = _strict_json(json_path.read_text())
    op = OperatorSpec.from_json(payload["op"])
    assert op.describe() == "composition"
    entries = np.array(
        [[complex(re, im) for re, im in row] for row in payload["entries"]]
    )
    assert entries.shape == (49, 7)
    assert abs(entries[1, 1] - 0.5) < 1e-12  # first coefficient of z/(2-z)


def test_block_json_is_strict_json_without_a_tail_estimate(capsys):
    # 13 rows are too few for a tail estimate (NaN), and the half-shift's
    # columns at 33 rows decay too slowly for one (infinite): both are null
    for order, tail in ((4, 12), (16, 32)):
        argv = ["--order", str(order), "--tail", str(tail), "--json", "-"]
        code = run_cli(["block", "--map", HALF_SHIFT_JSON] + argv)
        out = capsys.readouterr().out
        assert code == 0
        payload = _strict_json(out[out.index("{") :])
        assert payload["tail_estimate"] is None
        assert set(payload) == {
            "op",
            "space",
            "row_order",
            "col_order",
            "entries",
            "tail_flag",
            "tail_estimate",
        }
        assert (payload["row_order"], payload["col_order"]) == (tail, order)


def test_block_reports_the_largest_column_tail_bound(capsys):
    code = run_cli(["block", "--map", HALF_SHIFT_JSON, "--order", "4", "--tail", "40", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _strict_json(out[out.index("{") :])
    blk = build_block(composition(MoebiusMap.from_json(json.loads(HALF_SHIFT_JSON))), hardy(), 4, 40)
    assert payload["tail_estimate"] == tail_diagnostics(blk.entries).bound.max()
    assert f"tail estimate: {cli.fmt(payload['tail_estimate'])}" in out


def test_probe_json_is_strict_json_without_a_tail_bound(capsys):
    # below 17 rows the Gram pair's tail bound is infinite: written as null
    code = run_cli(["probe", "--map", AFFINE_JSON, "--order", "4", "--tail", "12", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _strict_json(out[out.index("{") :])
    assert payload["tail_bound"] is None
    assert "tail-bound-unavailable" in payload["flags"]


def test_block_requires_exactly_one_operator(capsys):
    code = run_cli(["block", "--map", HALF_SHIFT_JSON, "--weight", PSI_JSON])
    assert code == 2
    code = run_cli(["block"])
    assert code == 2


def test_probe_outputs_defects_and_json(tmp_path, capsys):
    json_path = tmp_path / "probe.json"
    code = run_cli(
        [
            "probe",
            "--op",
            '{"weight":' + PSI_JSON + ',"symbol":' + HALF_SHIFT_JSON + "}",
            "--order",
            "8",
            "--tail",
            "64",
            "--json",
            str(json_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "quasinormal defect" in out
    payload = _strict_json(json_path.read_text())
    assert set(payload) == {
        "op",
        "space",
        "N",
        "M",
        "min_eig_selfcomm",
        "norm_selfcomm",
        "quasinormal_defect",
        "selfadjoint_defect",
        "unitary_defect",
        "tail_bound",
        "flags",
        "hyponormality_certificate",
    }
    assert payload["N"] == 8 and payload["M"] == 64
    assert payload["quasinormal_defect"] > 0.0
    # emitted operator JSON re-parses
    OperatorSpec.from_json(payload["op"])


def test_probe_constraint_violation_exit_code(capsys):
    # exp((1+z)/(1-z)) weight is unbounded on the disk: constraint, not parse
    bad = '{"weight":' + EXP_CAYLEY_JSON + ',"symbol":' + HALF_SHIFT_JSON + "}"
    code = run_cli(["probe", "--op", bad, "--order", "8", "--tail", "64"])
    err = capsys.readouterr().err
    assert code == 3
    assert "constraint" in err


def test_probe_bad_orders_exit_code(capsys):
    code = run_cli(["probe", "--map", HALF_SHIFT_JSON, "--order", "2"])
    assert code == 2
    code = run_cli(["probe", "--map", HALF_SHIFT_JSON, "--order", "8", "--tail", "9"])
    assert code == 2


def test_spectrum_parabolic_spiral(tmp_path, capsys):
    csv_path = tmp_path / "spiral.csv"
    code = run_cli(
        ["spectrum", "--t", "1", "--samples", "16", "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "eigen residual table" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "beta,re,im"
    assert len(rows) == 17
    first = [float(x) for x in rows[1].split(",")]
    assert abs(first[1] - 1.0) < 1e-12  # beta = 0 sample is 1


def test_spectrum_rotation_detection(tmp_path, capsys):
    json_path = tmp_path / "rot.json"
    code = run_cli(
        ["spectrum", "--map", ROTATION_JSON, "--order", "6", "--tail", "48", "--json", str(json_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "rotation symbol detected" in out
    assert "finite-cyclic" in out
    rot = _strict_json(json_path.read_text())["rotation_spectrum"]
    assert (rot["kind"], rot["lam"], len(rot["points"])) == ("finite-cyclic", [0.0, 1.0], 4)
    # detection is projective: a rescaled map reads as the map itself
    for coeffs, rotates in (((0.5, 0.25, 0.3, 1), False), ((0.5, 0, 0, 1), True)):
        lines = []
        for scale in (1.0, 1e-15):
            a, b, c, d = (scale * x for x in coeffs)
            m = json.dumps({"a": [a, 0], "b": [b, 0], "c": [c, 0], "d": [d, 0]})
            assert run_cli(["spectrum", "--map", m, "--order", "6", "--tail", "48"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert ("rotation symbol detected" in lines[0]) == rotates


def test_spectrum_json_payload(tmp_path, capsys):
    json_path = tmp_path / "spec.json"
    code = run_cli(
        [
            "spectrum",
            "--map",
            AFFINE_JSON,
            "--order",
            "8",
            "--tail",
            "64",
            "--json",
            str(json_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = _strict_json(json_path.read_text())
    assert len(payload["eigenvalues"]) == 9
    assert len(payload["gelfand_sequence"]) == 12


def test_scenario_list(capsys):
    code = run_cli(["scenario", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "S1-cowen-adjoint" in out
    assert "S11-parabolic-kernel-weight" in out


def test_scenario_run_single(tmp_path, capsys):
    json_path = tmp_path / "s3.json"
    code = run_cli(
        ["scenario", "run", "--id", "S3-uniform-iteration", "--json", str(json_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "S3-uniform-iteration: PASS" in out
    payload = _strict_json(json_path.read_text())
    assert payload["reports"][0]["verdict"] == "PASS"


def test_scenario_run_requires_target(capsys):
    code = run_cli(["scenario", "run"])
    assert code == 2


def test_scenario_failure_exit_code(monkeypatch, capsys):
    fake = ScenarioReport(
        scenario_id="S0-fake",
        claim="synthetic failing report",
        verdict="FAIL",
        checks=(
            CheckResult("broken", 1.0, "<= 0.5", False, "analytic", {}),
        ),
        spaces=("hardy",),
        orders={},
        runtime_s=0.0,
    )
    monkeypatch.setattr(cli, "run_scenario", lambda sid, ov: fake)
    code = run_cli(["scenario", "run", "--id", "S0-fake"])
    out = capsys.readouterr().out
    assert code == 4
    assert "[FAIL] broken" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    csv_path = tmp_path / "ignored.csv"  # probe has no --csv, so the key is ignored
    cfg.write_text(
        json.dumps(
            {"order": 6, "tail": 48, "space": "bergman:1", "tol": 1e-3, "csv": str(csv_path)}
        )
    )
    code = run_cli(["probe", "--map", HALF_SHIFT_JSON, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=6 M=48" in out
    assert "bergman:1" in out
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--tol", "1e-3", "--map", HALF_SHIFT_JSON],
        ["block", "--tol", "1e-3", "--map", HALF_SHIFT_JSON],
        ["probe", "--csv", "-", "--map", HALF_SHIFT_JSON],
        ["classify", "--space", "hardy", "--map", HALF_SHIFT_JSON],
        ["classify", "--order", "8", "--map", HALF_SHIFT_JSON],
        ["scenario", "list", "--space", "hardy"],
    ],
)
def test_options_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 6, "tail": 64}))
    code = run_cli(
        ["probe", "--map", HALF_SHIFT_JSON, "--order", "8", "--config", str(cfg)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "N=8 M=64" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["block", "--map", HALF_SHIFT_JSON, "--order", "abc"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "8", "--tail", "1e3"], 2),
        (["classify", "--map", HALF_SHIFT_JSON, "--tol", "x"], 2),
        (["classify", "--map", HALF_SHIFT_JSON, "--tol", "nan"], 2),
        (["classify", "--map", HALF_SHIFT_JSON, "--tol", "inf"], 2),
        (["spectrum", "--t", "1", "--samples", "3.5"], 2),
        (["scenario", "run", "--id", "S7-sadraoui", "--order", "1.5"], 2),
        (["scenario", "run", "--all", "--order-scale", "nan"], 2),
        (["scenario", "run", "--all", "--order-scale", "inf"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--config", {"order": "abc"}], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "8", "--tail", "16", "--space", "bergman:nan"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "8", "--tail", "16", "--space", "bergman:inf"], 2),
        (["classify", "--map", '{"a":[1,0],"b":[NaN,0],"c":[-1,0],"d":[2,0]}'], 2),
        # the exit codes of inputs that were already rejected stay as they were
        (["block", "--map", HALF_SHIFT_JSON, "--order", "2"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "8", "--tail", "9"], 2),
        (["block", "--op", "{broken"], 2),
        (["block", "--weight", EXP_CAYLEY_JSON, "--order", "4", "--tail", "8"], 3),
        (["scenario", "run", "--id", "S7-sadraoui", "--order-scale", "0"], 3),
        # an order that overflows, an exponent that is no number and Bergman
        # monomial norms that underflow are input errors too
        (["scenario", "run", "--all", "--order-scale", "1e308"], 2),
        (["block", "--weight", POWER_X_JSON, "--order", "4"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "16", "--tail", "128", "--space", "bergman:1e5"], 2),
    ],
)
def test_malformed_option_values_are_input_errors(argv, code, tmp_path, capsys):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert "internal error" not in err


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "wcolab.cli", "classify", "--map", AFFINE_JSON],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hyperbolic-type-non-automorphism" in proc.stdout
