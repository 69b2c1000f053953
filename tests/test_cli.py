"""Tests for the command-line interface and its exit-code contract."""

import json
import math
import pathlib
import runpy
import subprocess
import sys
import time

import numpy as np
import pytest

from wcolab import cli, spectra
from wcolab.mobius import MoebiusMap
from wcolab.opmat import OperatorSpec, build_block, composition
from wcolab.scenarios import CheckResult, ScenarioReport
from wcolab.series import tail_diagnostics
from wcolab.space import hardy

HALF_SHIFT_JSON = '{"a":[1,0],"b":[0,0],"c":[-1,0],"d":[2,0]}'
AFFINE_JSON = '{"a":[1,0],"b":[1,0],"c":[0,0],"d":[2,0]}'
INTERIOR_JSON = '{"a":[1,0],"b":[1,0],"c":[0,0],"d":[4,0]}'  # (z + 1)/4
ROTATION_JSON = '{"a":[0,1],"b":[0,0],"c":[0,0],"d":[1,0]}'
PSI_JSON = (
    '{"type":"rational","num":{"type":"poly","coeffs":[[2,0]]},'
    '"den":{"type":"poly","coeffs":[[2,0],[-1,0]]}}'
)

# 1/(1-2z), with a pole at 1/2
POLE_HALF_JSON = (
    '{"type":"rational","num":{"type":"poly","coeffs":[[1,0]]},'
    '"den":{"type":"poly","coeffs":[[1,0],[-2,0]]}}'
)

# (1 - 1.9999996z)/(1 - 2z), with a pole at 1/2 near a zero at 0.5000001
NEAR_POLE_HALF_JSON = (
    '{"type":"rational","num":{"type":"poly","coeffs":[[1,0],[-1.9999996,0]]},'
    '"den":{"type":"poly","coeffs":[[1,0],[-2,0]]}}'
)

# exp((1+z)/(1-z)), unbounded on the disk
EXP_CAYLEY_JSON = (
    '{"type":"exp","arg":{"type":"rational",'
    '"num":{"type":"poly","coeffs":[[1,0],[1,0]]},'
    '"den":{"type":"poly","coeffs":[[1,0],[-1,0]]}}}'
)

# exp(z), bounded on the disk
EXP_Z_JSON = '{"type":"exp","arg":{"type":"poly","coeffs":[[0,0],[1,0]]}}'

# a power whose exponent is no number
POWER_X_JSON = '{"type":"power","base":{"type":"poly","coeffs":[[1,0]]},"exponent":"x"}'

NAN_POLY_JSON = '{"type":"poly","coeffs":[[NaN,0]]}'
NAN_SCALE_JSON = '{"type":"scale","factor":[NaN,0],"inner":{"type":"poly","coeffs":[[1,0]]}}'

#: An integer of 401 digits, beyond the range of a float.
HUGE_INT = 10**400


def _power_json(exponent):
    return '{"type":"power","base":{"type":"poly","coeffs":[[1,0],[0.5,0]]},"exponent":%s}' % exponent


def _half_shift_op(weight):
    return '{"weight":%s,"symbol":%s}' % (weight, HALF_SHIFT_JSON)


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


def test_block_csv_and_header(tmp_path, capsys):
    csv_path, json_path = tmp_path / "block.csv", tmp_path / "block.json"
    argv = ["--order", "4", "--tail", "40", "--csv", str(csv_path), "--json", str(json_path)]
    assert run_cli(["block", "--map", HALF_SHIFT_JSON] + argv) == 0
    capsys.readouterr()
    blk = build_block(composition(MoebiusMap.from_json(json.loads(HALF_SHIFT_JSON))), hardy(), 4, 40)
    lines = csv_path.read_text().strip().splitlines()
    heads = lines[0].split(",")
    assert heads[0] == "i"
    assert heads[1] == "re_0" and heads[2] == "im_0"
    assert len(lines) == 42  # header + 41 rows
    parsed = np.array(
        [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    )
    rebuilt = parsed[:, 0::2] + 1j * parsed[:, 1::2]
    assert np.max(np.abs(rebuilt - blk.entries)) < 1e-15
    hdr = _strict_json(json_path.read_text())
    # a block is its entries: the CLI writes the space and the orders beside
    # them, and the operator and the tail judgment (see below)
    assert set(hdr) - {"op", "tail_flag", "tail_estimate"} == {"space", "row_order", "col_order", "entries"}
    assert hdr["row_order"] == 40
    assert hdr["col_order"] == 4
    assert hdr["space"] == hardy().to_json()
    assert hdr["entries"][1][1] == [0.5, 0.0]


def test_operator_norm_estimates(capsys):
    # the largest singular value of the leading square, on the console
    weight = '{"type":"poly","coeffs":[[2.5,0]]}'
    for argv, norm in (
        (["--map", ROTATION_JSON], 1.0),
        (["--weight", weight, "--space", "bergman:0"], 2.5),
    ):
        assert run_cli(["block"] + argv + ["--order", "8", "--tail", "64"]) == 0
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines() if x.startswith("norm estimate: ")]
        assert abs(float(line.split(": ")[1]) - norm) < 1e-12


def test_block_json_is_strict_json_without_a_tail_estimate(capsys):
    # 13 rows are too few to judge a tail, and the half-shift's columns at
    # 33 rows decay too slowly: both estimates are infinite, written as null
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


def test_block_below_the_tail_order_is_untrusted(capsys):
    # 13 rows are too few to judge a tail: the estimate is infinite and the
    # flag is raised, for an interior map as for one touching the circle
    for name, symbol in (("half-shift", HALF_SHIFT_JSON), ("interior", INTERIOR_JSON)):
        argv = ["block", "--map", symbol, "--order", "4", "--tail", "12", "--json", "-"]
        assert run_cli(argv) == 0, name
        out = capsys.readouterr().out
        assert "tail estimate: inf" in out and "warning: " in out
        payload = _strict_json(out[out.index("{") :])
        assert (payload["tail_flag"], payload["tail_estimate"]) == (True, None)


def test_high_integer_power_weights_finish_without_warnings(capsys):
    # (0.5 + 0.25z)^1e300 is 0 to rounding and its block is built in
    # log2(1e300) truncated products; (0.5 + 0.25z)^-3000 overflows on the
    # sample circle (warnings are errors here, which would exit 1)
    base = '{"type":"poly","coeffs":[[0.5,0],[0.25,0]]}'
    weight = '{"type":"power","base":%s,"exponent":%s}'
    start = time.perf_counter()
    assert run_cli(["block", "--weight", weight % (base, "1e300"), "--order", "8", "--json", "-"]) == 0
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    assert not np.any(_strict_json(out[out.index("{") :])["entries"])
    assert run_cli(["block", "--weight", weight % (base, "-3000"), "--order", "8"]) == 3
    assert capsys.readouterr().err.startswith("constraint violation: ")


def test_probe_json_is_strict_json_without_a_tail_bound(capsys):
    # an Exp weight's Gram pair reads blocks, and below 17 rows their tail
    # bound is infinite: written as null
    exp_op = '{"weight":' + EXP_Z_JSON + ',"symbol":' + AFFINE_JSON + "}"
    code = run_cli(["probe", "--op", exp_op, "--order", "4", "--tail", "12", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _strict_json(out[out.index("{") :])
    assert payload["tail_bound"] is None
    assert "tail-bound-unavailable" in payload["flags"]
    # the composition's pair is two Stein solves, with a finite bound at any M
    code = run_cli(["probe", "--map", AFFINE_JSON, "--order", "4", "--tail", "12", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _strict_json(out[out.index("{") :])
    assert 0.0 <= payload["tail_bound"] < 1e-12
    assert "tail-bound-unavailable" not in payload["flags"]


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


def test_probe_rejects_a_pole_inside_the_disk(tmp_path, capsys):
    # 1/(1 - 2z) stays finite on the sample circle |z| = 0.999; its pole at
    # 1/2 is found exactly, before any block is built or JSON written
    out = tmp_path / "probe.json"
    code = run_cli(["probe", "--weight", POLE_HALF_JSON, "--order", "6", "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "closed disk" in captured.err and captured.out == ""
    assert not out.exists()


def test_probe_accepts_a_pole_that_cancels_across_terms(tmp_path, capsys):
    # 1/(1 - 2z) - 1/(1 - 2z) + 1 is 1, so the probed operator is the identity
    minus = f'{{"type":"scale","factor":[-1,0],"inner":{POLE_HALF_JSON}}}'
    one = '{"type":"poly","coeffs":[[1,0]]}'
    weight = f'{{"type":"sum","terms":[{POLE_HALF_JSON},{minus},{one}]}}'
    out = tmp_path / "probe.json"
    code = run_cli(["probe", "--weight", weight, "--order", "6", "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["unitary_defect"] <= 1e-14


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


def test_spectrum_eigenvalue_csv(tmp_path, capsys):
    csv_path = tmp_path / "eigs.csv"
    argv = ["--map", AFFINE_JSON, "--order", "8", "--tail", "64", "--csv", str(csv_path)]
    assert run_cli(["spectrum"] + argv) == 0
    capsys.readouterr()
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "re,im"
    op = composition(MoebiusMap.from_json(json.loads(AFFINE_JSON)))
    eigs = spectra.truncation_eigenvalues(build_block(op, hardy(), 8, 8))
    assert len(rows) == 1 + len(eigs) == 10
    # one row per eigenvalue, in truncation_eigenvalues order, exactly
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.array_equal(parsed[:, 0], eigs.real)
    assert np.array_equal(parsed[:, 1], eigs.imag)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--t", "1", "--space", "bergman:1", "--tail", "50"],
        ["spectrum", "--t", "1", "--map", ROTATION_JSON],
        ["spectrum", "--map", ROTATION_JSON, "--zeta", "1j"],
        ["spectrum", "--map", ROTATION_JSON, "--order", "6", "--samples", "16"],
        ["scenario", "list", "--json", "-"],
        ["scenario", "list", "--all"],
        ["scenario", "run", "--all", "--id", "S3-uniform-iteration"],
    ],
)
def test_flags_a_mode_does_not_read_are_input_errors(argv, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "does not read" in captured.err
    assert captured.out == ""


def test_config_keys_a_mode_does_not_read_stay_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "bergman:1", "tail": 50, "zeta": 1}))
    assert run_cli(["spectrum", "--t", "1", "--samples", "4", "--config", str(cfg)]) == 0
    assert "eigen residual table" in capsys.readouterr().out


def test_spectrum_parabolic_mode_runs_two_recurrences(monkeypatch, capsys):
    # one for every f and one for every f o phi over the beta grid
    series = spectra.rational_series
    calls = []

    def counting_series(*args):
        calls.append(args[0])
        return series(*args)

    monkeypatch.setattr(spectra, "rational_series", counting_series)
    assert run_cli(["spectrum", "--t", "1+0.5j", "--zeta", "1j", "--samples", "8"]) == 0
    assert calls == ["exp", "exp"]
    assert len(capsys.readouterr().out.splitlines()) == 3 + len(spectra.DEFAULT_BETA_GRID)


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
        # an order whose square block numpy cannot shape breaks the order policy
        (["scenario", "run", "--all", "--order-scale", "1e20"], 3),
        (["scenario", "run", "--id", "S7-sadraoui", "--order", "10000000000000000000"], 3),
        # and so does one of the other subcommands; a sample count numpy
        # cannot shape is an input error
        (["block", "--map", HALF_SHIFT_JSON, "--order", "10000000000000000000"], 3),
        (["probe", "--map", HALF_SHIFT_JSON, "--order", "10000000000000000000"], 3),
        (["spectrum", "--map", HALF_SHIFT_JSON, "--order", "10000000000000000000"], 3),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "16", "--tail", "10000000000000000000"], 3),
        (["spectrum", "--t", "1", "--order", "10000000000000000000"], 3),
        (["spectrum", "--t", "1", "--samples", "10000000000000000000"], 2),
        # a number in weight JSON that is not finite is invalid input; a
        # finite exponent that overflows the weight stays a violation
        (["block", "--op", _half_shift_op(NAN_POLY_JSON), "--order", "8", "--tail", "64"], 2),
        (["block", "--op", _half_shift_op(NAN_SCALE_JSON), "--order", "8", "--tail", "64"], 2),
        (["block", "--op", _half_shift_op(_power_json("NaN")), "--order", "8", "--tail", "64"], 2),
        (["block", "--op", _half_shift_op(_power_json("1e300")), "--order", "8", "--tail", "64"], 3),
        # every JSON number goes through one decoder: an integer beyond float
        # range, a pair of another length or with a string or bool, and an
        # exponent that is a string are invalid input
        (["classify", "--map", '{"a":[1,0],"b":[%d,0],"c":[0,0],"d":[2,0]}' % HUGE_INT], 2),
        (["spectrum", "--config", {"t": HUGE_INT}], 2),
        (["spectrum", "--config", {"t": [HUGE_INT, 0]}], 2),
        (["spectrum", "--config", {"t": ["a", 1]}], 2),
        (["spectrum", "--config", {"t": True}], 2),
        (["classify", "--map", '{"a":[1,0],"b":[true,0],"c":[0,0],"d":[2,0]}'], 2),
        (["classify", "--map", '{"a":[1,0,5],"b":[0,0],"c":[-1,0],"d":[2,0]}'], 2),
        (["block", "--op", _half_shift_op('{"type":"poly","coeffs":[[1,0,5]]}'), "--order", "8"], 2),
        (["block", "--op", _half_shift_op(_power_json('"2"')), "--order", "8", "--tail", "64"], 2),
        # a config integer with a fractional part is no integer
        (["block", "--map", HALF_SHIFT_JSON, "--config", {"order": 8.5}], 2),
        (["spectrum", "--t", "1", "--config", {"samples": 16.7}], 2),
        # an expression's list of coefficients, terms or factors must be a list
        (["block", "--weight", '{"type":"poly","coeffs":5}', "--order", "8"], 2),
        (["block", "--weight", '{"type":"poly","coeffs":true}', "--order", "8"], 2),
        (["block", "--weight", '{"type":"sum","terms":5}', "--order", "8"], 2),
        (["block", "--weight", '{"type":"product","factors":null}', "--order", "8"], 2),
        # a file that cannot be written, in a missing directory or a
        # directory itself, is invalid input
        (["classify", "--map", HALF_SHIFT_JSON, "--json", "/nonexistent/x.json"], 2),
        (["block", "--map", HALF_SHIFT_JSON, "--order", "8", "--csv", "/nonexistent/x.csv"], 2),
        (["probe", "--map", HALF_SHIFT_JSON, "--order", "8", "--json", "."], 2),
        # (1 - 1.9999996z)/(1 - 2z) keeps its pole at 1/2: its numerator root
        # 0.5000001 is near the pole but is no shared root
        (["block", "--weight", NEAR_POLE_HALF_JSON, "--order", "8"], 3),
        # a tolerance of zero, a single sample, a config that is no JSON
        # object, a number that does not parse and a missing map file
        (["classify", "--map", HALF_SHIFT_JSON, "--tol", "0"], 2),
        (["spectrum", "--t", "1", "--samples", "1"], 2),
        (["spectrum", "--t", "1", "--config", [1, 2]], 2),
        (["spectrum", "--t", "abc"], 2),
        (["classify", "--map", "@/nonexistent/map.json"], 2),
    ],
)
def test_malformed_option_values_are_input_errors(argv, code, tmp_path, capsys):
    if isinstance(argv[-1], (dict, list)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "constraint violation: ")


DIGEST_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def test_cli_digest_tool_agrees_with_itself():
    # two runs of the digest tool on the first requests of one seed print the
    # same digest lines, four per request
    argv = [sys.executable, str(DIGEST_TOOL), "--limit", "6", "--no-scenarios", "1/0"]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    parts = [line.split()[-1] for line in outs[0].splitlines()]
    assert parts == ["code", "stdout", "stderr", "json"] * 6


def test_cli_digest_tool_digests_json_by_content(monkeypatch):
    # loading the tool sets its BLAS thread variables and import path; both
    # are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = runpy.run_path(str(DIGEST_TOOL))["json_digest"]
    value = {"b": [0.1, {"runtime_s": 1.5, "x": -2.5e-300}], "a": "\u00e9"}
    base = digest(json.dumps(value).encode())
    # the indented layout and other key orders digest equal
    assert digest(json.dumps(value, indent=2, sort_keys=True).encode()) == base
    assert digest((json.dumps(value, indent=1) + "\n").encode()) == base
    # so does another runtime_s, at any depth, or none at all
    value["b"][1]["runtime_s"] = 0.25
    assert digest(json.dumps({**value, "runtime_s": 3.0}).encode()) == base
    del value["b"][1]["runtime_s"]
    assert digest(json.dumps(value).encode()) == base
    # a change of one ulp does not
    value["b"][0] = math.nextafter(0.1, 1.0)
    assert digest(json.dumps(value).encode()) != base
    assert digest(None) == "absent"


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "wcolab.cli", "classify", "--map", AFFINE_JSON],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hyperbolic-type-non-automorphism" in proc.stdout


# -- the JSON writer ------------------------------------------------------------


def test_block_json_reads_back_the_entries_bit_for_bit(tmp_path, capsys):
    # each float is written as its repr, so the [re, im] pairs read back as
    # the very complex128 array the block engine built
    out = tmp_path / "block.json"
    argv = ["block", "--op", _half_shift_op(PSI_JSON), "--order", "8", "--tail", "64"]
    assert run_cli(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    entries = np.array(_strict_json(text)["entries"]).view(np.complex128)[..., 0]
    op = OperatorSpec.from_json(json.loads(_half_shift_op(PSI_JSON)))
    assert np.array_equal(entries, build_block(op, hardy(), 8, 64).entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([1.0, -math.inf]), 1j * math.nan])
def test_json_writer_rejects_numbers_that_are_not_finite(bad, tmp_path):
    out = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        cli._write_json(str(out), {"ok": 1.0, "bad": bad})
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--map", "--config"])
def test_a_file_that_is_not_utf8_is_an_input_error(flag, tmp_path, capsys):
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b'{"a": "\xff"}')
    value = "@" + str(path) if flag == "--map" else str(path)
    argv = ["classify", flag, value] + (["--map", HALF_SHIFT_JSON] if flag == "--config" else [])
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad JSON in")
