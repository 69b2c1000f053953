"""The calls the benchmark in `wcbench/` makes into the program.

`wcbench/workloads.py` reads the program through a few entry points: the
scenario reports it compares with `wcbench/reference.json`, the `.entries`
of the blocks that `build_block`, `word_block` and `adjoint_block` return,
and the CLI's exit codes and JSON.  These tests run a little of each
workload, so a change to one of those entry points fails here, at tier 1,
and not first in a benchmark run.  Check values may drift at rounding level
(see ROADMAP F); only verdicts, `passed` flags and value shapes are held.
"""

import json
import pathlib
import sys

WCBENCH = pathlib.Path(__file__).resolve().parents[1] / "wcbench"
sys.path.insert(0, str(WCBENCH))

import workloads  # noqa: E402


def test_suite_reports_match_the_benchmark_reference(suite):
    reference = json.loads((WCBENCH / "reference.json").read_text())
    check = workloads.Suite(reference).check
    reports = suite.reports.values()
    assert {rep.scenario_id for rep in reports} == set(reference)
    assert all(check(rep) for rep in reports)


def test_order_study_steps_check_out():
    ops = workloads.OrderStudy(1, ms=(320,)).run_pass()
    assert len(ops) == 3
    assert all(op.ok for op in ops), ops


def test_order_study_quasinormal_step_holds_its_reference_at_every_order():
    # the solved defect reads no block, so one value serves every M
    from wcolab.probes import quasinormality_defect

    study = workloads.OrderStudy(1, ms=())
    for M in (48, 1280):
        v = quasinormality_defect(study.affine, study.hardy, workloads.QUASINORMAL_N, M)
        assert abs(v - workloads.QUASINORMAL_REF) <= 1e-12 * workloads.QUASINORMAL_REF
    assert all(study._quasinormal(M) for M in (320, 640, 1280))


def test_first_cli_requests_check_out(tmp_path):
    wl = workloads.CliRequests(1, str(tmp_path))
    wl.requests = wl.requests[:32]
    ops = wl.run_pass()
    assert len(ops) == 32
    assert all(op.ok for op in ops), [op for op in ops if not op.ok]


def _bindings(modules) -> dict:
    """Every name bound in the modules and in the classes they define."""
    out = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.update({(value, a): v for a, v in vars(value).items()})
    return out


def test_tracer_reads_the_suite_and_the_kernel_probe_and_restores_them():
    import numpy.linalg
    from tracer import LAYERS, Tracer

    from wcolab import probes, scenarios
    from wcolab.opmat import weighted
    from wcolab.space import hardy

    modules = [sys.modules[f"wcolab.{m}"] for m in LAYERS] + [numpy.linalg]
    before = _bindings(modules)
    op = weighted(scenarios.s6_weight(hardy()), scenarios.HYPERBOLIC_AUTO)
    grid = probes.default_kernel_grid()
    tr = Tracer()
    tr.install()
    try:
        assert scenarios.run_scenario("S6-unitary-weight").verdict == "PASS"
        points = probes.kernel_condition_probe(op, hardy(), grid)
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["series.taylor.coeffs"] > 0
    assert m["probes.kernel_condition_probe.calls"] == 1
    assert m["probes.kernel_condition_probe.points"] == len(grid) == len(points)
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
