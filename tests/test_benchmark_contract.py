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


def test_first_cli_requests_check_out(tmp_path):
    wl = workloads.CliRequests(1, str(tmp_path))
    wl.requests = wl.requests[:32]
    ops = wl.run_pass()
    assert len(ops) == 32
    assert all(op.ok for op in ops), [op for op in ops if not op.ok]
