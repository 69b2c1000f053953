"""The one scenario run that the acceptance gate and the scenario tests read."""

import time
from dataclasses import dataclass

import pytest

from wcolab.scenarios import ScenarioReport, run_all


@dataclass(frozen=True)
class SuiteRun:
    reports: dict[str, ScenarioReport]  # by short id, "S1" .. "S11"
    wall_s: float


@pytest.fixture(scope="session")
def suite() -> SuiteRun:
    """One timed `run_all()` at the default orders, shared by the session."""
    start = time.perf_counter()
    reports = run_all()
    wall_s = time.perf_counter() - start
    return SuiteRun({r.scenario_id.split("-")[0]: r for r in reports}, wall_s)
