"""The threshold pinning tool reproduces the committed thresholds file."""

import json
import math
import pathlib
import runpy

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pin_thresholds.py"


def _assert_close(got, want, path=""):
    """Same keys at every level, floats within 1e-9 relative, the rest equal."""
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9), (path, got, want)
    else:
        assert got == want, path


def test_pin_reproduces_the_committed_thresholds_without_writing_them(suite):
    tool = runpy.run_path(str(TOOL))
    committed = tool["OUT"].read_bytes()
    pinned = tool["pin"](list(suite.reports.values()))
    assert tool["OUT"].read_bytes() == committed
    _assert_close(pinned, json.loads(committed))
