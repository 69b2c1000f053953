#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed set of CLI calls, one
line each, so that byte identity between two trees is a diff of two runs.

The calls are:

* the benchmark's cli-requests of each seed "s/p" given (default 1/0 1/1
  2/0 3/1): the 256 requests `wcbench/workloads.cli_requests` draws for
  pass p of seed s, each run in process.  Its exit code, stdout, stderr and
  JSON file get one line each;
* `wcolab scenario run --all --json`, and the same with `--order-scale 2`,
  whose exit code, stdout without the timings and JSON without any
  "runtime_s" line get one line each.

BLAS runs on one thread, as in the benchmark, and every call runs in one
scratch directory, so no path in an output differs between runs.

Run from the repository root:

    python3 tools/cli_digest.py > digest.txt
    python3 tools/cli_digest.py --limit 8 --no-scenarios 1/0
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "wcbench")]

import workloads  # noqa: E402
from wcolab import cli  # noqa: E402

DEFAULT_SEEDS = ("1/0", "1/1", "2/0", "3/1")
OUT = "out.json"
TIMING = re.compile(r"  \(\d+\.\d+s\)$", re.M)
RUNTIME = re.compile(r'\n *"runtime_s": [^\n]*')


def call(argv: list[str]) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and JSON file of one in-process call."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = pathlib.Path(OUT).read_bytes() if os.path.exists(OUT) else None
    return code, out.getvalue(), err.getvalue(), written


def lines(label: str, code: int, stdout: str, stderr: str, written: bytes | None):
    parts = {"code": str(code).encode(), "stdout": stdout.encode(), "stderr": stderr.encode()}
    for part, data in parts.items():
        yield f"{hashlib.sha256(data).hexdigest()}  {label} {part}"
    digest = "absent" if written is None else hashlib.sha256(written).hexdigest()
    yield f"{digest}  {label} json"


def request_lines(seed: str, limit: int | None):
    s, p = seed.split("/")
    requests = workloads.cli_requests(f"{s}/{p}", OUT, int(p) % 2)
    for i, (cmd, argv) in enumerate(requests[:limit]):
        yield from lines(f"{seed} {i:03d} {cmd}", *call(argv))


def scenario_lines(flags: list[str]):
    code, stdout, stderr, written = call(["scenario", "run", "--all", *flags, "--json", OUT])
    stdout = TIMING.sub("", stdout)
    written = None if written is None else RUNTIME.sub("", written.decode()).encode()
    yield from lines(" ".join(["scenario --all", *flags]), code, stdout, stderr, written)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", default=DEFAULT_SEEDS, help="seeds s/p")
    parser.add_argument("--limit", type=int, help="first requests of each seed only")
    parser.add_argument("--no-scenarios", action="store_true", help="skip both scenario runs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for seed in args.seeds:
            for line in request_lines(seed, args.limit):
                print(line)
        for flags in () if args.no_scenarios else ([], ["--order-scale", "2"]):
            for line in scenario_lines(flags):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
