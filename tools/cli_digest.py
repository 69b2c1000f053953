#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed set of CLI calls, one
line each, so that equal output of two trees is a diff of two runs.

The calls are:

* the benchmark's cli-requests of each seed "s/p" given (default 1/0 1/1
  2/0 3/1): the 256 requests `wcbench/workloads.cli_requests` draws for
  pass p of seed s, each run in process.  Its exit code, stdout, stderr and
  JSON file get one line each;
* `wcolab block` and `wcolab probe` at `--order 4 --tail 12`, below the
  order whose tail the diagnostics judge, for the half-shift z/(2 - z),
  which touches the unit circle, and for (z + 1)/4, which stays inside it;
* `wcolab scenario run --all --json`, and the same with `--order-scale 2`,
  whose exit code, stdout without the timings and JSON without any
  "runtime_s" get one line each.

`--no-scenarios` leaves out the calls that follow the requests, the
short-order ones and both scenario runs.

Exit code, stdout and stderr are digested as bytes.  A JSON file is digested
by content: parsed, every "runtime_s" key dropped at any depth, and written
again with sorted keys and json's default layout, so the indented and the
one-line layout of equal values digest equal.  Every float is written as its
repr, which reads back exactly, so a change of one ulp still shows.

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
import json
from itertools import chain
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "wcbench")]

import workloads  # noqa: E402
from wcolab import cli  # noqa: E402

DEFAULT_SEEDS = ("1/0", "1/1", "2/0", "3/1")
SHORT_ORDER_MAPS = {
    "half-shift": '{"a":[1,0],"b":[0,0],"c":[-1,0],"d":[2,0]}',
    "interior": '{"a":[1,0],"b":[1,0],"c":[0,0],"d":[4,0]}',
}
OUT = "out.json"
TIMING = re.compile(r"  \(\d+\.\d+s\)$", re.M)


def call(argv: list[str]) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and JSON file of one in-process call."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = pathlib.Path(OUT).read_bytes() if os.path.exists(OUT) else None
    return code, out.getvalue(), err.getvalue(), written


def without_runtime(value):
    """A parsed JSON value without any "runtime_s" key, at any depth."""
    if isinstance(value, dict):
        return {k: without_runtime(v) for k, v in value.items() if k != "runtime_s"}
    if isinstance(value, list):
        return [without_runtime(v) for v in value]
    return value


def json_digest(written: bytes | None) -> str:
    """sha256 of a JSON document's content without "runtime_s", or "absent"."""
    if written is None:
        return "absent"
    content = json.dumps(without_runtime(json.loads(written)), sort_keys=True)
    return hashlib.sha256(content.encode()).hexdigest()


def lines(label: str, code: int, stdout: str, stderr: str, written: bytes | None):
    parts = {"code": str(code).encode(), "stdout": stdout.encode(), "stderr": stderr.encode()}
    for part, data in parts.items():
        yield f"{hashlib.sha256(data).hexdigest()}  {label} {part}"
    yield f"{json_digest(written)}  {label} json"


def request_lines(seed: str, limit: int | None):
    s, p = seed.split("/")
    requests = workloads.cli_requests(f"{s}/{p}", OUT, int(p) % 2)
    for i, (cmd, argv) in enumerate(requests[:limit]):
        yield from lines(f"{seed} {i:03d} {cmd}", *call(argv))


def short_order_lines():
    for name, symbol in SHORT_ORDER_MAPS.items():
        for cmd in ("block", "probe"):
            argv = [cmd, "--map", symbol, "--order", "4", "--tail", "12", "--json", OUT]
            yield from lines(f"{cmd} {name} --order 4 --tail 12", *call(argv))


def scenario_lines(flags: list[str]):
    code, stdout, stderr, written = call(["scenario", "run", "--all", *flags, "--json", OUT])
    stdout = TIMING.sub("", stdout)
    yield from lines(" ".join(["scenario --all", *flags]), code, stdout, stderr, written)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", default=DEFAULT_SEEDS, help="seeds s/p")
    parser.add_argument("--limit", type=int, help="first requests of each seed only")
    parser.add_argument(
        "--no-scenarios", action="store_true", help="skip the short-order calls and both scenario runs"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for seed in args.seeds:
            for line in request_lines(seed, args.limit):
                print(line)
        if not args.no_scenarios:
            scaled = ["--order-scale", "2"]
            for line in chain(short_order_lines(), scenario_lines([]), scenario_lines(scaled)):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
