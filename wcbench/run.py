"""wcolab benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 wcbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads: `suite` (scenarios.run_all), `order-study` (the O(M^3) block
layers at M = 320, 640, 1280) and `cli-requests` (a closed loop of seeded
`wcolab.cli.main` calls at small orders).  The program under test is
imported from `src/` next to this directory.  Each pass runs in a fresh
interpreter, after a warm-up there, so nothing one pass computes can be
reused by the next.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name the same numbers for people and record the environment.  See
wcbench/README.md for what each metric should track.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("suite", "order-study", "cli-requests")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 9

#: Least number of passes in a run.  A suite pass is a single run of each
#: scenario, and S9 and S10 alone take most of it, so with one pass the
#: latency percentiles would rest on one sample of each scenario.
MIN_PASSES = {"suite": 2, "order-study": 1, "cli-requests": 1}

#: A pass that takes longer than this is a hang, not a measurement.
PASS_TIMEOUT_S = 150

#: One client, one BLAS thread: the second core absorbs background work, and
#: the dense calls here (M <= 1281) gain little from a second thread.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

#: End-to-end metrics under the names the workloads give them.
WORKLOAD_NAMES = {
    "suite": {"pass_s": "suite_s"},
    "order-study": {"pass_s": "order_study_s"},
    "cli-requests": {"ops_per_s": "cli.req_per_s", "op_p50_ms": "cli.p50_ms", "op_p90_ms": "cli.p90_ms"},
}

#: Reduced sizes for the benchmark's own tests (--smoke).
SMOKE_SCENARIOS = ("S3-uniform-iteration", "S6-unitary-weight")
SMOKE_MS = (320,)
SMOKE_REQUESTS = 12


def import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "wcolab", "__init__.py")):
        raise SystemExit(f"error: no wcolab package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)


# -- set-up ----------------------------------------------------------------------


def setup_child(trace: bool) -> int:
    """Body of one fresh interpreter timed by `measure_setup`."""
    import workloads  # imports wcolab

    if trace:
        from tracer import Tracer

        Tracer().install()
    workloads.warm_up_layers()
    print("ready", flush=True)
    return 0


def measure_setup(trace: bool, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from starting a fresh interpreter until wcolab is
    imported, the thresholds are loaded and every layer has run once."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", str(int(trace))]
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


# -- one pass, in a fresh interpreter ------------------------------------------------


def make_workload(name: str, seed: int, pass_index: int, scratch: str, smoke: bool):
    import workloads

    if name == "suite":
        with open(os.path.join(HERE, "reference.json")) as fh:
            return workloads.Suite(json.load(fh), SMOKE_SCENARIOS if smoke else None)
    if name == "order-study":
        return workloads.OrderStudy(seed, SMOKE_MS if smoke else workloads.ORDER_STUDY_MS)
    if name == "cli-requests":
        w = workloads.CliRequests(seed, scratch, pass_index)
        if smoke:
            w.requests = w.requests[:SMOKE_REQUESTS]
        return w
    raise ValueError(f"unknown workload {name!r}")


def pass_child(name: str, seed: int, pass_index: int, trace: bool, smoke: bool) -> int:
    """Warm up, run one pass, print its operations (and layers) as JSON."""
    from tracer import Tracer

    import workloads

    scratch = tempfile.mkdtemp(prefix=".wcbench-", dir=ROOT)
    try:
        w = make_workload(name, seed, pass_index, scratch, smoke)
        workloads.warm_up_layers()
        w.warm_up()
        tracer = Tracer()
        if trace:
            tracer.install()
        try:
            ops = w.run_pass()
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {
        "ops": [[op.kind, op.seconds, op.ok] for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_drift": getattr(w, "max_rel_drift", None),
    }
    if trace:
        out["layers"] = layer_metrics(w, tracer, ops)
    print(json.dumps(out))
    return 0


def layer_metrics(workload, tracer, ops: list) -> dict[str, float]:
    """Every per-layer metric of one traced pass, zero where the workload
    does not reach it."""
    from workloads import CLI_COMMANDS

    out = tracer.metrics()
    kcp = "probes.kernel_condition_probe"
    out[f"{kcp}.share"] = tracer.total_s(kcp) / sum(op.seconds for op in ops)
    runtimes = {r.scenario_id.split("-")[0]: r.runtime_s for r in getattr(workload, "reports", [])}
    for sid in (f"S{k}" for k in range(1, 12)):
        out[f"scenarios.{sid}.s"] = runtimes.get(sid, 0.0)
    out["scenarios.max_rel_drift"] = getattr(workload, "max_rel_drift", 0.0)
    for cmd in CLI_COMMANDS:
        lat = [op.seconds * 1e3 for op in ops if op.kind == cmd]
        out[f"cli.{cmd}.p50_ms"] = statistics.median(lat) if lat else 0.0
    return out


# -- a run ---------------------------------------------------------------------------


def run_pass(name: str, seed: int, pass_index: int, trace: bool, smoke: bool) -> dict:
    """One pass in a fresh interpreter (`pass_child`); its printed result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--pass-index", str(pass_index)]
    cmd += ["--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
    cmd += ["--smoke"] if smoke else []
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass child failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(name: str, seed: int, seconds: float, smoke: bool) -> list[dict]:
    """Whole passes until `seconds` have elapsed, at least MIN_PASSES[name]."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES[name] or time.perf_counter() - start < seconds:
        passes.append(run_pass(name, seed, len(passes), False, smoke))
    return passes


def end_to_end(setup_s: float, passes: list[dict]) -> dict[str, float]:
    """A pass's time is the sum of its operations' times, so neither the
    warm-up nor the benchmark's own checking is counted.  The latency
    percentiles are over every operation the run timed, in all its passes."""
    lat_ms = sorted(op[1] * 1e3 for p in passes for op in p["ops"])
    pass_times = [sum(op[1] for op in p["ops"]) for p in passes]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "pass_s": statistics.median(pass_times),
        "ops_per_s": sum(len(p["ops"]) for p in passes) / sum(pass_times),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
    }


def per_layer_unit(name: str) -> str:
    if name.startswith("trace_overhead."):
        return END_TO_END_UNITS[name.split(".", 1)[1]]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".share") or name.endswith("_drift"):
        return "ratio"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: the result object printed last, and lines that
    name the same numbers for people.

    A traced run makes one untraced and one traced pass over the same
    inputs; the per-layer metrics come from the traced one, and
    trace_overhead.<metric> is traced minus untraced."""
    setup_s = measure_setup(False)
    if not trace:
        passes = run_passes(name, seed, seconds, smoke)
        metrics = end_to_end(setup_s, passes)
        units = END_TO_END_UNITS
    else:
        passes = [run_pass(name, seed, 0, False, smoke), run_pass(name, seed, 0, True, smoke)]
        untraced = end_to_end(setup_s, passes[:1])
        traced = end_to_end(measure_setup(True), passes[1:])
        metrics = dict(passes[1]["layers"])
        for key in END_TO_END_UNITS:
            metrics[f"trace_overhead.{key}"] = traced[key] - untraced[key]
        units = {k: per_layer_unit(k) for k in metrics}
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op[2] for p in passes for op in p["ops"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    pass_times = ", ".join(f"{sum(op[1] for op in p['ops']):.3f}" for p in passes)
    lines = [f"{name}: attempted {attempted} failed {failed} pass times (s) {pass_times}"]
    if not trace:
        aliases = WORKLOAD_NAMES[name]
        for key, value in metrics.items():
            label = f"{aliases[key]} ({key})" if key in aliases else key
            lines.append(f"  {label} = {value:.6g} {units[key]}")
    drifts = [p["max_rel_drift"] for p in passes if p["max_rel_drift"] is not None]
    if drifts:
        lines.append(f"  scenarios.max_rel_drift = {max(drifts):.3g}")
    return result, lines


# -- environment -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "wcolab")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-child", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    p.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    import_program()
    if args.setup_child is not None:
        return setup_child(bool(args.setup_child))
    if args.workload is None:
        p.error("--workload is required")
    if args.pass_index is not None:
        return pass_child(args.workload, args.seed, args.pass_index, bool(args.trace), args.smoke)
    print("env " + json.dumps(environment(args)), flush=True)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
