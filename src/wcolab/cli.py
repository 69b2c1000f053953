"""Command-line front end.

Subcommands
-----------
classify   classify a linear fractional self-map of the disk
block      build a truncated matrix block and export it
probe      run the normality-class defect probes on an operator
spectrum   eigenvalue clouds, rotation spectra, parabolic spiral samples
scenario   list or run the named verification scenarios

Exit codes: 0 success or PASS, 1 internal error, 2 invalid input,
3 constraint violation, 4 scenario FAIL.

Numeric output is printed with 12 significant digits.  Map, operator, and
expression JSON schemas are the ones produced by the corresponding
``to_json`` methods, so every emitted JSON document re-parses; a value
that is not finite is written as null, never as NaN or Infinity.  Every
other record, complex number and array becomes JSON in `_write_json` alone:
one line from json's C encoder, keys sorted, each float as its repr, so it
reads back bit for bit (`python -m json.tool` indents it).  A file that
cannot be read or written is invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import ConstraintError, InputError, WcolabError
from .mobius import (
    DEFAULT_TOL,
    Classification,
    MoebiusMap,
    classify,
    is_infinity,
    number_from_json,
    parabolic_from,
)
from .opmat import (
    OperatorSpec,
    build_block,
    composition,
    is_boundary_touching,
    toeplitz,
    working_order,
)
from .probes import defect_report
from .scenarios import Overrides, list_scenarios, run_all, run_scenario
from .series import expr_from_json, tail_diagnostics
from .space import SpaceSpec
from .spectra import (
    DEFAULT_BETA_GRID,
    eigen_residual,
    rotation_spectrum,
    spectral_radius_estimate,
    spiral_curve,
    truncation_eigenvalues,
)

MIN_ORDER = 4


def fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"


def fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real + 0.0:.12g}{z.imag + 0.0:+.12g}j"


def _load_json_arg(text: str, what: str):
    """Parse inline JSON, or JSON from a file when the value starts with @."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                return json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {what} file {text[1:]!r}: {exc}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"bad JSON in {what} file {text[1:]!r}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad inline JSON for {what}: {exc}")


def _parse_complex_arg(obj, what: str) -> complex:
    """A complex literal, or a JSON number or [re, im] pair from --config."""
    if not isinstance(obj, str):
        return complex(number_from_json(obj, isinstance(obj, list), what))
    try:
        return complex(obj.replace(" ", ""))
    except ValueError:
        raise InputError(f"{what} must be a number, a [re, im] pair, or a complex literal")


def _json_default(x):
    """Records as their fields, complex values as [re, im] pairs, arrays as lists."""
    if dataclasses.is_dataclass(x):
        return dataclasses.asdict(x)
    if np.iscomplexobj(x):
        return np.stack((np.real(x), np.imag(x)), -1).tolist()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _write_text(path: str, text: str) -> None:
    """Write text to stdout for "-", else to the file path; OSError is InputError."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}")


def _write_json(path: str, payload) -> None:
    """The one JSON writer: one line, sorted keys, no NaN or Infinity, and no
    cycle check, which a payload the CLI builds cannot need."""
    kw = {"sort_keys": True, "allow_nan": False, "check_circular": False}
    _write_text(path, json.dumps(payload, default=_json_default, **kw) + "\n")


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    """A float table as CSV under its header line, every value as %.17g, so
    every float reads back exactly."""
    row = ",".join(["%.17g"] * table.shape[1])
    _write_text(path, "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n")


def _int_arg(value, flag: str, default: int | None = None) -> int | None:
    """An option's value as an integer, or the default when it is unset; a
    malformed one, a float with a fractional part too, is an InputError."""
    if value is None:
        return default
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{flag} must be an integer, got {value!r}")


def _float_arg(value, flag: str, default: float) -> float:
    """An option's value as a finite float, or the default when it is unset;
    anything else is an InputError."""
    if value is None:
        return default
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{flag} must be a number, got {value!r}")
    if not math.isfinite(x):
        raise InputError(f"{flag} must be finite, got {value!r}")
    return x


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset CLI options from the optional --config JSON file."""
    if not getattr(args, "config", None):
        return
    cfg = _load_json_arg("@" + args.config, "config")
    if not isinstance(cfg, dict):
        raise InputError("config file must hold a JSON object")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


def _reject_unread_flags(args) -> None:
    """A flag the chosen mode of a subcommand does not read is an input error.

    Decided on the command line alone, before `_merge_config`: every value
    option defaults to None and --all to False, so a set one is one the user
    gave.  Config keys stay ignored where they are unread.
    """
    if args.command == "spectrum" and args.t is not None:
        mode, unread = "spectrum --t", ("space", "tail", "op", "map", "weight")
    elif args.command == "spectrum":
        mode, unread = "spectrum without --t", ("zeta", "samples")
    elif args.command == "scenario" and args.action == "list":
        mode, unread = "scenario list", ("id", "all", "order_scale", "order", "tail", "json")
    elif args.command == "scenario" and args.all:
        mode, unread = "scenario run --all", ("id",)
    else:
        return
    given = ["--" + n.replace("_", "-") for n in unread if getattr(args, n) not in (None, False)]
    if given:
        raise InputError(f"{mode} does not read {', '.join(given)}")


def _resolve_space(args) -> SpaceSpec:
    return SpaceSpec.parse(args.space if args.space is not None else "hardy")


def _resolve_orders(args, ops) -> tuple[int, int]:
    n = _int_arg(args.order, "--order", 16)
    if n < MIN_ORDER:
        raise InputError(f"--order must be at least {MIN_ORDER}, got {n}")
    m = working_order(n, ops) if args.tail is None else _int_arg(args.tail, "--tail")
    if m < 2 * n:
        raise InputError(f"--tail must be at least 2*order = {2 * n}, got {m}")
    return n, m


def _resolve_tol(args) -> float:
    tol = _float_arg(args.tol, "--tol", DEFAULT_TOL)
    if tol <= 0:
        raise InputError(f"--tol must be positive, got {tol}")
    return tol


def _operator_from_args(args) -> OperatorSpec:
    given = [x for x in (args.op, args.map, args.weight) if x is not None]
    if len(given) != 1:
        raise InputError("give exactly one of --op, --map, --weight")
    if args.op is not None:
        return OperatorSpec.from_json(_load_json_arg(args.op, "operator"))
    if args.map is not None:
        return composition(MoebiusMap.from_json(_load_json_arg(args.map, "map")))
    return toeplitz(expr_from_json(_load_json_arg(args.weight, "weight")))


def _classification_json(c: Classification) -> dict:
    """`classify`'s JSON schema; a point at infinity is "infinity"."""

    def at(z):
        return "infinity" if isinstance(z, complex) and is_infinity(z) else z

    def record(x):
        return None if x is None else {k: at(v) for k, v in dataclasses.asdict(x).items()}

    return {
        "class": c.map_class.value,
        "borderline": c.borderline,
        "notes": c.notes,
        "fixed_points": c.fixed_points and [record(p) for p in c.fixed_points.points],
        "denjoy_wolff": record(c.dw),
        "translation": at(c.translation),
    }


# -- subcommands --------------------------------------------------------------


def cmd_classify(args) -> int:
    m = MoebiusMap.from_json(_load_json_arg(args.map, "map"))
    tol = _resolve_tol(args)
    result = classify(m, tol)
    print(f"class: {result.map_class.value}")
    if result.fixed_points is not None:
        for p in result.fixed_points.points:
            loc = "infinity" if not np.isfinite(p.location.real) else fmt_c(p.location)
            print(
                f"fixed point: {loc}  multiplicity {p.multiplicity}"
                f"  derivative {fmt_c(p.derivative)}"
            )
    if result.dw is not None:
        kind = "boundary" if result.dw.boundary else "interior"
        print(
            f"denjoy-wolff: {fmt_c(result.dw.location)} ({kind})"
            f"  derivative {fmt_c(result.dw.derivative)}"
        )
    if result.translation is not None:
        print(f"translation number: {fmt_c(result.translation)}")
    if result.borderline:
        print("borderline: yes")
    for note in result.notes:
        print(f"note: {note}")
    if args.json:
        _write_json(args.json, {"map": m.to_json(), "classification": _classification_json(result)})
    return 0


def cmd_block(args) -> int:
    op = _operator_from_args(args)
    space = _resolve_space(args)
    n, m = _resolve_orders(args, (op,))
    e = build_block(op, space, n, m).entries
    # the tail judgment: boundary contact or a slow column, and the largest column bound
    td = tail_diagnostics(e)
    tail_flag = is_boundary_touching(op) or bool(td.slow_decay.any())
    tail_estimate = float(td.bound.max())
    print(f"operator: {op.describe()}  space: {space.label()}")
    print(f"orders: N={n} M={m}")
    print(f"norm estimate: {fmt(np.linalg.norm(e[: n + 1], 2))}")
    print(f"tail estimate: {fmt(tail_estimate)}")
    if tail_flag:
        print(
            "warning: boundary-touching symbol or slow coefficient decay; "
            "raise --tail for trustworthy tails"
        )
    if args.csv:
        header = ",".join(["i"] + [f"{part}_{j}" for j in range(n + 1) for part in ("re", "im")])
        _write_csv(args.csv, header, np.column_stack((np.arange(m + 1), e.view(float))))
    if args.json:
        payload = {"op": op.to_json(), "space": space.to_json(), "row_order": m, "col_order": n}
        payload["entries"] = e
        estimate = tail_estimate if math.isfinite(tail_estimate) else None
        _write_json(args.json, {**payload, "tail_flag": tail_flag, "tail_estimate": estimate})
    return 0


def cmd_probe(args) -> int:
    op = _operator_from_args(args)
    space = _resolve_space(args)
    n, m = _resolve_orders(args, (op,))
    rep = defect_report(op, space, n, m)
    ev = rep.hyponormality
    print(f"operator: {op.describe()}  space: {space.label()}  N={ev.N} M={ev.M}")
    print(f"selfcommutator min eigenvalue: {fmt(ev.min_eig)}")
    print(f"selfcommutator norm:           {fmt(ev.norm)}")
    print(f"quasinormal defect:            {fmt(rep.quasinormal_defect)}")
    print(f"selfadjoint defect:            {fmt(rep.selfadjoint_defect)}")
    print(f"unitary defect:                {fmt(rep.unitary_defect)}")
    print(f"tail bound on G1:              {fmt(ev.tail_bound)}")
    for flag in rep.flags:
        print(f"flag: {flag}")
    verdictline = "negative certificate (not hyponormal)" if ev.certificate else "no certificate"
    print(f"hyponormality: {verdictline}")
    if args.json:
        payload = {"op": op.to_json(), "space": space.to_json(), "N": ev.N, "M": ev.M}
        payload.update(min_eig_selfcomm=ev.min_eig, norm_selfcomm=ev.norm, flags=rep.flags)
        payload.update(quasinormal_defect=rep.quasinormal_defect, unitary_defect=rep.unitary_defect)
        tail = ev.tail_bound if math.isfinite(ev.tail_bound) else None
        payload.update(selfadjoint_defect=rep.selfadjoint_defect, tail_bound=tail)
        payload["hyponormality_certificate"] = ev.certificate
        _write_json(args.json, payload)
    return 0


def cmd_spectrum(args) -> int:
    if args.t is not None:
        t = _parse_complex_arg(args.t, "--t")
        zeta = (
            _parse_complex_arg(args.zeta, "--zeta") if args.zeta is not None else 1.0 + 0j
        )
        phi = parabolic_from(zeta, t)
        samples = _int_arg(args.samples, "--samples", 64)
        if samples < 2:
            raise InputError("--samples must be at least 2")
        if samples > np.iinfo(np.intp).max:
            raise InputError(f"--samples must be at most {np.iinfo(np.intp).max}")
        betas = tuple(float(b) for b in np.linspace(0.0, 8.0, samples))
        spiral = spiral_curve(t, betas)
        order = _int_arg(args.order, "--order", 400)
        residuals = list(
            zip(DEFAULT_BETA_GRID, eigen_residual(zeta, t, DEFAULT_BETA_GRID, order).tolist())
        )
        print(f"parabolic symbol: zeta={fmt_c(zeta)} t={fmt_c(t)}")
        print(f"map: {json.dumps(phi.to_json())}")
        print("eigen residual table (beta, residual):")
        for beta, r in residuals:
            print(f"  {fmt(beta)}  {fmt(r)}")
        if args.csv:
            _write_csv(args.csv, "beta,re,im", np.array([(b, v.real, v.imag) for b, v in spiral]))
        if args.json:
            payload = {"map": phi.to_json(), "zeta": zeta, "t": t}
            _write_json(args.json, {**payload, "spiral": spiral, "residuals": residuals})
        return 0

    space = _resolve_space(args)
    op = _operator_from_args(args)
    n, m = _resolve_orders(args, (op,))
    eigs = truncation_eigenvalues(build_block(op, space, n, n))
    gelfand = spectral_radius_estimate(op, space, n, k_max=12, M=m)
    radius = gelfand[-1]
    print(f"operator: {op.describe()}  space: {space.label()}  N={n}")
    print(f"gelfand radius estimate (k=12): {fmt(radius)}")
    print("truncation eigenvalues (diagnostic only, largest first):")
    for lam in eigs[: min(len(eigs), 12)]:
        print(f"  {fmt_c(lam)}")
    exact = None
    if op.symbol is not None and op.describe() == "composition":
        sym = op.symbol.normalized()
        if abs(sym.b) <= 1e-14 and abs(sym.c) <= 1e-14:
            lam = sym.a / sym.d
            exact = rotation_spectrum(lam)
            print(f"rotation symbol detected: spectrum kind {exact.kind}")
            for p in exact.points:
                print(f"  {fmt_c(p)}")
    if args.csv:
        _write_csv(args.csv, "re,im", np.column_stack((eigs.real, eigs.imag)))
    if args.json:
        payload = {"op": op.to_json(), "space": space.to_json(), "N": n}
        payload.update(gelfand_sequence=gelfand, eigenvalues=eigs)
        if exact is not None:
            payload["rotation_spectrum"] = exact
        _write_json(args.json, payload)
    return 0


def cmd_scenario(args) -> int:
    if args.action == "list":
        for sid, claim in list_scenarios():
            print(f"{sid}: {claim}")
        return 0
    ov = Overrides(
        order_scale=_float_arg(args.order_scale, "--order-scale", 1.0),
        N=_int_arg(args.order, "--order"),
        M=_int_arg(args.tail, "--tail"),
    )
    if args.all:
        reports = run_all(ov)
    elif args.id:
        reports = [run_scenario(args.id, ov)]
    else:
        raise InputError("scenario run needs --id <scenario> or --all")
    failed = False
    for rep in reports:
        print(f"{rep.scenario_id}: {rep.verdict}  ({rep.runtime_s:.2f}s)")
        for c in rep.checks:
            if c.passed is None:
                mark = "info"
            else:
                mark = "pass" if c.passed else "FAIL"
            value = fmt(c.value) if isinstance(c.value, float) else c.value
            print(f"  [{mark}] {c.name}: {value}  ({c.threshold}; {c.source})")
        failed = failed or rep.verdict == "FAIL"
    if args.json:
        _write_json(args.json, {"reports": reports})
    return 4 if failed else 0


# -- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, space=True, orders=True, tol=False, csv=False):
    """Register --json, --config and the shared options the subcommand reads."""
    if space:
        p.add_argument("--space", help="hardy or bergman:<alpha>")
    if orders:
        p.add_argument("--order", help="matrix truncation order N")
        p.add_argument("--tail", help="internal coefficient order M (default policy-chosen)")
    if tol:
        p.add_argument("--tol", help="tolerance override")
    p.add_argument("--json", help="write a JSON report to this path ('-' for stdout)")
    if csv:
        p.add_argument("--csv", help="write a CSV artifact to this path ('-' for stdout)")
    p.add_argument("--config", help="JSON config file with default option values")


def _add_operator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", help="operator JSON (weight + optional symbol), inline or @file")
    p.add_argument("--map", help="map JSON for a plain composition operator")
    p.add_argument("--weight", help="expression JSON for a plain Toeplitz operator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcolab",
        description="numerical laboratory for weighted composition operators "
        "on Hardy and Bergman spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a linear fractional self-map")
    p.add_argument("--map", required=True, help="map JSON, inline or @file")
    _add_common(p, space=False, orders=False, tol=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("block", help="build a truncated matrix block")
    _add_operator_args(p)
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("probe", help="normality-class defect probes")
    _add_operator_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("spectrum", help="eigenvalue clouds and parabolic spirals")
    _add_operator_args(p)
    p.add_argument("--t", help="translation number for a parabolic symbol")
    p.add_argument("--zeta", help="boundary fixed point (default 1)")
    p.add_argument("--samples", help="spiral sample count (default 64)")
    _add_common(p, csv=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scenario", help="list or run verification scenarios")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("--id", help="scenario id to run")
    p.add_argument("--all", action="store_true", help="run every scenario")
    p.add_argument("--order-scale", help="scale factor applied to default orders")
    _add_common(p, space=False)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _reject_unread_flags(args)
        _merge_config(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except WcolabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
