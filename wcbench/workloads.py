"""The three benchmark workloads: input generation, one measured pass, and
the correctness check of every operation.

Each workload turns a seed into a fixed list of operations.  `run_pass()`
executes the list once, in process, and returns one `Op` per operation with
its wall time and whether its output checked out.  Inputs are generated
here, as plain JSON where the CLI takes JSON, so the program only ever sees
the generated inputs.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

from wcolab import cli, mobius, opmat, probes, scenarios, space, spectra


@dataclass(frozen=True)
class Op:
    kind: str
    seconds: float
    ok: bool


def warm_up_layers() -> None:
    """One tiny call through every layer and every dense LAPACK entry point,
    so that lazy imports and library initialisation are paid before timing."""
    scenarios.load_thresholds()
    m = mobius.MoebiusMap(1, 0, -1, 2)
    mobius.classify(m)
    sp = space.bergman(1.0)
    op = opmat.weighted(scenarios.PSI_HALF, m)
    opmat.word_block(opmat.cowen_adjoint_word(m, sp), sp, 4, 16)
    probes.hyponormality_probe(op, sp, 4, 16)
    probes.kernel_condition_probe(op, sp, [0.5], order=32)
    spectra.truncation_eigenvalues(opmat.build_block(op, sp, 4, 8))
    spectra.eigen_residual(1.0, 1.0, 1.0, 32)
    cli.build_parser()


# -- suite ----------------------------------------------------------------------

#: Floor of the drift denominator: values below it are rounding-level residuals
#: and defects, whose drift is measured against this scale instead of themselves.
DRIFT_FLOOR = 1e-6


def _numbers(value) -> list[float]:
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return []


class Suite:
    """`scenarios.run_all()` at default orders, one scenario per operation.

    Every verdict and every check's `passed` flag must match the reference
    recorded at the commit that defined the benchmark (S1-S10 PASS, S11
    REPORT).  Check values are compared too, but only reported, as the
    largest relative drift.
    """

    name = "suite"

    def __init__(self, reference: dict, scenario_ids: tuple[str, ...] | None = None):
        self.reference = reference
        self.scenario_ids = scenario_ids
        self.max_rel_drift = 0.0
        self.reports: list = []

    def warm_up(self) -> None:
        scenarios.run_scenario("S6-unitary-weight")

    def run_pass(self) -> list[Op]:
        if self.scenario_ids is None:
            self.reports = scenarios.run_all()
        else:
            self.reports = [scenarios.run_scenario(sid) for sid in self.scenario_ids]
        return [Op(rep.scenario_id, rep.runtime_s, self.check(rep)) for rep in self.reports]

    def check(self, rep) -> bool:
        ref = self.reference.get(rep.scenario_id)
        if ref is None or rep.verdict != ref["verdict"]:
            return False
        got = {c.name: c for c in rep.checks}
        if set(got) != set(ref["checks"]):
            return False
        ok = True
        for name, want in ref["checks"].items():
            c = got[name]
            ok = ok and c.passed == want["passed"]
            have, had = _numbers(c.value), _numbers(want["value"])
            if len(have) != len(had):
                ok = False
                continue
            for x, y in zip(have, had):
                drift = abs(x - y) / max(abs(y), DRIFT_FLOOR)
                self.max_rel_drift = max(self.max_rel_drift, drift)
        return ok


def record_reference() -> dict:
    """Verdicts, check values and passed flags of one `run_all()`."""
    return {
        rep.scenario_id: {
            "verdict": rep.verdict,
            "checks": {c.name: {"value": c.value, "passed": c.passed} for c in rep.checks},
        }
        for rep in scenarios.run_all()
    }


# -- order study ------------------------------------------------------------------

ORDER_STUDY_MS = (320, 640, 1280)
COWEN_N = 24
QUASINORMAL_N = 16
HYPONORMAL_N = 64

#: Quasinormality defect of C_{AFFINE_HALF} on Hardy at N=16, equal at every
#: M in ORDER_STUDY_MS when the benchmark was defined.
QUASINORMAL_REF = 0.48001063311549674
QUASINORMAL_RTOL = 1e-10
COWEN_TOL = 1e-6
MIN_EIG_TOL = -1e-6


def interior_map(rng: random.Random, reach: float = 0.9) -> dict:
    """Map JSON of a self-map whose image is a disk inside |z| <= reach.

    phi = c0 + r * lam * (z - p) / (1 - conj(p) z), an automorphism scaled
    into the disk of radius r about c0, with |c0| + r <= reach.
    """
    r = rng.uniform(0.2, 0.6) * reach
    c0 = cmath.rect(rng.uniform(0.0, reach - r), rng.uniform(0.0, 2 * math.pi))
    return _scaled_automorphism(rng, c0, r)


def tangent_map(rng: random.Random) -> dict:
    """Map JSON of a non-automorphism whose image circle touches the unit
    circle from inside at one point."""
    r = rng.uniform(0.3, 0.8)
    c0 = cmath.rect(1.0 - r, rng.uniform(0.0, 2 * math.pi))
    return _scaled_automorphism(rng, c0, r)


def automorphism_map(rng: random.Random) -> dict:
    return _scaled_automorphism(rng, 0j, 1.0)


def parabolic_map(rng: random.Random) -> tuple[dict, complex, complex]:
    """Parabolic non-automorphism with boundary fixed point zeta and
    translation number t, Re t > 0; returns (map JSON, zeta, t)."""
    zeta = cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi))
    t = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    coeffs = (2.0 - t, t * zeta, -t * zeta.conjugate(), 2.0 + t)
    return _map_json(*coeffs), zeta, t


def rotated_map(rng: random.Random) -> dict:
    """Map JSON of R_alpha o phi0 o R_beta for seeded rotation angles, where
    phi0 has image circle center 0.3 and radius 0.45 and pole 1/0.3.

    Rotations multiply a block by unitary diagonals on both sides, which
    leaves its singular values and entry magnitudes unchanged, so every seed
    costs the same.  Other shapes tried cost up to 40% more at M=1280, in
    the SVD and in subnormal arithmetic.
    """
    alpha, beta = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    return _moebius(cmath.rect(0.3, alpha), 0.45, cmath.rect(0.3, -beta), cmath.rect(1.0, alpha + beta))


def _scaled_automorphism(rng: random.Random, c0: complex, r: float) -> dict:
    p = cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi))
    lam = cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi))
    return _moebius(c0, r, p, lam)


def _moebius(c0: complex, r: float, p: complex, lam: complex) -> dict:
    """c0 + r * lam * (z - p) / (1 - conj(p) z) as map JSON."""
    pc = p.conjugate()
    return _map_json(r * lam - c0 * pc, c0 - r * lam * p, -pc, 1.0)


def _cpx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _map_json(a, b, c, d) -> dict:
    return {"a": _cpx(a), "b": _cpx(b), "c": _cpx(c), "d": _cpx(d)}


class OrderStudy:
    """Three steps per working order M, each one operation:

    * the Cowen adjoint residual of a seeded self-map on bergman:1, whose
      image lies inside |z| <= 0.75,
    * the quasinormality defect of C_{AFFINE_HALF} on Hardy,
    * the hyponormality probe of T_{PSI_HALF} C_{HALF_SHIFT} on Hardy.
    """

    name = "order-study"

    def __init__(self, seed: int, ms: tuple[int, ...] = ORDER_STUDY_MS):
        self.ms = ms
        self.phi = mobius.MoebiusMap.from_json(rotated_map(random.Random(seed)))
        self.bergman1 = space.bergman(1.0)
        self.hardy = space.hardy()
        self.affine = opmat.composition(scenarios.AFFINE_HALF)
        self.sadraoui = opmat.weighted(scenarios.PSI_HALF, scenarios.HALF_SHIFT)
        self.floor = scenarios.load_thresholds()["quasinormal_floors"]["S4.hardy.psi-one"]["floor"]
        self.quasinormal_ref = QUASINORMAL_REF

    def warm_up(self) -> None:
        self._cowen(32)
        self._quasinormal(48)
        self._hyponormal(32)

    def run_pass(self) -> list[Op]:
        ops = []
        for M in self.ms:
            for step in (self._cowen, self._quasinormal, self._hyponormal):
                t0 = time.perf_counter()
                ok = step(M)
                ops.append(Op(f"{step.__name__[1:]}.M{M}", time.perf_counter() - t0, ok))
        return ops

    def _cowen(self, M: int) -> bool:
        sp, N = self.bergman1, min(COWEN_N, M // 2)
        word = opmat.word_block(opmat.cowen_adjoint_word(self.phi, sp), sp, N, M)
        direct = opmat.adjoint_block(opmat.build_block(opmat.composition(self.phi), sp, N, N))
        return float(np.linalg.norm(word.entries - direct.entries, 2)) <= COWEN_TOL

    def _quasinormal(self, M: int) -> bool:
        v = probes.quasinormality_defect(self.affine, self.hardy, QUASINORMAL_N, M)
        ref = self.quasinormal_ref
        return abs(v - ref) <= QUASINORMAL_RTOL * ref and v >= self.floor

    def _hyponormal(self, M: int) -> bool:
        N = min(HYPONORMAL_N, M // 2)
        return probes.hyponormality_probe(self.sadraoui, self.hardy, N, M).min_eig >= MIN_EIG_TOL


# -- CLI requests -------------------------------------------------------------------

CLI_COMMANDS = ("classify", "block", "probe", "spectrum")
MAP_CLASSES = ("interior", "tangent", "parabolic", "automorphism")
WEIGHT_KINDS = ("poly", "rational", "exp", "power")
CLI_ORDERS = (8, 11, 15, 18, 22, 25, 29, 32)
SPACES = ("hardy", "bergman:0", "bergman:0.5", "bergman:1")


def _poly(coeffs) -> dict:
    return {"type": "poly", "coeffs": [_cpx(c) for c in coeffs]}


def _small(rng: random.Random, radius: float) -> complex:
    return cmath.rect(rng.uniform(0.0, radius), rng.uniform(0.0, 2 * math.pi))


def bounded_weight(rng: random.Random, kind: str) -> dict:
    """Expression JSON of a weight bounded on the closed disk.

    Rational denominators are products of (1 - z/rho) with every root
    |rho| >= 1.5, and power bases 1 + c z have |c| <= 0.6, so every weight
    stays bounded under an exact root-location test, not only under the
    sampled check.
    """
    if kind == "poly":
        return _poly([_small(rng, 1.0) for _ in range(rng.randint(2, 4))])
    if kind == "rational":
        den = np.array([1.0 + 0j])
        for _ in range(rng.randint(1, 2)):
            rho = cmath.rect(rng.uniform(1.5, 3.0), rng.uniform(0.0, 2 * math.pi))
            den = np.convolve(den, [1.0, -1.0 / rho])
        num = [1.0 + _small(rng, 0.5), _small(rng, 1.0)]
        return {"type": "rational", "num": _poly(num), "den": _poly(den)}
    if kind == "exp":
        return {"type": "exp", "arg": _poly([0j, _small(rng, 0.5), _small(rng, 0.5)])}
    if kind == "power":
        gamma = rng.uniform(-1.5, 1.5)
        return {"type": "power", "base": _poly([1.0, _small(rng, 0.6)]), "exponent": gamma}
    raise ValueError(f"unknown weight kind {kind!r}")


def cli_requests(seed: int | str, out_path: str, half: int = 0) -> list[tuple[str, list[str]]]:
    """Seeded (command, argv) list of 256 requests, in seeded order.

    Every command x symbol class x weight kind appears at four orders N:
    CLI_ORDERS[half::2] or CLI_ORDERS[1 - half::2], alternating, so every N
    is used equally often, and so is every space in SPACES.  Only the
    continuous parameters (coefficients, points, angles) and the order of
    the list depend on the seed, so the work mix is the same for every seed.
    Orders are passed explicitly as --order N --tail 8N: the default
    policy's 8N without its floor of 160 and its doubling for boundary
    symbols, which keeps requests at small orders (a few to a few hundred
    milliseconds) while every tail bound stays finite.
    """
    rng = random.Random(seed)
    out = []
    combos = itertools.product(CLI_COMMANDS, MAP_CLASSES, WEIGHT_KINDS)
    for i, (cmd, cls, kind) in enumerate(combos):
        for j, N in enumerate(CLI_ORDERS[(i + half) % 2 :: 2]):
            zeta = t = None
            if cls == "interior":
                m = interior_map(rng)
            elif cls == "tangent":
                m = tangent_map(rng)
            elif cls == "automorphism":
                m = automorphism_map(rng)
            else:
                m, zeta, t = parabolic_map(rng)
            op = json.dumps({"weight": bounded_weight(rng, kind), "symbol": m})
            if cmd == "classify":
                argv = ["classify", "--map", json.dumps(m)]
            elif cmd == "spectrum" and t is not None:
                argv = ["spectrum", "--t", repr(t), "--zeta", repr(zeta), "--samples", "16"]
            else:
                sp = SPACES[(i + j) % len(SPACES)]
                argv = [cmd, "--op", op, "--space", sp, "--order", str(N), "--tail", str(8 * N)]
            out.append((cmd, argv + ["--json", out_path]))
    rng.shuffle(out)
    return out


def _finite_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite number {name}")

    return json.loads(text, parse_constant=reject)


class CliRequests:
    """Closed loop of one client calling `wcolab.cli.main(argv)` in process.

    An operation is one request.  It checks out when the exit code is 0 and
    the JSON it wrote parses and holds only finite numbers.  Pass k of a run
    draws its own requests, and the warm-up draws others, so no request is
    ever repeated.
    """

    name = "cli-requests"

    def __init__(self, seed: int, scratch_dir: str, pass_index: int = 0):
        self.out_path = os.path.join(scratch_dir, "request.json")
        self.requests = cli_requests(f"{seed}/{pass_index}", self.out_path, pass_index % 2)
        self.warm_up_requests = cli_requests(f"{seed}/warm-up", self.out_path)

    def warm_up(self) -> None:
        seen = set()
        for cmd, argv in self.warm_up_requests:
            if cmd not in seen:
                seen.add(cmd)
                self._call(argv)

    def run_pass(self) -> list[Op]:
        ops = []
        for cmd, argv in self.requests:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out_path)
            t0 = time.perf_counter()
            code = self._call(argv)
            dt = time.perf_counter() - t0
            ops.append(Op(cmd, dt, code == 0 and self._output_ok()))
        return ops

    @staticmethod
    def _call(argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def _output_ok(self) -> bool:
        try:
            with open(self.out_path) as fh:
                payload = _finite_json(fh.read())
        except (OSError, ValueError):
            return False
        return all(math.isfinite(x) for x in _numbers(payload))

