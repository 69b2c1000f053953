"""Registry of named verification scenarios.

Each scenario binds one operator-theoretic claim to concrete probes with
fixed inputs, orders, and thresholds, and reports a verdict:

  PASS / FAIL  for asserting scenarios,
  REPORT       for exploratory ones that record values without gating.

Threshold provenance is tagged per check:

  exact    the quantity is an identity that holds to rounding,
  analytic the threshold follows from a closed form or structural argument,
  oracle   the threshold is half the value these scenarios measured in a
           reference run (data/thresholds.json, which tools/pin_thresholds.py
           writes from their reports); an unpinned key gives NaN and fails.

Reports are deterministic at a fixed BLAS thread count: two runs produce
identical JSON apart from the runtime field.

A run computes each distinct operator's evidence once: S4's quasinormality
defects and S9's and S10's hyponormality and kernel probes go through a memo
keyed by operator value (`_once`), open for one `run_scenario` or for all of
`run_all`, so S10's `psi-one` and `psi-kernel` cases, both the composition
with AFFINE_HALF, reuse S9's `affine-half` evidence.  Nothing is kept from
one run to the next.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, UnknownScenarioError
from .mobius import MoebiusMap, identity, parabolic_from, projective_distance, rotation
from .opmat import (
    WEIGHT_GRID,
    OperatorSpec,
    adjoint_block,
    adjoint_letter,
    build_block,
    composition,
    cowen_adjoint_word,
    plain,
    shapeable_order,
    toeplitz,
    weighted,
    word_block,
)
from .probes import (
    certified_min_chi,
    defect_sweep,
    douglas_witness,
    hyponormality_probe,
    kernel_condition_probe,
    quasinormality_defect,
    quasinormality_evidence,
    unitary_defect,
)
from .series import (
    Exp,
    Poly,
    PrecomposeMoebius,
    Product,
    Rational,
    constant,
    eliminate_precompose,
    evaluate,
    taylor,
)
from .space import bergman, hardy, kernel_expr
from .spectra import DEFAULT_BETA_GRID, eigen_residual, spiral_curve

# fixed symbols used across scenarios
HALF_SHIFT = MoebiusMap(1, 0, -1, 2)          # z/(2-z)
QUARTER_SHRINK = MoebiusMap(0.25, 0, -0.75, 1)  # z/4 / (1 - 3z/4)
AFFINE_HALF = MoebiusMap(1, 1, 0, 2)          # (z+1)/2
THREE_POINT = MoebiusMap(2, 1, 1, 3)          # (2z+1)/(z+3)
HYPERBOLIC_AUTO = MoebiusMap(1, 0.5, 0.5, 1)  # (z+1/2)/(1+z/2)
TAU = MoebiusMap(2, 2, 1, 3)                  # 2(z+1)/(z+3)
PARABOLIC_ONE = parabolic_from(1.0, 1.0)      # parabolic, fixing 1, translation 1

PSI_HALF = Rational(Poly((2,)), Poly((2, -1)))  # 2/(2-z)
ETA = Rational(Poly((2,)), Poly((3, 1)))        # 2/(z+3); T_ETA C_TAU is S7's contraction

THREE_SPACES = (hardy(), bergman(0.0), bergman(1.0))

#: S7's hyponormal operator T_PSI_HALF C_HALF_SHIFT; its adjoint is C_AFFINE_HALF.
SADRAOUI = weighted(PSI_HALF, HALF_SHIFT)

#: S8's hyponormal weights f (the operator is `s8_operator(f)`), each with g,
#: where g o AFFINE_HALF = f, and 1/f.
S8_CASES = (
    ("f-linear", Poly((2, 1)), Poly((1, 2)), Rational(Poly((1,)), Poly((2, 1)))),
    ("f-exp", Exp(Poly((0, 1))), Exp(Poly((-1, 2))), Exp(Poly((0, -1)))),
)


def s8_operator(f) -> OperatorSpec:
    """S8's operator W_(f * PSI_HALF, HALF_SHIFT) for an extra weight f."""
    return weighted(Product((f, PSI_HALF)), HALF_SHIFT)


def s8_exp_defects() -> dict[int, float]:
    """S8's f-exp defect on H^2 at N = 12, 16, 20, 24 with M = 320: the stability study."""
    op = s8_operator(next(f for label, f, _, _ in S8_CASES if label == "f-exp"))
    return {n: quasinormality_defect(op, hardy(), n, 320) for n in (12, 16, 20, 24)}


#: S9's symbols: composition operators with a negative self-commutator.
S9_SYMBOLS = (("affine-half", AFFINE_HALF), ("three-point", THREE_POINT))


def s4_weights(space) -> tuple:
    """S4's weights on AFFINE_HALF: 1 and the kernel at sigma(0) = 0, which
    degenerates to the constant 1 but is kept as its own case."""
    return (("psi-one", constant(1.0)), ("psi-kernel", kernel_expr(space, 0.0)))


def s6_weight(space):
    """S6's weight on HYPERBOLIC_AUTO, (1 - 1/4)^(gamma/2) K_(-1/2), which makes
    the weighted composition operator unitary."""
    return Product((constant((1.0 - 0.25) ** (space.gamma / 2.0)), kernel_expr(space, -0.5)))


def s10_weights(space) -> tuple:
    """S10's bounded weights on AFFINE_HALF."""
    one, kernel = s4_weights(space)
    return (one, ("psi-one-minus-z", Poly((1, -1))), kernel)

#: Grids shared with the spectra-facing checks.
T_GRID = (1.0 + 0j, 2.0 + 0j, 1.0 + 0.5j, 0.3 + 2.0j)
ZETA_GRID = (1.0 + 0j, 1j, np.exp(1j * np.pi / 3.0))


@dataclass(frozen=True)
class Overrides:
    """Order adjustments for a scenario run; thresholds never change."""

    order_scale: float = 1.0
    N: int | None = None
    M: int | None = None

    def order(self, default: int) -> int:
        return self._scaled(self.N, default)

    def work(self, default: int) -> int:
        return self._scaled(self.M, default)

    def _scaled(self, given: int | None, default: int) -> int:
        """The given order, else the default times order_scale, at least 1;
        an order whose square complex block numpy cannot shape raises
        OrderPolicyError."""
        if given is None:
            scaled = default * self.order_scale
            if not math.isfinite(scaled):
                raise InputError(f"order scale {self.order_scale:g} overflows the order {default}")
            given = max(1, int(round(scaled)))
        return shapeable_order(given)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: object  # float | bool
    threshold: str
    passed: bool | None  # None for report-only entries
    source: str  # "exact" | "analytic" | "oracle"
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    claim: str
    verdict: str  # "PASS" | "FAIL" | "REPORT"
    checks: tuple[CheckResult, ...]
    spaces: tuple[str, ...]
    orders: dict
    runtime_s: float

    def check(self, name: str) -> CheckResult:
        """The check called name."""
        return next(c for c in self.checks if c.name == name)


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    claim: str
    exploratory: bool
    spaces: tuple[str, ...]
    runner: Callable[[Overrides], tuple[list[CheckResult], dict]]


def _le(name, value, limit, source, **details) -> CheckResult:
    return CheckResult(
        name, float(value), f"<= {limit:.12g}", bool(value <= limit), source, details
    )


def _ge(name, value, limit, source, **details) -> CheckResult:
    return CheckResult(
        name, float(value), f">= {limit:.12g}", bool(value >= limit), source, details
    )


def _norm_cap(name, norm) -> CheckResult:
    """||C|| <= 1 for a contraction word C, read from a compression: its norm
    only bounds ||C|| from below, so a pass does not show ||C|| <= 1."""
    note = "norm of an order-N compression of C: a lower bound of ||C||, not an upper one"
    return _le(name, norm, 1.0 + 1e-8, "analytic", note=note)


def _flag(name, ok, description, source, **details) -> CheckResult:
    return CheckResult(name, bool(ok), description, bool(ok), source, details)


def _info(name, value, description, **details) -> CheckResult:
    return CheckResult(name, value, description, None, "exact", details)


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) where x is not finite."""
    return x if math.isfinite(x) else None


def _kernel_witness(name, pts) -> CheckResult:
    """chi <= -1e-8 at some kernel point not slow at the order cap; with no
    such point the check fails and its value is None."""
    chi = certified_min_chi(pts)
    details = {"grid_points": len(pts), "slow_at_cap": sum(p.slow_decay for p in pts)}
    if chi is None:
        return CheckResult(name, None, f"<= {-1e-8:.12g}", False, "analytic", details)
    return _le(name, chi, -1e-8, "analytic", **details)


@functools.lru_cache(maxsize=1)
def load_thresholds() -> dict:
    """Committed oracle thresholds; regenerate with tools/pin_thresholds.py."""
    res = importlib.resources.files("wcolab").joinpath("data/thresholds.json")
    try:
        return json.loads(res.read_text())
    except FileNotFoundError:
        raise InputError(
            "missing data/thresholds.json; run tools/pin_thresholds.py to create it"
        )


def _pinned(section: str, entry: str, key: str) -> float:
    """The committed threshold under key, or NaN while key is not pinned."""
    rec = load_thresholds()[section].get(key)
    return float("nan") if rec is None else float(rec[entry])


def _above_floor(name, value, key, **details) -> CheckResult:
    """Oracle check: value >= the floor pinned under key."""
    floor = _pinned("quasinormal_floors", "floor", key)
    return _ge(name, value, floor, "oracle", key=key, **details)


def _quasinormal_floor(name, ev, key) -> CheckResult:
    """`_above_floor` for a quasinormality defect, with the bound on its
    error where it was solved (None where it read a block)."""
    return _above_floor(name, ev.defect, key, remainder_bound=ev.remainder_bound)


def _below_ceiling(name, value, key, **details) -> CheckResult:
    """Oracle check: value <= the ceiling pinned under key."""
    ceiling = _pinned("mineig_ceilings", "ceiling", key)
    return _le(name, value, ceiling, "oracle", key=key, **details)


#: The open run's evidence by key (see `_once`); None outside a run.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("memo", default=None)


@contextlib.contextmanager
def _run_scope():
    """Open a memo for the scenarios run inside, unless one is open already;
    it is dropped on leaving the scope that opened it."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _once(fn, op: OperatorSpec, space, *args):
    """fn(op, space, *args), computed once in the open run for each key of
    the function, the weight's normal form, the symbol, the space and args:
    every input the probes read of the operator."""
    memo = _MEMO.get()
    key = (fn, eliminate_precompose(op.weight), op.symbol, space, args)
    if key not in memo:
        memo[key] = fn(op, space, *args)
    return memo[key]


# -- scenario bodies ----------------------------------------------------------


def _s1(ov: Overrides) -> tuple[list[CheckResult], dict]:
    N = ov.order(24)
    maps = (
        ("half-shift", HALF_SHIFT, ov.work(160)),
        ("quarter-shrink", QUARTER_SHRINK, ov.work(160)),
        ("parabolic", PARABOLIC_ONE, ov.work(320)),
    )
    checks = []
    for space in THREE_SPACES:
        for label, m, M in maps:
            direct = adjoint_block(build_block(composition(m), space, N, N))
            word = word_block(cowen_adjoint_word(m, space), space, N, M)
            resid = float(np.linalg.norm(direct.entries - word.entries, 2))
            checks.append(
                _le(
                    f"adjoint-residual.{space.label()}.{label}",
                    resid,
                    1e-6,
                    "analytic",
                    M=M,
                )
            )
    return checks, {"N": N}


def _s2(ov: Overrides) -> tuple[list[CheckResult], dict]:
    M = ov.work(400)
    res = eigen_residual(
        np.array(ZETA_GRID)[:, None, None],
        np.array(T_GRID)[None, :, None],
        np.array(DEFAULT_BETA_GRID)[None, None, :],
        M,
    )
    # the first largest residual in (zeta, t, beta) order
    i, j, k = np.unravel_index(np.argmax(res), res.shape)
    zeta, t, beta = complex(ZETA_GRID[i]), complex(T_GRID[j]), float(DEFAULT_BETA_GRID[k])
    checks = [
        _le(
            "eigen-residual-worst",
            float(res[i, j, k]),
            1e-9,
            "exact",
            grid_size=res.size,
            worst_at=[[zeta.real, zeta.imag], [t.real, t.imag], beta],
        )
    ]
    spiral = spiral_curve(1.0 + 0.5j)
    checks.append(
        _info(
            "spiral-samples.t=1+0.5j",
            [[b, [v.real, v.imag]] for b, v in spiral],
            "eigenvalue samples exp(-beta t); 0 is the limit point",
        )
    )
    return checks, {"M": M}


def _s3(ov: Overrides) -> tuple[list[CheckResult], dict]:
    steps = 20
    checks = []
    for t in (1.0 + 0j, 1.0 + 1j):
        phi = parabolic_from(1.0, t)
        sups = []
        semigroup_worst = 0.0
        for n in range(1, steps + 1):
            it = phi.iterate(n)
            center, radius = it.image_circle()
            sups.append(abs(center - 1.0) + radius)
            semigroup_worst = max(
                semigroup_worst, projective_distance(it, parabolic_from(1.0, n * t))
            )
        label = f"t={t.real:g}{t.imag:+g}j"
        decreasing = all(x > y for x, y in zip(sups, sups[1:]))
        checks.append(
            _flag(
                f"sup-distance-strictly-decreasing.{label}",
                decreasing,
                "sup |phi_n - 1| on the unit circle strictly decreasing, n=1..20",
                "exact",
                sups=[float(s) for s in sups],
            )
        )
        checks.append(
            _le(
                f"sup-distance-final.{label}",
                sups[-1],
                0.2,
                "analytic",
                closed_form=2.0 / (1.0 + steps * t.real),
            )
        )
        checks.append(
            _le(
                f"iterate-semigroup-residual.{label}",
                semigroup_worst,
                1e-9,
                "exact",
            )
        )
    return checks, {"steps": steps}


def _s4(ov: Overrides) -> tuple[list[CheckResult], dict]:
    N, M = ov.order(16), ov.work(320)
    checks = []
    for space in THREE_SPACES:
        for psi_label, weight in s4_weights(space):
            op = weighted(weight, AFFINE_HALF)
            checks.append(
                _quasinormal_floor(
                    f"quasinormal-defect.{space.label()}.{psi_label}",
                    _once(quasinormality_evidence, op, space, N, M),
                    f"S4.{space.label()}.{psi_label}",
                )
            )
    return checks, {"N": N, "M": M}


def _s5(ov: Overrides) -> tuple[list[CheckResult], dict]:
    N, M = ov.order(12), ov.work(64)
    Nq, Mq = ov.order(16), ov.work(320)
    checks = []
    lams = (("i", 1j), ("half", 0.5 + 0j), ("irrational", np.exp(1j * np.pi * np.sqrt(2.0))))
    for space in THREE_SPACES:
        for lam_label, lam in lams:
            op = composition(rotation(lam))
            # M may be below the commutator's least order 2N + 16; where the
            # commutator reads a block, it is then of that order
            ev = quasinormality_evidence(op, space, N, max(M, 2 * N + 16))
            tag = f"{space.label()}.lam-{lam_label}"
            checks.append(
                _le(
                    f"quasinormal-defect.{tag}",
                    ev.defect,
                    1e-12,
                    "analytic",
                    remainder_bound=ev.remainder_bound,
                )
            )
            norm = hyponormality_probe(op, space, N, M).norm
            checks.append(_le(f"selfcommutator-norm.{tag}", norm, 1e-12, "analytic"))
        checks.append(
            _quasinormal_floor(
                f"quasinormal-defect.{space.label()}.half-shift",
                quasinormality_evidence(composition(HALF_SHIFT), space, Nq, Mq),
                f"S5.{space.label()}.half-shift",
            )
        )
    return checks, {"N": N, "M": M, "N_halfshift": Nq, "M_halfshift": Mq}


def _s6(ov: Overrides) -> tuple[list[CheckResult], dict]:
    N, M = ov.order(24), ov.work(200)
    checks = []
    for space in THREE_SPACES:
        v = unitary_defect(weighted(s6_weight(space), HYPERBOLIC_AUTO), space, N, M)
        checks.append(_le(f"unitary-defect.{space.label()}", v, 1e-6, "analytic"))
    return checks, {"N": N, "M": M}


def _s7(ov: Overrides) -> tuple[list[CheckResult], dict]:
    sp = hardy()
    N, M = ov.order(24), ov.work(160)
    checks = []
    adj = adjoint_block(build_block(SADRAOUI, sp, N, N))
    # the adjoint is the composition with the Krein adjoint of the half-shift
    direct = build_block(composition(AFFINE_HALF), sp, N, N)
    checks.append(
        _le(
            "adjoint-is-composition-residual",
            float(np.linalg.norm(adj.entries - direct.entries, 2)),
            1e-6,
            "analytic",
        )
    )

    contraction = (plain(toeplitz(ETA)), plain(composition(TAU)))
    dw = douglas_witness(contraction, SADRAOUI, sp, N, M)
    checks.append(
        _le(
            "factorization-residual",
            float(np.linalg.norm(direct.entries - dw.ca, 2)),
            1e-6,
            "analytic",
        )
    )

    # the smaller compressions are leading sub-blocks of the largest one
    orders = (ov.order(8), ov.order(16), ov.order(32))
    c = word_block(contraction, sp, orders[-1], max(M, 2 * orders[-1])).entries
    norms = [(n, float(np.linalg.norm(c[: n + 1, : n + 1], 2))) for n in orders]
    checks.append(
        _flag(
            "contraction-norm-nondecreasing",
            all(x[1] <= y[1] + 1e-12 for x, y in zip(norms, norms[1:])),
            "operator norm estimates nondecreasing in N",
            "analytic",
            norms=[[n, v] for n, v in norms],
        )
    )
    checks.append(_ge("contraction-norm-final", norms[-1][1], 0.90, "analytic"))
    checks.append(_norm_cap("contraction-norm-cap", norms[-1][1]))

    ev = hyponormality_probe(SADRAOUI, sp, ov.order(16), max(M, 160))
    tail = _finite_or_none(ev.tail_bound)
    checks.append(_ge("selfcommutator-min-eig", ev.min_eig, -1e-6, "analytic", tail_bound=tail))

    checks.append(_le("douglas-residual", dw.residual, 1e-6, "analytic"))
    checks.append(_norm_cap("douglas-norm", dw.norm_estimate))
    return checks, {"N": N, "M": M}


def _s8(ov: Overrides) -> tuple[list[CheckResult], dict]:
    sp = hardy()
    N, M = ov.order(16), ov.work(160)
    Mq = ov.work(320)
    sigma = AFFINE_HALF
    sigma_inv = sigma.inverse()              # 2z - 1
    checks = []
    for label, f, g, inv_f in S8_CASES:
        comp = taylor(PrecomposeMoebius(g, sigma), 64).coeffs
        ref = taylor(f, 64).coeffs
        checks.append(
            _le(
                f"g-compose-sigma-equals-f.{label}",
                float(np.max(np.abs(comp - ref))),
                1e-12,
                "exact",
            )
        )
        # |g| <= |f| on the circle every weight is spot-checked on
        margin = np.max(np.abs(evaluate(g, WEIGHT_GRID)) - np.abs(evaluate(f, WEIGHT_GRID)))
        checks.append(
            _le(f"g-dominated-by-f.{label}", float(margin), 1e-12, "analytic")
        )

        op = s8_operator(f)
        ev = hyponormality_probe(op, sp, N, max(M, 160))
        checks.append(
            _ge(
                f"selfcommutator-min-eig.{label}",
                ev.min_eig,
                -1e-6,
                "analytic",
                tail_bound=_finite_or_none(ev.tail_bound),
            )
        )
        quasi = quasinormality_evidence(op, sp, N, Mq)
        checks.append(_quasinormal_floor(f"quasinormal-defect.{label}", quasi, f"S8.hardy.{label}"))

        contraction = (
            plain(toeplitz(ETA)),
            plain(composition(TAU)),
            adjoint_letter(toeplitz(g)),
            plain(toeplitz(inv_f)),
        )
        dw = douglas_witness(contraction, op, sp, N, M)
        checks.append(_le(f"douglas-residual.{label}", dw.residual, 1e-6, "analytic"))
        checks.append(_norm_cap(f"douglas-norm.{label}", dw.norm_estimate))
    sanity = projective_distance(sigma_inv.compose(sigma), identity())
    checks.append(_le("sigma-inverse-sanity", sanity, 1e-12, "exact"))
    return checks, {"N": N, "M": M, "M_quasinormal": Mq}


def _hyponormality_cases(ov: Overrides, scenario: str, cases) -> tuple[list[CheckResult], dict]:
    """Pinned self-commutator ceiling and kernel witness for each
    (space, label, operator) case; S9 and S10 differ only in their cases."""
    N, M = ov.order(16), ov.work(320)
    checks = []
    for space, label, op in cases:
        ev = _once(hyponormality_probe, op, space, N, M)
        checks.append(
            _below_ceiling(
                f"selfcommutator-min-eig.{space.label()}.{label}",
                ev.min_eig,
                f"{scenario}.{space.label()}.{label}",
                certificate=ev.certificate,
            )
        )
        checks.append(
            _kernel_witness(
                f"kernel-witness-min-chi.{space.label()}.{label}",
                _once(kernel_condition_probe, op, space),
            )
        )
    return checks, {"N": N, "M": M}


def _s9(ov: Overrides) -> tuple[list[CheckResult], dict]:
    return _hyponormality_cases(
        ov,
        "S9",
        [(sp, label, composition(m)) for sp in THREE_SPACES for label, m in S9_SYMBOLS],
    )


def _s10(ov: Overrides) -> tuple[list[CheckResult], dict]:
    return _hyponormality_cases(
        ov,
        "S10",
        [
            (sp, label, weighted(weight, AFFINE_HALF))
            for sp in THREE_SPACES
            for label, weight in s10_weights(sp)
        ],
    )


def s11_operator(space, t: float) -> tuple[OperatorSpec, complex]:
    """S11's operator for translation number t and its kernel point w0: the
    parabolic symbol fixing 1, weighted by the kernel at w0 = sigma(0)."""
    phi = parabolic_from(1.0, t)
    w0 = phi.krein_adjoint().apply(0.0)
    return weighted(kernel_expr(space, w0), phi), w0


def s11_orders(ov: Overrides) -> list[tuple[int, int]]:
    """S11's (N, M) pairs, one per truncation order of the trend."""
    orders = [ov.order(n) for n in (8, 12, 16, 20, 24)]
    return [(n, ov.work(max(8 * n, 320))) for n in orders]


def _s11(ov: Overrides) -> tuple[list[CheckResult], dict]:
    checks = []
    pairs = s11_orders(ov)
    orders = [n for n, _ in pairs]
    for space in THREE_SPACES:
        for t in (1.0, 2.0):
            op, w0 = s11_operator(space, t)
            sweep = defect_sweep(op, space, pairs)
            tag = f"{space.label()}.t={t:g}"
            checks.append(
                _info(
                    f"selfadjoint-defect-trend.{tag}",
                    [d for d, _ in sweep],
                    f"selfadjoint defect across N={orders}",
                    kernel_point=[w0.real, w0.imag],
                )
            )
            checks.append(
                _info(
                    f"normality-defect-trend.{tag}",
                    [ev.norm for _, ev in sweep],
                    f"selfcommutator norm across N={orders}",
                )
            )
    return checks, {"orders": orders}


_SCENARIOS = (
    Scenario(
        "S1-cowen-adjoint",
        "The adjoint of a composition operator with linear fractional self-map "
        "symbol factors as T_g C_sigma T_h* with sigma the Krein adjoint map "
        "and g, h explicit kernel-type weights.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s1,
    ),
    Scenario(
        "S2-parabolic-eigen",
        "For a parabolic symbol with translation number t, every beta >= 0 "
        "gives a bounded eigenfunction with eigenvalue exp(-beta t), tracing "
        "a spiral into 0.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s2,
    ),
    Scenario(
        "S3-uniform-iteration",
        "Iterates of a parabolic non-automorphism converge to the boundary "
        "fixed point uniformly on the closed disk.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s3,
    ),
    Scenario(
        "S4-nonparabolic-defect",
        "Weighted composition operators whose symbol is of hyperbolic type "
        "have strictly positive quasinormality defect.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s4,
    ),
    Scenario(
        "S5-rotation-quasinormal",
        "Composition operators with rotation-dilation symbol lambda z are "
        "normal, hence quasinormal; a non-rotation symbol fixing 0 already "
        "has strictly positive defect.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s5,
    ),
    Scenario(
        "S6-unitary-weight",
        "A hyperbolic automorphism symbol admits an explicit kernel-multiple "
        "weight making the weighted composition operator unitary.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s6,
    ),
    Scenario(
        "S7-sadraoui",
        "For the half-shift symbol with its natural weight, the adjoint of "
        "T_psi C_phi is itself a composition operator, factorizable through a "
        "norm-one product, making the operator hyponormal.",
        False,
        ("hardy",),
        _s7,
    ),
    Scenario(
        "S8-thm38",
        "Extra analytic weights f with g = f o sigma^(-1) bounded and "
        "|g| <= |f| on the disk keep the weighted composition operator "
        "hyponormal yet never quasinormal.",
        False,
        ("hardy",),
        _s8,
    ),
    Scenario(
        "S9-zorboska",
        "A hyponormal composition operator must fix the origin: symbols with "
        "phi(0) != 0 produce negative self-commutator and kernel certificates.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s9,
    ),
    Scenario(
        "S10-hyperbolic-nonauto",
        "No bounded weight rescues a hyperbolic-type symbol: every sampled "
        "weight yields a negative hyponormality certificate.",
        False,
        ("hardy", "bergman:0", "bergman:1"),
        _s10,
    ),
    Scenario(
        "S11-parabolic-kernel-weight",
        "Exploratory: parabolic symbol with Krein-kernel weight; self-adjoint "
        "and normality defects are recorded across truncation orders without "
        "assertion.",
        True,
        ("hardy", "bergman:0", "bergman:1"),
        _s11,
    ),
)

REGISTRY: dict[str, Scenario] = {s.scenario_id: s for s in _SCENARIOS}

#: Alternate ids accepted by run_scenario.
ALIASES = {"S8-thm38-expweight": "S8-thm38"}


def list_scenarios() -> list[tuple[str, str]]:
    return [(s.scenario_id, s.claim) for s in _SCENARIOS]


def run_scenario(scenario_id: str, overrides: Overrides | None = None) -> ScenarioReport:
    sid = ALIASES.get(scenario_id, scenario_id)
    if sid not in REGISTRY:
        known = ", ".join(REGISTRY)
        raise UnknownScenarioError(f"unknown scenario {scenario_id!r}; known: {known}")
    sc = REGISTRY[sid]
    ov = overrides or Overrides()
    start = time.perf_counter()
    with _run_scope():
        checks, orders = sc.runner(ov)
    runtime = time.perf_counter() - start
    if sc.exploratory:
        verdict = "REPORT"
    else:
        verdict = "PASS" if all(c.passed for c in checks if c.passed is not None) else "FAIL"
    return ScenarioReport(
        scenario_id=sc.scenario_id,
        claim=sc.claim,
        verdict=verdict,
        checks=tuple(checks),
        spaces=sc.spaces,
        orders=orders,
        runtime_s=runtime,
    )


def run_all(overrides: Overrides | None = None) -> list[ScenarioReport]:
    """Every scenario in order, in one run: evidence an earlier scenario
    computed is not computed again, nor counted in a later one's runtime_s."""
    with _run_scope():
        return [run_scenario(sid, overrides) for sid, _ in list_scenarios()]
