"""Spectral diagnostics for truncated composition operators.

Eigenvalues of a truncation are labeled diagnostic throughout: compressions
of these non-normal operators can have spectra far from the operator's, so
nothing here asserts convergence of eigenvalue clouds.  Two quantities do
carry meaning at finite order and are used by the scenario suite:

  * the eigenfunction residual of the parabolic spiral, an exact series
    identity that holds to rounding at any truncation order, and
  * the Gelfand sequence ||A^k||^(1/k) on compressions, an upper-spectral
    diagnostic evaluated without forming any infinite product.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mobius import parabolic_from
from .opmat import OperatorSpec, TruncatedBlock, _columns, plain, shapeable_order, working_order
from .series import (
    AnalyticExpr,
    Exp,
    Poly,
    Rational,
    _substitute_poly,
    rational_series,
)
from .space import SpaceSpec

#: Default beta grid for spiral sampling: {0} plus powers of two.
DEFAULT_BETA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

#: Largest order of a root of unity that `rotation_spectrum` recognizes.
ROOT_ORDER_LIMIT = 256


def truncation_eigenvalues(block: TruncatedBlock) -> np.ndarray:
    """Eigenvalues of the leading square part by decreasing modulus; moduli
    within 1e-10 of the largest tie and list by imaginary, then real part.

    Diagnostic only: truncation spectra of non-normal operators need not
    approximate the operator's spectrum.
    """
    k = min(block.entries.shape)
    eigs = np.linalg.eigvals(block.entries[:k, :k])
    eigs = eigs[np.argsort(-np.abs(eigs))]
    mod = np.abs(eigs)
    tier = np.cumsum(np.diff(mod, prepend=np.inf) < -1e-10 * mod.max(initial=0.0))
    return eigs[np.lexsort((eigs.real, eigs.imag, tier))]


def spiral_curve(
    t: complex, beta_grid: tuple[float, ...] | list | None = None
) -> list[tuple[float, complex]]:
    """Samples (beta, e^(-beta t)) of the logarithmic spiral traced by the
    eigenvalues of a parabolic composition operator; 0 is the limit point."""
    t = complex(t)
    if t.real < 0.0:
        raise InputError("translation number must have Re t >= 0")
    if beta_grid is None:
        beta_grid = DEFAULT_BETA_GRID
    out = []
    for beta in beta_grid:
        beta = float(beta)
        if beta < 0.0:
            raise InputError("spiral parameter beta must be nonnegative")
        out.append((beta, cmath.exp(-beta * t)))
    return out


def parabolic_eigenpair(
    zeta: complex, t: complex, beta: float
) -> tuple[AnalyticExpr, complex]:
    """Eigenfunction and eigenvalue of the composition operator with
    parabolic symbol fixed(zeta), translation number t.

    The function exp(-beta * (1 + conj(zeta) z)/(1 - conj(zeta) z)) is bounded
    on the disk for beta >= 0 and satisfies f o phi = e^(-beta t) f as an
    identity of analytic functions.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise InputError("fixed point must lie on the unit circle")
    zeta = zeta / abs(zeta)
    beta = float(beta)
    if beta < 0.0:
        raise InputError("beta must be nonnegative")
    zc = zeta.conjugate()
    f = Exp(Rational(Poly((-beta, -beta * zc)), Poly((1.0, -zc))))
    return f, cmath.exp(-beta * complex(t))


def eigen_residual(zeta, t, beta, order: int = 400):
    """Relative max-coefficient residual of f o phi = e^(-beta t) f through
    the given order; rounding-level for all valid parameters.

    zeta, t and beta broadcast against each other, and the residuals take
    their broadcast shape (a float when all three are scalars).  Every
    eigenfunction of `parabolic_eigenpair` is exp(N/D) with N and D of
    degree one, so the whole grid takes two batched recurrences: one
    `rational_series("exp")` over the stacked (N, D) gives every f, and one
    over their substitutions by phi, one map per (zeta, t), gives every
    f o phi.  Each point's residual is then formed from its own contiguous
    coefficient rows, so it does not depend on the grid around it.
    """
    if order < 0:
        raise InputError("taylor order must be nonnegative")
    shapeable_order(order)
    grid = np.broadcast(np.asarray(zeta), np.asarray(t), np.asarray(beta))
    maps: dict = {}
    lams, num, den = [], [], []
    for z, tt, b in grid:
        key = (complex(z), complex(tt))
        if key not in maps:
            maps[key] = (parabolic_from(*key), [])
        maps[key][1].append(len(lams))
        f, lam = parabolic_eigenpair(z, tt, b)
        lams.append(lam)
        num.append(f.arg.num.coeffs)
        den.append(f.arg.den.coeffs)
    num, den = np.array(num).T, np.array(den).T
    D = max(len(num), len(den)) - 1
    sub_num, sub_den = np.empty_like(num), np.empty_like(den)
    for phi, cols in maps.values():
        sub_num[:, cols] = _substitute_poly(num[:, cols], phi, D)
        sub_den[:, cols] = _substitute_poly(den[:, cols], phi, D)
    lhs = np.ascontiguousarray(rational_series("exp", sub_num, sub_den, int(order)).T)
    rhs = np.ascontiguousarray(rational_series("exp", num, den, int(order)).T)
    out = np.empty(len(lams))
    for i, lam in enumerate(lams):
        r = lam * rhs[i]
        scale = float(np.max(np.abs(r)))
        if scale == 0.0:
            scale = 1.0
        out[i] = np.max(np.abs(lhs[i] - r)) / scale
    return float(out[0]) if grid.shape == () else out.reshape(grid.shape)


@dataclass(frozen=True)
class RotationSpectrum:
    """Closure of the eigenvalue set {lam^n} of a rotation-dilation symbol."""

    kind: str  # "finite-cyclic" | "unit-circle" | "powers-with-zero"
    points: tuple[complex, ...]
    lam: complex


def rotation_spectrum(lam: complex) -> RotationSpectrum:
    """Spectrum of C_{lam z} on any of the spaces here, |lam| <= 1.

    A root of unity of order at most ROOT_ORDER_LIMIT gives the finite
    cyclic group it generates; other unimodular lam give the whole circle
    (sampled); |lam| < 1 gives the closure {lam^n : n >= 0} together with 0.
    """
    lam = complex(lam)
    mod = abs(lam)
    if mod > 1.0 + 1e-12:
        raise InputError("rotation-dilation factor must satisfy |lam| <= 1")
    if abs(mod - 1.0) <= 1e-12:
        p = 1.0 + 0j
        for k in range(1, ROOT_ORDER_LIMIT + 1):
            p *= lam
            if abs(p - 1.0) <= 1e-12:
                pts = tuple(lam ** j for j in range(k))
                return RotationSpectrum("finite-cyclic", pts, lam)
        samples = tuple(
            cmath.exp(2j * cmath.pi * j / 64.0) for j in range(64)
        )
        return RotationSpectrum("unit-circle", samples, lam)
    pts = [1.0 + 0j]
    while abs(pts[-1]) > 1e-16 and len(pts) < 1024:
        pts.append(pts[-1] * lam)
    pts.append(0j)
    return RotationSpectrum("powers-with-zero", tuple(pts), lam)


def spectral_radius_estimate(
    op: OperatorSpec,
    space: SpaceSpec,
    N: int,
    k_max: int,
    M: int | None = None,
) -> list[float]:
    """Gelfand sequence ||P_N A^k P_N||^(1/k) for k = 1..k_max.

    Powers are taken on the order-M square block and compressed afterwards,
    so each term sees the operator at full working order.  A lower-triangular
    A (see `WordLetter.triangular`) has P_N A^k P_N = (P_N A P_N)^k exactly,
    so its powers are taken on the order-N block.
    """
    if k_max < 1:
        raise InputError("need k_max >= 1")
    M = working_order(N, [op], M, least=N)
    K = N if plain(op).triangular else M
    s = _columns(op, space, K, K)
    x = np.ascontiguousarray(s[:, : N + 1])
    vals = []
    for k in range(1, k_max + 1):
        vals.append(float(np.linalg.norm(x[: N + 1, :], 2)) ** (1.0 / k))
        if k < k_max:
            x = s @ x
    return vals

