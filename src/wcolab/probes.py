"""Structural probes: self-commutators, normality-class defects, adjoint
factorization witnesses, and the reproducing-kernel hyponormality test.

All probes report order-N compressions.  The Gram pair that the
self-commutator, unitary and sweep probes read comes from
`opmat.gram_blocks`: for a rational weight on a space with an integer
kernel exponent its AA* half, and on the Hardy space its A*A half too, is a
Stein solve with no working order, and only a half that reads a block, like
the quasinormality commutator and the Douglas witness, depends on the
internal order M.  Sign conventions: the self-commutator block is (compression of
A*A) - (compression of AA*), so a hyponormal operator gives a positive
semidefinite block up to truncation, and a negative eigenvalue beyond the
tail bound certifies non-hyponormality (compressions of PSD operators are
PSD).  Nonnegativity, by contrast, is evidence only, never a proof.

The kernel test uses the adjoint identity A* K_w = conj(weight(w)) K_symbol(w):
chi(w) = ||A K_w||^2 - ||A* K_w||^2 is nonnegative whenever ||A* f|| <= ||A f||
holds for every f, so chi(w) < 0 beyond tolerance is another certificate of
non-hyponormality, one that needs no matrix truncation at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mobius import identity
from .opmat import (
    GramPair,
    OperatorSpec,
    OperatorWord,
    _apply_word,
    _columns,
    _gram,
    _reads_blocks,
    _stein_weight,
    gram_blocks,
    is_boundary_touching,
    working_order,
)
from .series import (
    _poly_mul,
    _substitute_poly,
    eliminate_precompose,
    evaluate,
    rational_series,
    tail_diagnostics,
    taylor,
)
from .space import SpaceSpec, kernel_base, kernel_norm_sq

#: Extra eigenvalue slack for solver rounding on order-one matrices.
ROUNDING_SLACK = 1e-12

#: Default starting series order for the kernel test, doubled on slow decay.
KERNEL_PROBE_ORDER = 512
KERNEL_PROBE_MAX_ORDER = 2048

#: Default w-grid: 8 radii by 16 angles.
KERNEL_GRID_RADII = 8
KERNEL_GRID_ANGLES = 16


def _spectral_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2))


def _unitary_gap(pair: GramPair) -> float:
    """max(||G1 - I||, ||G2 - I||)."""
    eye = np.eye(len(pair.g1))
    return max(_spectral_norm(pair.g1 - eye), _spectral_norm(pair.g2 - eye))


def _quasinormal_least(N: int) -> int:
    """Least working order of the quasinormality commutator: 16 rows beyond
    2N, so it sees the operator past the reported window."""
    return 2 * N + 16


@dataclass(frozen=True)
class HyponormalityEvidence:
    min_eig: float
    norm: float  # spectral norm of the self-commutator block
    tail_bound: float
    certificate: bool  # True when min_eig is negative beyond bound + slack
    N: int
    M: int


def hyponormality_probe(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> HyponormalityEvidence:
    """Minimum eigenvalue and norm of the self-commutator block.

    A value below -(tail_bound + slack) certifies non-hyponormality; a
    nonnegative value is consistent with hyponormality but proves nothing.
    """
    M = working_order(N, [op], M)
    return _selfcomm_evidence(gram_blocks(op, space, N, M), N, M)


def _selfcomm_evidence(pair: GramPair, N: int, M: int) -> HyponormalityEvidence:
    """Evidence from the self-commutator block G1 - G2 of a Gram pair, exactly
    Hermitian with G1 and G2."""
    h = pair.g1 - pair.g2
    min_eig = float(np.linalg.eigvalsh(h)[0])
    norm = _spectral_norm(h)
    bound, slack = pair.tail_bound, ROUNDING_SLACK * max(1.0, norm)
    cert = math.isfinite(bound) and min_eig < -(bound + slack)
    return HyponormalityEvidence(min_eig, norm, bound, cert, N, M)


def quasinormality_defect(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> float:
    """Norm of the order-N compression of A(A*A) - (A*A)A.

    Computed on a square block of order M >= 2N + 16 before compressing, so
    the commutator sees the operator well beyond the reported window.
    """
    M = working_order(N, [op], M, least=_quasinormal_least(N))
    return _quasinormal_commutator_norm(_columns(op, space, M, M), N)


def _quasinormal_commutator_norm(s: np.ndarray, N: int) -> float:
    """||P_N (S S*S - S*S S) P_N|| in O(M^2 N): u = P_N S*S is formed once,
    and S*S P_N is its adjoint."""
    tall = s[:, : N + 1]
    u = tall.conj().T @ s
    d = s[: N + 1] @ u.conj().T - u @ tall
    return _spectral_norm(d)


def selfadjoint_defect(op: OperatorSpec, space: SpaceSpec, N: int) -> float:
    """Norm of S - S* on the order-N square block (entries are exact)."""
    return _selfadjoint_gap(_columns(op, space, N, N))


def _selfadjoint_gap(s: np.ndarray) -> float:
    return _spectral_norm(s - s.conj().T)


def defect_sweep(
    op: OperatorSpec, space: SpaceSpec, orders: list[tuple[int, int | None]]
) -> list[tuple[float, HyponormalityEvidence]]:
    """`selfadjoint_defect(op, space, N)` and `hyponormality_probe(op, space,
    N, M)` at every (N, M) in `orders`, bit for bit.  Each order solves its
    own Gram pair: a slice of a larger order's Stein solution is not the
    smaller solve.  A half that reads a block slices it from one block per
    distinct working order M, built to the largest N that uses it, and the
    self-adjoint defects slice one order-N corner: every top left sub-block
    of a block is the smaller block."""
    if not orders:
        return []
    Ms = [working_order(N, [op], M) for N, M in orders]
    top = {M: max(N for (N, _), m in zip(orders, Ms) if m == M) for M in Ms}
    reads_tall, reads_wide = _reads_blocks(_stein_weight(op, space), space)
    tall = {M: _columns(op, space, M, n) for M, n in top.items()} if reads_tall else {}
    wide = {M: _columns(op, space, n, M) for M, n in top.items()} if reads_wide else {}
    n = max(top.values())
    corner = _columns(op, space, n, n)
    out = []
    for (N, _), M in zip(orders, Ms):
        pair = _gram(
            op,
            space,
            N,
            M,
            np.ascontiguousarray(tall[M][:, : N + 1]) if tall else None,
            wide[M][: N + 1] if wide else None,
        )
        out.append((_selfadjoint_gap(corner[: N + 1, : N + 1]), _selfcomm_evidence(pair, N, M)))
    return out


def unitary_defect(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> float:
    """max(||A*A - I||, ||AA* - I||) on order-N compressions."""
    return _unitary_gap(gram_blocks(op, space, N, M))


@dataclass(frozen=True)
class DefectReport:
    """One-stop summary of the normality-class defects of an operator."""

    hyponormality: HyponormalityEvidence
    quasinormal_defect: float
    selfadjoint_defect: float
    unitary_defect: float
    flags: tuple[str, ...]


def defect_report(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> DefectReport:
    """Every defect from one square block of order max(M, 2N + 16): the Gram
    pair of `gram_blocks`, where it reads a block, reads its rows <= M and
    columns <= M, the quasinormality defect all of it, the self-adjoint
    defect its order-N corner."""
    M = working_order(N, [op], M)
    K = max(M, _quasinormal_least(N))
    s = _columns(op, space, K, K)
    pair = _gram(op, space, N, M, s[: M + 1, : N + 1], s[: N + 1, : M + 1])
    ev = _selfcomm_evidence(pair, N, M)
    flags = []
    if is_boundary_touching(op):
        flags.append("boundary-touching-symbol")
    if math.isfinite(pair.tail_bound) and abs(ev.min_eig) <= pair.tail_bound:
        flags.append("min-eig-within-tail-bound")
    if not math.isfinite(pair.tail_bound):
        flags.append("tail-bound-unavailable")
    return DefectReport(
        hyponormality=ev,
        quasinormal_defect=_quasinormal_commutator_norm(s, N),
        selfadjoint_defect=_selfadjoint_gap(s[: N + 1, : N + 1]),
        unitary_defect=_unitary_gap(pair),
        flags=tuple(flags),
    )


@dataclass(frozen=True, eq=False)
class DouglasWitness:
    """Range-inclusion witness: a word C with A* ~ C A and ||C|| <= 1 shows
    ran(A*) is contained in ran(A), the operator-theoretic footprint of
    hyponormality.  ca is the order-N compression of C A."""

    norm_estimate: float
    residual: float
    ca: np.ndarray
    N: int
    M: int


def douglas_witness(
    contraction: OperatorWord,
    op: OperatorSpec,
    space: SpaceSpec,
    N: int,
    M: int | None = None,
) -> DouglasWitness:
    """Check ||C|| <= 1 and A* = C A at order N for a candidate word C, by
    one sweep of C over the panels P_N and A's tall block; A* is its
    corner's adjoint."""
    word = tuple(contraction)
    M = working_order(N, [w.op for w in word] + [op], M)
    tall = _columns(op, space, M, N)
    c, ca = _apply_word(word, space, N, M, [np.eye(M + 1, N + 1), tall])
    residual = _spectral_norm(ca - tall[: N + 1].conj().T)
    return DouglasWitness(_spectral_norm(c), residual, ca, N, M)


@dataclass(frozen=True)
class KernelProbePoint:
    w: complex
    chi: float
    order: int
    slow_decay: bool


def default_kernel_grid() -> list[complex]:
    """8 radii from 0.1 to 0.95 times 16 equally spaced angles."""
    radii = np.linspace(0.1, 0.95, KERNEL_GRID_RADII)
    angles = 2.0 * np.pi * np.arange(KERNEL_GRID_ANGLES) / KERNEL_GRID_ANGLES
    return [complex(r * np.cos(t), r * np.sin(t)) for r in radii for t in angles]


def kernel_condition_probe(
    op: OperatorSpec,
    space: SpaceSpec,
    w_grid: list[complex] | None = None,
    order: int = KERNEL_PROBE_ORDER,
) -> list[KernelProbePoint]:
    """Evaluate chi(w) = ||A K_w||^2 - ||A* K_w||^2 over a grid of kernel points.

    The first term is a series norm of weight * (K_w o symbol) (truncated,
    hence a slight undercount); the second is exact from the reproducing
    identity A* K_w = conj(weight(w)) K_symbol(w).  chi(w) < 0 beyond
    tolerance certifies non-hyponormality, but only at a point whose series
    is not slow-decaying at KERNEL_PROBE_MAX_ORDER: there the undercount is
    unbounded (see `certified_min_chi`).

    The whole grid is expanded at once.  K_w o symbol is (N_w / D)^(-gamma)
    with D = d + cz the same for every w: one `kernel_base` call stacks the
    bases of the kernels along a batch axis and one `_substitute_poly` call
    substitutes them, so one short recurrence gives every point's
    series, and the weight's series, computed once per order, is convolved
    into the whole batch, which `tail_diagnostics` then judges column by
    column.  Per point, the order doubles up to the cap while the truncation
    is slow or too short to judge; only those points are expanded again.
    The second term is one array evaluation over the grid.
    """
    if w_grid is None:
        w_grid = default_kernel_grid()
    ws = np.array([complex(w) for w in w_grid], dtype=np.complex128)
    bases = kernel_base(ws)
    if not ws.size:
        return []
    phi = identity() if op.symbol is None else op.symbol
    num = _substitute_poly(bases, phi, 1)
    den = np.array([phi.d, phi.c])
    m = max(1, int(order))  # an order that doubling can raise
    lhs = np.zeros(len(ws))
    orders = np.zeros(len(ws), dtype=int)
    slow = np.zeros(len(ws), dtype=bool)
    pending = np.arange(len(ws))
    while pending.size:
        psi = taylor(op.weight, m).coeffs
        nonzero = np.flatnonzero(psi)
        psi = psi[: nonzero[-1] + 1 if nonzero.size else 1]  # exact zeros add nothing
        kern = rational_series("power", num[:, pending], den, m, -space.gamma)
        series = _poly_mul(psi[:, None], kern, m)
        td = tail_diagnostics(series)
        done = ~td.slow_decay | (m >= KERNEL_PROBE_MAX_ORDER)
        g = pending[done]
        lhs[g] = (np.abs(series[:, done]) ** 2 * space.basis_norms_sq(m)[:, None]).sum(axis=0)
        orders[g], slow[g] = m, td.slow_decay[done]
        pending = pending[~done]
        m *= 2
    weight = eliminate_precompose(op.weight)  # the form that `taylor` expands
    chi = lhs - np.abs(evaluate(weight, ws)) ** 2 * kernel_norm_sq(space, phi.apply(ws))
    return [
        KernelProbePoint(complex(w), float(c), int(o), bool(s))
        for w, c, o, s in zip(ws, chi, orders, slow)
    ]


def certified_min_chi(points: list[KernelProbePoint]) -> float | None:
    """Least chi over the points that were not slow-decaying at the order cap.

    At a slow point the truncated ||A K_w||^2 may miss an unknown share of
    the norm, which pushes chi down, so its chi certifies nothing.  The value
    is None when no point qualifies.
    """
    return min((p.chi for p in points if not p.slow_decay), default=None)
