"""Structural probes: self-commutators, normality-class defects, adjoint
factorization witnesses, and the reproducing-kernel hyponormality test.

All probes report order-N compressions.  The Gram pair that the
self-commutator, unitary and sweep probes read comes from
`opmat.gram_blocks`: for a rational weight on a space with an integer
kernel exponent its AA* half, and on the Hardy space its A*A half too, is a
Stein solve with no working order.  On the Hardy space the quasinormality
commutator of a rational weight is two cross-Gram Stein solves
(`opmat._stein_commutator`), with a bound on their remainder.  Only what
reads a block, like a Gram half or commutator that is not solved and the
Douglas witness, depends on the internal order M.  Sign conventions: the
self-commutator block is (compression of A*A) - (compression of AA*), so a
hyponormal operator gives a positive semidefinite block up to truncation,
and a negative eigenvalue beyond the tail bound certifies
non-hyponormality (compressions of PSD operators are PSD).  Nonnegativity,
by contrast, is evidence only, never a proof.

The kernel test uses the adjoint identity A* K_w = conj(weight(w)) K_symbol(w):
chi(w) = ||A K_w||^2 - ||A* K_w||^2 is nonnegative whenever ||A* f|| <= ||A f||
holds for every f, so chi(w) < 0 beyond tolerance is another certificate of
non-hyponormality, one that needs no matrix truncation at all.  For a
polynomial weight on a space with an integer kernel exponent, ||A K_w||^2
is summed in closed form too, with a bound on its rounding and quadrature
error; other weights and spaces read a truncated Taylor series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mobius import MoebiusMap, identity
from .opmat import (
    GramPair,
    OperatorSpec,
    OperatorWord,
    _apply_word,
    _columns,
    _gram,
    _reads_blocks,
    _reads_square,
    _stein_commutator,
    _stein_weight,
    gram_blocks,
    is_boundary_touching,
    working_order,
)
from .series import (
    AnalyticExpr,
    Poly,
    _poly_mul,
    _substitute_poly,
    _taylor,
    eliminate_precompose,
    evaluate,
    rational_series,
    tail_diagnostics,
)
from .space import HARDY, SpaceSpec, kernel_base, kernel_norm_sq

#: Extra eigenvalue slack for solver rounding on order-one matrices.
ROUNDING_SLACK = 1e-12

#: Default starting series order for the kernel test, doubled on slow decay.
KERNEL_PROBE_ORDER = 512
KERNEL_PROBE_MAX_ORDER = 2048

#: Relative error bound below which the kernel probe takes ||A K_w||^2 in
#: closed form; a point whose bound is larger reads the series.
KERNEL_EXACT_REL = 1e-13

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


@dataclass(frozen=True)
class QuasinormalityEvidence:
    defect: float  # spectral norm of the compressed commutator
    remainder_bound: float | None  # of a solved commutator; None for a block


def quasinormality_evidence(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> QuasinormalityEvidence:
    """Norm of D = P_N (A(A*A) - (A*A)A) P_N, with a bound on its error
    where D is solved.

    On the Hardy space, for a weight whose normal form is one Poly or
    Rational leaf, D is exact up to rounding and a Smith remainder: two
    cross-Gram Stein solves with no working order (`_stein_commutator`),
    whose bound on ||D - D_K||, the error beyond rounding, is
    `remainder_bound`.  M is then validated but unread.  Every other input, and a solve whose remainder factor does
    not fall below one, reads a square block of order M >= 2N + 16 before
    compressing, so the commutator sees the operator well beyond the
    reported window; its `remainder_bound` is None.
    """
    return _quasinormality(op, space, N, M)


def quasinormality_defect(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> float:
    """The defect of `quasinormality_evidence` alone."""
    return _quasinormality(op, space, N, M).defect


def _quasinormality(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None
) -> QuasinormalityEvidence:
    # both public probes do their work here, so that a tracer timing public
    # names (wcbench/tracer.py) sees it in whichever one was called
    M = working_order(N, [op], M, least=_quasinormal_least(N))
    return _commutator(op, space, N, M, _stein_weight(op, space))


def _commutator(
    op: OperatorSpec, space: SpaceSpec, N: int, K: int, leaf: tuple | None
) -> QuasinormalityEvidence:
    """The evidence of `quasinormality_evidence` at a validated order K, for
    the operator's `_stein_weight` leaf: solved where `_reads_square` says
    so and the solve's bound is finite, else from the square block of
    order K."""
    if not _reads_square(leaf, space):
        d, bound = _stein_commutator(*leaf, identity() if op.symbol is None else op.symbol, N)
        if math.isfinite(bound):
            return QuasinormalityEvidence(_spectral_norm(d), bound)
    s = _columns(op, space, K, K)
    return QuasinormalityEvidence(_quasinormal_commutator_norm(s, N), None)


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
    leaf = _stein_weight(op, space)
    reads_tall, reads_wide = _reads_blocks(leaf, space)
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
            leaf,
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
    """Every defect of the operator at order N, each as its own probe
    reports it.  Where `_reads_square` says the quasinormality commutator
    reads a block, one square block of order max(M, 2N + 16) serves every
    defect: the Gram pair of `gram_blocks`, where it reads a block, reads
    its rows <= M and columns <= M, the commutator all of it, the
    self-adjoint defect its order-N corner.  Where the commutator is solved
    (on the Hardy space, for a rational weight) so is the Gram pair, and the
    order-N corner is the one block built."""
    M = working_order(N, [op], M)
    K = max(M, _quasinormal_least(N))
    leaf = _stein_weight(op, space)
    if _reads_square(leaf, space):
        s = _columns(op, space, K, K)
        pair = _gram(op, space, N, M, leaf, s[: M + 1, : N + 1], s[: N + 1, : M + 1])
        quasinormal = _quasinormal_commutator_norm(s, N)
    else:
        s = _columns(op, space, N, N)
        pair = _gram(op, space, N, M, leaf)
        quasinormal = _commutator(op, space, N, K, leaf).defect
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
        quasinormal_defect=quasinormal,
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
    order: int  # the series order read; an exact point carries the requested order
    slow_decay: bool
    exact: bool = False  # ||A K_w||^2 summed in closed form, with no truncation


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

    The second term is exact from the reproducing identity
    A* K_w = conj(weight(w)) K_symbol(w), one array evaluation over the grid.
    The first is the squared norm of weight * (K_w o symbol).  Where the
    weight's normal form is one Poly leaf and the space's kernel exponent is
    an integer, it is summed in closed form (`_exact_kernel_norms`) at every
    point whose error that sum bounds below KERNEL_EXACT_REL of it: such a
    point is `exact`, never slow, and carries the requested order.  Every
    other point, and every other weight or space, reads a truncated series
    (`_series_kernel_norms`), a slight undercount, so there chi(w) < 0 beyond
    tolerance certifies non-hyponormality only at a point that is not
    slow-decaying at KERNEL_PROBE_MAX_ORDER (see `certified_min_chi`).
    """
    if w_grid is None:
        w_grid = default_kernel_grid()
    ws = np.array([complex(w) for w in w_grid], dtype=np.complex128)
    kernel_base(ws)  # rejects a point outside the open disk
    if not ws.size:
        return []
    phi = identity() if op.symbol is None else op.symbol
    weight = eliminate_precompose(op.weight)  # the form that `taylor` expands
    m = max(1, int(order))  # an order that doubling can raise
    lhs = np.zeros(len(ws))
    orders = np.full(len(ws), m)
    slow = np.zeros(len(ws), dtype=bool)
    exact = np.zeros(len(ws), dtype=bool)
    closed = _exact_kernel_norms(weight, phi, space, ws)
    if closed is not None:
        norms, bound = closed
        exact = np.isfinite(norms) & (bound <= KERNEL_EXACT_REL * norms)
        lhs[exact] = norms[exact]
    rest = np.flatnonzero(~exact)
    if rest.size:
        lhs[rest], orders[rest], slow[rest] = _series_kernel_norms(weight, phi, space, ws[rest], m)
    chi = lhs - np.abs(evaluate(weight, ws)) ** 2 * kernel_norm_sq(space, phi.apply(ws))
    return [
        KernelProbePoint(complex(w), float(c), int(o), bool(s), bool(x))
        for w, c, o, s, x in zip(ws, chi, orders, slow, exact)
    ]


def certified_min_chi(points: list[KernelProbePoint]) -> float | None:
    """Least chi over the points that were not slow-decaying at the order cap.

    At a slow point the truncated ||A K_w||^2 may miss an unknown share of
    the norm, which pushes chi down, so its chi certifies nothing.  The value
    is None when no point qualifies.
    """
    return min((p.chi for p in points if not p.slow_decay), default=None)


def _series_kernel_norms(
    weight: AnalyticExpr, phi: MoebiusMap, space: SpaceSpec, ws: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated series sums of ||A K_w||^2 over a grid, with each point's
    order and slow-decay flag; `weight` is in normal form.

    The whole grid is expanded at once.  K_w o phi is (N_w / D)^(-gamma)
    with D = d + cz the same for every w: one `kernel_base` call stacks the
    bases of the kernels along a batch axis and one `_substitute_poly` call
    substitutes them, so one short recurrence gives every point's series,
    and the weight's series is convolved into the whole batch, which
    `tail_diagnostics` then judges column by column.  Per point, the order
    doubles up to the cap while the truncation is slow or too short to
    judge; only those points are expanded again.  A polynomial weight is
    read once; another is expanded at each order the loop reaches, since
    the order a point ends at is not known beforehand and an expansion to
    the cap costs four to six times one to KERNEL_PROBE_ORDER.
    """
    num = _substitute_poly(kernel_base(ws), phi, 1)
    den = np.array([phi.d, phi.c])
    lhs = np.zeros(len(ws))
    orders = np.zeros(len(ws), dtype=int)
    slow = np.zeros(len(ws), dtype=bool)
    pending = np.arange(len(ws))
    psi = np.asarray(weight.coeffs) if isinstance(weight, Poly) else None
    m = order
    while pending.size:
        if not isinstance(weight, Poly):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as `taylor`
                psi = _taylor(weight, m)
        nonzero = np.flatnonzero(psi)
        psi = psi[: nonzero[-1] + 1 if nonzero.size else 1]  # exact zeros add nothing
        kern = rational_series("power", num[:, pending], den, m, -space.gamma)
        series = _poly_mul(psi[:, None], kern, m)  # rows of psi past m multiply nothing
        td = tail_diagnostics(series)
        done = ~td.slow_decay | (m >= KERNEL_PROBE_MAX_ORDER)
        g = pending[done]
        lhs[g] = (np.abs(series[:, done]) ** 2 * space.basis_norms_sq(m)[:, None]).sum(axis=0)
        orders[g], slow[g] = m, td.slow_decay[done]
        pending = pending[~done]
        m *= 2
    return lhs, orders, slow


def _exact_kernel_norms(
    weight: AnalyticExpr, phi: MoebiusMap, space: SpaceSpec, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """||A K_w||^2 in closed form over a grid, with a bound on its error at
    each point, for a weight whose normal form is one Poly leaf psi on a
    space with an integer kernel exponent gamma; None for any other input.

    K_w o phi = T^gamma with T = D / N_w = alpha + beta z / (1 - u z), where
    D = d + cz, N_w = e + hz, e = d - conj(w) b, h = c - conj(w) a, u = -h/e,
    alpha = d/e and beta = (c + u d)/e = conj(w) (ad - bc)/e^2.  Nothing
    divides by h, so the form stays accurate as u -> 0.  With p = deg psi and
    n0 = gamma + p, f = psi T^gamma has f_(n0+m) = u^m Q(m) for m >= 0, with
    Q of degree gamma - 1 (`_image_parts`).  So with y = |u|^2

        H^2:    ||f||^2 = sum_(n<n0) |f_n|^2 + S(y)
        A^2_a:  ||f||^2 = sum_(n<n0) |f_n|^2 ||z^n||^2
                          + (gamma-1) int_0^1 t^n0 (1-t)^(gamma-2) S(y t) dt,

    where S(y) = sum_m |Q(m)|^2 y^m = sum_k r_k L_k(y), r the coefficients
    of |Q(m)|^2 in powers of m, and L_k(y) = sum_m m^k y^m (`_power_sums`);
    on A^2_a with a = gamma - 2, ||z^n||^2 = (gamma-1) int_0^1 t^n
    (1-t)^(gamma-2) dt.  The integrand's one pole is at t = 1/y > 1, and a
    Gauss-Legendre rule sums it with a node count from a Bernstein-ellipse
    bound (`_gauss_rule`).

    The bound is a first-order count of roundings, for the computed alpha,
    beta and u (the series path rounds e and h alike), in the unit roundoff
    2^-53.  Each coefficient of f and Q is a sum of products of the inputs
    and nonnegative constants, so it errs by at most c1 units times the same
    sum over the inputs' moduli (f_abs, Q_abs); by Cauchy-Schwarz the squared
    norms of the head and the tail err by at most 2 c1 sqrt(sum * sum_abs)
    units, so cancellation counts by the square root of how much it cancels.
    Forming r, the L_k and their sums costs a few units more of the same
    sums over |r_k|, and the rounding of 1 - y costs 3 (k + 1) y / (1 - y)
    units of L_k.  The quadrature's own bound is added.  An overflow gives a
    bound that is not finite, and so does a point where rounding leaves
    |u| >= 1, which the pole of K_w o phi outside the closed disk rules out.
    """
    gamma = space.gamma
    if not (isinstance(weight, Poly) and gamma.is_integer()):
        return None
    g = int(gamma)
    psi = np.asarray(weight.coeffs)
    nonzero = np.flatnonzero(psi)
    if not nonzero.size:  # the zero weight
        return np.zeros(len(ws)), np.zeros(len(ws))
    psi = psi[: nonzero[-1] + 1]
    p = len(psi) - 1
    n0, K = g + p, 2 * g - 2
    wb = ws.conj()
    e = phi.d - wb * phi.b
    u = (wb * phi.a - phi.c) / e
    y = u.real ** 2 + u.imag ** 2
    unit = 2.0 ** -53
    c1 = 3 * (2 * g + p + 6) + (p + 1) * g
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = (psi, phi.d / e, wb * phi.determinant() / (e * e), u)
        (f, q), (f_abs, q_abs) = (
            _image_parts(*args, g) for args in (terms, tuple(np.abs(t) for t in terms))
        )
        norms_sq = space.basis_norms_sq(n0 - 1)[:, None]
        head, head_abs = ((np.abs(x) ** 2 * norms_sq).sum(axis=0) for x in (f, f_abs))
        r, r_abs, r_mod = (
            _poly_mul(a, b).real for a, b in ((q, q.conj()), (q_abs, q_abs), (np.abs(q), np.abs(q)))
        )
        if space.kind == HARDY:  # the generating function of |f_n|^2 at t = 1
            t, kern, quad = np.ones(1), np.ones(1), 0.0
        else:
            t, v, quad = _gauss_rule(y, n0, g, r_abs, unit * head)
            kern = (g - 1) * v * t ** n0 * (1.0 - t) ** (g - 2)
        ty = y * t[:, None]
        sums = _power_sums(K, ty)
        k = np.arange(K + 1)[:, None, None]
        units = 2 * k + K + n0 + 2 * g + 16 + len(t) + 3 * (k + 1) * ty / (1.0 - ty)
        tail, tail_abs, tail_mod = (
            kern @ (c[:, None] * s).sum(axis=0)
            for c, s in ((r, sums), (r_abs, sums), (r_mod, sums * units))
        )
        cancel = np.sqrt(head * head_abs) + np.sqrt(tail * tail_abs)
        bound = unit * (2 * c1 * cancel + (3 * n0 + 3) * head + tail_mod) + quad
    return head + tail, np.where(y < 1.0, bound, np.inf)


def _image_parts(psi, alpha, beta, u, g: int) -> tuple[np.ndarray, np.ndarray]:
    """For f = psi T^g, T = alpha + beta z / (1 - u z), over a grid: the
    head f_0 .. f_(n0-1), n0 = g + deg psi, and the coefficients of Q in
    powers of m, where f_(n0+m) = u^m Q(m).

    T^g = sum_j c_j z^j / (1 - u z)^j with c_j = binom(g, j) alpha^(g-j)
    beta^j, whose z^n coefficient for n >= 1 is
    sum_(j>=1) c_j binom(n-1, j-1) u^(n-j); so
    Q(m) = sum_k psi_k u^(p-k) sum_(j>=1) c_j u^(g-j) binom(m+n0-k-1, j-1).
    Every term is a product of the inputs and nonnegative constants, so the
    moduli of the inputs give moduli that bound every coefficient.
    """
    p, G = len(psi) - 1, len(u)
    n0 = g + p
    upow, apow, bpow = (
        np.cumprod(np.vstack((np.ones(G), np.broadcast_to(s, (k, G)))), axis=0)
        for s, k in ((u, n0), (alpha, g), (beta, g))
    )
    c = np.array([math.comb(g, j) for j in range(g + 1)])[:, None] * apow[::-1] * bpow
    t = np.zeros((n0, G), dtype=np.complex128)
    t[0] = c[0]
    q = np.zeros((g, G), dtype=np.complex128)
    for j in range(1, g + 1):
        for n in range(j, n0):
            t[n] += math.comb(n - 1, j - 1) * c[j] * upow[n - j]
        for k in range(p + 1):
            # binom(m + s - 1, j - 1) in powers of m, with s = n0 - k >= g >= j
            poly = np.zeros(g)
            poly[0] = 1.0 / math.factorial(j - 1)
            for i in range(1, j):  # times m + s - i
                poly = poly * (n0 - k - i) + np.concatenate(([0.0], poly[:-1]))
            q += poly[:, None] * (psi[k] * upow[p - k] * c[j] * upow[g - j])
    return _poly_mul(psi[:, None], t, n0 - 1), q


def _power_sums(K: int, y: np.ndarray) -> np.ndarray:
    """L_k(y) = sum_(m>=0) m^k y^m for k = 0..K (0^0 = 1), stacked on a new
    axis 0, for 0 <= y < 1.  L_0 = 1/(1 - y) and
    L_k = y A_k(y) / (1 - y)^(k+1) for k >= 1, with A_k the Eulerian
    polynomial, whose coefficients are positive."""
    inv = 1.0 / (1.0 - y)
    sums, row = [inv], [1]  # row: the Eulerian numbers A(k, i), from A(0, 0) = 1
    for k in range(1, K + 1):
        # A(k, i) = (i + 1) A(k-1, i) + (k - i) A(k-1, i-1)
        prev = [0] + row + [0]
        row = [(i + 1) * prev[i + 1] + (k - i) * prev[i] for i in range(k)]
        sums.append(y * np.polyval(row[::-1], y) * inv ** (k + 1))
    return np.array(sums)


#: Node counts the exact A^2 path tries, in order; a point that needs more
#: keeps the series path.
_GAUSS_NODES = (8, 16, 32, 64, 128, 256)


def _gauss_rule(
    y: np.ndarray, n0: int, g: int, r_abs: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t and weights v of one Gauss-Legendre rule on [0, 1] for the
    A^2 tail integrals over a grid, and the rule's error bound at each point.

    The integrand F(t) = (g-1) t^n0 (1-t)^(g-2) S(y t) of `_exact_kernel_norms`
    is analytic but at its pole t = 1/y, so inside the Bernstein ellipse of
    [0, 1] with parameter rho_max = s + sqrt(s^2 - 1), s = 2/y - 1.  On the
    ellipse of a parameter rho < rho_max, |t| and |1 - t| are at most
    tau = ((rho + 1/rho)/2 + 1)/2, so |F| <= M = (g-1) tau^(n0+g-2) S_abs(y tau),
    where S_abs, built from the moduli r_abs, bounds |S(z)| for |z| <= y tau.
    An n-node rule then errs by at most (32/15) M rho^(-2n) / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3,
    halved for [0, 1]).  Five rho between 1 and rho_max are tried at each
    point.  The rule has the least count in _GAUSS_NODES that meets the
    target at every point that some count meets.
    """
    s = 2.0 / y - 1.0
    rho_max = np.minimum(s + np.sqrt(s * s - 1.0), 1e6)  # an entire integrand where y = 0
    rho = rho_max ** np.array([0.125, 0.25, 0.5, 0.75, 0.875])[:, None]
    tau = ((rho + 1.0 / rho) / 2.0 + 1.0) / 2.0
    sums = _power_sums(len(r_abs) - 1, y * tau)
    M = (g - 1) * tau ** (n0 + g - 2) * (r_abs[:, None] * sums).sum(axis=0)
    nodes = np.array(_GAUSS_NODES, dtype=np.float64)[:, None, None]
    err = np.fmin.reduce((32.0 / 15.0) * M * rho ** (-2.0 * nodes) / (rho * rho - 1.0), axis=1)
    met = err <= target
    reached = met.any(axis=0)
    i = int(met.argmax(axis=0)[reached].max()) if reached.any() else len(_GAUSS_NODES) - 1
    t, v = _gauss_legendre(_GAUSS_NODES[i])
    return t, v, err[i]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, 1], made on first use."""
    s, v = np.polynomial.legendre.leggauss(n)
    return (s + 1.0) / 2.0, v / 2.0
