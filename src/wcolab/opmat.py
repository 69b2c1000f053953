"""Truncated matrices of weighted composition operators.

An operator is a pair (weight, symbol): f -> weight * (f o symbol), with
symbol = None meaning multiplication alone (analytic Toeplitz) and weight = 1
meaning pure composition.  Matrices act on the normalized monomial basis
e_n = z^n / ||z^n||, so the (i, j) entry of a block is

    <A e_j, e_i> = c_i(weight * symbol^j) * ||z^i|| / ||z^j||,

the i-th Taylor coefficient of the analytic image of e_j, rescaled.  One
engine, `_columns`, computes these entries, exact up to rounding, by an
O(rows * cols) recurrence in which every top-left sub-block is bit for bit
the smaller block; so a tall block (columns <= N), a wide block (rows <= N)
and a square block of one operator are slices of one call.  A word applies
its letters right to left to the N + 1 columns it reads, each letter built
with only the rows and columns that the compression reads of it: triangular
letters at the ends of a word compress exactly and are built at order N,
and only the letters between them are order-M blocks (see `_apply_word`).

The Gram pair P_N A*A P_N, P_N AA* P_N (`gram_blocks`) reads no block where
the weight's normal form is one Poly or Rational leaf and the space's
kernel exponent gamma is an integer: AA* is then the end of gamma chained
Stein equations in the Toeplitz matrix of the symbol's series, and on the
Hardy space A*A is one Stein equation in the recurrence of F's rows, each
solved by Smith doubling with a bound on its exact remainder (`_stein`).
Any other half reads a block of working order M, A*A the tall block and
AA* the wide one, with an extrapolated tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_args

import numpy as np

from .errors import (
    InputError,
    NotSelfMapError,
    OrderPolicyError,
    UnboundedWeightError,
)
from .mobius import MoebiusMap, identity
from .series import (
    AnalyticExpr,
    Poly,
    Power,
    _quotient,
    column_tail_bound,
    constant,
    eliminate_precompose,
    evaluate,
    expr_from_json,
    expr_to_json,
    has_disk_singularity,
    rational_series,
    tail_diagnostics,
    taylor,
)
from .space import HARDY, SpaceSpec

_EXPR_TYPES = get_args(AnalyticExpr)

#: The circle |z| = 0.999, 512 points, on which every weight is spot-checked
#: for boundedness, and the cap on |weight| there.
WEIGHT_GRID = 0.999 * np.exp(2j * np.pi * np.arange(512) / 512)
WEIGHT_GRID.flags.writeable = False
WEIGHT_BOUND_CAP = 1e12

#: Distance from the unit circle below which a symbol counts as touching it.
BOUNDARY_TOUCH_TOL = 1e-8

#: Floor of the default working order max(8N, this floor).
MIN_INTERNAL_ORDER = 160

_SELF_MAP_TOL = 1e-9


@dataclass(frozen=True)
class OperatorSpec:
    """Weighted composition operator f -> weight * (f o symbol).

    symbol None means no composition (analytic Toeplitz operator).  The
    weight is evaluated once over WEIGHT_GRID, a circle of radius just
    under one; a pole on the grid, or a value above the cap or not finite
    (an overflow), is rejected, which catches honest mistakes but is not a
    boundedness proof.  Then a weight in which `has_disk_singularity` finds a
    pole or a branch point in the closed disk is rejected exactly.
    """

    weight: AnalyticExpr
    symbol: MoebiusMap | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.weight, _EXPR_TYPES):
            raise InputError("weight must be an analytic expression")
        if self.symbol is not None:
            if not isinstance(self.symbol, MoebiusMap):
                raise InputError("symbol must be a linear fractional map or None")
            if not self.symbol.is_self_map(_SELF_MAP_TOL):
                raise NotSelfMapError("symbol must map the unit disk into itself")
        _check_weight_bounded(self.weight)

    def to_json(self) -> dict:
        return {
            "weight": expr_to_json(self.weight),
            "symbol": None if self.symbol is None else self.symbol.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "OperatorSpec":
        if not isinstance(obj, dict) or "weight" not in obj:
            raise InputError("operator JSON must be an object with a 'weight' key")
        weight = expr_from_json(obj["weight"])
        symbol = obj.get("symbol")
        return OperatorSpec(
            weight, None if symbol is None else MoebiusMap.from_json(symbol)
        )

    def describe(self) -> str:
        if self.symbol is None:
            return "toeplitz"
        if isinstance(self.weight, Poly) and self.weight.coeffs == (1 + 0j,):
            return "composition"
        return "weighted-composition"


def _check_weight_bounded(weight: AnalyticExpr) -> None:
    try:
        v = np.abs(evaluate(weight, WEIGHT_GRID))
    except InputError as exc:
        raise UnboundedWeightError(f"weight has a pole near the unit circle: {exc}")
    if not np.all(v <= WEIGHT_BOUND_CAP):  # an overflow gives inf or nan
        raise UnboundedWeightError(f"weight exceeds {WEIGHT_BOUND_CAP:g} on the sample circle")
    if has_disk_singularity(weight, 1.0 + BOUNDARY_TOUCH_TOL):
        raise UnboundedWeightError("weight has a pole or a branch point in the closed disk")


def composition(symbol: MoebiusMap) -> OperatorSpec:
    return OperatorSpec(constant(1.0), symbol)


def toeplitz(weight: AnalyticExpr) -> OperatorSpec:
    return OperatorSpec(weight, None)


def weighted(weight: AnalyticExpr, symbol: MoebiusMap) -> OperatorSpec:
    return OperatorSpec(weight, symbol)


def is_boundary_touching(op: OperatorSpec) -> bool:
    """True when the symbol's image circle comes within BOUNDARY_TOUCH_TOL of
    the unit circle."""
    if op.symbol is None:
        return False
    circle = op.symbol.image_circle()
    if circle is None:
        return True
    center, radius = circle
    return abs(center) + radius >= 1.0 - BOUNDARY_TOUCH_TOL


def shapeable_order(k: int) -> int:
    """The order k itself when numpy can shape the complex buffer of an
    order-k square block (k + 2 rows of k + 1 columns); else OrderPolicyError."""
    if 16 * (k + 2) * (k + 1) > np.iinfo(np.intp).max:
        raise OrderPolicyError(f"order {k} is too large for a block")
    return k


def working_order(
    N: int, ops: tuple[OperatorSpec, ...] | list, M: int | None = None, least: int | None = None
) -> int:
    """Working order for an order-N result computed from order-M blocks.

    The default is max(8N, 160), doubled when any symbol's image touches the
    unit circle; it is never below 2N + 16.  A negative N raises InputError.
    `least` (default 2N) is the smallest M the caller's algorithm accepts; an
    M below it, or one too large for numpy to shape, raises OrderPolicyError.
    """
    if N < 0:
        raise InputError(f"order N={N} must be nonnegative")
    if least is None:
        least = 2 * N
    if M is None:
        M = max(8 * N, MIN_INTERNAL_ORDER)
        if any(is_boundary_touching(op) for op in ops):
            M *= 2
    if M < least:
        raise OrderPolicyError(f"working order M={M} violates M >= {least} with N={N}")
    return shapeable_order(M)


@dataclass(frozen=True, eq=False)
class TruncatedBlock:
    """Matrix of <A e_j, e_i>, held C-contiguous as complex128.

    A block is its entries and nothing more; the type remains, rather than a
    bare array, because the wcbench workloads read `.entries`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.complex128))
        object.__setattr__(self, "entries", arr)


def _columns(op: OperatorSpec, space: SpaceSpec, rows: int, cols: int) -> np.ndarray:
    """Entries <A e_j, e_i> for i <= rows, j <= cols.

    Column j holds the coefficients F[:, j] of weight * symbol^j, rescaled by
    the basis norms.  For symbol (az + b)/(cz + d), (d + cz) symbol^(j+1) =
    (b + az) symbol^j gives, from column 0 = weight and F[-1, :] = 0,

        F[n, j+1] = (b/d) F[n, j] + ((a/d) F[n-1, j] - (c/d) F[n-1, j+1]),

    stable since |c/d| < 1 for a self-map.  A cell reads only the two
    anti-diagonals before its own: each anti-diagonal, a stride-`cols` slice
    of the flat buffer under a zero top row, is one numpy step, in place.  A
    Toeplitz letter (symbol None) is the weight's series shifted down.
    """
    b = np.sqrt(space.basis_norms_sq(max(rows, cols)))
    buf = np.zeros((rows + 2, cols + 1), dtype=np.complex128)
    entries = buf[1:]
    entries[:, 0] = taylor(op.weight, rows).coeffs
    if op.symbol is None:
        for j in range(1, min(rows, cols) + 1):
            entries[j:, j] = entries[: rows + 1 - j, 0]
    elif cols:
        sym = op.symbol
        alpha, beta, kappa = sym.a / sym.d, sym.b / sym.d, sym.c / sym.d
        flat, w = buf.reshape(-1), cols + 1
        for s in range(1, rows + cols + 1):
            # cells F[s - j, j] for j = hi down to lo, at buffer row s - j + 1
            hi, lo = min(cols, s), max(1, s - rows)
            start, stop = (s - hi + 1) * w + hi, (s - lo + 1) * w + lo + 1
            left = flat[start - 1 : stop - 1 : cols]
            up = flat[start - w : stop - w : cols]
            upleft = flat[start - w - 1 : stop - w - 1 : cols]
            flat[start:stop:cols] = beta * left + (alpha * upleft - kappa * up)
    entries *= b[: rows + 1][:, None]
    entries /= b[: cols + 1][None, :]
    return entries


def build_block(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> TruncatedBlock:
    """Tall block with columns j = 0..N and rows i = 0..M (default M = N)."""
    M = working_order(N, [op], N if M is None else M, least=N)
    return TruncatedBlock(_columns(op, space, M, N))


def adjoint_block(block: TruncatedBlock) -> TruncatedBlock:
    """Conjugate transpose; exact because P A* P = (P A P)* for compressions."""
    return TruncatedBlock(block.entries.conj().T)


@dataclass(frozen=True)
class WordLetter:
    op: OperatorSpec
    adjoint: bool = False

    @property
    def triangular(self) -> bool:
        """True when the operator's matrix is lower triangular, so the letter
        is lower triangular when plain and upper triangular when adjoint:
        weight * symbol^j vanishes to order j when there is no symbol or
        symbol(0) = b/d = 0."""
        return self.op.symbol is None or self.op.symbol.b == 0


OperatorWord = tuple[WordLetter, ...]


def plain(op: OperatorSpec) -> WordLetter:
    return WordLetter(op, False)


def adjoint_letter(op: OperatorSpec) -> WordLetter:
    return WordLetter(op, True)


def word_block(
    word: OperatorWord, space: SpaceSpec, N: int, M: int | None = None
) -> TruncatedBlock:
    """Compression P_N L_1 ... L_k P_N of a word of letters (word[0] is
    applied last).  Lower-triangular letters on the left and upper-triangular
    letters on the right compress exactly and are built at order N, as is a
    single letter left between them; two or more letters left between them
    are swept at working order M.  Requires M >= 2N."""
    word = tuple(word)
    M = working_order(N, [w.op for w in word], M)
    (x,) = _apply_word(word, space, N, M, [np.eye(N + 1)])
    return TruncatedBlock(x)


def _apply_word(
    word: OperatorWord, space: SpaceSpec, N: int, M: int, panels: list[np.ndarray]
) -> list[np.ndarray]:
    """Rows 0..N of L_1 ... L_k x for each panel x, all of M + 1 rows, or all
    of N + 1 rows standing for x with every row past N zero (P_N's columns).

    Each letter is built with the rows its output needs and the columns its
    input has.  A lower-triangular letter maps rows 0..N from rows 0..N, so
    the leading run of them (the left peel) is built at order N.  On panels
    of N + 1 rows an upper-triangular letter keeps every row past N zero, so
    the trailing run of them (the right peel) is built at order N too.  Of
    the letters between, only the outermost one's rows 0..N are read; the
    others give the M + 1 rows the next letter reads.  So one letter left
    between the peels is an order-N block, and the Cowen word, triangular at
    both ends, costs O(N^2) at any M.

    Each block is built once, applied to every panel as a product of its own
    (BLAS may round a column differently in a wider product, and a panel's
    result must not depend on the others), and freed before the next is
    built.  An adjoint letter applies conj(B.T @ conj(x)), the same product
    as B* x bit for bit, from the block B of the transposed shape.
    """
    if not word:
        raise InputError("operator word must have at least one letter")
    lo, hi = 0, len(word)
    while lo < hi and word[lo].triangular and not word[lo].adjoint:
        lo += 1
    while len(panels[0]) == N + 1 and hi > lo and word[hi - 1].triangular and word[hi - 1].adjoint:
        hi -= 1
    for i in reversed(range(len(word))):
        w, rows = word[i], (M if lo < i < hi else N)
        if i < lo:
            panels = [x[: N + 1] for x in panels]
        cols = len(panels[0]) - 1
        if w.adjoint:
            blk = _columns(w.op, space, cols, rows).T
            panels = [(blk @ x.conj()).conj() for x in panels]
        else:
            blk = _columns(w.op, space, rows, cols)
            panels = [blk @ x for x in panels]
        del blk
    return panels


@dataclass(frozen=True, eq=False)
class GramPair:
    """G1 ~ compression of A*A, G2 ~ compression of AA*, with a bound on the
    truncation error of either: the remainder of a Stein solve for a half
    that `gram_blocks` solves exactly, an extrapolated block tail otherwise."""

    g1: np.ndarray
    g2: np.ndarray
    tail_bound: float


#: Doublings after which a Stein solve stops, and the remainder factor at or
#: below which it stops sooner (see `_stein`).
STEIN_MAX_DOUBLINGS = 64
STEIN_TOL = 2.0 ** -104


def gram_blocks(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> GramPair:
    """Order-N compressions of A*A and AA*.  Requires M >= 2N.

    For a weight whose normal form is one Poly or Rational leaf on a space
    with an integer kernel exponent, AA* comes from a Stein solve with no
    working order, and so does A*A on the Hardy space (`_stein_weight`);
    any other half reads a block: A*A the tall block (rows <= M), AA* the
    wide block (columns <= M)."""
    M = working_order(N, [op], M)
    return _gram(op, space, N, M)


def _stein_weight(op: OperatorSpec, space: SpaceSpec) -> tuple | None:
    """Numerator and denominator of the weight's normal form when it is one
    leaf and the space's kernel exponent is an integer, else None."""
    if not float(space.gamma).is_integer():
        return None
    return _quotient(eliminate_precompose(op.weight))


def _reads_blocks(leaf: tuple | None, space: SpaceSpec) -> tuple[bool, bool]:
    """Whether a Gram pair whose `_stein_weight` is leaf reads the tall block
    (for A*A) and the wide block (for AA*)."""
    return leaf is None or space.kind != HARDY, leaf is None


def _gram(
    op: OperatorSpec,
    space: SpaceSpec,
    N: int,
    M: int,
    tall: np.ndarray | None = None,
    wide: np.ndarray | None = None,
) -> GramPair:
    """The Gram pair of `gram_blocks` at a validated working order M.  A
    caller that holds the tall block (rows <= M, columns <= N) or the wide
    one (rows <= N, columns <= M) passes it; a half that needs a block it
    was not given builds it.  Both G1 and G2 are symmetrized, so exactly
    Hermitian."""
    leaf = _stein_weight(op, space)
    reads_tall, reads_wide = _reads_blocks(leaf, space)
    phi = identity() if op.symbol is None else op.symbol
    if reads_tall:
        tall = _columns(op, space, M, N) if tall is None else tall
        g1 = tall.conj().T @ tall
        bound1 = float(np.sum(tail_diagnostics(tall).bound ** 2))
    else:
        g1, bound1 = _stein_g1(*leaf, phi, N)
    if reads_wide:
        wide = _columns(op, space, N, M) if wide is None else wide
        g2 = wide @ wide.conj().T
        bound2 = column_tail_bound(np.linalg.norm(wide, axis=0))
    else:
        g2, bound2 = _stein_g2(*leaf, phi, space, N)
    return GramPair(_hermitian(g1), _hermitian(g2), bound1 + bound2)


def _hermitian(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def _stein_g2(num, den, phi: MoebiusMap, space: SpaceSpec, N: int) -> tuple[np.ndarray, float]:
    """P_N AA* P_N and the bound on its remainder, for the weight num/den.

    Rows 0..N of column m of F (before the basis scaling) are T^m x0, where T
    is the lower-triangular Toeplitz matrix of phi's series and x0 holds the
    weight's, both through z^N: rows 0..N of a lower-triangular product read
    only rows 0..N.  Column m weighs 1/||z^m||^2 = binom(m + gamma - 1, m),
    so the unscaled G2 is the end of gamma chained Stein equations.  The
    basis norms are at most 1, so scaling does not enlarge the bound."""
    x0 = rational_series("quotient", num, den, N)
    t = _linear_fractional_series(phi.b, phi.a, phi.d, phi.c, N)
    x, bound = _stein(_toeplitz(t), np.outer(x0, x0.conj()), int(space.gamma))
    b = np.sqrt(space.basis_norms_sq(N))
    return x * np.outer(b, b), bound


def _stein_g1(num, den, phi: MoebiusMap, N: int) -> tuple[np.ndarray, float]:
    """P_N A*A P_N on the Hardy space and the bound on its remainder, for
    the weight psi = num/den.

    Row n of F, r_n = F[n, 0..N], holds the coefficients of
    sum_j F[n, j] u^j = [z^n] psi / (1 - u phi), and with h = psi (d + cz),
    e = 1/(d - bu) and phi~(u) = (au - c)/(d - bu) that is
    r_n = r_(n-1) Phi + h_n e, Phi the upper-triangular Toeplitz matrix of
    phi~ (a row times Phi is a product of series in u).  Past the degree n0
    of h's numerator, h_n follows den's recurrence, so the row and den's
    last h values form a state s_n = s_(n-1) A, and the rows past n0 add
    the Stein solution in A* with Q = s_(n0)* s_(n0) to the head rows' Gram.
    A's spectrum is -c/d (|c/d| < 1 for a self-map) and the reciprocal
    roots of den, none on or outside the unit circle for a bounded weight."""
    a, b, c, d = phi.a, phi.b, phi.c, phi.d
    hnum = np.convolve(num, (d, c))
    n0 = len(hnum) - 1
    h = rational_series("quotient", hnum, den, n0)
    e = _linear_fractional_series(1.0, 0.0, d, -b, N)
    big_phi = _toeplitz(_linear_fractional_series(-c, a, d, -b, N)).T
    rows = np.zeros((n0 + 1, N + 1), dtype=np.complex128)
    r = np.zeros(N + 1, dtype=np.complex128)
    for n in range(n0 + 1):
        r = rows[n] = r @ big_phi + h[n] * e
    # state: the row, then h_n0, h_(n0-1), ..., h_(n0-q+1) (zero below index 0)
    q = len(den) - 1
    s = np.concatenate((r, np.concatenate((np.zeros(q), h))[q + n0 - np.arange(q)]))
    step = np.zeros((N + 1 + q, N + 1 + q), dtype=np.complex128)
    step[: N + 1, : N + 1] = big_phi
    if q:
        ck = -np.asarray(den[1:]) / den[0]  # h_(n+1) = sum_k ck[k-1] h_(n+1-k)
        step[N + 1 :, : N + 1] = np.outer(ck, e)
        step[N + 1 :, N + 1] = ck
        step[N + 1 + np.arange(q - 1), N + 2 + np.arange(q - 1)] = 1.0
    y, bound = _stein(step.conj().T, np.outer(s.conj(), s), 1)
    head = rows[:n0]
    return head.conj().T @ head + y[: N + 1, : N + 1], bound


def _linear_fractional_series(p0, p1, q0, q1, n: int) -> np.ndarray:
    """Series of (p0 + p1 z)/(q0 + q1 z) through z^n, q0 != 0: p0/q0, then
    (p1 + p0 r) r^(k-1) / q0 with r = -q1/q0, in closed form, since three
    of them per Gram pair through `rational_series`' per-coefficient loop
    would cost more than the Stein solves at the scenarios' orders."""
    r = -q1 / q0
    out = np.empty(n + 1, dtype=np.complex128)
    out[0] = p0 / q0
    out[1:] = (p1 + p0 * r) / q0 * complex(r) ** np.arange(n)
    return out


def _toeplitz(t: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix with first column t."""
    k = np.subtract.outer(np.arange(len(t)), np.arange(len(t)))
    return np.where(k >= 0, t[np.maximum(k, 0)], 0.0)


def _stein(a: np.ndarray, q: np.ndarray, steps: int) -> tuple[np.ndarray, float]:
    """X = sum_m c_m A^m Q A*^m with c_m = binom(m + steps - 1, m), the last
    of `steps` chained Stein equations X_1 = A X_1 A* + Q and
    X_(i+1) = A X_(i+1) A* + X_i, by Smith doubling (X += P X P*, P <- P^2;
    Zhou, Doyle & Glover, Robust and Optimal Control, 1996, ch. 21), and a
    bound on the spectral norm of what it leaves out.

    Every solve doubles with the same powers A^(2^k), k < K, so each keeps
    its terms m < L = 2^K.  Any term left out has m >= L, and since
    c_(m+L) <= c_m c_L, the PSD remainder is at most c_L A^L X A^L*, with
    X the true solution: so ||X - X_K|| <= rho ||X_K|| / (1 - rho) for
    rho = c_L ||A^L||^2, bounded here by Frobenius norms.  K is the least
    count with rho <= STEIN_TOL, at most STEIN_MAX_DOUBLINGS; a remainder
    factor that is not below one then, or that grows past 1/STEIN_TOL
    first, leaves an infinite bound."""
    powers, p = [], a
    for k in range(STEIN_MAX_DOUBLINGS + 1):
        L = 2.0 ** k
        rho = math.prod((L + i) / i for i in range(1, steps)) * float(np.vdot(p, p).real)
        if not STEIN_TOL < rho < 1.0 / STEIN_TOL or k == STEIN_MAX_DOUBLINGS:
            break
        powers.append(p)
        p = p @ p
    x = q
    for _ in range(steps):
        for p in powers:
            x = x + p @ x @ p.conj().T
    bound = rho * float(np.linalg.norm(x)) / (1.0 - rho) if rho < 1.0 else math.inf
    return x, bound


def cowen_adjoint_word(symbol: MoebiusMap, space: SpaceSpec) -> OperatorWord:
    """Word T_g C_sigma T_h* realizing the adjoint of C_symbol.

    sigma is the Krein adjoint map of the symbol (again a self-map), and for
    symbol = (az+b)/(cz+d) and the space's kernel exponent gamma the
    auxiliary weights are g = (-conj(b) z + conj(d))^(-gamma) and
    h = (cz + d)^gamma.  The representative is rescaled so d is a positive
    real, keeping both constant terms off the branch cut for any gamma; the
    factorization is invariant under that rescaling.  The first and last
    letters are triangular, so compressions of this word are exact and
    `word_block` builds all three letters at order N.
    """
    if not symbol.is_self_map(_SELF_MAP_TOL):
        raise NotSelfMapError("adjoint factorization requires a self-map")
    k = symbol.d.conjugate() / abs(symbol.d)
    b, c, d = symbol.b * k, symbol.c * k, symbol.d * k
    g = Power(Poly((d.conjugate(), -b.conjugate())), -float(space.gamma))
    h = Power(Poly((d, c)), float(space.gamma))
    sigma = symbol.krein_adjoint()
    return (plain(toeplitz(g)), plain(composition(sigma)), adjoint_letter(toeplitz(h)))

