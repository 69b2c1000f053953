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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args

import numpy as np

from .errors import (
    InputError,
    NotSelfMapError,
    OrderPolicyError,
    UnboundedWeightError,
)
from .mobius import MoebiusMap
from .series import (
    AnalyticExpr,
    Poly,
    Power,
    column_tail_bound,
    constant,
    evaluate,
    expr_from_json,
    expr_to_json,
    has_disk_singularity,
    tail_diagnostics,
    taylor,
)
from .space import SpaceSpec

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
    """G1 ~ compression of A*A, G2 ~ compression of AA*, with a crude bound
    on the truncation error of either."""

    g1: np.ndarray
    g2: np.ndarray
    tail_bound: float


def gram_blocks(
    op: OperatorSpec, space: SpaceSpec, N: int, M: int | None = None
) -> GramPair:
    """Order-N compressions of A*A (from the tall block, rows <= M) and AA*
    (from the wide block, columns <= M).  Requires M >= 2N."""
    M = working_order(N, [op], M)
    return _gram_pair(_columns(op, space, M, N), _columns(op, space, N, M))


def _gram_pair(tall: np.ndarray, wide: np.ndarray) -> GramPair:
    """Gram pair from the tall block (columns <= N) and the wide block (rows <= N);
    G1 and G2 are symmetrized, so exactly Hermitian."""
    g1 = tall.conj().T @ tall
    g1 = 0.5 * (g1 + g1.conj().T)
    g2 = wide @ wide.conj().T
    g2 = 0.5 * (g2 + g2.conj().T)
    bound1 = float(np.sum(tail_diagnostics(tall).bound ** 2))
    return GramPair(g1, g2, bound1 + column_tail_bound(np.linalg.norm(wide, axis=0)))


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

