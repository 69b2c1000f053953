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
its order-M letter blocks right to left to the N + 1 columns it reads.
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
    TAIL_MIN_ORDER,
    AnalyticExpr,
    Poly,
    Power,
    constant,
    evaluate,
    expr_from_json,
    expr_to_json,
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
    boundedness proof.
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


def working_order(
    N: int, ops: tuple[OperatorSpec, ...] | list, M: int | None = None, least: int | None = None
) -> int:
    """Working order for an order-N result computed from order-M blocks.

    The default is max(8N, 160), doubled when any symbol's image touches the
    unit circle; it is never below 2N + 16.  `least` (default 2N) is the
    smallest M the caller's algorithm accepts; an M below it raises
    OrderPolicyError.
    """
    if least is None:
        least = 2 * N
    if M is None:
        M = max(8 * N, MIN_INTERNAL_ORDER)
        if any(is_boundary_touching(op) for op in ops):
            M *= 2
    if M < least:
        raise OrderPolicyError(f"working order M={M} violates M >= {least} with N={N}")
    return M


@dataclass(frozen=True, eq=False)
class TruncatedBlock:
    """Matrix of <A e_j, e_i> for i <= row_order, j <= col_order."""

    entries: np.ndarray
    space: SpaceSpec

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.complex128))
        object.__setattr__(self, "entries", arr)

    @property
    def row_order(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def col_order(self) -> int:
        return self.entries.shape[1] - 1

    def square(self) -> np.ndarray:
        """Leading square part, order min(row_order, col_order)."""
        k = min(self.row_order, self.col_order) + 1
        return self.entries[:k, :k]

    def to_json(self) -> dict:
        """Space, orders, and entries as [re, im] pairs."""
        return {
            "space": self.space.to_json(),
            "row_order": self.row_order,
            "col_order": self.col_order,
            "entries": [[[float(v.real), float(v.imag)] for v in row] for row in self.entries],
        }


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
    if N < 0:
        raise InputError("column order must be nonnegative")
    if M is None:
        M = N
    if M < N:
        raise OrderPolicyError("row order must be at least the column order")
    return TruncatedBlock(_columns(op, space, M, N), space)


def adjoint_block(block: TruncatedBlock) -> TruncatedBlock:
    """Conjugate transpose; exact because P A* P = (P A P)* for compressions."""
    return TruncatedBlock(block.entries.conj().T, block.space)


@dataclass(frozen=True)
class WordLetter:
    op: OperatorSpec
    adjoint: bool = False


OperatorWord = tuple[WordLetter, ...]


def plain(op: OperatorSpec) -> WordLetter:
    return WordLetter(op, False)


def adjoint_letter(op: OperatorSpec) -> WordLetter:
    return WordLetter(op, True)


def word_block(
    word: OperatorWord, space: SpaceSpec, N: int, M: int | None = None
) -> TruncatedBlock:
    """Compression P_N L_1 ... L_k P_N of a word of letters, each a square
    block of order M (word[0] is applied last).  Requires M >= 2N."""
    word = tuple(word)
    if N < 0:
        raise InputError("compression order must be nonnegative")
    M = working_order(N, [w.op for w in word], M)
    prod = _apply_word(word, space, M, np.eye(M + 1, N + 1))
    return TruncatedBlock(prod[: N + 1], space)


def _apply_word(word: OperatorWord, space: SpaceSpec, M: int, x: np.ndarray) -> np.ndarray:
    """L_1 ... L_k x, each letter an order-M block.

    At most one order-M block is alive at a time: an adjoint letter applies
    conj(B.T @ conj(x)), the same product as B* x bit for bit, without an
    order-M conjugate copy, and each block is freed before the next is built.
    """
    if not word:
        raise InputError("operator word must have at least one letter")
    for w in reversed(word):
        blk = _columns(w.op, space, M, M)
        x = (blk.T @ x.conj()).conj() if w.adjoint else blk @ x
        del blk
    return x


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
    # the tall block's tail is unknown below the diagnostics' least order
    bound1 = np.inf if len(tall) <= TAIL_MIN_ORDER else np.sum(tail_diagnostics(tall).bound ** 2)
    g2 = wide @ wide.conj().T
    g2 = 0.5 * (g2 + g2.conj().T)
    return GramPair(g1, g2, float(bound1) + _wide_tail_bound(np.linalg.norm(wide, axis=0)))


def _wide_tail_bound(colnorms: np.ndarray) -> float:
    """Crude bound on sum of squared column norms beyond the last column,
    from the decay rate of the final columns."""
    last = float(colnorms[-1])
    if last == 0.0:
        return 0.0
    k = min(8, len(colnorms) - 1)
    if k == 0:
        return float("inf")
    prev = float(colnorms[-1 - k])
    if prev <= 0.0 or last >= prev:
        return float("inf")
    r = (last / prev) ** (1.0 / k)
    r2 = r * r
    return last * last * r2 / (1.0 - r2)


def operator_norm_estimate(block: TruncatedBlock) -> float:
    """Largest singular value of the leading square part."""
    return float(np.linalg.norm(block.square(), 2))


def cowen_adjoint_word(symbol: MoebiusMap, space: SpaceSpec) -> OperatorWord:
    """Word T_g C_sigma T_h* realizing the adjoint of C_symbol.

    sigma is the Krein adjoint map of the symbol (again a self-map), and for
    symbol = (az+b)/(cz+d) and the space's kernel exponent gamma the
    auxiliary weights are g = (-conj(b) z + conj(d))^(-gamma) and
    h = (cz + d)^gamma.  The representative is rescaled so d is a positive
    real, keeping both constant terms off the branch cut for any gamma; the
    factorization is invariant under that rescaling.  The first and last
    letters are triangular, so compressions of this word are exact.
    """
    if not symbol.is_self_map(_SELF_MAP_TOL):
        raise NotSelfMapError("adjoint factorization requires a self-map")
    k = symbol.d.conjugate() / abs(symbol.d)
    b, c, d = symbol.b * k, symbol.c * k, symbol.d * k
    g = Power(Poly((d.conjugate(), -b.conjugate())), -float(space.gamma))
    h = Power(Poly((d, c)), float(space.gamma))
    sigma = symbol.krein_adjoint()
    return (plain(toeplitz(g)), plain(composition(sigma)), adjoint_letter(toeplitz(h)))


# -- export -------------------------------------------------------------------


def block_to_csv(block: TruncatedBlock) -> str:
    """Dense CSV with interleaved re/im columns per matrix column."""
    head = ["i"] + [f"{part}_{j}" for j in range(block.col_order + 1) for part in ("re", "im")]
    lines = [",".join(head)]
    for i, row in enumerate(block.entries):
        lines.append(",".join([str(i)] + ["%.17g,%.17g" % (v.real, v.imag) for v in row]))
    return "\n".join(lines) + "\n"
