"""Formal power series engine over a small analytic-expression AST.

Expressions are built from polynomials, rational functions, principal-branch
powers, exponentials, sums, products, scalar multiples, and precomposition
with a linear fractional map.  `taylor` turns an expression into coefficients
to a requested order.  It first brings it to its rational normal form
(`eliminate_precompose`): a linear fractional substitution turns polynomial
and rational leaves into new rational leaves and pushes through every other
node, so no numerical composition is ever performed, and each rational part
(a Poly or Rational leaf, a low integer Power of one, or a Scale, Sum or
Product of them) becomes one leaf N/D with no root shared.  Then:

  * a rational leaf N/D, and every Power or Exp, by a short recurrence
    whose length depends only on deg(N) and deg(D) (`rational_series`:
    D f = N; N D f' = gamma (N'D - N D') f for a non-integer gamma;
    D^2 f' = (N'D - N D') f for the exponential).  A base or argument that
    is no leaf, say the Sum in Power(Sum((Poly, Exp(...)))), is its own
    series through the requested order over D = 1, so there the recurrence
    has full length (K = M),
  * products by Cauchy convolution.

All constant-term constraints (nonzero denominators and power bases, branch
position) are checked at construction time.  `evaluate` takes one point or
an array of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from .errors import BranchError, InputError, PoleAtOriginError
from .mobius import _ZERO_REL, MoebiusMap, number_from_json, pair_to_json

#: Half-power ratio above which a truncation is flagged as slowly decaying.
SLOW_DECAY_RATIO = 0.95

#: Least order M (rows c_0 .. c_M) whose tail `tail_diagnostics` judges.
TAIL_MIN_ORDER = 16

#: Largest |k| of an integer Power of a leaf that the normal form folds into
#: one leaf; np.roots places a |k|-fold root only to about eps^(1/|k|), so a
#: higher power stays a node, whose poles are its base's roots.
_FOLD_MAX_POWER = 3

#: Relative distance at which a numerator root matches a denominator root.
_ROOT_MATCH_TOL = 1e-6  # np.roots finds a double root to about 1e-8

#: Relative change of a quotient's value at 0 within which its matched roots
#: cancel.  A pair changes it by their relative distance, some 1e-14 for a
#: shared root, but the roots np.roots spreads around one change it together.
_CANCEL_REL = 1e-10


@dataclass(frozen=True)
class Poly:
    """Polynomial sum(coeffs[k] * z**k)."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs) or (0j,))


@dataclass(frozen=True)
class Rational:
    """Quotient num/den of polynomials; den must not vanish at 0."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        for name in ("num", "den"):
            p = getattr(self, name)
            object.__setattr__(self, name, p if isinstance(p, Poly) else Poly(p))
        scale = max(abs(c) for c in self.den.coeffs)
        if scale == 0.0 or abs(self.den.coeffs[0]) <= _ZERO_REL * scale:
            raise InputError("rational denominator vanishes at the expansion point 0")


@dataclass(frozen=True)
class Power:
    """Principal-branch power base**exponent with real exponent.

    The base must not vanish at 0.  For a non-integer exponent the constant
    term must stay off the closed negative real axis, where the principal
    branch is discontinuous.
    """

    base: "AnalyticExpr"
    exponent: float

    def __post_init__(self) -> None:
        exp = self.exponent
        if isinstance(exp, complex):
            if abs(exp.imag) > 0.0:
                raise InputError("power exponent must be real")
            exp = exp.real
        try:
            object.__setattr__(self, "exponent", float(exp))
        except (TypeError, ValueError):
            raise InputError(f"power exponent must be a number, got {exp!r}")
        _power_constant(np.asarray(evaluate(self.base, 0.0)), self.exponent)


@dataclass(frozen=True)
class Exp:
    arg: "AnalyticExpr"


@dataclass(frozen=True)
class Sum:
    terms: tuple["AnalyticExpr", ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise InputError("sum needs at least one term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Product:
    factors: tuple["AnalyticExpr", ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise InputError("product needs at least one factor")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class Scale:
    factor: complex
    inner: "AnalyticExpr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", complex(self.factor))


@dataclass(frozen=True)
class PrecomposeMoebius:
    """The composition inner(map(z)); the map must be finite at 0."""

    inner: "AnalyticExpr"
    map: MoebiusMap

    def __post_init__(self) -> None:
        if abs(self.map.d) <= _ZERO_REL * self.map.coeff_scale():
            raise PoleAtOriginError("linear fractional map has its pole at 0")


AnalyticExpr = Union[Poly, Rational, Power, Exp, Sum, Product, Scale, PrecomposeMoebius]


def constant(value: complex) -> Poly:
    return Poly((complex(value),))


# -- numeric evaluation ----------------------------------------------------


def evaluate(e: AnalyticExpr, z):
    """Value of the expression at a point z, or elementwise at an array z.

    A scalar gives a complex and an array an array of its shape; a scalar
    is evaluated as a one-point array, by the same array operations.  A
    pole raises InputError; an overflow gives a non-finite value.  Powers
    with non-integer exponent use the principal branch pointwise, so away
    from the expansion point this may differ from the analytic continuation
    of the series by a branch jump; series work never relies on pointwise
    values except at 0.
    """
    zs = np.asarray(z, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _evaluate(e, np.atleast_1d(zs))
    return complex(out[0]) if zs.ndim == 0 else out


def _evaluate(e: AnalyticExpr, z: np.ndarray) -> np.ndarray:
    if isinstance(e, Poly):
        acc = np.zeros_like(z)
        for c in reversed(e.coeffs):
            acc = acc * z + c
        return acc
    if isinstance(e, Rational):
        den = _evaluate(e.den, z)
        if (den == 0.0).any():
            raise InputError("evaluation at a pole of a rational expression")
        return _evaluate(e.num, z) / den
    if isinstance(e, Power):
        b = _evaluate(e.base, z)
        if e.exponent.is_integer():
            n = int(e.exponent)
            if n < 0 and (b == 0.0).any():
                raise InputError("negative power of zero")
            return b ** n
        if (b == 0.0).any():
            raise InputError("fractional power of zero")
        return np.exp(e.exponent * np.log(b))
    if isinstance(e, Exp):
        return np.exp(_evaluate(e.arg, z))
    if isinstance(e, Sum):
        return sum(_evaluate(t, z) for t in e.terms)
    if isinstance(e, Product):
        return reduce(lambda a, b: a * b, (_evaluate(f, z) for f in e.factors), 1 + 0j)
    if isinstance(e, Scale):
        return e.factor * _evaluate(e.inner, z)
    if isinstance(e, PrecomposeMoebius):
        return _evaluate(e.inner, e.map.apply(z))
    raise InputError(f"unknown expression node {type(e).__name__}")


# -- power series ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor coefficients c_0 .. c_order at the origin."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("power series coefficients must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def taylor(e: AnalyticExpr, order: int) -> PowerSeries:
    """Taylor coefficients of the expression at 0, through z**order; an
    overflow gives inf or nan (a complex inf times zero is nan)."""
    if order < 0:
        raise InputError("taylor order must be nonnegative")
    # for the nodes' arithmetic; the normal form and `rational_series` guard their own
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return PowerSeries(_taylor(eliminate_precompose(e), int(order)))


def _taylor(e: AnalyticExpr, M: int) -> np.ndarray:
    if isinstance(e, Poly):
        out = np.zeros(M + 1, dtype=np.complex128)
        out[: len(e.coeffs)] = e.coeffs[: M + 1]
        return out
    if isinstance(e, Rational):
        return rational_series("quotient", e.num.coeffs, e.den.coeffs, M)
    if isinstance(e, Power):
        return rational_series("power", *_num_den(e.base, M), M, e.exponent)
    if isinstance(e, Exp):
        return rational_series("exp", *_num_den(e.arg, M), M)
    if isinstance(e, Sum):
        return sum(_taylor(t, M) for t in e.terms)
    if isinstance(e, Product):
        return reduce(lambda a, b: np.convolve(a, b)[: M + 1], (_taylor(f, M) for f in e.factors))
    if isinstance(e, Scale):
        return e.factor * _taylor(e.inner, M)
    raise InputError(f"unknown expression node {type(e).__name__}")


def _num_den(e: AnalyticExpr, M: int) -> tuple:
    """Numerator and denominator of a leaf; another node is its series over 1."""
    return _quotient(e) or (_taylor(e, M), (1 + 0j,))


def _quotient(e: AnalyticExpr) -> tuple[np.ndarray, np.ndarray] | None:
    """Coefficients of the numerator and denominator of a leaf, else None."""
    if isinstance(e, Poly):
        return np.asarray(e.coeffs), np.ones(1, dtype=np.complex128)
    if isinstance(e, Rational):
        return np.asarray(e.num.coeffs), np.asarray(e.den.coeffs)
    return None


def _poly_mul(a: np.ndarray, b: np.ndarray, M: int | None = None) -> np.ndarray:
    """Product of polynomials stored along axis 0, batched along axis 1,
    through z**M when M is given (no row past it is formed).

    The products come from einsum, which rounds each from its real parts
    whatever the batch length (see `rational_series`); one row of a is
    multiplied in at a time, so a long factor costs no len(a) x len(b) array.
    """
    rows = len(a) + len(b) - 1 if M is None else min(len(a) + len(b) - 1, M + 1)
    out = np.zeros((rows, max(a.shape[1], b.shape[1])), dtype=np.complex128)
    for i in range(min(len(a), rows)):
        out[i : i + len(b)] += np.einsum("g,jg->jg", a[i], b[: rows - i])
    return out


def _poly_pow(a: np.ndarray, k: int, M: int | None = None) -> np.ndarray:
    """a**k for polynomials along axis 0, through z**M when M is given, by
    repeated squaring: O(log k) products, for k <= 3 the repeated product.
    Above that a constant is one scalar power, a real one a real power (so
    (-1)**k keeps its sign): squaring a constant of modulus 1, such as the
    denominator 1 of a Poly base, never underflows to stop early."""
    if len(a) == 1 and k > 3:
        x = a.real if not a.imag.any() else a
        return np.power(x, float(k)).astype(np.complex128)
    out = np.ones((1, a.shape[1]), dtype=np.complex128)
    while k:
        if not a.any():  # a positive power of zero, as once the squares underflow
            return np.zeros_like(out)
        out = _poly_mul(out, a, M) if k & 1 else out
        k >>= 1
        a = _poly_mul(a, a, M) if k else a
    return out


def _poly_deriv(a: np.ndarray) -> np.ndarray:
    return a[1:] * np.arange(1, len(a))[:, None]


#: Recurrence coefficients formed at a time, in rows of K x G; bounds the
#: memory of a recurrence whose length K grows with M.
_BLOCK_ENTRIES = 1 << 14


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an overflow gives inf or nan
def rational_series(kind: str, num, den, M: int, exponent: float = 1.0) -> np.ndarray:
    """Taylor coefficients through z**M of a function of the rational r = N/D.

    kind "quotient" gives r itself, "power" the principal branch of
    r**exponent, and "exp" gives exp(r).  `num` and `den` hold polynomial
    coefficients along axis 0, optionally with a trailing batch axis of
    length G (an axis of length 1 broadcasts); the result has shape (M + 1,)
    or (M + 1, G) to match.  Any other base or argument enters as its own
    series through z**M over D = 1, so N has length M + 1.

    Each function satisfies a linear equation with polynomial coefficients,
    so its coefficients follow a recurrence of fixed length K (Stanley 1980)
    in place of a full-length convolution:

      quotient  D f = N,  K = deg(D):
                D_0 f_n = N_n - sum_(k=1..K) D_k f_(n-k)
      power     integer k: the quotient N^k / D^k (D^|k| / N^|k| for k < 0)
                otherwise A f' = B f with A = N D, B = exponent (N'D - N D')
      exp       A f' = B f with A = D^2, B = N'D - N D'

    where A f' = B f reads n A_0 f_n = sum_(k=1..K) (B_(k-1) + (k - n) A_k)
    f_(n-k) with K = max(deg A, deg(N) + deg(D)).  Over D = 1 these are
    Euler's recurrences n b_0 f_n = sum ((exponent + 1) k - n) b_k f_(n-k)
    and n f_n = sum k s_k f_(n-k), with K = M.  The power recurrence also
    has solutions growing like z0^(-n) at each root z0 of N.  Where the true
    series decays faster, as at a zero of r**k inside the disk for an integer
    k > 0, rounding errors along them swamp it; the quotient's recurrence
    grows only along the roots of its denominator, which are poles of the
    function, so every integer power goes through the quotient.  For a
    non-integer exponent a root of N is a branch point, which bounds the
    true series' decay as well.  The Python loop runs M times whatever the
    batch length.
    """
    num, den = (np.asarray(p, dtype=np.complex128) for p in (num, den))
    batched = num.ndim == 2 or den.ndim == 2
    num, den = (p.reshape(len(p), -1) for p in (num, den))
    G = max(num.shape[1], den.shape[1])
    num, den = (np.broadcast_to(p, (len(p), G)) for p in (num, den))
    if np.any(den[0] == 0.0):
        raise InputError("rational denominator vanishes at the expansion point 0")
    if kind == "power":
        f0 = _power_constant(num[0] / den[0], exponent)  # rejects a bad base
        if float(exponent).is_integer():
            k = int(exponent)
            top, bottom = (num, den) if k >= 0 else (den, num)
            num, den = _poly_pow(top, abs(k), M), _poly_pow(bottom, abs(k), M)
            kind = "quotient"
    # f_n = (rhs_n + sum_(k=1..K) c_(n,k) f_(n-k)) / l_n, with the rows c_n
    # reversed in rev and l_n in lead_n; the quotient's do not depend on n
    rhs = np.zeros((M + 1, G), dtype=np.complex128)
    if kind == "quotient":
        f0 = num[0] / den[0]
        rhs[: len(num)] = num[: M + 1]
        K = len(den) - 1
        rev = np.broadcast_to(-den[1:], (M, K, G))[:, ::-1]
        lead_n = np.broadcast_to(den[0], (M, G))
    else:
        if kind == "power":
            lead, scale = _poly_mul(num, den), exponent
        elif kind == "exp":
            f0 = np.exp(num[0] / den[0])
            lead, scale = _poly_mul(den, den), 1.0
        else:
            raise InputError(f"unknown rational series kind {kind!r}")
        # B has degree below deg(N) + deg(D); pad A and B to K + 1 rows
        K = max(len(lead) - 1, len(num) + len(den) - 2)
        lead = np.concatenate((lead, np.zeros((K + 1 - len(lead), G))))
        slope = np.zeros((K + 1, G), dtype=np.complex128)
        if len(num) > 1:
            part = _poly_mul(_poly_deriv(num), den)
            slope[: len(part)] += part
        if len(den) > 1:
            part = _poly_mul(num, _poly_deriv(den))
            slope[: len(part)] -= part
        k = np.arange(1, K + 1, dtype=np.float64)[:, None]
        slope = scale * slope[:K]
    # buf[K + n] holds f_n; the K leading zeros stand for f_(-K) .. f_(-1)
    buf = np.zeros((M + 1 + K, G), dtype=np.complex128)
    buf[K] = f0
    # rev[i, j] multiplies f_(n - K + j) for the step n = start + i.  einsum
    # forms each complex product from rounded real products (numpy's complex
    # multiply on arrays may fuse them, which would move coefficients by an
    # ulp), so a batch and its single columns agree bit for bit.
    rows = max(1, _BLOCK_ENTRIES // max(1, K * G))
    for start in range(1, M + 1, rows):
        stop = min(start + rows, M + 1)
        if kind != "quotient":
            n = np.arange(start, stop, dtype=np.float64)[:, None]
            rev, lead_n = (slope + (k - n[:, None]) * lead[1:])[:, ::-1], n * lead[0]
        for i, step in enumerate(range(start, stop)):
            acc = np.einsum("kg,kg->g", rev[i], buf[step : step + K])
            buf[K + step] = (rhs[step] + acc) / lead_n[i]
    out = buf[K:]
    return out if batched else out[:, 0].copy()


def _power_constant(b0: np.ndarray, gamma: float) -> np.ndarray:
    """Principal value b0**gamma, rejecting a zero base and the branch cut."""
    if (b0 == 0.0).any():
        raise InputError("power base vanishes at the expansion point 0")
    integer = float(gamma).is_integer()
    if not integer and ((b0.real < 0.0) & (np.abs(b0.imag) <= _ZERO_REL * np.abs(b0))).any():
        raise BranchError("non-integer power of a base whose constant term lies on the branch cut")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf
        return b0 ** int(gamma) if integer else np.exp(gamma * np.log(b0))


# -- precomposition elimination ---------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # a fold that overflows stays a node
def eliminate_precompose(e: AnalyticExpr) -> AnalyticExpr:
    """Rational normal form of e: an equivalent expression with no
    PrecomposeMoebius node, and each rational part (a Poly or Rational leaf,
    a low integer Power of one, or a Scale, Sum or Product of them) one leaf
    whose numerator and denominator share no root (`_normalize`).

    A linear fractional substitution z -> (az+b)/(cz+d) sends a polynomial of
    degree D to sum(p_k P^k Q^(D-k)) / Q^D with P = b + a z, Q = d + c z, and
    a rational function to a quotient of two such sums; all other nodes
    commute with substitution."""
    return _eliminate(e, ())


def _eliminate(e: AnalyticExpr, maps: tuple[MoebiusMap, ...]) -> AnalyticExpr:
    """One walk down the tree carrying the substitutions pending on e, innermost
    first, made at the leaves; each node is normalized once its parts are."""
    if isinstance(e, PrecomposeMoebius):
        return _eliminate(e.inner, (e.map,) + maps)
    if isinstance(e, Exp):
        return Exp(_eliminate(e.arg, maps))
    if isinstance(e, (Poly, Rational)):
        for m in maps:
            e = _substitute(e, m)
    elif isinstance(e, (Sum, Product)):
        e = type(e)(tuple(_eliminate(x, maps) for x in _parts(e)))
    elif isinstance(e, Power):
        e = Power(_eliminate(e.base, maps), e.exponent)
    elif isinstance(e, Scale):
        e = Scale(e.factor, _eliminate(e.inner, maps))
    else:
        raise InputError(f"unknown expression node {type(e).__name__}")
    return _normalize(e)


_PART_FIELDS = {Power: "base", Exp: "arg", Sum: "terms", Product: "factors", Scale: "inner"}


def _parts(e: AnalyticExpr) -> tuple:
    """The subexpressions of a node, none for a leaf."""
    part = getattr(e, _PART_FIELDS.get(type(e), ""), ())
    return part if isinstance(part, tuple) else (part,)


def _normalize(e: AnalyticExpr) -> AnalyticExpr:
    """e as one leaf when it is a leaf, an integer Power of one up to
    _FOLD_MAX_POWER, or a Scale, Sum or Product of leaves, else e.  Top
    coefficients below _ZERO_REL of the largest are dropped, and roots shared
    to _ROOT_MATCH_TOL cancel, with multiplicity, if the value at 0 stays to
    _CANCEL_REL; a zero numerator cancels every pole.  A leaf with no shared
    root is returned as it is, series and all."""
    if isinstance(e, Poly):
        return e
    quotients = [_quotient(x) for x in _parts(e) or (e,)]
    k = e.exponent if isinstance(e, Power) else 1.0
    if None in quotients or not (k.is_integer() and abs(k) <= _FOLD_MAX_POWER):
        return e
    # columns, the layout of `_poly_mul`
    (num, den), *rest = [(n[:, None], d[:, None]) for n, d in quotients]
    if isinstance(e, Power):
        num, den = (_poly_pow(p, int(abs(k))) for p in ((num, den) if k >= 0 else (den, num)))
    elif isinstance(e, Scale):
        num = e.factor * num
    for n, d in rest:
        if isinstance(e, Sum):
            short, num = sorted((_poly_mul(num, d), _poly_mul(n, den)), key=len)
            num[: len(short)] += short
        else:
            num = _poly_mul(num, n)
        den = _poly_mul(den, d)
    num, den = num[:, 0], den[:, 0]
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        return e  # a fold that overflowed is no leaf; e's own series shows the overflow
    if not np.any(num):
        return constant(0.0)
    num, den = _trim(num), _trim(den)
    roots = _roots(num) if min(len(num), len(den)) > 1 else ()
    left, kept = list(_roots(den)) if len(roots) else [], []
    for r in roots:
        near = [i for i, q in enumerate(left) if abs(q - r) <= _ROOT_MATCH_TOL * max(1.0, abs(r))]
        if near:
            left.pop(near[0])
        else:
            kept.append(r)
    if len(kept) < len(roots):  # rebuild both from the roots left
        n, d = (p[-1] * np.atleast_1d(np.poly(r))[::-1] for p, r in ((num, kept), (den, left)))
        if abs(n[0] * den[0] - num[0] * d[0]) <= _CANCEL_REL * abs(num[0] * d[0]):
            num, den = n, d
        else:
            kept = roots
    if len(kept) == len(roots) and isinstance(e, (Poly, Rational)):
        return e
    if len(den) == 1:
        return Poly(tuple(num / den[0]))
    return Rational(Poly(tuple(num)), Poly(tuple(den)))


def has_disk_singularity(e: AnalyticExpr, radius: float) -> bool:
    """True when the normal form of e has a leaf with a pole in |z| <= radius,
    or a Power of a leaf with a pole or a branch point there.  Leaves of the
    normal form are reduced, so a pole may cancel across leaves.  Other nodes
    are only walked through, so False proves nothing."""
    return _singular(eliminate_precompose(e), radius)


def _singular(e: AnalyticExpr, radius: float) -> bool:
    leaf = _quotient(e)
    base = _quotient(e.base) if isinstance(e, Power) else None
    if leaf is None and base is None:
        return any(_singular(x, radius) for x in _parts(e))
    # a leaf's poles; a base's roots where a power branches or divides by them
    if base and e.exponent.is_integer():
        base = base[1:] if e.exponent > 0 else base[:1]
    return any(np.any(np.abs(_roots(p)) <= radius) for p in (base or leaf[1:]))


def _trim(p: np.ndarray) -> np.ndarray:
    """p without its top coefficients below _ZERO_REL of the largest."""
    return p[: np.flatnonzero(np.abs(p) > _ZERO_REL * np.abs(p).max())[-1] + 1]


def _roots(p: np.ndarray) -> np.ndarray:
    """Roots of p but those near infinity from top coefficients below _ZERO_REL;
    each is the mean of those within _ROOT_MATCH_TOL of it, since np.roots
    spreads a double root over a cluster about 1e-8 wide, whose mean is accurate."""
    p = _trim(p)
    if len(p) <= 2:  # one division, not np.roots' 20 us; Python's takes a subnormal divisor
        return np.array([-complex(c) / complex(p[-1]) for c in p[:-1]], dtype=complex)
    r = np.roots(p[::-1])  # np.roots wants the highest degree first
    near = np.abs(r[:, None] - r) <= _ROOT_MATCH_TOL * np.maximum(1.0, np.abs(r))[:, None]
    return near @ r / near.sum(axis=1)


def _substitute_poly(coeffs, m: MoebiusMap, D: int) -> np.ndarray:
    """Coefficients of sum(coeffs[k] P^k Q^(D-k)) for P = b+az, Q = d+cz.

    `coeffs` holds the polynomial's coefficients along axis 0, optionally
    with a trailing batch axis (the convention of `rational_series`); the
    result has D + 1 rows and the same batch axis.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    x = c.reshape(len(c), -1)
    P, Q = (np.array(pair, dtype=np.complex128) for pair in ((m.b, m.a), (m.d, m.c)))
    Ppow, Qpow = [np.array([1.0 + 0j])], [np.array([1.0 + 0j])]
    for _ in range(D):
        Ppow.append(np.convolve(Ppow[-1], P))
        Qpow.append(np.convolve(Qpow[-1], Q))
    out = np.zeros((D + 1, x.shape[1]), dtype=np.complex128)
    for k in range(min(len(x), D + 1)):
        out += np.convolve(Ppow[k], Qpow[D - k])[:, None] * x[k]
    return out if c.ndim == 2 else out[:, 0]


def _substitute(e: Poly | Rational, m: MoebiusMap) -> Poly | Rational:
    """The leaf e(m(z)) as a rational function; a constant stays as it is."""
    num, den = _quotient(e)
    D = max(len(num), len(den)) - 1
    if D == 0:
        return e
    return Rational(*(Poly(tuple(_substitute_poly(p, m, D))) for p in (num, den)))


# -- tail diagnostics ---------------------------------------------------------


@dataclass(frozen=True)
class TailDiagnostics:
    """Arrays over the batch axis, one entry per series."""

    ratio: np.ndarray  # per-coefficient geometric decay from the two halves
    bound: np.ndarray  # crude bound on the l2 mass beyond the truncation
    slow_decay: np.ndarray


def tail_diagnostics(coeffs: np.ndarray) -> TailDiagnostics:
    """Decay ratio, tail bound and slow-decay flag of truncated series.

    `coeffs` holds Taylor coefficients c_0 .. c_M along axis 0, with a
    trailing batch axis (the convention of `rational_series`) or without one,
    a batch of one.  The ratio is the per-coefficient decay of the norms of
    the two halves; the bound is geometric from the largest of the last eight
    coefficients, infinite when the ratio is not below one.  A series of
    order below TAIL_MIN_ORDER is too short to judge: its ratio is one, so it
    has no finite bound and is flagged slow.
    """
    rows = len(coeffs)
    x, h = np.asarray(coeffs, dtype=np.complex128).reshape(rows, -1), rows // 2
    # column norms of the two halves; einsum on the real and imaginary views
    # makes no temporary the size of x
    front, tail = (
        np.sqrt(np.einsum("ij,ij->j", y.real, y.real) + np.einsum("ij,ij->j", y.imag, y.imag))
        for y in (x[:h], x[h:])
    )
    last = np.max(np.abs(x[-8:]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(front == 0.0, 1.0, (tail / front) ** (1.0 / (rows - h)))
        ratio = np.where(tail == 0.0, 0.0, ratio)
        ratio = np.where(rows > TAIL_MIN_ORDER, ratio, 1.0)
        bound = np.where(ratio < 1.0, last * ratio / np.sqrt(1.0 - ratio * ratio), np.inf)
    return TailDiagnostics(ratio, bound, ratio > SLOW_DECAY_RATIO)


def column_tail_bound(colnorms: np.ndarray) -> float:
    """Crude bound on the sum of squared column norms beyond the last column,
    geometric from the decay over the last eight; infinite for one column or
    for norms that do not decay."""
    last = float(colnorms[-1])
    if last == 0.0:
        return 0.0
    k = min(8, len(colnorms) - 1)
    prev = float(colnorms[-1 - k])  # the last itself for one column
    if last >= prev:
        return float("inf")
    r = (last / prev) ** (1.0 / k)
    r2 = r * r
    return last * last * r2 / (1.0 - r2)


# -- serialization ------------------------------------------------------------


def expr_to_json(e: AnalyticExpr) -> dict:
    if isinstance(e, Poly):
        return {"type": "poly", "coeffs": [pair_to_json(c) for c in e.coeffs]}
    if isinstance(e, Rational):
        return {"type": "rational", "num": expr_to_json(e.num), "den": expr_to_json(e.den)}
    if isinstance(e, Power):
        return {"type": "power", "base": expr_to_json(e.base), "exponent": e.exponent}
    if isinstance(e, Exp):
        return {"type": "exp", "arg": expr_to_json(e.arg)}
    if isinstance(e, Sum):
        return {"type": "sum", "terms": [expr_to_json(t) for t in e.terms]}
    if isinstance(e, Product):
        return {"type": "product", "factors": [expr_to_json(f) for f in e.factors]}
    if isinstance(e, Scale):
        return {"type": "scale", "factor": pair_to_json(e.factor), "inner": expr_to_json(e.inner)}
    if isinstance(e, PrecomposeMoebius):
        return {"type": "precompose", "inner": expr_to_json(e.inner), "map": e.map.to_json()}
    raise InputError(f"unknown expression node {type(e).__name__}")


def expr_from_json(obj: dict) -> AnalyticExpr:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("expression JSON must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "poly":
            coeffs = _json_list(obj, "coeffs")
            return Poly(tuple(number_from_json(c, True, "poly coefficient") for c in coeffs))
        if kind == "rational":
            num, den = (expr_from_json(obj[k]) for k in ("num", "den"))
            if not isinstance(num, Poly) or not isinstance(den, Poly):
                raise InputError("rational num/den must be polynomials")
            return Rational(num, den)
        if kind == "power":
            base = expr_from_json(obj["base"])
            return Power(base, number_from_json(obj["exponent"], False, "power exponent"))
        if kind == "exp":
            return Exp(expr_from_json(obj["arg"]))
        if kind == "sum":
            return Sum(tuple(expr_from_json(t) for t in _json_list(obj, "terms")))
        if kind == "product":
            return Product(tuple(expr_from_json(f) for f in _json_list(obj, "factors")))
        if kind == "scale":
            factor = number_from_json(obj["factor"], True, "scale factor")
            return Scale(factor, expr_from_json(obj["inner"]))
        if kind == "precompose":
            return PrecomposeMoebius(expr_from_json(obj["inner"]), MoebiusMap.from_json(obj["map"]))
    except KeyError as exc:
        raise InputError(f"expression JSON missing key {exc}")
    raise InputError(f"unknown expression type {kind!r}")


def _json_list(obj: dict, key: str) -> list:
    if not isinstance(obj[key], list):
        raise InputError(f"expression JSON {key!r} must be a list")
    return obj[key]
