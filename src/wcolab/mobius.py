"""Linear fractional self-maps of the unit disk.

Maps are stored as unnormalized coefficient quadruples (a, b, c, d) for
z -> (a*z + b)/(c*z + d); equality is projective, so every operation must be
invariant under rescaling all four coefficients.  Arithmetic is carried out
on the extended plane with an explicit INFINITY value, which keeps affine
maps honest about their fixed point at infinity.

The classification routine sorts a self-map into one of eight dynamical
classes driven by its Denjoy-Wolff point: location (interior or boundary),
derivative there, and whether the map is a disk automorphism.  Maps within
tolerance of a dividing line are resolved toward the parabolic side and
flagged as borderline rather than rejected.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMapError,
    InputError,
    NotParabolicError,
    NotSelfMapError,
)

DEFAULT_TOL = 1e-10

# Relative threshold below which a coefficient counts as exactly zero.
_ZERO_REL = 1e-14

# A discriminant or boundary derivative minus one below this is rounding.
_ROUNDING_FLOOR = 1e-13

#: Canonical point at infinity on the extended plane.
INFINITY = complex(math.inf, 0.0)


def is_infinity(z: complex) -> bool:
    """True for the extended-plane point at infinity (any non-finite value)."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def number_from_json(obj, pair: bool, what: str) -> complex | float:
    """The JSON number obj as a finite float, or with `pair` the [re, im] pair
    obj, a list of exactly two JSON numbers, as a finite complex.  Anything
    else (a string, a bool, a number beyond the finite floats) is an InputError."""
    parts = obj if pair else [obj]
    if not (isinstance(parts, list) and len(parts) == 1 + pair) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts
    ):
        raise InputError(f"{what} must be {'a [re, im] pair' if pair else 'a number'}, got {obj!r}")
    try:
        z = complex(*parts)
    except OverflowError:
        z = INFINITY
    if not cmath.isfinite(z):
        raise InputError(f"{what} must be finite, got {obj!r}")
    return z if pair else z.real


def pair_to_json(z: complex) -> list[float]:
    """The [re, im] pair `number_from_json` reads back as z."""
    return [z.real, z.imag]


@dataclass(frozen=True)
class MoebiusMap:
    """The map z -> (a*z + b)/(c*z + d), coefficients stored unnormalized."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not all(cmath.isfinite(z) for z in (self.a, self.b, self.c, self.d)):
            raise DegenerateMapError("coefficients must be finite")
        s = self.coeff_scale()
        if s == 0.0 or not math.isfinite(s):
            raise DegenerateMapError("coefficients must be finite and not all zero")
        if abs(self.determinant()) <= _ZERO_REL * s * s:
            raise DegenerateMapError(
                f"determinant vanishes for coefficients ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    # -- basic algebra ---------------------------------------------------

    def coeff_scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, z):
        """Evaluate on the extended plane at a point z, or elementwise at an
        array z: poles go to INFINITY, INFINITY to a/c.

        A scalar gives a complex and an array an array of its shape; a
        scalar is evaluated as a one-point array.
        """
        zs = np.asarray(z, dtype=np.complex128)
        x = np.atleast_1d(zs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = self.c * x + self.d
            # relative to the terms of den, so a far finite point is no pole
            pole = np.abs(den) <= _ZERO_REL * (np.abs(self.c * x) + abs(self.d))
            out = np.where(pole, INFINITY, (self.a * x + self.b) / den)
        at_infinity = INFINITY if self._c_is_zero() else self.a / self.c
        out = np.where(np.isfinite(x), out, at_infinity)
        return complex(out[0]) if zs.ndim == 0 else out

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Return self o other (apply `other` first)."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def iterate(self, n: int) -> "MoebiusMap":
        """n-fold composition with itself, n >= 1, by repeated squaring; the
        base is squared only while a higher bit of n is left to use it, since
        a square past that may be degenerate to rounding, as the 64th
        iterate of (z + 1)/2 is."""
        if n < 1:
            raise InputError("iterate requires n >= 1")
        result = None
        base = self.normalized()
        while True:
            if n & 1:
                result = base if result is None else result.compose(base)
                result = result.normalized()
            n >>= 1
            if not n:
                return result
            base = base.compose(base).normalized()

    def normalized(self) -> "MoebiusMap":
        """Same map with coefficient scale 1 (projective representative)."""
        s = self.coeff_scale()
        return MoebiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def derivative_at(self, z: complex) -> complex:
        """Derivative at a finite non-pole point; at INFINITY, the chart
        derivative of w -> 1/m(1/w) at 0, which is d/a when c = 0."""
        if is_infinity(z):
            if not self._c_is_zero():
                raise InputError("derivative at infinity requires an affine map")
            return self.d / self.a
        den = self.c * z + self.d
        # relative to the terms of den, so a far fixed point is no pole
        if abs(den) <= _ZERO_REL * (abs(self.c * z) + abs(self.d)):
            raise InputError("derivative requested at a pole")
        return self.determinant() / (den * den)

    def _c_is_zero(self) -> bool:
        return abs(self.c) <= _ZERO_REL * self.coeff_scale()

    # -- geometry of the image circle ------------------------------------

    def image_circle(self) -> tuple[complex, float] | None:
        """Center and radius of m(unit circle), or None when it is a line.

        The image is a line exactly when |c| = |d| (the pole lies on the
        unit circle).
        """
        nc = abs(self.c) ** 2
        nd = abs(self.d) ** 2
        denom = nd - nc
        if abs(denom) <= _ZERO_REL * self.coeff_scale() ** 2:
            return None
        center = (self.b * self.d.conjugate() - self.a * self.c.conjugate()) / denom
        radius = abs(self.determinant()) / abs(denom)
        return center, radius

    def is_self_map(self, tol: float = DEFAULT_TOL) -> bool:
        """True when m(D) is contained in the closed unit disk D.

        Requires the pole strictly outside the closed disk (|d| > |c|), so
        that m(D) is the inside of the image circle, and then containment
        |center| + radius <= 1 + tol.
        """
        circle = self.image_circle()
        if circle is None:
            return False
        if abs(self.d) <= abs(self.c):
            # pole inside the disk: the image of D is the circle's outside
            return False
        center, radius = circle
        return abs(center) + radius <= 1.0 + tol

    def is_automorphism(self, tol: float = DEFAULT_TOL) -> bool:
        """True when m maps the unit disk onto itself."""
        if not self.is_self_map(tol):
            return False
        center, radius = self.image_circle()
        return abs(center) <= tol and abs(radius - 1.0) <= tol

    def is_identity(self, tol: float = DEFAULT_TOL) -> bool:
        return projective_distance(self, identity()) <= tol

    # -- fixed points and Denjoy-Wolff data -------------------------------

    def fixed_points(self, tol: float = DEFAULT_TOL) -> "FixedPointData":
        """Fixed points with multiplicity on the extended plane.

        Identity maps are rejected.  A non-identity map has total
        multiplicity two; a discriminant within tol of zero (relative to the
        coefficient scale squared) is resolved as a double point.
        """
        if self.is_identity(tol):
            raise InputError("every point is fixed: the map is the identity")
        m = self.normalized()
        if m._c_is_zero():
            # affine: a*z + b = d*z has the root b/(d-a), plus infinity
            if abs(m.d - m.a) <= _ZERO_REL:
                # translation in the affine chart: infinity is a double point
                pt = FixedPoint(INFINITY, 2, 1.0 + 0.0j)
                return FixedPointData((pt,), borderline=False)
            root = m.b / (m.d - m.a)
            finite = FixedPoint(root, 1, m.derivative_at(root))
            inf = FixedPoint(INFINITY, 1, m.d / m.a)
            return FixedPointData((finite, inf), borderline=False)
        # c != 0: roots of c z^2 + (d - a) z - b = 0
        A, B, C = m.c, m.d - m.a, -m.b
        disc = B * B - 4.0 * A * C
        if abs(disc) <= tol:
            root = -B / (2.0 * A)
            pt = FixedPoint(root, 2, m.derivative_at(root))
            return FixedPointData((pt,), borderline=_ROUNDING_FLOOR <= abs(disc))
        sq = cmath.sqrt(disc)
        if (B.conjugate() * sq).real < 0.0:
            sq = -sq
        q = -(B + sq) / 2.0
        r1 = q / A
        r2 = C / q if abs(q) > 0.0 else r1
        pts = sorted((r1, r2), key=lambda w: (round(abs(w), 12), w.real, w.imag))
        data = tuple(FixedPoint(p, 1, m.derivative_at(p)) for p in pts)
        return FixedPointData(data, borderline=abs(disc) <= 10.0 * tol)

    def denjoy_wolff(self, tol: float = DEFAULT_TOL) -> "DWPoint":
        """Attracting fixed point in the closed disk, with its derivative, as
        `classify` finds it; the identity and elliptic automorphisms have none."""
        dw = classify(self, tol).dw
        if dw is None:
            raise InputError("no attracting fixed point: identity or elliptic automorphism")
        return dw

    # -- normal forms ------------------------------------------------------

    def krein_adjoint(self) -> "MoebiusMap":
        """The companion map z -> (conj(a) z - conj(c)) / (-conj(b) z + conj(d)).

        For a self-map this is again a self-map, and the construction is an
        involution.
        """
        return MoebiusMap(
            self.a.conjugate(),
            -self.c.conjugate(),
            -self.b.conjugate(),
            self.d.conjugate(),
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {k: pair_to_json(getattr(self, k)) for k in "abcd"}

    @staticmethod
    def from_json(obj: dict) -> "MoebiusMap":
        try:
            pairs = [obj[k] for k in "abcd"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"map JSON needs keys a,b,c,d as [re, im] pairs: {exc}")
        coeffs = [number_from_json(p, True, f"map coefficient {k}") for k, p in zip("abcd", pairs)]
        return MoebiusMap(*coeffs)


@dataclass(frozen=True)
class FixedPoint:
    location: complex  # finite point or INFINITY
    multiplicity: int
    derivative: complex


@dataclass(frozen=True)
class FixedPointData:
    points: tuple[FixedPoint, ...]
    borderline: bool  # discriminant was within tolerance of zero, above rounding


@dataclass(frozen=True)
class DWPoint:
    location: complex
    derivative: complex
    boundary: bool


class MapClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC_AUTOMORPHISM = "elliptic-automorphism"
    HYPERBOLIC_AUTOMORPHISM = "hyperbolic-automorphism"
    PARABOLIC_AUTOMORPHISM = "parabolic-automorphism"
    PARABOLIC_NON_AUTOMORPHISM = "parabolic-non-automorphism"
    HYPERBOLIC_TYPE = "hyperbolic-type-non-automorphism"
    INTERIOR_NO_BOUNDARY_FIXED = "interior-dw-no-boundary-fixed-point"
    INTERIOR_WITH_BOUNDARY_FIXED = "interior-dw-with-boundary-fixed-point"


@dataclass(frozen=True)
class Classification:
    map_class: MapClass
    borderline: bool
    notes: tuple[str, ...]
    fixed_points: FixedPointData | None
    dw: DWPoint | None
    translation: complex | None


def identity() -> MoebiusMap:
    return MoebiusMap(1.0, 0.0, 0.0, 1.0)


def rotation(lam: complex) -> MoebiusMap:
    """The rotation-dilation z -> lam * z for 0 < |lam|."""
    lam = complex(lam)
    if abs(lam) == 0.0:
        raise InputError("rotation factor must be nonzero")
    return MoebiusMap(lam, 0.0, 0.0, 1.0)


def disk_automorphism(point: complex, lam: complex = 1.0) -> MoebiusMap:
    """The automorphism z -> lam * (point - z)/(1 - conj(point) z), |point| < 1."""
    point = complex(point)
    if abs(point) >= 1.0:
        raise InputError("automorphism parameter must lie in the open disk")
    lam = complex(lam)
    return MoebiusMap(-lam, lam * point, -point.conjugate(), 1.0)


def projective_distance(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Sine of the angle between coefficient vectors; 0 iff the maps agree.

    Computed from the wedge product, which stays accurate near zero where
    sqrt(1 - cos^2) would lose all precision to cancellation.
    """
    v1 = (m1.a, m1.b, m1.c, m1.d)
    v2 = (m2.a, m2.b, m2.c, m2.d)
    n1 = math.sqrt(sum(abs(x) ** 2 for x in v1))
    n2 = math.sqrt(sum(abs(x) ** 2 for x in v2))
    wedge = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            wedge += abs(v1[i] * v2[j] - v1[j] * v2[i]) ** 2
    return min(1.0, math.sqrt(wedge) / (n1 * n2))


def parabolic_from(zeta: complex, t: complex) -> MoebiusMap:
    """Parabolic self-map with boundary fixed point zeta and translation number t.

    Conjugating by the Cayley-type chart tau(z) = (1 + conj(zeta) z)/(1 - conj(zeta) z)
    sends the map to w -> w + t on the right half-plane; Re t >= 0 is required
    (Re t = 0 gives the automorphism case), t = 0 is rejected as the identity.
    """
    zeta = complex(zeta)
    t = complex(t)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise InputError("fixed point must lie on the unit circle")
    zeta = zeta / abs(zeta)
    if abs(t) == 0.0:
        raise InputError("translation number must be nonzero")
    if t.real < -1e-13 * abs(t):
        raise InputError("translation number must have Re t >= 0")
    if t.real < 0.0:
        t = complex(0.0, t.imag)
    return MoebiusMap(2.0 - t, t * zeta, -t * zeta.conjugate(), 2.0 + t)


def translation_number(m: MoebiusMap, tol: float = DEFAULT_TOL) -> complex:
    """Translation number t of a parabolic self-map, as `classify` finds it.

    In the half-plane chart at the double fixed point zeta the map acts as
    w -> w + t; concretely t = tau(m(0)) - 1 with tau as in parabolic_from.
    Re t >= 0 always; Re t == 0 exactly for automorphisms.
    """
    c = classify(m, tol)
    if c.map_class is MapClass.IDENTITY:
        raise InputError("every point is fixed: the map is the identity")
    if c.translation is None:
        raise NotParabolicError(f"a {c.map_class.value} map has no translation number")
    return c.translation


def _attracting(fps: FixedPointData, tol: float) -> DWPoint:
    """Denjoy-Wolff point of a self-map, not the identity nor an elliptic
    automorphism, with fixed points fps: the finite one in the closed disk
    with least |derivative|, snapped onto the circle within tol of it."""
    finite = (p for p in fps.points if not is_infinity(p.location))
    candidates = [p for p in finite if abs(p.location) <= 1.0 + tol]
    if not candidates:
        raise NotSelfMapError("no fixed point in the closed disk")
    best = min(candidates, key=lambda p: abs(p.derivative))
    if abs(best.derivative) > 1.0 + max(tol, 1e-9):
        raise NotSelfMapError("candidate fixed point is repelling")
    loc, deriv = best.location, best.derivative
    boundary = abs(abs(loc) - 1.0) <= tol
    if boundary:
        # angular derivative of a self-map at its boundary Denjoy-Wolff
        # point is a positive real; discard rounding in the imaginary part
        loc = loc / abs(loc)
        deriv = complex(deriv.real, 0.0) if abs(deriv.imag) <= 1e-9 else deriv
    return DWPoint(loc, deriv, boundary)


def _translation(m: MoebiusMap, point: complex) -> complex:
    """t = tau(m(0)) - 1 in the half-plane chart at the boundary point `point`."""
    w = m.apply(0.0)
    t = (1.0 + point.conjugate() * w) / (1.0 - point.conjugate() * w) - 1.0
    if t.real < 0.0 and abs(t.real) <= 1e-12 * max(1.0, abs(t)):
        t = complex(0.0, t.imag)
    return t


def classify(m: MoebiusMap, tol: float = DEFAULT_TOL) -> Classification:
    """Sort a self-map into its dynamical class, with its Denjoy-Wolff point
    and, for a parabolic map, its translation number.

    Near a dividing line (discriminant, derivative, or boundary distance
    within tol) the result is resolved toward the parabolic side and the
    `borderline` flag is set, unless it is rounding (below _ROUNDING_FLOOR).
    """
    if not m.is_self_map(tol):
        raise NotSelfMapError("classification requires a self-map of the disk")
    if m.is_identity(tol):
        return Classification(MapClass.IDENTITY, False, (), None, None, None)

    fps = m.fixed_points(tol)
    notes = ["fixed-point discriminant within tolerance of zero"] if fps.borderline else []
    finite = [p for p in fps.points if not is_infinity(p.location)]
    interior = [p for p in finite if abs(p.location) < 1.0 - tol]
    auto = m.is_automorphism(tol)
    dw = None if auto and interior else _attracting(fps, tol)
    parabolic = False
    if dw is None:
        cls = MapClass.ELLIPTIC_AUTOMORPHISM
        if any(1.0 - abs(p.location) <= 10.0 * tol for p in interior):
            notes.append("interior fixed point close to the unit circle")
    elif auto:
        parabolic = len(fps.points) == 1 and fps.points[0].multiplicity == 2
        cls = MapClass.PARABOLIC_AUTOMORPHISM if parabolic else MapClass.HYPERBOLIC_AUTOMORPHISM
    elif dw.boundary:
        parabolic = abs(dw.derivative.real - 1.0) <= tol
        if parabolic and abs(dw.derivative - 1.0) >= _ROUNDING_FLOOR:
            notes.append("boundary derivative within tolerance of one")
        cls = MapClass.PARABOLIC_NON_AUTOMORPHISM if parabolic else MapClass.HYPERBOLIC_TYPE
    else:
        gaps = [abs(abs(p.location) - 1.0) for p in finite if abs(p.location - dw.location) > tol]
        if any(tol < g <= 10.0 * tol for g in gaps):
            notes.append("second fixed point close to the unit circle")
        cls = MapClass.INTERIOR_NO_BOUNDARY_FIXED
        if any(g <= tol for g in gaps):
            cls = MapClass.INTERIOR_WITH_BOUNDARY_FIXED
    t = _translation(m, dw.location / abs(dw.location)) if parabolic else None
    return Classification(cls, bool(notes), tuple(notes), fps, dw, t)
