"""Tests for the linear fractional map layer."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcolab import cli
from wcolab.errors import (
    DegenerateMapError,
    InputError,
    NotSelfMapError,
)
from wcolab.mobius import (
    INFINITY,
    MapClass,
    MoebiusMap,
    classify,
    identity,
    is_infinity,
    parabolic_from,
    projective_distance,
    rotation,
)

HALF_SHIFT = MoebiusMap(1, 0, -1, 2)  # z/(2-z)
AFFINE_HALF = MoebiusMap(1, 1, 0, 2)  # (z+1)/2
# a rotation moved by an automorphism at p ~ 1.7e-14: its second fixed point
# 1/conj(p) ~ 6e13 is far, but no pole
FAR_FIXED_POINT_MAP = MoebiusMap(
    0.4161468365471424 - 0.9092974268256817j,
    -1.4161468365471423e-14 + 9.092974268256818e-15j,
    1.4161468365471423e-14 - 9.092974268256818e-15j,
    -1 + 9.092974268256817e-29j,
)


def random_map(rng):
    a, b, c, d = (complex(x, y) for x, y in rng.normal(size=(4, 2)))
    if abs(a * d - b * c) < 1e-6:
        a += 1.0
    return MoebiusMap(a, b, c, d)


def disk_points(count=24):
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.uniform(0, 0.9, count))
    th = rng.uniform(0, 2 * np.pi, count)
    return r * np.exp(1j * th)


def test_apply_matches_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_map(rng)
        z = complex(*rng.normal(size=2))
        expected = (m.a * z + m.b) / (m.c * z + m.d)
        assert abs(m.apply(z) - expected) < 1e-12 * max(1.0, abs(expected))
    # an array is mapped elementwise; the pole z = 2 of z/(2-z) goes to INFINITY
    zs = np.array([0.5, 2.0, -1j, INFINITY])
    values = HALF_SHIFT.apply(zs)
    assert values[1] == HALF_SHIFT.apply(2.0) == INFINITY
    finite = [0, 2, 3]
    scalars = [HALF_SHIFT.apply(z) for z in zs[finite]]
    np.testing.assert_allclose(values[finite], scalars, rtol=1e-15, atol=0)
    assert values[3] == -1.0  # INFINITY goes to a/c


def test_apply_sends_far_finite_points_to_finite_values():
    # a pole is judged against the terms of c z + d, not against |z|: the far
    # fixed point stays fixed and 2z doubles 1e15, as a scalar and in an array
    far = classify(FAR_FIXED_POINT_MAP).fixed_points.points[1].location
    doubling = MoebiusMap(2, 0, 0, 1)
    for m, z, want in ((FAR_FIXED_POINT_MAP, far, far), (doubling, 1e15, 2e15)):
        assert abs(m.apply(z) - want) <= 1e-12 * abs(want)
        values = m.apply(np.array([z, 0.25]))
        assert abs(values[0] - want) <= 1e-12 * abs(want)
        assert values[1] == m.apply(0.25)


def test_compose_matches_pointwise():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m1, m2 = random_map(rng), random_map(rng)
        z = complex(*rng.normal(size=2)) * 0.3
        lhs = m1.compose(m2).apply(z)
        rhs = m1.apply(m2.apply(z))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_inverse_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = random_map(rng)
        assert projective_distance(m.compose(m.inverse()), identity()) <= 1e-9
        assert projective_distance(m.inverse().compose(m), identity()) <= 1e-9


def test_iterate_matches_repeated_apply():
    for z in disk_points(8):
        w = z
        for n in range(1, 6):
            w = HALF_SHIFT.apply(w)
            assert abs(HALF_SHIFT.iterate(n).apply(z) - w) < 1e-12


def test_iterate_requires_positive_count():
    with pytest.raises(InputError):
        HALF_SHIFT.iterate(0)


def test_projective_distance_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_map(rng)
        k = complex(*rng.normal(size=2))
        if abs(k) < 1e-3:
            k = 1.5
        scaled = MoebiusMap(k * m.a, k * m.b, k * m.c, k * m.d)
        assert projective_distance(m, scaled) < 1e-12
    # distance really separates distinct maps
    assert projective_distance(HALF_SHIFT, AFFINE_HALF) > 1e-2


def test_degenerate_map_rejected():
    with pytest.raises(DegenerateMapError):
        MoebiusMap(1, 1, 1, 1)
    with pytest.raises(DegenerateMapError):
        MoebiusMap(2, 4, 1, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_non_finite_coefficient_rejected(bad):
    # max() over the moduli skips a NaN after the first, so each is checked
    for k in range(4):
        coeffs = [1, 0, -1, 2]
        coeffs[k] = bad
        with pytest.raises(DegenerateMapError, match="finite"):
            MoebiusMap(*coeffs)


def test_image_circle_against_samples():
    rng = np.random.default_rng(4)
    for m in (HALF_SHIFT, AFFINE_HALF, MoebiusMap(2, 1, 1, 3), random_map(rng)):
        center, radius = m.image_circle()
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
        dist = np.array([abs(m.apply(z) - center) for z in zs])
        assert np.max(np.abs(dist - radius)) < 1e-9 * max(1.0, radius)


def disk_automorphism(point: complex, lam: complex = 1.0) -> MoebiusMap:
    """The automorphism z -> lam * (point - z)/(1 - conj(point) z), |point| < 1."""
    point, lam = complex(point), complex(lam)
    return MoebiusMap(-lam, lam * point, -point.conjugate(), 1.0)


def test_is_self_map_cases():
    assert HALF_SHIFT.is_self_map()
    assert AFFINE_HALF.is_self_map()  # touches the boundary at 1
    assert disk_automorphism(0.3 + 0.1j).is_self_map()
    assert not MoebiusMap(2, 0, 0, 1).is_self_map()  # 2z leaves the disk
    assert not MoebiusMap(0, 1, 1, 0).is_self_map()  # 1/z has its pole inside
    assert not MoebiusMap(1, 0.9, 0, 1).is_self_map()  # z + 0.9 shifts out


def test_is_automorphism_cases():
    assert rotation(1j).is_automorphism()
    assert disk_automorphism(0.5, -1.0).is_automorphism()
    assert not HALF_SHIFT.is_automorphism()
    assert not AFFINE_HALF.is_automorphism()


def test_fixed_points_half_shift():
    fp = HALF_SHIFT.fixed_points()
    locs = sorted(p.location.real for p in fp.points)
    assert len(fp.points) == 2
    assert abs(locs[0] - 0.0) < 1e-12 and abs(locs[1] - 1.0) < 1e-12
    by_loc = {round(p.location.real): p for p in fp.points}
    assert abs(by_loc[0].derivative - 0.5) < 1e-12
    assert abs(by_loc[1].derivative - 2.0) < 1e-12


def test_fixed_points_affine_has_infinity():
    fp = AFFINE_HALF.fixed_points()
    finite = [p for p in fp.points if not is_infinity(p.location)]
    infinite = [p for p in fp.points if is_infinity(p.location)]
    assert len(finite) == 1 and len(infinite) == 1
    assert abs(finite[0].location - 1.0) < 1e-12
    assert abs(finite[0].derivative - 0.5) < 1e-12


def test_fixed_points_parabolic_double():
    m = parabolic_from(1.0, 1.0)
    fp = m.fixed_points()
    assert len(fp.points) == 1
    assert fp.points[0].multiplicity == 2
    assert abs(fp.points[0].location - 1.0) < 1e-10


def test_denjoy_wolff_cases():
    dw = classify(HALF_SHIFT).dw
    assert abs(dw.location) < 1e-10 and not dw.boundary

    dw = classify(AFFINE_HALF).dw
    assert abs(dw.location - 1.0) < 1e-10 and dw.boundary
    assert abs(dw.derivative - 0.5) < 1e-10

    dw = classify(parabolic_from(1.0, 1.0)).dw
    assert abs(dw.location - 1.0) < 1e-10 and dw.boundary
    assert abs(dw.derivative - 1.0) < 1e-10

    # elliptic automorphisms and the identity have no attracting fixed point
    assert classify(rotation(1j)).dw is None
    assert classify(identity()).dw is None


def test_denjoy_wolff_requires_self_map():
    with pytest.raises(NotSelfMapError):
        classify(MoebiusMap(2, 0, 0, 1))


def classify_class(m):
    return classify(m).map_class


def test_classify_identity():
    assert classify_class(identity()) is MapClass.IDENTITY
    scaled = MoebiusMap(3.0, 0, 0, 3.0)
    assert classify_class(scaled) is MapClass.IDENTITY


def test_classify_elliptic_automorphism():
    assert classify_class(rotation(1j)) is MapClass.ELLIPTIC_AUTOMORPHISM
    m = disk_automorphism(0.4, np.exp(0.7j))
    conj = m.compose(rotation(np.exp(0.7j))).compose(m.inverse())
    assert classify_class(conj) is MapClass.ELLIPTIC_AUTOMORPHISM


def test_classify_elliptic_automorphism_with_a_far_fixed_point():
    m = FAR_FIXED_POINT_MAP
    result = classify(m)
    assert result.map_class is MapClass.ELLIPTIC_AUTOMORPHISM
    assert abs(result.fixed_points.points[0].location) < 1e-13
    assert abs(abs(result.fixed_points.points[1].derivative) - 1.0) < 1e-12


def test_classify_hyperbolic_automorphism():
    m = MoebiusMap(2, 1, 1, 2)  # fixes -1 and 1 with derivatives 3 and 1/3
    assert m.is_automorphism()
    assert classify_class(m) is MapClass.HYPERBOLIC_AUTOMORPHISM


def test_classify_parabolic_automorphism():
    m = parabolic_from(1.0, 2j)  # purely imaginary translation number
    assert m.is_automorphism()
    assert classify_class(m) is MapClass.PARABOLIC_AUTOMORPHISM


def test_classify_parabolic_non_automorphism():
    m = parabolic_from(1.0, 1.0)
    assert classify_class(m) is MapClass.PARABOLIC_NON_AUTOMORPHISM


def test_classify_hyperbolic_type_non_automorphism():
    assert classify_class(AFFINE_HALF) is MapClass.HYPERBOLIC_TYPE


def test_classify_interior_dw_classes():
    assert classify_class(HALF_SHIFT) is MapClass.INTERIOR_WITH_BOUNDARY_FIXED
    shrink = MoebiusMap(0.25, 0, -0.75, 1)  # z/4 transported; fixes 0 and 1
    assert classify_class(shrink) is MapClass.INTERIOR_WITH_BOUNDARY_FIXED
    half = MoebiusMap(0.5, 0, 0, 1)  # z/2 fixes 0 and infinity only
    assert classify_class(half) is MapClass.INTERIOR_NO_BOUNDARY_FIXED


def test_classify_rejects_non_self_map():
    with pytest.raises(NotSelfMapError):
        classify(MoebiusMap(1, 0.9, 0, 1))


def test_classify_borderline_near_parabolic():
    base = parabolic_from(1.0, 1.0)
    eps = 1e-12
    # eps added to b leaves the parabolic line (eps added to a and d would not:
    # that adds eps times the identity matrix, and the map stays parabolic)
    wobbled = MoebiusMap(base.a, base.b + eps, base.c, base.d)
    result = classify(wobbled)
    assert result.map_class in (
        MapClass.PARABOLIC_NON_AUTOMORPHISM,
        MapClass.PARABOLIC_AUTOMORPHISM,
    )
    assert result.borderline


def test_parabolic_notes_do_not_depend_on_the_scale():
    # rounding leaves the discriminant and the boundary derivative of an
    # exactly parabolic map off 0 and 1 by an amount the scale moves; below
    # the rounding floor neither is a note
    rng = np.random.default_rng(29)
    cases = [(1.0, 1.0, cmath.exp(1j))]  # at the parent: one note, then two
    for _ in range(1000):
        zeta, k = np.exp(2j * np.pi * rng.random(2))
        re_t = rng.uniform(0.0, 2.0) if rng.random() < 0.75 else 0.0  # 0: automorphism
        cases.append((zeta, complex(re_t, rng.uniform(-3.0, 3.0)), k))
    for zeta, t, k in cases:
        m = parabolic_from(zeta, t)
        scaled = MoebiusMap(k * m.a, k * m.b, k * m.c, k * m.d)
        assert (classify(m).borderline, classify(m).notes) == (False, ())
        assert (classify(scaled).borderline, classify(scaled).notes) == (False, ())


@st.composite
def classed_maps(draw):
    """A map from one of six families that cover the seven non-identity
    classes between them."""
    angle = st.floats(0.0, 2 * math.pi)
    family = draw(st.integers(0, 5))
    if family == 0:  # hyperbolic type: Denjoy-Wolff point 1, derivative s
        s = draw(st.floats(0.05, 0.95))
        return MoebiusMap(s, 1 - s, 0, 1)
    if family == 1:  # hyperbolic automorphism fixing -1 and 1
        r = draw(st.floats(0.05, 0.95))
        return MoebiusMap(1, r, r, 1)
    if family == 2:  # elliptic automorphism: a rotation moved to fix a point p
        aut = disk_automorphism(cmath.rect(draw(st.floats(0.0, 0.8)), draw(angle)))
        spin = rotation(cmath.rect(1.0, draw(st.floats(0.1, 2 * math.pi - 0.1))))
        return aut.compose(spin).compose(aut.inverse())
    if family == 3:  # parabolic, an automorphism exactly when Re t = 0
        if draw(st.booleans()):
            t = complex(0.0, draw(st.floats(0.1, 3.0)) * draw(st.sampled_from((-1, 1))))
        else:
            t = complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-3.0, 3.0)))
        return parabolic_from(cmath.rect(1.0, draw(angle)), t)
    if family == 4:  # c z / (1 - (1 - c) z): fixes 0 and 1
        c = draw(st.floats(0.05, 0.95))
        return MoebiusMap(c, 0, c - 1, 1)
    # affine with an interior fixed point; the other one is infinity
    a = cmath.rect(draw(st.floats(0.05, 0.6)), draw(angle))
    return MoebiusMap(a, cmath.rect(draw(st.floats(0.0, 0.3)), draw(angle)), 0, 1)


@settings(max_examples=300, deadline=None)
@given(
    m=classed_maps(),
    k=st.tuples(st.floats(0.05, 20.0), st.floats(0.0, 2 * math.pi)),
    turn=st.floats(0.0, 2 * math.pi),
)
def test_classification_is_one_pass_and_invariant(m, k, turn):
    # k (rho a, rho^2 b, c, rho d) is rho o m o rho^-1 for the rotation rho
    k, rho = cmath.rect(*k), cmath.rect(1.0, turn)
    moved = MoebiusMap(k * m.a, k * m.b * rho, k * m.c * rho.conjugate(), k * m.d)
    calls = []

    def counting(self, tol=1e-10):
        calls.append(self)
        return fixed_points(self, tol)

    fixed_points = MoebiusMap.fixed_points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MoebiusMap, "fixed_points", counting)
        before, after = classify(m), classify(moved)
    assert calls == [m, moved]

    assert after.map_class is before.map_class
    if before.translation is None:
        assert (after.borderline, after.notes) == (before.borderline, before.notes)
    else:
        # a parabolic map's flags read the rounding of its discriminant and
        # of its boundary derivative, which the scaling moves
        assert abs(after.translation - before.translation) <= 1e-12
    if before.dw is None:
        assert before.map_class is MapClass.ELLIPTIC_AUTOMORPHISM
        assert after.dw is None
    else:
        assert abs(after.dw.location - rho * before.dw.location) <= 1e-12
        assert abs(after.dw.derivative - before.dw.derivative) <= 1e-12
        assert after.dw.boundary is before.dw.boundary
    parabolic = (MapClass.PARABOLIC_AUTOMORPHISM, MapClass.PARABOLIC_NON_AUTOMORPHISM)
    assert (after.translation is not None) is (after.map_class in parabolic)


def test_parabolic_from_translation_roundtrip():
    zetas = (1.0, 1j, np.exp(1j * np.pi / 3))
    ts = (1.0, 2.0, 1 + 0.5j, 0.3 + 2j, 4j)
    for zeta in zetas:
        for t in ts:
            m = parabolic_from(zeta, t)
            assert m.is_self_map()
            c = classify(m)
            assert abs(c.translation - t) < 1e-8 * max(1.0, abs(t))
            assert abs(c.dw.location - zeta) < 1e-8


def test_translation_number_requires_parabolic():
    for m in (HALF_SHIFT, rotation(1j), identity()):
        assert classify(m).translation is None


def test_parabolic_iterates_form_semigroup():
    for t in (1.0, 1 + 1j):
        m = parabolic_from(1.0, t)
        for n in (2, 3, 7):
            assert projective_distance(m.iterate(n), parabolic_from(1.0, n * t)) < 1e-10


def test_krein_adjoint_involution_and_example():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_map(rng)
        twice = m.krein_adjoint().krein_adjoint()
        assert projective_distance(twice, m) < 1e-10
    sigma = HALF_SHIFT.krein_adjoint()
    assert projective_distance(sigma, AFFINE_HALF) < 1e-12


def test_krein_adjoint_of_rotation_is_inverse_rotation():
    lam = np.exp(0.9j)
    sigma = rotation(lam).krein_adjoint()
    assert projective_distance(sigma, rotation(np.conj(lam))) < 1e-12


def test_derivative_at_matches_finite_difference():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_map(rng)
        z = 0.2 + 0.1j
        h = 1e-6
        fd = (m.apply(z + h) - m.apply(z - h)) / (2 * h)
        assert abs(m.derivative_at(z) - fd) < 1e-5 * max(1.0, abs(fd))


def test_json_roundtrip():
    m = MoebiusMap(1 + 2j, 0.5, -0.25j, 3)
    again = MoebiusMap.from_json(m.to_json())
    assert projective_distance(m, again) < 1e-15
    assert again.a == m.a and again.d == m.d


def test_classification_json_has_core_fields(tmp_path, capsys):
    path = tmp_path / "cls.json"
    argv = ["classify", "--map", json.dumps(parabolic_from(1.0, 1.0).to_json())]
    assert cli.main(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    rec = json.loads(path.read_text())["classification"]
    assert rec["class"] == "parabolic-non-automorphism"
    assert rec["translation"] is not None
    assert rec["denjoy_wolff"]["boundary"] is True


def _iterate_with_a_last_square(m, n):
    """`iterate` as it was: the base squared once more after the last bit."""
    result, base = None, m.normalized()
    while n:
        if n & 1:
            result = base if result is None else result.compose(base)
            result = result.normalized()
        base = base.compose(base).normalized()
        n >>= 1
    return result


def test_iterate_agrees_with_single_compositions_to_n_46():
    # (z + 1)/2: its 2^k-th iterate has relative determinant 2^-k, so the
    # square past the last bit of n = 32 (base^64) was degenerate; single
    # compositions reach n = 46 (2^-46 is above the degeneracy floor)
    m = AFFINE_HALF
    single = m.normalized()
    for n in range(1, 47):
        if n > 1:
            single = single.compose(m).normalized()
        assert projective_distance(m.iterate(n), single) <= 1e-12
    with pytest.raises(DegenerateMapError):
        _iterate_with_a_last_square(m, 32)


def test_iterate_keeps_s3_iterates_bit_for_bit():
    # S3 iterates its two parabolic maps to n = 20, where the old loop worked
    for t in (1.0 + 0j, 1.0 + 1j):
        phi = parabolic_from(1.0, t)
        for n in range(1, 21):
            new, old = phi.iterate(n), _iterate_with_a_last_square(phi, n)
            assert (new.a, new.b, new.c, new.d) == (old.a, old.b, old.c, old.d)
