"""Tests for the analytic expression and power series engine."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcolab.errors import BranchError, InputError, PoleAtOriginError
from wcolab.mobius import MoebiusMap
from wcolab.opmat import build_block, composition, cowen_adjoint_word
from wcolab.scenarios import THREE_POINT, THREE_SPACES, s6_weight, s10_weights, s11_operator
from wcolab.series import (
    Exp,
    Poly,
    PrecomposeMoebius,
    Power,
    Product,
    Rational,
    Scale,
    Sum,
    _num_den,
    constant,
    eliminate_precompose,
    evaluate,
    expr_from_json,
    expr_to_json,
    rational_series,
    tail_diagnostics,
    taylor,
)
from wcolab.space import bergman, hardy, kernel_expr

HALF_SHIFT = MoebiusMap(1, 0, -1, 2)  # z/(2-z)


def dft_coeffs(fn, order, radius=0.8, samples=512):
    """Oracle: Taylor coefficients by discretizing the Cauchy integral."""
    ks = np.arange(samples)
    zs = radius * np.exp(2j * np.pi * ks / samples)
    vals = np.array([fn(z) for z in zs])
    out = np.fft.fft(vals) / samples
    return out[: order + 1] / radius ** np.arange(order + 1)


def assert_series_close(got, expected, tol=1e-10):
    got = np.asarray(got, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    assert got.shape == expected.shape
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(got - expected))) <= tol * scale


def test_taylor_poly_is_padded_copy():
    p = Poly((1, 2, 3))
    s = taylor(p, 6)
    assert_series_close(s.coeffs, [1, 2, 3, 0, 0, 0, 0], 0)


def test_taylor_rational_long_division():
    # 1/(2-z) has coefficients 2^-(n+1)
    r = Rational(Poly((1,)), Poly((2, -1)))
    s = taylor(r, 20)
    expected = [2.0 ** -(n + 1) for n in range(21)]
    assert_series_close(s.coeffs, expected, 1e-14)


def test_taylor_rational_matches_dft():
    r = Rational(Poly((1, 2j, 0.5)), Poly((1, -0.4, 0.3j)))
    s = taylor(r, 30)
    oracle = dft_coeffs(lambda z: evaluate(r, z), 30)
    assert_series_close(s.coeffs, oracle, 1e-10)


def test_exp_series_matches_dft():
    e = Exp(Poly((0, 1)))
    s = taylor(e, 24)
    oracle = [1.0 / math.factorial(n) for n in range(25)]
    assert_series_close(s.coeffs, oracle, 1e-12)
    nested = Exp(Rational(Poly((0, 1)), Poly((2, -1))))
    s2 = taylor(nested, 30)
    oracle2 = dft_coeffs(lambda z: cmath.exp(z / (2 - z)), 30)
    assert_series_close(s2.coeffs, oracle2, 1e-10)
    # an argument that is no rational function enters as its own series
    tower = Exp(Exp(Poly((0, 0.5))))
    oracle3 = dft_coeffs(lambda z: cmath.exp(cmath.exp(0.5 * z)), 30)
    assert_series_close(taylor(tower, 30).coeffs, oracle3, 1e-10)


def test_power_series_matches_dft():
    p = Power(Poly((1, -0.5)), -1.5)
    s = taylor(p, 30)
    oracle = dft_coeffs(lambda z: (1 - 0.5 * z) ** -1.5, 30)
    assert_series_close(s.coeffs, oracle, 1e-10)
    root = Power(Sum((Poly((2, 0.3)), Exp(Poly((0, 0.2))))), 0.5)
    oracle2 = dft_coeffs(lambda z: cmath.sqrt(2 + 0.3 * z + cmath.exp(0.2 * z)), 30)
    assert_series_close(taylor(root, 30).coeffs, oracle2, 1e-10)


def test_power_integer_exponent_matches_poly_product():
    p = Poly((1, 0.3, -0.2j))
    cube = taylor(Power(p, 3), 12).coeffs
    brute = np.array([1.0 + 0j])
    for _ in range(3):
        brute = np.convolve(brute, np.asarray(p.coeffs))
    brute = np.pad(brute, (0, 13 - len(brute)))
    assert_series_close(cube, brute, 1e-13)


def test_sum_product_scale_combination():
    e = Sum(
        (
            Product((Poly((1, 1)), Exp(Poly((0, 0.5))))),
            Scale(2j, Rational(Poly((1,)), Poly((1, -0.3)))),
        )
    )
    s = taylor(e, 25)
    oracle = dft_coeffs(
        lambda z: (1 + z) * cmath.exp(0.5 * z) + 2j / (1 - 0.3 * z), 25
    )
    assert_series_close(s.coeffs, oracle, 1e-10)


def test_evaluate_matches_direct_formulas():
    z = 0.3 - 0.2j
    e = Power(Poly((1, -0.5)), -1.5)
    assert abs(evaluate(e, z) - (1 - 0.5 * z) ** -1.5) < 1e-12
    m = Exp(Poly((1, 2)))
    assert abs(evaluate(m, z) - cmath.exp(1 + 2 * z)) < 1e-12
    # an array of points is evaluated elementwise, as the scalar calls are
    zs = np.array([[z, 0.5j], [-0.9, 0.0]])
    for expr in (e, m, Rational(Poly((1, 2j)), Poly((2, -1, 0.5))), Scale(2j, Sum((e, m)))):
        values = evaluate(expr, zs)
        assert values.shape == zs.shape
        scalars = [[evaluate(expr, w) for w in row] for row in zs]
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0)


def test_precompose_evaluates_as_composition():
    e = PrecomposeMoebius(Exp(Poly((0, 1))), HALF_SHIFT)
    z = 0.4 + 0.1j
    assert abs(evaluate(e, z) - cmath.exp(z / (2 - z))) < 1e-12
    zs = np.array([z, -0.7j, 0.99])
    np.testing.assert_allclose(evaluate(e, zs), [evaluate(e, w) for w in zs], rtol=1e-15, atol=0)


def test_eliminate_precompose_poly():
    def p(w):
        return 1 + 2 * w + 3 * w * w

    def half(z):
        return z / (2 - z)

    inner = PrecomposeMoebius(Poly((1, 2, 3)), MoebiusMap(1, 1, 0, 3))
    cases = (
        (PrecomposeMoebius(Poly((1, 2, 3)), HALF_SHIFT), lambda z: p(half(z))),
        # two nested maps: the inner one is substituted first
        (PrecomposeMoebius(inner, HALF_SHIFT), lambda z: p((half(z) + 1) / 3)),
    )
    for e, direct in cases:
        flat = eliminate_precompose(e)
        s = taylor(flat, 25)
        assert_series_close(s.coeffs, dft_coeffs(direct, 25), 1e-10)
        assert "Precompose" not in type(flat).__name__
    # a polynomial leaf is a rational function over 1, so its denominator is Q^D
    flat = eliminate_precompose(PrecomposeMoebius(Poly((1, 2, 3, 4)), HALF_SHIFT))
    q = qd = np.array([HALF_SHIFT.d, HALF_SHIFT.c])
    for _ in range(2):
        qd = np.convolve(qd, q)
    assert np.array_equal(flat.den.coeffs, qd)
    # a constant leaf comes back unchanged
    assert eliminate_precompose(PrecomposeMoebius(Poly((2.5,)), HALF_SHIFT)) == Poly((2.5,))


def test_eliminate_precompose_nested():
    inner = Rational(Poly((1, 1)), Poly((2, 0, 0)))
    e = PrecomposeMoebius(Exp(inner), MoebiusMap(1, 1, 0, 3))
    flat = eliminate_precompose(e)

    def direct(z):
        w = (z + 1) / 3
        return cmath.exp((1 + w) / 2)

    s = taylor(flat, 25)
    assert_series_close(s.coeffs, dft_coeffs(direct, 25), 1e-10)


def test_normal_form_makes_each_rational_weight_one_leaf():
    for sp in THREE_SPACES:
        # S4's and S10's psi-kernel is K_0, the constant 1
        assert eliminate_precompose(kernel_expr(sp, 0.0)) == constant(1.0)
        g, _, h = (letter.op.weight for letter in cowen_adjoint_word(THREE_POINT, sp))
        weights = [s6_weight(sp), g, h, *(w for _, w in s10_weights(sp))]
        weights += [s11_operator(sp, t)[0].weight for t in (1.0, 2.0)]
        for w in weights:
            assert isinstance(eliminate_precompose(w), (Poly, Rational))
    # a leaf with nothing to cancel comes back as it is, so its series is unchanged
    leaf = Rational(Poly((2,)), Poly((2, -1)))
    assert eliminate_precompose(leaf) is leaf
    # a non-integer power stays a Power, of a reduced leaf
    base = Product((Poly((1, -2)), Rational(Poly((3, 1)), Poly((1, -2)))))
    flat = eliminate_precompose(Power(base, 0.5))
    assert isinstance(flat, Power) and isinstance(flat.base, Poly)
    np.testing.assert_allclose(flat.base.coeffs, (3, 1), rtol=1e-14, atol=0)


def _factors(draw, count):
    """Product of `count` factors (1 - z / rho), with rho on a grid in
    0.5 <= |rho| <= 3, so two roots are equal or far apart: the normal form
    takes roots closer than _ROOT_MATCH_TOL as one."""
    out = np.ones(1, dtype=complex)
    for _ in range(count):
        r = draw(st.sampled_from((0.5, 0.8, 1.5, 3.0)))
        rho = cmath.rect(r, draw(st.integers(0, 7)) * math.pi / 4)
        out = np.convolve(out, [1.0, -1.0 / rho])
    return out


@st.composite
def rational_parts(draw, depth=2):
    """A rational part whose factors have their roots in 0.5 <= |z| <= 3; each
    leaf and each Product may hold a factor shared by a numerator and a
    denominator, which the normal form cancels."""
    shared = _factors(draw, draw(st.integers(0, 1)))
    if depth == 0 or draw(st.booleans()):
        c = draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0))
        num, den = (np.convolve(_factors(draw, draw(st.integers(0, 2))), shared) for _ in "nd")
        return Rational(Poly(c * num), Poly(den))
    kind = draw(st.sampled_from(("sum", "product", "scale", "power")))
    parts = [draw(rational_parts(depth - 1)) for _ in range(draw(st.integers(2, 3)))]
    if kind == "sum":
        return Sum(tuple(parts))
    if kind == "product":
        cancelling = (Rational(Poly(shared), Poly((1,))), Rational(Poly((2,)), Poly(shared)))
        return Product((*parts, *cancelling))
    if kind == "scale":
        return Scale(draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0)), parts[0])
    # a negative power only of a leaf, which has no root in |z| < 0.5; a sum
    # may vanish at 0, where no power is taken
    k = draw(st.integers(-2, 3))
    base = parts[0] if k >= 0 and evaluate(parts[0], 0.0) != 0 else draw(rational_parts(0))
    return Power(base, float(k))


@settings(max_examples=60, deadline=None)
@given(e=rational_parts())
def test_normal_form_is_one_reduced_leaf_of_the_same_function(e):
    flat = eliminate_precompose(e)
    assert isinstance(flat, (Poly, Rational))
    zs = 0.3 * np.exp(2j * np.pi * np.arange(16) / 16)
    want = evaluate(e, zs)
    # a sum may cancel to rounding, so the error is not relative to |want| alone
    assert np.max(np.abs(evaluate(flat, zs) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    if isinstance(flat, Rational):
        rn, rd = (np.roots(p.coeffs[::-1]) for p in (flat.num, flat.den))
        assert all(np.min(np.abs(rd - r), initial=np.inf) > 1e-6 * max(1.0, abs(r)) for r in rn)


def test_taylor_handles_precompose_directly():
    e = PrecomposeMoebius(Power(Poly((1, -0.5)), -1.0), HALF_SHIFT)
    s = taylor(e, 25)
    oracle = dft_coeffs(lambda z: 1.0 / (1 - 0.5 * z / (2 - z)), 25)
    assert_series_close(s.coeffs, oracle, 1e-10)


def test_rational_pole_at_origin_rejected():
    with pytest.raises(InputError):
        Rational(Poly((1,)), Poly((0, 1)))


def test_precompose_pole_at_origin_rejected():
    with pytest.raises(PoleAtOriginError):
        PrecomposeMoebius(Poly((1,)), MoebiusMap(1, 1, 1, 0))


def test_power_branch_error_on_negative_axis():
    with pytest.raises(BranchError):
        Power(Poly((-1.0,)), 0.5)
    # integer exponents stay on the safe side of the branch cut
    p = Power(Poly((-1.0, 0.1)), 2.0)
    assert abs(evaluate(p, 0.0) - 1.0) < 1e-14


def test_power_zero_base_rejected():
    with pytest.raises(InputError):
        Power(Poly((0, 1)), -1.0)


def test_moebius_powers_match_pointwise():
    # column k of a composition block is phi**k scaled by ||z^i|| / ||z^k||
    count, order = 6, 30
    space = hardy()
    blk = build_block(composition(HALF_SHIFT), space, count, order)
    b = np.sqrt(space.basis_norms_sq(order))
    powers = blk.entries / b[:, None] * b[: count + 1]
    assert powers.shape == (order + 1, count + 1)
    for k in (0, 1, 3, 6):
        oracle = dft_coeffs(lambda z, k=k: (z / (2 - z)) ** k, order)
        assert_series_close(powers[:, k], oracle, 1e-10)


def test_space_norm_of_a_series_hardy_and_bergman():
    c = np.array([3.0, 4.0], dtype=complex)
    # the kernel probe's ||f||^2 = sum |c_n|^2 ||z^n||^2
    assert abs(np.sum(np.abs(c) ** 2 * hardy().basis_norms_sq(1)) - 25.0) < 1e-14
    # bergman alpha=0: ||1||=1, ||z||^2=1/2
    assert abs(np.sum(np.abs(c) ** 2 * bergman(0.0).basis_norms_sq(1)) - (9 + 16 / 2)) < 1e-14


def test_tail_diagnostics_geometric_decay():
    n = 64
    r = 0.5
    d = tail_diagnostics(r ** np.arange(n + 1, dtype=float) + 0j)
    assert abs(d.ratio - r) < 0.05
    assert not d.slow_decay
    assert d.bound < 1e-8


def test_tail_diagnostics_flags_slow_decay():
    d = tail_diagnostics(0.99 ** np.arange(65, dtype=float) + 0j)
    assert d.slow_decay


def test_tail_diagnostics_needs_enough_coefficients():
    with pytest.raises(InputError):
        tail_diagnostics(np.ones(8, dtype=complex))


def test_expr_json_roundtrip():
    exprs = [
        Poly((1, 2j, -0.5)),
        Rational(Poly((1,)), Poly((2, -1))),
        Power(Poly((1, -0.25)), -1.5),
        Exp(Scale(0.5, Poly((0, 1)))),
        Sum((Poly((1,)), Product((Poly((0, 1)), Poly((1, 1)))))),
        PrecomposeMoebius(Exp(Poly((0, 1))), HALF_SHIFT),
    ]
    for e in exprs:
        again = expr_from_json(expr_to_json(e))
        a = taylor(e, 12).coeffs
        b = taylor(again, 12).coeffs
        assert_series_close(a, b, 0)


def test_expr_from_json_rejects_unknown_type():
    with pytest.raises(InputError):
        expr_from_json({"type": "sine", "coeffs": []})


def test_constant_helper():
    assert_series_close(taylor(constant(2.5), 3).coeffs, [2.5, 0, 0, 0], 0)


def test_taylor_determinism():
    e = Exp(Rational(Poly((0, 1)), Poly((2, -1))))
    a = taylor(e, 40).coeffs
    b = taylor(e, 40).coeffs
    assert np.array_equal(a, b)


# -- short recurrences against the Cauchy integral ------------------------------

#: Kernel exponents gamma: Hardy 1, Bergman alpha = 0, 1 give 2, 3, and
#: Bergman alpha = 0.5 gives the non-integer 2.5.
KERNEL_GAMMAS = (1.0, 2.0, 3.0, 2.5)


@st.composite
def interior_self_maps(draw):
    """z -> c0 + r lam (z - p) / (1 - conj(p) z) with |c0| + r <= 0.9, so the
    image of the closed disk stays inside |z| <= 0.9."""
    r = draw(st.floats(0.05, 0.6))
    c0 = cmath.rect(draw(st.floats(0.0, 0.9 - r)), draw(st.floats(0.0, 2 * math.pi)))
    p = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 2 * math.pi)))
    lam = cmath.rect(1.0, draw(st.floats(0.0, 2 * math.pi)))
    pc = p.conjugate()
    return MoebiusMap(r * lam - c0 * pc, c0 - r * lam * p, -pc, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    m=interior_self_maps(),
    w=st.complex_numbers(max_magnitude=0.9),
    gamma=st.sampled_from(KERNEL_GAMMAS),
)
def test_rational_recurrences_match_cauchy_integral(m, w, gamma):
    def phi(z):
        return (m.a * z + m.b) / (m.c * z + m.d)

    wc = w.conjugate()
    kernel = Power(Poly((1, -wc)), -gamma)
    composed = eliminate_precompose(PrecomposeMoebius(kernel, m))
    # the composed kernel is one leaf for an integer gamma, else a Power of one
    if gamma.is_integer():
        assert isinstance(composed, (Poly, Rational))
    else:
        assert isinstance(composed, Power) and isinstance(composed.base, (Poly, Rational))
    shifted = Exp(Rational(Poly((gamma * m.b, gamma * m.a)), Poly((m.d, m.c))))
    # a base and an argument that are a Sum, Product or Scale of leaves
    # normalize to one quotient, of degree at most 1 and 2 here, before the
    # recurrence; at w = 0 the base is the constant 1
    phi_leaf = Rational(Poly((m.b, m.a)), Poly((m.d, m.c)))
    base = Sum((Poly((1,)), Product((Poly((-wc,)), phi_leaf))))
    arg = Sum((Scale(gamma, phi_leaf), Poly((0, 0.3))))
    for inner, degree in ((base, 1), (arg, 2)):
        num, den = _num_den(eliminate_precompose(inner), 40)
        assert len(num) <= degree + 1 and len(den) <= 2
    if w == 0:
        assert eliminate_precompose(base) == constant(1.0)
    # a pole that cancels across leaves inside the disk cancels in the normal
    # form, so no recurrence runs along the pole 1/2
    half = Rational(Poly((1,)), Poly((1, -2)))
    cancelled = Sum((half, Scale(-1, half), Poly((1, -wc))))
    cases = (
        (kernel, lambda z: (1 - wc * z) ** -gamma),
        (composed, lambda z: (1 - wc * phi(z)) ** -gamma),
        (shifted, lambda z: cmath.exp(gamma * phi(z))),
        (Power(base, -gamma), lambda z: (1 - wc * phi(z)) ** -gamma),
        (Exp(arg), lambda z: cmath.exp(gamma * phi(z) + 0.3 * z)),
        (Power(cancelled, -gamma), lambda z: (1 - wc * z) ** -gamma),
    )
    for expr, fn in cases:
        assert_series_close(taylor(expr, 40).coeffs, dft_coeffs(fn, 40), 1e-9)


def _long_division(num, den, M):
    """Reference quotient: the plain long division the engine used before it
    had short recurrences."""
    num = np.pad(np.asarray(num, dtype=complex), (0, M + 1))[: M + 1]
    den = np.asarray(den, dtype=complex)
    k = len(den) - 1
    out = np.zeros(M + 1, dtype=complex)
    for n in range(M + 1):
        acc = num[n]
        for j in range(1, min(k, n) + 1):
            acc = acc - den[j] * out[n - j]
        out[n] = acc / den[0]
    return out


def test_rational_quotient_matches_long_division():
    for num, den in (
        ((1, 2j, 0.5), (1, -0.4, 0.3j)),
        ((2,), (2, -1)),
        ((0.3 - 1j, 1), (3, 1)),
        ((1, 1, 1, 1), (2j,)),
    ):
        got = rational_series("quotient", num, den, 60)
        assert_series_close(got, _long_division(num, den, 60), 1e-14)
    # a degree-one denominator leaves one product per step: no rounding to reorder
    got = rational_series("quotient", (0.3 - 1j, 1), (3 + 0.2j, 1 - 0.7j), 60)
    assert np.array_equal(got, _long_division((0.3 - 1j, 1), (3 + 0.2j, 1 - 0.7j), 60))


def test_integer_power_with_a_zero_inside_the_disk_stays_accurate():
    # ((1 - 2.1 z) / (1 - 0.3 z))^2 has a double zero at z = 1/2.1; its
    # coefficients decay like 0.3^n (9e-29 at z^60), while rounding along the
    # zero grows like 2.1^n in the power recurrence
    q = rational_series("quotient", (1, -2.1), (1, -0.3), 200)
    square = np.convolve(q, q)[:201]
    for e in (
        Power(Rational(Poly((1, -2.1)), Poly((1, -0.3))), 2),
        Power(Rational(Poly((1, -0.3)), Poly((1, -2.1))), -2),
    ):
        got = taylor(e, 200).coeffs
        assert np.max(np.abs(got - square)) <= 1e-14
        assert abs(got[60] - square[60]) <= 1e-40
    # the same zero in a base that is no rational function: the z^60
    # coefficient of (1 - 2.1 z)^2 exp(0.2 z) is 5.4e-119
    base = Product((Poly((1, -2.1)), Exp(Poly((0, 0.1)))))
    b = taylor(base, 200).coeffs
    square = np.convolve(b, b)[:201]
    got = taylor(Power(base, 2), 200).coeffs
    assert np.max(np.abs(got - square)) <= 1e-14
    assert abs(got[60] - square[60]) <= 1e-130
    cube = taylor(Power(Poly((1, -2.1)), 3), 200).coeffs
    assert_series_close(cube[:4], [1, -6.3, 13.23, -9.261], 1e-15)
    assert not np.any(cube[4:])


def test_rational_series_batch_agrees_with_its_columns_bit_for_bit():
    rng = np.random.default_rng(7)
    num = 0.2 * (rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9)))
    num[0] += 3.0
    den = np.array([2.0 + 0.1j, -0.7 + 0.2j, 0.1j])
    for kind, exponent in (("quotient", 1.0), ("power", -2.5), ("power", 3.0), ("exp", 1.0)):
        batch = rational_series(kind, num, den, 200, exponent)
        assert batch.shape == (201, 9)
        for g in range(9):
            column = rational_series(kind, num[:, g], den, 200, exponent)
            assert np.array_equal(batch[:, g], column)


def test_rational_series_rejects_bad_input():
    with pytest.raises(InputError):
        rational_series("quotient", (1,), (0, 1), 8)
    with pytest.raises(InputError):
        rational_series("power", (0, 1), (1,), 8, -1.0)
    with pytest.raises(BranchError):
        rational_series("power", (-1, 1), (1,), 8, 0.5)
    with pytest.raises(InputError):
        rational_series("log", (1, 1), (1,), 8)
