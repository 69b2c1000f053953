"""Tests for the Hardy/Bergman space descriptions and reproducing kernels."""

import numpy as np
import pytest

from wcolab.errors import InputError
from wcolab.series import evaluate, taylor
from wcolab.space import SpaceSpec, bergman, hardy, kernel_base, kernel_expr, kernel_norm_sq


def test_hardy_monomial_norms_are_one():
    b2 = hardy().basis_norms_sq(32)
    assert np.allclose(b2, 1.0, atol=0)


def test_bergman_zero_norms_closed_form():
    b2 = bergman(0.0).basis_norms_sq(32)
    expected = 1.0 / (np.arange(33) + 1.0)
    assert np.max(np.abs(b2 - expected)) < 1e-15


def test_bergman_one_norms_closed_form():
    # alpha=1: ||z^n||^2 = 2/((n+1)(n+2))
    b2 = bergman(1.0).basis_norms_sq(32)
    n = np.arange(33, dtype=float)
    expected = 2.0 / ((n + 1.0) * (n + 2.0))
    assert np.max(np.abs(b2 - expected)) < 1e-15


def test_norm_recurrence_generic_alpha():
    for alpha in (-0.5, 0.3, 2.7):
        sp = bergman(alpha)
        b2 = sp.basis_norms_sq(40)
        n = np.arange(40, dtype=float)
        ratios = b2[1:] / b2[:-1]
        expected = (n + 1.0) / (n + alpha + 2.0)
        assert np.max(np.abs(ratios - expected)) < 1e-13


def test_gamma_exponent():
    assert hardy().gamma == 1.0
    assert bergman(0.0).gamma == 2.0
    assert bergman(1.5).gamma == 3.5


def test_alpha_must_exceed_minus_one():
    with pytest.raises(InputError):
        bergman(-1.0)
    with pytest.raises(InputError):
        bergman(-2.5)


def test_alpha_must_be_finite():
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError):
            bergman(alpha)
        with pytest.raises(InputError):
            SpaceSpec("bergman", alpha)
    for text in ("bergman:nan", "bergman:inf", "bergman:-inf"):
        with pytest.raises(InputError, match="finite"):
            SpaceSpec.parse(text)
    with pytest.raises(InputError):
        SpaceSpec("hardy", float("nan"))


def test_parse_and_label_roundtrip():
    for label in ("hardy", "bergman:0", "bergman:1", "bergman:0.5"):
        sp = SpaceSpec.parse(label)
        assert SpaceSpec.parse(sp.label()).label() == sp.label()
    assert SpaceSpec.parse("bergman").label() == "bergman:0"


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        SpaceSpec.parse("sobolev")
    with pytest.raises(InputError):
        SpaceSpec.parse("bergman:nope")


def test_json_roundtrip():
    for sp in (hardy(), bergman(0.0), bergman(2.25)):
        again = SpaceSpec.from_json(sp.to_json())
        assert again == sp


def test_kernel_evaluates_to_binomial_form():
    w = 0.4 - 0.2j
    for sp in (hardy(), bergman(0.0), bergman(1.0)):
        k = kernel_expr(sp, w)
        z = 0.3 + 0.5j
        expected = (1 - np.conj(w) * z) ** (-sp.gamma)
        assert abs(evaluate(k, z) - expected) < 1e-12


def test_kernel_coefficients_hardy_are_geometric():
    w = 0.5 + 0.1j
    coeffs = taylor(kernel_expr(hardy(), w), 20).coeffs
    expected = np.conj(w) ** np.arange(21)
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_kernel_norm_identity():
    # ||K_w||^2 = (1-|w|^2)^(-gamma), matched by the coefficient series
    w = 0.55 * np.exp(0.3j)
    for sp in (hardy(), bergman(0.0), bergman(1.0)):
        closed = kernel_norm_sq(sp, w)
        coeffs = taylor(kernel_expr(sp, w), 400).coeffs
        b2 = sp.basis_norms_sq(400)
        series_val = float(np.sum(np.abs(coeffs) ** 2 * b2))
        assert abs(series_val - closed) < 1e-8 * closed
        assert abs(closed - (1 - abs(w) ** 2) ** (-sp.gamma)) < 1e-12
        # an array of points gives the scalar values elementwise
        ws = np.array([[w, 0.0], [-0.9j, 0.3]])
        scalars = [[kernel_norm_sq(sp, v) for v in row] for row in ws]
        np.testing.assert_allclose(kernel_norm_sq(sp, ws), scalars, rtol=1e-15, atol=0)
    # and the kernels' bases (1, -conj(w)), stacked along a new axis 0
    bases = kernel_base(ws)
    assert bases.shape == (2, 2, 2)
    for i, j in np.ndindex(ws.shape):
        assert tuple(bases[:, i, j]) == (1.0, -complex(ws[i, j]).conjugate())


def test_kernel_requires_interior_point():
    with pytest.raises(InputError):
        kernel_expr(hardy(), 1.0)
    with pytest.raises(InputError):
        kernel_norm_sq(bergman(0.0), 1.2)
    with pytest.raises(InputError):
        kernel_base(np.array([0.5, 1j]))


def test_reproducing_property_numeric():
    # <f, K_w> = f(w) for a polynomial f
    w = 0.3 + 0.4j
    f = np.array([1.0, -2.0, 0.5j, 0.25], dtype=complex)
    for sp in (hardy(), bergman(0.0), bergman(1.0)):
        k = taylor(kernel_expr(sp, w), 3).coeffs
        b2 = sp.basis_norms_sq(3)
        inner = np.sum(f * np.conj(k) * b2)
        direct = sum(f[n] * w**n for n in range(4))
        assert abs(inner - direct) < 1e-12


def test_basis_norms_are_cached_and_readonly():
    a = hardy().basis_norms_sq(16)
    b = hardy().basis_norms_sq(16)
    assert a is b
    with pytest.raises((ValueError, RuntimeError)):
        a[0] = 2.0
