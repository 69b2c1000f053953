"""Tests for spectral diagnostics and the parabolic eigenvalue spiral."""

import numpy as np
import pytest

from wcolab import scenarios, spectra
from wcolab.errors import InputError
from wcolab.mobius import MoebiusMap, parabolic_from, rotation
from wcolab.opmat import TruncatedBlock, _columns, build_block, composition, toeplitz
from wcolab.scenarios import T_GRID, ZETA_GRID
from wcolab.series import Poly, PrecomposeMoebius, taylor
from wcolab.space import bergman, hardy
from wcolab.spectra import (
    DEFAULT_BETA_GRID,
    eigen_residual,
    parabolic_eigenpair,
    rotation_spectrum,
    spectral_radius_estimate,
    spiral_curve,
    truncation_eigenvalues,
)


def test_truncation_eigenvalues_of_rotation_block():
    lam = np.exp(2j * np.pi / 5)
    blk = build_block(composition(rotation(lam)), hardy(), 8, 64)
    eigs = truncation_eigenvalues(blk)
    expected = sorted([lam**j for j in range(9)], key=lambda z: -abs(z))
    assert len(eigs) == 9
    got = np.sort_complex(np.round(eigs, 10))
    want = np.sort_complex(np.round(np.array(expected), 10))
    assert np.max(np.abs(got - want)) < 1e-10


def test_truncation_eigenvalues_sorted_by_modulus():
    blk = build_block(composition(rotation(0.5)), hardy(), 6, 48)
    eigs = truncation_eigenvalues(blk)
    mods = np.abs(eigs)
    assert np.all(mods[:-1] >= mods[1:] - 1e-15)


def test_truncation_eigenvalues_list_a_real_block_like_its_transpose():
    # the solver returns the conjugate pairs of a and a.T in opposite orders;
    # a tie in modulus lists by imaginary part
    a = np.random.default_rng(0).standard_normal((6, 6))
    e1, e2 = (
        truncation_eigenvalues(TruncatedBlock(x)) for x in (a, a.T)
    )
    assert np.max(np.abs(e1 - e2)) <= 1e-12
    assert e1[1].imag < 0 < e1[2].imag


def test_spiral_curve_matches_exponential():
    t = 1 + 0.5j
    pts = spiral_curve(t, (0.0, 0.5, 1.0, 2.0))
    for beta, lam in pts:
        assert abs(lam - np.exp(-beta * t)) < 1e-15
    assert abs(pts[0][1] - 1.0) < 1e-15


def test_spiral_curve_rejects_negative_real_part():
    with pytest.raises(InputError):
        spiral_curve(-1.0)


def test_parabolic_eigenpair_eigenvalue_and_residual():
    zeta, t, beta = 1.0, 1.0, 0.5
    expr, lam = parabolic_eigenpair(zeta, t, beta)
    assert abs(lam - np.exp(-beta * t)) < 1e-15
    # residual of C_phi f = lam f at series level
    assert eigen_residual(zeta, t, beta, 200) < 1e-12
    # beta = 0 gives the constant eigenfunction with eigenvalue 1
    expr0, lam0 = parabolic_eigenpair(zeta, t, 0.0)
    assert abs(lam0 - 1.0) < 1e-15
    coeffs = taylor(expr0, 8).coeffs
    assert np.max(np.abs(coeffs - np.eye(9)[0])) < 1e-14


def test_eigen_residual_small_on_grid():
    res = eigen_residual(
        np.array([1.0, 1j])[:, None, None],
        np.array([1.0, 1 + 0.5j])[None, :, None],
        np.array(DEFAULT_BETA_GRID)[None, None, :],
        256,
    )
    assert res.shape == (2, 2, len(DEFAULT_BETA_GRID))
    assert np.all(res < 1e-10)


def _residual_per_point(zeta, t, beta, order):
    # one point at a time through `taylor`, both sides their own series
    phi = parabolic_from(zeta, t)
    f, lam = parabolic_eigenpair(zeta, t, beta)
    lhs = taylor(PrecomposeMoebius(f, phi), order).coeffs
    rhs = lam * taylor(f, order).coeffs
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


def test_batched_eigen_residual_is_the_per_point_residual_on_s2_grid():
    got = eigen_residual(
        np.array(ZETA_GRID)[:, None, None],
        np.array(T_GRID)[None, :, None],
        np.array(DEFAULT_BETA_GRID)[None, None, :],
        400,
    )
    want = [
        [[_residual_per_point(z, t, b, 400) for b in DEFAULT_BETA_GRID] for t in T_GRID]
        for z in ZETA_GRID
    ]
    assert np.array_equal(got, np.array(want))


def test_batched_eigen_residual_is_the_per_point_residual_on_random_grid():
    # several beta share each (zeta, t), so one substitution serves a group;
    # beta = 0 gives the constant eigenfunction
    rng = np.random.default_rng(17)
    zeta = np.exp(2j * np.pi * rng.random(5))[:, None]
    t = (rng.uniform(0.05, 3.0, 5) + 1j * rng.uniform(-3.0, 3.0, 5))[:, None]
    beta = np.concatenate(([0.0], rng.uniform(0.0, 6.0, 3)))[None, :]
    got = eigen_residual(zeta, t, beta, 300)
    assert got.shape == (5, 4)
    want = [[_residual_per_point(z[0], s[0], b, 300) for b in beta[0]] for z, s in zip(zeta, t)]
    assert np.array_equal(got, np.array(want))
    # a scalar point gives a float, the same one
    assert eigen_residual(zeta[1, 0], t[1, 0], beta[0, 2], 300) == got[1, 2]
    assert isinstance(eigen_residual(1.0, 1.0, 1.0, 32), float)


def test_eigen_residual_checks_its_inputs():
    with pytest.raises(InputError):
        eigen_residual(1.0, 1.0, 1.0, -1)
    with pytest.raises(InputError):
        eigen_residual([1.0, 2.0], 1.0, 1.0, 32)  # |zeta| != 1
    with pytest.raises(InputError):
        eigen_residual(1.0, [1.0, -1.0], 1.0, 32)  # Re t < 0
    with pytest.raises(InputError):
        eigen_residual(1.0, 1.0, [0.5, -0.5], 32)  # beta < 0


def test_rotation_spectrum_kinds():
    four = rotation_spectrum(1j)
    assert four.kind == "finite-cyclic"
    assert len(four.points) == 4

    dil = rotation_spectrum(0.5)
    assert dil.kind == "powers-with-zero"
    assert any(abs(p) < 1e-15 for p in dil.points)
    assert any(abs(p - 0.25) < 1e-15 for p in dil.points)

    irr = rotation_spectrum(np.exp(1j * np.pi * np.sqrt(2.0)))
    assert irr.kind == "unit-circle"
    # the full circle is reported through unimodular sample points
    assert all(abs(abs(p) - 1.0) < 1e-12 for p in irr.points)


def test_rotation_spectrum_rejects_expanding_lambda():
    with pytest.raises(InputError):
        rotation_spectrum(2.0)


def test_spectral_radius_estimate_rotation_is_one():
    vals = spectral_radius_estimate(composition(rotation(1j)), hardy(), 8, 6, M=64)
    assert len(vals) == 6
    assert np.max(np.abs(np.array(vals) - 1.0)) < 1e-12


def test_spectral_radius_estimate_contraction_decays():
    # W = C_(z/2): operator norm 1 but spectral radius 1; powers stay bounded
    vals = spectral_radius_estimate(
        composition(rotation(0.5)), hardy(), 8, 8, M=64
    )
    assert all(v <= 1.0 + 1e-12 for v in vals)


def test_triangular_gelfand_sequence_needs_only_the_order_n_block(monkeypatch):
    # P_N A^k P_N = (P_N A P_N)^k for a lower-triangular A: a Toeplitz
    # operator, or a composition with symbol(0) = 0
    shapes = []

    def counting_columns(op, space, rows, cols):
        shapes.append((rows, cols))
        return _columns(op, space, rows, cols)

    monkeypatch.setattr(spectra, "_columns", counting_columns)
    N, M, k_max = 8, 64, 6
    for op in (toeplitz(Poly((1, 0.5j, -0.25))), composition(MoebiusMap(1, 0, -1, 2))):
        for sp in (hardy(), bergman(1.0)):
            shapes.clear()
            vals = spectral_radius_estimate(op, sp, N, k_max, M=M)
            assert shapes == [(N, N)]
            s = _columns(op, sp, M, M)
            x = s[:, : N + 1]
            for k, v in enumerate(vals, start=1):
                want = np.linalg.norm(x[: N + 1], 2) ** (1.0 / k)
                assert abs(v - want) <= 1e-14 * want
                x = s @ x
    shapes.clear()
    spectral_radius_estimate(composition(MoebiusMap(1, 1, 0, 2)), hardy(), N, k_max, M=M)
    assert shapes == [(M, M)]


def test_spectral_radius_estimate_validates_orders():
    with pytest.raises(InputError):
        spectral_radius_estimate(composition(rotation(1j)), hardy(), 8, 0)


def test_s2_runs_two_recurrences(monkeypatch):
    # one for every f and one for every f o phi over the 72-point grid (144 before)
    series = spectra.rational_series
    widths = []

    def counting_series(kind, num, den, M, *args):
        widths.append(np.shape(num)[1])
        return series(kind, num, den, M, *args)

    monkeypatch.setattr(spectra, "rational_series", counting_series)
    assert scenarios.run_scenario("S2-parabolic-eigen").verdict == "PASS"
    assert widths == [72, 72]
