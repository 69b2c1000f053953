"""Tests for truncated operator blocks, words, and Gram matrices."""

import cmath
import dataclasses
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcolab import opmat, probes
from wcolab.errors import (
    InputError,
    NotSelfMapError,
    OrderPolicyError,
    UnboundedWeightError,
)
from wcolab.mobius import MoebiusMap, rotation
from wcolab.opmat import (
    OperatorSpec,
    _columns,
    adjoint_block,
    adjoint_letter,
    build_block,
    composition,
    cowen_adjoint_word,
    gram_blocks,
    is_boundary_touching,
    plain,
    shapeable_order,
    toeplitz,
    weighted,
    word_block,
    working_order,
)
from wcolab.probes import (
    defect_report,
    douglas_witness,
    hyponormality_probe,
    quasinormality_defect,
    selfadjoint_defect,
)
from wcolab.scenarios import ETA, PARABOLIC_ONE, QUARTER_SHRINK, TAU, THREE_POINT
from wcolab.series import (
    Exp,
    Poly,
    Power,
    PrecomposeMoebius,
    Product,
    Rational,
    Scale,
    Sum,
    constant,
    tail_diagnostics,
    taylor,
)
from wcolab.space import bergman, hardy, kernel_expr
from wcolab.spectra import spectral_radius_estimate

HALF_SHIFT = MoebiusMap(1, 0, -1, 2)   # z/(2-z)
AFFINE_HALF = MoebiusMap(1, 1, 0, 2)   # (z+1)/2
INTERIOR_MAP = MoebiusMap(0.5, 0, 0, 1)  # z/2, image well inside the disk
PSI_HALF = Rational(Poly((2,)), Poly((2, -1)))  # 2/(2-z)

ALL_SPACES = (hardy(), bergman(0.0), bergman(1.0))
POLE_HALF = Rational(Poly((1,)), Poly((1, -2)))  # 1/(1 - 2z)


def compose_poly_with_map(p_coeffs, m, order):
    """Oracle: Taylor coefficients of psi * (p o phi) via direct sampling."""
    ks = np.arange(1024)
    zs = 0.8 * np.exp(2j * np.pi * ks / 1024)
    vals = np.array(
        [sum(c * m.apply(z) ** n for n, c in enumerate(p_coeffs)) for z in zs]
    )
    out = np.fft.fft(vals) / 1024
    return out[: order + 1] / 0.8 ** np.arange(order + 1)


def test_block_action_matches_series_composition():
    # the tall matrix acting on weighted coefficients is exactly
    # p -> psi * (p o phi) in the weighted coefficient frame
    rng = np.random.default_rng(11)
    N, M = 12, 64
    for sp in ALL_SPACES:
        b_cols = np.sqrt(sp.basis_norms_sq(N))
        b_rows = np.sqrt(sp.basis_norms_sq(M))
        for op in (
            composition(HALF_SHIFT),
            weighted(PSI_HALF, HALF_SHIFT),
            weighted(Poly((1, 0.5j)), AFFINE_HALF),
        ):
            blk = build_block(op, sp, N, M)
            p = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            image = blk.entries @ (p * b_cols)
            target = Product((op.weight, Poly(tuple(p))))
            if op.symbol is not None:
                target = Product(
                    (op.weight, PrecomposeMoebius(Poly(tuple(p)), op.symbol))
                )
            expected = taylor(target, M).coeffs * b_rows
            assert np.max(np.abs(image - expected)) < 1e-10 * max(
                1.0, np.max(np.abs(expected))
            )


def test_entries_independent_of_row_order():
    # a taller block only appends rows; the shared rows are identical
    N = 10
    for sp in (hardy(), bergman(1.0)):
        op = weighted(PSI_HALF, HALF_SHIFT)
        a = build_block(op, sp, N, 80).entries
        b = build_block(op, sp, N, 320).entries
        assert np.max(np.abs(a - b[: a.shape[0], :])) < 1e-14


def test_toeplitz_block_is_weighted_toeplitz():
    psi = Poly((1, 2, 3))
    N = 6
    blk = build_block(toeplitz(psi), hardy(), N, 64)
    m = blk.entries
    # hardy weights are 1 so this is a plain lower-triangular Toeplitz matrix
    for i in range(N + 1):
        for j in range(N + 1):
            expect = 0.0
            if 0 <= i - j <= 2:
                expect = (1, 2, 3)[i - j]
            assert abs(m[i, j] - expect) < 1e-14


def test_composition_block_columns_are_symbol_powers():
    N, M = 8, 64
    blk = build_block(composition(HALF_SHIFT), hardy(), N, M)
    for j in (0, 1, 3, 8):
        oracle = compose_poly_with_map([0] * j + [1], HALF_SHIFT, M)
        assert np.max(np.abs(blk.entries[:, j] - oracle)) < 1e-9


def test_every_top_left_sub_block_is_the_smaller_block():
    # a cell reads only cells above it and to its left, so a tall, wide or
    # square block is, bit for bit, a slice of any larger block
    R, C = 48, 64
    for sp in ALL_SPACES:
        for op in EXPLICIT_OPS:
            big = _columns(op, sp, R, C)
            for r in (0, 1, 6, 17, R):
                for c in (0, 1, 6, 40, C):
                    assert np.array_equal(_columns(op, sp, r, c), big[: r + 1, : c + 1])


def test_adjoint_block_is_conjugate_transpose():
    blk = build_block(weighted(PSI_HALF, HALF_SHIFT), bergman(0.0), 8, 64)
    adj = adjoint_block(blk)
    assert np.array_equal(adj.entries, blk.entries.conj().T)
    # a block is its entries, C-contiguous complex128
    for x in (blk, adj, word_block((plain(composition(HALF_SHIFT)),), hardy(), 4, 16)):
        assert [f.name for f in dataclasses.fields(x)] == ["entries"]
        assert x.entries.dtype == np.complex128 and x.entries.flags.c_contiguous


def test_word_single_plain_letter_matches_block():
    op = weighted(PSI_HALF, HALF_SHIFT)
    for sp in ALL_SPACES:
        w = word_block((plain(op),), sp, 8, 64)
        direct = build_block(op, sp, 8, 8)
        assert np.max(np.abs(w.entries - direct.entries)) < 1e-12


def test_word_toeplitz_times_composition_is_weighted_op():
    # T_psi . C_phi = W_(psi,phi); compression is exact for this word
    for sp in ALL_SPACES:
        w = word_block(
            (plain(toeplitz(PSI_HALF)), plain(composition(HALF_SHIFT))), sp, 10, 80
        )
        direct = build_block(weighted(PSI_HALF, HALF_SHIFT), sp, 10, 10)
        assert np.max(np.abs(w.entries - direct.entries)) < 1e-11


def _reference_entries(op, space, rows, cols):
    """<A e_j, e_i> from explicit convolutions psi * phi**j (phi = z for None)."""
    b = np.sqrt(space.basis_norms_sq(max(rows, cols)))
    psi = taylor(op.weight, rows).coeffs
    phi = Poly((0, 1))
    if op.symbol is not None:
        s = op.symbol
        phi = Rational(Poly((s.b, s.a)), Poly((s.d, s.c)))
    base = taylor(phi, rows).coeffs
    power = np.zeros(rows + 1, dtype=complex)
    power[0] = 1.0
    out = np.zeros((rows + 1, cols + 1), dtype=complex)
    for j in range(cols + 1):
        out[:, j] = np.convolve(psi, power)[: rows + 1] * b[: rows + 1] / b[j]
        power = np.convolve(power, base)[: rows + 1]
    return out


EXPLICIT_OPS = (
    composition(HALF_SHIFT),
    weighted(PSI_HALF, AFFINE_HALF),
    weighted(Exp(Poly((0, 0.5j))), MoebiusMap(0.3 + 0.1j, 0.2j, 0.25, 1.1)),
    toeplitz(Poly((1, 0.5j, -0.25))),
)


def _assert_rounding_close(got, want, rtol=1e-14):
    """Entrywise within rtol of the largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * np.max(np.abs(want))


def test_blocks_equal_explicit_power_convolutions():
    # the recurrence rounds differently from explicit convolutions, so entries
    # agree to rounding; Toeplitz blocks are the weight's series shifted, bit for bit
    for sp in ALL_SPACES:
        for op in EXPLICIT_OPS:
            for N, M in ((0, 0), (5, 5), (6, 40)):
                for got, want in (
                    (build_block(op, sp, N, M).entries, _reference_entries(op, sp, M, N)),
                    (_columns(op, sp, N, M), _reference_entries(op, sp, N, M)),
                ):
                    _assert_rounding_close(got, want)
                    if op.symbol is None:
                        assert np.array_equal(got, want)
        N, M = 8, 40
        word = cowen_adjoint_word(HALF_SHIFT, sp)
        letters = [_columns(w.op, sp, M, M) for w in word]
        for w, m in zip(word, letters):
            _assert_rounding_close(m, _reference_entries(w.op, sp, M, M))
        letters = [m.conj().T if w.adjoint else m for w, m in zip(word, letters)]
        expected = letters[0] @ (letters[1] @ letters[2])
        blk = word_block(word, sp, N, M)
        assert np.array_equal(blk.entries, expected[: N + 1, : N + 1])


def _signed(word, letters):
    return [m.conj().T if w.adjoint else m for w, m in zip(word, letters)]


def test_word_block_equals_explicit_full_product():
    # the panel sweep is P_N L_1 ... L_k P_N of the full order-M letter blocks
    N = 6
    words = (
        cowen_adjoint_word(THREE_POINT, hardy()),
        (
            plain(toeplitz(PSI_HALF)),
            adjoint_letter(composition(HALF_SHIFT)),
            plain(weighted(PSI_HALF, AFFINE_HALF)),
        ),
        (adjoint_letter(weighted(PSI_HALF, INTERIOR_MAP)), plain(composition(THREE_POINT))),
    )
    for sp in ALL_SPACES:
        for word in words:
            for M in (2 * N, 10 * N):
                letters = _signed(word, [_columns(w.op, sp, M, M) for w in word])
                expected = reduce(np.matmul, letters)
                _assert_rounding_close(
                    word_block(word, sp, N, M).entries, expected[: N + 1, : N + 1]
                )


def test_cowen_word_compresses_exactly():
    # T_g is lower and T_h* upper triangular, so P_N T_g C_sigma T_h* P_N is
    # the product of the three order-N letter compressions at any M
    N = 8
    for sp in ALL_SPACES:
        for m in (HALF_SHIFT, QUARTER_SHRINK, PARABOLIC_ONE, THREE_POINT):
            word = cowen_adjoint_word(m, sp)
            g, c, h = _signed(word, [_columns(w.op, sp, N, N) for w in word])
            for M in (2 * N, 10 * N):
                _assert_rounding_close(word_block(word, sp, N, M).entries, g @ c @ h)


def test_cowen_word_builds_only_order_n_letters_at_any_working_order(monkeypatch):
    # as in the order-study Cowen step: both end letters are peeled and the
    # one letter left between them is built at order N too, so M is only
    # validated
    built = []
    columns = opmat._columns

    def counting_columns(op, space, rows, cols):
        built.append((rows, cols))
        return columns(op, space, rows, cols)

    monkeypatch.setattr(opmat, "_columns", counting_columns)
    N, sp = 24, bergman(1.0)
    for m in (HALF_SHIFT, THREE_POINT, PARABOLIC_ONE):
        word = cowen_adjoint_word(m, sp)
        first = None
        for M in (320, 640, 1280):
            built.clear()
            entries = word_block(word, sp, N, M).entries
            assert built == [(N, N)] * 3
            first = entries if first is None else first
            assert np.array_equal(entries, first)


@st.composite
def self_maps(draw):
    """z -> c0 + r lam (z - p) / (1 - conj(p) z), |c0| + r <= 0.9, with
    c0 = r lam p (so symbol(0) = 0, a triangular letter) half of the time."""
    r = draw(st.floats(0.05, 0.5))
    p = cmath.rect(draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 2 * math.pi)))
    lam = cmath.rect(1.0, draw(st.floats(0.0, 2 * math.pi)))
    if draw(st.booleans()):
        c0 = r * lam * p
    else:
        c0 = cmath.rect(draw(st.floats(0.0, 0.9 - r)), draw(st.floats(0.0, 2 * math.pi)))
    pc = p.conjugate()
    return MoebiusMap(r * lam - c0 * pc, c0 - r * lam * p, -pc, 1.0)


WORD_WEIGHTS = (PSI_HALF, Poly((1, 0.5j, -0.25)), Exp(Poly((0, 0.5j))))


@st.composite
def word_letters(draw):
    """A Toeplitz, composition or weighted-composition letter, plain or adjoint."""
    kind = draw(st.sampled_from(("toeplitz", "composition", "weighted")))
    weight = draw(st.sampled_from(WORD_WEIGHTS))
    if kind == "toeplitz":
        op = toeplitz(weight)
    elif kind == "composition":
        op = composition(draw(self_maps()))
    else:
        op = weighted(weight, draw(self_maps()))
    return adjoint_letter(op) if draw(st.booleans()) else plain(op)


@settings(max_examples=60, deadline=None)
@given(
    word=st.lists(word_letters(), min_size=1, max_size=4),
    N=st.integers(0, 6),
    extra=st.integers(0, 24),
    sp=st.sampled_from(ALL_SPACES),
)
def test_word_block_is_the_compression_of_the_full_product(word, N, extra, sp):
    # peeled end letters and the rectangular outer letter change only what is
    # built, not the compression of the product of the order-M letters
    M = 2 * N + extra
    letters = _signed(word, [_columns(w.op, sp, M, M) for w in word])
    expected = reduce(np.matmul, letters)[: N + 1, : N + 1]
    scale = math.prod(np.linalg.norm(m, 2) for m in letters)
    got = word_block(tuple(word), sp, N, M).entries
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * scale


@st.composite
def rational_weights(draw, least=1.2):
    """num/den with deg num <= 2 and every root of den at modulus `least` to 3."""
    den = np.array([1.0 + 0j])
    for _ in range(draw(st.integers(1, 2))):
        rho = cmath.rect(draw(st.floats(least, 3.0)), draw(st.floats(0.0, 2 * math.pi)))
        den = np.convolve(den, [1.0, -1.0 / rho])
    parts = st.floats(-1.0, 1.0)
    num = [complex(draw(parts), draw(parts)) for _ in range(draw(st.integers(1, 3)))]
    return Rational(Poly(tuple(num)), Poly(tuple(den)))


@settings(max_examples=40, deadline=None)
@given(
    symbol=self_maps(),
    weight=rational_weights(),
    k=st.tuples(st.floats(0.05, 20.0), st.floats(0.0, 2 * math.pi)),
    rows=st.integers(0, 48),
    cols=st.integers(0, 16),
    sp=st.sampled_from(ALL_SPACES),
)
def test_blocks_do_not_depend_on_how_the_map_is_scaled(symbol, weight, k, rows, cols, sp):
    # (a, b, c, d) and k (a, b, c, d) are one map, so they give one block
    k = cmath.rect(*k)
    scaled = MoebiusMap(k * symbol.a, k * symbol.b, k * symbol.c, k * symbol.d)
    want = _columns(weighted(weight, symbol), sp, rows, cols)
    got = _columns(weighted(weight, scaled), sp, rows, cols)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.linalg.norm(want, 2)


def _rescaled(letter, k):
    """The letter with its symbol's coefficients times k, one map."""
    m = letter.op.symbol
    if m is None:
        return letter
    scaled = MoebiusMap(k * m.a, k * m.b, k * m.c, k * m.d)
    return dataclasses.replace(letter, op=dataclasses.replace(letter.op, symbol=scaled))


@st.composite
def rational_letters(draw):
    """A Toeplitz, composition or weighted-composition letter with a rational
    weight, plain or adjoint."""
    kind = draw(st.sampled_from(("toeplitz", "composition", "weighted")))
    if kind == "toeplitz":
        op = toeplitz(draw(rational_weights()))
    elif kind == "composition":
        op = composition(draw(self_maps()))
    else:
        op = weighted(draw(rational_weights()), draw(self_maps()))
    return adjoint_letter(op) if draw(st.booleans()) else plain(op)


SCALE_FACTORS = st.builds(cmath.rect, st.floats(0.05, 20.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=80, deadline=None)
@given(
    word=st.lists(rational_letters(), min_size=1, max_size=3) | self_maps(),
    ks=st.lists(SCALE_FACTORS, min_size=4, max_size=4),
    N=st.integers(0, 8),
    extra=st.integers(0, 24),
    sp=st.sampled_from(ALL_SPACES),
)
def test_word_blocks_do_not_depend_on_how_the_maps_are_scaled(word, ks, N, extra, sp):
    # a self-map stands for the Cowen adjoint word of it, built once from the
    # map and once from the map times ks[-1]; every letter's symbol is then
    # scaled by its own k, which leaves every letter's operator as it is
    if isinstance(word, MoebiusMap):
        k = ks[-1]
        scaled_map = MoebiusMap(k * word.a, k * word.b, k * word.c, k * word.d)
        word, scaled = cowen_adjoint_word(word, sp), cowen_adjoint_word(scaled_map, sp)
    else:
        scaled = word
    scaled = [_rescaled(w, k) for w, k in zip(scaled, ks)]
    M = 2 * N + extra
    want = word_block(word, sp, N, M).entries
    got = word_block(scaled, sp, N, M).entries
    assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(want, 2)


def _exact_raw_coefficients(symbol, num, den, order):
    """Raw coefficients F[n, j] of weight * symbol**j, n, j <= order, exact.

    The symbol (az + b)/(cz + d) and the weight num/den have integer
    coefficients.  The weight's series comes out as Fractions; then
    X[n, j] = F[n, j] q^(n+1) d^(n+j), with q = den[0], is an integer, and
    (d + cz) weight symbol^(j+1) = (b + az) weight symbol^j becomes an
    integer recurrence.  Each entry is rounded once, by int true division.
    """
    a, b, c, d = (int(v.real) for v in (symbol.a, symbol.b, symbol.c, symbol.d))
    assert complex(a, 0) == symbol.a and complex(b, 0) == symbol.b
    assert complex(c, 0) == symbol.c and complex(d, 0) == symbol.d
    q = den[0]
    psi = []
    for n in range(order + 1):
        v = Fraction(num[n] if n < len(num) else 0)
        v -= sum(den[k] * psi[n - k] for k in range(1, min(n, len(den) - 1) + 1))
        psi.append(v / q)
    X = np.zeros((order + 1, order + 1), dtype=object)
    for n, v in enumerate(psi):
        scaled = v * q ** (n + 1) * d**n
        assert scaled.denominator == 1
        X[n, 0] = scaled.numerator
    for j in range(order):
        for n in range(order + 1):
            up = q * (a * d * X[n - 1, j] - c * X[n - 1, j + 1]) if n else 0
            X[n, j + 1] = b * X[n, j] + up
    # Python ints: the denominators overflow any fixed-width integer
    rows = range(order + 1)
    return np.array([[X[n, j] / (q ** (n + 1) * d ** (n + j)) for j in rows] for n in rows])


def test_blocks_match_exact_rational_coefficients():
    # Hardy's basis norms are all 1, so the block is the raw coefficients
    order = 200
    for symbol in (HALF_SHIFT, THREE_POINT, TAU, PARABOLIC_ONE):
        for weight, num, den in ((None, (1,), (1,)), (PSI_HALF, (2,), (2, -1))):
            op = composition(symbol) if weight is None else weighted(weight, symbol)
            exact = _exact_raw_coefficients(symbol, num, den, order)
            _assert_rounding_close(_columns(op, hardy(), order, order), exact)


def test_smaller_word_compressions_are_leading_sub_blocks():
    # S7 reads its contraction's norms at several orders from one sweep
    word = (plain(toeplitz(ETA)), plain(composition(TAU)))
    big = word_block(word, hardy(), 32, 160).entries
    for n in (8, 16, 24):
        assert np.array_equal(big[: n + 1, : n + 1], word_block(word, hardy(), n, 160).entries)


def test_defect_report_slices_one_block_into_every_defect():
    op = weighted(PSI_HALF, HALF_SHIFT)
    for sp in (hardy(), bergman(1.0)):
        for N, M in ((8, None), (8, 20), (8, 31), (24, 64)):
            rep = defect_report(op, sp, N, M)
            M = rep.hyponormality.M
            pair = gram_blocks(op, sp, N, M)
            h = pair.g1 - pair.g2
            h = 0.5 * (h + h.conj().T)
            assert rep.hyponormality.min_eig == np.linalg.eigvalsh(h)[0]
            assert rep.hyponormality.norm == np.linalg.norm(h, 2)
            assert rep.hyponormality.tail_bound == pair.tail_bound
            K = max(M, 2 * N + 16)
            assert rep.quasinormal_defect == quasinormality_defect(op, sp, N, K)
            assert rep.selfadjoint_defect == selfadjoint_defect(op, sp, N)
            eye = np.eye(N + 1)
            gap = max(np.linalg.norm(pair.g1 - eye, 2), np.linalg.norm(pair.g2 - eye, 2))
            assert rep.unitary_defect == gap


def test_batched_tail_diagnostics_match_each_column():
    cols = [
        build_block(weighted(PSI_HALF, HALF_SHIFT), bergman(1.0), 12, 63).entries,
        build_block(composition(INTERIOR_MAP), hardy(), 12, 40).entries,
        build_block(toeplitz(Poly((1, 2, 3))), hardy(), 4, 32).entries,
        np.stack(
            [
                0.99 ** np.arange(40) + 0j,  # slow decay
                np.r_[np.zeros(30), np.ones(10)] + 0j,  # nothing in front
                np.r_[np.ones(3), np.zeros(37)] + 0j,  # nothing behind
                np.zeros(40, dtype=complex),
            ],
            axis=1,
        ),
    ]
    for entries in cols:
        batch = tail_diagnostics(entries)
        for j in range(entries.shape[1]):
            td = tail_diagnostics(entries[:, j])
            assert batch.slow_decay[j] == td.slow_decay[0]
            assert batch.ratio[j] == td.ratio[0]
            assert batch.bound[j] == td.bound[0]


def test_word_block_enforces_order_policy():
    with pytest.raises(OrderPolicyError):
        word_block((plain(composition(HALF_SHIFT)),), hardy(), 16, 24)


def test_blocks_and_words_go_through_the_order_policy():
    op = composition(HALF_SHIFT)
    with pytest.raises(OrderPolicyError):
        build_block(op, hardy(), 8, 7)
    with pytest.raises(InputError):
        build_block(op, hardy(), -1)
    with pytest.raises(InputError):
        word_block((plain(op),), hardy(), -1)
    # an order numpy cannot shape is refused before anything is allocated
    big = np.iinfo(np.intp).max
    assert shapeable_order(10_000) == 10_000
    with pytest.raises(OrderPolicyError):
        shapeable_order(big)
    with pytest.raises(OrderPolicyError):
        build_block(op, hardy(), 4, big)
    with pytest.raises(OrderPolicyError):
        working_order(big // 8, [op])


def test_empty_word_is_rejected():
    with pytest.raises(InputError):
        word_block((), hardy(), 4)
    with pytest.raises(InputError):
        douglas_witness((), composition(HALF_SHIFT), hardy(), 4)


def test_cowen_adjoint_word_residual_small():
    # the compressed three-letter word reproduces the adjoint block exactly
    N, M = 12, 96
    maps = (HALF_SHIFT, MoebiusMap(0.25, 0, -0.75, 1))
    for sp in (hardy(), bergman(0.0), bergman(1.0), bergman(0.4)):
        for m in maps:
            direct = adjoint_block(build_block(composition(m), sp, N, N))
            word = word_block(cowen_adjoint_word(m, sp), sp, N, M)
            resid = np.linalg.norm(direct.entries - word.entries, 2)
            assert resid < 1e-10


def test_cowen_word_invariant_under_rescaling():
    N, M = 10, 80
    base = MoebiusMap(1, 0, -1, 2)
    for k in (2.0, 1 + 2j, 0.5 - 0.5j):
        scaled = MoebiusMap(k * base.a, k * base.b, k * base.c, k * base.d)
        for sp in (hardy(), bergman(0.4)):
            w1 = word_block(cowen_adjoint_word(base, sp), sp, N, M)
            w2 = word_block(cowen_adjoint_word(scaled, sp), sp, N, M)
            assert np.max(np.abs(w1.entries - w2.entries)) < 1e-10


def test_gram_blocks_identity_for_rotation():
    for sp in ALL_SPACES:
        pair = gram_blocks(composition(rotation(1j)), sp, 8, 64)
        eye = np.eye(9)
        assert np.max(np.abs(pair.g1 - eye)) < 1e-12
        assert np.max(np.abs(pair.g2 - eye)) < 1e-12


def test_gram_blocks_hermitian_psd():
    pair = gram_blocks(weighted(PSI_HALF, HALF_SHIFT), bergman(0.0), 10, 160)
    for g in (pair.g1, pair.g2):
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() > -1e-10


def test_gram_blocks_converge_with_order():
    op = weighted(PSI_HALF, HALF_SHIFT)
    a = gram_blocks(op, hardy(), 8, 160)
    b = gram_blocks(op, hardy(), 8, 640)
    assert np.max(np.abs(a.g1 - b.g1)) < 1e-10
    assert np.max(np.abs(a.g2 - b.g2)) < 1e-8
    assert b.tail_bound <= a.tail_bound + 1e-15


def _block_pair(op, sp, N, M, hardy_blocks=None):
    """G1 and G2 from the tall and the wide block at working order M.  A
    block is the Hardy block scaled by the basis norms, so a dict passed as
    `hardy_blocks` keeps each operator's Hardy blocks for the other spaces."""
    if hardy_blocks is None:
        hardy_blocks = {}
    if op not in hardy_blocks:
        hardy_blocks[op] = (_columns(op, hardy(), M, N), _columns(op, hardy(), N, M))
    b = np.sqrt(sp.basis_norms_sq(M))
    tall, wide = (x * b[: len(x), None] / b[None, : x.shape[1]] for x in hardy_blocks[op])
    return tall.conj().T @ tall, wide @ wide.conj().T


def _assert_stein_pair_is_the_block_pair(op, sp, N, M, rtol):
    """The pair of `gram_blocks` against the block pair at order M: each
    half within rtol in the spectral norm, and its tail bound covering the
    gap up to that rounding."""
    pair = gram_blocks(op, sp, N, M)
    gaps = []
    for got, want in zip((pair.g1, pair.g2), _block_pair(op, sp, N, M)):
        scale = np.linalg.norm(want, 2)
        gaps.append(np.linalg.norm(got - want, 2))
        assert gaps[-1] <= rtol * scale
    assert 0.0 <= pair.tail_bound and sum(gaps) <= pair.tail_bound + rtol * scale


def _rational_scenario_operators(sp):
    """Every scenario operator whose Gram pair `gram_blocks` solves on sp,
    each once: S4's and S10's weights 1 and K_0 are the composition with
    AFFINE_HALF."""
    from wcolab import scenarios as sc

    ops = [composition(m) for m in (AFFINE_HALF, THREE_POINT, HALF_SHIFT)]
    ops += [composition(rotation(lam)) for lam in (1j, 0.5, np.exp(1j * np.pi * np.sqrt(2.0)))]
    ops += [weighted(Poly((1, -1)), AFFINE_HALF), sc.SADRAOUI, sc.s8_operator(sc.S8_CASES[0][1])]
    ops += [weighted(sc.s6_weight(sp), sc.HYPERBOLIC_AUTO)]
    ops += [sc.s11_operator(sp, t)[0] for t in (1.0, 2.0)]
    return ops


def test_stein_solves_match_the_blocks_of_every_rational_scenario_operator():
    # at M = 4096 the blocks' tails are below rounding for these operators;
    # each half that is solved (AA*, and A*A on H^2) is checked by itself,
    # so no A^2_alpha tall block is built twice
    hardy_blocks = {}
    for sp in ALL_SPACES:
        for op in _rational_scenario_operators(sp):
            leaf = opmat._stein_weight(op, sp)
            solved = {1: opmat._stein_g2(*leaf, op.symbol, sp, 16)}
            if sp == hardy():
                solved[0] = opmat._stein_g1(*leaf, op.symbol, 16)
            want = _block_pair(op, sp, 16, 4096, hardy_blocks)
            for half, (got, bound) in solved.items():
                scale = np.linalg.norm(want[half], 2)
                gap = np.linalg.norm(0.5 * (got + got.conj().T) - want[half], 2)
                assert gap <= 1e-12 * scale and gap <= bound + 1e-12 * scale


def test_stein_pair_of_the_order_study_operator_at_n_64():
    _assert_stein_pair_is_the_block_pair(weighted(PSI_HALF, HALF_SHIFT), hardy(), 64, 5120, 1e-12)


def test_only_rational_weights_on_integer_gamma_are_solved():
    # an Exp weight, a Power left a node, and a non-integer kernel exponent
    # keep both blocks; `gram_blocks` then is the block pair itself
    cases = [
        (weighted(Exp(Poly((0, 0.5))), AFFINE_HALF), hardy()),
        (weighted(Power(Poly((1, 0.5)), 0.5), AFFINE_HALF), hardy()),
        (weighted(Power(Poly((1, 0.5)), 4), AFFINE_HALF), hardy()),
        (composition(AFFINE_HALF), bergman(0.5)),
    ]
    for op, sp in cases:
        assert opmat._stein_weight(op, sp) is None
        pair = gram_blocks(op, sp, 8, 160)
        g1, g2 = _block_pair(op, sp, 8, 160)
        assert np.array_equal(pair.g1, 0.5 * (g1 + g1.conj().T))
        assert np.array_equal(pair.g2, 0.5 * (g2 + g2.conj().T))


def test_stein_chains_weigh_powers_binomially_and_bound_what_they_leave():
    # on a diagonal A the chain's entries are sum_m binom(m + k - 1, m) r^2m
    # = (1 - r^2)^-k; a slowly converging solve reports its remainder bound,
    # and one whose powers do not decay an infinite bound
    r = np.array([0.999999, 0.5, 0.0])
    for steps in (1, 2, 3):
        x, bound = opmat._stein(np.diag(r).astype(complex), np.eye(3, dtype=complex), steps)
        want = (1.0 - r * r) ** -steps
        np.testing.assert_allclose(np.diag(x).real, want, rtol=1e-9)
        assert 0.0 <= bound <= 1e-25 * want.max()
    assert opmat._stein(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 1)[1] == np.inf
    jordan = np.array([[0.5, 1e20], [0.0, 0.5]], dtype=complex)  # transient past 1/STEIN_TOL
    x, bound = opmat._stein(jordan, np.eye(2, dtype=complex), 1)
    assert bound == np.inf and np.isfinite(x).all()


@st.composite
def stein_maps(draw):
    """z -> c0 + r lam (z - p) / (1 - conj(p) z) with |p| = |c/d| <= 0.8 and
    |c0| + r <= 0.9, so the blocks' tails fall below rounding by M = 1024."""
    r = draw(st.floats(0.05, 0.6))
    p = cmath.rect(draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 2 * math.pi)))
    lam = cmath.rect(1.0, draw(st.floats(0.0, 2 * math.pi)))
    c0 = cmath.rect(draw(st.floats(0.0, 0.9 - r)), draw(st.floats(0.0, 2 * math.pi)))
    pc = p.conjugate()
    return MoebiusMap(r * lam - c0 * pc, c0 - r * lam * p, -pc, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    symbol=stein_maps() | st.none(),
    weight=rational_weights(least=1.5),
    N=st.integers(0, 8),
    sp=st.sampled_from(ALL_SPACES),
)
def test_stein_pairs_match_the_block_pairs(symbol, weight, N, sp):
    # no symbol is the analytic Toeplitz operator, solved with phi(z) = z
    op = toeplitz(weight) if symbol is None else weighted(weight, symbol)
    _assert_stein_pair_is_the_block_pair(op, sp, N, 1024, 1e-12)


def test_sylvester_stein_solves_weigh_both_sides_and_bound_what_they_leave():
    # with a right factor B the sum is sum_m A^m Q B*^m: on diagonal A and B
    # its entries are q_ij / (1 - a_i conj(b_j)); the bound covers the
    # remainder, and a side whose powers do not decay leaves it infinite
    a = np.array([0.999999, 0.5j, 0.0])
    b = np.array([-0.9, 0.3 + 0.4j])
    q = np.arange(1.0, 7.0).reshape(3, 2).astype(complex)
    x, bound = opmat._stein(np.diag(a), q, 1, np.diag(b))
    want = q / (1.0 - np.outer(a, b.conj()))
    np.testing.assert_allclose(x, want, rtol=1e-9)
    assert 0.0 <= bound <= 1e-25 * np.abs(want).max()
    assert opmat._stein(np.eye(3, dtype=complex), q, 1, np.eye(2, dtype=complex))[1] == np.inf


def _block_commutator(op, sp, N, M):
    """||P_N (S S*S - S*S S) P_N|| of the order-M square block S."""
    return probes._quasinormal_commutator_norm(_columns(op, sp, M, M), N)


def _assert_solved_commutator_is_the_block_one(op, N, M, rtol):
    """The solved defect on H^2 against the order-M square block: within
    rtol of the block's value (of 1 where the commutator vanishes), its
    remainder bound covering the gap up to that rounding."""
    ev = probes.quasinormality_evidence(op, hardy(), N, M)
    assert ev.remainder_bound is not None and ev.remainder_bound >= 0.0
    want = _block_commutator(op, hardy(), N, M)
    scale = max(want, 1.0)
    assert abs(ev.defect - want) <= rtol * scale
    assert abs(ev.defect - want) <= ev.remainder_bound + rtol * scale
    assert ev.defect == quasinormality_defect(op, hardy(), N, M)


def test_solved_commutators_match_the_square_blocks_of_the_scenario_operators():
    # S4's psi-one, S5's half-shift and its rotations, S7's and S8's
    # f-linear operators and an analytic Toeplitz operator, against the
    # M = 2048 blocks, whose tails are below rounding for these operators
    from wcolab import scenarios as sc

    ops = [composition(AFFINE_HALF), composition(HALF_SHIFT), sc.SADRAOUI, toeplitz(PSI_HALF)]
    ops += [composition(rotation(lam)) for lam in (1j, 0.5, np.exp(1j * np.pi * np.sqrt(2.0)))]
    ops += [sc.s8_operator(sc.S8_CASES[0][1])]
    for op in ops:
        _assert_solved_commutator_is_the_block_one(op, 16, 2048, 1e-12)


@st.composite
def commutator_maps(draw):
    """A `stein_maps` map, or one whose image touches the unit circle: a
    tangent map (|c0| + r = 1) or an automorphism (c0 = 0, r = 1), again
    with |c/d| = |p| <= 0.8."""
    kind = draw(st.sampled_from(("interior", "tangent", "automorphism")))
    if kind == "interior":
        return draw(stein_maps())
    r = 1.0 if kind == "automorphism" else draw(st.floats(0.05, 0.95))
    p = cmath.rect(draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 2 * math.pi)))
    lam = cmath.rect(1.0, draw(st.floats(0.0, 2 * math.pi)))
    c0 = cmath.rect(1.0 - r, draw(st.floats(0.0, 2 * math.pi)))
    pc = p.conjugate()
    return MoebiusMap(r * lam - c0 * pc, c0 - r * lam * p, -pc, 1.0)


@settings(max_examples=16, deadline=None)
@given(
    symbol=commutator_maps() | st.none(),
    weight=rational_weights(least=1.5),
    N=st.integers(0, 16),
)
def test_solved_commutators_match_the_square_blocks(symbol, weight, N):
    op = toeplitz(weight) if symbol is None else weighted(weight, symbol)
    _assert_solved_commutator_is_the_block_one(op, N, 1024, 1e-12)


def test_block_commutators_stay_where_nothing_is_solved(monkeypatch):
    # an Exp weight, a Power left a node and any A^2_alpha read the square
    # block, bit for bit, with no remainder bound; so does a solve whose
    # bound is not finite
    cases = [
        (weighted(Exp(Poly((0, 0.5))), AFFINE_HALF), hardy()),
        (weighted(Power(Poly((1, 0.5)), 0.5), HALF_SHIFT), hardy()),
        (weighted(PSI_HALF, HALF_SHIFT), bergman(0.0)),
        (composition(AFFINE_HALF), bergman(1.0)),
        (composition(AFFINE_HALF), bergman(0.5)),
    ]
    for op, sp in cases:
        ev = probes.quasinormality_evidence(op, sp, 8, 160)
        assert ev == probes.QuasinormalityEvidence(_block_commutator(op, sp, 8, 160), None)
        assert defect_report(op, sp, 8, 160).quasinormal_defect == ev.defect
    op = weighted(PSI_HALF, HALF_SHIFT)
    monkeypatch.setattr(probes, "_stein_commutator", lambda *args: (np.zeros((9, 9)), math.inf))
    ev = probes.quasinormality_evidence(op, hardy(), 8, 160)
    assert ev == probes.QuasinormalityEvidence(_block_commutator(op, hardy(), 8, 160), None)
    assert defect_report(op, hardy(), 8, 160).quasinormal_defect == ev.defect


def test_boundary_touching_and_order_policy():
    assert is_boundary_touching(composition(HALF_SHIFT))
    assert is_boundary_touching(composition(AFFINE_HALF))
    assert not is_boundary_touching(composition(INTERIOR_MAP))
    n = 16
    inner = working_order(n, (composition(INTERIOR_MAP),))
    touching = working_order(n, (composition(HALF_SHIFT),))
    assert inner >= 2 * n
    assert touching == 2 * inner


def test_working_order_default_and_least():
    inner, touching = (composition(INTERIOR_MAP),), (composition(HALF_SHIFT),)
    for n in range(201):
        M = working_order(n, inner)
        assert M >= 2 * n + 16
        assert working_order(n, touching) == 2 * M
        # the default passes every consumer's least
        assert working_order(n, inner, least=2 * n + 16) == M
        assert working_order(n, inner, 2 * n) == 2 * n
    with pytest.raises(OrderPolicyError):
        working_order(8, inner, 15)
    with pytest.raises(OrderPolicyError):
        working_order(8, inner, 31, least=32)
    with pytest.raises(OrderPolicyError):
        gram_blocks(composition(INTERIOR_MAP), hardy(), 8, 15)
    with pytest.raises(OrderPolicyError):
        quasinormality_defect(composition(INTERIOR_MAP), hardy(), 8, 31)
    with pytest.raises(OrderPolicyError):
        spectral_radius_estimate(composition(INTERIOR_MAP), hardy(), 8, 3, M=7)
    assert len(spectral_radius_estimate(composition(INTERIOR_MAP), hardy(), 8, 3, M=8)) == 3


def test_operator_spec_validation():
    with pytest.raises(NotSelfMapError):
        composition(MoebiusMap(2, 0, 0, 1))
    with pytest.raises(NotSelfMapError):
        cowen_adjoint_word(MoebiusMap(2, 0, 0, 1), hardy())
    with pytest.raises(InputError):
        weighted(PSI_HALF, "not a map")
    with pytest.raises(UnboundedWeightError):
        toeplitz(Exp(Rational(Poly((1, 1)), Poly((1, -1)))))
    # an exact pole at the sample point 0.999
    with pytest.raises(UnboundedWeightError):
        toeplitz(Rational(Poly((1,)), Poly((0.999, -1))))


@pytest.mark.parametrize(
    "weight",
    (
        Rational(Poly((1,)), Poly((1, -2))),  # pole at 1/2, unseen by the sample circle
        Rational(Poly((1,)), Poly((1, -1))),  # pole at 1, ~1e3 on the sample circle
        Power(Poly((1, -2)), 0.5),  # branch point at 1/2
        Power(Poly((1, -1)), -1),  # pole at 1
        PrecomposeMoebius(Rational(Poly((1,)), Poly((1, -4))), AFFINE_HALF),  # pole at -1/2
        Rational(Poly((1, -2)), Poly((1, -4, 4))),  # (1 - 2z)/(1 - 2z)^2: one pole left
        Sum((POLE_HALF, constant(1))),  # (2 - 2z)/(1 - 2z): the sum keeps the pole
        Product((POLE_HALF, Exp(Poly((0, 1))))),  # exp is no rational leaf
        Product((Power(Poly((1, -2)), 0.5),) * 2),  # each factor has its branch point
        # (1 - 1.9999996z)/(1 - 2z): a zero 2e-7 from the pole, within the root
        # match, does not cancel it
        Rational(Poly((1, -1.9999996)), Poly((1, -2))),
    ),
)
def test_weights_with_a_singularity_in_the_disk_are_rejected_exactly(weight):
    with pytest.raises(UnboundedWeightError, match="closed disk"):
        toeplitz(weight)
    with pytest.raises(UnboundedWeightError):
        weighted(weight, INTERIOR_MAP)


@pytest.mark.parametrize(
    "weight, equal",
    (
        (Product((Poly((1, -2)), POLE_HALF)), constant(1.0)),
        (Sum((POLE_HALF, Scale(-1.0, POLE_HALF), constant(1.0))), constant(1.0)),
        (
            Product((Rational(Poly((2, -1)), Poly((1, -2))), Rational(Poly((1, -2)), Poly((3, -1))))),
            Rational(Poly((2, -1)), Poly((3, -1))),
        ),
        # one leaf: (2 - z)(1 - 2z) / ((1 - 2z)(3 - z))
        (Rational(Poly((2, -5, 2)), Poly((3, -7, 2))), Rational(Poly((2, -1)), Poly((3, -1)))),
    ),
)
def test_poles_that_cancel_across_leaves_are_accepted(weight, equal):
    # also at the CLI's default orders, where a series run along the
    # cancelled pole 1/2 would have grown by 2^160
    for N, M in ((6, 12), (16, 160)):
        got = build_block(toeplitz(weight), hardy(), N, M).entries
        want = build_block(toeplitz(equal), hardy(), N, M).entries
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(taylor(weight, 64).coeffs - taylor(equal, 64).coeffs)) <= 1e-14
    # an analytic Toeplitz operator is hyponormal
    assert hyponormality_probe(toeplitz(weight), hardy(), 16).min_eig >= -1e-12


def test_cancelled_poles_and_integer_powers_are_accepted():
    cancelled = Rational(Poly((1, -2)), Poly((1, -2)))
    assert np.allclose(build_block(toeplitz(cancelled), hardy(), 4, 8).entries, np.eye(9, 5))
    toeplitz(Rational(Poly((1, -4, 4)), Poly((1, -4, 4))))
    square = build_block(toeplitz(Power(Poly((1, -2)), 2)), hardy(), 4, 8).entries
    assert np.allclose(square[:3, 0], [1, -4, 4])
    # a zero of the base only matters for a negative or fractional power
    toeplitz(Power(Poly((1, -2)), 3))
    toeplitz(Power(Poly((1, 0.5)), -2.5))
    # a subnormal kernel point: the base's root is far beyond the disk
    toeplitz(kernel_expr(hardy(), 1e-310))


def test_operator_spec_json_roundtrip():
    op = weighted(PSI_HALF, HALF_SHIFT)
    again = OperatorSpec.from_json(op.to_json())
    assert again.symbol is not None
    blk1 = build_block(op, hardy(), 6, 48).entries
    blk2 = build_block(again, hardy(), 6, 48).entries
    assert np.array_equal(blk1, blk2)
    assert composition(HALF_SHIFT).describe() == "composition"
    assert toeplitz(PSI_HALF).describe() == "toeplitz"
    assert op.describe() == "weighted-composition"


def test_adjoint_letter_flag():
    t = toeplitz(PSI_HALF)
    assert not plain(t).adjoint
    assert adjoint_letter(t).adjoint
