"""Tests for the normality-class probes."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcolab.errors import OrderPolicyError
from wcolab.mobius import MoebiusMap, rotation
from wcolab import cli, opmat, probes, scenarios
from wcolab.opmat import (
    adjoint_block,
    adjoint_letter,
    build_block,
    composition,
    gram_blocks,
    plain,
    toeplitz,
    weighted,
    word_block,
)
from wcolab.probes import (
    KERNEL_PROBE_MAX_ORDER,
    KERNEL_PROBE_ORDER,
    certified_min_chi,
    default_kernel_grid,
    defect_report,
    defect_sweep,
    douglas_witness,
    hyponormality_probe,
    kernel_condition_probe,
    quasinormality_defect,
    selfadjoint_defect,
    unitary_defect,
)
from wcolab.series import (
    Exp,
    Poly,
    PrecomposeMoebius,
    Product,
    Scale,
    constant,
    eliminate_precompose,
    evaluate,
    tail_diagnostics,
    taylor,
)
from wcolab.scenarios import (
    AFFINE_HALF,
    ETA,
    HALF_SHIFT,
    HYPERBOLIC_AUTO,
    PSI_HALF,
    S8_CASES,
    S9_SYMBOLS,
    SADRAOUI,
    TAU,
    THREE_POINT,
    THREE_SPACES,
    Overrides,
    s6_weight,
    s8_operator,
    s10_weights,
    s11_operator,
    s11_orders,
)
from wcolab.space import bergman, hardy, kernel_expr, kernel_norm_sq

ALL_SPACES = (hardy(), bergman(0.0), bergman(1.0))


def test_self_commutator_is_hermitian():
    pair = gram_blocks(weighted(PSI_HALF, HALF_SHIFT), hardy(), 10, 160)
    h = pair.g1 - pair.g2
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert pair.tail_bound >= 0.0


def test_gram_pair_is_exactly_hermitian():
    # so the self-commutator block G1 - G2 needs no symmetrization of its own
    ops = (SADRAOUI, composition(AFFINE_HALF), composition(THREE_POINT), weighted(PSI_HALF, TAU))
    for sp in ALL_SPACES:
        for op in ops:
            for N, M in ((4, 16), (16, 160)):
                pair = gram_blocks(op, sp, N, M)
                for g in (pair.g1, pair.g2):
                    assert np.array_equal(g, g.conj().T)
                h = pair.g1 - pair.g2
                assert h.tobytes() == (0.5 * (h + h.conj().T)).tobytes()


def test_self_commutator_scale_covariance():
    # replacing psi by c*psi multiplies the self-commutator by |c|^2
    op1 = weighted(PSI_HALF, HALF_SHIFT)
    op2 = weighted(Scale(2j, PSI_HALF), HALF_SHIFT)
    pair1, pair2 = gram_blocks(op1, hardy(), 8, 128), gram_blocks(op2, hardy(), 8, 128)
    h1, h2 = pair1.g1 - pair1.g2, pair2.g1 - pair2.g2
    assert np.max(np.abs(h2 - 4.0 * h1)) < 1e-10


def test_quasinormality_scale_covariance():
    # the commutator S G - G S picks up |c|^3
    op1 = weighted(PSI_HALF, HALF_SHIFT)
    op2 = weighted(Scale(-2.0, PSI_HALF), HALF_SHIFT)
    d1 = quasinormality_defect(op1, hardy(), 8, 128)
    d2 = quasinormality_defect(op2, hardy(), 8, 128)
    assert abs(d2 - 8.0 * d1) < 1e-9 * max(1.0, d1)


def test_rotation_operator_is_normal_everywhere():
    for sp in ALL_SPACES:
        for lam in (1j, 0.5, np.exp(1j * np.pi * np.sqrt(2.0))):
            op = composition(rotation(lam))
            rep = defect_report(op, sp, 10, 64)
            assert rep.hyponormality.norm < 1e-12
            assert rep.quasinormal_defect < 1e-12
            assert rep.hyponormality.min_eig > -1e-12


def test_unitary_rotation_has_zero_unitary_defect():
    for sp in ALL_SPACES:
        assert unitary_defect(composition(rotation(1j)), sp, 10, 64) < 1e-12
    # dilation z/2 is far from unitary
    assert unitary_defect(composition(MoebiusMap(0.5, 0, 0, 1)), hardy(), 10, 80) > 0.5


def test_selfadjoint_defect_cases():
    # C_z is the identity, hence self-adjoint
    assert selfadjoint_defect(composition(rotation(1.0)), hardy(), 8) < 1e-14
    assert selfadjoint_defect(composition(rotation(1j)), hardy(), 8) > 0.5


def test_analytic_toeplitz_is_hyponormal_not_quasinormal():
    op = toeplitz(Poly((1, 1)))
    for sp in (hardy(), bergman(0.0)):
        ev = hyponormality_probe(op, sp, 10, 160)
        assert ev.min_eig > -1e-10
        assert not ev.certificate
        assert quasinormality_defect(op, sp, 10, 160) > 0.01


def test_affine_half_map_fails_hyponormality():
    # frozen sign oracle: composition with (z+1)/2 is not hyponormal
    for sp in ALL_SPACES:
        ev = hyponormality_probe(composition(AFFINE_HALF), sp, 16, 320)
        assert ev.min_eig < -0.05
        assert ev.certificate


def test_hyponormality_probe_reports_tail_bound():
    ev = hyponormality_probe(composition(HALF_SHIFT), hardy(), 8, 160)
    assert ev.tail_bound is not None and ev.tail_bound >= 0.0
    assert ev.N == 8 and ev.M == 160


def test_tail_below_order_16_is_unknown_not_zero():
    # an Exp weight's pair reads blocks: below 17 rows the tall block's tail
    # cannot be judged, so the pair's bound is infinite and a negative
    # eigenvalue certifies nothing
    op = weighted(Exp(Poly((0, 1))), AFFINE_HALF)
    for M in (8, 12, 15):
        assert gram_blocks(op, hardy(), 4, M).tail_bound == np.inf
        ev = hyponormality_probe(op, hardy(), 4, M)
        assert ev.min_eig < -2.9 and not ev.certificate
        assert "tail-bound-unavailable" in defect_report(op, hardy(), 4, M).flags
    assert hyponormality_probe(op, hardy(), 4, 16).certificate


def test_stein_pairs_certify_at_any_working_order():
    # the composition's pair on H^2 is two Stein solves: no block, so no
    # tail to judge, and the same bits at every M
    op = composition(AFFINE_HALF)
    ref = hyponormality_probe(op, hardy(), 4, 16)
    for M in (8, 12, 15, 4096):
        ev = hyponormality_probe(op, hardy(), 4, M)
        assert ev.certificate and ev.min_eig < -0.4
        assert 0.0 <= ev.tail_bound < 1e-30
        assert (ev.min_eig, ev.norm, ev.tail_bound, ev.M) == (ref.min_eig, ref.norm, ref.tail_bound, M)
    for M in (8, 12, 15):
        assert "tail-bound-unavailable" not in defect_report(op, hardy(), 4, M).flags


def test_quasinormality_defect_order_policy():
    with pytest.raises(OrderPolicyError):
        quasinormality_defect(composition(HALF_SHIFT), hardy(), 16, 40)


def test_normality_defect_matches_selfcommutator_norm():
    # the evidence record carries the norm of the block its eigenvalue reads
    op = weighted(PSI_HALF, HALF_SHIFT)
    pair = gram_blocks(op, hardy(), 10, 160)
    h = pair.g1 - pair.g2
    ev = hyponormality_probe(op, hardy(), 10, 160)
    assert ev.norm == np.linalg.norm(h, 2)
    assert ev.min_eig == np.linalg.eigvalsh(h)[0]


def test_defect_report_carries_hyponormality_evidence(tmp_path, capsys):
    path = tmp_path / "probe.json"
    for op in (composition(AFFINE_HALF), weighted(PSI_HALF, HALF_SHIFT), toeplitz(Poly((1, 1)))):
        for sp in (hardy(), bergman(1.0)):
            rep = defect_report(op, sp, 10, 160)
            ev = rep.hyponormality
            assert ev == hyponormality_probe(op, sp, 10, 160)
            # the CLI writes the report's flat keys
            argv = ["probe", "--op", json.dumps(op.to_json()), "--space", sp.label()]
            assert cli.main(argv + ["--order", "10", "--tail", "160", "--json", str(path)]) == 0
            capsys.readouterr()
            out = json.loads(path.read_text())
            assert (out["min_eig_selfcomm"], out["N"], out["M"]) == (ev.min_eig, 10, 160)
            assert out["tail_bound"] == ev.tail_bound
            assert out["norm_selfcomm"] == ev.norm


def test_defect_report_flags_boundary_touching():
    rep = defect_report(composition(HALF_SHIFT), hardy(), 8, 64)
    assert "boundary-touching-symbol" in rep.flags
    rep2 = defect_report(composition(MoebiusMap(0.5, 0, 0, 1)), hardy(), 8, 64)
    assert "boundary-touching-symbol" not in rep2.flags


def test_unitary_weighted_composition_defect_small():
    # explicit unitary: scaled kernel weight against a disk automorphism
    for sp in ALL_SPACES:
        op = weighted(s6_weight(sp), HYPERBOLIC_AUTO)
        assert unitary_defect(op, sp, 12, 128) < 1e-10
        assert hyponormality_probe(op, sp, 12, 128).norm < 1e-10


def test_douglas_witness_for_adjoint_factorization():
    # contraction word T_eta C_tau carries C_phi* = C_sigma onto T_psi C_phi
    word = (plain(toeplitz(ETA)), plain(composition(TAU)))
    op = weighted(PSI_HALF, HALF_SHIFT)
    w = douglas_witness(word, op, hardy(), 12, 96)
    assert w.residual < 1e-10
    assert w.norm_estimate <= 1.0 + 1e-8


def _two_word_douglas(contraction, op, sp, N, M):
    """The witness as two words: ||C|| and ||C A - A*||, A* from the order-N block."""
    c = word_block(contraction, sp, N, M)
    ca = word_block(contraction + (plain(op),), sp, N, M)
    target = adjoint_block(build_block(op, sp, N, N))
    return float(np.linalg.norm(c.entries, 2)), float(np.linalg.norm(ca.entries - target.entries, 2))


def _douglas_cases():
    """S7's contraction, and S8's with the adjoint letter T_g*, at their orders."""
    s7 = (plain(toeplitz(ETA)), plain(composition(TAU)))
    return [(s7, SADRAOUI, 24)] + [
        (s7 + (adjoint_letter(toeplitz(g)), plain(toeplitz(inv_f))), s8_operator(f), 16)
        for _, f, g, inv_f in S8_CASES
    ]


def _count_letter_blocks(monkeypatch):
    """Record (operator, rows, cols) of every block `opmat` builds."""
    columns = opmat._columns
    built = []

    def counting_columns(op, space, rows, cols):
        built.append((op, rows, cols))
        return columns(op, space, rows, cols)

    monkeypatch.setattr(opmat, "_columns", counting_columns)
    return built


def test_douglas_witness_builds_each_letter_once(monkeypatch):
    # innermost letter first: S8's T_{1/f} and T_g* are order-M squares (an
    # adjoint letter's block is built transposed), C_tau, the outermost
    # letter that is not peeled, gives only its rows 0..N, and T_eta, lower
    # triangular, is peeled to order N
    cases = _douglas_cases()
    refs = [_two_word_douglas(c, op, hardy(), N, 160) for c, op, N in cases]
    built = _count_letter_blocks(monkeypatch)
    for (contraction, op, N), (norm, residual) in zip(cases, refs):
        built.clear()
        w = douglas_witness(contraction, op, hardy(), N, 160)
        shapes = [(160, 160)] * (len(contraction) - 2) + [(N, 160), (N, N)]
        assert [(rows, cols) for _, rows, cols in built] == shapes
        assert all(b is c.op for (b, _, _), c in zip(built, reversed(contraction)))
        assert abs(w.norm_estimate - norm) <= 1e-14
        assert abs(w.residual - residual) <= 1e-14


def test_douglas_witness_carries_the_compression_of_c_times_a():
    # the witness's C A is the word with the operator appended, bit for bit
    for contraction, op, N in _douglas_cases():
        w = douglas_witness(contraction, op, hardy(), N, 160)
        word = word_block(contraction + (plain(op),), hardy(), N, 160)
        assert w.ca.shape == (N + 1, N + 1)
        assert np.array_equal(w.ca, word.entries)


def test_words_run_no_tail_diagnostics(monkeypatch):
    # blocks carry only their entries; the tail judgment is `wcolab block`'s
    def refuse(*args, **kwargs):
        raise AssertionError("a word ran the tail diagnostics")

    monkeypatch.setattr(opmat, "tail_diagnostics", refuse)
    for contraction, op, N in _douglas_cases():
        word_block(contraction + (plain(op),), hardy(), N, 160)
        douglas_witness(contraction, op, hardy(), N, 160)
    for sp in ALL_SPACES:
        word_block(opmat.cowen_adjoint_word(HALF_SHIFT, sp), sp, 24, 160)


def test_s7_sweeps_each_letter_block_once(monkeypatch):
    # every block S7 builds: two order-N blocks for the adjoint check, then
    # C_tau and T_eta once for the Douglas witness (C_tau's rows 0..24 of
    # 160, T_eta at order 24) and once for the contraction norms, whose word
    # compresses exactly at order 32; the hyponormality probe, two Stein
    # solves on H^2, builds none
    build = opmat.build_block
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(opmat, "build_block", counting_build)
    monkeypatch.setattr(scenarios, "build_block", counting_build)
    letters = _count_letter_blocks(monkeypatch)
    rep = scenarios.run_scenario("S7-sadraoui")
    assert rep.verdict == "PASS"
    assert len(calls) == 2
    assert [(op.symbol, rows, cols) for op, rows, cols in letters] == [
        (SADRAOUI.symbol, 24, 24),
        (AFFINE_HALF, 24, 24),
        (TAU, 24, 160),
        (None, 24, 24),
        (TAU, 32, 32),
        (None, 32, 32),
    ]


def _assert_sweep_is_per_order(op, sp, pairs):
    sweep = defect_sweep(op, sp, pairs)
    assert len(sweep) == len(pairs)
    for (N, M), (sa, ev) in zip(pairs, sweep):
        assert sa == selfadjoint_defect(op, sp, N)
        assert ev == hyponormality_probe(op, sp, N, M)


def test_defect_sweep_is_the_per_order_probes():
    # bit for bit: at S11's orders (one M), at order scale 2 (two Ms), with
    # explicit orders (one pair, repeated), and with the default M
    for sp in THREE_SPACES:
        for t in (1.0, 2.0):
            _assert_sweep_is_per_order(s11_operator(sp, t)[0], sp, s11_orders(Overrides()))
    scaled = s11_orders(Overrides(order_scale=2.0))
    assert len({M for _, M in scaled}) == 2
    pinned = s11_orders(Overrides(N=10, M=96))
    assert pinned == [(10, 96)] * 5
    for t in (1.0, 2.0):
        op = s11_operator(bergman(1.0), t)[0]
        _assert_sweep_is_per_order(op, bergman(1.0), scaled)
        _assert_sweep_is_per_order(op, bergman(1.0), pinned)
    pairs = [(12, None), (6, 64), (4, None)]
    _assert_sweep_is_per_order(weighted(PSI_HALF, HALF_SHIFT), hardy(), pairs)


def test_defect_sweep_checks_the_working_order():
    with pytest.raises(OrderPolicyError):
        defect_sweep(composition(HALF_SHIFT), hardy(), [(8, 160), (20, 30)])


def test_s11_builds_a_corner_per_operator_and_a_tall_block_off_hardy(monkeypatch):
    # 3 spaces x 2 translation numbers, one working order: each operator's
    # order-24 corner for the self-adjoint defects, and on A^2_alpha the tall
    # block for A*A; every AA*, and A*A on H^2, is a Stein solve
    columns = opmat._columns
    shapes = []

    def counting_columns(op, space, rows, cols):
        shapes.append((rows, cols))
        return columns(op, space, rows, cols)

    monkeypatch.setattr(probes, "_columns", counting_columns)
    rep = scenarios.run_scenario("S11-parabolic-kernel-weight")
    assert rep.verdict == "REPORT"
    assert shapes == [(24, 24)] * 2 + [(320, 24), (24, 24)] * 4


def test_defect_report_on_hardy_builds_only_the_corner_for_a_rational_weight(monkeypatch):
    # every defect of a rational weight on H^2 is solved but the self-adjoint
    # one, which reads the order-N corner; an Exp weight, and any weight on
    # A^2_alpha, read one square block of order max(M, 2N + 16)
    columns = opmat._columns
    shapes = []

    def counting_columns(op, space, rows, cols):
        shapes.append((rows, cols))
        return columns(op, space, rows, cols)

    monkeypatch.setattr(probes, "_columns", counting_columns)
    monkeypatch.setattr(opmat, "_columns", counting_columns)
    for op in (composition(AFFINE_HALF), SADRAOUI, toeplitz(PSI_HALF), s8_operator(S8_CASES[0][1])):
        for N, M in ((8, None), (16, 40), (24, 1280)):
            shapes.clear()
            defect_report(op, hardy(), N, M)
            assert shapes == [(N, N)]
    for op, sp in ((s8_operator(S8_CASES[1][1]), hardy()), (SADRAOUI, bergman(1.0))):
        shapes.clear()
        defect_report(op, sp, 16, 40)
        assert shapes == [(48, 48)]


def test_kernel_probe_zero_for_unitary_and_negative_for_bad_map():
    pts = kernel_condition_probe(weighted(s6_weight(hardy()), HYPERBOLIC_AUTO), hardy())
    assert max(abs(p.chi) for p in pts) < 1e-8

    pts2 = kernel_condition_probe(composition(AFFINE_HALF), hardy())
    assert min(p.chi for p in pts2) < -1e-3


def disk_point(radius):
    return st.builds(cmath.rect, st.floats(0.0, radius), st.floats(0.0, 2 * math.pi))


@settings(max_examples=90, deadline=None)
@given(
    a=disk_point(0.6),
    turn=st.floats(0.0, 2 * math.pi),
    sp=st.sampled_from(ALL_SPACES),
    ws=st.lists(disk_point(0.7), min_size=12, max_size=12),
)
def test_unitary_weighted_automorphisms_have_zero_chi(a, turn, sp, ws):
    # (1 - |a|^2)^(gamma/2) K_a C_phi is unitary for phi = lam (a - z)/(1 - conj(a) z);
    # S6's operator is the case a = -1/2, lam = -1
    weight = Product((constant((1.0 - abs(a) ** 2) ** (sp.gamma / 2.0)), kernel_expr(sp, a)))
    lam = cmath.rect(1.0, turn)
    op = weighted(weight, MoebiusMap(-lam, lam * a, -a.conjugate(), 1.0))
    assert unitary_defect(op, sp, 12, 160) <= 1e-10
    pts = kernel_condition_probe(op, sp, ws)
    assert not any(p.slow_decay for p in pts)
    # chi(w) is a difference of squared norms of size ||K_w||^2 = (1 - |w|^2)^(-gamma)
    assert max(abs(p.chi) * (1.0 - abs(p.w) ** 2) ** sp.gamma for p in pts) <= 1e-10


def test_kernel_probe_on_an_empty_grid_has_no_points():
    assert kernel_condition_probe(composition(AFFINE_HALF), hardy(), []) == []


def test_kernel_probe_below_the_tail_order_doubles_until_judged():
    # a series of order below 16 is too short to judge: it counts as slow;
    # a non-integer kernel exponent keeps the composition on the series path
    op, grid, sp = composition(AFFINE_HALF), default_kernel_grid()[::9], bergman(0.5)
    judged = kernel_condition_probe(op, sp, grid, order=16)
    assert not any(p.exact for p in judged)
    for start in (0, 1, 4):  # doubling from 1, 1 or 4 reaches 16 itself
        assert kernel_condition_probe(op, sp, grid, order=start) == judged
    assert all(p.order >= 30 for p in kernel_condition_probe(op, sp, grid, order=15))


def test_kernel_grid_stays_inside_disk():
    grid = default_kernel_grid()
    assert len(grid) > 32
    assert all(abs(w) < 1.0 for w in grid)


def test_kernel_probe_points_carry_orders():
    pts = kernel_condition_probe(composition(HALF_SHIFT), bergman(0.5))
    assert not any(p.exact for p in pts)
    assert all(p.order >= 512 for p in pts)
    assert all(np.isfinite(p.chi) for p in pts)


def test_exact_kernel_points_carry_the_requested_order_and_are_never_slow():
    # the benchmark's tracer reads log2(order / start) of every point
    op, grid = composition(HALF_SHIFT), default_kernel_grid()[::9]
    for order, carried in ((512, 512), (15, 15), (0, 1), (1, 1)):
        pts = kernel_condition_probe(op, hardy(), grid, order=order)
        assert all(p.exact and not p.slow_decay and p.order == carried for p in pts)
        assert all(np.isfinite(p.chi) for p in pts)


def _unitary_kernel_operator(a: float):
    """(1 - a^2)^(1/2) K_a C_{phi_a} with phi_a(z) = (a - z)/(1 - a z): unitary on H^2."""
    weight = Product((constant((1.0 - a * a) ** 0.5), kernel_expr(hardy(), a)))
    return weighted(weight, MoebiusMap(-1, a, -a, 1))


def test_kernel_probe_slow_points_at_cap_are_not_certificates():
    # chi vanishes for a unitary operator, but near the boundary the series
    # of weight * (K_w o phi_a) are still slow at the cap and undercount
    pts = kernel_condition_probe(_unitary_kernel_operator(0.9), hardy())
    slow = [p for p in pts if p.slow_decay]
    assert slow and all(p.order == KERNEL_PROBE_MAX_ORDER for p in slow)
    assert min(p.chi for p in slow) < -1e-8
    assert all(p.chi > -1e-8 for p in pts if not p.slow_decay)
    assert certified_min_chi(pts) > -1e-8
    assert certified_min_chi([p for p in pts if p.slow_decay]) is None


def _per_point_probe(op, space, w, order):
    """The kernel probe at one point through `taylor`: the reference for the
    batched probe."""
    expr = Product((op.weight, PrecomposeMoebius(kernel_expr(space, w), op.symbol)))
    m = order
    while True:
        s = taylor(expr, m).coeffs
        slow = bool(tail_diagnostics(s).slow_decay[0])
        if not slow or m >= KERNEL_PROBE_MAX_ORDER:
            break
        m *= 2
    lhs = float(np.sum(np.abs(s) ** 2 * space.basis_norms_sq(m)))
    rhs = abs(evaluate(op.weight, w)) ** 2 * kernel_norm_sq(space, op.symbol.apply(w))
    return lhs - rhs, lhs, m, slow


def _assert_batched_matches_per_point(op, space, grid, order):
    pts = kernel_condition_probe(op, space, grid, order=order)
    ref = [_per_point_probe(op, space, w, order) for w in grid]
    assert [(p.order, p.slow_decay) for p in pts] == [(m, slow) for _, _, m, slow in ref]
    chi = np.array([p.chi for p in pts])
    chi_ref = np.array([c for c, _, _, _ in ref])
    # relative to the terms chi is the difference of: chi vanishes for a unitary
    scale = max(np.max(np.abs(chi_ref)), max(lhs for _, lhs, _, _ in ref))
    assert np.max(np.abs(chi - chi_ref)) <= 1e-12 * scale
    return pts


def test_batched_kernel_probe_matches_per_point_path_s9_s10():
    # on the scenario spaces S9's and S10's operators are summed in closed
    # form, so their series path is held where the kernel exponent is no integer
    grid = default_kernel_grid()[::9]
    for sp in (bergman(0.5), bergman(1.5)):
        ops = [composition(AFFINE_HALF), composition(THREE_POINT)]
        for weight in (constant(1.0), Poly((1, -1)), kernel_expr(sp, 0.0)):
            ops.append(weighted(weight, AFFINE_HALF))
        # a weight whose series has full length
        ops.append(s8_operator(next(f for label, f, _, _ in S8_CASES if label == "f-exp")))
        for op in ops:
            pts = _assert_batched_matches_per_point(op, sp, grid, KERNEL_PROBE_ORDER)
            assert not any(p.exact for p in pts)
    # and on the scenario spaces, weights that are no polynomial
    for sp in ALL_SPACES:
        for op in (SADRAOUI, weighted(PSI_HALF, AFFINE_HALF)):
            pts = _assert_batched_matches_per_point(op, sp, grid, KERNEL_PROBE_ORDER)
            assert not any(p.exact for p in pts)


def test_kernel_probe_reads_the_weight_through_its_normal_form():
    # K_0 is the constant 1, so its operator is the composition, bit for bit
    for sp in ALL_SPACES:
        kernel = kernel_condition_probe(weighted(kernel_expr(sp, 0.0), AFFINE_HALF), sp)
        assert kernel == kernel_condition_probe(composition(AFFINE_HALF), sp)


def test_exact_kernel_probe_meets_rational_oracles_on_hardy():
    # chi(0) = ||1||^2 - ||K_(1/2)||^2 = 1 - 4/3 for C_(AFFINE_HALF); for
    # C_(THREE_POINT) at w = -1/2, K_w o phi = 2(z + 3)/(4z + 7) has squared
    # norm 1288/1617 and phi(-1/2) = 0, so chi = 1288/1617 - 1 = -47/231
    cases = ((composition(AFFINE_HALF), 0.0, -1 / 3), (composition(THREE_POINT), -0.5, -47 / 231))
    for op, w, chi in cases:
        (pt,) = kernel_condition_probe(op, hardy(), [w])
        assert pt.exact and not pt.slow_decay
        assert abs(pt.chi - chi) <= 1e-15 * abs(chi)


def test_exact_kernel_norms_bound_nothing_where_u_leaves_the_disk():
    # a map within the self-map tolerance can have the pole of K_w o phi in
    # the closed disk, |u| >= 1, at a w near the circle whose image phi(w)
    # is still inside it: the closed form has no bound there
    s, w = 1.0 + 4e-10, -(1.0 - 2e-10)
    phi = MoebiusMap(s, 0.8 * s, 0.8, 1.0)  # s (z + 0.8)/(1 + 0.8 z)
    assert abs(phi.apply(np.array([w]))[0]) < 1.0
    for sp in (hardy(), bergman(0.0)):
        _, bound = probes._exact_kernel_norms(Poly((1.0,)), phi, sp, np.array([0.5, w]))
        assert np.isfinite(bound[0]) and bound[1] == np.inf
        assert not kernel_condition_probe(composition(phi), sp, [w])[0].exact


def _assert_exact_matches_series(op, space, grid):
    """The closed-form points of the probe against the series path started
    at the cap, point by point, to 1e-12 of max(|chi|, ||A K_w||^2)."""
    ws = np.array(grid, dtype=complex)
    pts = kernel_condition_probe(op, space, grid)
    weight = eliminate_precompose(op.weight)
    phi = op.symbol
    lhs, _, slow = probes._series_kernel_norms(weight, phi, space, ws, KERNEL_PROBE_MAX_ORDER)
    rhs = np.abs(evaluate(weight, ws)) ** 2 * kernel_norm_sq(space, phi.apply(ws))
    for p, ref, s, r in zip(pts, lhs - rhs, slow, lhs):
        if p.exact and not s:
            assert abs(p.chi - ref) <= 1e-12 * max(abs(ref), r), (p, ref)
    return pts, slow


def test_exact_kernel_probe_matches_the_series_at_the_cap_s9_s10():
    grid = default_kernel_grid()
    for sp in THREE_SPACES:
        ops = [composition(m) for _, m in S9_SYMBOLS]
        ops += [weighted(w, AFFINE_HALF) for _, w in s10_weights(sp)]
        for op in ops:
            pts, slow = _assert_exact_matches_series(op, sp, grid)
            assert all(p.exact for p in pts) and not slow.any()


@st.composite
def self_maps(draw):
    """lam s (z - p)/(1 - conj(p) z) + q with s + |q| < 1, so |c/d| = |p| <= 0.8."""
    p = draw(disk_point(0.8))
    s = draw(st.floats(0.05, 0.95))
    q = draw(disk_point(0.95 * (1.0 - s)))
    lam = cmath.rect(1.0, draw(st.floats(0.0, 2 * math.pi)))
    return MoebiusMap(lam * s - q * p.conjugate(), q - lam * s * p, -p.conjugate(), 1.0)


complex_coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@example(  # c = conj(w) a at w = conj(c / a) = -0.56, and gamma = 3
    phi=MoebiusMap(0.9, -0.45, -0.5, 1.0), psi=[1, -1], sp=bergman(1.0), ws=[0.5, -0.3j, 0.7]
)
@given(
    phi=self_maps(),
    psi=st.lists(complex_coeff, min_size=1, max_size=4),
    sp=st.sampled_from((hardy(), bergman(0.0), bergman(1.0), bergman(2.0))),
    ws=st.lists(disk_point(0.9), min_size=3, max_size=3),
)
def test_exact_kernel_probe_matches_the_series_for_polynomial_weights(phi, psi, sp, ws):
    # gamma = 1, 2, 3, 4; w = 0, and the point where u = 0 (c = conj(w) a)
    # when it lies in the disk, are always on the grid
    u_zero = abs(phi.c) < 0.9 * abs(phi.a)
    grid = [0.0] + ws + ([(phi.c / phi.a).conjugate()] if u_zero else [])
    pts, _ = _assert_exact_matches_series(weighted(Poly(tuple(psi)), phi), sp, grid)
    if any(psi):
        assert pts[0].exact
        assert pts[-1].exact or not u_zero


def test_batched_kernel_probe_matches_per_point_path_with_doublings():
    grid = [default_kernel_grid()[i] for i in (0, 40, 68, 120)]
    pts = _assert_batched_matches_per_point(_unitary_kernel_operator(0.9), hardy(), grid, 32)
    assert [(p.order, p.slow_decay) for p in pts] == [
        (32, False),
        (512, False),
        (2048, False),
        (2048, True),
    ]
