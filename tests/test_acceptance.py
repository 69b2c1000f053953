"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Oracle-pinned thresholds come from the committed data/thresholds.json; the
analytic tolerances are stated inline.
"""

import time

import numpy as np

from wcolab.mobius import MoebiusMap, parabolic_from
from wcolab.opmat import (
    adjoint_block,
    build_block,
    composition,
    cowen_adjoint_word,
    operator_norm_estimate,
    plain,
    toeplitz,
    weighted,
    word_block,
)
from wcolab.probes import (
    certified_min_chi,
    hyponormality_probe,
    kernel_condition_probe,
    normality_defect,
    quasinormality_defect,
    unitary_defect,
)
from wcolab.scenarios import (
    AFFINE_HALF,
    ETA,
    HALF_SHIFT,
    HYPERBOLIC_AUTO,
    PSI_HALF,
    QUARTER_SHRINK,
    T_GRID,
    TAU,
    THREE_SPACES,
    ZETA_GRID,
    load_thresholds,
    run_all,
)
from wcolab.series import Exp, Poly, Product, constant
from wcolab.space import bergman, hardy, kernel_expr
from wcolab.spectra import DEFAULT_BETA_GRID, eigen_residual, spectral_radius_estimate

PARABOLIC_ONE = parabolic_from(1.0, 1.0)


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_adjoint_factorization():
    # worst residual <= 1e-6 at N=24 over three maps and three spaces
    budget_per_case = 5.0
    cases = (
        (HALF_SHIFT, 160),
        (QUARTER_SHRINK, 160),
        (PARABOLIC_ONE, 320),
    )
    worst = 0.0
    slowest = 0.0
    for sp in THREE_SPACES:
        for m, M in cases:
            start = time.perf_counter()
            direct = adjoint_block(build_block(composition(m), sp, 24, 24))
            word = word_block(cowen_adjoint_word(m, sp), sp, 24, M)
            resid = float(np.linalg.norm(direct.entries - word.entries, 2))
            elapsed = time.perf_counter() - start
            worst = max(worst, resid)
            slowest = max(slowest, elapsed)
    ok = worst <= 1e-6 and slowest <= budget_per_case
    report(
        1,
        ok,
        f"adjoint word residual {worst:.3e} (tol 1e-6), "
        f"slowest case {slowest:.2f}s (cap {budget_per_case:.0f}s)",
    )


def test_criterion_2_halfshift_adjoint_and_contraction():
    budget = 10.0
    start = time.perf_counter()
    sp = hardy()
    op = weighted(PSI_HALF, HALF_SHIFT)
    sigma = AFFINE_HALF
    adj = adjoint_block(build_block(op, sp, 24, 24))
    direct = build_block(composition(sigma), sp, 24, 24)
    resid = float(np.linalg.norm(adj.entries - direct.entries, 2))

    word = (plain(toeplitz(ETA)), plain(composition(TAU)))
    norms = [
        operator_norm_estimate(word_block(word, sp, n, max(160, 2 * n)))
        for n in (8, 16, 32)
    ]
    elapsed = time.perf_counter() - start
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    ok = (
        resid <= 1e-6
        and nondecreasing
        and 0.90 <= norms[-1] <= 1.0 + 1e-8
        and elapsed <= budget
    )
    report(
        2,
        ok,
        f"adjoint residual {resid:.3e} (tol 1e-6), contraction norms "
        f"{[f'{v:.6f}' for v in norms]} in [0.90, 1+1e-8], {elapsed:.2f}s (cap 10s)",
    )


def test_criterion_3_hyponormal_family_stays_positive():
    budget = 20.0
    start = time.perf_counter()
    sp = hardy()
    ops = (
        weighted(PSI_HALF, HALF_SHIFT),
        weighted(Product((Poly((2, 1)), PSI_HALF)), HALF_SHIFT),
        weighted(Product((Exp(Poly((0, 1))), PSI_HALF)), HALF_SHIFT),
    )
    worst = np.inf
    for op in ops:
        ev = hyponormality_probe(op, sp, 16, 320)
        worst = min(worst, ev.min_eig)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-6 and elapsed <= budget
    report(
        3,
        ok,
        f"smallest self-commutator eigenvalue {worst:.3e} (floor -1e-6), "
        f"{elapsed:.2f}s (cap 20s)",
    )


def test_criterion_4_quasinormal_defect_stable_above_committed_delta():
    data = load_thresholds()
    stab = data["stability"]["S8.hardy.f-exp"]
    delta = float(stab["delta"])
    sp = hardy()
    op = weighted(Product((Exp(Poly((0, 1))), PSI_HALF)), HALF_SHIFT)
    values = [quasinormality_defect(op, sp, n, 320) for n in (12, 16, 20, 24)]
    spread = max(values) / min(values)
    ok = all(v >= delta for v in values) and spread <= 1.10
    report(
        4,
        ok,
        f"defects {[f'{v:.4f}' for v in values]} all >= committed delta "
        f"{delta:.4f}, spread {100 * (spread - 1):.2f}% (cap 10%)",
    )


def test_criterion_5_rotations_quasinormal_halfshift_not():
    floors = load_thresholds()["quasinormal_floors"]
    lams = (1j, 0.5, np.exp(1j * np.pi * np.sqrt(2.0)))
    worst = 0.0
    for sp in THREE_SPACES:
        for lam in lams:
            op = composition(MoebiusMap(lam, 0, 0, 1))
            worst = max(worst, quasinormality_defect(op, sp, 12, 64))
            worst = max(worst, normality_defect(op, sp, 12, 64))
    contrast_ok = True
    for sp in THREE_SPACES:
        floor = floors[f"S5.{sp.label()}.half-shift"]["floor"]
        defect = quasinormality_defect(composition(HALF_SHIFT), sp, 16, 320)
        contrast_ok = contrast_ok and defect >= floor
    ok = worst <= 1e-12 and contrast_ok
    report(
        5,
        ok,
        f"rotation defects max {worst:.3e} (tol 1e-12), half-shift defect "
        f"clears its committed floor on every space: {contrast_ok}",
    )


def test_criterion_6_unitary_weighted_composition():
    worst = 0.0
    for sp in (hardy(), bergman(0.0)):
        g = sp.gamma
        weight = Product((constant(0.75 ** (g / 2.0)), kernel_expr(sp, -0.5)))
        worst = max(worst, unitary_defect(weighted(weight, HYPERBOLIC_AUTO), sp, 24, 200))
    ok = worst <= 1e-6
    report(6, ok, f"unitary defect {worst:.3e} at N=24 M=200 (tol 1e-6)")


def test_criterion_7_parabolic_eigenfunctions_and_gelfand():
    budget = 30.0
    start = time.perf_counter()
    worst = 0.0
    for zeta in ZETA_GRID:
        for t in T_GRID:
            for beta in DEFAULT_BETA_GRID:
                worst = max(worst, eigen_residual(zeta, t, beta, 400))
    seq = spectral_radius_estimate(composition(PARABOLIC_ONE), hardy(), 48, 24)
    radius = seq[-1]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and abs(radius - 1.0) <= 0.1 and elapsed <= budget
    report(
        7,
        ok,
        f"worst eigen residual {worst:.3e} (tol 1e-9), gelfand radius at k=24 "
        f"{radius:.4f} (within 0.1 of 1), {elapsed:.2f}s (cap 30s)",
    )


def test_criterion_8_affine_half_negative_certificates():
    ceilings = load_thresholds()["mineig_ceilings"]
    ok = True
    details = []
    for sp in (hardy(), bergman(0.0)):
        ceiling = ceilings[f"S9.{sp.label()}.affine-half"]["ceiling"]
        ev = hyponormality_probe(composition(AFFINE_HALF), sp, 16, 320)
        pts = kernel_condition_probe(composition(AFFINE_HALF), sp)
        minchi = certified_min_chi(pts)
        certified = minchi is not None and minchi < -1e-8
        ok = ok and ev.min_eig <= ceiling and ev.certificate and certified
        details.append(
            f"{sp.label()}: min_eig {ev.min_eig:.3f} <= {ceiling:.3f}, "
            f"certified min chi {minchi if minchi is None else f'{minchi:.3e}'}"
        )
    report(8, ok, "; ".join(details))


def test_criterion_9_parabolic_iterates_converge_uniformly():
    ok = True
    details = []
    for t in (1.0 + 0j, 1.0 + 1j):
        phi = parabolic_from(1.0, t)
        sups = []
        for n in range(1, 21):
            center, radius = phi.iterate(n).image_circle()
            sups.append(abs(center - 1.0) + radius)
        decreasing = all(x > y for x, y in zip(sups, sups[1:]))
        ok = ok and decreasing and sups[-1] < 0.2
        details.append(
            f"t={t:.0f}: strictly decreasing {decreasing}, final {sups[-1]:.4f}"
        )
    report(9, ok, "; ".join(details) + " (final < 0.2)")


def test_criterion_10_scenario_suite():
    budget = 180.0
    start = time.perf_counter()
    verdicts = {rep.scenario_id: rep.verdict for rep in run_all()}
    exploratory = verdicts.pop("S11-parabolic-kernel-weight")
    elapsed = time.perf_counter() - start
    all_pass = len(verdicts) == 10 and all(v == "PASS" for v in verdicts.values())
    ok = all_pass and exploratory == "REPORT" and elapsed <= budget
    report(
        10,
        ok,
        f"S1-S10 all PASS: {all_pass}, S11 verdict {exploratory}, "
        f"{elapsed:.1f}s (cap 180s)",
    )
