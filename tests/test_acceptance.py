"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Criteria 1, 2, 5, 6, 8, 9 and 10 read the reports of the one scenario run
that `tests/conftest.py` shares; criteria 3, 4 and 7 compute at orders that
no scenario runs, on the scenarios' own operators.  Oracle-pinned thresholds
come from the committed data/thresholds.json; the analytic tolerances are
stated inline.
"""

import time

import numpy as np

from wcolab.opmat import composition
from wcolab.probes import hyponormality_probe
from wcolab.scenarios import (
    PARABOLIC_ONE,
    S8_CASES,
    SADRAOUI,
    THREE_SPACES,
    load_thresholds,
    s8_exp_defects,
    s8_operator,
)
from wcolab.space import hardy
from wcolab.spectra import spectral_radius_estimate


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def reads(suite, sid, **orders):
    """The shared run's report of scenario sid, which ran at these orders."""
    rep = suite.reports[sid]
    assert {k: rep.orders[k] for k in orders} == orders, (sid, rep.orders)
    return rep


def test_criterion_1_adjoint_factorization(suite):
    # worst residual <= 1e-6 at N=24 over three maps and three spaces
    s1 = reads(suite, "S1", N=24)
    cases = [c for c in s1.checks if c.name.startswith("adjoint-residual.")]
    assert [c.details["M"] for c in cases] == [160, 160, 320] * 3
    worst = max(c.value for c in cases)
    ok = worst <= 1e-6 and s1.runtime_s <= 5.0
    report(
        1,
        ok,
        f"adjoint word residual {worst:.3e} (tol 1e-6), "
        f"S1 run {s1.runtime_s:.2f}s (cap 5s)",
    )


def test_criterion_2_halfshift_adjoint_and_contraction(suite):
    s7 = reads(suite, "S7", N=24, M=160)
    resid = s7.check("adjoint-is-composition-residual").value
    ns, norms = zip(*s7.check("contraction-norm-nondecreasing").details["norms"])
    assert ns == (8, 16, 32)
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    ok = (
        resid <= 1e-6
        and nondecreasing
        and 0.90 <= norms[-1] <= 1.0 + 1e-8
        and s7.runtime_s <= 10.0
    )
    report(
        2,
        ok,
        f"adjoint residual {resid:.3e} (tol 1e-6), contraction norms "
        f"{[f'{v:.6f}' for v in norms]} in [0.90, 1+1e-8], {s7.runtime_s:.2f}s (cap 10s)",
    )


def test_criterion_3_hyponormal_family_stays_positive():
    budget = 20.0
    start = time.perf_counter()
    sp = hardy()
    ops = (SADRAOUI,) + tuple(s8_operator(f) for _, f, _, _ in S8_CASES)
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
    values = list(s8_exp_defects().values())
    spread = max(values) / min(values)
    ok = all(v >= delta for v in values) and spread <= 1.10
    report(
        4,
        ok,
        f"defects {[f'{v:.4f}' for v in values]} all >= committed delta "
        f"{delta:.4f}, spread {100 * (spread - 1):.2f}% (cap 10%)",
    )


def test_criterion_5_rotations_quasinormal_halfshift_not(suite):
    floors = load_thresholds()["quasinormal_floors"]
    s5 = reads(suite, "S5", N=12, M=64, N_halfshift=16, M_halfshift=320)
    rotations = [c.value for c in s5.checks if ".lam-" in c.name]
    assert len(rotations) == 18
    worst = max(rotations)
    contrast_ok = True
    for sp in THREE_SPACES:
        floor = floors[f"S5.{sp.label()}.half-shift"]["floor"]
        defect = s5.check(f"quasinormal-defect.{sp.label()}.half-shift").value
        contrast_ok = contrast_ok and defect >= floor
    ok = worst <= 1e-12 and contrast_ok
    report(
        5,
        ok,
        f"rotation defects max {worst:.3e} (tol 1e-12), half-shift defect "
        f"clears its committed floor on every space: {contrast_ok}",
    )


def test_criterion_6_unitary_weighted_composition(suite):
    s6 = reads(suite, "S6", N=24, M=200)
    worst = max(s6.check(f"unitary-defect.{label}").value for label in ("hardy", "bergman:0"))
    ok = worst <= 1e-6
    report(6, ok, f"unitary defect {worst:.3e} at N=24 M=200 (tol 1e-6)")


def test_criterion_7_parabolic_eigenfunctions_and_gelfand(suite):
    s2 = reads(suite, "S2", M=400)
    worst = s2.check("eigen-residual-worst").value
    start = time.perf_counter()
    seq = spectral_radius_estimate(composition(PARABOLIC_ONE), hardy(), 48, 24)
    radius = seq[-1]
    elapsed = s2.runtime_s + time.perf_counter() - start
    ok = worst <= 1e-9 and abs(radius - 1.0) <= 0.1 and elapsed <= 30.0
    report(
        7,
        ok,
        f"worst eigen residual {worst:.3e} (tol 1e-9), gelfand radius at k=24 "
        f"{radius:.4f} (within 0.1 of 1), {elapsed:.2f}s (cap 30s)",
    )


def test_criterion_8_affine_half_negative_certificates(suite):
    ceilings = load_thresholds()["mineig_ceilings"]
    s9 = reads(suite, "S9", N=16, M=320)
    ok = True
    details = []
    for label in ("hardy", "bergman:0"):
        ceiling = ceilings[f"S9.{label}.affine-half"]["ceiling"]
        ev = s9.check(f"selfcommutator-min-eig.{label}.affine-half")
        minchi = s9.check(f"kernel-witness-min-chi.{label}.affine-half").value
        certified = minchi is not None and minchi < -1e-8
        ok = ok and ev.value <= ceiling and ev.details["certificate"] and certified
        details.append(
            f"{label}: min_eig {ev.value:.3f} <= {ceiling:.3f}, "
            f"certified min chi {minchi if minchi is None else f'{minchi:.3e}'}"
        )
    report(8, ok, "; ".join(details))


def test_criterion_9_parabolic_iterates_converge_uniformly(suite):
    s3 = reads(suite, "S3", steps=20)
    ok = True
    details = []
    for label in ("t=1+0j", "t=1+1j"):
        decreasing = s3.check(f"sup-distance-strictly-decreasing.{label}").value
        final = s3.check(f"sup-distance-final.{label}").value
        ok = ok and decreasing and final < 0.2
        details.append(f"{label}: strictly decreasing {decreasing}, final {final:.4f}")
    report(9, ok, "; ".join(details) + " (final < 0.2)")


def test_criterion_10_scenario_suite(suite):
    verdicts = {sid: rep.verdict for sid, rep in suite.reports.items()}
    exploratory = verdicts.pop("S11")
    all_pass = len(verdicts) == 10 and all(v == "PASS" for v in verdicts.values())
    ok = all_pass and exploratory == "REPORT" and suite.wall_s <= 180.0
    report(
        10,
        ok,
        f"S1-S10 all PASS: {all_pass}, S11 verdict {exploratory}, "
        f"{suite.wall_s:.1f}s (cap 180s)",
    )
