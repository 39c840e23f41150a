"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one pass/fail line (visible under `pytest -s`). Tolerances
are frozen here; nothing is deferred to later calibration.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hardyheat.constants import (
    ProblemSpec,
    exponents_from,
    lambda_max,
    upsilon,
    upsilon_inv,
)
from hardyheat.lattice import make_lattice
from hardyheat.solver import (
    VERDICT_CONVERGED,
    VERDICT_ESCAPE,
    gaussian_bump_forcing,
    initial_state,
    iterate,
    run,
)
from hardyheat.supersolution import certified_forcing, dominating_trace, find_certificate
from hardyheat.verifier import VerifierConfig, run_check, run_suite


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_exponent_engine():
    t0 = time.monotonic()
    ok = abs(lambda_max(4, 1.0) - 1.0) <= 1e-10
    ok &= abs(lambda_max(3, 1.0) - 0.25) <= 1e-10
    worst_rt = 0.0
    ordering = True
    for dim, s in ((2, 0.25), (3, 0.5), (4, 0.75)):
        lmax = lambda_max(dim, s)
        for lam in np.linspace(lmax / 50, lmax, 50):
            alpha = upsilon_inv(lam, dim, s)
            worst_rt = max(worst_rt, abs(upsilon(alpha, dim, s) - lam) / lmax)
            b = exponents_from(dim, s, lam * (1 - 1e-13))
            ordering &= b.fujita_F0 < b.fujita_F < b.fujita_F_tilde < b.p_plus
    ok &= worst_rt <= 1e-10 and ordering
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(1, "exponent engine", ok,
            f"round-trip {worst_rt:.2e}, ordering {ordering}, {elapsed:.2f}s")


# Criteria 2-5 and 7 run the verifier checks of the same name on these
# pinned inputs; the tolerances stay pinned here, against the checks' margins.
PINNED = VerifierConfig(dim=2, s=0.5, lam_frac=0.5, L=8.0, M=64, T_neg=1.5, T=4.5, K=48)


def test_criterion_02_symbol_identity():
    t0 = time.monotonic()
    worst = max(
        run_check("symbol", replace(PINNED, s=s)).worst_margin for s in (0.3, 0.5, 0.7)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(2, "kernel symbol identity", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_inversion_and_semigroup():
    t0 = time.monotonic()
    inv_err = run_check("inversion", PINNED).worst_margin  # on a 64^2 x 64 lattice
    semi_err = run_check("semigroup", PINNED).worst_margin
    elapsed = time.monotonic() - t0
    ok = inv_err <= 1e-2 and semi_err <= 1e-2 and elapsed < 120.0
    _report(3, "inversion and semigroup", ok,
            f"inversion {inv_err:.2e}, semigroup {semi_err:.2e}, {elapsed:.1f}s")


def test_criterion_04_ground_state_identity():
    res = {M: run_check("ground_state", replace(PINNED, M=M)).worst_margin for M in (64, 128)}
    ok = res[128] <= 5e-2 and res[128] < res[64]
    _report(4, "ground-state identity", ok,
            f"residual M=128: {res[128]:.3f}, M=64: {res[64]:.3f}")


def test_criterion_05_elliptic_radial_identity():
    err = run_check("radial_flap", PINNED).worst_margin  # 128^2 x 8, L = 12
    ok = err <= 5e-2
    _report(5, "elliptic radial identity", ok, f"annulus rel err {err:.3f}")


def test_criterion_06_verifier_suite():
    t0 = time.monotonic()
    ids = [
        "hardy",
        "kato",
        "algebra_ab",
        "algebra_abs",
        "radial_K",
        "adjoint",
        "muckenhoupt",
        "picone",
        "ls_bound",
    ]
    reports = run_suite(ids, VerifierConfig(seed=0, n_samples=20))
    failures = [r.check_id for r in reports if not r.passed]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    _report(6, "verifier battery", ok,
            f"{len(reports)} checks, failures {failures or 'none'}, {elapsed:.0f}s")


def test_criterion_07_extension():
    rep = run_check("extension", PINNED)
    trace_err, neumann_err = rep.params["trace_err"], rep.params["neumann_err"]
    ok = trace_err <= 2e-2 and neumann_err <= 5e-2
    _report(7, "parabolic extension", ok,
            f"trace {trace_err:.3f} (<=0.02), neumann {neumann_err:.3f} (<=0.05)")


def test_criterion_08_monotone_scheme():
    lat = make_lattice(2, 6.0, 32, 0.0, 6.0, 48)
    spec = ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 2.0)
    f = gaussian_bump_forcing(lat, 0.5)
    st = initial_state(f, spec)
    worst_drop = 0.0
    causal_ok = bool(np.all(st.w.values[~lat.causal_mask()] == 0.0))
    for _ in range(5):
        prev = st
        st = iterate(st, f, spec)
        scale = max(float(np.max(st.w.values)), 1e-300)
        worst_drop = max(worst_drop, -float(np.min(st.w.values - prev.w.values)) / scale)
        causal_ok &= bool(np.all(st.w.values[~lat.causal_mask()] == 0.0))
    ok = worst_drop <= 1e-12 and causal_ok
    _report(8, "monotone scheme", ok,
            f"worst relative drop {worst_drop:.2e}, causality exact {causal_ok}")


def test_criterion_09_fujita_dichotomy():
    lam = 0.5 * lambda_max(3, 0.5)
    b = exponents_from(3, 0.5, lam)
    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)

    p_blow = 0.5 * (1.0 + b.fujita_F)
    rep_blow = run(
        ProblemSpec(3, 0.5, lam, p_blow), gaussian_bump_forcing(lat, 1.0), max_n=64
    )
    blow_ok = rep_blow.verdict == VERDICT_ESCAPE and rep_blow.growth_factor >= 10.0

    p_mid = 0.5 * (b.fujita_F + b.p_plus)
    spec = ProblemSpec(3, 0.5, lam, p_mid)
    cert = find_certificate(spec)
    f = certified_forcing(cert, lat, fraction=0.01)
    rep_cond = run(spec, f, max_n=64, dominator=dominating_trace(cert, lat))
    cond_ok = (
        rep_cond.verdict == VERDICT_CONVERGED and rep_cond.dominator_violations == 0
    )
    ok = blow_ok and cond_ok
    _report(9, "fujita dichotomy", ok,
            f"blow-up: {rep_blow.verdict} growth {rep_blow.growth_factor:.1f}; "
            f"conditional: {rep_cond.verdict} n={rep_cond.n_final} "
            f"violations {rep_cond.dominator_violations}")


def test_criterion_10_certificate():
    t0 = time.monotonic()
    lam = 0.5 * lambda_max(3, 0.5)
    b = exponents_from(3, 0.5, lam)
    spec = ProblemSpec(3, 0.5, lam, 0.5 * (b.fujita_F + b.p_plus))
    cert = find_certificate(spec)
    elapsed = time.monotonic() - t0
    ok = (
        cert.interior_margin > 0.0
        and cert.boundary_min_gap > 0.0
        and cert.xi_points == 400
        and elapsed < 30.0
    )
    _report(10, "supersolution certificate", ok,
            f"margin {cert.interior_margin:.3f}, gap {cert.boundary_min_gap:.2e}, "
            f"{elapsed:.2f}s")
