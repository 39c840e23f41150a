import math

import numpy as np
import pytest

from hardyheat.constants import (
    ExponentBundle,
    ProblemSpec,
    Regime,
    classify_regime,
    exponents,
    exponents_from,
    lambda_max,
    mu_from_lambda,
    upsilon,
    upsilon_inv,
)


def test_lambda_max_classical_limits():
    # s = 1 closes onto the classical constant ((N-2)/2)^2
    assert lambda_max(4, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert lambda_max(3, 1.0) == pytest.approx(0.25, abs=1e-10)
    for dim in (3, 4, 5, 8):
        assert lambda_max(dim, 1.0) == pytest.approx(((dim - 2) / 2) ** 2, abs=1e-10)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_s_one_anchors_are_the_classical_constant_and_root(dim):
    # at s = 1 the Gamma quotient closes to the classical Hardy problem:
    # lambda_max is ((N-2)/2)^2 and upsilon(alpha) = ((N-2)/2)^2 - alpha^2,
    # so mu_from_lambda's bisection must land on the classical root, a
    # route independent of upsilon (2.9e-15 relative measured)
    half = (dim - 2) / 2
    assert lambda_max(dim, 1.0) == pytest.approx(half * half, rel=1e-13, abs=0.0)
    for frac in (0.1, 0.5, 0.9):
        lam = frac * half * half
        root = half - math.sqrt(half * half - lam)
        assert mu_from_lambda(lam, dim, 1.0) == pytest.approx(root, rel=1e-13, abs=0.0)


def test_lambda_max_direct_gamma_oracle():
    want = 2.0 * (math.gamma(0.75) / math.gamma(0.25)) ** 2
    assert lambda_max(2, 0.5) == pytest.approx(want, rel=1e-12)


def test_lambda_max_domain():
    with pytest.raises(ValueError):
        lambda_max(2, 1.0)  # needs dim > 2s
    with pytest.raises(ValueError):
        lambda_max(3, 1.6)


def test_upsilon_endpoints_and_monotonicity():
    for dim, s in ((2, 0.25), (3, 0.5), (4, 0.75)):
        lmax = lambda_max(dim, s)
        assert upsilon(0.0, dim, s) == pytest.approx(lmax, rel=1e-12)
        half = (dim - 2 * s) / 2
        alphas = np.linspace(0.0, half * (1 - 1e-9), 60)
        vals = [upsilon(a, dim, s) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # decays below any tolerance approaching the right endpoint
        assert vals[-1] < 1e-6 * lmax


def test_upsilon_direct_oracle():
    # (3, 0.5, alpha=0.5): direct Gamma evaluation, strict bounds
    got = upsilon(0.5, 3, 0.5)
    want = 2.0 * math.gamma(1.25) * math.gamma(0.75) / (math.gamma(0.25) * math.gamma(0.75))
    assert got == pytest.approx(want, rel=1e-12)
    assert 0.0 < got < lambda_max(3, 0.5)


def test_upsilon_nice_closed_form():
    # at (3, 1/2) the quotient collapses to alpha * cot(pi alpha / 2)
    for a in (0.1, 0.35, 0.8):
        want = a / math.tan(math.pi * a / 2.0)
        assert upsilon(a, 3, 0.5) == pytest.approx(want, rel=1e-11)


def test_upsilon_domain():
    with pytest.raises(ValueError):
        upsilon(-0.1, 3, 0.5)
    with pytest.raises(ValueError):
        upsilon(1.0, 3, 0.5)


def test_upsilon_inv_round_trip():
    for dim, s in ((2, 0.25), (3, 0.5), (4, 0.75)):
        lmax = lambda_max(dim, s)
        assert upsilon_inv(lmax, dim, s) == 0.0
        for lam in np.linspace(lmax / 50, lmax, 50):
            a = upsilon_inv(lam, dim, s)
            assert abs(upsilon(a, dim, s) - lam) <= 1e-10 * lmax
    with pytest.raises(ValueError):
        upsilon_inv(1.2 * lambda_max(3, 0.5), 3, 0.5)


def test_upsilon_inv_small_coupling_limit():
    # lam -> 0+ pushes the inverse to the right endpoint
    half = (3 - 1.0) / 2
    a = upsilon_inv(1e-9, 3, 0.5)
    assert a > half - 1e-3


def test_exponents_values():
    lam = 0.5 * lambda_max(3, 0.5)
    b = exponents(ProblemSpec(3, 0.5, lam, 2.0))
    assert b.fujita_F0 == pytest.approx(1.25, rel=1e-14)
    assert b.kappa_s == pytest.approx(1.0, rel=1e-12)  # s = 1/2
    assert b.mu == pytest.approx((3 - 1) / 2 - b.alpha, rel=1e-14)
    b.validate()


def test_exponents_boundary_limits():
    lmax = lambda_max(3, 0.5)
    b_hi = exponents_from(3, 0.5, lmax * (1 - 1e-12))
    half = (3 - 1.0) / 2
    assert b_hi.mu == pytest.approx(half, rel=1e-5)
    assert b_hi.p_plus == pytest.approx(1 + 1.0 / half, rel=1e-4)
    b_lo = exponents_from(3, 0.5, lmax * 1e-9)
    assert b_lo.mu < 1e-3
    assert b_lo.p_plus > 1e3
    assert b_lo.fujita_F == pytest.approx(b_lo.fujita_F0, rel=1e-3)


def test_exponents_ordering_matrix():
    for dim, s in ((2, 0.25), (3, 0.5), (4, 0.75)):
        lmax = lambda_max(dim, s)
        for frac in np.linspace(0.02, 0.98, 25):
            b = exponents_from(dim, s, frac * lmax)
            assert 1.0 < b.fujita_F0 < b.fujita_F < b.fujita_F_tilde < b.p_plus


def test_exponents_normalization_constant():
    # independent evaluation of the nonlocal-operator normalisation
    b = exponents_from(3, 0.5, 0.1)
    want = (
        2.0 ** (2 * 0.5 - 1)
        * math.pi ** (-1.5)
        * math.gamma((3 + 1) / 2)
        / abs(math.gamma(-0.5))
    )
    assert b.a_Ns == pytest.approx(want, rel=1e-12)


def test_classify_regime_bands():
    b = exponents_from(3, 0.5, 0.5 * lambda_max(3, 0.5))
    assert classify_regime(b.p_plus * 1.01, b) is Regime.NON_EXISTENCE
    assert classify_regime(0.5 * (b.fujita_F + b.p_plus), b) is Regime.CONDITIONAL_GLOBAL
    assert classify_regime(1.0 + 1e-6, b) is Regime.BLOW_UP
    assert classify_regime(b.fujita_F, b) is Regime.BLOW_UP  # closed upper end
    assert classify_regime(b.p_plus * (1 + 1e-14), b) is Regime.CRITICAL_OPEN
    with pytest.raises(ValueError):
        classify_regime(1.0, b)


def test_problem_spec_validation():
    lmax = lambda_max(3, 0.5)
    ProblemSpec(3, 0.5, 0.5 * lmax, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(1, 0.5, 0.1, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(3, 1.0, 0.1, 2.0)  # s strictly below 1
    with pytest.raises(ValueError):
        ProblemSpec(3, 0.5, lmax, 2.0)  # boundary coupling rejected
    with pytest.raises(ValueError):
        ProblemSpec(3, 0.5, 0.0, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(3, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(2, 0.9, 1.5 * lambda_max(2, 0.9), 2.0)
    ProblemSpec(2, 0.9, 0.5 * lambda_max(2, 0.9), 3.0)


def test_bundle_dict_round_trip():
    b = exponents_from(3, 0.5, 0.2)
    b2 = ExponentBundle.from_dict(b.to_dict())
    assert b2 == b
