import numpy as np
import pytest

from hardyheat.constants import exponents_from, lambda_max
from hardyheat.extension import (
    PhiProfile,
    extend_parabolic,
    extension_checks,
    neumann_estimate,
)
from hardyheat.lattice import make_lattice, sample, zero_field


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 8.0, 64, 1.5, 4.5, 48)


@pytest.fixture(scope="module")
def datum(lat):
    return sample(
        lambda t, x, y: np.exp(-(x * x + y * y) / 2.5 - (t - 1.6) ** 2 / 0.4), lat
    )


def test_zero_extends_to_zero(lat):
    ext = extend_parabolic(zero_field(lat), 0.5, [1e-2, 0.1])
    for vals in ext.values():
        assert np.all(vals == 0.0)


def test_extension_rejects_bad_level(lat):
    with pytest.raises(ValueError):
        extend_parabolic(zero_field(lat), 0.5, [0.0])


def test_trace_and_neumann(datum):
    s = 0.5
    b = exponents_from(2, s, 0.5 * lambda_max(2, s))
    trace_err, neumann_err = extension_checks(datum, s, b.kappa_s)
    assert trace_err <= 2e-2
    assert neumann_err <= 5e-2


def test_neumann_estimate_exact_on_pure_power():
    # the one-sided rule in the y^(2s) variable reproduces a pure y^(2s)
    # boundary layer exactly
    s = 0.3
    base = np.array([[2.0]])
    c = -0.7
    w1 = base + c * 0.01 ** (2 * s)
    w2 = base + c * 0.02 ** (2 * s)
    est = neumann_estimate(w1, w2, 0.01, 0.02, s)
    assert est[0, 0] == pytest.approx(-2 * s * c, rel=1e-12)


def test_profile_trace_homogeneity_euler():
    lam = 0.5 * lambda_max(2, 0.5)
    prof = PhiProfile(lam, 2, 0.5)
    rng = np.random.default_rng(3)
    r = rng.uniform(0.2, 3.0, 8)
    assert np.allclose(prof.value(r, np.zeros_like(r)), r ** (-prof.mu))
    # scaling by 2 with the exact exponent, within 1%
    v1 = prof.value(2.0 * 0.9, 2.0 * 0.5)
    v0 = prof.value(0.9, 0.5)
    assert float(v1) * 2.0 ** prof.mu == pytest.approx(float(v0), rel=1e-2)
    assert prof.homogeneity_error(rng) <= 1e-2
    assert prof.euler_error(rng) <= 2e-2


def test_profile_two_sided_power_bounds():
    lam = 0.7 * lambda_max(2, 0.5)
    prof = PhiProfile(lam, 2, 0.5)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.1, 4.0, 30)
    y = rng.uniform(0.01, 4.0, 30)
    z = np.sqrt(r * r + y * y)
    ratio = prof.value(r, y) * z ** prof.mu
    assert np.all(ratio > 0)
    assert np.max(ratio) / np.min(ratio) < 10.0
