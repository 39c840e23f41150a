import math

import numpy as np
import pytest

from hardyheat import extension
from hardyheat.constants import exponents_from, lambda_max
from hardyheat.extension import (
    PhiProfile,
    extend_parabolic,
    extension_checks,
    neumann_estimate,
)
from hardyheat.kernels import heat_semigroup
from hardyheat.lattice import Field, make_lattice, sample
from hardyheat.special import gamma_fn, gauss_legendre_panels, geometric_edges


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 8.0, 64, 1.5, 4.5, 48)


@pytest.fixture(scope="module")
def datum(lat):
    return sample(
        lambda t, x, y: np.exp(-(x * x + y * y) / 2.5 - (t - 1.6) ** 2 / 0.4), lat
    )


def test_zero_extends_to_zero(lat):
    ext = extend_parabolic(Field(lat, np.zeros(lat.shape)), 0.5, [1e-2, 0.1])
    for vals in ext.values():
        assert np.all(vals == 0.0)


def test_extension_rejects_bad_level(lat, monkeypatch):
    # every level is checked before the first one is computed
    def fail(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(extension, "_lag_table", fail)
    for levels in ([0.0], [1e-2, 0.0], [1e-2, -1.0], [float("nan")]):
        with pytest.raises(ValueError, match="levels must be positive"):
            extend_parabolic(Field(lat, np.zeros(lat.shape)), 0.5, levels)


def _shift_quadratic(vals, steps):
    """vals(., t - steps * ht) by 3-point Lagrange interpolation slice by
    slice (the one lag on a whole number of steps); slices outside the
    window (either side) count as zero."""
    K = vals.shape[0]
    m = math.floor(steps)
    f = steps - m
    rule = ((m - 1, 0.5 * f * (f - 1.0)), (m, 1.0 - f * f), (m + 1, 0.5 * f * (f + 1.0)))
    out = np.zeros_like(vals)
    for lag, wgt in rule:
        if lag < K and wgt != 0.0:
            out[max(lag, 0):K + min(lag, 0)] += wgt * vals[max(-lag, 0):K - max(lag, 0)]
    return out


def _extend_per_node(w, s, y_levels):
    """extend_parabolic written out node by node: each tau shifts the field
    in time and smooths it in space."""
    lat = w.lattice
    span = lat.T + lat.T_neg
    out = {}
    for y in y_levels:
        nodes, wts = gauss_legendre_panels(geometric_edges(y * y / 160.0, span, 1.4), 6)
        pref = y ** (2.0 * s) / (4.0 ** s * gamma_fn(s))
        acc = np.zeros(lat.shape)
        for tq, wq in zip(nodes, wts):
            smoothed = heat_semigroup(_shift_quadratic(w.values, tq / lat.ht), lat, tq)
            acc += pref * wq * tq ** (-1.0 - s) * math.exp(-y * y / (4.0 * tq)) * smoothed
        out[y] = acc
    return out


@pytest.mark.parametrize("dims", [(2, 4.0, 16, 0.5, 1.5, 8), (3, 4.0, 16, 0.5, 1.5, 8)])
def test_extension_matches_per_node_loop(dims):
    lat = make_lattice(*dims)
    rng = np.random.default_rng(23)
    w = Field(lat, rng.standard_normal(lat.shape))
    levels = [1e-2, 0.3]
    got = extend_parabolic(w, 0.4, levels)
    want = _extend_per_node(w, 0.4, levels)
    assert list(got) == levels
    for y in levels:
        assert np.max(np.abs(got[y] - want[y])) <= 1e-12 * np.max(np.abs(want[y]))


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
