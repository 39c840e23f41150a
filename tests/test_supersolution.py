import json
import math

import numpy as np
import pytest

from hardyheat import supersolution
from hardyheat.constants import ProblemSpec, exponents_from, lambda_max, mu_from_lambda
from hardyheat.lattice import Field, make_lattice, zero_field
from hardyheat.supersolution import (
    ComparisonError,
    SearchExhausted,
    SupersolutionCertificate,
    boundary_gap,
    build_w_supersol,
    certified_forcing,
    data_bound,
    dominating_trace,
    find_certificate,
    forcing_envelope,
    interior_sign_margin,
    supersol_value,
    trace_value,
)


@pytest.fixture(scope="module")
def spec3():
    lam = 0.5 * lambda_max(3, 0.5)
    b = exponents_from(3, 0.5, lam)
    return ProblemSpec(3, 0.5, lam, 0.5 * (b.fujita_F + b.p_plus))


@pytest.fixture(scope="module")
def cert(spec3):
    return find_certificate(spec3)


def test_certificate_formulas(cert):
    mu1 = mu_from_lambda(cert.lambda1, cert.dim, cert.s)
    assert cert.theta == pytest.approx(cert.s / (cert.p - 1.0) - mu1 / 2.0, rel=1e-14)
    assert cert.interior_margin == pytest.approx(
        -cert.theta - mu1 + 0.5 * (cert.dim + 2.0 - 2.0 * cert.s), rel=1e-12
    )
    assert cert.interior_margin > 0.0
    assert cert.boundary_min_gap > 0.0
    assert cert.delta1 == pytest.approx((cert.lambda1 - cert.lam) / 2.0, rel=1e-14)
    # the found shift keeps p strictly inside its own band
    b1 = exponents_from(cert.dim, cert.s, cert.lambda1)
    assert b1.fujita_F < cert.p < b1.p_plus
    assert math.isfinite(cert.phi_bound) and cert.phi_bound > 0.0


def test_certificate_json_round_trip(cert):
    text = cert.to_json()
    again = SupersolutionCertificate.from_json(text)
    assert again.to_json() == text
    again.validate()


def test_interior_margin_sign_and_affinity(spec3):
    dim, s, lam = spec3.dim, spec3.s, spec3.lam
    lambda1 = lam * 1.05
    b1 = exponents_from(dim, s, lambda1)
    assert interior_sign_margin(dim, s, b1.fujita_F * 1.02, lambda1) > 0.0
    assert interior_sign_margin(dim, s, b1.fujita_F * 0.98, lambda1) < 0.0
    # affine in the decay rate: shifting theta by delta shifts the margin by -delta
    mu1 = b1.mu
    p = 0.5 * (b1.fujita_F + b1.p_plus)
    theta = s / (p - 1.0) - mu1 / 2.0
    margin = interior_sign_margin(dim, s, p, lambda1)
    direct = -(theta + 0.17) - mu1 + 0.5 * (dim + 2.0 - 2.0 * s)
    assert direct == pytest.approx(margin - 0.17, rel=1e-12)


def test_boundary_gap_cases(spec3):
    dim, s, lam = spec3.dim, spec3.s, spec3.lam
    lambda1 = lam * 1.1
    b1 = exponents_from(dim, s, lambda1)
    p = 0.5 * (b1.fujita_F + b1.p_plus)
    # eps small enough turns the gap positive
    gap_big, div0, dinf = boundary_gap(dim, s, lam, p, lambda1, eps=1.0)
    gap_small, _, _ = boundary_gap(dim, s, lam, p, lambda1, eps=1e-4)
    assert gap_small > max(0.0, gap_big)
    assert div0 and dinf
    # exactly critical p at lambda1: the left side is flat in |xi|
    p_crit = b1.p_plus
    gap_crit, div0_crit, _ = boundary_gap(dim, s, lam, p_crit, lambda1, eps=0.5)
    assert not div0_crit
    want = (lambda1 - lam) - 0.5 ** (p_crit - 1.0)  # max of the right side is at xi -> 0
    assert gap_crit == pytest.approx(want, rel=1e-6)
    # no coupling shift, no gap
    gap_zero, div0_zero, _ = boundary_gap(dim, s, lam, p, lam, eps=0.5)
    assert gap_zero < 0.0 and not div0_zero


def test_find_certificate_refusals(spec3):
    b = exponents_from(spec3.dim, spec3.s, spec3.lam)
    with pytest.raises(ValueError):
        find_certificate(ProblemSpec(spec3.dim, spec3.s, spec3.lam, b.p_plus * 1.1))
    with pytest.raises(SearchExhausted):
        find_certificate(
            ProblemSpec(spec3.dim, spec3.s, spec3.lam, 1.05),
            max_lambda_halvings=6,
            max_eps_halvings=6,
        )


def test_supersol_value_shape(cert):
    r = np.array([0.5, 1.0, 2.0])
    v1 = supersol_value(cert, r, 0.0, 0.0)
    # base trace at t = 0
    want = cert.eps * r ** (-cert.mu1) * np.exp(-r * r / 4.0)
    assert np.allclose(v1, want, rtol=1e-10)
    # linear in the amplitude
    import dataclasses

    cert2 = dataclasses.replace(cert, eps=2 * cert.eps, _profile=None)
    assert np.allclose(supersol_value(cert2, r, 0.3, 1.0), 2 * supersol_value(cert, r, 0.3, 1.0))
    # decay at infinity
    assert float(supersol_value(cert, 40.0, 0.0, 1.0)) < 1e-10 * float(
        supersol_value(cert, 1.0, 0.0, 1.0)
    )


def test_data_bound(cert):
    lat = make_lattice(3, 6.0, 16, 0.0, 6.0, 16)
    assert data_bound(cert, zero_field(lat))
    half = certified_forcing(cert, lat, fraction=0.5)
    assert data_bound(cert, half)
    over = half.values.copy()
    k = int(np.nonzero(lat.causal_mask())[0][2])
    idx = (k, 3, 3, 3)
    r = lat.spatial_radius()[3, 3, 3]
    over[idx] = 2.0 * float(forcing_envelope(cert, r, lat.t_axis()[k]))
    assert not data_bound(cert, Field(lat, over))
    # gaussian bump scaled under the envelope passes
    t_ax = lat.t_axis().reshape(-1, 1, 1, 1)
    rr = lat.spatial_radius()[None]
    bump = np.where(
        t_ax > 0,
        0.3 * forcing_envelope(cert, rr, np.maximum(t_ax, 0.0)) * np.exp(-rr),
        0.0,
    )
    assert data_bound(cert, Field(lat, bump))


def test_build_w_supersol(cert):
    lat = make_lattice(3, 6.0, 16, 0.0, 6.0, 24)
    f0 = zero_field(lat)
    w0 = build_w_supersol(cert, f0)
    causal = lat.causal_mask()
    assert np.all(w0.values[~causal] == 0.0)
    assert np.all(w0.values[causal][1:] > 0.0)  # strictly positive once forced
    u = dominating_trace(cert, lat)
    assert np.max(w0.values - u.values) <= 1e-8 * np.max(u.values)
    # a larger admissible forcing pushes the field up pointwise
    f_half = certified_forcing(cert, lat, fraction=0.5)
    f_full = certified_forcing(cert, lat, fraction=1.0)
    w_half = build_w_supersol(cert, f_half)
    w_full = build_w_supersol(cert, f_full)
    assert np.min(w_full.values - w_half.values) >= -1e-12 * np.max(w_full.values)
    with pytest.raises(ValueError):
        build_w_supersol(cert, Field(lat, 3.0 * f_full.values))


def test_build_w_supersol_checks_every_node(cert, monkeypatch):
    # the very-weak inequality broken at one node only: the inverse applied
    # to the field's own right-hand side (the second inverse call) is raised
    # there, at a node that a 1000-node random spot check seeded with 0
    # would not draw
    lat = make_lattice(3, 6.0, 16, 0.0, 6.0, 24)
    size = int(np.prod(lat.shape))
    drawn = set(np.random.default_rng(0).integers(0, size, 1000).tolist())
    node = next(i for i in range(size - 1, -1, -1) if i not in drawn)
    real_js = supersolution.apply_Js
    calls = []

    def js_raised_on_second_call(g, s):
        out = real_js(g, s)
        calls.append(g)
        if len(calls) < 2:
            return out
        vals = out.values.copy()
        vals.reshape(-1)[node] += np.max(vals)
        return Field(lat, vals)

    monkeypatch.setattr(supersolution, "apply_Js", js_raised_on_second_call)
    with pytest.raises(ComparisonError, match="very-weak"):
        build_w_supersol(cert, zero_field(lat))
    assert len(calls) == 2


def test_trace_value_matches_envelope_shape(cert):
    r = np.array([0.4, 1.3])
    t = 0.7
    u = trace_value(cert, r, t)
    env = forcing_envelope(cert, r, t)
    # same time decay and Gaussian factor; radial powers differ by 2s
    ratio = (u / env) * (cert.delta1 / cert.eps)
    assert np.allclose(ratio, r ** (2 * cert.s), rtol=1e-12)


@pytest.mark.parametrize("key,factor", [("eps", 1e3), ("boundary_min_gap", 2.0)])
def test_from_json_recomputes_the_margins(cert, key, factor):
    # a stored margin that is positive but no longer what the parameters
    # give must not load
    d = json.loads(cert.to_json())
    d[key] *= factor
    with pytest.raises(ValueError):
        SupersolutionCertificate.from_json(json.dumps(d))
