import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from hardyheat import supersolution
from hardyheat.constants import ProblemSpec, exponents_from, lambda_max, mu_from_lambda
from hardyheat.lattice import Field, Lattice, Nodes, make_lattice
from hardyheat.solver import gaussian_bump_forcing
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


def test_find_certificate_refusals(spec3, monkeypatch):
    b = exponents_from(spec3.dim, spec3.s, spec3.lam)
    with pytest.raises(ValueError):
        find_certificate(ProblemSpec(spec3.dim, spec3.s, spec3.lam, b.p_plus * 1.1))
    monkeypatch.setattr(supersolution, "MAX_LAMBDA_HALVINGS", 6)
    monkeypatch.setattr(supersolution, "MAX_EPS_HALVINGS", 6)
    with pytest.raises(SearchExhausted, match="within 6 x 6 halvings"):
        find_certificate(ProblemSpec(spec3.dim, spec3.s, spec3.lam, 1.05))


def test_data_bound(cert):
    lat = make_lattice(3, 6.0, 16, 0.0, 6.0, 16)
    assert data_bound(cert, Field(lat, np.zeros(lat.shape)))
    half = certified_forcing(cert, lat, fraction=0.5)
    assert data_bound(cert, half)
    half = half.full_grid()
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


def _on_every_node(cert, lat, fn):
    """fn(cert, |x|, t) on every node of every slice with t > 0; zero elsewhere."""
    causal = lat.causal_mask()
    vals = np.zeros(lat.shape)
    vals[causal] = fn(cert, lat.spatial_radius(), lat.t_axis()[causal].reshape(-1, 1, 1, 1))
    return vals


@pytest.mark.parametrize("L,M", [(6.0, 16), (8.0, 32)])
def test_radial_builders_are_born_on_the_orthant(cert, L, M):
    # the forcing and the trace are stored on the orthant, filled one slice
    # at a time, and their full grids are bitwise the formulas evaluated
    # on every node at once
    lat = make_lattice(3, L, M, 1.0, 6.0, 16)
    for fraction in (0.01, 0.5, 1.0):
        f = certified_forcing(cert, lat, fraction=fraction)
        assert f.orthant
        assert np.array_equal(f.full_grid().values, _on_every_node(cert, lat, forcing_envelope) * fraction)
    u = dominating_trace(cert, lat)
    assert u.orthant and np.array_equal(u.full_grid().values, _on_every_node(cert, lat, trace_value))


def test_radial_builders_form_no_full_grid_array(cert, monkeypatch):
    # with the full grid's radius refused, the three radial builders and
    # the data bound on their forcing still run, and each call's traced
    # peak stays below the bytes of one full-grid field
    def full_grid_radius(self):
        raise AssertionError("a builder read the full grid's radius")

    monkeypatch.setattr(Lattice, "spatial_radius", full_grid_radius)
    lat = make_lattice(3, 6.0, 32, 0.0, 6.0, 24)
    full_bytes = 8 * math.prod(lat.shape)
    calls = {
        "gaussian_bump_forcing": lambda: gaussian_bump_forcing(lat, 1.0),
        "certified_forcing": lambda: certified_forcing(cert, lat),
        "dominating_trace": lambda: dominating_trace(cert, lat),
        "data_bound": lambda: data_bound(cert, forcing),
    }
    forcing = certified_forcing(cert, lat)
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            assert out is True or out.orthant, name
            assert tracemalloc.get_traced_memory()[1] - base < full_bytes, name
            del out
    finally:
        tracemalloc.stop()


def test_radial_builders_peak_near_one_field(cert):
    # the builders fill one slice at a time and scale it into place: one
    # field and a few slices, where a whole-array broadcast and a scaled
    # copy take four fields
    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    field_bytes = 8 * math.prod(Nodes(lat, orthant=True).shape)
    certified_forcing(cert, lat)  # the cached radius
    for build in (lambda: certified_forcing(cert, lat, fraction=0.01), lambda: dominating_trace(cert, lat)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field_bytes


def test_build_w_supersol(cert):
    lat = make_lattice(3, 6.0, 16, 0.0, 6.0, 24)
    f0 = Field(lat, np.zeros(lat.shape))
    w0 = build_w_supersol(cert, f0)
    causal = lat.causal_mask()
    assert np.all(w0.values[~causal] == 0.0)
    assert np.all(w0.values[causal][1:] > 0.0)  # strictly positive once forced
    u = dominating_trace(cert, lat).full_grid()
    assert np.max(w0.values - u.values) <= 1e-8 * np.max(u.values)
    # a larger admissible forcing pushes the field up pointwise
    f_half = certified_forcing(cert, lat, fraction=0.5)
    f_full = certified_forcing(cert, lat, fraction=1.0)
    w_half = build_w_supersol(cert, f_half)
    w_full = build_w_supersol(cert, f_full)
    assert np.min(w_full.values - w_half.values) >= -1e-12 * np.max(w_full.values)
    with pytest.raises(ValueError):
        build_w_supersol(cert, Field(lat, 3.0 * f_full.full_grid().values))


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
        build_w_supersol(cert, Field(lat, np.zeros(lat.shape)))
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


# a key the certificate JSON lacks
MISSING = object()


@pytest.mark.parametrize(
    "key,value",
    [
        ("eps", math.nan),
        ("eps", -0.5),
        ("theta", math.nan),
        ("interior_margin", math.nan),
        ("boundary_min_gap", math.nan),
        ("delta1", math.nan),
        ("delta1", 1e9),
        ("phi_bound", 0.0),
        ("p", 1.0),
        ("xi_points", 1.5),
        pytest.param("extra", 1.0, id="unknown-key"),
        pytest.param("eps", MISSING, id="missing-key"),
        pytest.param(None, [1], id="not-an-object"),
    ],
)
def test_from_json_rejects_bad_stored_values(cert, key, value):
    # a NaN must fail every comparison, and delta1 (which scales the
    # certified forcing) and phi_bound are recomputed like the margins;
    # text that is not a certificate's object is a ValueError too
    d = json.loads(cert.to_json())
    if key is None:
        d = value
    elif value is MISSING:
        del d[key]
    else:
        d[key] = value
    with pytest.raises(ValueError):
        SupersolutionCertificate.from_json(json.dumps(d))
    # and the certificate's own JSON is strict
    if isinstance(value, float) and not math.isfinite(value):
        with pytest.raises(ValueError):
            dataclasses.replace(cert, **{key: value}).to_json()
