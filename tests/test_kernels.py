import math

import numpy as np
import pytest

from hardyheat.constants import frac_laplacian_constant, lambda_max, mu_from_lambda, upsilon
from hardyheat.kernels import (
    AliasingError,
    NonCausalInput,
    _js_spectrum,
    apply_Hs_spectral,
    apply_Js,
    apply_Ls,
    ground_state_residual,
    heat_kernel_multiplier,
    heat_positive,
    heat_semigroup,
    heat_symbol,
    hs_pointwise_oracle,
    radial_identity_error,
    radial_power_flap,
    symbol_of_kernel_check,
    truncated_power_field,
)
from hardyheat.lattice import Field, make_lattice, sample, zero_field
from hardyheat.special import gamma_fn, smooth_step


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 8.0, 64, 1.5, 4.5, 64)


@pytest.fixture(scope="module")
def gaussian(lat):
    return sample(
        lambda t, x, y: np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35), lat
    )


def test_symbol_branch():
    lat = make_lattice(2, 4.0, 16, 1.0, 1.0, 16)
    sym = heat_symbol(lat, 0.5)
    # the rfftn half grid: space first, time last with theta index 0..K/2
    assert sym.shape == (lat.M, lat.M, lat.K // 2 + 1)
    assert np.all(sym.real >= -1e-14)
    mod = np.abs(sym)
    th = lat.theta_axis()[: lat.K // 2 + 1]
    want = (th ** 2 + lat.xi_squared()[..., None] ** 2) ** 0.25
    assert np.max(np.abs(mod - want)) <= 1e-12 * np.max(want)


def test_hs_time_constant_is_slicewise_multiplier():
    lat = make_lattice(2, 8.0, 64, 2.0, 6.0, 16)
    w = sample(lambda t, x, y: np.exp(-(x * x + y * y)) + 0.0 * t, lat)
    out = apply_Hs_spectral(w, 0.5, pad_space=1, pad_time=1)
    direct = np.fft.ifftn(np.fft.fftn(w.values[0]) * lat.xi_squared() ** 0.5).real
    assert np.max(np.abs(out.values[5] - direct)) <= 1e-12


def test_hs_s1_matches_finite_differences():
    lat = make_lattice(2, 8.0, 64, 8.0, 8.0, 128)
    phi = sample(lambda t, x, y: np.exp(-(x * x + y * y) / 2 - t * t / 2), lat)
    out = apply_Hs_spectral(phi, 1.0, pad_space=1, pad_time=1)
    v = phi.values
    dt = np.zeros_like(v)
    dt[1:-1] = (v[2:] - v[:-2]) / (2 * lat.ht)
    lap = (
        np.roll(v, 1, 1) + np.roll(v, -1, 1) + np.roll(v, 1, 2) + np.roll(v, -1, 2) - 4 * v
    ) / lat.hx ** 2
    fd = dt - lap
    err = np.max(np.abs(out.values[5:-5] - fd[5:-5])) / np.max(np.abs(out.values))
    assert err <= 4.0 * lat.hx ** 2


def test_hs_linearity(lat):
    a = sample(lambda t, x, y: np.exp(-(x - 1) ** 2 - y * y - (t - 1.2) ** 2 / 0.3), lat)
    b = sample(lambda t, x, y: np.exp(-x * x - (y + 1) ** 2 - (t - 1.8) ** 2 / 0.3), lat)
    s = 0.6
    lin = apply_Hs_spectral(Field(lat, 2 * a.values - 3 * b.values), s).values
    sep = 2 * apply_Hs_spectral(a, s).values - 3 * apply_Hs_spectral(b, s).values
    assert np.max(np.abs(lin - sep)) <= 1e-12 * np.max(np.abs(sep))


def test_hs_pointwise_oracle_agrees(gaussian):
    lat = gaussian.lattice
    s = 0.5
    spectral = apply_Hs_spectral(gaussian, s)
    pts = [(1.6, 0.4, 0.2), (2.0, -0.8, 0.6), (1.2, 0.0, -1.1)]

    def fn(t, x, y):
        return np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35)

    oracle = hs_pointwise_oracle(fn, pts, s, 2)
    for (t0, x0, y0), want in zip(pts, oracle):
        k = int(np.argmin(np.abs(lat.t_axis() - t0)))
        i = int(np.argmin(np.abs(lat.x_axis() - x0)))
        j = int(np.argmin(np.abs(lat.x_axis() - y0)))
        got = spectral.values[k, i, j]
        # grid nodes sit up to half a cell from the requested points
        assert got == pytest.approx(want, abs=5e-2 * np.max(np.abs(spectral.values)))


def test_hs_aliasing_guard(lat):
    # a field with an edge kink must trip the residue check
    rough = sample(lambda t, x, y: np.exp(-0.01 * (x * x + y * y) - 0.01 * t * t), lat)
    with pytest.raises(AliasingError):
        apply_Hs_spectral(rough, 0.5, pad_space=1, pad_time=1)


def _hs_complex(values, lat, s, pad_space, pad_time):
    """The operator through complex FFTs on the full grid, time first:
    (real part, max |imaginary part|) on the window."""
    big = np.zeros((pad_time * lat.K,) + (pad_space * lat.M,) * lat.dim, dtype=complex)
    off = (pad_space - 1) * lat.M // 2
    window = (slice(0, lat.K),) + (slice(off, off + lat.M),) * lat.dim
    big[window] = values
    theta = lat.theta_axis(pad_time).reshape((-1,) + (1,) * lat.dim)
    symbol = (1j * theta + lat.xi_squared(pad_space)) ** s
    out = np.fft.ifftn(np.fft.fftn(big) * symbol)[window]
    return out.real, float(np.max(np.abs(out.imag)))


def _off_node_bump(lat):
    # the time centre sits off the grid's symmetry points, so the data has
    # a time-Nyquist part (about 1e-11 of the output) that a wrong half
    # spectrum would mishandle
    return sample(
        lambda t, *xs: (1.0 + 0.3 * xs[0]) * np.exp(-sum(x * x for x in xs) - (t - 1.3) ** 2 / 0.3),
        lat,
    )


@pytest.mark.parametrize("dim,M", [(2, 32), (3, 8)])
@pytest.mark.parametrize("pads", [(2, 4), (1, 2), (1, 1)])
def test_hs_matches_complex_fft_reference(dim, M, pads):
    lat = make_lattice(dim, 6.0, M, 1.5, 4.5, 32)
    fld = _off_node_bump(lat)
    want, resid = _hs_complex(fld.values, lat, 0.5, *pads)
    assert 1e-13 * np.max(np.abs(want)) < resid < 1e-10 * np.max(np.abs(want))
    got = apply_Hs_spectral(fld, 0.5, *pads).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("pad_time", [1, 2])
def test_hs_aliasing_residue_matches_complex(lat, pad_time):
    rough = sample(lambda t, x, y: np.exp(-0.01 * (x * x + y * y) - 0.01 * t * t), lat)
    _, want = _hs_complex(rough.values, lat, 0.5, 1, pad_time)
    with pytest.raises(AliasingError) as exc:
        apply_Hs_spectral(rough, 0.5, pad_space=1, pad_time=pad_time)
    got = float(str(exc.value).split()[2])
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "smoother,multiplier",
    [
        (heat_semigroup, lambda lat, tau: np.exp(-tau * lat.xi_squared())),
        (heat_positive, heat_kernel_multiplier),
    ],
)
def test_smoothers_match_complex_fft_reference(dim, smoother, multiplier):
    lat = make_lattice(dim, 4.0, 16, 1.0, 3.0, 8)
    rng = np.random.default_rng(7)
    tau = 0.3 * lat.hx ** 2
    # batched as extend_parabolic calls them, and one bare slice as apply_Ls
    for values in (rng.standard_normal((2,) + lat.shape), rng.standard_normal((lat.M,) * dim)):
        axes = tuple(range(values.ndim - dim, values.ndim))
        spec = np.fft.fftn(values, axes=axes) * multiplier(lat, tau)
        want = np.fft.ifftn(spec, axes=axes).real
        got = smoother(values, lat, tau)
        assert got.shape == values.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_js_zero_and_step_oracle():
    lat = make_lattice(2, 4.0, 8, 2.0, 6.0, 64)
    assert np.all(apply_Js(zero_field(lat), 0.5).values == 0.0)
    step = sample(lambda t, x, y: 1.0 * (t > 0) + 0.0 * x + 0.0 * y, lat)
    tax = lat.t_axis()
    m = tax > 0.2
    for s in (0.3, 0.5, 0.7):
        got = apply_Js(step, s).values[m, 4, 4]
        want = tax[m] ** s / gamma_fn(s + 1.0)
        assert np.max(np.abs(got - want) / want) <= 5e-3


def test_js_positive_monotone_causal():
    lat = make_lattice(2, 6.0, 32, 1.0, 5.0, 48)
    rng = np.random.default_rng(11)
    mask = lat.causal_mask()[:, None, None]
    g1 = Field(lat, np.abs(rng.standard_normal(lat.shape)) * mask)
    g2 = Field(lat, g1.values + np.abs(rng.standard_normal(lat.shape)) * mask)
    j1 = apply_Js(g1, 0.4)
    j2 = apply_Js(g2, 0.4)
    scale = np.max(j2.values)
    assert np.min(j1.values) >= -1e-13 * scale
    assert np.min(j2.values - j1.values) >= -1e-13 * scale
    assert np.all(j1.values[~lat.causal_mask()] == 0.0)


def test_js_rejects_non_causal():
    lat = make_lattice(2, 6.0, 32, 2.0, 4.0, 32)
    bad = sample(lambda t, x, y: np.exp(-x * x - y * y - t * t), lat)
    with pytest.raises(NonCausalInput):
        apply_Js(bad, 0.5)


def test_js_inverts_hs(gaussian):
    for s in (0.3, 0.5, 0.7):
        h = apply_Hs_spectral(gaussian, s, pad_space=2, pad_time=2)
        j = apply_Js(h, s, causal_tol=0.05)
        err = np.max(np.abs(j.values - gaussian.values)) / np.max(np.abs(gaussian.values))
        assert err <= 1e-2


def test_js_semigroup(lat):
    g = sample(
        lambda t, x, y: smooth_step((t - 0.25) / 0.5)
        * (1.0 - smooth_step((t - 1.25) / 0.5))
        * np.exp(-(x * x + y * y)),
        lat,
    )
    j_direct = apply_Js(g, 0.5)
    j_split = apply_Js(apply_Js(g, 0.2), 0.3)
    err = np.max(np.abs(j_split.values - j_direct.values)) / np.max(np.abs(j_direct.values))
    assert err <= 1e-2


def _volterra_direct(g: np.ndarray, lat, s: float, refine: int) -> np.ndarray:
    """O(K^2) product-integration sum, slab by slab in physical space.

    Slab [j ht, (j+1) ht] contributes its endpoint weights at lags j and
    j + 1, lag m smoothing with the one-slab positive kernel applied m times.
    The first slab is replaced by `refine` sub-slabs acting on the source
    interpolated linearly between lags 0 and 1.
    """
    K, ht = lat.K, lat.ht

    def endpoint_weights(a, b):
        m0 = (b ** s - a ** s) / s
        m1 = (b ** (s + 1.0) - a ** (s + 1.0)) / (s + 1.0)
        return (b * m0 - m1) / (b - a) / gamma_fn(s), (m1 - a * m0) / (b - a) / gamma_fn(s)

    smoothed = [g]  # smoothed[m] = (one-slab smoothing)^m applied to every slice
    for _ in range(K):
        smoothed.append(heat_positive(smoothed[-1], lat, ht))
    out = np.zeros_like(g)
    for k in range(K):
        for j in range(1, K):
            w_left, w_right = endpoint_weights(j * ht, (j + 1) * ht)
            if k - j >= 0:
                out[k] += w_left * smoothed[j][k - j]
            if k - j - 1 >= 0:
                out[k] += w_right * smoothed[j + 1][k - j - 1]
        previous = g[k - 1] if k >= 1 else np.zeros_like(g[k])
        for r in range(refine):
            a, b = r * ht / refine, (r + 1) * ht / refine
            for tau, wgt in zip((a, b), endpoint_weights(a, b)):
                src = (1.0 - tau / ht) * g[k] + (tau / ht) * previous
                out[k] += wgt * (heat_positive(src, lat, tau) if tau > 0 else src)
    out[~lat.causal_mask()] = 0.0
    return out


@pytest.mark.parametrize("s,refine", [(0.5, 4), (0.3, 1), (0.8, 3)])
def test_js_matches_direct_volterra_sum(s, refine):
    lat = make_lattice(2, 4.0, 16, 1.2, 3.0, 14)
    rng = np.random.default_rng(3)
    g = rng.random(lat.shape) * lat.causal_mask()[:, None, None]
    got = apply_Js(Field(lat, g), s, first_slab_refine=refine).values
    want = _volterra_direct(g, lat, s, refine)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_js_spectrum_cached_per_key():
    lat = make_lattice(2, 3.7, 16, 0.5, 2.0, 12)
    g = Field(lat, np.ones(lat.shape) * lat.causal_mask()[:, None, None])
    assert _js_spectrum.cache_parameters()["maxsize"] == 4
    before = _js_spectrum.cache_info()
    first = apply_Js(g, 0.45).values
    after_first = _js_spectrum.cache_info()
    assert after_first.misses == before.misses + 1
    second = apply_Js(g, 0.45).values
    assert _js_spectrum.cache_info().hits == after_first.hits + 1
    assert np.array_equal(first, second)
    # every other key gets an entry of its own
    other_lat = make_lattice(2, 3.7, 16, 0.5, 2.0, 16)
    g_other = Field(other_lat, np.ones(other_lat.shape) * other_lat.causal_mask()[:, None, None])
    for call in (
        lambda: apply_Js(g, 0.55),
        lambda: apply_Js(g, 0.45, first_slab_refine=2),
        lambda: apply_Js(g_other, 0.45),
    ):
        misses = _js_spectrum.cache_info().misses
        call()
        assert _js_spectrum.cache_info().misses == misses + 1


def test_js_spectrum_read_only_and_sized():
    lat = make_lattice(3, 4.0, 8, 0.0, 2.0, 10)
    spec = _js_spectrum(lat, 0.5, 4)
    assert spec.shape == (2 * lat.K, lat.M, lat.M, lat.M // 2 + 1)
    assert spec.dtype == np.complex128
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0, 0, 0, 0] = 1.0


def test_js_output_exactly_zero_on_past():
    lat = make_lattice(3, 4.0, 8, 1.0, 2.0, 12)
    rng = np.random.default_rng(5)
    past = ~lat.causal_mask()
    g = rng.random(lat.shape)
    g[past] *= 1e-10  # below causal_tol: accepted, then zeroed
    fld = Field(lat, g)
    out = apply_Js(fld, 0.6).values
    assert past.any() and np.all(out[past] == 0.0)
    assert np.all(out[~past] > 0.0)
    # the zeroing happens on a copy: the input keeps its leak
    assert np.array_equal(fld.values, g)


def test_symbol_of_kernel_closed_form_substitution():
    # at xi = 0, theta = 1 the closed form is 2^N pi^(N/2) Gamma(s) i^(-1/2)
    s, dim = 0.5, 2
    val = 2.0 ** dim * math.pi ** (dim / 2) * gamma_fn(s) * (1j) ** (-s)
    want = 2.0 ** dim * math.pi ** (dim / 2) * gamma_fn(s) * np.exp(-1j * math.pi / 4)
    assert val == pytest.approx(want, rel=1e-12)


def test_symbol_of_kernel_check_accuracy_and_trend():
    err = symbol_of_kernel_check(0.5, dim=2)
    assert err <= 1e-3
    err_small = symbol_of_kernel_check(0.5, dim=2, tau_max=6.0, u_half=4.0, u_pts=512)
    assert err_small > err


def test_ls_negative_outside_support():
    # kernel positivity: where the field vanishes, the operator sees only
    # the mass elsewhere and comes out non-positive (order-preserving path)
    lat = make_lattice(2, 8.0, 64, 1.0, 5.0, 32)
    lam = 0.5 * lambda_max(2, 0.5)
    bump = sample(
        lambda t, x, y: np.maximum(0.0, 1.0 - (x * x + y * y)) ** 3
        * np.exp(-(t - 1.5) ** 2 / 0.3),
        lat,
    )
    out = apply_Ls(bump, lam, 0.5, order_preserving=True)
    r = lat.spatial_radius()
    far = r > 3.0
    k = lat.K // 2
    assert np.max(out.values[k][far]) <= 1e-12 * np.max(np.abs(out.values))
    assert np.min(out.values[k][far]) < 0.0


def test_ls_oracle_single_point():
    # independent direct quadrature in self-similar coordinates
    lam = 0.5 * lambda_max(2, 0.5)
    s = 0.5
    mu = mu_from_lambda(lam, 2, s)
    lat = make_lattice(2, 8.0, 64, 1.5, 4.5, 48)

    def phifn(t, x, y):
        return np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35)

    def psifn(t, x, y):
        return (x * x + y * y) ** (mu / 2) * phifn(t, x, y)

    psi = sample(psifn, lat)
    out = apply_Ls(psi, lam, s)
    k, i, j = 24, 30, 30
    x0, y0, t0 = lat.x_axis()[i], lat.x_axis()[j], lat.t_axis()[k]

    from hardyheat.special import gamma_abs_neg, gauss_legendre_panels, geometric_edges, smoothed_power

    u = np.linspace(-12, 12, 400)
    du = u[1] - u[0]
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    gw = np.exp(-(U1 ** 2 + U2 ** 2) / 4) / (4 * np.pi) * du * du
    here = psifn(t0, x0, y0)
    r0 = math.hypot(x0, y0)
    nodes, wts = gauss_legendre_panels(geometric_edges(1e-8, 3000.0, 1.25), 8)
    acc = 0.0
    for tq, wq in zip(nodes, wts):
        sq = math.sqrt(tq)
        yy1, yy2 = x0 - sq * U1, y0 - sq * U2
        q = np.sum(gw * np.sqrt(yy1 ** 2 + yy2 ** 2) ** (-mu) * psifn(t0 - tq, yy1, yy2))
        acc += wq * tq ** (-1 - s) * (here * float(smoothed_power(r0, tq, 2, mu)) - q)
    acc += float(smoothed_power(r0, 3000.0, 2, mu)) * 3000.0 ** (-s) / (s + mu / 2) * here
    oracle = acc / gamma_abs_neg(s)
    assert out.values[k, i, j] == pytest.approx(oracle, rel=2e-2)


def test_ground_state_residual_and_refinement():
    lam = 0.5 * lambda_max(2, 0.5)
    residuals = {}
    for M in (64, 128):
        lat = make_lattice(2, 8.0, M, 1.5, 4.5, 48)
        phi = sample(
            lambda t, x, y: np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35), lat
        )
        residuals[M] = ground_state_residual(phi, lam, 0.5)
    assert residuals[128] <= 5e-2
    assert residuals[128] < residuals[64]


def test_ground_state_small_coupling_limit():
    # as the coupling vanishes the conjugation trivialises; the identity
    # must still close
    lam = 1e-3 * lambda_max(2, 0.5)
    lat = make_lattice(2, 8.0, 64, 1.5, 4.5, 48)
    phi = sample(
        lambda t, x, y: np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35), lat
    )
    assert ground_state_residual(phi, lam, 0.5) <= 5e-2


def test_radial_power_flap_endpoint_and_round_trip():
    dim, s = 2, 0.5
    half = (dim - 2 * s) / 2
    # the endpoint exponent carries the maximal coupling
    flap = radial_power_flap(half, dim, s)
    assert flap.lam == pytest.approx(lambda_max(dim, s), rel=1e-12)
    assert flap(2.0) == pytest.approx(flap.lam * 2.0 ** (-2 * s - half), rel=1e-12)
    mu = 0.3 * half
    flap2 = radial_power_flap(mu, dim, s)
    assert upsilon(half - mu, dim, s) == pytest.approx(flap2.lam, rel=1e-12)
    assert flap2(2.0) == pytest.approx(flap2.lam * 2.0 ** (-2 * s - mu), rel=1e-12)
    with pytest.raises(ValueError):
        radial_power_flap(half * 1.5, dim, s)


def test_radial_identity_on_annulus():
    lat = make_lattice(2, 12.0, 128, 0.5, 0.5, 8)
    lam = 0.5 * lambda_max(2, 0.5)
    assert radial_identity_error(lat, lam, 0.5, pad_space=4) <= 5e-2


def test_truncated_power_field_blend():
    lat = make_lattice(2, 8.0, 64, 0.5, 0.5, 8)
    fld = truncated_power_field(lat, 0.3)
    r = lat.spatial_radius()
    inner = r < 0.6 * lat.L
    outer = r > 0.82 * lat.L
    assert np.allclose(fld.values[0][inner], r[inner] ** -0.3)
    assert np.all(fld.values[0][outer] == 0.0)


def test_frac_laplacian_constant_value():
    # standard normalisation for dim 1, s = 1/2 equals 1/pi
    assert frac_laplacian_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_hs_adjoint_identity():
    lat = make_lattice(2, 8.0, 64, 4.0, 4.0, 48)
    phi = sample(lambda t, x, y: np.exp(-(x - 0.5) ** 2 - y * y - (t - 0.3) ** 2 / 0.4), lat)
    psi = sample(lambda t, x, y: np.exp(-x * x - (y + 0.4) ** 2 - (t + 0.2) ** 2 / 0.4), lat)
    s = 0.5
    vol = lat.cell_volume * lat.ht
    flip = (slice(None, None, -1),) * 3
    lhs = float(np.sum(apply_Hs_spectral(phi, s).values * psi.values) * vol)
    rhs = float(
        np.sum(phi.values[flip] * apply_Hs_spectral(Field(lat, psi.values[flip]), s).values)
        * vol
    )
    assert lhs == pytest.approx(rhs, rel=1e-8)
