import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hardyheat import kernels, lattice
from hardyheat.constants import frac_laplacian_constant, lambda_max, mu_from_lambda, upsilon
from hardyheat.kernels import (
    AliasingError,
    NonCausalInput,
    QuadratureError,
    _dct_pair,
    _js_kernel,
    _lag_table,
    _linear_weights,
    apply_Hs_spectral,
    apply_Js,
    apply_Ls,
    ground_state_residual,
    heat_kernel_multiplier,
    heat_positive,
    heat_semigroup,
    heat_symbol,
    radial_identity_error,
    radial_power_flap,
    symbol_of_kernel_check,
    truncated_power_field,
)
from hardyheat.lattice import Field, block_slices, make_lattice, sample
from hardyheat.special import (
    gamma_abs_neg,
    gamma_fn,
    gauss_legendre_panels,
    geometric_edges,
    smooth_step,
    smoothed_power,
)


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
    # the folded half grid: spatial indices 0..M/2, time last with theta index 0..K/2
    assert sym.shape == (lat.M // 2 + 1, lat.M // 2 + 1, lat.K // 2 + 1)
    assert np.all(sym.real >= -1e-14)
    mod = np.abs(sym)
    th = lat.theta_axis()[: lat.K // 2 + 1]
    corner = lat.xi_squared()[: lat.M // 2 + 1, : lat.M // 2 + 1]
    want = (th ** 2 + corner[..., None] ** 2) ** 0.25
    assert np.max(np.abs(mod - want)) <= 1e-12 * np.max(want)


def _hs_dense(fld, s, pad_space, pad_time):
    """The operator as one dense real transform: the whole zero-embedded
    array through rfftn, the symbol on the full padded grid, and irfftn."""
    lat = fld.lattice
    big = np.zeros((pad_space * lat.M,) * lat.dim + (pad_time * lat.K,))
    off = (pad_space - 1) * lat.M // 2
    sl = (slice(off, off + lat.M),) * lat.dim + (slice(0, lat.K),)
    big[sl] = np.moveaxis(fld.values, 0, -1)
    spec = np.fft.rfftn(big)
    theta = lat.theta_axis(pad_time)[: pad_time * lat.K // 2 + 1]
    spec *= (1j * theta + lat.xi_squared(pad_space)[..., None]) ** s
    space = tuple(range(lat.dim))
    out = np.fft.irfftn(spec, s=big.shape, axes=space + (lat.dim,))[sl]
    return np.moveaxis(out, -1, 0)


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 32), (3, 8)])
@pytest.mark.parametrize("pads", [(2, 4), (2, 2), (1, 1), (4, 1)])
def test_hs_bitwise_matches_dense_transform(dim, M, pads):
    # the pruned transforms and the folded symbol change no bit of the output
    lat = make_lattice(dim, 6.0, M, 1.5, 4.5, 32)
    fld = _off_node_bump(lat)
    for s in (0.3, 0.5):
        assert np.array_equal(apply_Hs_spectral(fld, s, *pads).values, _hs_dense(fld, s, *pads))


@pytest.mark.parametrize("dim,M,K,pads,planes", [
    (2, 32, 33, (2, 3), 4),  # odd padded time length (no Nyquist plane), 50 planes
    (1, 64, 33, (1, 1), 4),  # the same, 17 planes
    (2, 32, 32, (2, 4), 3),  # 65 planes
    (3, 8, 32, (2, 4), 1),   # one plane per block
])
def test_hs_blocks_bitwise_match_dense_transform(monkeypatch, dim, M, K, pads, planes):
    # the spatial transforms and the symbol run on blocks of frequency
    # planes (the first three cases end on a ragged block), and the time
    # inverse on blocks of rows, with no bit changed
    lat = make_lattice(dim, 6.0, M, 1.5, 4.5, K)
    plane = 2 * (pads[0] * M) ** dim
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", planes * 8 * plane)
    assert block_slices(plane) == planes
    fld = _off_node_bump(lat)
    for s in (0.3, 0.5):
        assert np.array_equal(apply_Hs_spectral(fld, s, *pads).values, _hs_dense(fld, s, *pads))


def test_hs_peak_memory_within_three_quarters_of_a_half_spectrum():
    # only the window rows' time spectrum is whole: the padded spatial
    # transforms hold one block of frequency planes
    import tracemalloc

    lat = make_lattice(2, 8.0, 64, 1.5, 4.5, 48)
    fld = sample(lambda t, x, y: np.exp(-(x * x + y * y) - (t - 1.3) ** 2 / 0.3), lat)
    apply_Hs_spectral(fld, 0.5)  # fill the lattice's |xi|^2 cache
    half_spectrum = (2 * lat.M) ** 2 * (4 * lat.K // 2 + 1) * 16
    tracemalloc.start()
    try:
        apply_Hs_spectral(fld, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * half_spectrum


@pytest.mark.parametrize("s", [-0.5, 0.0, 1.5, float("nan"), float("inf")])
def test_hs_rejects_order_outside_unit_interval(gaussian, s):
    with pytest.raises(ValueError, match="0 < s <= 1"):
        apply_Hs_spectral(gaussian, s)


@pytest.mark.parametrize("pads", [(0, 4), (2, 0), (-1, 1), (1.5, 1), (2, 2.0), (True, 1), ("2", 1)])
def test_hs_rejects_bad_padding(gaussian, pads):
    with pytest.raises(ValueError, match="positive integers"):
        apply_Hs_spectral(gaussian, 0.5, *pads)


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


def _hs_pointwise_oracle(fn, points, s, dim):
    """Direct quadrature of the semigroup form of the operator at a handful
    of points; fn(t, x1, .., xd) is a closed-form sample. Quadratic cost, so
    only intended for <= ~100 points.
    """
    tau_min = 1e-7
    u1 = np.linspace(-10.0, 10.0, 64)
    du = u1[1] - u1[0]
    grids = np.meshgrid(*([u1] * dim), indexing="ij")
    gweight = np.exp(-0.25 * sum(g * g for g in grids)) * du ** dim / (4.0 * math.pi) ** (dim / 2.0)
    nodes, wts = gauss_legendre_panels(geometric_edges(tau_min, 200.0, 1.5), 6)
    out = []
    for pt in points:
        t0, xs0 = pt[0], np.asarray(pt[1:], dtype=float)
        here = float(fn(t0, *xs0))
        # the difference vanishes like O(tau) at 0, so [0, tau_min] is negligible
        acc = 0.0
        for tq, wq in zip(nodes, wts):
            shifted = [xs0[d] - math.sqrt(tq) * grids[d] for d in range(dim)]
            smoothed = float(np.sum(gweight * fn(t0 - tq, *shifted)))
            acc += wq * tq ** (-1.0 - s) * (here - smoothed)
        out.append(acc / gamma_abs_neg(s))
    return np.asarray(out)


def test_hs_pointwise_oracle_agrees(gaussian):
    lat = gaussian.lattice
    s = 0.5
    spectral = apply_Hs_spectral(gaussian, s)
    pts = [(1.6, 0.4, 0.2), (2.0, -0.8, 0.6), (1.2, 0.0, -1.1)]

    def fn(t, x, y):
        return np.exp(-(x * x + y * y) / 1.5 - (t - 1.5) ** 2 / 0.35)

    oracle = _hs_pointwise_oracle(fn, pts, s, 2)
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


@pytest.mark.parametrize("K", [33, 32])
def test_hs_time_nyquist_residue_only_for_even_length(K):
    # white in time, Gaussian in space: the time-Nyquist mode is large, but
    # an odd padded time length has no Nyquist plane and no residue
    lat = make_lattice(2, 6.0, 32, 1.5, 4.5, K)
    noise = np.random.default_rng(3).standard_normal(K)[:, None, None]
    fld = Field(lat, noise * np.exp(-lat.spatial_radius() ** 2))
    want, resid = _hs_complex(fld.values, lat, 0.5, 1, 1)
    if K % 2:
        assert resid <= 1e-14 * np.max(np.abs(want))
        got = apply_Hs_spectral(fld, 0.5, pad_space=1, pad_time=1).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    else:
        with pytest.raises(AliasingError):
            apply_Hs_spectral(fld, 0.5, pad_space=1, pad_time=1)


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
    # batched over slices, and one bare slice
    for values in (rng.standard_normal((2,) + lat.shape), rng.standard_normal((lat.M,) * dim)):
        axes = tuple(range(values.ndim - dim, values.ndim))
        spec = np.fft.fftn(values, axes=axes) * multiplier(lat, tau)
        want = np.fft.ifftn(spec, axes=axes).real
        got = smoother(values, lat, tau)
        assert got.shape == values.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_js_zero_and_step_oracle():
    lat = make_lattice(2, 4.0, 8, 2.0, 6.0, 64)
    assert np.all(apply_Js(Field(lat, np.zeros(lat.shape)), 0.5).values == 0.0)
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


def _mirrored(orthant: np.ndarray, dim: int) -> np.ndarray:
    """The field exactly even in every spatial axis whose positive orthant
    (time first) is orthant."""
    for ax in range(1, dim + 1):
        orthant = np.concatenate([np.flip(orthant, ax), orthant], axis=ax)
    return orthant


def _one_odd_axis(lat, rng):
    """A random field odd in the first spatial axis and even in the others."""
    even = _mirrored(rng.random((lat.K,) + (lat.M // 2,) * lat.dim), lat.dim)
    return even * np.sign(lat.x_axis()).reshape((-1,) + (1,) * (lat.dim - 1))


@pytest.mark.parametrize("s", [0.5, 0.3, 0.8])
def test_js_matches_direct_volterra_sum(s):
    # every parity mix: random (2^N parts), exactly even (one part), even x
    # odd, exactly odd in 1-D, and random in 1-D and 3-D
    rng = np.random.default_rng(3)
    lat2 = make_lattice(2, 4.0, 16, 1.2, 3.0, 14)
    lat1 = make_lattice(1, 4.0, 16, 1.2, 3.0, 14)
    lat3 = make_lattice(3, 4.0, 8, 1.2, 3.0, 14)
    half = lat2.M // 2
    cases = [
        (lat2, rng.random(lat2.shape)),
        (lat2, _mirrored(rng.random((lat2.K, half, half)), 2)),
        (lat2, _one_odd_axis(lat2, rng)),
        (lat1, _one_odd_axis(lat1, rng)),
        (lat1, rng.random(lat1.shape)),
        (lat3, rng.random(lat3.shape)),
    ]
    for lat, g in cases:
        g *= lat.causal_mask().reshape((-1,) + (1,) * lat.dim)
        got = apply_Js(Field(lat, g), s).values
        want = _volterra_direct(g, lat, s, 4)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dct2_pair_matches_cosine_sum():
    rng = np.random.default_rng(8)
    for n in (4, 8, 32):
        x = rng.standard_normal((3, n, 5))
        j = np.arange(n)
        cosines = 2.0 * np.cos(np.pi * np.outer(j, 2 * j + 1) / (2 * n))
        want = np.einsum("kj,ajb->akb", cosines, x)
        forward, inverse = _dct_pair(n, False)
        got = np.empty_like(x)
        kernels._spatial_transform(x, [forward], got)
        assert np.max(np.abs(got - want)) <= 1e-14 * n * np.max(np.abs(want))
        kernels._spatial_transform(got, [inverse], got)  # in place
        assert np.max(np.abs(got - x)) <= 1e-14 * n


def test_dct2_of_alternated_samples_is_the_sine_sum():
    # the odd axis's forward matrix is the DCT-II of (-1)^j x, the DST-II of
    # x in reverse: position m holds sine mode n - m,
    # 2 sum_j x_j sin(pi k (2j+1) / 2n) for k = 1..n; its inverse matrix
    # returns the samples themselves
    rng = np.random.default_rng(9)
    for n in (4, 8, 32):
        x = rng.standard_normal((3, n, 5))
        j = np.arange(n)
        k = n - j
        sines = 2.0 * np.sin(np.pi * np.outer(k, 2 * j + 1) / (2 * n))
        want = np.einsum("mj,ajb->amb", sines, x)
        forward, inverse = _dct_pair(n, True)
        got = np.empty_like(x)
        kernels._spatial_transform(x, [forward], got)
        assert np.max(np.abs(got - want)) <= 1e-14 * n * np.max(np.abs(want))
        kernels._spatial_transform(got, [inverse], got)  # in place
        assert np.max(np.abs(got - x)) <= 1e-14 * n


def _batched(mat, c, ax):
    """mat applied along axis ax of c as one batch of products over the
    whole array, into a fresh array."""
    if ax == c.ndim - 1:
        return c @ mat.T
    return np.moveaxis(mat @ np.moveaxis(c, ax, -2), -2, ax)


def _js_time_first(part, odd, lat, kernel):
    """The orthant convolution with its spatial transforms batched over the
    whole part, one fresh array per axis, and its lag sum run once over the
    whole part under a block budget that holds it all; the slices at
    t <= 0 count as zero."""
    half = lat.M // 2
    pairs = [_dct_pair(half, o) for o in odd]
    c = part
    for ax, (forward, _) in enumerate(pairs, 1):
        c = _batched(forward, c, ax)
    c[~lat.causal_mask()] = 0.0
    budget = lattice._BLOCK_BYTES
    lattice._BLOCK_BYTES = 8 * c.size
    try:
        kernels._lag_sum(c.reshape(lat.K, -1), kernel, kernels._lane_plan(kernel, lat, tuple(odd)))
    finally:
        lattice._BLOCK_BYTES = budget
    for ax, (_, inverse) in enumerate(pairs, 1):
        c = _batched(inverse, c, ax)
    return c


def _parity_classes(lat, odd):
    """The class of each lane of a parity part's time-first buffer."""
    half = lat.M // 2
    index = kernels._js_classes(half + 1, lat.dim)
    return index[tuple(slice(half, 0, -1) if o else slice(0, half) for o in odd)].ravel()


def _memory_lanes(kernel, cls):
    """The counts of a parity part's lanes with long memory, with a band
    past lag 1, and with lags 0 and 1 alone."""
    long = np.isin(cls, kernel.long)
    banded = np.any(kernel.lags[2:3] != 0.0, axis=0)[cls]  # a band starts at lag 2
    return (int(np.count_nonzero(long)), int(np.count_nonzero(banded)),
            int(np.count_nonzero(~long & ~banded)))


@pytest.mark.parametrize("dim,M,T_neg", [(1, 16, 0.0), (2, 16, 1.0), (3, 16, 0.0), (3, 16, 1.0)])
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_js_blocks_bitwise_match_time_first(monkeypatch, dim, M, T_neg, rows):
    # the blocks change no bit of the output, whether a budget holds the
    # whole part (the default here), 3 time slices of it, or 7 slices with
    # a ragged last block of 3 (K = 24): the same budgets set the lag
    # sum's groups of slices and the spatial transforms' blocks. The
    # lattice has lanes of every memory: long, banded and lags 0 and 1
    lat = make_lattice(dim, 1.5, M, T_neg, 3.0, 24)
    half = lat.M // 2
    if rows is not None:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", (2 * rows + 1) * 8 * half ** dim)
        assert block_slices(half ** dim) == 2 * rows + 1
    rng = np.random.default_rng(24)
    s = 0.4
    kernel = _js_kernel(lat, s)
    part = rng.random((lat.K,) + (half,) * dim)
    for odd in itertools.product((False, True), repeat=dim):
        assert min(_memory_lanes(kernel, _parity_classes(lat, odd))) > 0
        got = kernels._js_on_orthant(part, odd, lat, kernel)
        assert np.array_equal(got, _js_time_first(part, odd, lat, kernel))
    # the whole inverse, every parity part of a full-grid input
    g = rng.random(lat.shape) * lat.causal_mask().reshape((-1,) + (1,) * dim)
    got = apply_Js(Field(lat, g), s).values
    monkeypatch.setattr(kernels, "_js_on_orthant", _js_time_first)
    assert np.array_equal(got, apply_Js(Field(lat, g), s).values)


@pytest.mark.parametrize("gemm_lanes", [1, 4, 7])
def test_js_toeplitz_chunks_bitwise_match_any_budget(monkeypatch, gemm_lanes):
    # the long-memory lanes go through the Toeplitz GEMMs in fixed chunks
    # of gemm_lanes lanes, a block's last chunk padded with copies: a
    # lane's output is the same bits whether its block holds every lane
    # (and chunks of other lanes) or half of gemm_lanes (its chunk then
    # mostly copies)
    lat = make_lattice(3, 1.5, 16, 1.0, 3.0, 24)
    monkeypatch.setattr(kernels, "_GEMM_VOLUME", gemm_lanes * lat.K ** 2)
    kernel = _js_kernel(lat, 0.4)
    part = np.random.default_rng(33).random((lat.K,) + (lat.M // 2,) * 3)
    parities = [(False,) * 3, (True, False, True)]
    want = [_js_time_first(part, odd, lat, kernel) for odd in parities]
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * lat.K * gemm_lanes)
    assert block_slices(lat.K * gemm_lanes) == 1
    for odd, w in zip(parities, want):
        n_long = _memory_lanes(kernel, _parity_classes(lat, odd))[0]
        assert n_long > gemm_lanes and (n_long % gemm_lanes or gemm_lanes == 1)
        assert np.array_equal(kernels._js_on_orthant(part, odd, lat, kernel), w)


def _full_lag_table(lat, s):
    """The untruncated lag kernel of every mode class, shape (K, classes):
    w0, w1, and a_m d^m at every lag m >= 2."""
    d, w0, w1, a = kernels._js_weights(lat, s)
    table = a[:, None] * np.power(d, np.arange(lat.K, dtype=float)[:, None])
    table[0], table[1] = w0, w1
    return table


def _transformed_part(lat, odd, rng):
    """A random causal parity part after the forward spatial transform,
    the past zeroed: the lanes the lag sum gets, time first."""
    half = lat.M // 2
    part = rng.random((lat.K,) + (half,) * lat.dim)
    c = np.empty_like(part)
    kernels._spatial_transform(part, [_dct_pair(half, o)[0] for o in odd], c)
    c[~lat.causal_mask()] = 0.0
    return c.reshape(lat.K, -1)


@pytest.mark.parametrize("dim,M,L,T,K", [(1, 64, 6.0, 8.0, 48), (2, 16, 1.5, 3.0, 24), (3, 16, 1.5, 3.0, 24)])
def test_lag_sum_bitwise_independent_of_the_block_budget(monkeypatch, dim, M, L, T, K):
    # blocks of one lane, of 7 and of every lane tile the lanes and give
    # the same bits, on every parity part of 1-, 2- and 3-D lattices with
    # long, banded and lag-0/1 lanes: a block runs the longest band among
    # its lanes, and a lane whose memory ends at lag 1 comes out bitwise
    # w0 x[k] + w1 x[k - 1] (w0 x[0] at k = 0) in any block
    lat = make_lattice(dim, L, M, 0.0, T, K)
    kernel = _js_kernel(lat, 0.4)
    rng = np.random.default_rng(36)
    for odd in itertools.product((False, True), repeat=dim):
        cls = _parity_classes(lat, odd)
        assert min(_memory_lanes(kernel, cls)) > 0
        long = np.isin(cls, kernel.long)
        nonzero = kernel.lags[2:, cls] != 0.0
        band = np.where(nonzero.any(axis=0), 2 + len(nonzero) - np.argmax(nonzero[::-1], axis=0), 2)
        lanes = _transformed_part(lat, odd, rng)
        outs = []
        for width in (1, 7, lanes.shape[1]):
            monkeypatch.setattr(lattice, "_BLOCK_BYTES", 16 * lat.K * width)
            plan = kernels._lane_plan(kernel, lat, odd)
            plan_cls, blocks, G = plan
            assert np.array_equal(plan_cls, cls)
            assert [a for a, *_ in blocks] == [0] + [b for _, b, *_ in blocks[:-1]]
            assert blocks[-1][1] == lanes.shape[1]
            for a, b, block_band, block_long, n_long, _ in blocks:
                assert 0 < b - a <= width
                assert block_band == band[a:b].max()
                assert np.array_equal(block_long[:n_long], np.flatnonzero(long[a:b]))
                assert len(block_long) % G == 0
            out = lanes.copy()
            kernels._lag_sum(out, kernel, plan)
            outs.append(out)
        assert all(np.array_equal(outs[-1], out) for out in outs[:-1])
        # the oracle of a lane whose memory ends at lag 1: lags 0 and 1
        # alone, whatever band its block runs
        short = ~long & (band == 2)
        w0, w1 = kernel.lags[:2, cls[short]]
        x = lanes[:, short]
        want = x * w0
        want[1:] += x[:-1] * w1
        assert np.array_equal(outs[-1][:, short], want)


@pytest.mark.parametrize("dim,M,T_neg", [(1, 64, 0.0), (1, 64, 1.0), (2, 32, 0.0), (2, 32, 1.0),
                                         (3, 32, 0.0), (3, 32, 1.0), (3, 64, 0.0)])
def test_lag_sum_matches_full_lag_sum_and_fft_oracles(dim, M, T_neg):
    # the banded, Toeplitz and lag-0/1 sums against every lag of the
    # untruncated kernel, summed in extended precision, and against the
    # time-FFT convolution the lag sum replaced (an rfft over 2K lags of
    # the lanes times that of the kernel); every parity part (the even one
    # alone at 64^3), at the lattices in use and with past slices
    lat = make_lattice(dim, 6.0, M, T_neg, 8.0, 48)
    s = 0.5
    kernel = _js_kernel(lat, s)
    table = _full_lag_table(lat, s)
    spectrum = np.fft.rfft(table, n=2 * lat.K, axis=0)
    rng = np.random.default_rng(34)
    parities = [(False,) * dim] if M == 64 else itertools.product((False, True), repeat=dim)
    for odd in parities:
        lanes = _transformed_part(lat, odd, rng)
        cls = _parity_classes(lat, odd)
        assert min(_memory_lanes(kernel, cls)[:2]) > 0  # long and banded lanes
        x = lanes.astype(np.longdouble)
        w = table[:, cls].astype(np.longdouble)
        full = np.zeros_like(x)
        for m in range(lat.K):
            full[m:] += w[m] * x[: lat.K - m]
        fft = np.fft.irfft(np.fft.rfft(lanes, n=2 * lat.K, axis=0) * spectrum[:, cls],
                           n=2 * lat.K, axis=0)[: lat.K]
        kernels._lag_sum(lanes, kernel, kernels._lane_plan(kernel, lat, tuple(odd)))
        scale = float(np.max(np.abs(full)))
        assert float(np.max(np.abs(lanes - full))) <= 5e-16 * scale
        assert float(np.max(np.abs(lanes - fft))) <= 1e-15 * scale


@pytest.mark.parametrize("dim,M,K", [(1, 64, 48), (2, 32, 48), (3, 32, 48), (3, 64, 48), (3, 32, 96), (2, 64, 512)])
def test_js_band_drops_below_2_pow_minus_60_of_w0(dim, M, K):
    # a class is long exactly when d >= 2^(-600 / (K - 1)), and keeps
    # every lag; a short class keeps lags 0 and 1 and its band at their
    # exact weights, and the weight of all the lags it drops is at most
    # 2^-60 of its w0
    lat = make_lattice(dim, 6.0, M, 0.0, 8.0, K)
    s = 0.5
    kernel = _js_kernel(lat, s)
    d, w0, w1, a = kernels._js_weights(lat, s)
    table = _full_lag_table(lat, s)
    long = d >= 2.0 ** (-600 / (K - 1))
    assert np.array_equal(kernel.long, np.flatnonzero(long))
    assert np.array_equal(kernel.powers, np.power(d[long], np.arange(K, dtype=float)[:, None]))
    # every class weighs lags 0 and 1 exactly, and a long one no lag >= 2
    assert np.array_equal(kernel.lags[:2], table[:2])
    assert not np.any(kernel.lags[2:, long])
    kept = np.zeros((K - 2, len(d)))
    kept[: len(kernel.lags) - 2] = kernel.lags[2:]
    band = kept != 0.0
    short = ~long
    assert long.any() and (short & band[0]).any()
    # the band is a run of lags from 2 on, at the kernel's weights
    assert np.array_equal(band, np.cumprod(band, axis=0).astype(bool))
    assert np.allclose(kept[band], table[2:][band], rtol=1e-15, atol=0.0)
    dropped = np.sum(np.abs(table[2:]) * ~band, axis=0)
    assert np.all(dropped[short] <= 2.0 ** -60 * w0[short] * (1.0 + 1e-12))


@pytest.mark.parametrize("k", [600, -600])
def test_js_scales_with_a_power_of_two_input(k):
    # a power of two passes through every stage exactly, the Toeplitz
    # product's normalisation included, with no overflow, underflow to
    # zero or invalid operation on the way
    for lat in (make_lattice(3, 1.5, 16, 1.0, 3.0, 24), make_lattice(2, 6.0, 32, 0.0, 8.0, 48)):
        g = np.random.default_rng(35).random(lat.shape) * lat.causal_mask().reshape((-1,) + (1,) * lat.dim)
        want = apply_Js(Field(lat, g), 0.5).values
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = apply_Js(Field(lat, np.ldexp(g, k)), 0.5).values
        assert np.max(np.abs(np.ldexp(got, -k) - want)) <= 1e-15 * np.max(np.abs(want))


def test_js_peak_memory_within_two_and_a_half_parts():
    # the time transforms run on cache-sized blocks: no whole-part spectrum
    import tracemalloc

    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    fld = Field(lat, np.random.default_rng(25).random((lat.K,) + (lat.M // 2,) * lat.dim), orthant=True)
    apply_Js(fld, 0.5)  # build the kernel and the transform matrices
    tracemalloc.start()
    try:
        apply_Js(fld, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * fld.values.nbytes


def test_js_in_place_transforms_peak_below_1_6_fields():
    # the spatial transforms run in place on the one output buffer: a call
    # holds one field and a few blocks beside its input
    import tracemalloc

    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    fld = Field(lat, np.random.default_rng(26).random((lat.K,) + (lat.M // 2,) * lat.dim), orthant=True)
    _js_kernel(lat, 0.5)
    apply_Js(fld, 0.5)  # the transform matrices too
    tracemalloc.start()
    try:
        apply_Js(fld, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * fld.values.nbytes


def test_js_past_slices_cost_no_extra_field():
    # slices at t <= 0 are zeroed in the transform buffer, not in a copy of
    # the input: the peak is that of an all-causal window
    import tracemalloc

    peaks = []
    for T_neg in (0.0, 1.0):
        lat = make_lattice(3, 6.0, 32, T_neg, 8.0, 48)
        vals = np.random.default_rng(28).random((lat.K,) + (lat.M // 2,) * lat.dim)
        vals *= lat.causal_mask().reshape((-1,) + (1,) * lat.dim)
        fld = Field(lat, vals, orthant=True)
        apply_Js(fld, 0.5)  # build the kernel and the transform matrices
        tracemalloc.start()
        try:
            apply_Js(fld, 0.5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert T_neg > 0 and not lat.causal_mask()[0]
    assert peaks[1] <= peaks[0] + 0.1 * fld.values.nbytes


@pytest.mark.parametrize("s", [0.5, 0.3])
def test_js_leaves_its_input_and_returns_a_fresh_frozen_array(monkeypatch, s):
    # the transforms write only their own buffer: the input is bitwise
    # unchanged, whether it is an orthant field (its values are the part)
    # or a full-grid input whose one part is a view of it (2-D odd in one
    # axis and exactly even in the other, 1-D exactly even)
    parts = []
    convolve = kernels._js_on_orthant

    def record(part, odd, lat, kernel, **kw):
        parts.append((part, tuple(odd)))
        return convolve(part, odd, lat, kernel, **kw)

    monkeypatch.setattr(kernels, "_js_on_orthant", record)
    rng = np.random.default_rng(27)
    lat3 = make_lattice(3, 6.0, 16, 0.0, 8.0, 12)
    lat2 = make_lattice(2, 4.0, 16, 0.0, 3.0, 12)
    lat1 = make_lattice(1, 4.0, 16, 0.0, 3.0, 12)
    cases = [
        (Field(lat3, rng.random((lat3.K,) + (8,) * 3), orthant=True), (False,) * 3),
        (Field(lat2, _one_odd_axis(lat2, rng)), (True, False)),
        (Field(lat1, _mirrored(rng.random((lat1.K, 8)), 1)), (False,)),
    ]
    for g, odd in cases:
        before = g.values.copy()
        del parts[:]
        out = apply_Js(g, s)
        assert [o for _, o in parts] == [odd] and np.shares_memory(parts[0][0], g.values)
        assert np.array_equal(g.values, before)
        assert not np.shares_memory(out.values, g.values)
        assert out.values.flags.owndata and not out.values.flags.writeable


@pytest.mark.parametrize("dim,M,T_neg", [(1, 16, 0.0), (2, 16, 1.0), (3, 16, 0.0), (3, 8, 1.0)])
def test_js_overwrite_g_runs_in_the_inputs_own_array(dim, M, T_neg):
    # an orthant input with overwrite_g is the convolution's buffer: the
    # output is bitwise the default call's, over the input's own array; a
    # full-grid input ignores the flag, is left as it is and gets a fresh
    # output
    lat = make_lattice(dim, 4.0, M, T_neg, 3.0, 12)
    rng = np.random.default_rng(31)
    vals = rng.random((lat.K,) + (M // 2,) * dim) * lat.causal_mask().reshape((-1,) + (1,) * dim)
    want = apply_Js(Field(lat, vals, orthant=True), 0.4)
    g = Field(lat, vals, orthant=True)
    out = apply_Js(g, 0.4, overwrite_g=True)
    assert out.orthant and np.array_equal(out.values, want.values)
    assert np.shares_memory(out.values, g.values)
    assert not out.values.flags.writeable
    full = Field(lat, _mirrored(vals, dim))
    before = full.values.copy()
    out = apply_Js(full, 0.4, overwrite_g=True)
    assert np.array_equal(full.values, before)
    assert not np.shares_memory(out.values, full.values)
    assert np.array_equal(out.values, want.full_grid().values)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("slices", [None, 3])
def test_spatial_transform_in_place_is_bitwise_out_of_place(monkeypatch, dim, slices):
    # a chain of one, two or three products gives the same bits written
    # into another array, run in place, and batched over the whole array,
    # in one block or in blocks of 3 slices with a ragged last one
    n = 8
    if slices is not None:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", slices * 8 * n ** dim)
    x = np.random.default_rng(32).standard_normal((11,) + (n,) * dim)
    for odd in itertools.product((False, True), repeat=dim):
        for which in (0, 1):
            mats = [_dct_pair(n, o)[which] for o in odd]
            want = x
            for ax, mat in enumerate(mats, 1):
                want = _batched(mat, want, ax)
            out = np.empty_like(x)
            kernels._spatial_transform(x, mats, out)
            inplace = x.copy()
            kernels._spatial_transform(inplace, mats, inplace)
            assert np.array_equal(out, want) and np.array_equal(inplace, want)


@pytest.mark.parametrize("s", [-0.5, 0.0, 1.5, float("nan")])
def test_js_rejects_order_outside_unit_interval(gaussian, s):
    misses = _js_kernel.cache_info().misses
    with pytest.raises(ValueError, match="0 < s <= 1"):
        apply_Js(gaussian, s)
    assert _js_kernel.cache_info().misses == misses  # no kernel was built


# prints the CPU ticks (utime + stime) that a fresh interpreter's non-main
# threads spend while it runs the code under `with_ticks()`, which the body
# that follows this preamble marks as the work to count
_THREAD_TICKS_SCRIPT = """
import contextlib
import os
import numpy as np
from hardyheat import kernels, verifier
from hardyheat.lattice import Field, make_lattice

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        out[int(tid)] = int(fields[11]) + int(fields[12])
    return out

@contextlib.contextmanager
def with_ticks():
    before = ticks()
    yield
    after = ticks()
    print(sum(t - before.get(tid, 0) for tid, t in after.items() if tid != os.getpid()))
"""


def _worker_ticks(body: str) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _THREAD_TICKS_SCRIPT + body], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


_needs_thread_ticks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times from /proc"
)


@_needs_thread_ticks
def test_js_transforms_start_no_blas_worker_thread():
    # the spatial transforms and the lag sum's Toeplitz products are
    # batches of small GEMMs: a BLAS library that fanned them out to worker
    # threads would leave those threads spinning on the CPU after each
    # call; three orthant calls at 3-D 64^3 x 48, whose 1626 long-memory
    # lanes run through 44 Toeplitz GEMMs a call, in 97 blocks
    body = """
lat = make_lattice(3, 6.0, 64, 0.0, 8.0, 48)
g = np.random.default_rng(0).random((lat.K,) + (lat.M // 2,) * lat.dim)
kernel = kernels._js_kernel(lat, 0.5)  # the kernel build is not the transforms' work
index = kernels._js_classes(lat.M // 2 + 1, 3)[(slice(0, lat.M // 2),) * 3]
assert np.count_nonzero(np.isin(index, kernel.long)) == 1626
with with_ticks():
    for _ in range(3):
        kernels.apply_Js(Field(lat, g, orthant=True), 0.5)
"""
    assert _worker_ticks(body) == 0


@pytest.fixture
def js_paths(monkeypatch):
    """The parities of the parts apply_Js convolves, in call order: one
    tuple per part, True on the part's odd axes."""
    taken = []

    def spy(part, odd, lat, kernel, _fn=kernels._js_on_orthant, **kw):
        taken.append(tuple(odd))
        return _fn(part, odd, lat, kernel, **kw)

    monkeypatch.setattr(kernels, "_js_on_orthant", spy)
    return taken


@pytest.mark.parametrize("dim,M,T_neg", [(2, 16, 0.0), (2, 16, 1.0), (3, 8, 1.0)])
def test_js_even_input_takes_the_orthant(js_paths, dim, M, T_neg):
    lat = make_lattice(dim, 4.0, M, T_neg, 3.0, 12)
    past = ~lat.causal_mask()
    rng = np.random.default_rng(21)
    g = _mirrored(rng.random((lat.K,) + (M // 2,) * dim), dim)
    g[past] *= 1e-10  # below causal_tol: accepted, then zeroed
    s = 0.4
    out = apply_Js(Field(lat, g), s).values
    # an exactly even input is one part, the even one
    assert js_paths == [(False,) * dim]
    for ax in range(1, dim + 1):
        assert np.array_equal(out, np.flip(out, ax))
    assert np.all(out[past] == 0.0)
    causal = g.copy()
    causal[past] = 0.0
    want = _volterra_direct(causal, lat, s, 4)
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
    # one node 2^N ulps off evenness, the least that the N halvings of the
    # split all keep: every parity mix, 2^N parts
    node = (-1,) + (0,) * dim
    g[node] += 2 ** dim * np.spacing(g[node])
    del js_paths[:]
    off = apply_Js(Field(lat, g), s).values
    assert sorted(js_paths) == sorted(itertools.product((False, True), repeat=dim))
    causal[node] = g[node]
    want = _volterra_direct(causal, lat, s, 4)
    assert np.max(np.abs(off - want)) <= 1e-13 * np.max(np.abs(want))


def test_js_exactly_odd_input_is_one_part(js_paths):
    # an exactly odd axis keeps its odd half alone: its even half is zero
    # and is not convolved
    lat = make_lattice(1, 4.0, 16, 1.2, 3.0, 14)
    g = _one_odd_axis(lat, np.random.default_rng(22)) * lat.causal_mask()[:, None]
    s = 0.4
    got = apply_Js(Field(lat, g), s).values
    assert js_paths == [(True,)]
    want = _volterra_direct(g, lat, s, 4)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,M,T_neg", [(2, 16, 1.0), (3, 8, 0.0)])
def test_js_on_orthant_field_is_the_even_path(js_paths, monkeypatch, dim, M, T_neg):
    # an orthant-stored input is convolved as the one even part, with no
    # evenness test and no mirror: its output is the full-grid output's
    # positive orthant, bitwise, stored on the orthant
    lat = make_lattice(dim, 4.0, M, T_neg, 3.0, 12)
    g = _mirrored(np.random.default_rng(23).random((lat.K,) + (M // 2,) * dim), dim)
    g *= lat.causal_mask().reshape((-1,) + (1,) * dim)
    full = apply_Js(Field(lat, g), 0.4)
    pos = (slice(None),) + (slice(M // 2, None),) * dim
    even = Field(lat, g[pos], orthant=True)
    monkeypatch.setattr(kernels, "parity_parts", None)  # nothing to split
    out = apply_Js(even, 0.4)
    assert js_paths == [(False,) * dim] * 2
    assert out.orthant and out.values.shape == even.values.shape
    assert out.values.flags.owndata and not out.values.flags.writeable
    assert np.array_equal(out.full_grid().values, full.values)
    assert np.array_equal(full.values[pos], out.values)


def _causal_ones(lat, even):
    """All ones for t > 0; one node off evenness unless even."""
    g = np.ones(lat.shape) * lat.causal_mask()[:, None, None]
    if not even:
        g[-1, 0, 0] = 2.0
    return Field(lat, g)


def test_js_spectrum_cached_per_key():
    # one kernel per (lattice, s), whichever path reads it
    lat = make_lattice(2, 3.7, 16, 0.5, 2.0, 12)
    other_lat = make_lattice(2, 3.7, 16, 0.5, 2.0, 16)
    assert _js_kernel.cache_parameters()["maxsize"] == 4
    for even in (False, True):
        _js_kernel.cache_clear()
        g = _causal_ones(lat, even)
        first = apply_Js(g, 0.45).values
        after_first = _js_kernel.cache_info()
        assert after_first.misses == 1
        second = apply_Js(g, 0.45).values
        assert _js_kernel.cache_info().hits == after_first.hits + 1
        assert np.array_equal(first, second)
        # every other key gets an entry of its own
        g_other = _causal_ones(other_lat, even)
        for call in (
            lambda: apply_Js(g, 0.55),
            lambda: apply_Js(g_other, 0.45),
        ):
            misses = _js_kernel.cache_info().misses
            call()
            assert _js_kernel.cache_info().misses == misses + 1


def test_js_paths_share_one_table(js_paths):
    lat = make_lattice(2, 3.7, 16, 0.5, 2.0, 12)
    _js_kernel.cache_clear()
    apply_Js(_causal_ones(lat, True), 0.45)
    apply_Js(_causal_ones(lat, False), 0.45)
    # one even part, then the four parts of the non-even input
    assert len(js_paths) == 1 + 4
    info = _js_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_js_spectrum_read_only_and_sized():
    # the kernel is real and per mode class, and far smaller than the
    # complex rfft table over 2K lags it replaced, C(M/2 + N, N) rows of
    # K + 1 complex128 values: 0.76 MB at 32^3 x 48 and 5.1 MB at 64^3 x 48
    for M, table_mb in ((32, 0.76), (64, 5.1)):
        lat = make_lattice(3, 6.0, M, 0.0, 8.0, 48)
        _js_kernel.cache_clear()
        kernel = _js_kernel(lat, 0.5)
        classes = math.comb(lat.M // 2 + 3, 3)
        table = classes * (lat.K + 1) * 16
        assert table == pytest.approx(table_mb * 1e6, rel=0.05)
        apply_Js(Field(lat, np.ones((lat.K,) + (lat.M // 2,) * 3), orthant=True), 0.5)
        (plan,) = kernel.plans.values()  # the even part's lanes
        cls, blocks = plan[:2]
        assert np.array_equal(cls, _parity_classes(lat, (False,) * 3))
        arrays = [getattr(kernel, f.name) for f in dataclasses.fields(kernel) if f.name != "plans"]
        arrays += [cls] + [a for block in blocks for a in block[3::2]]
        # the kernel and its plan within 0.3 MB at 32^3 and 0.7 MB at 64^3:
        # no per-lane weights
        assert sum(a.nbytes for a in arrays) < min(0.5 * table, (0.3e6 if M == 32 else 0.7e6))
        assert kernel.lags.shape[1] == classes and kernel.powers.shape == (lat.K, len(kernel.long))
        assert kernel.toeplitz.shape == (lat.K, lat.K)
        for a in arrays:
            assert a.dtype.kind in "fi" and not a.flags.writeable
        with pytest.raises(ValueError):
            kernel.lags[0, 0] = 1.0


@pytest.mark.parametrize("n,dim", [(9, 1), (5, 2), (5, 3), (17, 3), (33, 2)])
def test_js_classes_index_sorted_tuples(n, dim):
    index = kernels._js_classes(n, dim)
    assert index.shape == (n,) * dim and not index.flags.writeable
    classes = list(itertools.combinations_with_replacement(range(n), dim))
    assert len(classes) == math.comb(n + dim - 1, dim)
    for modes in itertools.product(range(n), repeat=dim):
        assert classes[index[modes]] == tuple(sorted(modes))


def _dense_js_weights(lat, s):
    """The lag kernel's (d, w0, w1) with one entry per mode tuple, shape
    (M/2 + 1,) * N each: the multiplier of each tuple formed on the whole
    grid (heat_kernel_multiplier, the 1-D factors multiplied in axis
    order), with the class kernel's weights."""
    ht = lat.ht
    modes = (slice(0, lat.M // 2 + 1),) * lat.dim

    def multiplier(tau):
        return heat_kernel_multiplier(lat, tau)[modes] if tau > 0 else 1.0

    w0 = np.zeros((lat.M // 2 + 1,) * lat.dim)
    w1 = np.zeros_like(w0)
    edges = ht * np.arange(kernels._FIRST_SLAB_REFINE + 1) / kernels._FIRST_SLAB_REFINE
    for a, b in zip(edges[:-1], edges[1:]):
        for tau, wgt in zip((a, b), _linear_weights(a, b, s)):
            ef = wgt * multiplier(tau)
            w0 += (1.0 - tau / ht) * ef
            w1 += tau / ht * ef
    d = multiplier(ht)
    w1 += ht ** s * kernels._lag_weights(lat.K, s)[1] * d
    return d, w0 / gamma_fn(s), w1 / gamma_fn(s)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("dim,M,K", [(1, 16, 12), (1, 64, 48), (2, 16, 12), (2, 32, 48), (3, 16, 12), (3, 32, 48)])
def test_js_class_rows_match_the_dense_table(dim, M, K, s):
    # a kernel per class holds what a kernel per mode tuple held: bitwise
    # in 1-D and 2-D, where the product of two factors commutes, and to
    # rounding in 3-D, where the dense kernel multiplies a tuple's factors
    # in axis order and the class kernel in sorted order; a_m is one
    # ht^s alpha_m / Gamma(s) for every class, zero at lags 0 and 1
    lat = make_lattice(dim, 4.0, M, 0.0, 3.0, K)
    *rows, a = kernels._js_weights(lat, s)
    index = kernels._js_classes(lat.M // 2 + 1, dim)
    for got, want in zip(rows, _dense_js_weights(lat, s)):
        if dim < 3:
            assert np.array_equal(got[index], want)
        else:
            assert np.max(np.abs(got[index] - want)) <= 1e-14 * np.max(np.abs(want))
    alpha = lat.ht ** s * kernels._lag_weights(K, s) / gamma_fn(s)
    assert a.shape == (K,) and not a[:2].any()
    assert np.array_equal(a[2:], alpha[2:])


def test_js_spectrum_build_peaks_below_1_25_fields():
    # the build holds per-class weights, the band's rows and the long
    # classes' powers: a small fraction of a field, nothing per mode tuple
    import tracemalloc

    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    field = lat.K * (lat.M // 2) ** lat.dim * 8
    _js_kernel.cache_clear()
    tracemalloc.start()
    try:
        _js_kernel(lat, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _js_kernel.cache_clear()
    assert peak < 0.5 * field


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_lag_weights_match_50_digit_values(s):
    # lag m's weight is the second difference of x^(s+1) / (s(s+1)) at m
    # (lag 1 sees the slab [1, 2] alone), evaluated here in 50 digits; the
    # same difference in doubles is off by 6e-9 to 1.4e-8 relative at
    # K = 4096
    from decimal import Decimal, localcontext

    K = 4096
    got = kernels._lag_weights(K, s)
    with localcontext() as ctx:
        ctx.prec = 50
        S = Decimal(s)
        P = [Decimal(m) ** (S + 1) for m in range(K + 1)]
        want = [Decimal(0), (2 * (P[2] / 2 - 1) / S - (P[2] - 1) / (S + 1))]
        want += [(P[m + 1] - 2 * P[m] + P[m - 1]) / (S * (S + 1)) for m in range(2, K)]
        assert got[0] == 0.0
        worst = max(abs(Decimal(float(g)) - w) / w for g, w in zip(got[1:], want[1:]))
    assert worst <= 2e-15


@pytest.mark.parametrize("q", [0.3, 0.8, -0.3, -0.8])
def test_linear_weights_exact_for_linear_integrands(q):
    # left g(a) + right g(b) = int_a^b tau^(q-1) g(tau) dtau for linear g;
    # a = 0 is admitted when the weight is integrable there (q > 0)
    slabs = [(0.5, 0.75), (2.0, 3.5), (1e-3, 4e-3)] + ([(0.0, 0.25)] if q > 0 else [])
    for a, b in slabs:
        left, right = _linear_weights(a, b, q)
        assert left > 0.0 and right > 0.0
        for c0, c1 in ((1.0, 0.0), (0.0, 1.0), (2.0, -0.7)):
            want = c0 * (b ** q - a ** q) / q + c1 * (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)
            got = left * (c0 + c1 * a) + right * (c0 + c1 * b)
            assert got == pytest.approx(want, rel=1e-12)


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
    # the leak is zeroed in the transform buffer: the input keeps it, and
    # the output is the zeroed input's
    assert np.array_equal(fld.values, g)
    g[past] = 0.0
    assert np.array_equal(out, apply_Js(Field(lat, g), 0.6).values)


def test_symbol_of_kernel_closed_form_substitution():
    # at xi = 0, theta = 1 the closed form is 2^N pi^(N/2) Gamma(s) i^(-1/2)
    s, dim = 0.5, 2
    val = 2.0 ** dim * math.pi ** (dim / 2) * gamma_fn(s) * (1j) ** (-s)
    want = 2.0 ** dim * math.pi ** (dim / 2) * gamma_fn(s) * np.exp(-1j * math.pi / 4)
    assert val == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s,parent", [
    (0.3, 1.2606144755308518e-06),
    (0.5, 2.5980723199720976e-06),
    (0.7, 3.5511443514620177e-06),
])
def test_symbol_of_kernel_check_keeps_its_margins(s, parent):
    # pinned with the Gaussian's space transform in closed form
    assert symbol_of_kernel_check(s) == pytest.approx(parent, rel=1e-9)


@_needs_thread_ticks
def test_symbol_check_starts_no_blas_worker_thread():
    # a complex matrix-vector product over the u grid gave the worker
    # threads 46-71 ticks a call; the first call keeps import-time start-up
    # work out of the counted one
    body = """
verifier.run_check("symbol")
with with_ticks():
    verifier.run_check("symbol")
"""
    assert _worker_ticks(body) == 0


def test_symbol_check_peak_memory_below_2_mb():
    # the space transform is exact, so no tau-by-u phase matrix is formed
    import tracemalloc

    symbol_of_kernel_check(0.5)
    tracemalloc.start()
    try:
        symbol_of_kernel_check(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_symbol_of_kernel_check_accuracy_and_trend(monkeypatch):
    err = symbol_of_kernel_check(0.5)
    assert err <= 1e-3
    monkeypatch.setattr(kernels, "SYMBOL_TAU_MAX", 6.0)
    err_small = symbol_of_kernel_check(0.5)
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


def _shift_per_slice(vals, steps, quadratic):
    """vals(., t - steps * ht) slice by slice: linear interpolation, or
    3-point Lagrange when quadratic and steps is not a whole number; slices
    outside the window (either side) count as zero."""
    K = vals.shape[0]
    m = math.floor(steps)
    f = steps - m
    if quadratic and f != 0.0:
        rule = ((m - 1, 0.5 * f * (f - 1.0)), (m, 1.0 - f * f), (m + 1, 0.5 * f * (f + 1.0)))
    else:
        rule = ((m, 1.0 - f), (m + 1, f))
    out = np.zeros_like(vals)
    for lag, wgt in rule:
        if lag >= K:
            continue
        if lag >= 0:
            out[lag:] += wgt * vals[: K - lag]
        else:
            out[: K + lag] += wgt * vals[-lag:]
    return out


def _ls_per_node(phi, lam, s, order_preserving):
    """apply_Ls written out node by node: each tau shifts the field in time
    and smooths it in space."""
    lat = phi.lattice
    mu = mu_from_lambda(lam, lat.dim, s)
    r = lat.spatial_radius()
    w = r ** (-mu)
    vals = phi.values
    smoother = heat_positive if order_preserving else heat_semigroup

    def h(tau):
        profile = smoother(w, lat, tau) if order_preserving else smoothed_power(r, tau, lat.dim, mu)
        shifted = _shift_per_slice(vals, tau / lat.ht, not order_preserving)
        return vals * profile - smoother(w * shifted, lat, tau)

    tau1 = lat.hx ** 2
    span = lat.T + lat.T_neg
    edges = tau1 / 4.0 ** np.arange(5, -1, -1)
    left, right = _linear_weights(edges[:-1], edges[1:], -s)
    acc = h(edges[0]) * edges[0] ** (-s) / (1.0 - s)
    for tau, wgt in zip(edges, np.r_[left, 0.0] + np.r_[0.0, right]):
        acc += wgt * h(tau)
    for tq, wq in zip(*gauss_legendre_panels(geometric_edges(tau1, span, 1.6), 4)):
        acc += wq * tq ** (-1.0 - s) * h(tq)
    for tq, wq in zip(*gauss_legendre_panels(geometric_edges(span, 4000.0, 1.6), 4)):
        acc += vals * wq * tq ** (-1.0 - s) * smoothed_power(r, tq, lat.dim, mu)
    acc += vals * smoothed_power(r, 4000.0, lat.dim, mu) * 4000.0 ** (-s) / (s + mu / 2.0)
    return acc / gamma_abs_neg(s)


# hx^2 = ht = 1/4 on the first two: the first slab's outer edge shifts by
# exactly one slice, where the 3-point shift is the one lag
@pytest.mark.parametrize("dims", [(2, 4.0, 16, 0.5, 1.5, 8), (3, 4.0, 16, 0.5, 1.5, 8), (2, 8.0, 32, 1.0, 2.0, 16)])
@pytest.mark.parametrize("order_preserving", [False, True])
def test_ls_matches_per_node_loop(dims, order_preserving):
    lat = make_lattice(*dims)
    assert (lat.hx ** 2 / lat.ht == 1.0) == (lat.M == 16)
    rng = np.random.default_rng(17)
    phi = Field(lat, rng.standard_normal(lat.shape))
    lam = 0.5 * lambda_max(lat.dim, 0.5)
    got = apply_Ls(phi, lam, 0.5, order_preserving=order_preserving).values
    want = _ls_per_node(phi, lam, 0.5, order_preserving)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lag_table_rows():
    lat = make_lattice(2, 4.0, 16, 0.5, 1.5, 8)
    sharp = np.exp(-0.5 * lat.ht * lat.xi_squared()[..., : lat.M // 2 + 1])
    # half a slice: the 3-point shift reads the next slice (row 0, lag -1)
    table = _lag_table(lat, [0.5 * lat.ht], [2.0], False)
    assert table.shape == (3, lat.M, lat.M // 2 + 1)
    assert np.allclose(table, 2.0 * np.array([-0.125, 0.75, 0.375])[:, None, None] * sharp, rtol=1e-15, atol=0.0)
    # the linear shift on the positive kernel does not
    table = _lag_table(lat, [0.5 * lat.ht], [1.0], True)
    positive = heat_kernel_multiplier(lat, 0.5 * lat.ht)[..., : lat.M // 2 + 1]
    assert np.array_equal(table, np.stack([0.0 * positive, 0.5 * positive, 0.5 * positive]))
    # a whole number of slices is one lag in both pairings; a lag >= K drops
    for order_preserving in (False, True):
        table = _lag_table(lat, [2.0 * lat.ht, lat.K * lat.ht], [1.0, 1.0], order_preserving)
        assert table.shape[0] == 4
        assert not table[:3].any() and table[3].min() > 0.0


def test_ls_smooths_once_per_first_slab_edge():
    # the graded first slab [0, hx^2] has 6 edges, each shared by the two
    # sub-slabs it bounds: each enters one table once, at tau1 / 4**k, and
    # no tau enters two tables
    lat = make_lattice(2, 8.0, 32, 1.0, 2.0, 16)
    tau1 = lat.hx ** 2
    for order_preserving in (False, True):
        plan = kernels._ls_plan(lat, 0.5 * lambda_max(2, 0.5), 0.5, order_preserving)
        taus = np.concatenate([plan.h0.taus, plan.first.taus, plan.tail.taus])
        assert len(set(taus)) == len(taus)
        assert np.all(plan.tail.taus > tau1)
        first_slab = np.concatenate([plan.h0.taus, plan.first.taus])
        assert first_slab == pytest.approx(tau1 / 4.0 ** np.arange(5, -1, -1), rel=1e-15)


def test_ls_plan_cache_read_only_one_miss_per_key():
    lat = make_lattice(2, 8.0, 32, 1.0, 2.0, 16)
    phi = sample(lambda t, x, y: np.exp(-(x * x + y * y) - (t - 1.0) ** 2), lat)
    lam = 0.5 * lambda_max(2, 0.5)
    kernels._ls_plan.cache_clear()
    for order_preserving in (False, True):
        first = apply_Ls(phi, lam, 0.5, order_preserving=order_preserving)
        again = apply_Ls(phi, lam, 0.5, order_preserving=order_preserving)
        assert np.array_equal(first.values, again.values)
    info = kernels._ls_plan.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    for order_preserving in (False, True):
        plan = kernels._ls_plan(lat, lam, 0.5, order_preserving)
        terms = (plan.h0, plan.first, plan.tail)
        arrays = [plan.weight] + [a for t in terms for a in (t.taus, t.table, t.profile)]
        assert not any(a.flags.writeable for a in arrays)
    assert kernels._ls_plan.cache_info().misses == 2


def test_ls_first_slab_guard_trips(monkeypatch):
    # with the first-slab edges weighted zero, the unresolved innermost
    # piece is the whole first slab
    lat = make_lattice(2, 8.0, 32, 1.0, 2.0, 16)
    phi = sample(lambda t, x, y: np.exp(-(x * x + y * y) - (t - 1.0) ** 2), lat)
    monkeypatch.setattr(kernels, "_linear_weights", lambda a, b, q: (0.0 * a, 0.0 * b))
    kernels._ls_plan.cache_clear()
    try:
        with pytest.raises(QuadratureError, match="first-slab refinement"):
            apply_Ls(phi, 0.5 * lambda_max(2, 0.5), 0.5)
    finally:
        kernels._ls_plan.cache_clear()


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
    assert radial_identity_error(lat, lam, 0.5) <= 5e-2


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
