"""The integral operators: the fractional heat operator applied spectrally,
its causal convolution inverse, the ground-state commutator operator, and the
closed-form radial identities tying them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constants import frac_laplacian_constant, mu_from_lambda, upsilon
from .lattice import Field, Lattice
from .special import (
    gamma_abs_neg,
    gamma_fn,
    gauss_legendre_panels,
    geometric_edges,
    smooth_step,
    smoothed_power,
)


class AliasingError(RuntimeError):
    """Imaginary residue above threshold: insufficient padding/resolution."""


class NonCausalInput(ValueError):
    """Input field carries significant mass at t <= 0."""


class QuadratureError(RuntimeError):
    """Singular quadrature failed to settle within its refinement budget."""


# ---------------------------------------------------------------------------
# fractional heat operator, spectral side
# ---------------------------------------------------------------------------

def heat_symbol(lat: Lattice, s: float, pad_space: int = 1, pad_time: int = 1) -> np.ndarray:
    """(i theta + |xi|^2)^s on the half of the (padded) frequency grid that
    rfftn keeps: space first, time last with theta index 0..pad_time*K/2.

    The base has non-negative real part, so numpy's principal power is the
    branch with |arg| <= pi/2 and Hermitian symmetry in (xi, theta), except
    on the time-Nyquist plane, which fftfreq gives the one frequency -pi/ht.
    """
    theta = lat.theta_axis(pad_time)[: pad_time * lat.K // 2 + 1]
    return (1j * theta + lat.xi_squared(pad_space)[..., None]) ** s


def apply_Hs_spectral(fld: Field, s: float, pad_space: int = 2, pad_time: int = 4) -> Field:
    """Apply the order-s fractional heat operator as a Fourier multiplier.

    Works on the padded torus with real FFTs, time last and halved. Off the
    time-Nyquist plane the symbol is Hermitian; that plane's Im(symbol) term
    is the imaginary residue a complex transform would leave, and it must
    stay within 1e-10 of the real part (a broken branch or severe aliasing).
    """
    lat = fld.lattice
    # space is centred (tails decay both ways), time pads the future only:
    # the operator kernel is causal, so wrap-around contamination comes from
    # late-time tails re-entering early
    big = np.zeros((pad_space * lat.M,) * lat.dim + (pad_time * lat.K,))
    off = (pad_space - 1) * lat.M // 2
    sl = (slice(off, off + lat.M),) * lat.dim + (slice(0, lat.K),)
    big[sl] = np.moveaxis(fld.values, 0, -1)
    spec = np.fft.rfftn(big)
    sym = heat_symbol(lat, s, pad_space, pad_time)
    space = tuple(range(lat.dim))
    resid_plane = np.fft.ifftn(spec[..., -1] * sym[..., -1].imag, axes=space)[sl[:-1]]
    spec *= sym
    out = np.fft.irfftn(spec, s=big.shape, axes=space + (lat.dim,))[sl]
    scale = max(float(np.max(np.abs(out))), 1e-300)
    resid = float(np.max(np.abs(resid_plane))) / big.shape[-1]
    if resid > 1e-10 * scale:
        raise AliasingError(f"imaginary residue {resid:.9e} vs scale {scale:.3e}")
    return Field(lat, np.moveaxis(out, -1, 0))


def _spatial_multiply(values: np.ndarray, lat: Lattice, multiplier: np.ndarray) -> np.ndarray:
    """Apply a real, even spatial Fourier multiplier over the last lat.dim
    axes of real values, on the rfftn half-spectrum of the last axis."""
    axes = tuple(range(values.ndim - lat.dim, values.ndim))
    spec = np.fft.rfftn(values, axes=axes)
    spec *= multiplier[..., : lat.M // 2 + 1]
    return np.fft.irfftn(spec, s=(lat.M,) * lat.dim, axes=axes)


def heat_semigroup(values: np.ndarray, lat: Lattice, tau: float) -> np.ndarray:
    """Spatial heat smoothing exp(tau * Laplacian), batched over leading axes.

    Spectrally accurate, but the sharp multiplier rings at the 1e-4 level
    for tau below the grid scale; paths with a positivity contract use
    heat_kernel_multiplier instead.
    """
    return _spatial_multiply(values, lat, np.exp(-tau * lat.xi_squared()))


def _heat_kernel_multiplier_1d(M: int, hx: float, L: float, tau: float) -> np.ndarray:
    """DFT of the sampled, periodised, mass-normalised 1-D heat kernel.

    The convolution kernel is non-negative by construction, so the operator
    preserves positivity exactly at every tau, including sub-grid ones where
    it degrades gracefully into a nearest-node average.
    """
    offs = np.fft.fftfreq(M) * M * hx
    k = np.zeros(M)
    for n in range(-3, 4):
        k += np.exp(-((offs + 2.0 * L * n) ** 2) / (4.0 * tau))
    k /= k.sum()
    return np.fft.fft(k).real


def heat_kernel_multiplier(lat: Lattice, tau: float) -> np.ndarray:
    """Separable positive-kernel heat multiplier on the full spatial grid."""
    m1 = _heat_kernel_multiplier_1d(lat.M, lat.hx, lat.L, tau)
    out = np.ones((1,) * lat.dim)
    for d in range(lat.dim):
        shape = [1] * lat.dim
        shape[d] = lat.M
        out = out * m1.reshape(shape)
    return out


def heat_positive(values: np.ndarray, lat: Lattice, tau: float) -> np.ndarray:
    """Heat smoothing through the sampled positive kernel (monotone exactly,
    spectrally a touch less accurate than heat_semigroup)."""
    return _spatial_multiply(values, lat, heat_kernel_multiplier(lat, tau))


# ---------------------------------------------------------------------------
# causal inverse: Volterra convolution in time
# ---------------------------------------------------------------------------

def _js_lag_weights(s: float, ht: float, n_lags: int) -> np.ndarray:
    """Product-integration weights for the weakly singular memory tau^(s-1).

    The smooth factor is linear on each time slab; weights come from the
    exact first two moments of tau^(s-1) per slab. All weights are
    non-negative, so the discrete operator is monotone.
    """
    j = np.arange(n_lags, dtype=float)
    m0 = ht ** s * ((j + 1.0) ** s - j ** s) / s
    m1h = ht ** s * ((j + 1.0) ** (s + 1.0) - j ** (s + 1.0)) / (s + 1.0)
    left = (j + 1.0) * m0 - m1h
    right = m1h - j * m0
    alpha = np.zeros(n_lags)
    alpha[0] = left[0]
    alpha[1:] = right[:-1] + left[1:]
    return alpha / gamma_fn(s)


# a few entries: the verifier uses three values of s on one lattice, and one
# 64^3 x 48 entry is already 207 MB
@lru_cache(maxsize=4)
def _js_spectrum(lat: Lattice, s: float, first_slab_refine: int) -> np.ndarray:
    """Time spectrum of the lag kernel on the rfft half-spectrum in space.

    Shape (2K, M, ..., M, M//2 + 1), complex128, read-only: the causal
    kernel zero-padded to 2K lags so the product with a padded input
    spectrum is a linear (not circular) convolution over the first K lags.
    The heat multiplier is real and even in every axis, so restricting it
    to the half-spectrum of the last axis loses nothing.
    """
    K = lat.K
    ht = lat.ht
    gs = gamma_fn(s)
    alpha = _js_lag_weights(s, ht, K)
    # first-slab pieces to be replaced by the refined rule
    left0 = (ht ** s / s - ht ** s / (s + 1.0)) / gs
    right0 = ht ** s / (s + 1.0) / gs
    R = first_slab_refine
    edges = ht * np.arange(R + 1) / R
    sub = []  # (tau, weight) endpoint rules per sub-slab
    for r in range(R):
        a, b = edges[r], edges[r + 1]
        mm0 = (b ** s - a ** s) / s
        mm1 = (b ** (s + 1.0) - a ** (s + 1.0)) / (s + 1.0)
        sub.append((a, ((b * mm0 - mm1) / (b - a)) / gs))
        sub.append((b, ((mm1 - a * mm0) / (b - a)) / gs))

    half = (Ellipsis, slice(0, lat.M // 2 + 1))

    def multiplier(tau):
        if tau <= 0:
            return 1.0
        return heat_kernel_multiplier(lat, tau)[half].reshape(-1)

    # positive-kernel multipliers: lag m smooths with the m-fold composition
    # of the one-slab kernel, so non-negativity is preserved exactly
    dec = multiplier(ht)
    kern = np.empty((K, dec.size))
    pw = np.ones(dec.size)
    for m in range(K):
        kern[m] = alpha[m] * pw
        pw *= dec
    kern[0] -= left0
    kern[1] -= right0 * dec
    # refined first slab: source linearly interpolated between lag 0 and 1
    for tau, wgt in sub:
        fr = tau / ht
        ef = multiplier(tau)
        kern[0] += wgt * (1.0 - fr) * ef
        kern[1] += wgt * fr * ef
    spec = np.zeros((2 * K,) + (lat.M,) * (lat.dim - 1) + (lat.M // 2 + 1,), dtype=complex)
    spec[:K] = kern.reshape((K,) + spec.shape[1:])
    np.fft.fft(spec, axis=0, out=spec)
    spec.setflags(write=False)
    return spec


def apply_Js(
    g: Field,
    s: float,
    causal_tol: float = 1e-8,
    first_slab_refine: int = 4,
) -> Field:
    """Causal inverse of the fractional heat operator.

    A Volterra convolution in time: each output slice combines heat-smoothed
    earlier slices with weights from exact moments of the tau^(s-1) memory
    kernel. The first slab, where the memory kernel concentrates, is
    sub-divided `first_slab_refine` times against a time-interpolated source.
    Every weight is non-negative: the discrete operator maps non-negative
    causal data to non-negative causal output and is monotone. Output
    vanishes identically on t <= 0.

    The lag kernel depends only on (lattice, s, first_slab_refine); its
    spectrum is built on first use and cached (see _js_spectrum). A call
    costs a real FFT over space, a complex FFT over time zero-padded to 2K,
    one multiply and the inverse transforms.
    """
    lat = g.lattice
    past = ~lat.causal_mask()
    if past.any():
        vals = np.array(g.values, dtype=float)
        scale = float(np.max(np.abs(vals)))
        leak = float(np.max(np.abs(vals[past])))
        if scale > 0 and leak > causal_tol * scale:
            raise NonCausalInput(
                f"input has mass {leak:.3e} at t <= 0 (scale {scale:.3e})"
            )
        vals[past] = 0.0
    else:
        # nothing at t <= 0 to check or zero, and the transform only reads
        vals = np.asarray(g.values, dtype=float)

    kern_hat = _js_spectrum(lat, float(s), max(1, int(first_slab_refine)))
    space = tuple(range(1, 1 + lat.dim))
    # the zero-padded time axis is filled in place: no separate padded copy
    conv = np.zeros(kern_hat.shape, dtype=complex)
    head = conv[: lat.K]
    np.fft.rfftn(vals, axes=space, out=head)
    np.fft.fft(conv, axis=0, out=conv)
    conv *= kern_hat
    np.fft.ifft(conv, axis=0, out=conv)
    # irfftn's steps, with the complex ones in place on the padded buffer
    for ax in space[:-1]:
        np.fft.ifft(head, axis=ax, out=head)
    out = np.fft.irfft(head, n=lat.M, axis=space[-1])
    out[past] = 0.0
    out.setflags(write=False)  # handed to Field without a copy
    return Field(lat, out)


# ---------------------------------------------------------------------------
# kernel transform vs closed-form symbol
# ---------------------------------------------------------------------------

def symbol_of_kernel_check(
    s: float,
    dim: int = 2,
    tau_max: float = 80.0,
    u_half: float = 12.0,
    u_pts: int = 2048,
) -> float:
    """Transform the truncated Gaussian-in-space, power-in-time kernel
    numerically and compare with 2^N pi^(N/2) Gamma(s) (i theta + |xi|^2)^(-s).

    Returns the worst relative error over the frequency box. The space
    integrals are trapezoid sums in the self-similar variable u = z/sqrt(tau);
    the tau integral is panel Gauss plus analytic corrections at both ends.
    """
    xis = [
        (0.5,) + (0.0,) * (dim - 1),
        (1.0,) + (0.0,) * (dim - 1),
        (2.0,) + (0.0,) * (dim - 1),
        (4.0,) + (0.0,) * (dim - 1),
        (0.0,) * dim,
    ]
    if dim >= 2:
        xis.insert(3, (2.0 / math.sqrt(2.0), 2.0 / math.sqrt(2.0)) + (0.0,) * (dim - 2))
    thetas = [-4.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0]
    # at xi = 0 the tau tail is only oscillatory-damped; keep |theta| >= 0.5
    freq_pairs = [
        (xi, th)
        for xi in xis
        for th in thetas
        if not (all(v == 0.0 for v in xi) and abs(th) < 0.5)
    ]
    tau_min = 1e-8

    theta_max = max(abs(th) for _, th in freq_pairs)
    # geometric panels through the singular end, then width-capped panels so
    # Gauss resolves the e^(-i theta tau) oscillation out to tau_max
    osc_width = 2.0 * math.pi / (3.0 * max(theta_max, 1.0))
    edges = np.concatenate(
        [
            geometric_edges(tau_min, 1.0, 1.35),
            np.arange(1.0 + osc_width, tau_max, osc_width),
            [tau_max],
        ]
    )
    nodes, wts = gauss_legendre_panels(edges, 8)
    u = np.linspace(-u_half, u_half, u_pts)
    du = u[1] - u[0]
    gauss_u = np.exp(-0.25 * u * u)

    # 1-D factor integral: int exp(-i z v) exp(-z^2/4tau) dz = sqrt(tau)*T(v*sqrt(tau))
    uniq = sorted({abs(v) for xi, _ in freq_pairs for v in xi})
    sq = np.sqrt(nodes)
    fac = {}
    for v in uniq:
        c = v * sq
        fac[v] = sq * (np.exp(-1j * np.outer(c, u)) @ (gauss_u * du))

    worst = 0.0
    const = 2.0 ** dim * math.pi ** (dim / 2.0) * gamma_fn(s)
    pow_nodes = nodes ** (s - 1.0 - dim / 2.0)
    gpow = (4.0 * math.pi) ** (dim / 2.0)
    for xi, th in freq_pairs:
        xi2 = sum(v * v for v in xi)
        prod = np.ones_like(nodes, dtype=complex)
        for v in xi:
            prod = prod * fac[abs(v)]
        integ = np.sum(wts * pow_nodes * prod * np.exp(-1j * th * nodes))
        a = 1j * th + xi2
        # small-tau: integrand ~ (4 pi)^{N/2} tau^{s-1} (1 - a tau + ...)
        integ += gpow * (tau_min ** s / s - a * tau_min ** (s + 1.0) / (s + 1.0))
        # large-tau: three-term integration-by-parts tail of tau^{s-1} e^{-a tau}
        tail = (
            np.exp(-a * tau_max)
            * tau_max ** (s - 1.0)
            / a
            * (1.0 + (s - 1.0) / (a * tau_max) + (s - 1.0) * (s - 2.0) / (a * tau_max) ** 2)
        )
        integ += gpow * tail
        closed = const * a ** (-s)
        worst = max(worst, abs(integ - closed) / abs(closed))
    return worst


# ---------------------------------------------------------------------------
# ground-state operator
# ---------------------------------------------------------------------------

def _time_shift(vals: np.ndarray, steps: float) -> np.ndarray:
    """values(., t - tau) by linear interpolation along axis 0; slices shifted
    out of the window on the past side are treated as zero."""
    m = int(math.floor(steps))
    frac = steps - m
    out = np.zeros_like(vals)
    K = vals.shape[0]
    if m < K:
        out[m:] = (1.0 - frac) * vals[: K - m]
    if m + 1 < K:
        out[m + 1:] += frac * vals[: K - m - 1]
    return out


def _time_shift_quadratic(vals: np.ndarray, steps: float) -> np.ndarray:
    """values(., t - tau) by 3-point Lagrange interpolation along axis 0.

    Third-order accurate for smooth data; weights are signed, so this variant
    is reserved for test-function paths with no positivity contract. Out of
    window (either side) counts as zero.
    """
    m = int(math.floor(steps))
    f = steps - m
    if f == 0.0:
        return _time_shift(vals, steps)
    K = vals.shape[0]
    w_next = 0.5 * f * (f - 1.0)   # slice at lag m-1
    w_mid = 1.0 - f * f            # slice at lag m
    w_prev = 0.5 * f * (f + 1.0)   # slice at lag m+1
    out = np.zeros_like(vals)
    for lag, wgt in ((m - 1, w_next), (m, w_mid), (m + 1, w_prev)):
        if lag >= K or wgt == 0.0:
            continue
        if lag >= 0:
            out[lag:] += wgt * vals[: K - lag]
        else:
            out[: K + lag] += wgt * vals[-lag:]
    return out


def apply_Ls(phi: Field, lam: float, s: float, order_preserving: bool = False) -> Field:
    """Ground-state commutator operator.

    Uses the semigroup split of the kernel: the integrand at memory depth tau
    is phi(x,t) * S_tau[w](x) - S_tau[w * phi(., t - tau)](x) with w the
    |x|^(-mu) weight and S_tau the heat semigroup; the difference vanishes at
    tau = 0, so the tau^(-1-s) singularity is product-integrated over the
    first slab [0, hx^2].

    The default favours accuracy: the smoothed weight in closed form and a
    3-point Lagrange time shift. order_preserving=True smooths the weight on
    the lattice with the positive kernel and shifts in time by linear
    (convex) interpolation; the discrete operator then preserves the
    pointwise inequalities of its integrand exactly (used by the inequality
    checks).
    """
    lat = phi.lattice
    mu = mu_from_lambda(lam, lat.dim, s)
    r = lat.spatial_radius()
    w = r ** (-mu)
    vals = phi.values
    tau1 = lat.hx ** 2
    span = lat.T + lat.T_neg
    tau_huge = 4000.0

    if order_preserving:
        smoother, shift = heat_positive, _time_shift
    else:
        smoother, shift = heat_semigroup, _time_shift_quadratic

    def weight_profile(tau):
        if order_preserving:
            return smoother(w, lat, tau)
        return smoothed_power(r, tau, lat.dim, mu)

    def h_at(tau):
        term1 = vals * weight_profile(tau)
        term2 = smoother(w * shift(vals, tau / lat.ht), lat, tau)
        return term1 - term2

    # first slab [0, tau1], geometrically graded toward 0 where the kernel
    # concentrates; h(0) = 0 anchors the innermost product-linear rule
    grading = 4.0 ** np.arange(5, -1.0, -1.0)
    sub_edges = tau1 / grading
    acc = h_at(sub_edges[0]) * sub_edges[0] ** (-s) / (1.0 - s)
    innermost = float(np.max(np.abs(acc)))
    for a, b in zip(sub_edges[:-1], sub_edges[1:]):
        mm0 = (a ** (-s) - b ** (-s)) / s
        mm1 = (b ** (1.0 - s) - a ** (1.0 - s)) / (1.0 - s)
        acc += h_at(a) * (b * mm0 - mm1) / (b - a)
        acc += h_at(b) * (mm1 - a * mm0) / (b - a)
    # refinement budget: the unresolved innermost piece must be a small
    # fraction of the assembled first slab, else the grading was too shallow
    first_slab_scale = float(np.max(np.abs(acc)))
    if first_slab_scale > 0.0 and innermost > 0.25 * first_slab_scale:
        raise QuadratureError(
            f"first-slab refinement did not settle: innermost piece "
            f"{innermost:.3e} vs slab total {first_slab_scale:.3e}"
        )

    nodes, wts = gauss_legendre_panels(geometric_edges(tau1, span, 1.6), 4)
    for tq, wq in zip(nodes, wts):
        acc += wq * tq ** (-1.0 - s) * h_at(tq)

    # beyond the window the shifted field is zero; only the weight term is
    # left and its closed-form profile integrates out to tau_huge + tail
    nodes2, wts2 = gauss_legendre_panels(geometric_edges(span, tau_huge, 1.6), 4)
    radial = np.zeros_like(r)
    for tq, wq in zip(nodes2, wts2):
        radial += wq * tq ** (-1.0 - s) * smoothed_power(r, tq, lat.dim, mu)
    # power-law tail: the smoothed weight decays like tau^(-mu/2)
    radial += (
        smoothed_power(r, tau_huge, lat.dim, mu)
        * tau_huge ** (-s)
        / (s + mu / 2.0)
    )
    acc += vals * radial

    return Field(lat, acc / gamma_abs_neg(s))


def ground_state_residual(phi: Field, lam: float, s: float) -> float:
    """Relative residual of the ground-state identity on the annulus
    0.5 <= |x| <= 2, over a few slices in the middle of the window.

    Left side: spectral operator minus the Hardy term; right side: the
    ground-state operator applied to the |x|^mu-conjugated field. Both sides
    are computed by independent routes.
    """
    lat = phi.lattice
    mu = mu_from_lambda(lam, lat.dim, s)
    r = lat.spatial_radius()
    lhs = (
        apply_Hs_spectral(phi, s).values
        - lam * r ** (-2.0 * s) * phi.values
    )
    conj = Field(lat, phi.values * r ** mu)
    rhs = apply_Ls(conj, lam, s).values
    lo = int(0.45 * lat.K)
    hi = int(0.7 * lat.K)
    t_indices = range(lo, hi, max(1, (hi - lo) // 4))
    mask = (r >= 0.5) & (r <= 2.0)
    num = 0.0
    den = 0.0
    for k in t_indices:
        num = max(num, float(np.max(np.abs((lhs[k] - rhs[k])[mask]))))
        den = max(den, float(np.max(np.abs(lhs[k][mask]))))
    return num / max(den, 1e-300)


# ---------------------------------------------------------------------------
# closed-form radial identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialFlap:
    """The exact image of |x|^(-mu) under the order-s elliptic operator:
    lam * |x|^(-2s - mu) with lam recovered from mu."""

    lam: float
    mu: float
    s: float

    def __call__(self, r):
        return self.lam * np.asarray(r, dtype=float) ** (-2.0 * self.s - self.mu)


def radial_power_flap(mu: float, dim: int, s: float) -> RadialFlap:
    half = (dim - 2.0 * s) / 2.0
    if not 0.0 < mu <= half:
        raise ValueError(f"need 0 < mu <= {half}, got {mu}")
    return RadialFlap(lam=upsilon(half - mu, dim, s), mu=mu, s=s)


# the truncated power is cut off by a quintic blend between these fractions
# of the half-width L; the tail term adds back exactly what the blend removes
_BLEND = (0.65, 0.8)


def truncated_power_field(lat: Lattice, mu: float) -> Field:
    """Time-constant |x|^(-mu), blended smoothly to zero near the box edge
    (quintic blend over _BLEND of the half-width)."""
    r = lat.spatial_radius()
    lo, hi = _BLEND[0] * lat.L, _BLEND[1] * lat.L
    cut = 1.0 - smooth_step((r - lo) / (hi - lo))
    slab = r ** (-mu) * cut
    return Field(lat, np.broadcast_to(slab, lat.shape).copy())


def _cutoff_tail_term(radii: np.ndarray, lat: Lattice, mu: float, s: float) -> np.ndarray:
    """Contribution of the removed far field of |x|^(-mu) to the operator at
    the given radii (negative). The integrand is smooth there, so plain
    panel quadrature plus a power-law tail beyond r_far suffices."""
    dim = lat.dim
    r_far = 200.0
    n_angle = 512
    lo = _BLEND[0] * lat.L
    c_ns = frac_laplacian_constant(dim, s)
    rho_n, rho_w = gauss_legendre_panels(geometric_edges(lo, r_far, 1.2), 8)
    hi = _BLEND[1] * lat.L
    comp = smooth_step((rho_n - lo) / (hi - lo))  # 1 - cutoff
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n_angle, endpoint=False)
        ang_w = np.full(n_angle, th[1] - th[0])
        cos_t = np.cos(th)
        sphere = 2.0 * np.pi
    elif dim == 3:
        th = np.linspace(0.0, np.pi, n_angle)
        ang_w = np.gradient(th) * 2.0 * np.pi * np.sin(th)
        cos_t = np.cos(th)
        sphere = 4.0 * np.pi
    else:
        raise ValueError("tail correction implemented for dim 2 and 3")
    out = np.empty_like(radii, dtype=float)
    for i, r0 in enumerate(radii):
        d2 = rho_n[:, None] ** 2 - 2.0 * rho_n[:, None] * r0 * cos_t[None, :] + r0 * r0
        kern = d2 ** (-(dim + 2.0 * s) / 2.0)
        out[i] = np.sum(
            (rho_w * comp * rho_n ** (dim - 1.0 - mu))[:, None] * kern * ang_w[None, :]
        )
    out += sphere * r_far ** (-mu - 2.0 * s) / (mu + 2.0 * s)
    return -c_ns * out


def radial_identity_error(lat: Lattice, lam: float, s: float, pad_space: int = 2) -> float:
    """Worst pointwise relative error of the elliptic radial identity on the
    annulus 0.5 <= |x| <= 2: spectral application on the truncated power
    versus the closed form.

    The weight decays too slowly for the cut far field to be ignorable, so
    its exact contribution (a smooth independent quadrature) is added back
    before comparing against the Gamma-quotient closed form.
    """
    mu = mu_from_lambda(lam, lat.dim, s)
    fld = truncated_power_field(lat, mu)
    # time-constant input: the multiplier acts slice-wise at theta = 0
    applied = apply_Hs_spectral(fld, s, pad_space=pad_space, pad_time=1)
    flap = radial_power_flap(mu, lat.dim, s)
    r = lat.spatial_radius()
    lo, hi = 0.5, 2.0
    mask = (r >= lo) & (r <= hi)
    r_grid = np.linspace(lo * 0.99, hi * 1.01, 64)
    tail_grid = _cutoff_tail_term(r_grid, lat, mu, s)
    tail = np.interp(r[mask], r_grid, tail_grid)
    got = applied.values[lat.K // 2][mask] + tail
    want = flap(r[mask])
    return float(np.max(np.abs(got - want) / np.abs(want)))


# ---------------------------------------------------------------------------
# pointwise quadrature oracle (spot checks only)
# ---------------------------------------------------------------------------

def hs_pointwise_oracle(fn, points: Sequence, s: float, dim: int) -> np.ndarray:
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
