"""A named battery of numeric checks, one per inequality or identity the
operators are supposed to satisfy, runnable individually or as a suite, at
one pinned instance (the constants below); VerifierConfig holds the seed.

Conventions: every check reports a worst margin with the orientation
"violation is positive", and CheckReport derives passed == (worst_margin <=
tolerance). Checks are deterministic given the config seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from .constants import (
    extension_constant,
    frac_laplacian_constant,
    lambda_max,
    mu_from_lambda,
)
from .extension import PhiProfile, extension_checks
from .kernels import (
    apply_Hs_spectral,
    apply_Js,
    apply_Ls,
    ground_state_residual,
    radial_identity_error,
    symbol_of_kernel_check,
)
from .lattice import Field, make_lattice, sample
from .solver import strict_dumps
from .special import gauss_legendre_panels, geometric_edges, smooth_step


class UnknownCheck(KeyError):
    pass


# the pinned instance: N, s, lam / lambda_max, the space-time window and
# its lattice
DIM = 2
S = 0.5
LAM_FRAC = 0.5
L = 8.0
T_NEG = 1.5
T = 4.5
K = 48
M = 64
# the sampled checks take a worst margin over this many test functions
# (adjoint over pairs of them)
N_SAMPLES = 20
# support radii of the spatial and the half-space test bumps
BUMP_RADIUS = 6.0
HALF_BALL_RADIUS = 2.0


def lam() -> float:
    """The pinned coupling, read at call time."""
    return LAM_FRAC * lambda_max(DIM, S)


def pinned_lattice():
    """The pinned window's lattice, read at call time."""
    return make_lattice(DIM, L, M, T_NEG, T, K)


@dataclass(frozen=True)
class VerifierConfig:
    seed: int = 0


@dataclass
class CheckReport:
    """One check's outcome. passed is derived, worst_margin <= tolerance, so
    a NaN or infinite margin fails."""

    check_id: str
    passed: bool = field(init=False)
    worst_margin: float
    tolerance: float
    sample_count: int
    params: dict

    def __post_init__(self):
        # checks compute in numpy; the report keeps plain Python scalars so
        # it serialises as JSON
        self.worst_margin = float(self.worst_margin)
        self.tolerance = float(self.tolerance)
        self.sample_count = int(self.sample_count)
        self.passed = self.worst_margin <= self.tolerance


CHECKS: Dict[str, Callable[[VerifierConfig], CheckReport]] = {}


def _check(check_id: str, tolerance: float):
    """Register a body rng -> (worst_margin, sample_count, params) as the
    check check_id at tolerance; its generator is seeded by the config seed
    and the id."""

    def register(body):
        def run(cfg: VerifierConfig) -> CheckReport:
            rng = np.random.default_rng([cfg.seed, zlib.crc32(check_id.encode())])
            worst, count, params = body(rng)
            return CheckReport(check_id, worst, tolerance, count, params)

        CHECKS[check_id] = run
        return body

    return register


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def spacetime_fields(rng, lat, n) -> Iterator[Field]:
    """Tensor Gaussians, shifted compact bumps, and random trigonometric
    polynomials under a smooth envelope, all decaying safely inside the
    window (the spectral operator rejects edge kinks). Lazy: each field is
    drawn and sampled when the caller asks for it."""
    t_mid = 0.5 * (lat.t_axis()[0] + lat.t_axis()[-1])
    t_span = lat.T + lat.T_neg
    for i in range(n):
        kind = i % 3
        cx = rng.uniform(-0.15 * lat.L, 0.15 * lat.L, lat.dim)
        ct = t_mid + rng.uniform(-0.08, 0.08) * t_span
        wx = rng.uniform(0.7, 1.4)
        wt = rng.uniform(0.28, 0.5)
        # each fn is sampled before the next draw, so closures suffice
        if kind == 0:

            def fn(t, *xs):
                q = sum((x - c) ** 2 for x, c in zip(xs, cx))
                return np.exp(-q / wx - (t - ct) ** 2 / wt)

        elif kind == 1:
            rad = rng.uniform(0.25 * lat.L, 0.4 * lat.L)

            def fn(t, *xs):
                q = np.sqrt(sum((x - c) ** 2 for x, c in zip(xs, cx)))
                cut = 1.0 - smooth_step(q / rad)
                return cut * np.exp(-(t - ct) ** 2 / wt)

        else:
            ks = rng.integers(1, 4, size=(3, lat.dim))
            cs = rng.standard_normal(3)

            def fn(t, *xs):
                q = sum((x - c) ** 2 for x, c in zip(xs, cx))
                env = np.exp(-q / wx - (t - ct) ** 2 / wt)
                trig = 0.0
                for c, kk in zip(cs, ks):
                    term = c
                    for k, x in zip(kk, xs):
                        term = term * np.cos(k * x)
                    trig = trig + term
                return env * (1.5 + trig)

        yield sample(fn, lat)


def positive_spacetime_fields(rng, lat, n) -> Iterator[Field]:
    """Non-negative smooth bumps for the order-preserving checks, drawn
    lazily as in spacetime_fields."""
    t_mid = 0.5 * (lat.t_axis()[0] + lat.t_axis()[-1])
    for _ in range(n):
        cx = rng.uniform(-0.12 * lat.L, 0.12 * lat.L, lat.dim)
        ct = t_mid + rng.uniform(-0.06, 0.06) * (lat.T + lat.T_neg)
        wx = rng.uniform(0.8, 1.5)
        wt = rng.uniform(0.3, 0.5)
        amp = rng.uniform(0.5, 2.0)

        def fn(t, *xs):
            q = sum((x - c) ** 2 for x, c in zip(xs, cx))
            return amp * np.exp(-q / wx - (t - ct) ** 2 / wt)

        yield sample(fn, lat)


def _spatial_bump(cx, wd, amp, *xs):
    q = sum((x - c) ** 2 for x, c in zip(xs, cx))
    rr = np.sqrt(sum(x * x for x in xs))
    cut = 1.0 - smooth_step((rr - 0.55 * BUMP_RADIUS) / (0.3 * BUMP_RADIUS))
    return amp * np.exp(-q / wd) * cut


def spatial_bumps(rng, n):
    """Closed-form compact spatial bumps with support inside |x| < BUMP_RADIUS;
    partial binds each one's draws, so the list may be built first."""
    radius = BUMP_RADIUS
    out = []
    for _ in range(n):
        cx = rng.uniform(-0.25 * radius, 0.25 * radius, DIM)
        wd = rng.uniform(0.5, 1.5)
        amp = rng.uniform(0.5, 2.0)
        out.append(partial(_spatial_bump, cx, wd, amp))
    return out


def _halfspace_bump(cx, cy, wd, amp, y, *xs):
    q = sum((x - c) ** 2 for x, c in zip(xs, cx)) + (y - cy) ** 2
    zz = np.sqrt(sum(x * x for x in xs) + y * y)
    cut = 1.0 - smooth_step((zz - 0.5 * HALF_BALL_RADIUS) / (0.35 * HALF_BALL_RADIUS))
    return amp * np.exp(-q / (wd * wd)) * cut


def halfspace_bumps(rng, n):
    """Smooth bumps on the upper half space, compact inside the half ball of
    radius HALF_BALL_RADIUS, not vanishing at the base; bound as in
    spatial_bumps."""
    radius = HALF_BALL_RADIUS
    out = []
    for _ in range(n):
        cx = rng.uniform(-0.3 * radius, 0.3 * radius, DIM)
        cy = rng.uniform(0.0, 0.3 * radius)
        wd = rng.uniform(0.15, 0.5) * radius
        amp = rng.uniform(0.5, 2.0)
        out.append(partial(_halfspace_bump, cx, cy, wd, amp))
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _gagliardo_form(n: int, h: float, dim: int, s: float):
    """phi -> sum over i != j of (phi_i - phi_j)^2 |x_i - x_j|^(-N-2s) on the
    n^N grid of spacing h, with no n^N x n^N array.

    The kernel K depends on i - j alone, so the form is
    2 (sum phi^2 K1 - sum phi K phi), and K is applied as a zero-padded real
    FFT convolution with its values on the (2n-1)^N offset grid (zero at the
    origin), padded to the full linear convolution's 3n-2 per axis so that
    no term wraps.
    """
    offs = np.meshgrid(*([np.arange(1 - n, n) * h] * dim), indexing="ij", sparse=True)
    d2 = sum(o * o for o in offs)
    origin = (n - 1,) * dim
    d2[origin] = 1.0
    kern = d2 ** (-(dim + 2.0 * s) / 2.0)
    kern[origin] = 0.0
    pad = (3 * n - 2,) * dim
    axes = tuple(range(dim))
    kern_hat = np.fft.rfftn(kern, s=pad, axes=axes)
    valid = (slice(n - 1, 2 * n - 1),) * dim

    def apply_kern(v):
        return np.fft.irfftn(np.fft.rfftn(v, s=pad, axes=axes) * kern_hat, s=pad, axes=axes)[valid]

    row_sums = apply_kern(np.ones((n,) * dim))

    def form(phi):
        return 2.0 * (np.sum(phi * phi * row_sums) - np.sum(phi * apply_kern(phi)))

    return form


@_check("hardy", 1e-3)
def _check_hardy(rng):
    """One-sided: the Hardy form never exceeds the (-Lap)^s energy, the
    Gagliardo double integral times half the normaliser of (-Lap)^s
    (quadrature under-counts the singular diagonal, which is conservative)."""
    dim, s = DIM, S
    lmax = lambda_max(dim, s)
    rad = BUMP_RADIUS
    n_grid = 48
    ax = -rad + (np.arange(n_grid) + 0.5) * (2 * rad / n_grid)
    h = ax[1] - ax[0]
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    r2 = sum(g * g for g in grids)
    gagliardo = _gagliardo_form(n_grid, h, dim, s)
    energy_const = frac_laplacian_constant(dim, s) / 2.0
    worst = -math.inf
    for fn in spatial_bumps(rng, N_SAMPLES):
        phi = fn(*grids)
        lhs = lmax * np.sum(phi * phi * r2 ** (-s)) * h ** dim
        rhs = energy_const * gagliardo(phi) * h ** (2 * dim)
        worst = max(worst, (lhs - rhs) / rhs)
    return worst, N_SAMPLES, {"dim": dim, "s": s, "n_grid": n_grid}


def _fd_grad_sq(fn, y, xs):
    h = 1e-5
    total = 0.0
    for d in range(len(xs)):
        bumped = list(xs)
        bumped[d] = xs[d] + h
        up = fn(y, *bumped)
        bumped[d] = xs[d] - h
        dn = fn(y, *bumped)
        total = total + ((up - dn) / (2 * h)) ** 2
    up = fn(y + h, *xs)
    dn = fn(y - h, *xs)
    total = total + ((up - dn) / (2 * h)) ** 2
    return total


def _halfspace_energy_margin(rng, coupling: float) -> float:
    """Worst (boundary - energy) / energy over the check's half-space bumps:
    boundary is kappa_s * coupling times the Hardy term of the base trace,
    energy the y^(1-2s)-weighted gradient energy."""
    s = S
    kappa = extension_constant(s)
    rad = HALF_BALL_RADIUS
    n_x, n_y = 40, 24
    ax = -rad + (np.arange(n_x) + 0.5) * (2 * rad / n_x)
    ay = (np.arange(n_y) + 0.5) * (rad / n_y)
    hx = ax[1] - ax[0]
    hy = ay[1] - ay[0]
    *xs, y = np.meshgrid(*([ax] * DIM + [ay]), indexing="ij")
    rx2 = sum(x * x for x in xs)
    weight = y ** (1.0 - 2.0 * s)
    worst = -math.inf
    for fn in halfspace_bumps(rng, N_SAMPLES):
        energy = np.sum(weight * _fd_grad_sq(fn, y, xs)) * hx ** DIM * hy
        base = fn(0.0, *[x[..., 0] for x in xs])
        boundary = kappa * coupling * np.sum(base * base * rx2[..., 0] ** (-s)) * hx ** DIM
        worst = max(worst, (boundary - energy) / energy)
    return worst


@_check("hardy_extended", 1e-3)
def _check_hardy_extended(rng):
    """Weighted-gradient Hardy form on the half space."""
    return _halfspace_energy_margin(rng, lambda_max(DIM, S)), N_SAMPLES, {"dim": DIM, "s": S}


@_check("kato", 1e-10)
def _check_kato(rng):
    """Order-preserving power rule for the ground-state operator; with the
    order-preserving quadrature the discrete inequality is exact, so the
    slack is pure rounding."""
    lat = make_lattice(DIM, L, 32, T_NEG, T, 32)
    coupling = lam()
    worst = -math.inf
    ms = [1.5, 2.0, 3.0]
    for i, phi in enumerate(positive_spacetime_fields(rng, lat, N_SAMPLES)):
        m = ms[i % len(ms)]
        ls_phi = apply_Ls(phi, coupling, S, order_preserving=True)
        phim = Field(lat, phi.values ** m)
        ls_phim = apply_Ls(phim, coupling, S, order_preserving=True)
        rhs = m * phi.values ** (m - 1.0) * ls_phi.values
        gap = ls_phim.values - rhs
        scale = float(np.max(np.abs(ls_phim.values)))
        worst = max(worst, float(np.max(gap)) / max(scale, 1e-300))
    return worst, N_SAMPLES, {"dim": DIM, "s": S, "lam": coupling, "powers": ms}


@_check("algebra_ab", 1e-12)
def _check_algebra_ab(rng):
    n = 4000
    a = rng.uniform(0.0, 5.0, n)
    b = rng.uniform(0.0, 5.0, n)
    m = rng.uniform(1.0 + 1e-6, 5.0, n)
    lhs = a ** m - b ** m
    rhs = m * a ** (m - 1.0) * (a - b)
    scale = np.maximum(np.abs(lhs), 1.0)
    return float(np.max((lhs - rhs) / scale)), n, {}


@_check("algebra_abs", 1e-12)
def _check_algebra_abs(rng):
    """Subadditivity constant: C is the sup of (1+t)^s / (1+t^s)."""
    s = S
    # t^s is concave and 0 at 0, so (1+t)^s <= 1 + t^s; the sup 1 is the limit t -> 0 or t -> inf
    c_const = 1.0
    n = 4000
    a = rng.uniform(0.0, 10.0, n)
    b = rng.uniform(0.0, 10.0, n)
    lhs = (a + b) ** s
    rhs = c_const * (a ** s + b ** s)
    return float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300))), n, {"s": s, "C": c_const}


def _sphere_kernel(sigma: float, mu: float) -> float:
    """Integral over the unit circle (N = 2) of |x' - sigma y'|^(-mu); graded
    panels resolve the touching case sigma = 1 where the integrand peaks at
    angle 0."""
    pans, wts = gauss_legendre_panels(
        np.concatenate([[1e-9], geometric_edges(1e-9, math.pi, 1.25)]), 8
    )
    d2 = 1.0 - 2.0 * sigma * np.cos(pans) + sigma * sigma
    d2 = np.maximum(d2, 1e-300)
    return 2.0 * float(np.sum(wts * d2 ** (-mu / 2.0)))


def _sphere_kernel_rotated(sigma: float, mu: float, beta: float) -> float:
    """Same circle integral, but from the raw definition with the reference
    direction rotated by beta and a plain uniform angular grid (resolvable
    away from sigma = 1)."""
    th = np.linspace(0.0, 2.0 * math.pi, 200001, endpoint=False)
    d2 = 1.0 - 2.0 * sigma * np.cos(th - beta) + sigma * sigma
    return float(np.mean(d2 ** (-mu / 2.0)) * 2.0 * math.pi)


@_check("radial_K", 1e-6)
def _check_radial_K(rng):
    """The sphere average of the shifted power is finite across the scale
    ratio (including the touching case) and independent of the reference
    direction."""
    mu = mu_from_lambda(lam(), DIM, S)
    sigmas = [0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]
    vals = {sg: _sphere_kernel(sg, mu) for sg in sigmas}
    worst_dir = 0.0
    for sg in (0.5, 2.0):
        for beta in (0.0, 1.1, 2.6):
            rot = _sphere_kernel_rotated(sg, mu, beta)
            worst_dir = max(worst_dir, abs(rot - vals[sg]) / vals[sg])
    finite = all(math.isfinite(v) for v in vals.values())
    worst = worst_dir if finite else math.inf
    return worst, len(sigmas), {"mu": mu, "sup": max(vals.values()) if finite else None}


@_check("symbol", 1e-3)
def _check_symbol(rng):
    return symbol_of_kernel_check(S), 1, {"s": S}


@_check("inversion", 1e-2)
def _check_inversion(rng):
    phi = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 1.5 - (t - 1.5) ** 2 / 0.35),
        make_lattice(DIM, L, 64, T_NEG, T, 64),
    )
    h = apply_Hs_spectral(phi, S, pad_space=2, pad_time=2)
    j = apply_Js(h, S, causal_tol=0.05)
    worst = float(np.max(np.abs(j.values - phi.values)) / np.max(np.abs(phi.values)))
    return worst, 1, {"dim": DIM, "s": S, "lattice": "64^dim x 64"}


@_check("semigroup", 1e-2)
def _check_semigroup(rng):
    lat = make_lattice(DIM, L, 64, T_NEG, T, 64)
    g = sample(
        lambda t, *xs: smooth_step((t - 0.25) / 0.5)
        * (1.0 - smooth_step((t - 1.25) / 0.5))
        * np.exp(-sum(x * x for x in xs)),
        lat,
    )
    j_half = apply_Js(g, 0.5)
    j_comp = apply_Js(apply_Js(g, 0.2), 0.3)
    worst = float(np.max(np.abs(j_comp.values - j_half.values)) / np.max(np.abs(j_half.values)))
    return worst, 1, {"alpha": 0.3, "beta": 0.2}


@_check("adjoint", 1e-8)
def _check_adjoint(rng):
    """Inner-product symmetry of the operator under full space-time
    reflection. Index reversal realises the reflection exactly only on a
    window symmetric about the origin, so the check builds its own."""
    lat = make_lattice(DIM, L, M, 4.0, 4.0, 48)
    worst = -math.inf
    fields = spacetime_fields(rng, lat, N_SAMPLES)
    vol = lat.cell_volume * lat.ht
    flip = (slice(None, None, -1),) * (lat.dim + 1)
    # consecutive fields pair up, and only the pair in use is alive
    for phi, psi in zip(fields, fields):
        h_phi = apply_Hs_spectral(phi, S).values
        lhs = float(np.sum(h_phi * psi.values) * vol)
        psi_r = Field(lat, psi.values[flip])
        h_psir = apply_Hs_spectral(psi_r, S).values
        rhs = float(np.sum(phi.values[flip] * h_psir) * vol)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, N_SAMPLES, {"dim": DIM, "s": S}


@_check("ground_state", 5e-2)
def _check_ground_state(rng):
    phi = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 1.5 - (t - 1.5) ** 2 / 0.35),
        pinned_lattice(),
    )
    return ground_state_residual(phi, lam(), S), 1, {"dim": DIM, "s": S, "lam": lam(), "M": M}


@_check("radial_flap", 5e-2)
def _check_radial_flap(rng):
    lat = make_lattice(DIM, 12.0, 128, 0.5, 0.5, 8)
    return radial_identity_error(lat, lam(), S), 1, {"dim": DIM, "s": S, "lam": lam()}


@_check("extension", 0.0)
def _check_extension(rng):
    w = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 2.5 - (t - 1.6) ** 2 / 0.4),
        pinned_lattice(),
    )
    trace_err, neumann_err = extension_checks(w, S, extension_constant(S))
    worst = max(trace_err - 2e-2, neumann_err - 5e-2)
    return worst, 1, {"trace_err": trace_err, "neumann_err": neumann_err}


def _angular_profile_table(profile):
    """Honest profile values on the upper unit hemisphere of R^(N+1), N = 2,
    with the polar angle graded toward the base where the degenerate |y|
    powers live. Returns (y_unit, surface weights, profile values)."""
    gap_n, gap_w = gauss_legendre_panels(
        np.concatenate([[1e-6], geometric_edges(1e-6, math.pi / 2.0, 1.35)]), 6
    )
    y_unit = np.sin(gap_n)
    x_unit = np.cos(gap_n)
    ring = 2.0 * math.pi * x_unit
    vals = profile.value(x_unit, y_unit)
    return y_unit, ring * gap_w, vals


def _ball_integral_factored(y_unit, surf_w, prof_vals, mu, r, s, sign):
    """Integral over the ball of radius r (both half spaces) of
    |y|^(sign(1-2s)) profile^(2 sign), with the profile factored radially as
    rho^(-mu) x (angular value); homogeneity of the profile is verified by
    its own invariant tests."""
    e = sign * (1.0 - 2.0 * s)
    rad_n, rad_w = gauss_legendre_panels(geometric_edges(1e-4 * r, r, 1.6), 6)
    radial = float(np.sum(rad_w * rad_n ** (DIM + e - 2.0 * sign * mu)))
    angular = float(np.sum(surf_w * y_unit ** e * prof_vals ** (2.0 * sign)))
    return 2.0 * radial * angular


@_check("muckenhoupt", 0.5)
def _check_muckenhoupt(rng):
    """Doubling-weight product over a dyadic radius sweep: for the reflected
    squared profile with the degenerate |y| power, the normalised product
    must stay level across scales."""
    prof = PhiProfile(lam(), DIM, S)
    y_unit, surf_w, vals = _angular_profile_table(prof)
    radii = [2.0 ** k for k in range(-4, 5)]
    prods = []
    for r in radii:
        a = _ball_integral_factored(y_unit, surf_w, vals, prof.mu, r, S, +1)
        b = _ball_integral_factored(y_unit, surf_w, vals, prof.mu, r, S, -1)
        # doubling normalisation in the ambient dimension dim + 1
        prods.append(r ** (-2.0 * (DIM + 1.0)) * a * b)
    worst = max(prods) / min(prods) - 1.0
    return worst, len(radii), {"sup_product": max(prods), "dim": DIM + 1}


@_check("picone", 1e-3)
def _check_picone(rng):
    """Energy lower bound with the singular profile as the divisor: the
    weighted gradient energy dominates the Hardy boundary term at coupling
    lam < lambda_max."""
    return _halfspace_energy_margin(rng, lam()), N_SAMPLES, {"dim": DIM, "s": S, "lam": lam()}


# a finiteness guard: the constant itself is not pinned
@_check("ls_bound", 1e3)
def _check_ls_bound(rng):
    """|x|^mu |L^s phi| stays bounded by the field's C^2-type norms times a
    finite constant; the check asserts finiteness of the sampled sup."""
    lat = make_lattice(DIM, L, 32, T_NEG, T, 32)
    coupling = lam()
    mu = mu_from_lambda(coupling, DIM, S)
    r = lat.spatial_radius()
    mask = (r >= 0.5) & (r <= 0.5 * lat.L)
    worst = 0.0
    for phi in positive_spacetime_fields(rng, lat, N_SAMPLES):
        ls = apply_Ls(phi, coupling, S)
        v = phi.values
        g_t = np.gradient(v, lat.ht, axis=0)
        g_x = [np.gradient(v, lat.hx, axis=1 + d) for d in range(lat.dim)]
        g2 = [np.gradient(g, lat.hx, axis=1 + d) for d, g in enumerate(g_x)]
        norms = (
            float(np.max(np.abs(v)))
            + float(np.max(np.sqrt(g_t ** 2 + sum(g * g for g in g_x))))
            + float(np.max(np.abs(np.stack(g2))))
        )
        ratio = float(np.max(np.abs(ls.values[:, mask]) * r[mask] ** mu)) / norms
        worst = max(worst, ratio)
    return worst, N_SAMPLES, {"dim": DIM, "s": S, "lam": coupling}


def run_suite(
    check_ids: Optional[Sequence[str]] = None,
    config: Optional[VerifierConfig] = None,
) -> List[CheckReport]:
    """The named checks (default: all), each once however often it is
    named, run serially in check-id order."""
    config = config or VerifierConfig()
    ids = sorted(set(check_ids or CHECKS))
    for cid in ids:
        if cid not in CHECKS:
            raise UnknownCheck(cid)
    return [CHECKS[c](config) for c in ids]


def run_check(check_id: str, config: Optional[VerifierConfig] = None) -> CheckReport:
    return run_suite([check_id], config)[0]


def suite_to_json(reports: Sequence[CheckReport]) -> str:
    """Strict JSON, non-finite floats spelled by json_float (radial_K's margin is inf by design)."""
    return strict_dumps([asdict(r) for r in reports], indent=2)
