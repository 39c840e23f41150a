"""A named battery of numeric checks, one per inequality or identity the
operators are supposed to satisfy, runnable individually or as a suite.

Conventions: every check reports a worst margin with the orientation
"violation is positive", and CheckReport derives passed == (worst_margin <=
tolerance). Checks are deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
from .special import gauss_legendre_panels, geometric_edges, smooth_step


class UnknownCheck(KeyError):
    pass


@dataclass(frozen=True)
class VerifierConfig:
    seed: int = 0
    n_samples: int = 20
    dim: int = 2
    s: float = 0.5
    lam_frac: float = 0.5
    L: float = 8.0
    M: int = 64
    T_neg: float = 1.5
    T: float = 4.5
    K: int = 48

    @property
    def lam(self) -> float:
        return self.lam_frac * lambda_max(self.dim, self.s)

    def lattice(self, M: Optional[int] = None, K: Optional[int] = None):
        return make_lattice(self.dim, self.L, M or self.M, self.T_neg, self.T, K or self.K)

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])


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

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def spacetime_fields(rng, lat, n) -> List[Field]:
    """Tensor Gaussians, shifted compact bumps, and random trigonometric
    polynomials under a smooth envelope, all decaying safely inside the
    window (the spectral operator rejects edge kinks)."""
    t_mid = 0.5 * (lat.t_axis()[0] + lat.t_axis()[-1])
    t_span = lat.T + lat.T_neg
    out = []
    for i in range(n):
        kind = i % 3
        cx = rng.uniform(-0.15 * lat.L, 0.15 * lat.L, lat.dim)
        ct = t_mid + rng.uniform(-0.08, 0.08) * t_span
        wx = rng.uniform(0.7, 1.4)
        wt = rng.uniform(0.28, 0.5)
        if kind == 0:

            def fn(t, *xs, cx=cx, ct=ct, wx=wx, wt=wt):
                q = sum((x - c) ** 2 for x, c in zip(xs, cx))
                return np.exp(-q / wx - (t - ct) ** 2 / wt)

        elif kind == 1:
            rad = rng.uniform(0.25 * lat.L, 0.4 * lat.L)

            def fn(t, *xs, cx=cx, ct=ct, wt=wt, rad=rad):
                q = np.sqrt(sum((x - c) ** 2 for x, c in zip(xs, cx)))
                cut = 1.0 - smooth_step(q / rad)
                return cut * np.exp(-(t - ct) ** 2 / wt)

        else:
            ks = rng.integers(1, 4, size=(3, lat.dim))
            cs = rng.standard_normal(3)

            def fn(t, *xs, cx=cx, ct=ct, wx=wx, wt=wt, ks=ks, cs=cs):
                q = sum((x - c) ** 2 for x, c in zip(xs, cx))
                env = np.exp(-q / wx - (t - ct) ** 2 / wt)
                trig = 0.0
                for c, kk in zip(cs, ks):
                    term = c
                    for k, x in zip(kk, xs):
                        term = term * np.cos(k * x)
                    trig = trig + term
                return env * (1.5 + trig)

        out.append(sample(fn, lat))
    return out


def positive_spacetime_fields(rng, lat, n) -> List[Field]:
    """Non-negative smooth bumps for the order-preserving checks."""
    fields = []
    t_mid = 0.5 * (lat.t_axis()[0] + lat.t_axis()[-1])
    for _ in range(n):
        cx = rng.uniform(-0.12 * lat.L, 0.12 * lat.L, lat.dim)
        ct = t_mid + rng.uniform(-0.06, 0.06) * (lat.T + lat.T_neg)
        wx = rng.uniform(0.8, 1.5)
        wt = rng.uniform(0.3, 0.5)
        amp = rng.uniform(0.5, 2.0)

        def fn(t, *xs, cx=cx, ct=ct, wx=wx, wt=wt, amp=amp):
            q = sum((x - c) ** 2 for x, c in zip(xs, cx))
            return amp * np.exp(-q / wx - (t - ct) ** 2 / wt)

        fields.append(sample(fn, lat))
    return fields


def spatial_bumps(rng, dim, n, radius=6.0):
    """Closed-form compact spatial bumps with support inside |x| < radius."""
    out = []
    for _ in range(n):
        cx = rng.uniform(-0.25 * radius, 0.25 * radius, dim)
        wd = rng.uniform(0.5, 1.5)
        amp = rng.uniform(0.5, 2.0)

        def fn(*xs, cx=cx, wd=wd, amp=amp):
            q = sum((x - c) ** 2 for x, c in zip(xs, cx))
            rr = np.sqrt(sum(x * x for x in xs))
            cut = 1.0 - smooth_step((rr - 0.55 * radius) / (0.3 * radius))
            return amp * np.exp(-q / wd) * cut

        out.append(fn)
    return out


def halfspace_bumps(rng, dim, n, radius=2.0):
    """Smooth bumps on the upper half space, compact inside the half ball of
    the given radius, not vanishing at the base."""
    out = []
    for _ in range(n):
        cx = rng.uniform(-0.3 * radius, 0.3 * radius, dim)
        cy = rng.uniform(0.0, 0.3 * radius)
        wd = rng.uniform(0.15, 0.5) * radius
        amp = rng.uniform(0.5, 2.0)

        def fn(y, *xs, cx=cx, cy=cy, wd=wd, amp=amp):
            q = sum((x - c) ** 2 for x, c in zip(xs, cx)) + (y - cy) ** 2
            zz = np.sqrt(sum(x * x for x in xs) + y * y)
            cut = 1.0 - smooth_step((zz - 0.5 * radius) / (0.35 * radius))
            return amp * np.exp(-q / (wd * wd)) * cut

        out.append(fn)
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_hardy(cfg: VerifierConfig) -> CheckReport:
    """One-sided: the Hardy form never exceeds the (-Lap)^s energy, the
    Gagliardo double integral times half the normaliser of (-Lap)^s
    (quadrature under-counts the singular diagonal, which is conservative)."""
    rng = cfg.rng("hardy")
    dim, s = cfg.dim, cfg.s
    lmax = lambda_max(dim, s)
    rad = 6.0
    n_grid = 48
    ax = -rad + (np.arange(n_grid) + 0.5) * (2 * rad / n_grid)
    h = ax[1] - ax[0]
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    r2 = np.sum(pts * pts, axis=1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, 1.0)
    kern = d2 ** (-(dim + 2.0 * s) / 2.0)
    np.fill_diagonal(kern, 0.0)
    energy_const = frac_laplacian_constant(dim, s) / 2.0
    worst = -math.inf
    for fn in spatial_bumps(rng, dim, cfg.n_samples, radius=rad):
        phi = fn(*[pts[:, d] for d in range(dim)])
        lhs = lmax * np.sum(phi * phi * r2 ** (-s)) * h ** dim
        rhs = energy_const * np.sum((phi[:, None] - phi[None, :]) ** 2 * kern) * h ** (2 * dim)
        worst = max(worst, (lhs - rhs) / rhs)
    tol = 1e-3
    return CheckReport("hardy", worst, tol, cfg.n_samples,
                       {"dim": dim, "s": s, "n_grid": n_grid})


def _halfspace_grid(dim, radius, n_x=40, n_y=24):
    ax = -radius + (np.arange(n_x) + 0.5) * (2 * radius / n_x)
    ay = (np.arange(n_y) + 0.5) * (radius / n_y)
    hx = ax[1] - ax[0]
    hy = ay[1] - ay[0]
    grids = np.meshgrid(*([ax] * dim + [ay]), indexing="ij")
    return grids, hx, hy


def _fd_grad_sq(fn, y, xs, h=1e-5):
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


def _halfspace_energy_margin(cfg: VerifierConfig, check_id: str, coupling: float) -> float:
    """Worst (boundary - energy) / energy over the check's half-space bumps:
    boundary is kappa_s * coupling times the Hardy term of the base trace,
    energy the y^(1-2s)-weighted gradient energy."""
    rng = cfg.rng(check_id)
    dim, s = cfg.dim, cfg.s
    kappa = extension_constant(s)
    rad = 2.0
    grids, hx, hy = _halfspace_grid(dim, rad)
    xs, y = grids[:-1], grids[-1]
    rx2 = sum(x * x for x in xs)
    weight = y ** (1.0 - 2.0 * s)
    worst = -math.inf
    for fn in halfspace_bumps(rng, dim, cfg.n_samples, radius=rad):
        energy = np.sum(weight * _fd_grad_sq(fn, y, list(xs))) * hx ** dim * hy
        base = fn(0.0, *[x[..., 0] for x in xs])
        boundary = kappa * coupling * np.sum(base * base * rx2[..., 0] ** (-s)) * hx ** dim
        worst = max(worst, (boundary - energy) / energy)
    return worst


def _check_hardy_extended(cfg: VerifierConfig) -> CheckReport:
    """Weighted-gradient Hardy form on the half space."""
    worst = _halfspace_energy_margin(cfg, "hardy_extended", lambda_max(cfg.dim, cfg.s))
    tol = 1e-3
    return CheckReport("hardy_extended", worst, tol, cfg.n_samples,
                       {"dim": cfg.dim, "s": cfg.s})


def _check_kato(cfg: VerifierConfig) -> CheckReport:
    """Order-preserving power rule for the ground-state operator; with the
    order-preserving quadrature the discrete inequality is exact, so the
    slack is pure rounding."""
    rng = cfg.rng("kato")
    lat = cfg.lattice(M=32, K=32)
    worst = -math.inf
    scale_ref = 0.0
    ms = [1.5, 2.0, 3.0]
    for i, phi in enumerate(positive_spacetime_fields(rng, lat, cfg.n_samples)):
        m = ms[i % len(ms)]
        ls_phi = apply_Ls(phi, cfg.lam, cfg.s, order_preserving=True)
        phim = Field(lat, phi.values ** m)
        ls_phim = apply_Ls(phim, cfg.lam, cfg.s, order_preserving=True)
        rhs = m * phi.values ** (m - 1.0) * ls_phi.values
        gap = ls_phim.values - rhs
        scale = float(np.max(np.abs(ls_phim.values)))
        scale_ref = max(scale_ref, scale)
        worst = max(worst, float(np.max(gap)) / max(scale, 1e-300))
    tol = 1e-10
    return CheckReport("kato", worst, tol, cfg.n_samples,
                       {"dim": cfg.dim, "s": cfg.s, "lam": cfg.lam, "powers": ms})


def _check_algebra_ab(cfg: VerifierConfig) -> CheckReport:
    rng = cfg.rng("algebra_ab")
    n = 4000
    a = rng.uniform(0.0, 5.0, n)
    b = rng.uniform(0.0, 5.0, n)
    m = rng.uniform(1.0 + 1e-6, 5.0, n)
    lhs = a ** m - b ** m
    rhs = m * a ** (m - 1.0) * (a - b)
    scale = np.maximum(np.abs(lhs), 1.0)
    worst = float(np.max((lhs - rhs) / scale))
    tol = 1e-12
    return CheckReport("algebra_ab", worst, tol, n, {})


def _check_algebra_abs(cfg: VerifierConfig) -> CheckReport:
    """Subadditivity constant: C is the sup of (1+t)^s / (1+t^s), evaluated
    on a dense grid with the analytic endpoint limits."""
    rng = cfg.rng("algebra_abs")
    s = cfg.s
    t = np.geomspace(1e-9, 1e9, 20001)
    c_const = max(float(np.max((1.0 + t) ** s / (1.0 + t ** s))), 1.0)
    n = 4000
    a = rng.uniform(0.0, 10.0, n)
    b = rng.uniform(0.0, 10.0, n)
    lhs = (a + b) ** s
    rhs = c_const * (a ** s + b ** s)
    worst = float(np.max((lhs - rhs) / np.maximum(rhs, 1e-300)))
    tol = 1e-12
    return CheckReport("algebra_abs", worst, tol, n,
                       {"s": s, "C": c_const})


def _sphere_kernel(sigma: float, mu: float, dim: int) -> float:
    """Integral over the unit sphere of |x' - sigma y'|^(-mu); graded panels
    resolve the touching case sigma = 1 where the integrand peaks at angle 0."""
    pans, wts = gauss_legendre_panels(
        np.concatenate([[1e-9], geometric_edges(1e-9, math.pi, 1.25)]), 8
    )
    d2 = 1.0 - 2.0 * sigma * np.cos(pans) + sigma * sigma
    d2 = np.maximum(d2, 1e-300)
    if dim == 2:
        return 2.0 * float(np.sum(wts * d2 ** (-mu / 2.0)))
    return 2.0 * math.pi * float(np.sum(wts * np.sin(pans) * d2 ** (-mu / 2.0)))


def _sphere_kernel_rotated(sigma: float, mu: float, beta: float, n: int = 200001) -> float:
    """Same surface integral for dim 2, but from the raw definition with the
    reference direction rotated by beta and a plain uniform angular grid
    (resolvable away from sigma = 1)."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    d2 = 1.0 - 2.0 * sigma * np.cos(th - beta) + sigma * sigma
    return float(np.mean(d2 ** (-mu / 2.0)) * 2.0 * math.pi)


def _check_radial_K(cfg: VerifierConfig) -> CheckReport:
    """The sphere average of the shifted power is finite across the scale
    ratio (including the touching case) and independent of the reference
    direction."""
    mu = mu_from_lambda(cfg.lam, cfg.dim, cfg.s)
    sigmas = [0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]
    vals = [_sphere_kernel(sg, mu, cfg.dim) for sg in sigmas]
    worst_dir = 0.0
    if cfg.dim == 2:
        for sg in (0.5, 2.0):
            ref = _sphere_kernel(sg, mu, cfg.dim)
            for beta in (0.0, 1.1, 2.6):
                rot = _sphere_kernel_rotated(sg, mu, beta)
                worst_dir = max(worst_dir, abs(rot - ref) / ref)
    finite = all(math.isfinite(v) for v in vals)
    worst = worst_dir if finite else math.inf
    tol = 1e-6
    return CheckReport("radial_K", worst, tol, len(sigmas),
                       {"mu": mu, "sup": max(vals) if finite else None})


def _check_symbol(cfg: VerifierConfig) -> CheckReport:
    worst = symbol_of_kernel_check(cfg.s, dim=cfg.dim)
    tol = 1e-3
    return CheckReport("symbol", worst, tol, 1,
                       {"dim": cfg.dim, "s": cfg.s})


def _inversion_setup(cfg: VerifierConfig):
    lat = make_lattice(cfg.dim, 8.0, 64, 1.5, 4.5, 64)
    phi = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 1.5 - (t - 1.5) ** 2 / 0.35),
        lat,
    )
    return lat, phi


def _check_inversion(cfg: VerifierConfig) -> CheckReport:
    lat, phi = _inversion_setup(cfg)
    h = apply_Hs_spectral(phi, cfg.s, pad_space=2, pad_time=2)
    j = apply_Js(h, cfg.s, causal_tol=0.05)
    worst = float(np.max(np.abs(j.values - phi.values)) / np.max(np.abs(phi.values)))
    tol = 1e-2
    return CheckReport("inversion", worst, tol, 1,
                       {"dim": cfg.dim, "s": cfg.s, "lattice": "64^dim x 64"})


def _check_semigroup(cfg: VerifierConfig) -> CheckReport:
    lat, _ = _inversion_setup(cfg)
    g = sample(
        lambda t, *xs: smooth_step((t - 0.25) / 0.5)
        * (1.0 - smooth_step((t - 1.25) / 0.5))
        * np.exp(-sum(x * x for x in xs)),
        lat,
    )
    j_half = apply_Js(g, 0.5)
    j_comp = apply_Js(apply_Js(g, 0.2), 0.3)
    worst = float(np.max(np.abs(j_comp.values - j_half.values)) / np.max(np.abs(j_half.values)))
    tol = 1e-2
    return CheckReport("semigroup", worst, tol, 1,
                       {"alpha": 0.3, "beta": 0.2})


def _check_adjoint(cfg: VerifierConfig) -> CheckReport:
    """Inner-product symmetry of the operator under full space-time
    reflection. Index reversal realises the reflection exactly only on a
    window symmetric about the origin, so the check builds its own."""
    rng = cfg.rng("adjoint")
    lat = make_lattice(cfg.dim, cfg.L, cfg.M, 4.0, 4.0, 48)
    worst = -math.inf
    fields = spacetime_fields(rng, lat, cfg.n_samples)
    vol = lat.cell_volume * lat.ht
    flip = (slice(None, None, -1),) * (lat.dim + 1)
    for i in range(0, len(fields) - 1, 2):
        phi, psi = fields[i], fields[i + 1]
        h_phi = apply_Hs_spectral(phi, cfg.s).values
        lhs = float(np.sum(h_phi * psi.values) * vol)
        psi_r = Field(lat, psi.values[flip])
        h_psir = apply_Hs_spectral(psi_r, cfg.s).values
        rhs = float(np.sum(phi.values[flip] * h_psir) * vol)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    tol = 1e-8
    return CheckReport("adjoint", worst, tol, cfg.n_samples,
                       {"dim": cfg.dim, "s": cfg.s})


def _check_ground_state(cfg: VerifierConfig) -> CheckReport:
    lat = cfg.lattice()
    phi = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 1.5 - (t - 1.5) ** 2 / 0.35),
        lat,
    )
    worst = ground_state_residual(phi, cfg.lam, cfg.s)
    tol = 5e-2
    return CheckReport("ground_state", worst, tol, 1,
                       {"dim": cfg.dim, "s": cfg.s, "lam": cfg.lam, "M": cfg.M})


def _check_radial_flap(cfg: VerifierConfig) -> CheckReport:
    lat = make_lattice(cfg.dim, 12.0, 128, 0.5, 0.5, 8)
    worst = radial_identity_error(lat, cfg.lam, cfg.s, pad_space=4)
    tol = 5e-2
    return CheckReport("radial_flap", worst, tol, 1,
                       {"dim": cfg.dim, "s": cfg.s, "lam": cfg.lam})


def _check_extension(cfg: VerifierConfig) -> CheckReport:
    lat = cfg.lattice()
    w = sample(
        lambda t, *xs: np.exp(-sum(x * x for x in xs) / 2.5 - (t - 1.6) ** 2 / 0.4),
        lat,
    )
    trace_err, neumann_err = extension_checks(w, cfg.s, extension_constant(cfg.s))
    worst = max(trace_err - 2e-2, neumann_err - 5e-2)
    tol = 0.0
    return CheckReport("extension", worst, tol, 1,
                       {"trace_err": trace_err, "neumann_err": neumann_err})


def _angular_profile_table(profile, dim):
    """Honest profile values on the upper unit hemisphere, with the polar
    angle graded toward the base where the degenerate |y| powers live.
    Returns (y_unit, x_unit, surface weights, profile values)."""
    gap_n, gap_w = gauss_legendre_panels(
        np.concatenate([[1e-6], geometric_edges(1e-6, math.pi / 2.0, 1.35)]), 6
    )
    phi_ang = math.pi / 2.0 - gap_n  # angle from the pole
    y_unit = np.sin(gap_n)
    x_unit = np.cos(gap_n)
    if dim == 2:
        ring = 2.0 * math.pi * x_unit
    else:
        raise ValueError("hemisphere table implemented for dim = 2")
    vals = profile.value(x_unit, y_unit)
    return y_unit, ring * gap_w, vals


def _ball_integral_factored(y_unit, surf_w, prof_vals, mu, r, dim, s, sign, rad_cut=1e-4):
    """Integral over the ball of radius r (both half spaces) of
    |y|^(sign(1-2s)) profile^(2 sign), with the profile factored radially as
    rho^(-mu) x (angular value); homogeneity of the profile is verified by
    its own invariant tests."""
    e = sign * (1.0 - 2.0 * s)
    rad_n, rad_w = gauss_legendre_panels(geometric_edges(rad_cut * r, r, 1.6), 6)
    radial = float(np.sum(rad_w * rad_n ** (dim + e - 2.0 * sign * mu)))
    angular = float(np.sum(surf_w * y_unit ** e * prof_vals ** (2.0 * sign)))
    return 2.0 * radial * angular


def _check_muckenhoupt(cfg: VerifierConfig) -> CheckReport:
    """Doubling-weight product over a dyadic radius sweep: for the reflected
    squared profile with the degenerate |y| power, the normalised product
    must stay level across scales."""
    prof = PhiProfile(cfg.lam, cfg.dim, cfg.s)
    y_unit, surf_w, vals = _angular_profile_table(prof, cfg.dim)
    radii = [2.0 ** k for k in range(-4, 5)]
    prods = []
    for r in radii:
        a = _ball_integral_factored(y_unit, surf_w, vals, prof.mu, r, cfg.dim, cfg.s, +1)
        b = _ball_integral_factored(y_unit, surf_w, vals, prof.mu, r, cfg.dim, cfg.s, -1)
        # doubling normalisation in the ambient dimension dim + 1
        prods.append(r ** (-2.0 * (cfg.dim + 1.0)) * a * b)
    worst = max(prods) / min(prods) - 1.0
    tol = 0.5
    return CheckReport("muckenhoupt", worst, tol, len(radii),
                       {"sup_product": max(prods), "dim": cfg.dim + 1})


def _check_picone(cfg: VerifierConfig) -> CheckReport:
    """Energy lower bound with the singular profile as the divisor: the
    weighted gradient energy dominates the Hardy boundary term at coupling
    lam < lambda_max."""
    worst = _halfspace_energy_margin(cfg, "picone", cfg.lam)
    tol = 1e-3
    return CheckReport("picone", worst, tol, cfg.n_samples,
                       {"dim": cfg.dim, "s": cfg.s, "lam": cfg.lam})


def _check_ls_bound(cfg: VerifierConfig) -> CheckReport:
    """|x|^mu |L^s phi| stays bounded by the field's C^2-type norms times a
    finite constant; the check asserts finiteness of the sampled sup."""
    rng = cfg.rng("ls_bound")
    lat = cfg.lattice(M=32, K=32)
    mu = mu_from_lambda(cfg.lam, cfg.dim, cfg.s)
    r = lat.spatial_radius()
    mask = (r >= 0.5) & (r <= 0.5 * lat.L)
    worst = 0.0
    for phi in positive_spacetime_fields(rng, lat, cfg.n_samples):
        ls = apply_Ls(phi, cfg.lam, cfg.s)
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
    tol = 1e3  # finiteness guard; the constant itself is not pinned
    return CheckReport("ls_bound", worst, tol,
                       cfg.n_samples, {"dim": cfg.dim, "s": cfg.s, "lam": cfg.lam})


CHECKS: Dict[str, Callable[[VerifierConfig], CheckReport]] = {
    "hardy": _check_hardy,
    "hardy_extended": _check_hardy_extended,
    "kato": _check_kato,
    "algebra_ab": _check_algebra_ab,
    "algebra_abs": _check_algebra_abs,
    "radial_K": _check_radial_K,
    "symbol": _check_symbol,
    "inversion": _check_inversion,
    "semigroup": _check_semigroup,
    "adjoint": _check_adjoint,
    "ground_state": _check_ground_state,
    "radial_flap": _check_radial_flap,
    "extension": _check_extension,
    "muckenhoupt": _check_muckenhoupt,
    "picone": _check_picone,
    "ls_bound": _check_ls_bound,
}


def run_check(check_id: str, config: Optional[VerifierConfig] = None) -> CheckReport:
    if check_id not in CHECKS:
        raise UnknownCheck(check_id)
    return CHECKS[check_id](config or VerifierConfig())


def run_suite(
    check_ids: Optional[Sequence[str]] = None,
    config: Optional[VerifierConfig] = None,
    parallel: bool = False,
) -> List[CheckReport]:
    config = config or VerifierConfig()
    ids = list(check_ids) if check_ids else sorted(CHECKS)
    for cid in ids:
        if cid not in CHECKS:
            raise UnknownCheck(cid)
    if parallel:
        with ThreadPoolExecutor(max_workers=4) as pool:
            reports = list(pool.map(lambda c: CHECKS[c](config), ids))
    else:
        reports = [CHECKS[c](config) for c in ids]
    return sorted(reports, key=lambda r: r.check_id)


def suite_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
