"""Explicit global supersolutions: a self-similar profile family with one
free coupling shift and one free amplitude, certified by two checks (an
interior sign and a boundary gap), and the causal field it induces through
the inverse operator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import (
    ProblemSpec,
    exponents_from,
    extension_constant,
    lambda_max,
    mu_from_lambda,
)
from .extension import PhiProfile
from .kernels import apply_Js
from .lattice import Field, Lattice


class SearchExhausted(RuntimeError):
    """No certificate found within the budget (p too close to a critical
    exponent for the configured grids)."""


class ComparisonError(RuntimeError):
    """A certified comparison failed beyond slack: quadrature error."""


# the log-spaced radial grid on which find_certificate measures the
# boundary gap; a certificate stores it, and validate() reuses the stored one
XI_LO = 1e-6
XI_HI = 50.0
XI_POINTS = 400


@dataclass(frozen=True)
class SupersolutionCertificate:
    """Parameters (eps, lambda1) plus the decay rate theta and the two
    certifying margins. delta1 is the admissible forcing amplitude.
    Immutable once issued; the profile object is a lazily built cache."""

    dim: int
    s: float
    lam: float
    p: float
    eps: float
    lambda1: float
    theta: float
    delta1: float
    interior_margin: float
    boundary_min_gap: float
    xi_lo: float
    xi_hi: float
    xi_points: int
    phi_bound: float
    _profile: Optional[PhiProfile] = field(default=None, repr=False, compare=False)

    @property
    def mu1(self) -> float:
        return mu_from_lambda(self.lambda1, self.dim, self.s)

    def profile(self) -> PhiProfile:
        if self._profile is None:
            object.__setattr__(self, "_profile", PhiProfile(self.lambda1, self.dim, self.s))
        return self._profile

    def validate(self) -> None:
        """Recompute theta and both certifying margins from the parameters;
        ValueError unless they match the stored values and certify."""
        want_theta = self.s / (self.p - 1.0) - self.mu1 / 2.0
        if abs(self.theta - want_theta) > 1e-12 * max(1.0, abs(want_theta)):
            raise ValueError("theta inconsistent with (s, p, lambda1)")
        margin = interior_sign_margin(self.dim, self.s, self.p, self.lambda1)
        if abs(self.interior_margin - margin) > 1e-10 * max(1.0, abs(margin)):
            raise ValueError("interior margin inconsistent")
        gap, div0, dinf = boundary_gap(
            self.dim, self.s, self.lam, self.p, self.lambda1, self.eps,
            self.xi_lo, self.xi_hi, self.xi_points,
        )
        if abs(self.boundary_min_gap - gap) > 1e-10 * max(1.0, abs(gap)):
            raise ValueError("boundary gap inconsistent")
        if margin <= 0.0 or gap <= 0.0 or not (div0 and dinf):
            raise ValueError("certificate margins must be positive")
        if not self.lam < self.lambda1 < lambda_max(self.dim, self.s):
            raise ValueError("lambda1 must sit strictly between lam and the max")

    def to_json(self) -> str:
        d = {k: v for k, v in self.__dict__.items() if not k.startswith("_")}
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SupersolutionCertificate":
        cert = cls(**json.loads(text))
        cert.validate()
        return cert


def supersol_value(cert: SupersolutionCertificate, x_radius, y, t):
    """Extension-side supersolution value at spatial radius |x|, height y,
    time t >= 0: eps (1+t)^(-theta) Phi(z) exp(-|z|^2 / 4(t+1))."""
    r = np.asarray(x_radius, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    z2 = r * r + y * y
    prof = cert.profile().value(r, y)
    return cert.eps * (1.0 + t) ** (-cert.theta) * prof * np.exp(-z2 / (4.0 * (t + 1.0)))


def _self_similar(cert: SupersolutionCertificate, amplitude, radial_power, x_radius, t):
    """amplitude (1+t)^(-theta) |x|^(-radial_power) exp(-|x|^2 / 4(1+t))."""
    r = np.asarray(x_radius, dtype=float)
    t = np.asarray(t, dtype=float)
    return (
        amplitude
        * (1.0 + t) ** (-cert.theta)
        * r ** (-radial_power)
        * np.exp(-r * r / (4.0 * (1.0 + t)))
    )


def trace_value(cert: SupersolutionCertificate, x_radius, t):
    """Base trace: eps (1+t)^(-theta) |x|^(-mu1) exp(-|x|^2 / 4(t+1))."""
    return _self_similar(cert, cert.eps, cert.mu1, x_radius, t)


def forcing_envelope(cert: SupersolutionCertificate, x_radius, t):
    """Admissible forcing ceiling:
    delta1 (1+t)^(-theta) |x|^(-mu1-2s) exp(-|x|^2 / 4(1+t))."""
    return _self_similar(cert, cert.delta1, cert.mu1 + 2.0 * cert.s, x_radius, t)


def interior_sign_margin(dim: int, s: float, p: float, lambda1: float) -> float:
    """Bulk drift bracket of the profile family; positive exactly when p
    exceeds the conditional-band lower exponent at lambda1."""
    mu1 = mu_from_lambda(lambda1, dim, s)
    theta = s / (p - 1.0) - mu1 / 2.0
    return -theta - mu1 + 0.5 * (dim + 2.0 - 2.0 * s)


def boundary_gap(
    dim: int,
    s: float,
    lam: float,
    p: float,
    lambda1: float,
    eps: float,
    xi_lo: float = XI_LO,
    xi_hi: float = XI_HI,
    xi_points: int = XI_POINTS,
) -> tuple:
    """Minimum over a log-spaced radial grid of
    (lambda1 - lam)|xi|^(p mu1 - mu1 - 2s) - eps^(p-1) exp(-(p-1)|xi|^2/4),
    plus the two analytic endpoint flags: the left side diverges at 0 when
    its exponent is negative, and the right side dies exponentially at inf.
    """
    mu1 = mu_from_lambda(lambda1, dim, s)
    expo = p * mu1 - mu1 - 2.0 * s
    grid = np.geomspace(xi_lo, xi_hi, xi_points)
    lhs = (lambda1 - lam) * grid ** expo
    rhs = eps ** (p - 1.0) * np.exp(-(p - 1.0) * grid * grid / 4.0)
    gap = float(np.min(lhs - rhs))
    diverges_at_zero = expo < 0.0 and lambda1 > lam
    decays_at_inf = p > 1.0
    return gap, diverges_at_zero, decays_at_inf


def _bounded_factor_max(dim, s, p, lambda1) -> float:
    """Numerical sup of the auxiliary factor
    (1+t)^((p-1) mu1/2 - s) |x|^(mu1 + 2s - p mu1) exp(-(p-1)|x|^2/4(t+1))
    over a wide (t, |x|) box; finite precisely in the admissible band."""
    mu1 = mu_from_lambda(lambda1, dim, s)
    t = np.geomspace(1e-3, 1e4, 120)[:, None]
    r = np.geomspace(1e-6, 1e3, 240)[None, :]
    vals = (
        (1.0 + t) ** ((p - 1.0) * mu1 / 2.0 - s)
        * r ** (mu1 + 2.0 * s - p * mu1)
        * np.exp(-(p - 1.0) * r * r / (4.0 * (t + 1.0)))
    )
    return float(np.max(vals))


def find_certificate(
    spec: ProblemSpec,
    max_lambda_halvings: int = 20,
    max_eps_halvings: int = 40,
) -> SupersolutionCertificate:
    """Search the (lambda1, eps) family by halving until both checks pass.

    lambda1 walks down toward lam from lam + (lambda_max - lam)/4; for each
    admissible lambda1 (p strictly inside its band), eps halves from 1 until
    the boundary gap turns positive. The gap grows monotonically as eps
    shrinks, which is asserted along the path.
    """
    dim, s, lam, p = spec.dim, spec.s, spec.lam, spec.p
    bundle = exponents_from(dim, s, lam)
    if p >= bundle.p_plus:
        raise ValueError(
            f"p={p} is not below the non-existence exponent {bundle.p_plus}"
        )
    delta0 = (lambda_max(dim, s) - lam) / 4.0
    for k in range(max_lambda_halvings):
        lambda1 = lam + delta0 * 2.0 ** (-k)
        b1 = exponents_from(dim, s, lambda1)
        if not (b1.fujita_F < p < b1.p_plus):
            continue
        margin = interior_sign_margin(dim, s, p, lambda1)
        if margin <= 0.0:
            continue
        prev_gap = -math.inf
        for j in range(max_eps_halvings):
            eps = 2.0 ** (-j)
            gap, div0, dinf = boundary_gap(dim, s, lam, p, lambda1, eps)
            if gap <= prev_gap:
                raise ComparisonError("boundary gap failed to grow as eps shrank")
            prev_gap = gap
            if gap > 0.0 and div0 and dinf:
                mu1 = b1.mu
                cert = SupersolutionCertificate(
                    dim=dim,
                    s=s,
                    lam=lam,
                    p=p,
                    eps=eps,
                    lambda1=lambda1,
                    theta=s / (p - 1.0) - mu1 / 2.0,
                    delta1=(lambda1 - lam) / 2.0,
                    interior_margin=margin,
                    boundary_min_gap=gap,
                    xi_lo=XI_LO,
                    xi_hi=XI_HI,
                    xi_points=XI_POINTS,
                    phi_bound=_bounded_factor_max(dim, s, p, lambda1),
                )
                cert.validate()
                return cert
    raise SearchExhausted(
        f"no certificate for p={p} within {max_lambda_halvings} x "
        f"{max_eps_halvings} halvings"
    )


def _on_causal_slices(cert: SupersolutionCertificate, lat: Lattice, fn) -> np.ndarray:
    """fn(cert, |x|, t) on every slice with t > 0 at once; zero elsewhere."""
    causal = lat.causal_mask()
    t = lat.t_axis()[causal].reshape((-1,) + (1,) * lat.dim)
    vals = np.zeros(lat.shape)
    vals[causal] = fn(cert, lat.spatial_radius(), t)
    return vals


def data_bound(cert: SupersolutionCertificate, f: Field) -> bool:
    """Pointwise check of the forcing against its admissible ceiling."""
    vals = f.values
    if np.any(vals[~f.lattice.causal_mask()] != 0.0):
        return False
    return not np.any(vals > _on_causal_slices(cert, f.lattice, forcing_envelope))


def certified_forcing(
    cert: SupersolutionCertificate, lat: Lattice, fraction: float = 0.5
) -> Field:
    """A forcing sitting at the given fraction of the admissible ceiling."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    vals = _on_causal_slices(cert, lat, forcing_envelope)
    vals *= fraction
    return Field(lat, vals)


def dominating_trace(cert: SupersolutionCertificate, lat: Lattice) -> Field:
    """The supersolution's base trace sampled on the lattice (zero at t <= 0)."""
    return Field(lat, _on_causal_slices(cert, lat, trace_value))


def build_w_supersol(cert: SupersolutionCertificate, f: Field) -> Field:
    """Causal field induced by the supersolution through the inverse
    operator: kappa_s * (inverse of the operator) applied to
    lam |x|^(-2s) u + u^p + f, with u the supersolution trace.

    Postconditions checked here, on every node, to a slack of 1e-8 of the
    trace's peak: the result stays below the trace, and it dominates
    kappa_s times the inverse applied to its own right-hand side (the
    discrete very-weak-supersolution inequality).
    """
    if not data_bound(cert, f):
        raise ValueError("forcing exceeds the admissible ceiling")
    lat = f.lattice
    s = cert.s
    kappa = extension_constant(s)
    u = dominating_trace(cert, lat)
    r = lat.spatial_radius()
    hardy = cert.lam * r ** (-2.0 * s)
    rhs_u = Field(lat, hardy * u.values + u.values ** cert.p + f.values)
    w = Field(lat, kappa * apply_Js(rhs_u, s).values)

    scale = max(float(np.max(u.values)), 1e-300)
    slack = 1e-8 * scale
    excess = float(np.max(w.values - u.values))
    if excess > slack:
        raise ComparisonError(
            f"induced field exceeds the trace by {excess:.3e} (scale {scale:.3e})"
        )

    wv = np.maximum(w.values, 0.0)
    rhs_w = Field(lat, hardy * wv + wv ** cert.p + f.values)
    lower = kappa * apply_Js(rhs_w, s).values
    worst = float(np.min(w.values - lower))
    if worst < -slack:
        raise ComparisonError(
            f"very-weak inequality violated by {worst:.3e} (scale {scale:.3e})"
        )
    return w
