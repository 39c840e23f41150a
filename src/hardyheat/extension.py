"""Degenerate parabolic extension in one extra variable and the singular
elliptic profile it transports.

Both objects are built from the same ingredient: the heat semigroup weighted
by a power-law memory in the extension variable. The profile of the smoothed
|x|^(-mu) weight is available in closed form, so the elliptic profile needs
no grid at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .constants import mu_from_lambda
from .kernels import _time_shift_quadratic, apply_Hs_spectral, heat_semigroup
from .lattice import Field
from .special import (
    gamma_fn,
    gauss_legendre_panels,
    geometric_edges,
    smoothed_power,
)


def extend_parabolic(w: Field, s: float, y_levels: Sequence[float]) -> Dict[float, np.ndarray]:
    """Evaluate the extension of a causal bounded field at the given heights.

    At height y the extension is a tau-integral of heat-smoothed, time-shifted
    copies of the field against the weight y^(2s) tau^(-1-s) exp(-y^2/4tau)
    (unit total mass). Causality truncates the integral at the window span.
    """
    lat = w.lattice
    span = lat.T + lat.T_neg
    out: Dict[float, np.ndarray] = {}
    for y in y_levels:
        if y <= 0:
            raise ValueError(f"levels must be positive, got {y}")
        tau_lo = y * y / 160.0  # exp(-40) below this
        nodes, wts = gauss_legendre_panels(
            geometric_edges(tau_lo, span, 1.4), 6
        )
        pref = y ** (2.0 * s) / (4.0 ** s * gamma_fn(s))
        acc = np.zeros(lat.shape)
        for tq, wq in zip(nodes, wts):
            shifted = _time_shift_quadratic(np.asarray(w.values), tq / lat.ht)
            acc += (
                pref
                * wq
                * tq ** (-1.0 - s)
                * math.exp(-y * y / (4.0 * tq))
                * heat_semigroup(shifted, lat, tq)
            )
        out[y] = acc
    return out


def neumann_estimate(
    w_low: np.ndarray, w_high: np.ndarray, y_low: float, y_high: float, s: float
) -> np.ndarray:
    """Weighted normal derivative -y^(1-2s) dW/dy at the base, estimated by a
    one-sided difference between the two smallest levels.

    The difference is taken in the y^(2s) variable, which is exact for the
    leading boundary behaviour W ~ w + c y^(2s).
    """
    return -2.0 * s * (w_high - w_low) / (y_high ** (2.0 * s) - y_low ** (2.0 * s))


def extension_checks(w: Field, s: float, kappa_s: float) -> tuple:
    """(trace error, weighted-Neumann error), both sup-relative.

    Trace: the extension at height 0.01 recovers the field.
    Neumann: the one-sided weighted derivative between heights 0.01 and
    0.02 matches kappa_s times the operator applied to the field, compared
    on the nodes with |x| <= L/2 over causal slices.
    """
    lat = w.lattice
    y_lo, y_hi = 1e-2, 2e-2
    ext = extend_parabolic(w, s, [y_lo, y_hi])
    causal = lat.causal_mask()
    scale = float(np.max(np.abs(w.values[causal])))
    trace_err = float(np.max(np.abs(ext[y_lo][causal] - w.values[causal]))) / scale

    est = neumann_estimate(ext[y_lo], ext[y_hi], y_lo, y_hi, s)
    target = kappa_s * apply_Hs_spectral(w, s).values
    r = lat.spatial_radius()
    interior = r <= 0.5 * lat.L
    k_lo, k_hi = int(0.25 * lat.K), int(0.85 * lat.K)
    sel = np.zeros(lat.shape, dtype=bool)
    sel[k_lo:k_hi] = interior
    sel &= causal.reshape((lat.K,) + (1,) * lat.dim)
    den = float(np.max(np.abs(target[sel])))
    neumann_err = float(np.max(np.abs((est - target)[sel]))) / den
    return trace_err, neumann_err


@dataclass
class PhiProfile:
    """Singular elliptic profile: the degenerate-harmonic extension of the
    boundary trace |x|^(-mu), evaluated by closed-form quadrature.

    Positive, homogeneous of degree -mu, with exact trace at the base.
    """

    lam: float
    dim: int
    s: float
    mu: float = field(init=False)

    def __post_init__(self):
        self.mu = mu_from_lambda(self.lam, self.dim, self.s)

    def trace(self, r):
        return np.asarray(r, dtype=float) ** (-self.mu)

    def value(self, r, y):
        """Profile at spatial radius r and height y >= 0 (broadcastable)."""
        r = np.asarray(r, dtype=float)
        y = np.asarray(y, dtype=float)
        r, y = np.broadcast_arrays(r, y)
        out = np.empty(r.shape)
        base = y == 0.0
        if base.any():
            out[base] = self.trace(r[base])
        rest = ~base
        if rest.any():
            out[rest] = self._bulk(r[rest], y[rest])
        return out if out.ndim else float(out)

    def _bulk(self, r, y):
        z2 = r * r + y * y
        tau_lo = float(np.min(y * y)) / 200.0
        tau_hi = float(np.max(z2)) * 1e5
        nodes, wts = gauss_legendre_panels(geometric_edges(tau_lo, tau_hi, 1.35), 8)
        pref = y ** (2.0 * self.s) / (4.0 ** self.s * gamma_fn(self.s))
        acc = np.zeros_like(r)
        for tq, wq in zip(nodes, wts):
            acc += (
                wq
                * tq ** (-1.0 - self.s)
                * np.exp(-y * y / (4.0 * tq))
                * smoothed_power(r, tq, self.dim, self.mu)
            )
        # power tail: the smoothed weight decays like tau^(-mu/2)
        acc += (
            smoothed_power(r, tau_hi, self.dim, self.mu)
            * tau_hi ** (-self.s)
            / (self.s + self.mu / 2.0)
        )
        return pref * acc

    def homogeneity_error(self, rng: np.random.Generator, n: int = 24) -> float:
        """Worst relative defect of value(tau z) = tau^(-mu) value(z)."""
        r = rng.uniform(0.3, 2.0, n)
        y = rng.uniform(0.05, 2.0, n)
        scl = rng.uniform(0.5, 4.0, n)
        a = self.value(scl * r, scl * y)
        b = scl ** (-self.mu) * self.value(r, y)
        return float(np.max(np.abs(a - b) / np.abs(b)))

    def euler_error(self, rng: np.random.Generator, n: int = 16, h: float = 1e-4) -> float:
        """Worst relative defect of the radial derivative identity
        grad(profile) . z = -mu * profile, by central differences along rays."""
        r = rng.uniform(0.3, 2.0, n)
        y = rng.uniform(0.05, 2.0, n)
        up = self.value((1 + h) * r, (1 + h) * y)
        dn = self.value((1 - h) * r, (1 - h) * y)
        radial = (up - dn) / (2.0 * h)
        target = -self.mu * self.value(r, y)
        return float(np.max(np.abs(radial - target) / np.abs(target)))
