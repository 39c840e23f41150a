"""Scalar special functions: Gamma, a confluent hypergeometric branch, and the
heat-smoothed radial power profile they combine into.

Everything here is dependency-free (math + numpy) and vectorised where the
callers need arrays.
"""

from __future__ import annotations

import math

import numpy as np


class GammaPole(ValueError):
    """Gamma evaluated at a non-positive integer."""


def gamma_fn(x: float) -> float:
    """Gamma function for real arguments away from the poles (math.gamma)."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise GammaPole(f"gamma pole at x={x}")
    return math.gamma(x)


def gamma_abs_neg(s: float) -> float:
    """|Gamma(-s)| for s in (0, 1), via Gamma(1 - s) / s."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"need s in (0,1), got {s}")
    return gamma_fn(1.0 - s) / s


_SERIES_SWITCH = 40.0
_SERIES_TERMS = 220
_ASYMPTOTIC_TERMS = 12


def kummer_m_neg(a: float, b: float, z):
    """Kummer's M(a, b, -z) for z >= 0, with 0 < a < b.

    Small z uses the Kummer-transformed series exp(-z) * M(b-a, b, z), whose
    terms are all positive (no cancellation). Large z uses the standard
    asymptotic expansion.
    """
    if not 0.0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be non-negative")
    out = np.empty_like(z)

    small = z <= _SERIES_SWITCH
    if np.any(small):
        zs = z[small]
        term = np.ones_like(zs)
        acc = np.ones_like(zs)
        for k in range(_SERIES_TERMS):
            term = term * (b - a + k) * zs / ((b + k) * (k + 1.0))
            acc += term
            if term.size and term.max() < 1e-18 * acc.min():
                break
        out[small] = np.exp(-zs) * acc

    large = ~small
    if np.any(large):
        zl = z[large]
        pref = gamma_fn(b) / gamma_fn(b - a) * zl ** (-a)
        term = np.ones_like(zl)
        acc = np.ones_like(zl)
        for k in range(1, _ASYMPTOTIC_TERMS):
            term = term * (a + k - 1.0) * (a - b + k) / (k * zl)
            acc += term
        out[large] = pref * acc

    return out if out.ndim else float(out)


def smoothed_power(r, tau, dim: int, mu: float):
    """Gaussian heat smoothing of |x|^(-mu) in dimension dim at time tau.

    Closed form: (4 tau)^(-mu/2) * Gamma((dim-mu)/2)/Gamma(dim/2)
                 * M(mu/2, dim/2, -r^2 / (4 tau)).
    Valid for 0 < mu < dim; reduces to |r|^(-mu) as tau -> 0.
    """
    if not 0.0 < mu < dim:
        raise ValueError(f"need 0 < mu < dim, got mu={mu}, dim={dim}")
    r = np.asarray(r, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    coeff = gamma_fn((dim - mu) / 2.0) / gamma_fn(dim / 2.0)
    return (4.0 * tau) ** (-mu / 2.0) * coeff * kummer_m_neg(
        mu / 2.0, dim / 2.0, r * r / (4.0 * tau)
    )


def smooth_step(u):
    """Quintic C^2 step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def gauss_legendre_panels(edges, npts: int):
    """Gauss-Legendre nodes/weights tiled over consecutive panels.

    edges is an increasing 1-D array of panel boundaries; returns flat
    (nodes, weights) arrays covering [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    x, w = np.polynomial.legendre.leggauss(npts)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * x[None, :] + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def geometric_edges(lo: float, hi: float, ratio: float) -> np.ndarray:
    """Geometric panel boundaries from lo to hi with the given ratio."""
    if not (lo > 0 and hi > lo and ratio > 1):
        raise ValueError("need 0 < lo < hi and ratio > 1")
    n = max(1, int(math.ceil(math.log(hi / lo) / math.log(ratio))))
    return lo * (hi / lo) ** (np.arange(n + 1) / n)
