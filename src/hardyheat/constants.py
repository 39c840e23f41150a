"""Critical exponents and coupling constants for the fractional heat operator
with a Hardy-type potential.

All quantities derive from Gamma-function closed forms; the singularity
exponent mu comes from inverting the strictly decreasing Gamma-quotient
`upsilon` by bisection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .special import gamma_fn, gamma_abs_neg


def lambda_max(dim: int, s: float) -> float:
    """Largest admissible Hardy coupling in dimension dim at order s.

    Tends to the classical Hardy constant ((dim-2)/2)^2 as s -> 1.
    """
    if dim < 2 or dim != int(dim):
        raise ValueError(f"dim must be an integer >= 2, got {dim}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"need 0 < s <= 1, got s={s}")
    if not dim > 2.0 * s:
        raise ValueError(f"need dim > 2s, got dim={dim}, s={s}")
    return upsilon(0.0, dim, s)


def upsilon(alpha: float, dim: int, s: float) -> float:
    """Gamma-quotient linking the coupling to the singularity order.

    Strictly decreasing on [0, (dim-2s)/2) with upsilon(0) = lambda_max and
    limit 0 at the right endpoint.
    """
    half = (dim - 2.0 * s) / 2.0
    if not 0.0 <= alpha < half:
        raise ValueError(f"need 0 <= alpha < {half}, got {alpha}")
    a2 = 2.0 * alpha
    num = gamma_fn((dim + 2.0 * s + a2) / 4.0) * gamma_fn((dim + 2.0 * s - a2) / 4.0)
    den = gamma_fn((dim - 2.0 * s - a2) / 4.0) * gamma_fn((dim - 2.0 * s + a2) / 4.0)
    return 2.0 ** (2.0 * s) * num / den


def frac_laplacian_constant(dim: int, s: float) -> float:
    """Normalisation of the pointwise singular-integral form of (-Lap)^s."""
    return 4.0 ** s * gamma_fn(dim / 2.0 + s) / (
        math.pi ** (dim / 2.0) * gamma_abs_neg(s)
    )


def extension_constant(s: float) -> float:
    """kappa_s = Gamma(1-s) / (2^(2s-1) Gamma(s)), s in (0, 1): the weighted
    Neumann derivative of the extension is kappa_s times the operator."""
    return gamma_fn(1.0 - s) / (2.0 ** (2.0 * s - 1.0) * gamma_fn(s))


_BISECT_STEPS = 200


def upsilon_inv(lam: float, dim: int, s: float) -> float:
    """Invert upsilon by bisection: returns alpha with upsilon(alpha) = lam.

    Accepts lam in (0, lambda_max]; the boundary value maps to alpha = 0.
    """
    lmax = lambda_max(dim, s)
    if not 0.0 < lam <= lmax * (1.0 + 1e-12):
        raise ValueError(f"need 0 < lam <= lambda_max={lmax}, got {lam}")
    if lam >= lmax:
        return 0.0
    half = (dim - 2.0 * s) / 2.0
    lo, hi = 0.0, half - 1e-14
    if upsilon(hi, dim, s) >= lam:
        return hi
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if upsilon(mid, dim, s) > lam:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * half:
            break
    return 0.5 * (lo + hi)


def mu_from_lambda(lam: float, dim: int, s: float) -> float:
    """Singularity exponent of positive supersolutions near the origin."""
    return (dim - 2.0 * s) / 2.0 - upsilon_inv(lam, dim, s)


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: dimension, order, coupling, nonlinearity power.

    The coupling is strictly interior: 0 < lam < lambda_max(dim, s).
    """

    dim: int
    s: float
    lam: float
    p: float

    def __post_init__(self):
        if self.dim < 2 or self.dim != int(self.dim):
            raise ValueError(f"dim must be an integer >= 2, got {self.dim}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"need s in (0,1), got {self.s}")
        if not self.dim > 2.0 * self.s:
            raise ValueError(f"need dim > 2s, got dim={self.dim}, s={self.s}")
        lmax = lambda_max(self.dim, self.s)
        if not 0.0 < self.lam < lmax:
            raise ValueError(
                f"need 0 < lam < lambda_max={lmax}, got lam={self.lam}"
            )
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got {self.p}")


@dataclass(frozen=True)
class ExponentBundle:
    """All derived constants for one (dim, s, lam) triple."""

    dim: int
    s: float
    lam: float
    lambda_max: float
    alpha: float
    mu: float
    p_plus: float
    fujita_F: float
    fujita_F_tilde: float
    fujita_F0: float
    kappa_s: float
    a_Ns: float

    def validate(self) -> None:
        half = (self.dim - 2.0 * self.s) / 2.0
        if not 0.0 < self.mu < half:
            raise ValueError(f"mu={self.mu} outside (0, {half})")
        if abs(self.mu - (half - self.alpha)) > 1e-12 * max(1.0, half):
            raise ValueError("mu and alpha are inconsistent")
        order = (1.0, self.fujita_F0, self.fujita_F, self.fujita_F_tilde, self.p_plus)
        if not all(a < b for a, b in zip(order, order[1:])):
            raise ValueError(f"exponent ordering violated: {order}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExponentBundle":
        # strict JSON spells a non-finite float as "inf", "-inf" or "nan"
        return cls(**{k: float(v) if isinstance(v, str) else v for k, v in d.items()})


def exponents_from(dim: int, s: float, lam: float) -> ExponentBundle:
    """Assemble the exponent bundle from raw parameters.

    s = 1 is admitted for the classical limit; the extension normalisation
    degenerates there (kappa_s -> inf, a_Ns -> 0).
    """
    lmax = lambda_max(dim, s)
    if not 0.0 < lam <= lmax:
        raise ValueError(f"need 0 < lam <= lambda_max={lmax}, got {lam}")
    alpha = upsilon_inv(lam, dim, s)
    mu = (dim - 2.0 * s) / 2.0 - alpha
    p_plus = 1.0 + 2.0 * s / mu if mu > 0 else math.inf
    fujita_F = 1.0 + 2.0 * s / (dim + 2.0 - 2.0 * s - mu)
    fujita_F_tilde = 1.0 + 2.0 * s / (dim - mu)
    fujita_F0 = 1.0 + 2.0 * s / (dim + 2.0 - 2.0 * s)
    if s < 1.0:
        kappa_s = extension_constant(s)
        a_ns = frac_laplacian_constant(dim, s) / 2.0
    else:
        kappa_s = math.inf
        a_ns = 0.0
    return ExponentBundle(
        dim=dim,
        s=s,
        lam=lam,
        lambda_max=lmax,
        alpha=alpha,
        mu=mu,
        p_plus=p_plus,
        fujita_F=fujita_F,
        fujita_F_tilde=fujita_F_tilde,
        fujita_F0=fujita_F0,
        kappa_s=kappa_s,
        a_Ns=a_ns,
    )


def exponents(spec: ProblemSpec) -> ExponentBundle:
    """Exponent bundle for a validated problem instance."""
    b = exponents_from(spec.dim, spec.s, spec.lam)
    b.validate()
    return b


class Regime(str, Enum):
    BLOW_UP = "BlowUp"
    CONDITIONAL_GLOBAL = "ConditionalGlobal"
    NON_EXISTENCE = "NonExistence"
    CRITICAL_OPEN = "CriticalOpen"


def classify_regime(p: float, bundle: ExponentBundle) -> Regime:
    """Place p among the analytic bands.

    The band boundaries: p <= fujita_F is the finite-time blow-up range
    (inclusive), p > p_plus admits no non-trivial non-negative supersolution,
    and the strip in between carries small-data global solutions. Exactly
    critical p = p_plus (within 1e-12 relative) stays an open case and is labelled,
    never claimed.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if math.isfinite(bundle.p_plus) and abs(p - bundle.p_plus) <= 1e-12 * bundle.p_plus:
        return Regime.CRITICAL_OPEN
    if p > bundle.p_plus:
        return Regime.NON_EXISTENCE
    if p <= bundle.fujita_F:
        return Regime.BLOW_UP
    return Regime.CONDITIONAL_GLOBAL
