"""Constructive monotone scheme: repeatedly invert the fractional heat
operator on truncated, saturated right-hand sides. The iterates increase
pointwise; either they settle under a certified ceiling (global branch) or
the weighted norm runs away (blow-up proxy).

Finite-time blow-up itself is not observable on a grid; the reported proxy
is norm escape past a cap or past a growth factor within the horizon, both
configurable and echoed in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .constants import ProblemSpec, exponents
from .kernels import apply_Js
from .lattice import Field, Lattice, sample, weighted_integral, zero_field
from .special import smooth_step


class MonotonicityError(RuntimeError):
    """An iterate decreased somewhere beyond slack: quadrature failure."""


# relative slack, against the peak, for rounding below zero: in the step
# from one iterate to the next and in the inverse operator's output
MONO_SLACK = 1e-12


def _cutoff_factors(lat: Lattice, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stage-n cutoff as a product of a spatial factor (shape (M,)*dim)
    and a time ramp (a K-vector); see cutoff."""
    # radial blend over one unit; zero from radius n+1 on, inside the
    # allowed n+2 envelope, which keeps consecutive stages nested
    sp = 1.0 - smooth_step(lat.spatial_radius() - n)
    t = lat.t_axis()
    lo_in, lo_out = 1.0 / (n + 1.0), 1.0 / (n + 2.0)
    ramp_up = smooth_step((t - lo_out) / (lo_in - lo_out))
    ramp_down = 1.0 - smooth_step(t - (n + 1.0))
    return sp, ramp_up * ramp_down


def cutoff(lat: Lattice, n: int) -> np.ndarray:
    """Smooth space-time cutoff of stage n: 1 on the ball of radius n over
    the time band (1/(n+1), n+1), and 0 outside the ball of radius n+2 and
    the band (1/(n+2), n+2), with quintic blends between."""
    sp, tim = _cutoff_factors(lat, n)
    return sp[None, ...] * tim.reshape((lat.K,) + (1,) * lat.dim)


def _saturate(x: np.ndarray, n: float, out: np.ndarray) -> np.ndarray:
    """out <- x / (1 + x/n), written as x * (n / (n + x)) in three in-place
    passes; out must not be x. For x >= 0 the result is non-decreasing in x
    and in n, and below n."""
    np.add(x, n, out=out)
    np.divide(n, out, out=out)
    np.multiply(x, out, out=out)
    return out


# bytes of one block of time slices in rhs_truncated: small enough that the
# block and its two scratch buffers stay in a core's L2 cache
_BLOCK_BYTES = 1 << 18


def rhs_truncated(w: Field, f: Field, spec: ProblemSpec, n: int) -> Field:
    """Saturated right-hand side at stage n.

    Stage 0 keeps only the bounded forcing term; stages n >= 1 add the
    saturated Hardy and power terms. Every factor is capped (by n or by the
    cutoff support), the output is bounded and exactly causal, and the whole
    expression is non-decreasing in both n and w.

    The cutoff is applied as its spatial factor and its time ramp, and the
    Hardy weight as one spatial factor: no full-size cutoff or weight array
    is built. The slices where the ramp vanishes stay zero; the others are
    computed block by block of time slices, a few in-place passes each.
    """
    lat = w.lattice
    if np.min(w.values) < -1e-12 * max(np.max(w.values), 1.0):
        raise ValueError("negative iterate passed to rhs_truncated")
    if np.min(f.values) < 0.0:
        raise ValueError("forcing must be non-negative")
    sp, tim = _cutoff_factors(lat, n)
    if n > 0:
        hardy = spec.lam * (lat.spatial_radius() + 1.0 / n) ** (-2.0 * spec.s)
    out = np.zeros(lat.shape)
    live = np.nonzero(tim)[0]  # one run of slices: the ramp is a bump
    k0, k1 = (live[0], live[-1] + 1) if live.size else (0, 0)
    step = max(1, _BLOCK_BYTES // (8 * sp.size))
    scratch = np.empty((2, step) + sp.shape)
    for k in range(k0, k1, step):
        blk = slice(k, min(k + step, k1))
        o = out[blk]
        m = o.shape[0]
        if n == 0:
            _saturate(f.values[blk], 1.0, o)
        else:
            a, b = scratch[:, :m]
            np.maximum(w.values[blk], 0.0, out=a)
            _saturate(a, n, o)
            o *= hardy
            np.power(a, spec.p, out=a)
            o += _saturate(a, n, b)
            o += _saturate(f.values[blk], n, b)
        o *= sp
        o *= tim[blk].reshape((m,) + (1,) * lat.dim)
    out.setflags(write=False)  # handed to Field without a copy
    return Field(lat, out)


@dataclass
class IterationState:
    n: int
    w: Field
    m_curve: np.ndarray
    sup_diff: float


def _invert(rhs: Field, s: float) -> Field:
    """The inverse operator on a stage right-hand side. The exact operator
    preserves non-negativity, so negative output is rounding: clamped to
    zero within MONO_SLACK of the peak, a MonotonicityError beyond it."""
    out = apply_Js(rhs, s)
    low = float(np.min(out.values))
    if low >= 0.0:
        return out
    scale = max(float(np.max(out.values)), 1e-300)
    if low < -MONO_SLACK * scale:
        raise MonotonicityError(
            f"inverse operator output reaches {low:.3e} (scale {scale:.3e})"
        )
    clamped = np.maximum(out.values, 0.0)
    clamped.setflags(write=False)
    return Field(rhs.lattice, clamped)


def blowup_functional(w: Field, mu: float, p: float) -> np.ndarray:
    """Per-slice weighted norm: integral of |x|^(-mu) w^p over space."""
    return weighted_integral(w, -mu, p)


def iterate(
    state: IterationState, f: Field, spec: ProblemSpec, mu: Optional[float] = None
) -> IterationState:
    """One step of the scheme: invert the operator on the stage-n right-hand
    side built from the current iterate. Monotonicity is asserted, not
    assumed: a violation beyond MONO_SLACK means the quadrature broke. The
    same slack bounds the negative rounding of the operator output.

    mu is the singularity exponent of spec; run() passes it in so that the
    exponent bundle is solved once per run, not once per step."""
    if mu is None:
        mu = exponents(spec).mu
    n_next = state.n + 1
    w_next = _invert(rhs_truncated(state.w, f, spec, n_next), spec.s)
    diff = w_next.values - state.w.values
    drop = float(np.min(diff))
    scale = max(float(np.max(w_next.values)), 1e-300)
    if drop < -MONO_SLACK * scale:
        raise MonotonicityError(f"iterate decreased by {drop:.3e} (scale {scale:.3e})")
    return IterationState(
        n=n_next,
        w=w_next,
        m_curve=blowup_functional(w_next, mu, spec.p),
        sup_diff=max(float(np.max(diff)), -drop),  # max |w_next - w|
    )


def initial_state(f: Field, spec: ProblemSpec, mu: Optional[float] = None) -> IterationState:
    """Stage 0: the inverse operator applied to the saturated forcing. mu
    is the singularity exponent of spec, solved here if not given."""
    if mu is None:
        mu = exponents(spec).mu
    w0 = _invert(rhs_truncated(zero_field(f.lattice), f, spec, 0), spec.s)
    return IterationState(
        n=0,
        w=w0,
        m_curve=blowup_functional(w0, mu, spec.p),
        sup_diff=float(np.max(w0.values)),  # w0 >= 0: its sup norm
    )


VERDICT_CONVERGED = "ConvergedBelowCap"
VERDICT_ESCAPE = "NormEscape"
VERDICT_STALLED = "Stalled"


@dataclass
class TrajectoryReport:
    verdict: str
    n_final: int
    m_curve: List[Tuple[float, float]]
    growth_factor: float
    escape_time: Optional[float]
    final_norm: float
    sup_diff: float
    dominator_violations: int
    dominator_max_excess: float
    params: dict

    def to_json(self) -> str:
        """Strict JSON: non-finite floats (an infinite growth factor, say)
        are written as the strings of json_float."""
        return json.dumps(strict_json(self.__dict__), sort_keys=True, allow_nan=False)


def json_float(x):
    """x itself if it is a finite float (or not a float), else "inf", "-inf"
    or "nan": the spelling shared by TrajectoryReport.to_json and the CLI."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def strict_json(obj):
    """obj with every non-finite float spelled by json_float, so that
    json.dumps(..., allow_nan=False) accepts it."""
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    return json_float(obj)


def _growth(m: np.ndarray, lat: Lattice) -> Tuple[float, Optional[float]]:
    """Growth factor of the weighted norm across the second half of the
    horizon, and the time it first exceeds tenfold (None if never)."""
    k_mid = lat.K // 2
    ref = m[k_mid]
    if ref <= 0.0:
        return (math.inf if np.max(m[k_mid:]) > 0 else 1.0), None
    factor = float(np.max(m[k_mid:]) / ref)
    t_axis = lat.t_axis()
    esc = None
    hits = np.nonzero(m[k_mid:] >= 10.0 * ref)[0]
    if hits.size:
        esc = float(t_axis[k_mid + hits[0]])
    return factor, esc


def run(
    spec: ProblemSpec,
    f: Field,
    max_n: int = 64,
    escape_factor: float = 10.0,
    cap_factor: float = 1e6,
    sup_tol: float = 1e-6,
    dominator: Optional[Field] = None,
    callback: Optional[Callable[[IterationState], None]] = None,
) -> TrajectoryReport:
    """Drive the scheme to a verdict.

    ConvergedBelowCap: successive sup-differences fell below sup_tol while
    the weighted norm stayed under the cap. NormEscape: the norm exceeded
    cap_factor times its first-iterate peak, or grew by escape_factor across
    the second half of the horizon. Stalled: neither within max_n stages.

    A dominator field (e.g. a certified ceiling) is checked against every
    iterate, with a slack of 1e-9 of its peak; violations are counted, never
    silently clipped.
    """
    mu = exponents(spec).mu
    state = initial_state(f, spec, mu=mu)
    if callback:
        callback(state)
    m_first = max(float(np.max(state.m_curve)), 1e-300)
    cap = cap_factor * m_first
    viol = 0
    excess = 0.0
    lat = f.lattice
    if dominator is not None:
        slack = 1e-9 * max(float(np.max(dominator.values)), 1e-300)

    def check_dominator(st: IterationState):
        nonlocal viol, excess
        if dominator is None:
            return
        gap = st.w.values - dominator.values
        top = float(np.max(gap))
        if top > slack:  # count the violating nodes only when there are some
            viol += int(np.count_nonzero(gap > slack))
            excess = max(excess, top)

    check_dominator(state)
    verdict = VERDICT_STALLED
    cap_hit = False
    while state.n < max_n:
        state = iterate(state, f, spec, mu=mu)
        if callback:
            callback(state)
        check_dominator(state)
        factor, esc = _growth(state.m_curve, lat)
        cap_hit = float(np.max(state.m_curve)) > cap
        if cap_hit or factor >= escape_factor:
            verdict = VERDICT_ESCAPE
            break
        if state.sup_diff < sup_tol:
            verdict = VERDICT_CONVERGED
            break

    factor, esc = _growth(state.m_curve, lat)
    if cap_hit:
        # the cap trigger is itself a growth statement across iterates
        factor = max(factor, float(np.max(state.m_curve)) / m_first)
    t_axis = lat.t_axis()
    return TrajectoryReport(
        verdict=verdict,
        n_final=state.n,
        m_curve=[(float(t), float(m)) for t, m in zip(t_axis, state.m_curve)],
        growth_factor=factor,
        escape_time=esc,
        final_norm=float(state.m_curve[-1]),
        sup_diff=state.sup_diff,
        dominator_violations=viol,
        dominator_max_excess=excess,
        params={
            "dim": spec.dim,
            "s": spec.s,
            "lam": spec.lam,
            "p": spec.p,
            "max_n": max_n,
            "escape_factor": escape_factor,
            "cap_factor": cap_factor,
            "sup_tol": sup_tol,
        },
    )


def singularity_profile(w: Field, t_window: Tuple[int, int]) -> Tuple[float, float]:
    """Least-squares slope of log(field) vs log|x| on 12 geometric shells
    between radii 2 hx and L/4, averaged over the time window; returns
    (slope, half-width of the 95% band)."""
    lat = w.lattice
    r = lat.spatial_radius()
    avg = np.mean(w.values[t_window[0]: t_window[1]], axis=0)
    edges = np.geomspace(2.0 * lat.hx, 0.25 * lat.L, 13)
    logs_r, logs_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (r >= a) & (r < b)
        if not m.any():
            continue
        val = float(np.mean(avg[m]))
        if val <= 0.0:
            raise ValueError("degenerate fit: field vanishes on a shell")
        logs_r.append(math.log(math.sqrt(a * b)))
        logs_w.append(math.log(val))
    x = np.asarray(logs_r)
    yv = np.asarray(logs_w)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, yv, rcond=None)
    n = len(x)
    if n > 2 and res.size:
        sigma2 = float(res[0]) / (n - 2)
        sx = float(np.sum((x - x.mean()) ** 2))
        band = 1.96 * math.sqrt(sigma2 / sx)
    else:
        band = 0.0
    return float(coef[0]), band


def gaussian_bump_forcing(lat: Lattice, amplitude: float, x_width: float = 1.0) -> Field:
    """Non-negative forcing: spatial Gaussian under a quintic time window
    that rises over [0.25, 0.5] and falls over [1.25, 1.5].

    Exactly zero before t = 0.25, so causality holds node-wise.
    """

    def fn(t, *xs):
        win = smooth_step((t - 0.25) / 0.25) * (1.0 - smooth_step((t - 1.25) / 0.25))
        return amplitude * win * np.exp(-sum(x * x for x in xs) / (x_width * x_width))

    return sample(fn, lat)
