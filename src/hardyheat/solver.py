"""Constructive monotone scheme: repeatedly invert the fractional heat
operator on truncated, saturated right-hand sides. The iterates increase
pointwise; either they settle under a certified ceiling (global branch) or
the weighted norm runs away (blow-up proxy).

Finite-time blow-up itself is not observable on a grid; the reported proxy
is norm escape past a cap or past a growth factor within the horizon, both
fixed below and echoed in the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .constants import ProblemSpec, exponents
from .kernels import apply_Js
from .lattice import (Field, Lattice, Nodes, SampleError, block_slices, mirror_halves, weighted_integral,
                      weighted_slab_sums)
from .special import smooth_step


class MonotonicityError(RuntimeError):
    """An iterate decreased somewhere beyond slack: quadrature failure."""


# relative slack, against the peak, for rounding below zero: in the step
# from one iterate to the next and in the inverse operator's output
MONO_SLACK = 1e-12

# run's verdict thresholds (see run), echoed in every report's params
ESCAPE_FACTOR = 10.0
CAP_FACTOR = 1e6
SUP_TOL = 1e-6


def _cutoff_factors(lat: Lattice, radius: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stage-n cutoff as a product of a spatial factor on the nodes of
    radius (radius's shape) and a time ramp (a K-vector); see cutoff."""
    # radial blend over one unit; zero from radius n+1 on, inside the
    # allowed n+2 envelope, which keeps consecutive stages nested
    sp = 1.0 - smooth_step(radius - n)
    t = lat.t_axis()
    lo_in, lo_out = 1.0 / (n + 1.0), 1.0 / (n + 2.0)
    ramp_up = smooth_step((t - lo_out) / (lo_in - lo_out))
    ramp_down = 1.0 - smooth_step(t - (n + 1.0))
    return sp, ramp_up * ramp_down


def cutoff(lat: Lattice, n: int) -> np.ndarray:
    """Smooth space-time cutoff of stage n: 1 on the ball of radius n over
    the time band (1/(n+1), n+1), and 0 outside the ball of radius n+2 and
    the band (1/(n+2), n+2), with quintic blends between."""
    sp, tim = _cutoff_factors(lat, lat.spatial_radius(), n)
    return sp[None, ...] * tim.reshape((lat.K,) + (1,) * lat.dim)


def _saturate(x: np.ndarray, n: float, out: np.ndarray) -> np.ndarray:
    """out <- x / (1 + x/n), written as x * (n / (n + x)) in three in-place
    passes; out must not be x. For x >= 0 the result is non-decreasing in x
    and in n, and below n."""
    np.add(x, n, out=out)
    np.divide(n, out, out=out)
    np.multiply(x, out, out=out)
    return out


def rhs_truncated(w: Field, f: Field, spec: ProblemSpec, n: int) -> Field:
    """Saturated right-hand side at stage n.

    Stage 0 keeps only the bounded forcing term; stages n >= 1 add the
    saturated Hardy and power terms. Every factor is capped (by n or by the
    cutoff support), the output is bounded and exactly causal, and the whole
    expression is non-decreasing in both n and w.

    The cutoff is applied as its spatial factor and its time ramp, and the
    Hardy weight as one spatial factor, both computed on the stored nodes'
    radius: no full-size cutoff or weight array is built. The slices where
    the ramp vanishes are zeroed; the others are computed block by block of
    time slices, a few in-place passes each into two block-sized scratch
    buffers: max(w, 0) ** spec.p is raised there too, so no power field is
    built or kept. w and f share one node set, and so does the output (see
    lattice.Nodes). It makes no pass that could change no bit: w is
    clamped at zero only if it dips below, and a factor of the cutoff
    multiplies only where it is not exactly 1.
    """
    lat = w.lattice
    if f.lattice != lat:
        raise ValueError("f lies on another lattice than w")
    if f.orthant != w.orthant:
        raise ValueError("w and f are stored on different node sets (orthant and full grid)")
    low = np.min(w.values)
    dips = low < 0.0
    if dips and low < -1e-12 * max(np.max(w.values), 1.0):
        raise ValueError("negative iterate passed to rhs_truncated")
    if np.min(f.values) < 0.0:
        raise ValueError("forcing must be non-negative")
    nodes = w.nodes
    # before the spatial factors: from the second stage on glibc serves
    # field-size arrays from its heap, and block-size arrays allocated
    # first could split the hole a freed field left
    out = np.empty(nodes.shape)
    sp, tim = _cutoff_factors(lat, nodes.radius, n)
    sp_one = float(np.min(sp)) == 1.0
    if n > 0:
        hardy = spec.lam * (nodes.radius + 1.0 / n) ** (-2.0 * spec.s)
    live = np.nonzero(tim)[0]  # one run of slices: the ramp is a bump
    k0, k1 = (live[0], live[-1] + 1) if live.size else (0, 0)
    core = np.nonzero(tim == 1.0)[0]  # one run too, inside live
    c0, c1 = (core[0], core[-1] + 1) if core.size else (0, 0)
    out[:k0] = 0.0
    out[k1:] = 0.0
    step = block_slices(sp.size)
    scratch = np.empty((2, step) + sp.shape)
    for k in range(k0, k1, step):
        blk = slice(k, min(k + step, k1))
        o = out[blk]
        m = o.shape[0]
        if n == 0:
            _saturate(f.values[blk], 1.0, o)
        else:
            a, b = scratch[:, :m]
            x = np.maximum(w.values[blk], 0.0, out=a) if dips else w.values[blk]
            _saturate(x, n, o)
            o *= hardy
            o += _saturate(np.power(x, spec.p, out=a), n, b)
            o += _saturate(f.values[blk], n, b)
        if not sp_one:
            o *= sp
        if not (c0 <= k and k + m <= c1):
            o *= tim[blk].reshape((m,) + (1,) * lat.dim)
    out.setflags(write=False)  # handed to Field without a copy
    return Field(lat, out, w.orthant)


@dataclass(frozen=True)
class IterationState:
    n: int
    w: Field
    m_curve: np.ndarray
    sup_diff: float


def blowup_functional(w: Field, p: float, mu: float) -> np.ndarray:
    """Per-slice weighted norm: integral of |x|^(-mu) w^p over space, from
    the non-negative iterate w (see weighted_integral)."""
    return weighted_integral(w, -mu, p)


@dataclass
class _Tally:
    """A run's dominator on the run's node set: its values, the slack an
    iterate may exceed it by, the lattice nodes each stored node stands
    for, and so far the lattice nodes counted beyond the slack and the
    largest excess of a stage that had some."""

    values: np.ndarray
    slack: float
    copies: int
    violations: int = 0
    excess: float = 0.0


def _stage_pass(out: Field, w: Field, p: float, mu: float, tally: Optional[_Tally]) -> Tuple[float, np.ndarray]:
    """(sup_diff, m_curve) of the stage whose new iterate is out, the
    inverse operator's output on its right-hand side, from the iterate w,
    in one pass over out, block by block of time slices through one
    block-sized scratch:

    - the clamp: the exact operator preserves non-negativity, so negative
      output is rounding, clamped to zero within MONO_SLACK of the peak
      and a MonotonicityError beyond it. out's array is the right-hand
      side's own and the caller holds its only reference, so it is clamped
      in place: made writable for the pass (a Field's values own their
      data) and frozen again;
    - the step bounds: a drop below w beyond MONO_SLACK of the peak means
      the quadrature broke, a MonotonicityError; sup_diff is max |out - w|;
    - the weighted norm's slice sums of |x|^(-mu) out^p (see
      lattice.weighted_slab_sums): m_curve is bitwise
      blowup_functional(out, p, mu);
    - with a tally, the nodes where out exceeds its dominator by more than
      the slack, counted (times the copies) and their largest excess kept.

    No full-size difference, power or gap is built beside the stage's
    fields."""
    vals, prev = out.values, w.values
    nodes = out.nodes
    weight = nodes.radius ** -mu
    step = block_slices(weight.size)
    scratch = np.empty((min(step, len(vals)),) + weight.shape)
    sums = np.empty(len(vals))
    lows, peaks, drops, rises, tops = [], [], [], [], []
    count = 0
    vals.setflags(write=True)
    try:
        for k in range(0, len(vals), step):
            a = vals[k : k + step]
            d = scratch[: a.shape[0]]
            lows.append(a.min())
            peaks.append(a.max())
            if lows[-1] < 0.0:
                np.maximum(a, 0.0, out=a)
            np.subtract(a, prev[k : k + step], out=d)
            drops.append(d.min())
            rises.append(d.max())
            if tally is not None:
                np.subtract(a, tally.values[k : k + step], out=d)
                tops.append(d.max())
                if tops[-1] > tally.slack:
                    count += int(np.count_nonzero(d > tally.slack))
            sums[k : k + step] = weighted_slab_sums(a, weight, p, nodes.orthant, scratch)
    finally:
        vals.setflags(write=False)
    low = float(np.min(lows))
    # the peak after the clamp too: clamping raises no block's maximum
    # above zero, and below zero the floor holds
    scale = max(float(np.max(peaks)), 1e-300)
    if low < -MONO_SLACK * scale:
        raise MonotonicityError(f"inverse operator output reaches {low:.3e} (scale {scale:.3e})")
    drop = float(np.min(drops))
    if drop < -MONO_SLACK * scale:
        raise MonotonicityError(f"iterate decreased by {drop:.3e} (scale {scale:.3e})")
    if tally is not None:
        top = float(np.max(tops))
        if top > tally.slack:  # the nodes were counted only where there are some
            tally.violations += tally.copies * count
            tally.excess = max(tally.excess, top)
    return max(float(np.max(rises)), -drop), sums * nodes.measure


def _step(w: Field, f: Field, spec: ProblemSpec, n: int, tally: Optional[_Tally] = None) -> IterationState:
    """Stage n of the scheme from the iterate w: invert the operator on the
    stage-n right-hand side. Monotonicity is asserted, not assumed (see
    _stage_pass), and with a tally the new iterate is checked against the
    run's dominator.

    A stage holds three fields: the forcing, w and the right-hand side,
    which the inverse overwrites with its output (apply_Js's overwrite_g),
    the stage's new iterate. Beside them only blocks are built: the
    right-hand side raises each block of the iterate to the power p in
    scratch, and _stage_pass takes every check and the weighted norm in
    one blocked pass over the new iterate."""
    w_next = apply_Js(rhs_truncated(w, f, spec, n), spec.s, overwrite_g=True)
    sup_diff, m_curve = _stage_pass(w_next, w, spec.p, exponents(spec).mu, tally)
    return IterationState(n=n, w=w_next, m_curve=m_curve, sup_diff=sup_diff)


def initial_state(f: Field, spec: ProblemSpec, *, tally: Optional[_Tally] = None) -> IterationState:
    """Stage 0: the inverse operator applied to the saturated forcing, a step
    from the zero field (so sup_diff is the sup norm of the iterate). The
    state is stored on f's nodes. tally is internal to run, which passes
    its dominator's; other callers leave it out."""
    zeros = np.zeros(f.values.shape)
    zeros.setflags(write=False)  # adopted without a copy
    zero = f.with_values(zeros)
    return _step(zero, f, spec, 0, tally)


def iterate(state: IterationState, f: Field, spec: ProblemSpec, *,
            tally: Optional[_Tally] = None) -> IterationState:
    """The next stage of the scheme from state. tally is internal to run,
    which passes its dominator's; other callers leave it out."""
    return _step(state.w, f, spec, state.n + 1, tally)


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
        return strict_dumps(self.__dict__)


def json_float(x):
    """x itself if it is a finite float (or not a float), else "inf", "-inf"
    or "nan": the spelling shared by TrajectoryReport.to_json and the CLI."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def is_json_number(val, integral: bool) -> bool:
    """A JSON number (not a bool), and an integer when integral."""
    return not isinstance(val, bool) and isinstance(val, int if integral else (int, float))


def strict_json(obj):
    """obj with every non-finite float spelled by json_float, so that
    json.dumps(..., allow_nan=False) accepts it."""
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    return json_float(obj)


def strict_dumps(obj, indent: Optional[int] = None) -> str:
    """obj as strict JSON with sorted keys, non-finite floats spelled by
    json_float."""
    return json.dumps(strict_json(obj), sort_keys=True, indent=indent, allow_nan=False)


def _growth(m: np.ndarray, lat: Lattice) -> Tuple[float, Optional[float]]:
    """Growth factor of the weighted norm across the second half of the
    horizon, and the time it first grows ESCAPE_FACTOR-fold (None if never)."""
    k_mid = lat.K // 2
    ref = m[k_mid]
    if ref <= 0.0:
        return (math.inf if np.max(m[k_mid:]) > 0 else 1.0), None
    factor = float(np.max(m[k_mid:]) / ref)
    t_axis = lat.t_axis()
    esc = None
    hits = np.nonzero(m[k_mid:] >= ESCAPE_FACTOR * ref)[0]
    if hits.size:
        esc = float(t_axis[k_mid + hits[0]])
    return factor, esc


def _on_orthant(fld: Field) -> Field:
    """fld stored on the positive orthant if it is exactly even in every
    spatial axis (the one even part of lattice.parity_parts), else fld."""
    if fld.orthant:
        return fld
    v = fld.values
    for ax in range(1, fld.lattice.dim + 1):
        mirror, v = mirror_halves(v, ax)
        if not np.array_equal(mirror, v):
            return fld
    return Field(fld.lattice, v, orthant=True)


def run(
    spec: ProblemSpec,
    f: Field,
    max_n: int = 64,
    dominator: Optional[Field] = None,
    callback: Optional[Callable[[IterationState], None]] = None,
) -> TrajectoryReport:
    """Drive the scheme to a verdict.

    ConvergedBelowCap: successive sup-differences fell below SUP_TOL while
    the weighted norm stayed under the cap. NormEscape: the norm exceeded
    CAP_FACTOR times its first-iterate peak, or grew by ESCAPE_FACTOR across
    the second half of the horizon. Stalled: neither within max_n stages.

    A dominator field (e.g. a certified ceiling) is checked against every
    iterate, in the stage's pass over it (_stage_pass), with a slack of
    1e-9 of its peak; violations are counted, never silently clipped.

    Every stage is stored and computed on the positive orthant (see
    lattice.Nodes) when f and the dominator are exactly even in every
    spatial axis, whichever node set they come on, and on the full grid
    otherwise. Every forcing and dominator this package builds is stored
    on the orthant, and a full-grid one that is exactly even is copied
    onto it, so a stage holds three orthant fields. Each orthant node
    stands for 2^N equal ones: the violation count is scaled by 2^N, and
    the report is bitwise the one of the full grid. The callback receives
    each state on the run's node set (state.w.full_grid() expands it).
    """
    lat = f.lattice
    if dominator is not None and dominator.lattice != lat:
        raise ValueError("the dominator lies on another lattice than f")
    f = _on_orthant(f)
    if dominator is not None:
        dominator = _on_orthant(dominator)
        if dominator.orthant != f.orthant:
            f, dominator = f.full_grid(), dominator.full_grid()
    tally = None
    if dominator is not None:
        tally = _Tally(dominator.values, 1e-9 * max(float(np.max(dominator.values)), 1e-300), f.nodes.copies)
    state = initial_state(f, spec, tally=tally)
    if callback:
        callback(state)
    m_first = max(float(np.max(state.m_curve)), 1e-300)
    cap = CAP_FACTOR * m_first
    verdict = VERDICT_STALLED
    cap_hit = False
    while state.n < max_n:
        state = iterate(state, f, spec, tally=tally)
        if callback:
            callback(state)
        factor, esc = _growth(state.m_curve, lat)
        cap_hit = float(np.max(state.m_curve)) > cap
        if cap_hit or factor >= ESCAPE_FACTOR:
            verdict = VERDICT_ESCAPE
            break
        if state.sup_diff < SUP_TOL:
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
        dominator_violations=tally.violations if tally else 0,
        dominator_max_excess=tally.excess if tally else 0.0,
        params={
            "dim": spec.dim,
            "s": spec.s,
            "lam": spec.lam,
            "p": spec.p,
            "max_n": max_n,
            "escape_factor": ESCAPE_FACTOR,
            "cap_factor": CAP_FACTOR,
            "sup_tol": SUP_TOL,
        },
    )


def singularity_profile(w: Field, t_window: Tuple[int, int]) -> Tuple[float, float]:
    """Least-squares slope of log(field) vs log|x| on 12 geometric shells
    between radii 2 hx and L/4, averaged over the time window; returns
    (slope, half-width of the 95% band)."""
    w = w.full_grid()
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


# spatial width of gaussian_bump_forcing: the bump is exp(-|x|^2 / BUMP_WIDTH^2)
BUMP_WIDTH = 1.0


def gaussian_bump_forcing(lat: Lattice, amplitude: float) -> Field:
    """Non-negative forcing: spatial Gaussian under a quintic time window
    that rises over [0.25, 0.5] and falls over [1.25, 1.5], stored on the
    positive orthant. Exactly zero before t = 0.25, so causality holds
    node-wise. A non-finite amplitude raises SampleError.
    """
    if not math.isfinite(amplitude):
        raise SampleError(f"non-finite amplitude {amplitude!r}")
    t = lat.t_axis().reshape((lat.K,) + (1,) * lat.dim)
    win = smooth_step((t - 0.25) / 0.25) * (1.0 - smooth_step((t - 1.25) / 0.25))
    vals = amplitude * win * np.exp(-Nodes(lat, True).radius_squared / (BUMP_WIDTH * BUMP_WIDTH))
    vals.setflags(write=False)
    return Field(lat, vals, orthant=True)
