"""The integral operators: the fractional heat operator applied spectrally,
its causal convolution inverse, the ground-state commutator operator, and the
closed-form radial identities tying them together.
"""

from __future__ import annotations

import itertools
import math
import numbers
import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constants import frac_laplacian_constant, mu_from_lambda, upsilon
from .lattice import Field, Lattice, block_slices, parity_parts, unfold
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

def heat_symbol(lat: Lattice, s: float, pad_space: int = 1, pad_time: int = 1,
                block: slice = slice(None)) -> np.ndarray:
    """(i theta + |xi|^2)^s on the folded half of the (padded) frequency grid:
    spatial indices 0..P/2 on each axis (P = pad_space*M), time last with
    the theta indices block of 0..pad_time*K/2 as rfftn keeps them (all of
    them by default).

    fftfreq's indices k and P - k square to the same |xi|^2, so this corner
    holds the symbol at every spatial frequency (see _fold_views). The base
    has non-negative real part, so numpy's principal power is the branch
    with |arg| <= pi/2 and Hermitian symmetry in (xi, theta), except on the
    time-Nyquist plane, which fftfreq gives the one frequency -pi/ht.
    """
    corner = (slice(0, pad_space * lat.M // 2 + 1),) * lat.dim
    theta = lat.theta_axis(pad_time)[: pad_time * lat.K // 2 + 1][block]
    return (1j * theta + lat.xi_squared(pad_space)[corner][..., None]) ** s


def _fold_views(n: int) -> tuple[tuple[slice, slice], ...]:
    """(spectrum, folded symbol) slice pairs along one length-n fftfreq axis:
    indices 0..n/2 read the symbol as they are, n/2+1..n-1 read it at n - k."""
    h = n // 2
    return (slice(0, h + 1), slice(0, h + 1)), (slice(h + 1, n), slice(n - h - 1, 0, -1))


def apply_Hs_spectral(fld: Field, s: float, pad_space: int = 2, pad_time: int = 4) -> Field:
    """Apply the order-s fractional heat operator as a Fourier multiplier.

    Works on the padded torus with real FFTs, time last and halved, in
    numpy's rfftn/irfftn axis order but only over rows the data reaches:
    the forward transform's rows still untransformed on an axis are zero off
    the data window, and the inverse keeps only the window's rows, so every
    kept value is bitwise rfftn's and irfftn's. Off the time-Nyquist plane
    the symbol is Hermitian; that plane's Im(symbol) term is the imaginary
    residue a complex transform would leave, and it must stay within 1e-10
    of the real part (a broken branch or severe aliasing). An odd padded
    time length has no such plane, and no residue.

    The only whole-window complex array is the window rows' time spectrum.
    The padded spatial transforms and the symbol act on one
    lattice.block_slices block of time-frequency planes at a time, in one
    reused buffer zeroed off the window, and only the window's rows are
    written back; the time inverse runs on blocks of rows and writes the K
    kept slices straight into the output. Each lane sees the same 1-D
    transforms as a whole-array pass, so the output is bitwise the same.
    """
    if not 0.0 < s <= 1.0:  # NaN fails this too
        raise ValueError(f"need 0 < s <= 1, got {s}")
    for pad in (pad_space, pad_time):
        if isinstance(pad, bool) or not isinstance(pad, numbers.Integral) or pad < 1:
            raise ValueError(f"padding factors must be positive integers, got {pad!r}")
    fld = fld.full_grid()
    lat = fld.lattice
    # space is centred (tails decay both ways), time pads the future only:
    # the operator kernel is causal, so wrap-around contamination comes from
    # late-time tails re-entering early
    n_space = pad_space * lat.M
    n_time = pad_time * lat.K
    off = (pad_space - 1) * lat.M // 2
    window = (slice(off, off + lat.M),) * lat.dim
    tspec = np.fft.rfft(np.moveaxis(fld.values, 0, -1), n=n_time, axis=-1)
    n_freq = tspec.shape[-1]
    step = block_slices(2 * n_space ** lat.dim)
    buf = np.empty((n_space,) * lat.dim + (min(step, n_freq),), dtype=complex)
    corners = [tuple(zip(*c)) for c in itertools.product(_fold_views(n_space), repeat=lat.dim)]
    resid = 0.0
    for j in range(0, n_freq, step):
        block = slice(j, min(j + step, n_freq))
        spec = buf[..., : block.stop - j]
        spec.fill(0.0)
        spec[window] = tspec[..., block]
        for d in reversed(range(lat.dim)):
            rows = spec[window[:d]]
            np.fft.fft(rows, axis=d, out=rows)
        sym = heat_symbol(lat, s, pad_space, pad_time, block)
        # the time-Nyquist plane is the last, read before the multiply
        if n_time % 2 == 0 and block.stop == n_freq:
            k = np.arange(n_space)
            fold = np.ix_(*(np.minimum(k, n_space - k),) * lat.dim)
            plane = spec[..., -1] * sym[..., -1].imag[fold]
            np.fft.ifftn(plane, out=plane)
            resid = float(np.max(np.abs(plane[window]))) / n_time
            del plane
        for spec_views, sym_views in corners:
            spec[spec_views] *= sym[sym_views]
        for d in range(lat.dim):
            rows = spec[window[:d]]
            np.fft.ifft(rows, axis=d, out=rows)
        tspec[..., block] = spec[window]
    del buf
    out = np.empty(lat.shape)
    lanes, kept = tspec.reshape(-1, n_freq), out.reshape(lat.K, -1).T
    step = block_slices(n_time)
    for i in range(0, lanes.shape[0], step):
        kept[i : i + step] = np.fft.irfft(lanes[i : i + step], n=n_time, axis=-1)[:, : lat.K]
    scale = max(float(np.max(out)), -float(np.min(out)), 1e-300)
    if resid > 1e-10 * scale:
        raise AliasingError(f"imaginary residue {resid:.9e} vs scale {scale:.3e}")
    out.setflags(write=False)  # handed to Field without a copy
    return Field(lat, out)


def _spatial_multiply(values: np.ndarray, lat: Lattice, multiplier: np.ndarray) -> np.ndarray:
    """Apply a real, even spatial Fourier multiplier, given on the rfftn
    half-spectrum (see _heat_multiplier), over the last lat.dim axes of real
    values."""
    axes = tuple(range(values.ndim - lat.dim, values.ndim))
    spec = np.fft.rfftn(values, axes=axes)
    spec *= multiplier
    return np.fft.irfftn(spec, s=(lat.M,) * lat.dim, axes=axes)


def _heat_multiplier(lat: Lattice, tau: float, positive: bool) -> np.ndarray:
    """The multiplier of exp(tau * Laplacian) on the rfftn half-spectrum of
    space (last axis 0..M/2): the sharp exp(-tau |xi|^2), or with positive
    the sampled positive kernel's (heat_kernel_multiplier)."""
    half = (Ellipsis, slice(0, lat.M // 2 + 1))
    if positive:
        return heat_kernel_multiplier(lat, tau)[half]
    return np.exp(-tau * lat.xi_squared()[half])


def heat_semigroup(values: np.ndarray, lat: Lattice, tau: float) -> np.ndarray:
    """Spatial heat smoothing exp(tau * Laplacian), batched over leading axes.

    Spectrally accurate, but the sharp multiplier rings at the 1e-4 level
    for tau below the grid scale; paths with a positivity contract use
    heat_kernel_multiplier instead.
    """
    return _spatial_multiply(values, lat, _heat_multiplier(lat, tau, False))


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
    return _spatial_multiply(values, lat, _heat_multiplier(lat, tau, True))


# ---------------------------------------------------------------------------
# causal inverse: Volterra convolution in time
# ---------------------------------------------------------------------------

def _linear_weights(a, b, q: float):
    """Product-linear weights for the weakly singular weight tau^(q-1) on
    [a, b]: (left, right) such that left g(a) + right g(b) is the exact
    integral of tau^(q-1) g(tau) over [a, b] for every linear g, from the
    first two moments of tau^(q-1). Both are non-negative. a may be 0 when
    q > 0; a and b may be arrays of slabs."""
    m0 = (b ** q - a ** q) / q
    m1 = (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)
    return (b * m0 - m1) / (b - a), (m1 - a * m0) / (b - a)


# sub-slabs of the first time slab, where the memory kernel concentrates
_FIRST_SLAB_REFINE = 4


def _mode_classes(n: int, dim: int) -> np.ndarray:
    """The mode classes of dim axes with modes 0..n-1: each sorted mode
    tuple once, in itertools.combinations_with_replacement order, as the
    rows of an integer array of shape (classes, dim)."""
    return np.array(list(itertools.combinations_with_replacement(range(n), dim)),
                    dtype=np.intp).reshape(-1, dim)


@lru_cache(maxsize=8)
def _js_classes(n: int, dim: int) -> np.ndarray:
    """Read-only index of shape (n,) * dim: each mode tuple's class, the
    entry of _js_weights that holds its kernel (see _mode_classes)."""
    shape = (n,) * dim
    rank = np.empty(n ** dim, dtype=np.intp)  # only read at sorted tuples
    classes = _mode_classes(n, dim)
    rank[np.ravel_multi_index(tuple(classes.T), shape)] = np.arange(len(classes))
    index = rank[np.ravel_multi_index(tuple(np.sort(np.indices(shape), axis=0)), shape)]
    index.setflags(write=False)
    return index


# terms of _lag_weights' series; at m = 2, where it converges slowest, the
# ratio of its terms tends to 1/4, so the last is below 1e-18 of the first
_LAG_WEIGHT_TERMS = 32


def _lag_weights(K: int, s: float) -> np.ndarray:
    """alpha_m, m = 0..K-1: the weight of lag m over the unit slabs from
    [1, 2] on, the integral of tau^(s-1) against the hat function of m on
    [m - 1, m + 1] (lag 1 only sees [1, 2], the first slab being refined
    apart, and lag 0 nothing).

    The slabs' product-linear weights give it as the second difference of
    x^(s+1) / (s(s+1)) at m, which loses digits like eps m^2 (up to 1.4e-8
    relative at K = 4096). Expanding (1 +- 1/m)^(s+1) binomially instead, alpha_m is
    m^(s-1) times sum_(k>=1) c_k m^(2-2k), with c_1 = 1 and c_(k+1) =
    c_k (2k-1-s)(2k-s) / ((2k+1)(2k+2)), for m >= 2. Every term is
    positive, so the sum, by Horner's rule in 1/m^2, holds to rounding.
    alpha_1 is (2 (2^s - 1) - s) / (s (s + 1)), with 2^s - 1 from expm1.
    """
    c = np.ones(_LAG_WEIGHT_TERMS)
    for k in range(1, _LAG_WEIGHT_TERMS):
        c[k] = c[k - 1] * (2 * k - 1 - s) * (2 * k - s) / ((2 * k + 1) * (2 * k + 2))
    m = np.arange(2.0, K)
    inv_sq = 1.0 / (m * m)
    series = np.full(m.shape, c[-1])
    for ck in c[-2::-1]:
        series *= inv_sq
        series += ck
    alpha = np.zeros(K)
    alpha[1:2] = (2.0 * math.expm1(s * math.log(2.0)) - s) / (s * (s + 1.0))
    alpha[2:] = m ** (s - 1.0) * series
    return alpha


def _js_weights(lat: Lattice, s: float) -> tuple:
    """(d, w0, w1, a): the lag kernel per mode class of the heat
    multiplier's modes 0..M/2 (_mode_classes; a class multiplies its 1-D
    factors in sorted mode order). Lag 0 weighs the source with w0, lag 1
    with w1, lag m >= 2 with a[m] d^m, d the one-slab positive-kernel
    multiplier and a (zero at lags 0 and 1) shared by all classes. Slab
    [j ht, (j+1) ht] puts its product-linear weights on lags j and j + 1;
    the first is split into _FIRST_SLAB_REFINE sub-slabs against the
    source interpolated between lags 0 and 1."""
    K, ht = lat.K, lat.ht
    classes = _mode_classes(lat.M // 2 + 1, lat.dim)

    def multiplier(tau):
        if tau == 0:
            return 1.0
        axis = _heat_kernel_multiplier_1d(lat.M, lat.hx, lat.L, tau)
        out = axis[classes[:, 0]]
        for d in range(1, lat.dim):
            out *= axis[classes[:, d]]
        return out

    w0, w1 = np.zeros(len(classes)), np.zeros(len(classes))
    edges = ht * np.arange(_FIRST_SLAB_REFINE + 1) / _FIRST_SLAB_REFINE
    for a, b in zip(edges[:-1], edges[1:]):
        for tau, wgt in zip((a, b), _linear_weights(a, b, s)):
            ef = wgt * multiplier(tau)
            w0 += (1.0 - tau / ht) * ef
            w1 += tau / ht * ef
    # the weight is homogeneous: slab j's weights are ht^s times those on [j, j+1]
    alpha = ht ** s * _lag_weights(K, s)
    d = multiplier(ht)
    w1 += alpha[1] * d
    alpha[:2] = 0.0
    return d, w0 / gamma_fn(s), w1 / gamma_fn(s), alpha / gamma_fn(s)


# a short-memory class's band stops at the first lag m >= 2 from which all
# later lags weigh at most 2^-60 of w0 (bounded by a_m |d|^m / (1 - |d|),
# as a_m falls with m): 2^-8 of an ulp of the lag-0 term
_BAND_CUT = 2.0 ** -60
# a long class (d >= 2^(-600 / (K - 1))) scales slice j by d^-j: data
# below 2^400 (larger data is first normalised by a power of two) stays
# below 2^1000, with 2^24 of headroom for the Toeplitz product's K-term sums
_EXPONENT_BUDGET = 600
# the largest m n k of one Toeplitz GEMM: half of OpenBLAS's default
# one-thread limit, 65536 * GEMM_MULTITHREAD_THRESHOLD (4)
_GEMM_VOLUME = 1 << 17


@dataclass(frozen=True)
class _JsKernel:
    """_js_weights split by memory, read-only. lags holds every class's
    weights at lags 0 to the longest band's end: w0, w1, then a short
    class's band cut by _BAND_CUT (zero past its end, from lag 2 on where
    its memory ends at lag 1, and from lag 2 on a long class). A long
    class's lags >= 2 are one product with the Toeplitz matrix
    T = sum_m a_m S^m, as diag(d^k) T diag(d^-k) = sum_m a_m d^m S^m
    (powers: d^k, one column per class of long, in order). plans keeps
    each parity's _lane_plan."""

    lags: np.ndarray      # (band, classes)
    long: np.ndarray      # (long classes,)
    powers: np.ndarray    # (K, long classes)
    toeplitz: np.ndarray  # (K, K)
    plans: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


# a few entries: the verifier uses three values of s on one lattice
@lru_cache(maxsize=4)
def _js_kernel(lat: Lattice, s: float) -> _JsKernel:
    """The _JsKernel of (lattice, s): 0.19 MB at 32^3 x 48 and 0.41 MB at
    64^3 x 48, plus 0.05 and 0.17 MB of the even part's lane plan."""
    d, w0, w1, a = _js_weights(lat, s)
    K = lat.K
    long = d >= 2.0 ** (-_EXPONENT_BUDGET / (K - 1))
    rows, open_ = [w0, w1], ~long
    for m in range(2, K):
        weight = a[m] * np.power(d, float(m))
        open_ &= np.abs(weight) > _BAND_CUT * w0 * (1.0 - np.abs(d))
        if not open_.any():
            break
        rows.append(np.where(open_, weight, 0.0))
    k = np.arange(K)
    return _JsKernel(
        lags=_frozen(np.array(rows)),
        long=_frozen(np.flatnonzero(long)),
        powers=_frozen(np.power(d[long], k[:, None].astype(float))),
        toeplitz=_frozen(a[np.maximum(k[:, None] - k, 0)]),  # a vanishes at lags 0 and 1
    )


@lru_cache(maxsize=8)
def _dct_pair(n: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) n x n matrices of one orthant axis, read-only.

    forward is the unnormalised DCT-II, y_k = 2 sum_j x_j cos(pi k (2j+1) / 2n),
    and inverse its closed-form inverse, the DCT-III divided by n:
    x_j = (y_0 / 2 + sum_(k>=1) y_k cos(pi k (2j+1) / 2n)) / n. On an odd axis
    (-1)^j is folded into both (forward's columns, inverse's rows): forward
    is then the DST-II whose position m holds sine mode n - m, and inverse
    maps back to the samples. The angle k (2j+1) is reduced mod 4n in
    integers before the cosine.
    """
    j = np.arange(n)
    cos = np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * n)) / (2 * n))
    forward = 2.0 * cos
    inverse = cos.T / n
    inverse[:, 0] *= 0.5
    if odd:
        signs = (-1.0) ** j
        forward *= signs
        inverse *= signs[:, None]
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def _spatial_transform(src: np.ndarray, mats: Sequence[np.ndarray], dst: np.ndarray) -> None:
    """dst <- mats[d] applied along spatial axis d + 1 of src for every d,
    one lattice.block_slices block of time slices at a time. Each axis is a
    batch of matrix products written through np.matmul's out, `x @ A.T` on
    the last axis and `A @ x` on the others, with that axis and the last as
    matmul's core axes (its axes argument), so numpy runs one GEMM per
    batch entry: with two or more spatial axes each is n x n by n x n, too
    small for the BLAS library to start its worker threads at the n in use
    (up to 32); on a 1-D lattice it is one product of a block of time
    slices by n. The last of a block's products lands in its place in dst,
    and the ones before it alternate, backwards, between one cache-sized
    scratch and dst. A product never writes its own source: in place (src
    is dst) a first product that would land in dst goes to a second
    scratch instead, and a chain of one product ends in the scratch and is
    copied back. src is only read unless it is dst."""
    n = len(mats)
    # 0 and 1 are the scratch blocks, None is dst
    targets = [0 if (n - i) % 2 else None for i in range(1, n + 1)]
    if src is dst and targets[0] is None:
        targets[0] = 1 if n > 1 else 0
    step = block_slices(math.prod(src.shape[1:]))
    scratch = np.empty((1 + (1 in targets), min(step, src.shape[0])) + src.shape[1:])
    for k in range(0, src.shape[0], step):
        x, d = src[k : k + step], dst[k : k + step]
        for ax, (mat, t) in enumerate(zip(mats, targets), 1):
            y = d if t is None else scratch[t, : d.shape[0]]
            if ax == x.ndim - 1:
                np.matmul(x, mat.T, out=y)
            else:
                np.matmul(mat, x, out=y, axes=[(0, 1), (ax, -1), (ax, -1)])
            x = y
        if x is not d:
            d[...] = x


def _lane_plan(kernel: _JsKernel, lat: Lattice, odd: tuple) -> tuple:
    """(cls, blocks, G), kept in kernel.plans, for the parity part with odd
    axes odd under the current block budget. Its lanes are its buffer's
    columns, one mode each (0..M/2-1 on an even axis, M/2..1 on an odd
    one), of classes cls.

    The lanes are split evenly into blocks of at most
    lattice.block_slices(2 K) lanes: blocks holds (a, b, band, long,
    n_long, columns) for lanes a..b-1, which need lags 0..band-1 (the
    longest band among them); long holds the block's n_long long lanes
    (indices in the block), padded to a multiple of the GEMMs' chunk of G
    lanes with copies of the last, and columns their columns of powers."""
    G = max(1, _GEMM_VOLUME // (lat.K * lat.K))
    width = block_slices(2 * lat.K)
    plan = kernel.plans.get((odd, width, G))
    if plan is None:
        half = lat.M // 2
        index = _js_classes(half + 1, lat.dim)[tuple(slice(half, 0, -1) if o else slice(0, half) for o in odd)]
        cls = _frozen(index.astype(np.int32).ravel())  # half an intp's bytes a lane
        column = np.full(kernel.lags.shape[1], -1)
        column[kernel.long] = np.arange(len(kernel.long))
        column = column[cls]
        band = 2 + np.count_nonzero(kernel.lags[2:], axis=0)[cls]
        n = -(-len(cls) // width)
        cuts = len(cls) * np.arange(n + 1) // n
        blocks = []
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            long = np.flatnonzero(column[a:b] >= 0)
            n_long = len(long)
            long = np.concatenate([long, np.repeat(long[-1:], -n_long % G)])
            blocks.append((a, b, int(band[a:b].max()), _frozen(long), n_long, _frozen(column[a + long])))
        plan = kernel.plans[odd, width, G] = (cls, tuple(blocks), G)
    return plan


def _block_lag_sum(lanes: np.ndarray, cls: np.ndarray, kernel: _JsKernel, block: tuple, G: int) -> None:
    """The lag sum of one _lane_plan block of lanes (of classes cls), in
    place. The block is copied after a zero slice per lag of its band, and
    its lags 0 to the band's end are one einsum over a sliding window of
    each lane's slices. The long lanes' slice j is divided by d^j (after a power-of-two
    normalisation if their maximum reaches 2^(1000 - _EXPONENT_BUDGET)),
    multiplied by the Toeplitz matrix in one K x K by K x G GEMM a chunk,
    and slice k by d^k: exact scalings, so this is the lag sum to rounding
    for data of any exponent; it is added to their band sums."""
    a, b, band, long, n_long, columns = block
    x = lanes[:, a:b]
    K, n = x.shape
    padded = np.empty((K + band - 1, n))
    padded[: band - 1] = 0.0
    padded[band - 1 :] = x
    # window[k, lane, j] is slice k + j - (band - 1): lag band - 1 - j
    window = np.ndarray((K, n, band), float, padded, 0, padded.strides + padded.strides[:1])
    y = np.einsum("knj,jn->kn", window, kernel.lags[:band].take(cls[a:b], axis=1)[::-1])
    if n_long:
        z = padded[band - 1 :].take(long, axis=1)
        del padded, window  # read no more: free them before the GEMMs' arrays
        expo = max(0, math.frexp(max(z.max(), -z.min()))[1] - (1000 - _EXPONENT_BUDGET))
        powers = kernel.powers.take(columns, axis=1)
        np.divide(np.ldexp(z, -expo, out=z) if expo else z, powers, out=z)
        t = np.matmul(kernel.toeplitz, z.reshape(K, -1, G), out=np.empty_like(powers).reshape(K, -1, G),
                      axes=[(0, 1), (0, 2), (0, 2)]).reshape(powers.shape)
        t *= powers
        if expo:
            np.ldexp(t, expo, out=t)
        long = long[:n_long]
        sums = y.take(long, axis=1)
        sums += t[:, :n_long]
        y[:, long] = sums
    x[...] = y


def _lag_sum(lanes: np.ndarray, kernel: _JsKernel, plan: tuple) -> None:
    """out[k] = sum_(m <= k) weight_m x[k - m] on every lane (column) of
    lanes, in place, along the _lane_plan plan: each block on its own
    (_block_lag_sum). A lane's result depends on no block budget: past its
    own band's end a lane's weights in its block's band are exact zeros."""
    cls, blocks, G = plan
    for block in blocks:
        _block_lag_sum(lanes, cls, kernel, block, G)


def _js_on_orthant(part: np.ndarray, odd: Sequence[bool], lat: Lattice, kernel: _JsKernel,
                   in_place: bool = False) -> np.ndarray:
    """The Volterra convolution of one parity part on the positive orthant:
    per spatial axis the forward matrix of _dct_pair (a DCT-II on an even
    axis, on an odd one the DST-II whose position m holds sine mode M/2 - m),
    the causal lag sum of each mode, on blocks of adjacent modes (_lag_sum),
    and per axis the inverse.

    It runs in one C-contiguous buffer, time first: a fresh one, into which
    the forward transform reads part without writing it, or with in_place
    part itself (writable and C-contiguous; overwritten). The forward
    transform acts slice by slice, so the slices at t <= 0 are zeroed in
    the buffer after it, as if in part. On 2-D and 3-D lattices each
    spatial product is the GEMM a whole-array batch would run, and the lag
    sum depends on no budget, so the output is bitwise the same for any
    lattice.block_slices budget; on a 1-D lattice a block of one time
    slice is a (1, M/2) by (M/2, M/2) product, which numpy hands to another
    BLAS path, so its last bit can differ. A fresh buffer owns its data,
    so the causal inverse can freeze it without a copy."""
    half = lat.M // 2
    pairs = [_dct_pair(half, o) for o in odd]
    c = part if in_place else np.empty(part.shape)
    _spatial_transform(part, [forward for forward, _ in pairs], c)
    past = ~lat.causal_mask()
    if past.any():
        c[past] = 0.0
    _lag_sum(c.reshape(lat.K, -1), kernel, _lane_plan(kernel, lat, tuple(odd)))
    _spatial_transform(c, [inverse for _, inverse in pairs], c)
    return c


def apply_Js(g: Field, s: float, causal_tol: float = 1e-8, *, overwrite_g: bool = False) -> Field:
    """Causal inverse of the fractional heat operator.

    A Volterra convolution in time: each output slice combines heat-smoothed
    earlier slices with weights from exact moments of the tau^(s-1) memory
    kernel. The first slab, where the memory kernel concentrates, is
    sub-divided _FIRST_SLAB_REFINE times against a time-interpolated source.
    Every weight is non-negative: the discrete operator maps non-negative
    causal data to non-negative causal output and is monotone. Output
    vanishes identically on t <= 0.

    The order must lie in (0, 1]. The lag kernel depends only on
    (lattice, s) and is cached per mode class (_js_kernel). Each parity
    part of the input is convolved on the positive orthant and unfolded
    back: per spatial axis (M/2) x (M/2) matrix products on blocks of time
    slices and, between them, a direct causal lag sum in the same buffer
    (_js_on_orthant): a band of lags on the modes whose memory dies within
    a few lags, and one Toeplitz product for the others. An input exactly
    even in every spatial axis is one part, and its output is exactly
    even. An orthant-stored input (every stage of a solver run on even
    data) is that one part as it is: its output is stored on the orthant
    too, with no evenness test and no mirror.

    By default the input is left as it is and the output array is fresh.
    With overwrite_g, as with scipy.fft's overwrite_x, a C-contiguous
    orthant-stored input's values are the buffer the convolution runs in:
    the output is a Field over g's own array, and g holds the output from
    then on. Only a caller that holds the input's one reference should pass
    it (the solver's stage, whose right-hand side dies there). A full-grid
    input ignores the flag: its parts are fresh arrays or views of it, and
    its output is fresh.
    """
    if not 0.0 < s <= 1.0:  # NaN fails this too
        raise ValueError(f"need 0 < s <= 1, got {s}")
    lat = g.lattice
    past = ~lat.causal_mask()
    # the transforms only read the input unless they overwrite it; what
    # lies at t <= 0 is checked here and zeroed in the transform buffer
    # (see _js_on_orthant)
    vals = np.asarray(g.values, dtype=float)
    if past.any():
        scale = max(float(np.max(vals)), -float(np.min(vals)))
        leak = float(np.max(np.abs(vals[past])))
        if scale > 0 and leak > causal_tol * scale:
            raise NonCausalInput(
                f"input has mass {leak:.3e} at t <= 0 (scale {scale:.3e})"
            )

    kernel = _js_kernel(lat, float(s))
    if g.orthant:
        in_place = overwrite_g and vals.flags.c_contiguous
        if in_place:
            vals.setflags(write=True)  # a Field's values own their data
        out = _js_on_orthant(vals, (False,) * lat.dim, lat, kernel, in_place=in_place)
    else:
        (part, odd), *rest = parity_parts(vals, lat.dim)
        out = unfold(_js_on_orthant(part, odd, lat, kernel), odd)
        for part, odd in rest:
            out += unfold(_js_on_orthant(part, odd, lat, kernel), odd)
    out[past] = 0.0
    out.setflags(write=False)  # handed to Field without a copy
    return Field(lat, out, g.orthant)


# ---------------------------------------------------------------------------
# kernel transform vs closed-form symbol
# ---------------------------------------------------------------------------

# symbol_of_kernel_check cuts its tau integral at SYMBOL_TAU_MAX
SYMBOL_TAU_MAX = 80.0


def symbol_of_kernel_check(s: float) -> float:
    """Compare the space-time transform of tau^(s-1) tau^(-N/2) e^(-|x|^2/4tau)
    with its closed form (4 pi)^(N/2) Gamma(s) (i theta + |xi|^2)^(-s).

    The space transform of the Gaussian is exact, (4 pi tau)^(N/2)
    e^(-|xi|^2 tau), and its (4 pi)^(N/2) cancels the closed form's, so what
    is checked is int_0^inf tau^(s-1) e^(-a tau) dtau = Gamma(s) a^(-s) at
    each a = i theta + |xi|^2 of the frequency box. Returns the worst
    relative error; the tau integral is panel Gauss plus analytic
    corrections at both ends.
    """
    thetas = [-4.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0]
    # at xi = 0 the tau tail is only oscillatory-damped; keep |theta| >= 0.5
    freqs = [
        1j * th + xi2
        for xi2 in (0.25, 1.0, 4.0, 16.0, 0.0)
        for th in thetas
        if xi2 > 0.0 or abs(th) >= 0.5
    ]
    tau_min = 1e-8
    tau_max = SYMBOL_TAU_MAX
    # geometric panels through the singular end, then width-capped panels so
    # Gauss resolves the e^(-i theta tau) oscillation out to tau_max
    osc_width = 2.0 * math.pi / (3.0 * max(max(abs(th) for th in thetas), 1.0))
    edges = np.concatenate(
        [
            geometric_edges(tau_min, 1.0, 1.35),
            np.arange(1.0 + osc_width, tau_max, osc_width),
            [tau_max],
        ]
    )
    nodes, wts = gauss_legendre_panels(edges, 8)
    wts = wts * nodes ** (s - 1.0)

    worst = 0.0
    for a in freqs:
        integ = np.sum(wts * np.exp(-a * nodes))
        # small-tau: integrand ~ tau^{s-1} (1 - a tau + ...)
        integ += tau_min ** s / s - a * tau_min ** (s + 1.0) / (s + 1.0)
        # large-tau: three-term integration-by-parts tail of tau^{s-1} e^{-a tau}
        integ += (
            np.exp(-a * tau_max)
            * tau_max ** (s - 1.0)
            / a
            * (1.0 + (s - 1.0) / (a * tau_max) + (s - 1.0) * (s - 2.0) / (a * tau_max) ** 2)
        )
        closed = gamma_fn(s) * a ** (-s)
        worst = max(worst, abs(integ - closed) / abs(closed))
    return worst


# ---------------------------------------------------------------------------
# ground-state operator
# ---------------------------------------------------------------------------

def _shift_weights(steps: float, quadratic: bool) -> tuple:
    """(lag, weight) pairs of the time shift values(., t - steps * ht) along
    the slice axis; lag -1 reads the next slice, and a slice outside the
    window counts as zero. Linear interpolation puts convex weights on lags
    m and m + 1, m = floor(steps). quadratic asks for 3-point Lagrange on
    lags m - 1, m and m + 1: third-order accurate for smooth data, but the
    weights are signed, so it is reserved for paths with no positivity
    contract. On a whole number of steps both are the one lag m."""
    m = math.floor(steps)
    f = steps - m
    if not quadratic or f == 0.0:
        return ((m, 1.0 - f), (m + 1, f))
    return ((m - 1, 0.5 * f * (f - 1.0)), (m, 1.0 - f * f), (m + 1, 0.5 * f * (f + 1.0)))


def _lag_table(lat: Lattice, taus, coefs, order_preserving: bool) -> np.ndarray:
    """The memory integral sum_q coefs[q] * S_taus[q][v(., t - taus[q])] as
    one table G(lag, xi) = sum_q coefs[q] * a_q(lag) * m_q(xi), row lag + 1
    for the lags -1, 0, 1, ... up to the last one in use, on the rfftn
    half-spectrum of space (applied by _memory_integral).

    a_q is the time shift's weight (_shift_weights) and m_q the heat
    multiplier (_heat_multiplier): order_preserving pairs the positive
    kernel with the linear shift, otherwise the sharp multiplier goes with
    the 3-point shift. A lag >= K shifts the whole window out and is
    dropped: what precedes the window counts as zero.
    """
    rules = [[(lag, wgt) for lag, wgt in _shift_weights(tau / lat.ht, not order_preserving)
              if lag < lat.K and wgt != 0.0] for tau in taus]
    rows = 2 + max((lag for rule in rules for lag, _ in rule), default=-1)
    table = np.zeros((rows,) + (lat.M,) * (lat.dim - 1) + (lat.M // 2 + 1,))
    for tau, c, rule in zip(taus, coefs, rules):
        mult = c * _heat_multiplier(lat, tau, order_preserving)
        for lag, wgt in rule:
            table[lag + 1] += wgt * mult
    return table


def _memory_integral(lat: Lattice, table: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """A _lag_table applied to a field, back in physical space. spec is the
    field's rfftn over space (slices first); slice k of the result sums
    table[lag + 1] * spec[k - lag] over the lags whose slice k - lag lies in
    the window: a causal convolution over time, one multiply per lag."""
    K = spec.shape[0]
    out = np.zeros_like(spec)
    for lag in range(-1, min(table.shape[0] - 1, K)):
        if lag < 0:
            out[:-1] += table[0] * spec[1:]
        else:
            out[lag:] += table[lag + 1] * spec[: K - lag]
    return np.fft.irfftn(out, s=(lat.M,) * lat.dim, axes=tuple(range(1, lat.dim + 1)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _MemoryTerm:
    """Part of the ground-state operator's tau-integral, sum_q c_q h(tau_q):
    its nodes tau_q, its lag table of c_q-weighted smoothings of the shifted
    w * phi, and its weight term sum_q c_q * weight_profile(tau_q) (plus,
    in the tail, the beyond-window integral)."""

    taus: np.ndarray
    table: np.ndarray
    profile: np.ndarray

    def __call__(self, lat: Lattice, vals: np.ndarray, spec: np.ndarray) -> np.ndarray:
        return vals * self.profile - _memory_integral(lat, self.table, spec)


@dataclass(frozen=True)
class _LsPlan:
    """Everything apply_Ls needs that does not depend on the field."""

    weight: np.ndarray   # w = |x|^(-mu)
    h0: _MemoryTerm      # the integrand at the innermost first-slab edge
    first: _MemoryTerm   # the other first-slab edges, with their weights
    tail: _MemoryTerm    # Gauss panels from the first slab to the window span
    innermost: float     # h0's weight in the piece [0, innermost edge]
    h0_weight: float     # h0's whole weight in the first slab


# the verifier uses three keys (kato, ls_bound, ground_state); an entry is
# three lag tables and four spatial arrays, 0.2 MB at 2-D 32^2 x 32 and
# 1.1 MB at 64^2 x 48
@lru_cache(maxsize=8)
def _ls_plan(lat: Lattice, lam: float, s: float, order_preserving: bool) -> _LsPlan:
    """apply_Ls's quadrature, lag tables and weight terms for one
    (lattice, lam, s, order_preserving); read-only, built on first use."""
    mu = mu_from_lambda(lam, lat.dim, s)
    r = lat.spatial_radius()
    w = r ** (-mu)
    tau1 = lat.hx ** 2
    span = lat.T + lat.T_neg
    tau_huge = 4000.0

    def term(taus, coefs, beyond=0.0):
        if order_preserving:
            mult = sum(c * _heat_multiplier(lat, tau, True) for tau, c in zip(taus, coefs))
            profile = _spatial_multiply(w, lat, mult)
        else:
            profile = sum(c * smoothed_power(r, tau, lat.dim, mu) for tau, c in zip(taus, coefs))
        table = _lag_table(lat, taus, coefs, order_preserving)
        return _MemoryTerm(_frozen(np.array(taus, dtype=float)), _frozen(table), _frozen(profile + beyond))

    # first slab [0, tau1], geometrically graded toward 0 where the kernel
    # concentrates; h(0) = 0 anchors the innermost product-linear rule, and
    # each edge carries the merged weights of the sub-slabs it bounds
    sub_edges = tau1 / 4.0 ** np.arange(5, -1.0, -1.0)
    left, right = _linear_weights(sub_edges[:-1], sub_edges[1:], -s)
    edge_wts = np.r_[left, 0.0] + np.r_[0.0, right]
    innermost = sub_edges[0] ** (-s) / (1.0 - s)

    nodes, wts = gauss_legendre_panels(geometric_edges(tau1, span, 1.6), 4)
    # beyond the window the shifted field is zero; only the weight term is
    # left and its closed-form profile integrates out to tau_huge + tail
    nodes2, wts2 = gauss_legendre_panels(geometric_edges(span, tau_huge, 1.6), 4)
    beyond = sum(wq * tq ** (-1.0 - s) * smoothed_power(r, tq, lat.dim, mu) for tq, wq in zip(nodes2, wts2))
    # power-law tail: the smoothed weight decays like tau^(-mu/2)
    beyond += smoothed_power(r, tau_huge, lat.dim, mu) * tau_huge ** (-s) / (s + mu / 2.0)
    return _LsPlan(
        weight=_frozen(w),
        h0=term(sub_edges[:1], [1.0]),
        first=term(sub_edges[1:], edge_wts[1:]),
        tail=term(nodes, wts * nodes ** (-1.0 - s), beyond),
        innermost=innermost,
        h0_weight=innermost + edge_wts[0],
    )


def apply_Ls(phi: Field, lam: float, s: float, order_preserving: bool = False) -> Field:
    """Ground-state commutator operator.

    Uses the semigroup split of the kernel: the integrand at memory depth tau
    is h(tau) = phi(x,t) * S_tau[w](x) - S_tau[w * phi(., t - tau)](x) with w
    the |x|^(-mu) weight and S_tau the heat semigroup; the difference
    vanishes at tau = 0, so the tau^(-1-s) singularity is product-integrated
    over the first slab [0, hx^2].

    The default favours accuracy: the smoothed weight in closed form and a
    3-point Lagrange time shift. order_preserving=True smooths the weight on
    the lattice with the positive kernel and shifts in time by linear
    (convex) interpolation; the discrete operator then preserves the
    pointwise inequalities of its integrand exactly (used by the inequality
    checks).

    The tau-integral is linear in phi and the shift acts on time alone, so
    each of its three parts (the innermost first-slab edge, the other
    first-slab edges, the Gauss tail) is one lag table on the spatial
    half-spectrum of w * phi plus a weight term phi * sum c S_tau[w]. These
    depend only on (lattice, lam, s, order_preserving) and are cached
    (_ls_plan); a call is one forward rfft over space and three inverses.
    """
    phi = phi.full_grid()
    lat = phi.lattice
    plan = _ls_plan(lat, float(lam), float(s), bool(order_preserving))
    vals = phi.values
    spec = np.fft.rfftn(plan.weight * vals, axes=tuple(range(1, lat.dim + 1)))
    h0 = plan.h0(lat, vals, spec)
    innermost = plan.innermost * float(np.max(np.abs(h0)))
    acc = plan.first(lat, vals, spec)
    acc += plan.h0_weight * h0
    # refinement budget: the unresolved innermost piece must be a small
    # fraction of the assembled first slab, else the grading was too shallow
    first_slab_scale = float(np.max(np.abs(acc)))
    if first_slab_scale > 0.0 and innermost > 0.25 * first_slab_scale:
        raise QuadratureError(
            f"first-slab refinement did not settle: innermost piece "
            f"{innermost:.3e} vs slab total {first_slab_scale:.3e}"
        )
    acc += plan.tail(lat, vals, spec)
    acc /= gamma_abs_neg(s)
    return Field(lat, _frozen(acc))


def ground_state_residual(phi: Field, lam: float, s: float) -> float:
    """Relative residual of the ground-state identity on the annulus
    0.5 <= |x| <= 2, over a few slices in the middle of the window.

    Left side: spectral operator minus the Hardy term; right side: the
    ground-state operator applied to the |x|^mu-conjugated field. Both sides
    are computed by independent routes.
    """
    phi = phi.full_grid()
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


# radial_identity_error's spatial padding: the operator is non-local, so the
# periodic images of the truncated power reach the annulus
RADIAL_PAD_SPACE = 4


def radial_identity_error(lat: Lattice, lam: float, s: float) -> float:
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
    applied = apply_Hs_spectral(fld, s, pad_space=RADIAL_PAD_SPACE, pad_time=1)
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
