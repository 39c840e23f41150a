"""Space-time grids, sampled fields, discrete Fourier transforms and weighted
integrals.

The spatial grid is staggered by half a cell so no node sits at the origin:
every kernel and weight in this package is singular there. The time axis is
staggered the same way, with an optional zero-padded negative segment so that
causal fields (zero for t <= 0) are representable exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np


class LatticeError(ValueError):
    pass


class SampleError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    dim: int
    L: float
    M: int
    T_neg: float
    T: float
    K: int

    @property
    def hx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def ht(self) -> float:
        return (self.T + self.T_neg) / self.K

    @property
    def shape(self) -> tuple:
        return (self.K,) + (self.M,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.hx ** self.dim

    def x_axis(self) -> np.ndarray:
        return -self.L + (np.arange(self.M) + 0.5) * self.hx

    def t_axis(self) -> np.ndarray:
        return -self.T_neg + (np.arange(self.K) + 0.5) * self.ht

    def causal_mask(self) -> np.ndarray:
        """Boolean per time slice: True where t > 0."""
        return self.t_axis() > 0.0

    def spatial_radius(self) -> np.ndarray:
        return _spatial_radius(self)

    def spatial_power(self, a: float) -> np.ndarray:
        """|x|^a on the spatial grid; finite for any a thanks to staggering."""
        return self.spatial_radius() ** a

    def xi_axis(self, pad: int = 1) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(pad * self.M, d=self.hx)

    def theta_axis(self, pad: int = 1) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(pad * self.K, d=self.ht)

    def xi_squared(self, pad: int = 1) -> np.ndarray:
        return _xi_squared(self, pad)


@lru_cache(maxsize=32)
def _spatial_radius(lat: Lattice) -> np.ndarray:
    ax = lat.x_axis()
    grids = np.meshgrid(*([ax] * lat.dim), indexing="ij", sparse=True)
    r = np.sqrt(sum(g * g for g in grids))
    r.setflags(write=False)
    return r


@lru_cache(maxsize=32)
def _xi_squared(lat: Lattice, pad: int) -> np.ndarray:
    ax = lat.xi_axis(pad)
    grids = np.meshgrid(*([ax] * lat.dim), indexing="ij", sparse=True)
    out = sum(g * g for g in grids)
    out.setflags(write=False)
    return out


def make_lattice(dim: int, L: float, M: int, T_neg: float, T: float, K: int) -> Lattice:
    if dim < 1:
        raise LatticeError(f"dim must be >= 1, got {dim}")
    if M < 8 or (M & (M - 1)) != 0:
        raise LatticeError(f"M must be a power of two >= 8, got {M}")
    if K < 8:
        raise LatticeError(f"K must be >= 8, got {K}")
    if L <= 0 or T <= 0 or T_neg < 0:
        raise LatticeError(f"bad extents L={L}, T_neg={T_neg}, T={T}")
    return Lattice(dim=dim, L=float(L), M=int(M), T_neg=float(T_neg), T=float(T), K=int(K))


@dataclass(frozen=True)
class Field:
    """Sampled scalar field on a lattice; immutable after construction.

    values is always read-only. An array that is already read-only and owns
    its data is adopted as it is, without a copy: whoever froze it gives up
    writing to it. Any other input (a writable array, a view, a list) is
    copied first.
    """

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.lattice.shape:
            raise ValueError(f"values shape {v.shape} != lattice shape {self.lattice.shape}")
        if v.flags.writeable or not v.flags.owndata:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.lattice, values)

    def l2(self) -> float:
        """L2 norm with the space-time cell measure."""
        lat = self.lattice
        meas = lat.cell_volume * lat.ht
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * meas))

    def is_causal(self) -> bool:
        """True when every slice with t <= 0 is exactly zero."""
        return not np.any(self.values[~self.lattice.causal_mask()])


def zero_field(lat: Lattice) -> Field:
    return Field(lat, np.zeros(lat.shape))


def sample(fn: Callable, lat: Lattice) -> Field:
    """Evaluate fn(t, x1, ..., xd) on the staggered grid.

    fn receives broadcastable arrays and must return finite values at every
    node; NaN or inf is reported with the first offending index.
    """
    t = lat.t_axis().reshape((lat.K,) + (1,) * lat.dim)
    xs = []
    for d in range(lat.dim):
        shape = [1] * (lat.dim + 1)
        shape[1 + d] = lat.M
        xs.append(lat.x_axis().reshape(shape))
    vals = np.broadcast_to(np.asarray(fn(t, *xs), dtype=float), lat.shape).copy()
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SampleError(f"non-finite sample at index {idx}")
    return Field(lat, vals)


def _stagger_phase(lat: Lattice) -> np.ndarray:
    """Product of per-axis phases aligning the DFT with the continuous
    transform about the origin (the grid is offset by half a cell)."""
    t0 = lat.t_axis()[0]
    x0 = lat.x_axis()[0]
    phase = np.exp(-1j * lat.theta_axis() * t0).reshape((lat.K,) + (1,) * lat.dim)
    for d in range(lat.dim):
        shape = [1] * (lat.dim + 1)
        shape[1 + d] = lat.M
        phase = phase * np.exp(-1j * lat.xi_axis() * x0).reshape(shape)
    return phase


def transform(fld: Field) -> np.ndarray:
    """Unitary-normalised discrete space-time Fourier transform: the
    spectrum on the (theta, xi) grid of theta_axis and xi_axis.

    It approximates the continuous transform, half-cell phase corrections
    included; inverse_transform is its exact algebraic inverse, so the
    round trip is the identity to rounding.
    """
    lat = fld.lattice
    return lat.cell_volume * lat.ht * _stagger_phase(lat) * np.fft.fftn(fld.values)


def inverse_transform(lat: Lattice, spectrum: np.ndarray) -> Field:
    """The field whose transform is spectrum: real unless the imaginary
    residue exceeds 1e-8 of the real part."""
    scale = lat.cell_volume * lat.ht
    out = np.fft.ifftn(spectrum * np.conj(_stagger_phase(lat)) / scale)
    resid = float(np.max(np.abs(out.imag)))
    ref = max(float(np.max(np.abs(out.real))), 1e-300)
    if resid > 1e-8 * ref:
        return Field(lat, out)
    return Field(lat, out.real)


def weighted_integral(
    fld: Field, weight_exponent: float, power: float, t_index: Optional[int] = None
):
    """Riemann sum of |x|^a * field^p over one spatial slice (a float), or
    over every slice at once when t_index is None (an array of K sums)."""
    lat = fld.lattice
    vals = fld.values if t_index is None else fld.values[t_index]
    if power != int(power) and np.any(vals < 0):
        raise ValueError("negative values with fractional power")
    integrand = np.asarray(vals, dtype=float) ** power
    integrand *= lat.spatial_power(weight_exponent)
    sums = integrand.reshape(-1, lat.M ** lat.dim).sum(axis=1) * lat.cell_volume
    return sums if t_index is None else float(sums[0])


@dataclass(frozen=True)
class GraphNorm:
    l2: float
    multiplier_seminorm: float


def graph_norm(fld: Field, s: float) -> GraphNorm:
    """L2 norm plus the order-s multiplier energy |i theta + |xi|^2|^s."""
    lat = fld.lattice
    spec = transform(fld)
    theta = lat.theta_axis().reshape((lat.K,) + (1,) * lat.dim)
    sym = (theta * theta + lat.xi_squared() ** 2) ** (s / 2.0)
    dxi = 2.0 * np.pi / (lat.M * lat.hx)
    dth = 2.0 * np.pi / (lat.K * lat.ht)
    sem = float(np.sum(sym * np.abs(spec) ** 2) * dxi ** lat.dim * dth)
    return GraphNorm(l2=fld.l2(), multiplier_seminorm=sem)


def export_field_csv(fld: Field, path: str, t_index: Optional[int] = None) -> None:
    """Write node rows as CSV: axis indices, coordinates, value."""
    lat = fld.lattice
    tax = lat.t_axis()
    xax = lat.x_axis()
    header = (
        ["i_t"]
        + [f"i_x{d + 1}" for d in range(lat.dim)]
        + ["t"]
        + [f"x{d + 1}" for d in range(lat.dim)]
        + ["value"]
    )
    t_range = range(lat.K) if t_index is None else [t_index]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in t_range:
            slab = fld.values[k]
            for idx in np.ndindex(*slab.shape):
                row = [k, *idx, f"{tax[k]:.12g}"]
                row += [f"{xax[i]:.12g}" for i in idx]
                row.append(f"{slab[idx]:.12g}")
                writer.writerow(row)
