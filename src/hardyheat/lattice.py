"""Space-time grids, sampled fields and weighted integrals.

The spatial grid is staggered by half a cell so no node sits at the origin:
every kernel and weight in this package is singular there. The time axis is
staggered the same way, with an optional zero-padded negative segment so that
causal fields (zero for t <= 0) are representable exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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

    def __post_init__(self):
        if not all(isinstance(n, int) for n in (self.dim, self.M, self.K)):
            raise LatticeError(f"dim, M and K must be ints, got {self.dim!r}, {self.M!r}, {self.K!r}")
        if self.dim < 1:
            raise LatticeError(f"dim must be >= 1, got {self.dim}")
        # the orthant path of the causal inverse needs an even M/2
        if self.M < 8 or (self.M & (self.M - 1)) != 0:
            raise LatticeError(f"M must be a power of two >= 8, got {self.M}")
        if self.K < 8:
            raise LatticeError(f"K must be >= 8, got {self.K}")
        if not (0 < self.L < math.inf and 0 < self.T < math.inf and 0 <= self.T_neg < math.inf):  # NaN fails
            raise LatticeError(f"bad extents L={self.L}, T_neg={self.T_neg}, T={self.T}: "
                               "need finite L > 0, T > 0 and T_neg >= 0")
        # hx^N ht weighs every sum and ht^2 the causal inverse's first-slab
        # moments: past the normal floats either gives NaN or zero norms
        meas = math.prod([self.hx] * self.dim + [self.ht])
        if not (np.finfo(float).tiny <= meas < math.inf and self.ht * self.ht < math.inf):
            raise LatticeError(f"extents L={self.L}, T_neg={self.T_neg}, T={self.T} put the cell "
                               f"measure hx^{self.dim} ht or ht^2 outside the normal floats")

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
        # the half-integer factors are exact: x[M-1-j] == -x[j] bitwise for every L
        return (np.arange(self.M) + 0.5 - self.M // 2) * self.hx

    def t_axis(self) -> np.ndarray:
        return -self.T_neg + (np.arange(self.K) + 0.5) * self.ht

    def causal_mask(self) -> np.ndarray:
        """Boolean per time slice: True where t > 0."""
        return self.t_axis() > 0.0

    def spatial_radius(self) -> np.ndarray:
        """|x| on every node of the spatial grid (see Nodes.radius)."""
        return Nodes(self).radius

    def xi_axis(self, pad: int = 1) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(pad * self.M, d=self.hx)

    def theta_axis(self, pad: int = 1) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(pad * self.K, d=self.ht)

    def xi_squared(self, pad: int = 1) -> np.ndarray:
        return _xi_squared(self, pad)


@lru_cache(maxsize=32)
def _xi_squared(lat: Lattice, pad: int) -> np.ndarray:
    ax = lat.xi_axis(pad)
    grids = np.meshgrid(*([ax] * lat.dim), indexing="ij", sparse=True)
    out = sum(g * g for g in grids)
    out.setflags(write=False)
    return out


def make_lattice(dim: int, L: float, M: int, T_neg: float, T: float, K: int) -> Lattice:
    """A Lattice from any integer and real types (numpy scalars, ints for the
    extents); Lattice itself checks the values."""
    return Lattice(dim=operator.index(dim), L=float(L), M=operator.index(M),
                   T_neg=float(T_neg), T=float(T), K=operator.index(K))


@dataclass(frozen=True)
class Nodes:
    """The nodes a field is stored on: every node of its lattice, or the
    positive orthant (every x_d > 0) of a field exactly even in every
    spatial axis, where each stored node stands for its 2^N mirror images.
    The package's radial fields are built on the orthant, and a run computes
    on its inputs' own node set, with no evenness test.
    A stage of the monotone scheme reads its geometry from here: the
    shape of the stored values, the copies each node stands for, the
    spatial measure each node carries (h^N, or 2^N h^N on the orthant)
    and the radius its spatial factors are computed on; the causal
    inverse reads orthant from the field."""

    lattice: Lattice
    orthant: bool = False

    @property
    def shape(self) -> tuple:
        lat = self.lattice
        return (lat.K,) + ((lat.M // 2 if self.orthant else lat.M),) * lat.dim

    @property
    def copies(self) -> int:
        """Lattice nodes each stored node stands for."""
        return 2 ** self.lattice.dim if self.orthant else 1

    @property
    def measure(self) -> float:
        return self.copies * self.lattice.cell_volume

    @property
    @lru_cache(maxsize=32)
    def radius_squared(self) -> np.ndarray:
        """|x|^2 at these nodes (shape self.shape[1:]), read-only and cached.
        The orthant's is built from the positive half of the axis, with no
        full-grid array: the same doubles summed in the same order, so it
        and any elementwise function of it are bitwise the full grid's."""
        lat = self.lattice
        ax = lat.x_axis()[lat.M // 2:] if self.orthant else lat.x_axis()
        grids = np.meshgrid(*([ax] * lat.dim), indexing="ij", sparse=True)
        r2 = sum(g * g for g in grids)
        r2.setflags(write=False)
        return r2

    @property
    @lru_cache(maxsize=32)
    def radius(self) -> np.ndarray:
        """|x| at these nodes: the root of radius_squared, read-only and cached."""
        r = np.sqrt(self.radius_squared)
        r.setflags(write=False)
        return r


@dataclass(frozen=True)
class Field:
    """Sampled scalar field on a lattice; immutable after construction.

    values is always read-only and at least double precision. An array that
    is already read-only and owns its data is adopted as it is, without a
    copy: whoever froze it gives up writing to it. Any other input (a
    writable array, a view, a list) is copied first; integer input becomes
    float64, and complex or single- or half-precision input raises
    ValueError. With orthant set, values holds only the positive orthant
    of a field exactly even in every spatial axis (see Nodes); full_grid
    expands it. A function that needs every node reads fld.full_grid() at
    entry, which costs nothing on a full-grid field; the stage path of the
    scheme (apply_Js, rhs_truncated, weighted_integral) reads stored nodes.
    """

    lattice: Lattice
    values: np.ndarray
    orthant: bool = False

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.nodes.shape:
            raise ValueError(f"values shape {v.shape} != node set shape {self.nodes.shape}")
        if v.dtype.kind == "c":
            raise ValueError(f"values of dtype {v.dtype} are complex, not real")
        if v.dtype.kind == "f" and np.finfo(v.dtype).bits < 64:
            raise ValueError(f"values of dtype {v.dtype} are below double precision")
        if v.dtype.kind in "biu":
            v = v.astype(float)
        elif v.flags.writeable or not v.flags.owndata:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def nodes(self) -> Nodes:
        return Nodes(self.lattice, self.orthant)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.lattice, values, self.orthant)

    def full_grid(self) -> "Field":
        """The field on every node of its lattice: itself, or an orthant
        field mirrored into each orthant."""
        if not self.orthant:
            return self
        v = unfold(self.values, (False,) * self.lattice.dim)
        v.setflags(write=False)
        return Field(self.lattice, v)


def mirror_halves(values: np.ndarray, ax: int):
    """(mirror, pos): the negative half of values along axis ax flipped onto
    the positive half, and the positive half (views)."""
    neg, pos = np.split(values, 2, axis=ax)
    return np.flip(neg, ax), pos


def parity_parts(vals: np.ndarray, dim: int) -> list:
    """(part, odd) pairs: the parity parts of vals (time first) about the
    grid centre on the positive orthant, odd[d] True where odd in axis d + 1.
    An axis whose mirrored halves are equal keeps the positive half alone
    as even, and one whose halves are exact negatives keeps it alone as odd:
    an exactly even input is one part, a view of its own orthant. The
    unfolded parts (see unfold) sum to vals."""
    parts = [(vals, ())]
    for ax in range(1, dim + 1):
        split = []
        for part, odd in parts:
            mirror, pos = mirror_halves(part, ax)
            if np.array_equal(mirror, pos):
                split.append((pos, odd + (False,)))
            elif np.array_equal(mirror, -pos):
                split.append((pos, odd + (True,)))
            else:
                split += [(0.5 * (pos + mirror), odd + (False,)), (0.5 * (pos - mirror), odd + (True,))]
        parts = split
    return parts


def unfold(part: np.ndarray, odd) -> np.ndarray:
    """A parity part (see parity_parts) on every node: flipped onto the
    negative side of each spatial axis, and negated there on the odd ones.
    The array is fresh."""
    v = part
    for ax, o in enumerate(odd, 1):
        mirror = np.flip(v, ax)
        v = np.concatenate([-mirror if o else mirror, v], axis=ax)
    return v


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


# bytes of one block in the blockwise passes over a field (weighted_integral
# here, solver.rhs_truncated, solver._stage_pass, and the causal inverse's
# spatial transforms on blocks of time slices and lag sum on blocks of
# modes): small enough that a block and its scratch buffers stay in a
# core's L2 cache
_BLOCK_BYTES = 1 << 18


def block_slices(slab_size: int) -> int:
    """Entries per block (at least one) of a blockwise pass along an axis
    whose entries are slabs of slab_size float64 values: time slices in
    weighted_integral, the solver's stage passes and the causal inverse's
    spatial transforms; modes (lanes of K values) in the lag sum's
    blocks, which take half a block."""
    return max(1, _BLOCK_BYTES // (8 * slab_size))


def weighted_slab_sums(slab: np.ndarray, weight: np.ndarray, power: float, orthant: bool,
                       scratch: np.ndarray) -> np.ndarray:
    """The sums of weight * slab^power over space of a block of time
    slices slab, one per slice, unscaled by the nodes' measure: the
    integrand is built in scratch (x^1 is x exactly), and on the full grid
    folded onto the positive orthant one axis at a time before it is
    summed. Each slice is summed whole, so the sums do not depend on the
    block. On an exactly even integrand each fold doubles exactly, so the
    sum is bitwise the one of the same field stored on the orthant."""
    prod = np.power(slab, power, out=scratch[: slab.shape[0]])
    prod *= weight
    if not orthant:
        for ax in range(1, weight.ndim + 1):
            mirror, pos = mirror_halves(prod, ax)
            prod = pos + mirror
    return prod.reshape(slab.shape[0], -1).sum(axis=1)


def weighted_integral(fld: Field, weight_exponent: float, power: float = 1.0) -> np.ndarray:
    """Riemann sums of |x|^a * fld^power over space, one per time slice (an
    array of K sums), on the nodes fld is stored on. fld is non-negative
    (the scheme's iterate), so a negative value is an error. The integrand
    is built block by block of time slices in one block-sized scratch
    (weighted_slab_sums), so no full-size power field is built, and the
    sums are bitwise those of a whole-array pass."""
    lat = fld.lattice
    nodes = fld.nodes
    if np.min(fld.values) < 0.0:
        raise ValueError("negative integrand in weighted_integral")
    weight = nodes.radius ** weight_exponent
    step = block_slices(weight.size)
    scratch = np.empty((min(step, lat.K),) + weight.shape)
    sums = np.empty(lat.K)
    for k in range(0, lat.K, step):
        sums[k : k + step] = weighted_slab_sums(fld.values[k : k + step], weight, power, nodes.orthant, scratch)
    return sums * nodes.measure
