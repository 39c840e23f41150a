import dataclasses
import itertools
import math

import numpy as np
import pytest

from hardyheat.lattice import (
    Field,
    LatticeError,
    Nodes,
    SampleError,
    make_lattice,
    parity_parts,
    sample,
    unfold,
    weighted_integral,
)


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 8.0, 64, 8.0, 8.0, 64)


def test_make_lattice_arithmetic():
    lat = make_lattice(2, 8.0, 64, 0.0, 4.0, 64)
    assert lat.hx == pytest.approx(0.25)
    assert lat.shape == (64, 64, 64)
    # staggering keeps every node away from the origin
    assert float(np.min(lat.spatial_radius())) >= lat.hx / 2.0
    assert float(np.min(lat.spatial_radius())) == pytest.approx(
        lat.hx * math.sqrt(2) / 2.0
    )


def test_make_lattice_rejects_bad_sizes():
    with pytest.raises(LatticeError):
        make_lattice(2, 8.0, 63, 0.0, 4.0, 64)
    with pytest.raises(LatticeError):
        make_lattice(2, 8.0, 4, 0.0, 4.0, 64)
    with pytest.raises(LatticeError):
        make_lattice(2, 8.0, 64, 0.0, 4.0, 6)
    with pytest.raises(LatticeError):
        make_lattice(2, -1.0, 64, 0.0, 4.0, 64)


@pytest.mark.parametrize("change", [{"M": 10}, {"M": 12}, {"M": 30}, {"K": 4},
                                    {"L": math.nan}, {"K": 16.0}, {"L": 1e-200},
                                    {"L": 1e300}, {"T": 1e308}, {"T": 1e-320}])
def test_lattice_checks_itself(change):
    # a copy made without make_lattice is checked too
    lat = make_lattice(2, 8.0, 16, 0.0, 4.0, 16)
    with pytest.raises(LatticeError):
        dataclasses.replace(lat, **change)
    # numpy integers are accepted and stored as ints
    assert make_lattice(np.int64(2), 8, np.int64(16), 0, 4, np.int32(16)) == lat


def test_sample_and_causality(lat):
    g = sample(lambda t, x, y: np.exp(-x * x - y * y - t * t), lat)
    assert np.all(g.values > 0)
    causal = sample(lambda t, x, y: (t > 0) * np.exp(-x * x - y * y), lat)
    assert not np.any(causal.values[~lat.causal_mask()])
    # the singular weight is finite at every staggered node
    w = sample(lambda t, x, y: (x * x + y * y) ** (-0.2) + 0.0 * t, lat)
    assert np.all(np.isfinite(w.values))


def test_sample_reports_bad_nodes(lat):
    with pytest.raises(SampleError):
        sample(lambda t, x, y: np.where(x > 0, np.nan, 1.0) + 0.0 * (y + t), lat)


def test_field_immutable(lat):
    f = Field(lat, np.zeros(lat.shape))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_field_adopts_only_frozen_owned_arrays(lat):
    writable = np.ones(lat.shape)
    frozen = np.ones(lat.shape)
    frozen.setflags(write=False)
    big = np.ones((lat.K + 1,) + lat.shape[1:])
    big.setflags(write=False)
    view = big[1:]  # read-only, but a view into another array
    assert not view.flags.writeable and not view.flags.owndata
    fields = [Field(lat, a) for a in (writable, frozen, view)]
    assert not np.shares_memory(fields[0].values, writable)
    assert np.shares_memory(fields[1].values, frozen)
    assert not np.shares_memory(fields[2].values, big)
    writable[0, 0, 0] = 7.0  # the source stays the caller's to write
    assert fields[0].values[0, 0, 0] == 1.0
    for fld in fields + [Field(lat, fields[1].values), Field(lat, np.zeros(lat.shape))]:
        assert not fld.values.flags.writeable


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64, np.complex128])
def test_field_refuses_less_than_double_precision(lat, dtype):
    # single-precision rounding would pass for aliasing in the spectral
    # operator's residue test; complex values are refused whatever their
    # precision, as the causal inverse would drop their imaginary part
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        Field(lat, np.ones(lat.shape, dtype=dtype))


def test_field_widens_integers_to_float64(lat):
    ints = np.ones(lat.shape, dtype=int)
    for fld in (Field(lat, ints), Field(lat, ints.astype(bool)), Field(lat, ints.tolist())):
        assert fld.values.dtype == np.float64
        assert not fld.values.flags.writeable
        assert np.array_equal(fld.values, ints)


def test_weighted_integral_basics():
    lat = make_lattice(2, 8.0, 64, 0.0, 4.0, 8)
    z = Field(lat, np.zeros(lat.shape))
    assert weighted_integral(z, 0.0)[0] == 0.0
    ones = Field(lat, np.ones(lat.shape))
    assert weighted_integral(ones, 0.0)[0] == pytest.approx((2 * lat.L) ** 2)
    gauss = sample(lambda t, x, y: np.exp(-x * x - y * y) + 0.0 * t, lat)
    assert weighted_integral(gauss, 0.0)[3] == pytest.approx(math.pi, abs=1e-6)


def test_weighted_integral_monotone_and_errors():
    lat = make_lattice(2, 6.0, 32, 0.0, 4.0, 8)
    rng = np.random.default_rng(3)
    a = Field(lat, np.abs(rng.standard_normal(lat.shape)))
    b = Field(lat, a.values + 0.5)
    assert weighted_integral(b, -0.3)[2] >= weighted_integral(a, -0.3)[2]
    # the integrand is a power of a non-negative field: one negative node,
    # in any block of time slices, is refused
    for k in (0, lat.K - 1):
        neg = np.ones(lat.shape)
        neg[k, 3, 5] = -1e-300
        with pytest.raises(ValueError, match="negative integrand"):
            weighted_integral(Field(lat, neg), 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orthant_field_round_trip_and_measure(dim):
    lat = make_lattice(dim, 3.0, 8, 0.5, 2.0, 8)
    even = sample(lambda t, *xs: (t + 1.0) * np.exp(-sum(x * x for x in xs)), lat)
    half = Field(lat, even.values[(slice(None),) + (slice(lat.M // 2, None),) * dim], orthant=True)
    assert half.orthant and half.values.shape == (lat.K,) + (lat.M // 2,) * dim
    assert half.nodes.measure == 2 ** dim * lat.cell_volume
    assert not half.values.flags.writeable and half.with_values(half.values).orthant
    assert even.full_grid() is even
    assert np.array_equal(half.full_grid().values, even.values)
    r = lat.spatial_radius()
    assert np.array_equal(half.nodes.radius, r[(slice(lat.M // 2, None),) * dim])
    assert even.nodes.radius is r
    # the sums over the stored nodes are bitwise those of the full grid
    for a in (0.0, -0.7):
        assert np.array_equal(weighted_integral(half, a), weighted_integral(even, a))
    # a full-grid array is no orthant field
    with pytest.raises(ValueError, match="shape"):
        Field(lat, even.values, orthant=True)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orthant_radius_is_the_full_grids_bitwise_and_cached(dim):
    lat = make_lattice(dim, 3.0, 16, 0.0, 2.0, 8)
    r = Nodes(lat, True).radius
    assert r.shape == (lat.M // 2,) * dim and not r.flags.writeable
    assert np.array_equal(r, lat.spatial_radius()[(slice(lat.M // 2, None),) * dim])
    assert Nodes(lat, True).radius is r and lat.spatial_radius() is Nodes(lat).radius
    r2 = Nodes(lat, True).radius_squared
    assert not r2.flags.writeable and Nodes(lat, True).radius_squared is r2
    assert np.array_equal(np.sqrt(r2), r)


@pytest.mark.parametrize("L", [6.1, 5.3, 3.7])
def test_staggered_axis_is_antisymmetric_for_every_extent(L):
    for M in (8, 64, 1024):
        x = make_lattice(1, L, M, 0.0, 1.0, 8).x_axis()
        assert np.array_equal(-x[::-1], x)


@pytest.mark.parametrize("L", [6.0, 8.0, 12.0])
def test_staggered_axis_on_dyadic_extents_is_unchanged(L):
    for M in (8, 32, 64, 1024):
        lat = make_lattice(1, L, M, 0.0, 1.0, 8)
        assert np.array_equal(lat.x_axis(), -lat.L + (np.arange(M) + 0.5) * lat.hx)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_parity_parts_unfold_back(dim):
    lat = make_lattice(dim, 3.0, 8, 0.5, 2.0, 8)
    rng = np.random.default_rng(dim)
    # a general field splits into all 2^N parts, which sum back to it
    vals = rng.standard_normal(lat.shape)
    parts = parity_parts(vals, dim)
    assert sorted(odd for _, odd in parts) == list(itertools.product((False, True), repeat=dim))
    total = sum(unfold(part, odd) for part, odd in parts)
    assert np.max(np.abs(total - vals)) <= 1e-15 * np.max(np.abs(vals))
    # a field of one parity in each axis is that one part, and unfolds
    # back exactly; only the all-even one is an orthant field
    block = rng.standard_normal((lat.K,) + (lat.M // 2,) * dim)
    for odd in itertools.product((False, True), repeat=dim):
        fld = unfold(block, odd)
        ((part, got),) = parity_parts(fld, dim)
        assert got == odd and np.array_equal(part, block)
        assert np.array_equal(unfold(part, odd), fld)
    even = Field(lat, block, orthant=True)
    assert np.array_equal(unfold(block, (False,) * dim), even.full_grid().values)


def test_weighted_integral_staggered_weight_bound():
    lat = make_lattice(2, 6.0, 32, 0.0, 4.0, 8)
    a = 1.2
    w = lat.spatial_radius() ** -a
    assert float(np.max(w)) <= (lat.hx * math.sqrt(lat.dim) / 2.0) ** (-a) + 1e-12
