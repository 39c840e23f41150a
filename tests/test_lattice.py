import csv
import math

import numpy as np
import pytest

from hardyheat.lattice import (
    Field,
    LatticeError,
    SampleError,
    export_field_csv,
    graph_norm,
    inverse_transform,
    make_lattice,
    sample,
    transform,
    weighted_integral,
    zero_field,
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


def test_sample_and_causality(lat):
    g = sample(lambda t, x, y: np.exp(-x * x - y * y - t * t), lat)
    assert np.all(g.values > 0)
    causal = sample(lambda t, x, y: (t > 0) * np.exp(-x * x - y * y), lat)
    assert causal.is_causal()
    # the singular weight is finite at every staggered node
    w = sample(lambda t, x, y: (x * x + y * y) ** (-0.2) + 0.0 * t, lat)
    assert np.all(np.isfinite(w.values))


def test_sample_reports_bad_nodes(lat):
    with pytest.raises(SampleError):
        sample(lambda t, x, y: np.where(x > 0, np.nan, 1.0) + 0.0 * (y + t), lat)


def test_field_immutable(lat):
    f = zero_field(lat)
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
    for fld in fields + [Field(lat, fields[1].values), zero_field(lat)]:
        assert not fld.values.flags.writeable


def test_transform_round_trip_and_plancherel(lat):
    rng = np.random.default_rng(7)
    f = Field(lat, rng.standard_normal(lat.shape))
    g = transform(f)
    back = inverse_transform(lat, g)
    assert not np.iscomplexobj(back.values)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    # discrete Plancherel: the spectral measure is dxi^N dtheta / (2 pi)^(N+1)
    dxi = 2.0 * np.pi / (lat.M * lat.hx)
    dth = 2.0 * np.pi / (lat.K * lat.ht)
    meas = dxi ** lat.dim * dth / (2.0 * np.pi) ** (lat.dim + 1)
    spectral_l2 = math.sqrt(float(np.sum(np.abs(g) ** 2)) * meas)
    assert abs(f.l2() - spectral_l2) <= 1e-12 * f.l2()


def test_transform_even_field_real_spectrum(lat):
    f = sample(lambda t, x, y: np.exp(-(x * x + y * y + t * t) / 3.0), lat)
    g = transform(f)
    assert np.max(np.abs(g.imag)) <= 1e-12 * np.max(np.abs(g.real))


def test_transform_gaussian_pair(lat):
    f = sample(lambda t, x, y: np.exp(-x * x - y * y - t * t), lat)
    g = transform(f)
    th = lat.theta_axis().reshape(-1, 1, 1)
    xi = lat.xi_axis()
    closed = math.pi ** 1.5 * np.exp(
        -(xi.reshape(1, -1, 1) ** 2 + xi.reshape(1, 1, -1) ** 2 + th ** 2) / 4.0
    )
    assert np.max(np.abs(g - closed)) <= 1e-12 * np.max(closed)


def test_weighted_integral_basics():
    lat = make_lattice(2, 8.0, 64, 0.0, 4.0, 8)
    z = zero_field(lat)
    assert weighted_integral(z, 0.0, 1.0, 0) == 0.0
    ones = Field(lat, np.ones(lat.shape))
    assert weighted_integral(ones, 0.0, 1.0, 0) == pytest.approx((2 * lat.L) ** 2)
    gauss = sample(lambda t, x, y: np.exp(-x * x - y * y) + 0.0 * t, lat)
    assert weighted_integral(gauss, 0.0, 1.0, 3) == pytest.approx(math.pi, abs=1e-6)


def test_weighted_integral_monotone_and_errors():
    lat = make_lattice(2, 6.0, 32, 0.0, 4.0, 8)
    rng = np.random.default_rng(3)
    a = Field(lat, np.abs(rng.standard_normal(lat.shape)))
    b = Field(lat, a.values + 0.5)
    assert weighted_integral(b, -0.3, 1.5, 2) >= weighted_integral(a, -0.3, 1.5, 2)
    neg = Field(lat, -np.ones(lat.shape))
    with pytest.raises(ValueError):
        weighted_integral(neg, 0.0, 1.5, 0)


def test_weighted_integral_staggered_weight_bound():
    lat = make_lattice(2, 6.0, 32, 0.0, 4.0, 8)
    a = 1.2
    w = lat.spatial_power(-a)
    assert float(np.max(w)) <= (lat.hx * math.sqrt(lat.dim) / 2.0) ** (-a) + 1e-12


def test_graph_norm_zero_scaling_oracle(lat):
    z = zero_field(lat)
    gn = graph_norm(z, 0.5)
    assert gn.l2 == 0.0 and gn.multiplier_seminorm == 0.0

    f = sample(lambda t, x, y: np.exp(-x * x - y * y - t * t), lat)
    g1 = graph_norm(f, 0.5)
    g2 = graph_norm(f.with_values(3.0 * f.values), 0.5)
    assert g2.l2 == pytest.approx(3.0 * g1.l2, rel=1e-12)
    assert g2.multiplier_seminorm == pytest.approx(9.0 * g1.multiplier_seminorm, rel=1e-12)

    # independent spectral quadrature with the closed-form transform
    th = lat.theta_axis().reshape(-1, 1, 1)
    xi = lat.xi_axis()
    spec = math.pi ** 1.5 * np.exp(
        -(xi.reshape(1, -1, 1) ** 2 + xi.reshape(1, 1, -1) ** 2 + th ** 2) / 4.0
    )
    sym = (th ** 2 + (xi.reshape(1, -1, 1) ** 2 + xi.reshape(1, 1, -1) ** 2) ** 2) ** 0.25
    dxi = 2 * np.pi / (lat.M * lat.hx)
    dth = 2 * np.pi / (lat.K * lat.ht)
    oracle = float(np.sum(sym * spec ** 2) * dxi ** 2 * dth)
    assert g1.multiplier_seminorm == pytest.approx(oracle, rel=1e-8)


def test_export_csv(tmp_path):
    lat = make_lattice(2, 2.0, 8, 0.0, 1.0, 8)
    f = sample(lambda t, x, y: x + 10 * y + 100 * t, lat)
    path = tmp_path / "slice.csv"
    export_field_csv(f, str(path), t_index=3)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i_t", "i_x1", "i_x2", "t", "x1", "x2", "value"]
    assert len(rows) == 1 + 64
    k, i, j = int(rows[1][0]), int(rows[1][1]), int(rows[1][2])
    assert k == 3
    want = lat.x_axis()[i] + 10 * lat.x_axis()[j] + 100 * lat.t_axis()[k]
    assert float(rows[1][6]) == pytest.approx(want, rel=1e-10)
