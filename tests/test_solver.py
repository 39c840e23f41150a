import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from hardyheat import lattice, solver
from hardyheat.cli import _fmt
from hardyheat.constants import (
    ProblemSpec,
    exponents,
    lambda_max,
    mu_from_lambda,
    upsilon_inv,
)
from hardyheat.lattice import Field, Lattice, SampleError, make_lattice, sample, weighted_integral
from hardyheat.solver import (
    VERDICT_CONVERGED,
    VERDICT_ESCAPE,
    MonotonicityError,
    blowup_functional,
    cutoff,
    gaussian_bump_forcing,
    initial_state,
    iterate,
    json_float,
    rhs_truncated,
    run,
    singularity_profile,
)
from hardyheat.special import smooth_step


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 6.0, 32, 0.0, 6.0, 48)


@pytest.fixture(scope="module")
def spec():
    return ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 2.0)


def _pow(w, p):
    """The field max(w, 0) ** p, stored whole."""
    return w.with_values(np.maximum(w.values, 0.0) ** p)


def test_cutoff_family_nesting(lat):
    e1 = cutoff(lat, 1)
    e2 = cutoff(lat, 2)
    assert np.all(e1 >= 0.0) and np.all(e1 <= 1.0)
    assert np.all(e2 - e1 >= -1e-14)
    r = lat.spatial_radius()
    t = lat.t_axis().reshape(-1, 1, 1)
    core = (r[None] <= 1.0) & (t > 1.0 / 2.0 + 1e-9) & (t < 2.0 - 1e-9)
    assert np.allclose(e1[np.broadcast_to(core, lat.shape)], 1.0)
    outside = np.broadcast_to((t <= 1.0 / 3.0) | (t >= 3.0), lat.shape)
    assert np.all(e1[outside] == 0.0)


def test_rhs_truncated_zero_and_bounds(lat, spec):
    z = Field(lat, np.zeros(lat.shape))
    assert np.all(rhs_truncated(z, z, spec, 3).values == 0.0)
    f = gaussian_bump_forcing(lat, 2.0).full_grid()
    w = Field(lat, np.abs(np.sin(lat.spatial_radius()))[None] * np.ones(lat.shape))
    out = rhs_truncated(w, f, spec, 4)
    assert np.all(out.values >= 0.0)
    assert np.all(np.isfinite(out.values))
    with pytest.raises(ValueError):
        rhs_truncated(w, Field(lat, -f.values), spec, 2)
    # a forcing from another lattice is refused, not misread
    other = make_lattice(2, 6.0, 32, 0.0, 6.0, 24)
    with pytest.raises(ValueError, match="another lattice"):
        rhs_truncated(w, Field(other, np.zeros(other.shape)), spec, 2)


def test_fields_on_another_lattice_are_refused(lat, spec):
    # same shape, another extent: the forcing and the dominator would be
    # read node by node on the wrong grid
    other = dataclasses.replace(lat, L=1.5 * lat.L)
    f = gaussian_bump_forcing(lat, 0.5).full_grid()
    f_other = gaussian_bump_forcing(other, 0.5).full_grid()
    st = initial_state(f, spec)
    with pytest.raises(ValueError, match="another lattice"):
        iterate(st, f_other, spec)
    with pytest.raises(ValueError, match="another lattice"):
        rhs_truncated(st.w, f_other, spec, 1)
    with pytest.raises(ValueError, match="another lattice"):
        run(spec, f, max_n=2, dominator=Field(other, 2.0 * st.w.values))


def test_rhs_truncated_monotone_in_stage(lat, spec):
    rng = np.random.default_rng(2)
    w = Field(lat, np.abs(rng.standard_normal(lat.shape)) * lat.causal_mask()[:, None, None])
    f = gaussian_bump_forcing(lat, 1.0).full_grid()
    prev = rhs_truncated(w, f, spec, 1).values
    for n in (2, 3, 5, 9):
        cur = rhs_truncated(w, f, spec, n).values
        assert np.min(cur - prev) >= -1e-14
        prev = cur


def test_rhs_truncated_limit(lat, spec):
    # away from the origin and inside the stage core, the saturations open
    # up to the raw right-hand side
    w = sample(lambda t, x, y: (t > 0) * np.exp(-(x * x + y * y)), lat)
    f = gaussian_bump_forcing(lat, 1.0).full_grid()
    big = rhs_truncated(w, f, spec, 400).values
    r = lat.spatial_radius()
    raw = (
        spec.lam * w.values * r ** (-2 * spec.s)
        + w.values ** spec.p
        + f.values
    )
    t = lat.t_axis().reshape(-1, 1, 1)
    core = np.broadcast_to((r[None] < 2.0) & (t > 0.5) & (t < 3.0), lat.shape)
    err = np.max(np.abs((big - raw))[core]) / np.max(raw[core])
    assert err <= 2e-2


def _rhs_closed_form(w, f, spec, n):
    """The stage-n right-hand side as a literal transcription of its
    formula, with the full space-time cutoff array."""
    eta = cutoff(w.lattice, n)
    if n == 0:
        return eta * f.values / (1.0 + f.values)
    wv = np.maximum(w.values, 0.0)
    hardy = (w.lattice.spatial_radius() + 1.0 / n) ** (-2.0 * spec.s)
    wp = wv ** spec.p
    total = (
        spec.lam * wv / (1.0 + wv / n) * hardy
        + wp / (1.0 + wp / n)
        + f.values / (1.0 + f.values / n)
    )
    return eta * total


@pytest.mark.parametrize("dim", [2, 3])
def test_rhs_truncated_matches_closed_form(dim):
    lat = make_lattice(dim, 6.0, 16, 0.0, 6.0, 24)
    spec = ProblemSpec(dim, 0.5, 0.5 * lambda_max(dim, 0.5), 1.7)
    rng = np.random.default_rng(dim)
    causal = lat.causal_mask().reshape((lat.K,) + (1,) * dim)
    # spans the saturation caps of every stage below
    w = Field(lat, 20.0 * rng.random(lat.shape) ** 3 * causal)
    f = gaussian_bump_forcing(lat, 3.0).full_grid()
    for n in (0, 1, 3, 7):
        got = rhs_truncated(w, f, spec, n).values
        want = _rhs_closed_form(w, f, spec, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_sup_diff_is_the_sup_of_the_step(lat, spec):
    f = gaussian_bump_forcing(lat, 0.5)
    st = initial_state(f, spec)
    assert st.sup_diff == np.max(np.abs(st.w.values))
    for _ in range(3):
        nxt = iterate(st, f, spec)
        assert nxt.sup_diff == np.max(np.abs(nxt.w.values - st.w.values))
        st = nxt


def test_stage_keeps_no_power_field(lat):
    # no stage stores max(w, 0) ** p: the weighted norm raises each block
    # of the iterate in scratch, and its slice sums are bitwise those of the
    # power stored whole; the state has no power field to carry
    spec = ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 1.7)
    f = gaussian_bump_forcing(lat, 0.5)
    st = iterate(initial_state(f, spec), f, spec)
    assert not hasattr(st, "w_pow")
    assert [fl.name for fl in dataclasses.fields(st)] == ["n", "w", "m_curve", "sup_diff"]
    mu = exponents(spec).mu
    assert np.array_equal(st.m_curve, blowup_functional(st.w, spec.p, mu))
    assert np.array_equal(st.m_curve, weighted_integral(_pow(st.w, spec.p), -mu))
    nxt = solver._step(st.w, f, spec, st.n + 1)
    assert np.array_equal(iterate(st, f, spec).w.values, nxt.w.values)


def test_replaced_state_iterates_from_its_own_iterate(lat, spec):
    # the state is frozen, and a copy with another w (dataclasses.replace)
    # iterates from that w: nothing derived from the old one is carried
    f = gaussian_bump_forcing(lat, 0.5).full_grid()
    st = initial_state(f, spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.w = Field(lat, 2.0 * st.w.values)
    moved = dataclasses.replace(st, w=Field(lat, 2.0 * st.w.values))
    got = iterate(moved, f, spec)
    from hardyheat.kernels import apply_Js

    want = np.maximum(apply_Js(rhs_truncated(moved.w, f, spec, 1), spec.s).values, 0.0)
    np.testing.assert_array_equal(got.w.values, want)
    assert not np.array_equal(got.w.values, iterate(st, f, spec).w.values)


def _warm_run_peak_in_fields(full_grid: bool) -> float:
    # the peak of run(max_n=3) in fields, the forcing (built before the
    # trace starts) not counted. On the orthant a stage holds w and the
    # right-hand side, which the inverse overwrites with its output, beside
    # the forcing, and a few blocks of scratch: no w ** p field, no
    # full-size difference or power and no per-axis transform copies. On
    # the full grid the inverse's parts and its output are fresh arrays
    import tracemalloc

    from hardyheat.kernels import _js_kernel

    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    lam = 0.5 * lambda_max(3, 0.5)
    spec = ProblemSpec(3, 0.5, lam, 0.5 * (1.0 + exponents(ProblemSpec(3, 0.5, lam, 2.0)).fujita_F))
    f = gaussian_bump_forcing(lat, 1.0)
    if full_grid:
        f = f.full_grid()
    _js_kernel(lat, spec.s)
    tracemalloc.start()
    try:
        rep = run(spec, f, max_n=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_final == 3
    return peak / f.values.nbytes


def test_run_peaks_below_4_5_fields():
    assert _warm_run_peak_in_fields(full_grid=False) < 4.5


def test_full_grid_run_peaks_below_4_5_fields():
    assert _warm_run_peak_in_fields(full_grid=True) < 4.5


def test_even_full_grid_run_peaks_like_an_orthant_run():
    # an exactly even full-grid forcing is copied onto the orthant and the
    # run holds orthant fields: the copy and a stage's w and right-hand
    # side, 3.5 orthant fields, where holding the stages on the full grid
    # peaked at 3.63 full-grid fields (29 orthant fields)
    assert _warm_run_peak_in_fields(full_grid=True) * 2 ** 3 < 4.0


def test_orthant_run_peaks_below_2_75_fields():
    # w and the right-hand side that becomes w_next (the forcing is not
    # traced): a fourth field (the inverse's own output buffer, a full-size
    # difference or power) would bring it to about 3.4
    assert _warm_run_peak_in_fields(full_grid=False) < 2.75


@pytest.mark.parametrize("orthant", [False, True])
def test_stage_reductions_in_blocks_match_whole_arrays(monkeypatch, orthant):
    # the stage pass's step bounds, weighted norm and dominator check, and
    # weighted_integral, 5 slices a block of 12 (a ragged last block), are
    # bitwise their whole-array formulas
    lat = make_lattice(2, 4.0, 16, 0.0, 3.0, 12)
    shape = lattice.Nodes(lat, orthant).shape
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 5 * 8 * math.prod(shape[1:]))
    rng = np.random.default_rng(30)
    w = Field(lat, rng.random(shape), orthant)
    w_next = Field(lat, w.values + rng.random(shape), orthant)
    dominator = w.values + 0.9 * rng.random(shape)
    prod = w_next.values ** 1.7 * w.nodes.radius ** -0.4
    if not orthant:
        for ax in (1, 2):
            mirror, pos = lattice.mirror_halves(prod, ax)
            prod = pos + mirror
    want = prod.reshape(lat.K, -1).sum(axis=1) * w.nodes.measure
    assert np.array_equal(weighted_integral(w_next, -0.4, 1.7), want)
    d, gap = w_next.values - w.values, w_next.values - dominator
    tally = solver._Tally(dominator, 0.01, w.nodes.copies)
    sup_diff, m_curve = solver._stage_pass(w_next, w, 1.7, 0.4, tally)
    assert sup_diff == max(np.max(d), -np.min(d))
    assert np.array_equal(m_curve, want)
    assert tally.violations == w.nodes.copies * np.count_nonzero(gap > 0.01) > 0
    assert tally.excess == np.max(gap)
    # a drop within MONO_SLACK of the peak passes, and sup_diff is its size
    w_drop = Field(lat, w.values - 0.5e-12 * np.max(w.values) * rng.random(shape), orthant)
    d = w_drop.values - w.values
    sup_diff, m_curve = solver._stage_pass(w_drop, w, 1.7, 0.4, None)
    assert np.max(d) <= 0.0 and sup_diff == -np.min(d) > 0.0
    assert np.array_equal(m_curve, weighted_integral(w_drop, -0.4, 1.7))


def test_cold_run_with_its_lag_table_peaks_below_4_5_fields():
    # the causal inverse's lag kernel is built inside the run, once, per
    # mode class: the build and a stage's three fields (the forcing, w and
    # the right-hand side the inverse overwrites) stay under 4.5 fields
    import tracemalloc

    from hardyheat.kernels import _js_kernel

    lat = make_lattice(3, 6.0, 32, 0.0, 8.0, 48)
    lam = 0.5 * lambda_max(3, 0.5)
    spec = ProblemSpec(3, 0.5, lam, 0.5 * (1.0 + exponents(ProblemSpec(3, 0.5, lam, 2.0)).fujita_F))
    f = gaussian_bump_forcing(lat, 1.0)
    _js_kernel.cache_clear()
    tracemalloc.start()
    try:
        rep = run(spec, f, max_n=3)
        peak = tracemalloc.get_traced_memory()[1]
        info = _js_kernel.cache_info()
    finally:
        tracemalloc.stop()
        _js_kernel.cache_clear()
    assert rep.n_final == 3
    assert (info.misses, info.hits) == (1, 3)  # stages 0 to 3 share one kernel
    assert peak < 4.5 * f.values.nbytes


def test_spent_rhs_is_released_before_the_clamp(lat, spec, monkeypatch):
    # the operator writes its output into the stage right-hand side's own
    # array, which is clamped in place and becomes the stage's iterate;
    # the right-hand side's Field is dropped when the operator returns
    seen = {}
    real_js, real_pass = solver.apply_Js, solver._stage_pass

    def js(rhs, s, **kw):
        seen["rhs"], seen["values"] = weakref.ref(rhs), rhs.values
        return real_js(rhs, s, **kw)

    def stage_pass(out, *args):
        seen["alive"] = seen["rhs"]() is not None
        seen["clamped"] = out.values
        return real_pass(out, *args)

    monkeypatch.setattr(solver, "apply_Js", js)
    monkeypatch.setattr(solver, "_stage_pass", stage_pass)
    st = initial_state(gaussian_bump_forcing(lat, 0.5), spec)
    assert seen["alive"] is False
    assert seen["clamped"] is seen["values"] and st.w.values is seen["values"]
    assert not st.w.values.flags.writeable


def _negative_slab(depth):
    """A stand-in for apply_Js whose output dips to -depth times its peak on
    one time slab."""
    real = solver.apply_Js

    def fake(g, s, **kw):
        out = real(g, s, **kw).values.copy()
        out[g.lattice.K // 2] = -depth * np.max(out)
        return Field(g.lattice, out)

    return fake


def test_negative_operator_output_raises_beyond_slack(lat, spec, monkeypatch):
    f = gaussian_bump_forcing(lat, 0.5).full_grid()
    st = initial_state(f, spec)
    monkeypatch.setattr(solver, "apply_Js", _negative_slab(1e-6))
    with pytest.raises(MonotonicityError):
        initial_state(f, spec)
    with pytest.raises(MonotonicityError):
        iterate(st, f, spec)
    # rounding-size negatives are clamped to zero, as before
    monkeypatch.setattr(solver, "apply_Js", _negative_slab(1e-15))
    w0 = initial_state(f, spec).w.values
    assert np.all(w0[lat.K // 2] == 0.0) and np.max(w0) > 0.0


@pytest.mark.parametrize("orthant", [True, False])
def test_planted_negative_or_drop_raises_in_a_late_block(monkeypatch, orthant):
    # the stage pass checks every block: a negative beyond MONO_SLACK of
    # the peak planted in the inverse's output, or a drop below the
    # iterate, in the last block of 5 slices of 12, raises
    lat = make_lattice(2, 6.0, 16, 0.0, 6.0, 12)
    spec = ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 1.7)
    f = gaussian_bump_forcing(lat, 0.5)
    if not orthant:
        f = f.full_grid()
        monkeypatch.setattr(solver, "_on_orthant", lambda fld: fld)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 5 * 8 * math.prod(f.values.shape[1:]))
    st = iterate(initial_state(f, spec), f, spec)
    real = solver.apply_Js

    def planted(change):
        def js(g, s, **kw):
            v = real(g, s, **kw).values.copy()
            change(v)
            return Field(g.lattice, v, g.orthant)
        return js

    def negative(v):
        v[-2, 1, 1] = -1e-10 * np.max(v)

    def drop(v):
        v[-2] *= 0.5

    for change, message in ((negative, "output reaches"), (drop, "decreased")):
        monkeypatch.setattr(solver, "apply_Js", planted(change))
        with pytest.raises(MonotonicityError, match=message):
            iterate(st, f, spec)
    # within the slack the negative is rounding, clamped in its block (at
    # stage 0, whose step from the zero field cannot drop)
    monkeypatch.setattr(solver, "apply_Js", planted(lambda v: v.__setitem__((-2, 1, 1), -1e-14 * np.max(v))))
    w0 = initial_state(f, spec).w.values
    assert w0[-2, 1, 1] == 0.0 and np.min(w0) == 0.0


@pytest.mark.parametrize("orthant", [True, False])
def test_stage_pass_matches_whole_array_checks_in_a_run(monkeypatch, orthant):
    # in a dominated run whose stages are 5 slices a block of 12, the
    # violation count (scaled by 2^N on the orthant) and the excess are
    # those of a full-size gap per stage, and each stage's m_curve is
    # bitwise weighted_integral's
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)
    lat = make_lattice(2, 6.0, 16, 0.0, 6.0, 12)
    spec = ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 1.7)
    f = gaussian_bump_forcing(lat, 0.5)
    if not orthant:
        f = f.full_grid()
        monkeypatch.setattr(solver, "_on_orthant", lambda fld: fld)
    dominator = f.with_values(0.7 * initial_state(f, spec).w.values)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 5 * 8 * math.prod(f.values.shape[1:]))
    states = []
    rep = run(spec, f, max_n=4, dominator=dominator, callback=states.append)
    assert [st.w.orthant for st in states] == [orthant] * 5
    slack = 1e-9 * np.max(dominator.values)
    gaps = [st.w.values - dominator.values for st in states]
    tops = [float(np.max(g)) for g in gaps]
    counted = sum(int(np.count_nonzero(g > slack)) for g, top in zip(gaps, tops) if top > slack)
    assert counted > 0 and len({np.count_nonzero(g > slack) for g in gaps}) > 1
    assert rep.dominator_violations == f.nodes.copies * counted
    assert rep.dominator_max_excess == max(tops)
    mu = exponents(spec).mu
    for st in states:
        assert np.array_equal(st.m_curve, weighted_integral(st.w, -mu, spec.p))


def test_dominator_violations_are_counted(lat, spec, monkeypatch):
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)  # no convergence: run every stage
    f = gaussian_bump_forcing(lat, 0.5).full_grid()
    states = []
    dominator = Field(lat, 0.5 * initial_state(f, spec).w.values)
    rep = run(spec, f, max_n=3, dominator=dominator, callback=states.append)
    slack = 1e-9 * np.max(dominator.values)
    gaps = [st.w.full_grid().values - dominator.values for st in states]
    assert rep.dominator_violations == sum(int(np.sum(g > slack)) for g in gaps) > 0
    assert rep.dominator_max_excess == max(float(np.max(g)) for g in gaps)


@pytest.mark.parametrize("dim,M,p", [(2, 32, 2.0), (3, 16, 1.4)])
def test_orthant_run_matches_the_full_lattice_run(monkeypatch, dim, M, p):
    # an orthant forcing and dominator run on the orthant, and so do the
    # same fields stored on the full lattice, exactly even; run on the full
    # lattice's nodes (the copy onto the orthant switched off) they give
    # the same report bitwise, the violation count (scaled by 2^N) included
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)
    lat = make_lattice(dim, 6.0, M, 0.0, 6.0, 24)
    spec = ProblemSpec(dim, 0.5, 0.5 * lambda_max(dim, 0.5), p)
    f = gaussian_bump_forcing(lat, 0.5)
    w0 = initial_state(f, spec).w
    dominator = w0.with_values(0.5 * w0.values)
    reports, orthant = [], []
    full = (f.full_grid(), dominator.full_grid())
    for g, dom, copy in ((f, dominator, True), full + (True,), full + (False,)):
        if not copy:
            monkeypatch.setattr(solver, "_on_orthant", lambda fld: fld)
        seen = []
        rep = run(spec, g, max_n=4, dominator=dom,
                  callback=lambda st: seen.append(st.w.orthant))
        reports.append(rep)
        orthant.append(set(seen))
    assert orthant == [{True}, {True}, {False}]
    a, b, c = reports
    assert a.dominator_violations > 0 and a.dominator_violations % 2 ** dim == 0
    assert a.to_json() == b.to_json() == c.to_json()


def _sampled_bump(lat, amplitude):
    """The bump forcing sampled on every node by a closure of (t, x1, ..., xN)."""

    def fn(t, *xs):
        win = smooth_step((t - 0.25) / 0.25) * (1.0 - smooth_step((t - 1.25) / 0.25))
        return amplitude * win * np.exp(-sum(x * x for x in xs) / (solver.BUMP_WIDTH * solver.BUMP_WIDTH))

    return sample(fn, lat)


@pytest.mark.parametrize("dim,L,M", [(2, 6.0, 32), (3, 6.0, 16), (3, 8.0, 32), (2, 6.1, 32)])
def test_bump_is_built_on_the_orthant_and_is_the_sampled_bump(dim, L, M):
    # the bump is born on the orthant, from Nodes.radius_squared, and its
    # full grid is bitwise the bump sampled on every node
    lat = make_lattice(dim, L, M, 0.5, 4.0, 24)
    f = gaussian_bump_forcing(lat, 1.3)
    assert f.orthant and f.values.shape == (lat.K,) + (M // 2,) * dim
    assert np.array_equal(f.full_grid().values, _sampled_bump(lat, 1.3).values)
    for bad in (math.inf, math.nan):
        with pytest.raises(SampleError):
            gaussian_bump_forcing(lat, bad)


def test_run_on_a_non_dyadic_extent_stays_on_the_orthant(spec):
    # at L = 6.1 the cell width is not dyadic; the bump is still stored and
    # run on the orthant
    lat = make_lattice(2, 6.1, 32, 0.0, 6.0, 48)
    seen = []
    rep = run(spec, gaussian_bump_forcing(lat, 1.0), max_n=4,
              callback=lambda st: seen.append(st.w.orthant))
    assert seen == [True] * (rep.n_final + 1)


@pytest.mark.parametrize("dim,M", [(2, 32), (3, 16)])
def test_orthant_stages_build_no_full_grid_radius(monkeypatch, dim, M):
    # every stage factor is computed on the orthant's own radius: with the
    # full grid's refused, the stages are bitwise those of an unpatched run
    lat = make_lattice(dim, 6.0, M, 0.0, 6.0, 24)
    spec = ProblemSpec(dim, 0.5, 0.5 * lambda_max(dim, 0.5), 1.4)
    f = gaussian_bump_forcing(lat, 0.5)
    runs = []
    for refuse in (False, True):
        if refuse:
            def full_grid_radius(self):
                raise AssertionError("a stage built the full grid's radius")

            monkeypatch.setattr(Lattice, "spatial_radius", full_grid_radius)
        st = initial_state(f, spec)
        states = [st]
        for _ in range(2):
            st = iterate(st, f, spec)
            states.append(st)
        runs.append(states)
    for a, b in zip(*runs):
        assert a.w.orthant and b.w.orthant
        assert np.array_equal(a.w.values, b.w.values) and np.array_equal(a.m_curve, b.m_curve)


def test_forcing_off_evenness_runs_on_the_full_lattice(lat, spec, monkeypatch):
    # one node off evenness: run stays on the full lattice and agrees with
    # iterate looped by hand
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)
    off = gaussian_bump_forcing(lat, 0.5).full_grid().values.copy()
    off[lat.K // 2, 0, 0] += 1e-3
    f = Field(lat, off)
    assert not np.array_equal(off, off[:, ::-1])
    states = []
    rep = run(spec, f, max_n=3, callback=states.append)
    assert not any(st.w.orthant for st in states)
    st = initial_state(f, spec)
    for want in states[1:]:
        st = iterate(st, f, spec)
        np.testing.assert_array_equal(st.w.values, want.w.values)
    assert rep.n_final == st.n == 3
    assert [m for _, m in rep.m_curve] == st.m_curve.tolist()
    assert rep.sup_diff == st.sup_diff


def test_rhs_truncated_refuses_mixed_node_sets(lat, spec):
    half = gaussian_bump_forcing(lat, 0.5)
    f = half.full_grid()
    with pytest.raises(ValueError, match="node sets"):
        rhs_truncated(half, f, spec, 1)
    with pytest.raises(ValueError, match="node sets"):
        rhs_truncated(f, half, spec, 1)
    # on one node set it is the full-grid right-hand side, restricted
    full = rhs_truncated(f, f, spec, 2)
    got = rhs_truncated(half, half, spec, 2)
    assert got.orthant
    np.testing.assert_array_equal(got.full_grid().values, full.values)


def test_run_makes_one_inverse_per_stage(lat, spec, monkeypatch):
    # the benchmark's tracer counts calls through solver.apply_Js and
    # solver.iterate, and marks a run whose counts differ from n_final + 1
    # and n_final incorrect; the inverse receives a field with .values
    calls = {"apply_Js": 0, "iterate": 0}
    real_js, real_iterate = solver.apply_Js, solver.iterate

    def js(g, s, **kw):
        assert isinstance(g.values, np.ndarray)
        calls["apply_Js"] += 1
        return real_js(g, s, **kw)

    def step(*args, **kw):
        calls["iterate"] += 1
        return real_iterate(*args, **kw)

    monkeypatch.setattr(solver, "apply_Js", js)
    monkeypatch.setattr(solver, "iterate", step)
    f = gaussian_bump_forcing(lat, 0.5).full_grid()
    dominator = Field(lat, 2.0 * initial_state(f, spec).w.values)
    for kwargs in ({}, {"dominator": dominator}):
        calls.update(apply_Js=0, iterate=0)
        rep = run(spec, f, max_n=5, **kwargs)
        assert calls == {"apply_Js": rep.n_final + 1, "iterate": rep.n_final}


def test_iterates_monotone_and_causal(lat, spec):
    f = gaussian_bump_forcing(lat, 0.5)
    st = initial_state(f, spec)
    assert np.all(st.w.values[~lat.causal_mask()] == 0.0)
    prev = st
    for _ in range(5):
        st = iterate(st, f, spec)
        assert np.min(st.w.values - prev.w.values) >= -1e-12 * max(np.max(st.w.values), 1e-300)
        assert np.all(st.w.values[~lat.causal_mask()] == 0.0)
        prev = st
    assert st.n == 5


def test_run_zero_forcing(lat, spec):
    rep = run(spec, Field(lat, np.zeros(lat.shape)), max_n=4)
    assert rep.verdict == VERDICT_CONVERGED
    assert rep.final_norm == 0.0
    assert all(m == 0.0 for _, m in rep.m_curve)


def test_run_report_json_round_trip(lat, spec):
    import json

    rep = run(spec, gaussian_bump_forcing(lat, 0.2), max_n=3)
    d = json.loads(rep.to_json())
    assert d["verdict"] == rep.verdict
    assert d["n_final"] == rep.n_final
    assert len(d["m_curve"]) == lat.K


def test_blowup_functional_separable_and_monotone(lat):
    mu, p = 0.25, 1.6
    z = Field(lat, np.zeros(lat.shape))
    assert np.all(blowup_functional(z, p, mu) == 0.0)
    bump_t = smooth_step((lat.t_axis() - 0.5) / 0.5) * (
        1.0 - smooth_step((lat.t_axis() - 3.0) / 1.0)
    )
    r = lat.spatial_radius()
    prof = np.where(r < 2.0, r ** (-mu), 0.0)
    w = Field(lat, bump_t[:, None, None] * prof[None])
    m = blowup_functional(w, p, mu)
    on = bump_t > 1e-3
    ratios = m[on] / bump_t[on] ** p
    assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, rel=1e-10)
    w2 = Field(lat, 2.0 * w.values)
    assert np.all(blowup_functional(w2, p, mu)[on] >= m[on])


def test_blowup_band_escapes(lat):
    lam = 0.5 * lambda_max(2, 0.5)
    b = exponents(ProblemSpec(2, 0.5, lam, 2.0))
    p_blow = 0.5 * (1.0 + b.fujita_F)
    rep = run(ProblemSpec(2, 0.5, lam, p_blow), gaussian_bump_forcing(lat, 1.0), max_n=40)
    assert rep.verdict == VERDICT_ESCAPE
    assert rep.growth_factor >= 10.0
    assert rep.escape_time is not None


def test_above_critical_escapes(lat):
    lam = 0.5 * lambda_max(2, 0.5)
    b = exponents(ProblemSpec(2, 0.5, lam, 2.0))
    rep = run(
        ProblemSpec(2, 0.5, lam, 1.3 * b.p_plus),
        gaussian_bump_forcing(lat, 2.0),
        max_n=40,
    )
    assert rep.verdict == VERDICT_ESCAPE


def test_singularity_profile_power_law_and_flat():
    lat = make_lattice(2, 6.0, 64, 0.0, 6.0, 16)
    mu = 0.31
    r = lat.spatial_radius()
    # envelope kept nearly flat across the fit shells
    w = Field(lat, np.broadcast_to(r ** (-mu) * np.exp(-r * r / 100.0), lat.shape).copy())
    slope, band = singularity_profile(w, (4, 12))
    assert slope == pytest.approx(-mu, abs=0.05)
    flat = sample(lambda t, x, y: np.exp(-(x * x + y * y) / 30.0) + 0.0 * t, lat)
    slope_flat, _ = singularity_profile(flat, (4, 12))
    assert abs(slope_flat) <= 0.05
    with pytest.raises(ValueError):
        singularity_profile(Field(lat, np.zeros(lat.shape)), (4, 12))


def test_initial_state_is_saturated_forcing_inverse(lat, spec):
    f = gaussian_bump_forcing(lat, 0.7).full_grid()
    st = initial_state(f, spec)
    from hardyheat.kernels import apply_Js

    z = Field(lat, np.zeros(lat.shape))
    direct = apply_Js(rhs_truncated(z, f, spec, 0), spec.s)
    assert np.max(np.abs(st.w.values - np.maximum(direct.values, 0.0))) == 0.0
    # stage 0 is the one step body taken from the zero field: its drop test
    # is vacuous and its sup_diff is the sup norm of the iterate
    step0 = solver._step(z, f, spec, 0)
    assert step0.n == st.n == 0
    np.testing.assert_array_equal(step0.w.values, st.w.values)
    np.testing.assert_array_equal(step0.m_curve, st.m_curve)
    assert step0.sup_diff == st.sup_diff == float(np.max(st.w.values))


def test_vanishing_coupling_reduces_to_plain_threshold(lat):
    # with a vanishing coupling the thresholds collapse onto the potential-free
    # exponent and the sub-threshold run still escapes
    lam = 1e-8 * lambda_max(2, 0.5)
    b = exponents(ProblemSpec(2, 0.5, lam, 2.0))
    assert b.fujita_F == pytest.approx(b.fujita_F0, rel=1e-6)
    p_blow = 0.5 * (1.0 + b.fujita_F0)
    rep = run(ProblemSpec(2, 0.5, lam, p_blow), gaussian_bump_forcing(lat, 1.0), max_n=40)
    assert rep.verdict == VERDICT_ESCAPE


def test_singularity_profile_of_converged_iterate(monkeypatch):
    # the limit object of the scheme picks up the singular profile near the
    # origin at least as strong as the analytic exponent
    monkeypatch.setattr(solver, "BUMP_WIDTH", 1.5)
    lam = 0.9 * lambda_max(2, 0.5)
    spec = ProblemSpec(2, 0.5, lam, 3.0)
    mu = mu_from_lambda(lam, 2, 0.5)
    lat = make_lattice(2, 6.0, 64, 0.0, 6.0, 48)
    f = gaussian_bump_forcing(lat, 0.3)
    rep = run(spec, f, max_n=40)
    # rebuild the final iterate for the fit
    st = initial_state(f, spec)
    for _ in range(rep.n_final):
        st = iterate(st, f, spec)
    slope, _ = singularity_profile(st.w, (int(0.3 * lat.K), int(0.7 * lat.K)))
    assert slope <= -mu + 0.1


def test_report_json_is_strict_with_infinite_growth():
    # the mid-horizon slice sits at t <= 0, where every iterate vanishes
    # exactly, so the growth factor across the second half is infinite
    lat = make_lattice(2, 4.0, 16, 5.0, 3.0, 16)
    assert lat.t_axis()[lat.K // 2] < 0.0
    spec = ProblemSpec(2, 0.5, 0.5 * lambda_max(2, 0.5), 2.0)
    rep = run(spec, gaussian_bump_forcing(lat, 1.0), max_n=3)
    assert rep.m_curve[lat.K // 2][1] == 0.0
    assert rep.growth_factor == math.inf and rep.verdict == VERDICT_ESCAPE

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    d = json.loads(rep.to_json(), parse_constant=reject)
    assert d["growth_factor"] == "inf" == _fmt(rep.growth_factor)
    assert d["n_final"] == rep.n_final and d["escape_time"] is None
    assert [json_float(x) for x in (-math.inf, math.nan, 2.5)] == ["-inf", "nan", 2.5]


def test_run_follows_the_spec_exponent(lat, spec, monkeypatch):
    # run() and stepping by hand give the same weighted norms, both with the
    # singularity exponent of the spec
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)
    f = gaussian_bump_forcing(lat, 0.5)
    rep = run(spec, f, max_n=2)
    # the report echoes the thresholds run read
    assert (rep.params["sup_tol"], rep.params["escape_factor"], rep.params["cap_factor"]) == (0.0, 10.0, 1e6)
    st = iterate(iterate(initial_state(f, spec), f, spec), f, spec)
    assert rep.n_final == st.n == 2
    assert [m for _, m in rep.m_curve] == st.m_curve.tolist()
    mu = exponents(spec).mu
    np.testing.assert_array_equal(st.m_curve, blowup_functional(st.w, spec.p, mu))


def test_run_solves_mu_once(lat, spec, monkeypatch):
    # the bisection behind mu runs once per distinct (lam, dim, s); every
    # further stage of the run reads the memo
    monkeypatch.setattr(solver, "SUP_TOL", 0.0)
    upsilon_inv.cache_clear()
    rep = run(spec, gaussian_bump_forcing(lat, 0.5), max_n=3)
    info = upsilon_inv.cache_info()
    assert rep.n_final == 3
    assert info.misses == info.currsize == 1
    assert info.hits == rep.n_final  # stages 1..n; stage 0 solved it
