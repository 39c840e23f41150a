import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hardyheat import verifier
from hardyheat.verifier import (
    CHECKS,
    CheckReport,
    UnknownCheck,
    VerifierConfig,
    run_check,
    run_suite,
    spacetime_fields,
    suite_to_json,
)
from hardyheat.lattice import make_lattice

FAST_CHECKS = ["algebra_ab", "algebra_abs", "radial_K", "muckenhoupt"]


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheck):
        run_check("not_a_check")
    with pytest.raises(UnknownCheck):
        run_suite(["hardy", "nope"])


def test_catalog_contains_contracted_ids():
    assert set(CHECKS) == {
        "hardy",
        "hardy_extended",
        "kato",
        "algebra_ab",
        "algebra_abs",
        "radial_K",
        "symbol",
        "inversion",
        "semigroup",
        "adjoint",
        "ground_state",
        "radial_flap",
        "extension",
        "muckenhoupt",
        "picone",
        "ls_bound",
    }


@pytest.mark.parametrize("cid", FAST_CHECKS)
def test_registered_check_reports_its_key(cid):
    assert CHECKS[cid](VerifierConfig(seed=1)).check_id == cid


def test_bump_families_bind_each_draw():
    # the lists are built before any bump is evaluated: a late-bound draw
    # would make every bump the last one
    rng = np.random.default_rng(0)
    assert len({float(fn(0.5, -0.25)) for fn in verifier.spatial_bumps(rng, 3)}) == 3
    assert len({float(fn(0.3, 0.5, -0.25)) for fn in verifier.halfspace_bumps(rng, 3)}) == 3


@pytest.mark.parametrize("cid", FAST_CHECKS)
def test_fast_checks_pass(cid):
    rep = run_check(cid, VerifierConfig(seed=1))
    assert rep.passed
    assert rep.passed == (rep.worst_margin <= rep.tolerance)


def test_reports_deterministic_bytes():
    cfg = VerifierConfig(seed=123)
    a = suite_to_json(run_suite(FAST_CHECKS, cfg))
    b = suite_to_json(run_suite(FAST_CHECKS, cfg))
    assert a == b
    # a different seed moves the sampled margins of the random checks
    c = suite_to_json(run_suite(["algebra_ab"], VerifierConfig(seed=124)))
    d = suite_to_json(run_suite(["algebra_ab"], VerifierConfig(seed=123)))
    assert c != d


def test_report_round_trips_as_json():
    rep = run_check("algebra_ab", VerifierConfig(seed=9))
    d = json.loads(json.dumps(asdict(rep)))
    assert d["check_id"] == "algebra_ab"
    assert d["passed"] is True
    assert "worst_margin" in d and "tolerance" in d and "sample_count" in d


def test_suite_json_is_strict_with_non_finite_margins():
    # radial_K reports an infinite margin (and a None sup) when its sphere
    # integral is not finite
    reports = [
        CheckReport("a", math.inf, 1.0, 1, {"sup": None}),
        CheckReport("b", math.nan, 1.0, 1, {"x": -math.inf}),
    ]

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    a, b = json.loads(suite_to_json(reports), parse_constant=reject)
    assert a["worst_margin"] == "inf" and a["params"]["sup"] is None
    assert b["worst_margin"] == "nan" and b["params"]["x"] == "-inf"
    assert a["passed"] is False and b["passed"] is False


def test_check_report_passed_is_derived():
    assert CheckReport("c", 0.5, 1.0, 1, {}).passed is True
    assert CheckReport("c", 1.0, 1.0, 1, {}).passed is True
    assert CheckReport("c", 1.5, 1.0, 1, {}).passed is False
    assert CheckReport("c", math.nan, 1.0, 1, {}).passed is False
    assert CheckReport("c", math.inf, 1e3, 1, {}).passed is False


@pytest.mark.parametrize("factor,passes", [(1.0, True), (2.5, False)])
def test_hardy_fails_on_an_inflated_constant(monkeypatch, factor, passes):
    # the Hardy form against the (-Lap)^s energy: a coupling 2.5 times the
    # maximal one must break the inequality on the seed-0 bumps
    true_max = verifier.lambda_max
    monkeypatch.setattr(verifier, "lambda_max", lambda dim, s: factor * true_max(dim, s))
    assert run_check("hardy", VerifierConfig(seed=0)).passed is passes


def test_hardy_and_kato_pass(monkeypatch):
    monkeypatch.setattr(verifier, "N_SAMPLES", 8)
    cfg = VerifierConfig(seed=2)
    assert run_check("hardy", cfg).passed
    assert run_check("kato", cfg).passed


def _pairwise_gagliardo(phi, h, s):
    # the explicit double sum over the n^N x n^N pairs of grid nodes
    dim = phi.ndim
    ax = np.arange(phi.shape[0]) * h
    pts = np.stack([g.ravel() for g in np.meshgrid(*([ax] * dim), indexing="ij")], axis=1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, 1.0)
    kern = d2 ** (-(dim + 2.0 * s) / 2.0)
    np.fill_diagonal(kern, 0.0)
    flat = phi.ravel()
    return np.sum((flat[:, None] - flat[None, :]) ** 2 * kern)


@pytest.mark.parametrize("n", [24, 25])
def test_hardy_form_matches_the_pairwise_double_sum(n):
    rad = verifier.BUMP_RADIUS
    ax = -rad + (np.arange(n) + 0.5) * (2 * rad / n)
    h = ax[1] - ax[0]
    grids = np.meshgrid(ax, ax, indexing="ij")
    form = verifier._gagliardo_form(n, h, 2, verifier.S)
    for fn in verifier.spatial_bumps(np.random.default_rng(0), 4):
        phi = fn(*grids)
        assert form(phi) == pytest.approx(_pairwise_gagliardo(phi, h, verifier.S), rel=1e-12)


@pytest.mark.parametrize("dim,n,s", [(1, 40, 0.3), (3, 7, 0.7)])
def test_hardy_form_matches_the_pairwise_double_sum_in_other_dimensions(dim, n, s):
    phi = np.random.default_rng(0).random((n,) * dim)
    form = verifier._gagliardo_form(n, 0.3, dim, s)
    assert form(phi) == pytest.approx(_pairwise_gagliardo(phi, 0.3, s), rel=1e-12)


def test_hardy_runs_in_a_few_megabytes():
    # the n^N x n^N kernel and pairwise differences peaked above 120 MB
    tracemalloc.start()
    try:
        rep = run_check("hardy", VerifierConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    # the explicit double sum's margin, to rounding
    assert rep.worst_margin == pytest.approx(-0.5346714931476269, rel=1e-12)


def test_spacetime_fields_draw_lazily():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    fields = spacetime_fields(rng, make_lattice(2, 4.0, 8, 1.0, 1.0, 8), 4)
    assert iter(fields) is fields and not isinstance(fields, list)
    assert rng.bit_generator.state == state  # nothing drawn yet
    next(fields)
    assert rng.bit_generator.state != state


def test_adjoint_margin_is_bitwise_unchanged():
    # the margin of the battery that built all its fields up front
    assert run_check("adjoint", VerifierConfig(seed=0)).worst_margin == 1.5636348664403291e-15
