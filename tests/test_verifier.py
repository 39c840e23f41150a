import json
import math

import pytest

from hardyheat import verifier
from hardyheat.verifier import (
    CHECKS,
    CheckReport,
    UnknownCheck,
    VerifierConfig,
    run_check,
    run_suite,
    suite_to_json,
)

FAST_CHECKS = ["algebra_ab", "algebra_abs", "radial_K", "muckenhoupt"]


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheck):
        run_check("not_a_check")
    with pytest.raises(UnknownCheck):
        run_suite(["hardy", "nope"])


def test_catalog_contains_contracted_ids():
    for cid in [
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
    ]:
        assert cid in CHECKS


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


def test_suite_parallel_matches_serial():
    cfg = VerifierConfig(seed=5)
    ser = suite_to_json(run_suite(FAST_CHECKS, cfg, parallel=False))
    par = suite_to_json(run_suite(FAST_CHECKS, cfg, parallel=True))
    assert ser == par


def test_report_round_trips_as_json():
    rep = run_check("algebra_ab", VerifierConfig(seed=9))
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["check_id"] == "algebra_ab"
    assert d["passed"] is True
    assert "worst_margin" in d and "tolerance" in d and "sample_count" in d


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


def test_hardy_and_kato_pass():
    cfg = VerifierConfig(seed=2, n_samples=8)
    assert run_check("hardy", cfg).passed
    assert run_check("kato", cfg).passed
