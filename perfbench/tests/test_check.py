"""The output check must be able to fail.

    python3 -m pytest perfbench/tests

A report equal to the recorded reference passes; a flipped verdict, an extra
iteration, or a field drifting by 1e-6 relative fails.
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402

REF = check.load_reference()


def _solver_outputs(workload):
    return {op: dict(rep, dominator_violations=0) for op, rep in REF[workload].items()}


def _sweep_outputs():
    return {"rc": 0, "rows": copy.deepcopy(REF["sweep2d"]["rows"])}


def _verify_outputs():
    return {"rc": 0, "checks": [{"check_id": c, "passed": True} for c in REF["verify_suite"]["checks"]]}


def test_operation_counts():
    counts = {w: check.operation_count(w, REF) for w in REF}
    assert counts == {"dichotomy3d": 2, "blowup3d_64": 1, "sweep2d": 18, "verify_suite": 16}


@pytest.mark.parametrize("workload", ["dichotomy3d", "blowup3d_64"])
def test_reference_solver_outputs_pass(workload):
    assert check.failures(workload, _solver_outputs(workload), REF) == []


def test_reference_sweep_and_verify_outputs_pass():
    assert check.failures("sweep2d", _sweep_outputs(), REF) == []
    assert check.failures("verify_suite", _verify_outputs(), REF) == []


@pytest.mark.parametrize("op", ["blowup", "conditional"])
def test_flipped_verdict_fails(op):
    out = _solver_outputs("dichotomy3d")
    out[op]["verdict"] = {"NormEscape": "ConvergedBelowCap",
                          "ConvergedBelowCap": "NormEscape"}[out[op]["verdict"]]
    assert [f[0] for f in check.failures("dichotomy3d", out, REF)] == [op]


@pytest.mark.parametrize("op", ["blowup", "conditional"])
def test_extra_iteration_fails(op):
    out = _solver_outputs("dichotomy3d")
    out[op]["n_final"] += 1
    assert [f[0] for f in check.failures("dichotomy3d", out, REF)] == [op]


@pytest.mark.parametrize("op", ["blowup", "conditional"])
def test_final_norm_drift_fails(op):
    out = _solver_outputs("dichotomy3d")
    out[op]["final_norm"] *= 1 + 1e-6
    assert [f[0] for f in check.failures("dichotomy3d", out, REF)] == [op]


def test_weak_growth_and_dominator_violation_fail():
    out = _solver_outputs("dichotomy3d")
    out["blowup"]["growth_factor"] = 9.5
    out["conditional"]["dominator_violations"] = 3
    assert len(check.failures("dichotomy3d", out, REF)) == 2


def test_raising_operation_fails():
    out = _solver_outputs("blowup3d_64")
    out["blowup"] = {"error": "Traceback ...\nMonotonicityError: iterate decreased"}
    assert len(check.failures("blowup3d_64", out, REF)) == 1


def test_sweep_point_changes_fail():
    out = _sweep_outputs()
    out["rows"][0]["observed"] = "ConvergedBelowCap"
    out["rows"][1]["final_norm"] = repr(float(out["rows"][1]["final_norm"]) * (1 + 1e-6))
    del out["rows"][-1]
    assert [f[0] for f in check.failures("sweep2d", out, REF)] == ["point0", "point1", "point17"]


def test_failed_or_missing_check_fails():
    out = _verify_outputs()
    out["checks"][0]["passed"] = False
    del out["checks"][-1]
    assert len(check.failures("verify_suite", out, REF)) == 2
