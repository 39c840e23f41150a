"""Output check: compare one pass's outputs with the reference outputs
recorded in `reference.json`.

An operation is one solver `run()`, one sweep point or one verifier check.
`failures(workload, outputs, reference)` returns one `(operation, reason)`
per failed operation; `operation_count` is the number attempted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# "equal to rounding": the largest relative drift a field may show
REL_TOL = 1e-9

# the verdict each analytic regime must produce (README, `hardyheat sweep`)
EXPECTED_OBSERVATION = {
    "BlowUp": "NormEscape",
    "ConditionalGlobal": "ConvergedBelowCap",
    "NonExistence": "NormEscape",
}

ESCAPE_FACTOR = 10.0  # the code's default escape factor


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _run_failure(out: dict, ref: dict):
    if "error" in out:
        return "raised: " + out["error"].strip().splitlines()[-1]
    if ref["verdict"] == "NormEscape":
        if out["verdict"] != "NormEscape" or not out["growth_factor"] >= ESCAPE_FACTOR:
            return f"verdict {out['verdict']} growth {out['growth_factor']}"
    elif out["verdict"] != "ConvergedBelowCap" or out["dominator_violations"] != 0:
        return f"verdict {out['verdict']} violations {out['dominator_violations']}"
    if out["n_final"] != ref["n_final"]:
        return f"n_final {out['n_final']} != {ref['n_final']}"
    for key in ("growth_factor", "final_norm", "escape_time"):
        if not _close(out[key], ref[key]):
            return f"{key} {out[key]!r} != {ref[key]!r}"
    return None


def _sweep_failures(out: dict, ref: dict):
    if "error" in out:
        reason = "raised: " + out["error"].strip().splitlines()[-1]
        return [(f"point{i}", reason) for i in range(len(ref["rows"]))]
    rows = out["rows"]
    fails = []
    for i, want in enumerate(ref["rows"]):
        if i >= len(rows):
            fails.append((f"point{i}", "missing"))
            continue
        got = rows[i]
        if EXPECTED_OBSERVATION.get(got["predicted"]) != got["observed"]:
            fails.append((f"point{i}", f"predicted {got['predicted']} observed {got['observed']}"))
        elif got["predicted"] != want["predicted"] or got["observed"] != want["observed"]:
            fails.append((f"point{i}", f"{got['predicted']}/{got['observed']} != reference"))
        elif not (_close(got["p"], want["p"]) and _close(got["final_norm"], want["final_norm"])):
            fails.append((f"point{i}", f"p {got['p']} final_norm {got['final_norm']} != reference"))
    return fails


def _verify_failures(out: dict, ref: dict):
    if "error" in out:
        reason = "raised: " + out["error"].strip().splitlines()[-1]
        return [(cid, reason) for cid in ref["checks"]]
    passed = {c["check_id"]: c["passed"] for c in out["checks"]}
    return [(cid, "missing" if cid not in passed else "did not pass")
            for cid in ref["checks"] if passed.get(cid) is not True]


def operation_count(workload: str, reference: dict) -> int:
    ref = reference[workload]
    if workload == "sweep2d":
        return len(ref["rows"])
    if workload == "verify_suite":
        return len(ref["checks"])
    return len(ref)


def failures(workload: str, outputs: dict, reference: dict) -> list:
    ref = reference[workload]
    if workload == "sweep2d":
        return _sweep_failures(outputs, ref)
    if workload == "verify_suite":
        return _verify_failures(outputs, ref)
    fails = []
    for op, want in ref.items():
        reason = _run_failure(outputs[op], want) if op in outputs else "missing"
        if reason:
            fails.append((op, reason))
    return fails
