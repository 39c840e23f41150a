"""Record the reference outputs the output check compares against.

    python3 perfbench/record_reference.py

Runs one untraced pass of each workload and writes `reference.json`. Run it
only when a change is meant to alter the outputs, and say so where the
change is described: the check exists to catch every other change.
"""

from __future__ import annotations

import json
import sys

import check
from run import WORKLOADS, one_pass

RUN_FIELDS = ("verdict", "n_final", "growth_factor", "final_norm", "escape_time")
ROW_FIELDS = ("p", "predicted", "observed", "final_norm")


def main() -> int:
    outs = {w: one_pass(w, 0)["outputs"] for w in WORKLOADS}
    ref = {w: {op: {k: rep[k] for k in RUN_FIELDS} for op, rep in outs[w].items()}
           for w in ("dichotomy3d", "blowup3d_64")}
    ref["sweep2d"] = {"rows": [{k: row[k] for k in ROW_FIELDS}
                               for row in outs["sweep2d"]["rows"]]}
    ref["verify_suite"] = {"checks": [c["check_id"] for c in outs["verify_suite"]["checks"]]}
    for w in WORKLOADS:
        fails = check.failures(w, outs[w], ref)
        if fails:
            print(f"{w}: the recorded outputs fail the check: {fails}", file=sys.stderr)
            return 1
    check.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE_PATH}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
