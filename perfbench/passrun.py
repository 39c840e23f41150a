"""One measured pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/passrun.py --workload dichotomy3d \
        --seed 0 --spawned-at <time.monotonic() of the parent> [--trace] [--setup-only]

The pass builds its inputs (set-up), runs the workload once through
hardyheat's public API or CLI, and prints one JSON object as its last line:
timings, peak memory, the outputs the output check needs and, with
--trace, the per-span summary from `tracer.Tracer`. Every pass starts cold,
as a `hardyheat` invocation does, so caches inside the package cannot carry
over from one pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

# the sweep config from the README, verbatim
README_SWEEP = {
    "dim": 2,
    "s_values": [0.5],
    "lambda_fracs": [0.3, 0.5, 0.7],
    "p_per_band": 2,
    "lattice": {"L": 6.0, "M": 32, "T_neg": 0.0, "T": 6.0, "K": 48},
    "max_n": 48,
    "blowup_amplitude": 1.0,
    "conditional_fraction": 0.02,
    "nonexistence_amplitude": 2.0,
    "workers": 2,
    "out_dir": "out",
}


def _run_summary(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "n_final": rep.n_final,
        "growth_factor": rep.growth_factor,
        "final_norm": rep.final_norm,
        "escape_time": rep.escape_time,
        "dominator_violations": rep.dominator_violations,
    }


def _attempt(fn) -> dict:
    try:
        return fn()
    except Exception:  # an operation that raises counts as failed, not fatal
        return {"error": traceback.format_exc(limit=3)}


# ---------------------------------------------------------------------------
# workloads: setup(seed, tmp) -> inputs; run(inputs, phase) -> outputs
# ---------------------------------------------------------------------------

def _criterion9_setup(M: int) -> dict:
    from hardyheat import constants, lattice, solver

    lam = 0.5 * constants.lambda_max(3, 0.5)
    b = constants.exponents_from(3, 0.5, lam)
    lat = lattice.make_lattice(3, 6.0, M, 0.0, 8.0, 48)
    return {
        "lat": lat,
        "spec_blow": constants.ProblemSpec(3, 0.5, lam, 0.5 * (1.0 + b.fujita_F)),
        "spec_mid": constants.ProblemSpec(3, 0.5, lam, 0.5 * (b.fujita_F + b.p_plus)),
        "f_blow": solver.gaussian_bump_forcing(lat, 1.0),
    }


def _blowup_run(inp) -> dict:
    from hardyheat import solver

    return _run_summary(solver.run(inp["spec_blow"], inp["f_blow"], max_n=64))


def _conditional_run(inp) -> dict:
    from hardyheat import solver, supersolution

    cert = supersolution.find_certificate(inp["spec_mid"])
    f = supersolution.certified_forcing(cert, inp["lat"], fraction=0.01)
    dom = supersolution.dominating_trace(cert, inp["lat"])
    return _run_summary(solver.run(inp["spec_mid"], f, max_n=64, dominator=dom))


def setup_dichotomy3d(seed, tmp):
    return _criterion9_setup(32)


def run_dichotomy3d(inp, phase):
    with phase("blowup"):
        blow = _attempt(lambda: _blowup_run(inp))
    with phase("conditional"):
        cond = _attempt(lambda: _conditional_run(inp))
    return {"blowup": blow, "conditional": cond}


def setup_blowup3d_64(seed, tmp):
    inp = _criterion9_setup(64)
    del inp["spec_mid"]
    return inp


def run_blowup3d_64(inp, phase):
    with phase("blowup"):
        return {"blowup": _attempt(lambda: _blowup_run(inp))}


def setup_sweep2d(seed, tmp):
    from hardyheat import cli

    cfg = tmp / "sweep.json"
    cfg.write_text(json.dumps(README_SWEEP, indent=2))
    out = tmp / "out"
    return {"args": cli.build_parser().parse_args(["sweep", str(cfg), "--out-dir", str(out)]),
            "out": out}


def run_sweep2d(inp, phase):
    def sweep():
        rc = inp["args"].func(inp["args"])
        with open(inp["out"] / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"rc": rc, "rows": rows}

    return _attempt(sweep)


def setup_verify_suite(seed, tmp):
    from hardyheat import cli

    return {"args": cli.build_parser().parse_args(["verify", "--seed", str(seed)])}


def run_verify_suite(inp, phase):
    # `verify --json` raises TypeError at this commit (a numpy bool in a
    # report), so the reports are read from the printed table instead
    def verify():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = inp["args"].func(inp["args"])
        checks = []
        for line in buf.getvalue().splitlines():
            cid, status, margin, _tol = line.split()
            checks.append({"check_id": cid, "passed": status == "pass",
                           "margin": float(margin.split("=", 1)[1])})
        return {"rc": rc, "checks": checks}

    return _attempt(verify)


WORKLOADS = {
    name: (globals()[f"setup_{name}"], globals()[f"run_{name}"])
    for name in ("dichotomy3d", "blowup3d_64", "sweep2d", "verify_suite")
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hardyheat

    src = (ROOT / "src").resolve()
    if Path(hardyheat.__file__).resolve().parent.parent != src:
        raise SystemExit(f"hardyheat imported from {hardyheat.__file__}, not from {src}")
    setup, run = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        inputs = setup(args.seed, tmp)
        ready = time.monotonic()
        result = {"setup_s": ready - args.spawned_at}
        if not args.setup_only:
            tracer = None
            phase = lambda label: contextlib.nullcontext()  # noqa: E731
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()

                @contextlib.contextmanager
                def phase(label):
                    tracer.phase = label
                    try:
                        yield
                    finally:
                        tracer.phase = ""

            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):  # the CLI's own prints
                outputs = run(inputs, phase)
            result["wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = time.process_time() - cpu0
            result["outputs"] = outputs
            if tracer is not None:
                tracer.uninstall()
                result["layers"] = tracer.summary()
                result["n_finals"] = [r.n_final for r in tracer.run_reports]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
