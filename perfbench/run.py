"""hardyheat benchmark runner.

    python3 perfbench/run.py --workload dichotomy3d --seed 0 --seconds 30 --trace 0

Runs measured passes of one workload for about `--seconds` seconds, each in
a fresh interpreter (`passrun.py`), checks every pass's outputs against
`reference.json`, and prints each metric by name with its unit. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. Without `--workload` it runs every
workload in turn. Run it from anywhere; it builds nothing and imports
hardyheat from the `src/` directory next to `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import check
from passrun import README_SWEEP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("dichotomy3d", "blowup3d_64", "sweep2d", "verify_suite")

# set-up is short and noisy: take its median over at least this many set-ups
MIN_SETUPS = 9
PASS_TIMEOUT_S = 170.0

# shape (K, M, ...) of the field each workload's inner loop works on
FIELD_SHAPES = {
    "dichotomy3d": (48, 32, 32, 32),
    "blowup3d_64": (48, 64, 64, 64),
    "sweep2d": (48, 32, 32),
    "verify_suite": (64, 64, 64),  # the inversion / semigroup lattice
}

# apply_Js calls not made by solver.run: the inversion and semigroup checks
EXTRA_APPLY_JS = {"verify_suite": 4}

LAYER_STATS = (
    ("kernels.apply_Js", ("calls", "self_s", "ms_p50", "ns_per_node")),
    ("kernels.apply_Hs_spectral", ("calls", "self_s")),
    ("kernels.heat_semigroup", ("calls", "self_s")),
    ("kernels.heat_positive", ("calls", "self_s")),
    ("kernels.apply_Ls", ("calls", "self_s")),
    ("kernels.symbol_of_kernel_check", ("self_s",)),
    ("extension.extend_parabolic", ("calls", "self_s")),
    ("solver.run", ("calls", "s_p50", "s_max", "self_s")),
    ("solver.iterate", ("calls", "self_s")),
    ("solver.initial_state", ("self_s",)),
    ("solver.rhs_truncated", ("calls", "self_s")),
    ("solver.blowup_functional", ("calls", "self_s")),
    ("constants.exponents_from", ("calls", "self_s")),
    ("lattice.weighted_integral", ("calls", "self_s")),
    ("lattice.sample", ("self_s",)),
    ("supersolution.find_certificate", ("calls", "self_s")),
    ("supersolution.boundary_gap", ("calls",)),
    ("supersolution.certified_forcing", ("self_s",)),
    ("supersolution.dominating_trace", ("self_s",)),
    ("cli.sweep_rows", ("s",)),
    ("cli.write_sweep_outputs", ("s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "s": "s", "s_p50": "s", "s_max": "s",
              "ms_p50": "ms", "ns_per_node": "ns"}
PHASES = ("blowup", "conditional")


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = None
    try:
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (idx / "level").read_text().strip() == "3":
                size = (idx / "size").read_text().strip()
                l3 = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import scipy  # noqa: F401  (recorded only; hardyheat does not use it)

        scipy_present = True
    except ImportError:
        scipy_present = False
    l3_mb = l3 / 1e6 if l3 else None
    fields = {}
    for name, shape in FIELD_SHAPES.items():
        nodes = 1
        for n in shape:
            nodes *= n
        mb = nodes * 8 / 1e6
        fields[name] = {"shape": "x".join(map(str, shape)), "real_field_mb": mb,
                        "field_over_l3": mb / l3_mb if l3_mb else None}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_mb": l3_mb,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy_present": scipy_present,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fields": fields,
    }


def one_pass(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def layer_metrics(summaries: list, untraced_walls: list, traced_walls: list,
                  check_ids: list) -> dict:
    """Per-layer metrics: medians over the traced passes of each span stat."""

    def stat(key, field):
        return median([s.get(key, {}).get(field, 0.0) for s in summaries])

    m = {}
    for name, stats in LAYER_STATS:
        for st in stats:
            if st == "ms_p50":
                value = stat(name, "s_p50") * 1e3
            elif st == "calls":
                value = summaries[0].get(name, {}).get("calls", 0)
            else:
                value = stat(name, st)
            m[f"{name}.{st}"] = (value, STAT_UNITS[st])
    gaps = m["supersolution.boundary_gap.calls"][0]
    certs = m["supersolution.find_certificate.calls"][0]
    m["supersolution.cert_yield"] = (certs / gaps if gaps else 0.0, "ratio")
    for cid in check_ids:
        m[f"verifier.{cid}.s"] = (stat(f"verifier.{cid}", "s"), "s")
    rows_s = stat("cli.sweep_rows", "s")
    busy = stat("solver.run", "s")
    workers = README_SWEEP["workers"]
    m["cli.sweep.parallel_eff"] = (busy / (rows_s * workers) if rows_s else 0.0, "ratio")
    for ph in PHASES:
        run_s = stat(f"{ph}:solver.run", "s")
        js = stat(f"{ph}:kernels.apply_Js", "self_s")
        rhs = stat(f"{ph}:solver.rhs_truncated", "self_s")
        bf = stat(f"{ph}:solver.blowup_functional", "s")
        m[f"solver.run.{ph}.s"] = (run_s, "s")
        m[f"solver.run.{ph}.iterate.calls"] = (
            summaries[0].get(f"{ph}:solver.iterate", {}).get("calls", 0), "count")
        m[f"solver.run.{ph}.apply_Js.self_s"] = (js, "s")
        m[f"solver.run.{ph}.rhs_truncated.self_s"] = (rhs, "s")
        m[f"solver.run.{ph}.blowup_functional.s"] = (bf, "s")
        m[f"solver.run.{ph}.other_s"] = (run_s - js - rhs - bf, "s")
    m["trace.overhead_frac"] = (median(traced_walls) / median(untraced_walls) - 1.0, "ratio")
    return m


def coverage_failures(workload: str, summaries: list, n_finals: list, ops: int,
                      check_ids: list) -> list:
    """Counts the tracer saw must match what the workload's reports say; a
    miss means a call site the tracer did not rebind."""
    problems = []
    first = summaries[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    for other in summaries[1:]:
        if {k: v["calls"] for k, v in other.items()} != {k: v["calls"] for k, v in first.items()}:
            problems.append("span counts differ between traced passes")
    runs = ops if workload != "verify_suite" else 0
    expect = {
        "solver.run": runs,
        "solver.iterate": sum(n_finals),
        "kernels.apply_Js": sum(n + 1 for n in n_finals) + EXTRA_APPLY_JS.get(workload, 0),
    }
    if len(n_finals) != runs:
        problems.append(f"{len(n_finals)} run reports, expected {runs}")
    for cid in check_ids:
        expect[f"verifier.{cid}"] = 1 if workload == "verify_suite" else 0
    for name, want in expect.items():
        if calls(name) != want:
            problems.append(f"{name}.calls = {calls(name)}, expected {want}")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = check.load_reference()
    ops = check.operation_count(workload, reference)
    check_ids = reference["verify_suite"]["checks"]
    start = time.monotonic()
    setups = [one_pass(workload, seed, setup_only=True)["setup_s"] for _ in range(MIN_SETUPS - 1)]
    loop_start = time.monotonic()
    passes, traced = [], []
    attempted = failed = 0
    fail_log = []
    while True:
        batch = [one_pass(workload, seed)]
        if trace:
            batch.append(one_pass(workload, seed, trace=True))
        for res in batch:
            fails = check.failures(workload, res["outputs"], reference)
            attempted += ops
            failed += len(fails)
            fail_log.extend(fails)
            (traced if "layers" in res else passes).append(res)
        # start another batch only if it is expected to end within the budget
        now = time.monotonic()
        if now - start + (now - loop_start) / len(passes) > seconds:
            break
    setups += [p["setup_s"] for p in passes + traced]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes + traced],
        "failures": fail_log,
    }
    coverage = []
    if trace:
        summaries = [t["layers"] for t in traced]
        coverage = coverage_failures(workload, summaries, traced[0]["n_finals"], ops, check_ids)
        metrics = layer_metrics(summaries, [p["wall_s"] for p in passes],
                                [t["wall_s"] for t in traced], check_ids)
    else:
        metrics = {
            "wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "cpu_s": (median([p["cpu_s"] for p in passes]), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        }
    record.update(coverage_failures=coverage, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return record


def report(record: dict) -> None:
    w = record["workload"]
    n = len(record["passes"])
    print(f"[{w}] seed {record['seed']}, {n} passes, trace {int(record['trace'])}")
    for name, mv in record["metrics"].items():
        print(f"[{w}] {name:44s} {mv['value']:.6g} {mv['unit']}")
    print(f"[{w}] {'failed_frac':44s} {record['failed'] / record['attempted']:.6g} ratio"
          f" ({record['failed']} of {record['attempted']} operations)")
    for op, reason in record["failures"][:20]:
        print(f"[{w}] FAILED {op}: {reason}")
    for problem in record["coverage_failures"]:
        print(f"[{w}] COVERAGE {problem}")
    print(f"[{w}] machine {json.dumps(record['machine'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all of them, in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hardyheat" / "__init__.py").is_file():
        print(f"error: no hardyheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_facts()
    records = []
    for w in [args.workload] if args.workload else WORKLOADS:
        try:
            rec = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 1
        rec["machine"] = machine
        report(rec)
        (WORK_DIR / "results").mkdir(parents=True, exist_ok=True)
        out = WORK_DIR / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1, sort_keys=True))
        records.append(rec)

    single = len(records) == 1
    result = {
        "correct": all(r["failed"] == 0 and not r["coverage_failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(k if single else f"{r['workload']}.{k}"): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
