"""Command-line surface: exponent tables, the check battery, single solver
runs, supersolution certificates, and the regime sweep with CSV output.

Exit codes: 0 success, 1 check failure or regime mismatch, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .constants import (
    ProblemSpec,
    Regime,
    classify_regime,
    exponents_from,
    lambda_max,
)
from .lattice import make_lattice
from .solver import gaussian_bump_forcing, json_float, run, strict_json
from .supersolution import (
    SearchExhausted,
    certified_forcing,
    dominating_trace,
    find_certificate,
)
from .verifier import CHECKS, VerifierConfig, run_suite, suite_to_json

SWEEP_COLUMNS = [
    "N",
    "s",
    "lambda",
    "p",
    "mu",
    "p_plus",
    "F_las",
    "F_tilde",
    "predicted",
    "observed",
    "escape_time",
    "final_norm",
]

# analytic band edges are open; never sample p this close to them
BAND_EDGE_MARGIN = 1e-3


def _fmt(x: float) -> str:
    if x is None:
        return ""
    x = json_float(x)
    return x if isinstance(x, str) else f"{x:.12g}"


def _coupling(args) -> float:
    """The coupling lambda from --lambda-frac; ValueError outside (0, 1)
    or outside the (N, s) domain."""
    if not 0.0 < args.lambda_frac < 1.0:
        raise ValueError("--lambda-frac must lie strictly in (0, 1)")
    return args.lambda_frac * lambda_max(args.N, args.s)


def cmd_constants(args) -> int:
    lam = _coupling(args)
    bundle = exponents_from(args.N, args.s, lam)
    for key, val in bundle.to_dict().items():
        print(f"{key:14s} = {_fmt(val) if isinstance(val, float) else val}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(strict_json(bundle.to_dict()), sort_keys=True, indent=2, allow_nan=False)
        )
        print(f"wrote {args.json}")
    return 0


def cmd_verify(args) -> int:
    cfg = VerifierConfig(seed=args.seed)
    ids = [args.check] if args.check else None
    reports = run_suite(ids, cfg, parallel=args.parallel)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check_id:16s} {status}  margin={r.worst_margin:.3e} tol={r.tolerance:.1e}")
    if args.json:
        Path(args.json).write_text(suite_to_json(reports))
        print(f"wrote {args.json}")
    return 0 if all(r.passed for r in reports) else 1


def _lattice_from(dim: int, lattice: Optional[dict]):
    """The sweep lattice: the config's lattice object over the defaults."""
    cfgd = lattice or {}
    return make_lattice(
        dim,
        cfgd.get("L", 6.0),
        cfgd.get("M", 32),
        cfgd.get("T_neg", 0.0),
        cfgd.get("T", 6.0),
        cfgd.get("K", 48),
    )


_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_COUNT = (lambda v: v >= 1, ">= 1")
# the growth factor is >= 1 by construction, so a factor <= 1 escapes at once
_FACTOR = (lambda v: v > 1, "> 1")

# the range of each run setting, by its name in the sweep config and in
# the command line (where `_` is `-`)
_RANGES = {
    "seed": _NON_NEGATIVE,
    "amplitude": _NON_NEGATIVE,
    "blowup_amplitude": _NON_NEGATIVE,
    "nonexistence_amplitude": _NON_NEGATIVE,
    "max_n": _COUNT,
    "p_per_band": _COUNT,
    "workers": _COUNT,
    "escape_factor": _FACTOR,
    "cap_factor": _FACTOR,
    "sup_tol": (lambda v: v > 0, "> 0"),
    "conditional_fraction": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


def _check_range(label: str, key: str, val) -> None:
    """ValueError unless val lies in the range of run setting key."""
    ok, want = _RANGES[key]
    if not ok(val):
        raise ValueError(f"{label} must be {want}, got {val!r}")


def _check_flags(args, keys) -> None:
    for key in keys:
        _check_range("--" + key.replace("_", "-"), key, getattr(args, key))


def _solve_inputs(args):
    """(spec, lattice) of a `solve` invocation; ValueError if invalid."""
    _check_flags(args, ("amplitude", "max_n", "escape_factor", "cap_factor"))
    spec = ProblemSpec(args.N, args.s, _coupling(args), args.p)
    return spec, make_lattice(args.N, args.L, args.M, 0.0, args.T, args.K)


def cmd_solve(args) -> int:
    spec, lat = _solve_inputs(args)
    f = gaussian_bump_forcing(lat, args.amplitude)
    rep = run(
        spec,
        f,
        max_n=args.max_n,
        escape_factor=args.escape_factor,
        cap_factor=args.cap_factor,
    )
    print(f"verdict       = {rep.verdict}")
    print(f"n_final       = {rep.n_final}")
    print(f"growth_factor = {_fmt(rep.growth_factor)}")
    print(f"escape_time   = {_fmt(rep.escape_time)}")
    print(f"final_norm    = {_fmt(rep.final_norm)}")
    if args.json:
        Path(args.json).write_text(rep.to_json())
        print(f"wrote {args.json}")
    return 0


def cmd_supersol(args) -> int:
    lam = _coupling(args)
    bundle = exponents_from(args.N, args.s, lam)
    p = args.p if args.p is not None else 0.5 * (bundle.fujita_F + bundle.p_plus)
    try:
        spec = ProblemSpec(args.N, args.s, lam, p)
        cert = find_certificate(spec)
    except (ValueError, SearchExhausted) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(cert.to_json())
    if args.json:
        Path(args.json).write_text(cert.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


# sweep config keys that hold counts or sizes; the other numeric keys take
# any JSON number
_SWEEP_INT_KEYS = ("dim", "p_per_band", "max_n", "workers", "M", "K")

# the keys a sweep config's lattice object may hold; dim is the top-level one
_LATTICE_KEYS = ("L", "M", "T_neg", "T", "K")


def _is_number(val, integral: bool) -> bool:
    """A JSON number (not a bool), and an integer when integral."""
    return not isinstance(val, bool) and isinstance(val, int if integral else (int, float))


def _check_sweep_value(key: str, val) -> None:
    """ValueError unless val has the JSON type of sweep config key: a string
    for out_dir, a list of numbers for s_values and lambda_fracs, an object
    of numbers keyed by _LATTICE_KEYS (or null) for lattice, and a number for
    every other key. Counts and sizes must be integers."""
    if key == "out_dir":
        ok, want = isinstance(val, str), "a string"
    elif key in ("s_values", "lambda_fracs"):
        ok = isinstance(val, list) and all(_is_number(v, False) for v in val)
        want = "a list of numbers"
    elif key == "lattice":
        ok = val is None or (
            isinstance(val, dict)
            and set(val) <= set(_LATTICE_KEYS)
            and all(_is_number(v, k in _SWEEP_INT_KEYS) for k, v in val.items())
        )
        want = f"an object of numbers keyed by {', '.join(_LATTICE_KEYS)}, with integer M and K"
    else:
        integral = key in _SWEEP_INT_KEYS
        ok, want = _is_number(val, integral), "an integer" if integral else "a number"
    if not ok:
        raise ValueError(f"config value of {key!r} must be {want}, got {val!r}")


@dataclass
class SweepConfig:
    dim: int = 2
    s_values: tuple = (0.5,)
    lambda_fracs: tuple = (0.5,)
    p_per_band: int = 1
    lattice: dict = None
    max_n: int = 48
    escape_factor: float = 10.0
    cap_factor: float = 1e6
    sup_tol: float = 1e-6
    blowup_amplitude: float = 1.0
    conditional_fraction: float = 0.02
    nonexistence_amplitude: float = 2.0
    workers: int = 1
    out_dir: str = "sweep_out"

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config parse error in {path}: line {exc.lineno}: {exc.msg}")
        cfg = cls()
        for key, val in raw.items():
            if not hasattr(cfg, key):
                raise ValueError(f"config parse error in {path}: unknown key {key!r}")
            _check_sweep_value(key, val)
            setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
        if not cfg.s_values or not cfg.lambda_fracs:
            raise ValueError("config lists must be nonempty")
        if any(not 0.0 < fr < 1.0 for fr in cfg.lambda_fracs):
            raise ValueError("lambda fractions must lie in (0, 1)")
        for key, val in vars(cfg).items():
            if key in _RANGES:
                _check_range(f"config value of {key!r}", key, val)
        # the same constructors _sweep_row uses, so a bad value is a usage
        # error here and not a traceback in the middle of the sweep
        _lattice_from(cfg.dim, cfg.lattice)
        for s in cfg.s_values:
            if not 0.0 < s < 1.0:  # ProblemSpec's range; lambda_max admits s = 1
                raise ValueError(f"s values must lie in (0, 1), got {s}")
            lambda_max(cfg.dim, s)
        return cfg


def _band_samples(lo: float, hi: float, n: int) -> List[float]:
    """n points strictly inside (lo, hi), away from both edges."""
    safe_lo = lo * (1.0 + BAND_EDGE_MARGIN) + 1e-9
    safe_hi = hi * (1.0 - BAND_EDGE_MARGIN)
    if not math.isfinite(hi):
        safe_hi = max(2.0 * lo, 10.0)
    fr = (np.arange(n) + 1.0) / (n + 1.0)
    return [float(safe_lo + f * (safe_hi - safe_lo)) for f in fr]


EXPECTED_OBSERVATION = {
    Regime.BLOW_UP: "NormEscape",
    Regime.CONDITIONAL_GLOBAL: "ConvergedBelowCap",
    Regime.NON_EXISTENCE: "NormEscape",
}


def _sweep_row(cfg: SweepConfig, s: float, frac: float, p: float) -> dict:
    lam = frac * lambda_max(cfg.dim, s)
    bundle = exponents_from(cfg.dim, s, lam)
    predicted = classify_regime(p, bundle)
    spec = ProblemSpec(cfg.dim, s, lam, p)
    lat = _lattice_from(cfg.dim, cfg.lattice)
    dominator = None
    if predicted is Regime.CONDITIONAL_GLOBAL:
        cert = find_certificate(spec)
        f = certified_forcing(cert, lat, fraction=cfg.conditional_fraction)
        dominator = dominating_trace(cert, lat)
    elif predicted is Regime.BLOW_UP:
        f = gaussian_bump_forcing(lat, cfg.blowup_amplitude)
    else:
        f = gaussian_bump_forcing(lat, cfg.nonexistence_amplitude)
    rep = run(
        spec,
        f,
        max_n=cfg.max_n,
        escape_factor=cfg.escape_factor,
        cap_factor=cfg.cap_factor,
        sup_tol=cfg.sup_tol,
        dominator=dominator,
    )
    return {
        "N": cfg.dim,
        "s": s,
        "lambda": lam,
        "p": p,
        "mu": bundle.mu,
        "p_plus": bundle.p_plus,
        "F_las": bundle.fujita_F,
        "F_tilde": bundle.fujita_F_tilde,
        "predicted": predicted.value,
        "observed": rep.verdict,
        "escape_time": rep.escape_time,
        "final_norm": rep.final_norm,
    }


def sweep_rows(cfg: SweepConfig) -> List[dict]:
    points = []
    for s in cfg.s_values:
        for frac in cfg.lambda_fracs:
            lam = frac * lambda_max(cfg.dim, s)
            b = exponents_from(cfg.dim, s, lam)
            ps = (
                _band_samples(1.0, b.fujita_F, cfg.p_per_band)
                + _band_samples(b.fujita_F, b.p_plus, cfg.p_per_band)
                + _band_samples(b.p_plus, 1.6 * b.p_plus, cfg.p_per_band)
            )
            points.extend((s, frac, p) for p in ps)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda pt: _sweep_row(cfg, *pt), points))
    else:
        rows = [_sweep_row(cfg, *pt) for pt in points]
    return rows


def write_sweep_outputs(rows: List[dict], out_dir: str) -> tuple:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) if isinstance(row[c], float) or row[c] is None
                             else row[c] for c in SWEEP_COLUMNS])
    mismatches = [
        row
        for row in rows
        if EXPECTED_OBSERVATION.get(Regime(row["predicted"])) not in (None, row["observed"])
    ]
    summary = {
        "rows": len(rows),
        "mismatches": [
            {k: row[k] for k in ("s", "lambda", "p", "predicted", "observed")}
            for row in mismatches
        ],
    }
    json_path = out / "sweep_summary.json"
    json_path.write_text(
        json.dumps(strict_json(summary), sort_keys=True, indent=2, allow_nan=False)
    )
    return csv_path, json_path, mismatches


def cmd_sweep(args) -> int:
    try:
        cfg = SweepConfig.from_file(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.workers:
        cfg.workers = args.workers
    rows = sweep_rows(cfg)
    csv_path, json_path, mismatches = write_sweep_outputs(rows, cfg.out_dir)
    print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    for row in mismatches:
        print(
            f"MISMATCH s={row['s']} lambda={_fmt(row['lambda'])} p={_fmt(row['p'])}: "
            f"predicted {row['predicted']} observed {row['observed']}"
        )
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardyheat",
        description="Numerical laboratory for the fractional heat operator "
        "with a Hardy-type potential",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print the exponent bundle")
    c.add_argument("-N", type=int, required=True)
    c.add_argument("-s", type=float, required=True)
    c.add_argument("--lambda-frac", type=float, required=True,
                   help="coupling as a fraction of the maximal one, in (0,1)")
    c.add_argument("--json", help="also write the bundle as JSON")
    c.set_defaults(func=cmd_constants)

    v = sub.add_parser("verify", help="run the check battery")
    v.add_argument("--check", help="single check id (default: whole suite)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--parallel", action="store_true")
    v.add_argument("--json", help="write the reports as JSON")
    v.set_defaults(func=cmd_verify)

    so = sub.add_parser("solve", help="one monotone-scheme run")
    so.add_argument("-N", type=int, default=2)
    so.add_argument("-s", type=float, default=0.5)
    so.add_argument("--lambda-frac", type=float, default=0.5)
    so.add_argument("-p", type=float, required=True)
    so.add_argument("--amplitude", type=float, default=1.0)
    so.add_argument("-L", type=float, default=6.0)
    so.add_argument("-M", type=int, default=32)
    so.add_argument("-T", type=float, default=6.0)
    so.add_argument("-K", type=int, default=48)
    so.add_argument("--max-n", type=int, default=48)
    so.add_argument("--escape-factor", type=float, default=10.0)
    so.add_argument("--cap-factor", type=float, default=1e6)
    so.add_argument("--json")
    so.set_defaults(func=cmd_solve)

    sp = sub.add_parser("supersol", help="search a supersolution certificate")
    sp.add_argument("-N", type=int, default=3)
    sp.add_argument("-s", type=float, default=0.5)
    sp.add_argument("--lambda-frac", type=float, default=0.5)
    sp.add_argument("-p", type=float, default=None,
                    help="default: midpoint of the conditional band")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_supersol)

    sw = sub.add_parser("sweep", help="regime sweep to CSV")
    sw.add_argument("config", help="JSON config file")
    sw.add_argument("--out-dir", help="override the output directory")
    sw.add_argument("--workers", type=int, help="override the worker count")
    sw.set_defaults(func=cmd_sweep)
    return ap


def _validate_args(args) -> None:
    """Raise ValueError for arguments no computation should start with.

    Only construction-time checks live here, through the same helpers the
    commands build their inputs with: the coupling fraction, the (N, s)
    domain, the ranges of the run settings, and for `solve` the problem
    instance and the lattice.
    """
    if getattr(args, "check", None) is not None and args.check not in CHECKS:
        raise ValueError(f"unknown check {args.check!r}; known: {sorted(CHECKS)}")
    if args.command == "verify":
        _check_flags(args, ("seed",))
    elif args.command == "sweep" and args.workers is not None:
        _check_flags(args, ("workers",))
    elif args.command == "solve":
        _solve_inputs(args)
    elif hasattr(args, "lambda_frac"):
        _coupling(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
    except ValueError as exc:  # LatticeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
