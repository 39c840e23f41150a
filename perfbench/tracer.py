"""Outside-in span tracer for hardyheat.

Each module binds the functions it uses under its own name
(`from .kernels import apply_Js`), so a wrapper installed only at the home
module would miss every call. `Tracer.install` therefore rebinds each target
at every hardyheat module attribute that holds it, and wraps the entries of
`verifier.CHECKS`. Spans go to a thread-local stack (the sweep runs points on
two threads) and are kept in memory until the pass ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

# home module -> public functions timed as layers
TARGETS = {
    "kernels": ("apply_Js", "apply_Hs_spectral", "heat_semigroup", "heat_positive",
                "apply_Ls", "symbol_of_kernel_check"),
    "extension": ("extend_parabolic",),
    "solver": ("run", "iterate", "initial_state", "rhs_truncated", "blowup_functional"),
    "constants": ("exponents_from",),
    "lattice": ("weighted_integral", "sample"),
    "supersolution": ("find_certificate", "boundary_gap", "certified_forcing",
                      "dominating_trace"),
    "cli": ("sweep_rows", "write_sweep_outputs"),
}


class Tracer:
    """Records one span per call of every target: (name, phase, start,
    duration, self time, nodes). `phase` is a label the caller sets around
    a group of calls; `nodes` is the field size for `kernels.apply_Js`."""

    def __init__(self):
        self.spans = []
        self.phase = ""
        self.run_reports = []
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, nodes_of=None, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                nodes = nodes_of(args) if nodes_of else 0
                self.spans.append((name, self.phase, t0, dur, dur - frame[0], nodes))
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def install(self):
        """Rebind every target wherever a hardyheat module holds it."""
        import hardyheat.cli  # noqa: F401  (imports every submodule)
        from hardyheat import verifier

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hardyheat" or n.startswith("hardyheat."))]
        for home, names in TARGETS.items():
            home_mod = sys.modules[f"hardyheat.{home}"]
            for fname in names:
                orig = getattr(home_mod, fname)
                extra = {}
                if (home, fname) == ("kernels", "apply_Js"):
                    extra["nodes_of"] = lambda args: args[0].values.size
                if (home, fname) == ("solver", "run"):
                    extra["on_return"] = self.run_reports.append
                wrapped = self.wrap(f"{home}.{fname}", orig, **extra)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))
        for cid, fn in list(verifier.CHECKS.items()):
            verifier.CHECKS[cid] = self.wrap(f"verifier.{cid}", fn)
            self._restore.append((verifier.CHECKS, cid, fn))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name (and per phase:name where a phase was set): calls,
        summed duration, summed self time, median duration, and the median
        nanoseconds per node where node counts were recorded."""
        groups = defaultdict(list)
        for name, phase, _t0, dur, self_s, nodes in self.spans:
            groups[name].append((dur, self_s, nodes))
            if phase:
                groups[f"{phase}:{name}"].append((dur, self_s, nodes))
        out = {}
        for key, rows in groups.items():
            durs = [r[0] for r in rows]
            per_node = [r[0] * 1e9 / r[2] for r in rows if r[2]]
            out[key] = {
                "calls": len(rows),
                "s": sum(durs),
                "self_s": sum(r[1] for r in rows),
                "s_p50": statistics.median(durs),
                "s_max": max(durs),
                "ns_per_node": statistics.median(per_node) if per_node else 0.0,
            }
        return out
