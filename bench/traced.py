"""One traced, in-process CLI run: a span per layer call plus per-layer metrics.

    python3 bench/traced.py SPANS_JSON -- <qtherm arguments>

The public function of each pipeline layer is wrapped in every module of the
package that holds it, because ``from .x import y`` binds a second name at
import time.  Each call records one span (name, start, end, parent, pid) and
the counts read from the object it returns (``KernelSet.levels`` and
``half_levels``, ``Trajectory.grid``), so no file under ``src/`` needs an
instrumentation hook.  A function that no longer exists is skipped and listed
under ``missing``; its layer then reads as absent (0 calls, 0 s).

Forked pool workers inherit the wrappers and append each span they close to
``<SPANS_JSON>.<pid>.jsonl``; the parent merges those files when ``main``
returns.  Self time subtracts only child spans of the same process, so the
self time of a sweep command at ``--workers 2`` is the parent's wait for its
pool.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "qubit_thermometry"

# Share of the traced wall time that may fall outside every wrapped call
# before the run is flagged as having a call path that bypasses the wrappers.
UNTRACED_SHARE_LIMIT = 0.02


def kernel_counts(ks):
    levels = [getattr(ks, name, None) for name in ("levels", "half_levels")]
    if all(lv is not None for lv in levels):
        levels = [np.asarray(lv) for lv in levels]
        points = sum(int(lv.size) for lv in levels)
        return {"points": points,
                "evals": points + sum(int(lv.sum()) for lv in levels),
                "refined": sum(int((lv > 0).sum()) for lv in levels)}
    grid = getattr(ks, "grid", None)
    return {"points": 2 * len(grid) - 1} if grid is not None else {}


def trajectory_counts(traj):
    grid = getattr(traj, "grid", None)
    return {"steps": len(grid) - 1} if grid is not None else {}


def no_counts(_):
    return {}


# (module, attribute path, counts read from the return value)
TARGETS = (
    ("kernels", "precompute", kernel_counts),
    ("kernels", "rebuild_for_temperature", no_counts),
    ("metrology", "stencil_kernel_sets", no_counts),
    ("metrology", "metrology_scan", no_counts),
    ("metrology", "bloch_T_derivative", no_counts),
    ("dynamics", "integrate", trajectory_counts),
    ("witness", "coherence", no_counts),
    ("witness", "non_markovianity", no_counts),
    ("witness", "steady_coherence", no_counts),
    ("svg", "LinePlot.write", no_counts),
    ("cli", "cmd_sweep_alpha", no_counts),
    ("cli", "cmd_sweep_temperature", no_counts),
)


class Tracer:
    """Collects spans in memory; a forked worker spills each closed span to
    its own file, since pool workers leave through ``os._exit``."""

    def __init__(self, spill_prefix: str):
        self.main_pid = os.getpid()
        self.spill_prefix = spill_prefix
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            pid = os.getpid()
            span = {"id": f"{pid}:{next(tracer._ids)}", "name": name,
                    "parent": stack[-1] if stack else None, "pid": pid}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.update(counts(result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer._record(span)

        return traced

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, span):
        if span["pid"] == self.main_pid:
            self.spans.append(span)
        else:
            with open(f"{self.spill_prefix}.{span['pid']}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def merged(self):
        spans = list(self.spans)
        for path in sorted(glob.glob(f"{self.spill_prefix}.*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
            os.remove(path)
        return spans


def install(tracer: Tracer) -> list:
    """Wrap every target in every package module bound to it; return the
    targets that could not be found."""
    import importlib

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    missing = []
    for mod_name, path, counts in TARGETS:
        name = f"{mod_name}.{path}"
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            missing.append(name)
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, fn, counts)
        setattr(owner, attr, wrapped)
        if not outer:
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)
    return missing


def self_times(spans):
    """Span id -> duration minus the durations of its same-process children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in out and parent.split(":")[0] == str(s["pid"]):
            out[parent] -= s["end"] - s["start"]
    return out


def layer_metrics(spans, wall_s: float, main_pid: int) -> tuple:
    """Per-layer metrics (name -> value) and the coverage record."""
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for s in spans:
        name = s["name"]
        total[name] += s["end"] - s["start"]
        self_s[name] += own[s["id"]]
        calls[name] += 1
        for key in ("points", "evals", "refined", "steps"):
            count[f"{name}.{key}"] += s.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    points = count["kernels.precompute.points"]
    steps = count["dynamics.integrate.steps"]
    witness = ("witness.coherence", "witness.non_markovianity", "witness.steady_coherence")
    sweeps = ("cli.cmd_sweep_alpha", "cli.cmd_sweep_temperature")
    main = [s for s in spans if s["pid"] == main_pid]
    top_level = sum(s["end"] - s["start"] for s in main if s["parent"] is None)
    cli_self = wall_s - top_level
    metrics = {
        "kernels.precompute_s": total["kernels.precompute"],
        "kernels.precompute_calls": calls["kernels.precompute"],
        "kernels.points": points,
        "kernels.points_per_s": ratio(points, total["kernels.precompute"]),
        "kernels.evals_per_point": ratio(count["kernels.precompute.evals"], points),
        "kernels.refined_share": ratio(count["kernels.precompute.refined"], points),
        "kernels.rebuild_s": total["kernels.rebuild_for_temperature"],
        "kernels.rebuild_calls": calls["kernels.rebuild_for_temperature"],
        "metrology.derivative_s": total["metrology.bloch_T_derivative"],
        "metrology.scan_self_s": self_s["metrology.metrology_scan"],
        "metrology.scan_calls": calls["metrology.metrology_scan"],
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.integrate_calls": calls["dynamics.integrate"],
        "dynamics.steps": steps,
        "dynamics.steps_per_s": ratio(steps, total["dynamics.integrate"]),
        "witness.s": sum(total[n] for n in witness),
        "witness.calls": sum(calls[n] for n in witness),
        "svg.write_s": total["svg.LinePlot.write"],
        "svg.files": calls["svg.LinePlot.write"],
        "cli.self_s": cli_self,
        "cli.sweep_wait_s": sum(self_s[n] for n in sweeps),
    }
    layer_self = sum(own[s["id"]] for s in main)
    matches = abs(layer_self + cli_self - wall_s) <= 1e-6 * max(1.0, wall_s)
    untraced = ratio(cli_self, wall_s)
    coverage = {"traced_wall_s": wall_s, "layer_self_s": layer_self, "cli_self_s": cli_self,
                "sum_matches_wall": matches, "untraced_share": untraced,
                "flagged": untraced > UNTRACED_SHARE_LIMIT or not matches}
    return metrics, coverage


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <qtherm arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qubit_thermometry import cli

    tracer = Tracer(out_path)
    missing = install(tracer)
    start = time.perf_counter()
    rc = cli.main(cli_args)
    wall_s = time.perf_counter() - start
    spans = tracer.merged()
    metrics, coverage = layer_metrics(spans, wall_s, tracer.main_pid)
    with open(out_path, "w") as fh:
        json.dump({"exit": rc, "missing": missing, "metrics": metrics,
                   "coverage": coverage, "spans": spans}, fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
