"""Figure-pipeline benchmark for qubit-thermometry.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run starts ``python -m qubit_thermometry.cli reproduce ...`` as a
fresh subprocess, one at a time (a closed loop with a single client; each run
is one batch job), and repeats it until ``--seconds`` are spent, at least
MIN_REPEATS times.  Every run's CSV is checked against the frozen reference in
``bench/reference``; a run that exits non-zero or fails the check counts as
failed.  The last line of stdout is one JSON object:

* ``--trace 0``: medians of ``wall_s``, ``cpu_s`` (user + sys of the run and
  the children it waited for, from ``os.wait4``), ``peak_rss_mb`` and
  ``setup_s`` (a fresh interpreter importing the CLI and building its parser,
  via ``--help``, SETUP_REPEATS times per run);
* ``--trace 1``: the same untraced runs for ``trace.overhead_s``, then one
  traced in-process run (``bench/traced.py``) for the per-layer metrics.

The workload inputs are fixed by the paper's figures; the seed only permutes
how CLI runs and set-up probes interleave.  A run record with versions, load
averages and every sample goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
RESULTS = os.path.join(BENCH, "results")
REFERENCE = os.path.join(BENCH, "reference")
BASELINE = os.path.join(BENCH, "baseline", "seed.json")

# The headline scenario at dt = 0.05 instead of the default 0.01.  Kernel cost
# per time point grows with t and does not depend on dt, so each layer keeps
# its share of the pipeline; at dt = 0.01 fig1 and fig3 take ~45 s per run,
# too long to repeat within one benchmark run.
COMMON = ("--dt", "0.05")
# name -> (CLI arguments, reference CSV); fig1_w2 must match fig1 byte for byte.
# BENCHMARK.json lists fig2 and fig1_w2, which between them reach every layer:
# on a shared 2-core host a run needs ~50 s for steady medians, and the time
# budget for a full benchmark pass allows two workloads of that length.  fig1
# and fig3 stay runnable here and in report.py.
WORKLOADS = {
    # one t_end = 200 precompute: long-horizon kernel quadrature, no metrology
    "fig1": (("reproduce", "fig1", "--workers", "1"), "fig1_sweep.csv"),
    # 4 stencil rebuilds and 126 integrations at t_end = 50: derivative path
    "fig2": (("reproduce", "fig2", "--workers", "1"), "fig2_sweep.csv"),
    # 75 short (t_end = 20) kernel builds over 15 temperatures, low-T refinement
    "fig3": (("reproduce", "fig3", "--workers", "1"), "fig3_sweep.csv"),
    # the only workload that runs the precompute thread pool and the fork pool
    "fig1_w2": (("reproduce", "fig1", "--workers", "2"), "fig1_sweep.csv"),
}

MIN_REPEATS = 3
SETUP_REPEATS = 11
RUN_DEADLINE_S = 170.0

# Output check: ~1e-6 relative admits a more exact temperature derivative
# (QFI moves ~2e-8) and re-meshed kernels (~1e-13); a wrong result still fails.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# The fig3 footer prints its slope with 6 significant digits.
FOOTER_REL_TOL = 1e-5
INT_COLUMNS = {"converged"}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def timed(argv, deadline: float) -> dict:
    """Run argv to completion; its wall, CPU and peak RSS from ``os.wait4``.

    The child leads its own process group, which is killed at ``deadline``
    so that pool workers die with it."""
    load_before = os.getloadavg()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - start), os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "load_before": load_before, "load_after": os.getloadavg()}


def same_token(got: str, want: str, rel_tol: float) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(ABS_TOL, rel_tol * abs(w))


def check_csv(path: str, reference: str):
    """None when the CSV at ``path`` matches the reference, else the reason."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return f"no output: {exc}"
    with open(reference) as fh:
        ref = fh.read().splitlines()
    if len(lines) != len(ref):
        return f"{len(lines)} lines, reference has {len(ref)}"
    if lines[0] != ref[0]:
        return f"header {lines[0]!r} differs from {ref[0]!r}"
    header = ref[0].split(",")
    for n, (got, want) in enumerate(zip(lines[1:], ref[1:]), 2):
        footer = want.startswith("#")
        g, w = (got.split(), want.split()) if footer else (got.split(","), want.split(","))
        if len(g) != len(w):
            return f"line {n}: {len(g)} fields, reference has {len(w)}"
        for i, (a, b) in enumerate(zip(g, w)):
            if footer:
                ok = same_token(a, b, FOOTER_REL_TOL)
            elif header[i] in INT_COLUMNS:
                ok = a == b
            else:
                ok = same_token(a, b, REL_TOL)
            if not ok:
                return f"line {n} field {i + 1}: {a} vs reference {b}"
    return None


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(out_dir, "*"))
               if os.path.isfile(p))


def pipeline_run(workload: str, rep: int, deadline: float, traced_json: str = None) -> dict:
    """One CLI run (plain or traced) in a fresh output directory, checked."""
    args, reference = WORKLOADS[workload]
    out_dir = os.path.join(OUT, f"{workload}-{os.getpid()}-{rep}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_args = [*args, *COMMON, "--out", out_dir]
    if traced_json is None:
        argv = [sys.executable, "-m", "qubit_thermometry.cli", *cli_args]
    else:
        argv = [sys.executable, os.path.join(BENCH, "traced.py"), traced_json, "--", *cli_args]
    record = timed(argv, deadline)
    if record["exit"] != 0:
        record["check"] = f"exit code {record['exit']}"
    else:
        record["check"] = check_csv(os.path.join(out_dir, reference),
                                    os.path.join(REFERENCE, reference)) or "ok"
    record["output_bytes"] = output_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def setup_probe(deadline: float) -> dict:
    return timed([sys.executable, "-m", "qubit_thermometry.cli", "--help"], deadline)


def measure(workload: str, seed: int, seconds: float, with_setup: bool, deadline: float):
    """CLI runs until ``seconds`` are spent (at least MIN_REPEATS), with the
    set-up probes interleaved in an order drawn from ``seed``."""
    rng = random.Random(seed)
    runs, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        if len(runs) >= MIN_REPEATS:
            walls = [r["wall_s"] for r in runs]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        jobs = ["run"] + (["setup"] if with_setup and len(setups) < SETUP_REPEATS else [])
        rng.shuffle(jobs)
        for job in jobs:
            if job == "run":
                runs.append(pipeline_run(workload, len(runs), deadline))
            else:
                setups.append(setup_probe(deadline))
    while with_setup and len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(deadline))
    return runs, setups


def median_of(runs, key: str) -> float:
    good = [r for r in runs if r["check"] == "ok"] or runs
    return statistics.median(r[key] for r in good)


def seed_counts(workload: str) -> dict:
    try:
        with open(BASELINE) as fh:
            return json.load(fh)["workloads"][workload]["counts"]
    except (OSError, KeyError, ValueError):
        return {}


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cli_args": [*WORKLOADS[args.workload][0], *COMMON],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha(), "src_sha256": src_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "qubit_thermometry", "cli.py")):
        print(f"bench: no qubit_thermometry sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    record = run_record(args)
    os.makedirs(OUT, exist_ok=True)
    runs, setups = measure(args.workload, args.seed, args.seconds, not args.trace, deadline)
    if any(s["exit"] != 0 for s in setups):
        print("bench: the CLI cannot start (set-up probe failed)", file=sys.stderr)
        return 2
    record.update(runs=runs, setups=setups)

    if args.trace:
        spans_json = os.path.join(OUT, f"spans-{os.getpid()}.json")
        traced = pipeline_run(args.workload, len(runs), deadline, traced_json=spans_json)
        runs.append(traced)
        try:
            with open(spans_json) as fh:
                trace = json.load(fh)
            os.remove(spans_json)
        except (OSError, ValueError) as exc:
            print(f"bench: traced run left no spans: {exc}", file=sys.stderr)
            return 2
        layers = dict(trace["metrics"])
        layers["cli.output_bytes"] = traced["output_bytes"]
        layers["trace.overhead_s"] = traced["wall_s"] - median_of(runs[:-1], "wall_s")
        expected = seed_counts(args.workload)
        counts = {m["name"]: layers[m["name"]] for m in declared if m["unit"] == "count"}
        record.update(
            trace={k: trace[k] for k in ("missing", "coverage", "spans")},
            counts=counts,
            count_changes={k: {"seed": v, "now": counts.get(k)}
                           for k, v in expected.items() if counts.get(k) != v})
        if trace["coverage"]["flagged"]:
            print("bench: traced run not covered by the wrappers: "
                  f"{trace['coverage']}", file=sys.stderr)
        values = layers
    else:
        values = {key: median_of(runs, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(s["wall_s"] for s in setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed = sum(r["check"] != "ok" for r in runs)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        if r["check"] != "ok":
            print(f"bench: {args.workload} run failed: {r['check']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
