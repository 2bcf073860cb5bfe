"""Run the benchmark on every workload and print every metric by name and unit.

    python3 bench/report.py [--runs 10] [--seed 1] [--workloads fig1,fig2]
                            [--write bench/baseline/seed.json]

Makes ``--runs`` untraced runs of ``bench/run.py`` per workload, each with its
own seed and with the workload order shuffled per round, then one traced run
per workload.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (q3 - q1) / median and the bound
from BENCHMARK.json; for each per-layer metric the traced value.  ``--write``
stores the same figures and the seed counts that ``run.py`` compares
against as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    path = os.path.join(BENCH, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def summary(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--write", metavar="JSON")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    plain = {w: [] for w in workloads}
    for r in range(args.runs):
        seed = args.seed + r
        order = list(workloads)
        random.Random(seed).shuffle(order)
        for w in order:
            plain[w].append(bench_run(w, seed, seconds, 0))
            print(f"# {w} seed {seed}: {json.dumps(plain[w][-1]['result'])}", flush=True)
    traced = {w: bench_run(w, args.seed + args.runs, seconds, 1) for w in workloads}

    report = {"run_seconds": seconds, "workloads": {}}
    for w in workloads:
        results = [rec["result"] for rec in plain[w]] + [traced[w]["result"]]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced[w]["result"]["metrics"].items()},
            "counts": traced[w]["counts"],
            "coverage": traced[w]["trace"]["coverage"],
        }
        print(f"\n{w}: {entry['failed']} failed of {entry['attempted']} runs attempted")
        print(f"  {'metric':<26}{'unit':<12}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'n':>4}")
        for m in spec["end_to_end"]:
            s = summary([rec["result"]["metrics"][m["name"]]["value"] for rec in plain[w]])
            s["unit"] = m["unit"]
            entry["end_to_end"][m["name"]] = s
            print(f"  {m['name']:<26}{m['unit']:<12}{s['median']:>12.4f}{s['q1']:>12.4f}"
                  f"{s['q3']:>12.4f}{s['spread']:>9.4f}{m['bound']:>7}{s['n']:>4}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<26}{m['unit']:<12}{entry['per_layer'][m['name']]:>12.6g}")
        report["workloads"][w] = entry

    first = traced[workloads[0]]
    report["machine"] = {k: first[k] for k in ("nproc", "python", "numpy", "git_sha",
                                               "src_sha256")}
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
