#!/usr/bin/env python3
"""sha256 digests of the figure outputs and of the kernel arrays.

    python scripts/output_digest.py [--src DIR] > digest.txt

Prints one ``<sha256>  <name>`` line per item:

* every CSV and SVG that ``reproduce fig1|fig2|fig3 --dt 0.05`` writes at
  ``--workers 1`` and ``2``, and every CSV and SVG of ``reproduce fig1`` at
  the default ``--dt 0.01`` (its equator plot draws three 5,001-point paths)
  and of ``trajectory --svg`` at the CLI defaults (one integration lane;
  each run in a fresh subprocess, into a temporary directory that is
  removed afterwards);
* every kernel array of the temperature-stencil bundle that
  ``metrology.stencil_scans`` builds (the base set and its four shifted
  sets, grid and midpoints) at the headline eps = 0.5, eta = 0.05,
  dt = 0.05, for T in {0.2, 0.02, 0.01}, workers in {1, 2, 4} and t_end in
  {20, 50, 200};
* every kernel array of a plain ``precompute`` (the time-domain pass, grid
  and midpoints) at the same eps, eta, dt, T and t_end.

Arrays are hashed as raw float64 bytes, so two checkouts agree line for
line exactly when every output is byte-identical and every kernel value is
equal to 0 ulp: ``diff`` the digests of both.  ``--src`` points at the
``src`` directory of the checkout to digest (default: this one's), which
lets this script digest any checkout that has ``metrology._stencil_bundle``
under the same item names.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIGURES = ("fig1", "fig2", "fig3")
FIG_WORKERS = (1, 2)
TEMPERATURES = (0.2, 0.02, 0.01)
KERNEL_WORKERS = (1, 2, 4)
T_ENDS = (20.0, 50.0, 200.0)
DT = 0.05


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(env, out, *args):
    subprocess.run([sys.executable, "-m", "qubit_thermometry.cli", *args, "--out", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def _file_digests(out, tag):
    for name in sorted(os.listdir(out)):
        if name.endswith((".csv", ".svg")):
            with open(os.path.join(out, name), "rb") as fh:
                yield _sha(fh.read()), f"{tag}/{name}"


def figure_digests(src: str):
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as tmp:
        for fig in FIGURES:
            for w in FIG_WORKERS:
                out = os.path.join(tmp, f"{fig}_w{w}")
                _run_cli(env, out, "reproduce", fig, "--dt", str(DT), "--workers", str(w))
                yield from _file_digests(out, f"{fig}/w{w}")
        out = os.path.join(tmp, "fig1_default")
        _run_cli(env, out, "reproduce", "fig1")
        yield from _file_digests(out, "fig1/default_dt")
        out = os.path.join(tmp, "trajectory")
        _run_cli(env, out, "trajectory", "--svg")
        yield from _file_digests(out, "trajectory")


def _set_digests(ks, tag):
    for name, arr in ks.values.items():
        yield _sha(arr.tobytes()), f"{tag}/{name}"
    for name, arr in ks.half_values.items():
        yield _sha(arr.tobytes()), f"{tag}/half_{name}"


def kernel_digests(src: str):
    sys.path.insert(0, src)
    from qubit_thermometry import ProbeConfig, SpectralDensity, metrology, precompute

    sd = SpectralDensity(eta=0.05, omega_c=1.0)
    for T in TEMPERATURES:
        for t_end in T_ENDS:
            cfg = ProbeConfig(epsilon=0.5, alpha=0.5, T=T, sd=sd, t_end=t_end, dt=DT)
            ks = precompute(cfg.kernel_params, t_end, DT)
            yield from _set_digests(ks, f"T={T:g}/t_end={t_end:g}/plain")
            for w in KERNEL_WORKERS:
                bundle = metrology._stencil_bundle(cfg.kernel_params, t_end, DT, workers=w)
                tag = f"T={T:g}/t_end={t_end:g}/w{w}"
                for j, s in enumerate(bundle):
                    yield from _set_digests(s, f"{tag}/set{j}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="src directory of the checkout to digest")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    for digest, name in figure_digests(src):
        print(f"{digest}  {name}", flush=True)
    for digest, name in kernel_digests(src):
        print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
