"""Command-line driver: trajectories, parameter sweeps, figure pipelines.

Subcommands
-----------
trajectory          integrate one scenario and write trajectory.csv
sweep-alpha         witness (and optionally Fisher) quantities per mixing value
sweep-temperature   Fisher quantities per bath temperature
dump-kernels        write the six kernels on the time grid
reproduce           canonical fig1 | fig2 | fig3 pipelines (CSV + SVG)

Every setting is a flag.  An argument ``@FILE`` reads more arguments from
FILE, one per line (argparse's ``fromfile_prefix_chars``), so a saved run
is a file of flags such as ``--times=1,5``.  All floats are written with 17
significant digits so runs are byte-reproducible.  A sweep integrates all
its trajectories, with their temperature-shifted stencil lanes, in one
``integrate_lanes`` call in this process.  ``--workers`` is handed to
``metrology.stencil_scans``: the process pool in which the temperature
sweep builds each temperature's kernels, or the threads of a lone stencil
kernel pass, either capped at the usable cores; outputs are assembled in
sweep order and do not depend on the worker count.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set
it: OpenBLAS would start one thread per core, ~0.1 s of every start-up, for
BLAS calls too small to use them.  An explicit value overrides the default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import ProbeConfig, integrate, integrate_lanes, kernels_for
from .errors import ConfigurationError
from .kernels import KERNEL_NAMES, precompute
from .metrology import loglog_slope, stencil_scans
from .spectral import SpectralDensity
from .svg import LinePlot
from .witness import coherence, non_markovianity, steady_coherence

__all__ = ["RunConfig", "main"]

# the fig3 footer fits the low-T slope of the QFI over T <= this
_SLOPE_FIT_TMAX = 0.05
# the settings each ``reproduce`` figure fixes; fig1's long horizon lets the
# steady-coherence window hold >= 10 precession periods
_PINS = {
    "fig1": dict(t_end=200.0, times=(), emit_svg=True),
    "fig2": dict(t_end=50.0, times=(1.0, 5.0, 20.0, 50.0), emit_svg=True),
    "fig3": dict(alpha=0.5, t_end=20.0, times=(1.0, 5.0, 20.0), emit_svg=True),
}


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; defaults reproduce the headline scenario
    (T = 0.2 omega_c, eps = 0.5 omega_c, eta = 0.05, alpha = 1/2)."""

    epsilon: float = 0.5
    temperature: float = 0.2
    eta: float = 0.05
    omega_c: float = 1.0
    alpha: float = 0.5
    t_end: float = 50.0
    dt: float = 0.01
    alpha_count: int = 21
    temp_min: float = 0.01
    temp_max: float = 0.5
    temp_count: int = 15
    times: tuple = (1.0, 5.0, 20.0, 50.0)
    out_dir: str = "."
    workers: int = 1
    emit_svg: bool = False

    def __post_init__(self):
        if self.alpha_count < 1 or self.temp_count < 1:
            raise ConfigurationError("sweep counts must be >= 1")
        for key, T in (("temp_min", self.temp_min), ("temp_max", self.temp_max)):
            if not (0.0 < T < math.inf):
                raise ConfigurationError(f"{key} must be finite and > 0, got {T}")
        if self.temp_count > 1 and not (self.temp_min < self.temp_max):
            raise ConfigurationError("temperature sweep range must be strictly increasing")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    @property
    def sd(self) -> SpectralDensity:
        return SpectralDensity(eta=self.eta, omega_c=self.omega_c)

    def probe(self, alpha=None, T=None) -> ProbeConfig:
        return ProbeConfig(
            epsilon=self.epsilon,
            alpha=self.alpha if alpha is None else alpha,
            T=self.temperature if T is None else T,
            sd=self.sd, t_end=self.t_end, dt=self.dt)

    def alphas(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.alpha_count)

    def temperatures(self) -> np.ndarray:
        return np.geomspace(self.temp_min, self.temp_max, self.temp_count)


def _times(raw: str) -> tuple:
    """The probing times of ``--times``: comma-separated numbers, or none."""
    try:
        return tuple(float(v) for v in raw.split(",")) if raw.strip() else ()
    except ValueError:
        raise ConfigurationError(f"bad number list for times: {raw!r}") from None


def _write_csv(path, header, rows, footer_lines=()):
    """Write ``rows`` of numbers with 17 significant digits, then report it."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")
        for line in footer_lines:
            fh.write(line + "\n")
    print(f"wrote {path}")


def _write_svg(plot, path):
    """Render ``plot`` to ``path``, then report it."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    plot.write(path)
    print(f"wrote {path}")


# ----------------------------------------------------------------------------
# subcommands

def cmd_trajectory(cfg: RunConfig) -> int:
    probe = cfg.probe()
    ks = kernels_for(probe)
    traj = integrate(probe, ks)
    _write_csv(os.path.join(cfg.out_dir, "trajectory.csv"), "t,dx,dy,dz",
               np.column_stack((traj.grid, traj.states)))
    if cfg.emit_svg:
        C = coherence(traj)
        plot = LinePlot(title=f"probe trajectory (alpha={cfg.alpha:g})",
                        xlabel="t [1/omega_c]", ylabel="Bloch components")
        plot.add(traj.grid, traj.dx, label="Dx")
        plot.add(traj.grid, traj.dy, label="Dy")
        plot.add(traj.grid, traj.dz, label="Dz")
        plot.add(traj.grid, C, label="C(t)")
        _write_svg(plot, os.path.join(cfg.out_dir, "trajectory.svg"))
        eq = LinePlot(title="equatorial plane", xlabel="Dx", ylabel="Dy")
        eq.add(traj.dx, traj.dy, label=f"alpha={cfg.alpha:g}")
        _write_svg(eq, os.path.join(cfg.out_dir, "trajectory_equator.svg"))
    return 0


def cmd_dump_kernels(cfg: RunConfig) -> int:
    params = cfg.probe().kernel_params
    ks = precompute(params, cfg.t_end, cfg.dt)
    _write_csv(os.path.join(cfg.out_dir, "kernels.csv"), "t," + ",".join(KERNEL_NAMES),
               np.column_stack([ks.grid] + [ks.values[n] for n in KERNEL_NAMES]))
    return 0


def cmd_sweep_alpha(cfg: RunConfig, tag="sweep_alpha", ks=None) -> list:
    """Witness (and Fisher) columns per alpha, every lane integrated in one
    call; returns each alpha's trajectory, in sweep order.  ``ks`` is the
    kernel set of a sweep without probing times (default: ``kernels_for``)."""
    times = cfg.times
    probes = [cfg.probe(alpha=float(a)) for a in cfg.alphas()]
    if times:
        trajs, scans = stencil_scans(probes, times, cfg.workers)
    else:
        ks = kernels_for(probes[0]) if ks is None else ks
        trajs, scans = integrate_lanes(probes, [ks] * len(probes)), [()] * len(probes)
    rows = []
    for traj, scan in zip(trajs, scans):
        steady, conv = steady_coherence(traj)
        rows.append([traj.config.alpha, non_markovianity(coherence(traj)), steady,
                     int(conv), *(r.qfi for r in scan)])
    header = "alpha,N_C,steady_dx_abs,converged"
    header += "".join(f",qfi_t_{t:g}" for t in times)
    _write_csv(os.path.join(cfg.out_dir, f"{tag}.csv"), header, rows)
    if cfg.emit_svg:
        alphas = cfg.alphas()
        cols = list(zip(*rows))
        plot = LinePlot(title="witness quantities vs mixing", xlabel="alpha")
        plot.add(alphas, cols[1], label="N_C")
        # all nan when every trailing window is short, as at fig2's t_end of 50
        if any(math.isfinite(v) for v in cols[2]):
            plot.add(alphas, cols[2], label="|Dx(inf)|", dashed=True)
        _write_svg(plot, os.path.join(cfg.out_dir, f"{tag}_witness.svg"))
        if times:
            qplot = LinePlot(title="QFI vs mixing", xlabel="alpha", ylabel="F_Q")
            for j, t in enumerate(times):
                qplot.add(alphas, cols[4 + j], label=f"t={t:g}")
            _write_svg(qplot, os.path.join(cfg.out_dir, f"{tag}_qfi.svg"))
    return trajs


def cmd_sweep_temperature(cfg: RunConfig, tag="sweep_temperature") -> int:
    times = cfg.times
    if not times:
        raise ConfigurationError("temperature sweep needs at least one probing time")
    temps = cfg.temperatures()
    _, scans = stencil_scans([cfg.probe(T=float(T)) for T in temps], times, cfg.workers)
    rows = [[r.t, r.T, r.alpha, r.qfi, r.cfi_x, r.cfi_z, r.qcrb, r.markov_fisher]
            for scan in scans for r in scan]
    # each temperature's result at the earliest probing time
    j0 = times.index(min(times))
    at_t0 = [scan[j0] for scan in scans]
    footer = []
    fit = [r for r in at_t0 if r.T <= _SLOPE_FIT_TMAX]
    if len(fit) >= 2 and all(r.qfi > 0 for r in fit):
        slope = loglog_slope([r.T for r in fit], [r.qfi for r in fit])
        footer.append(f"# low_T_slope_qfi = {slope:.6g} "
                      f"(log-log fit at t={times[j0]:g} over T <= {_SLOPE_FIT_TMAX:g})")
    _write_csv(os.path.join(cfg.out_dir, f"{tag}.csv"),
               "t,T,alpha,qfi,cfi_x,cfi_z,qcrb,markov_fisher", rows, footer)
    if cfg.emit_svg:
        qplot = LinePlot(title="QFI vs temperature", xlabel="T [omega_c]",
                         ylabel="F_Q", xlog=True, ylog=True)
        for j, t in enumerate(times):
            qplot.add(temps, [scan[j].qfi for scan in scans], label=f"t={t:g}")
        # through the first point with F_Q > 0 at t0; none draws no guide
        ref = [r for r in at_t0 if r.qfi > 0][:1]
        qplot.add(temps, [r.qfi * (T / r.T) ** 2 for r in ref for T in temps],
                  label="T^2 guide", dashed=True)
        qplot.add(temps, [scan[0].markov_fisher for scan in scans],
                  label="Born-Markov", dashed=True)
        _write_svg(qplot, os.path.join(cfg.out_dir, f"{tag}_qfi.svg"))
        mplot = LinePlot(title="measurement Fisher information",
                         xlabel="T [omega_c]", ylabel="F_C", xlog=True, ylog=True)
        for j, t in enumerate(times):
            mplot.add(temps, [scan[j].cfi_x for scan in scans], label=f"sx t={t:g}")
            mplot.add(temps, [scan[j].cfi_z for scan in scans], label=f"sz t={t:g}",
                      dashed=True)
        _write_svg(mplot, os.path.join(cfg.out_dir, f"{tag}_measurements.svg"))
    return 0


def cmd_reproduce(cfg: RunConfig, which: str) -> int:
    fig_cfg = replace(cfg, **_PINS[which])
    if which == "fig1":
        # coherence trapping and re-coherence vs mixing
        probe0 = fig_cfg.probe(alpha=0.0)
        ks = kernels_for(probe0)
        shown = (0.0, 0.5, 1.0)
        trajs = {traj.config.alpha: traj
                 for traj in cmd_sweep_alpha(fig_cfg, tag="fig1_sweep", ks=ks)}
        missing = [a for a in shown if a not in trajs]  # off a custom alpha grid
        trajs.update(zip(missing, integrate_lanes(
            [fig_cfg.probe(alpha=a) for a in missing], [ks] * len(missing))))
        # each path runs through the last grid time <= 50, by index_of's 1e-9
        # rule; a dt need not divide 50
        n_show = int(np.searchsorted(ks.grid, 50.0 * (1.0 + 1e-9), side="right"))
        eq = LinePlot(title="equatorial Bloch path", xlabel="Dx", ylabel="Dy")
        for alpha in shown:
            traj = trajs[alpha]
            eq.add(traj.dx[:n_show], traj.dy[:n_show], label=f"alpha={alpha:g}")
        _write_svg(eq, os.path.join(fig_cfg.out_dir, "fig1_equator.svg"))
        return 0
    if which == "fig2":
        cmd_sweep_alpha(fig_cfg, tag="fig2_sweep")
        return 0
    return cmd_sweep_temperature(fig_cfg, tag="fig3_sweep")


# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    common.add_argument("--workers", type=int, metavar="N",
                        help="processes for the temperature sweep's kernel builds "
                             "and threads for a stencil kernel pass")
    common.add_argument("--svg", dest="emit_svg", action="store_const", const=True,
                        help="emit SVG plots next to the CSV output")
    for flag, dest, kind in (
            ("--alpha", "alpha", float), ("--temp", "temperature", float),
            ("--epsilon", "epsilon", float), ("--eta", "eta", float),
            ("--omega-c", "omega_c", float), ("--t-end", "t_end", float),
            ("--dt", "dt", float), ("--alpha-count", "alpha_count", int),
            ("--temp-min", "temp_min", float), ("--temp-max", "temp_max", float),
            ("--temp-count", "temp_count", int)):
        common.add_argument(flag, dest=dest, type=kind)
    common.add_argument("--times", dest="times", help="comma-separated probing times")

    parser = argparse.ArgumentParser(
        prog="qtherm", fromfile_prefix_chars="@",
        description="Nonequilibrium single-qubit thermometry of an Ohmic bath; "
                    "@FILE reads more arguments from FILE, one per line")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("trajectory", parents=[common],
                   help="integrate one scenario and write trajectory.csv")
    sub.add_parser("sweep-alpha", parents=[common],
                   help="witness and Fisher quantities across the coupling mix")
    sub.add_parser("sweep-temperature", parents=[common],
                   help="Fisher quantities across bath temperatures")
    sub.add_parser("dump-kernels", parents=[common],
                   help="write the six Bloch kernels on the time grid")
    rep = sub.add_parser("reproduce", parents=[common],
                         help="run a canonical figure pipeline")
    rep.add_argument("figure", choices=tuple(_PINS))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the settings the user gave, by flag or from an @FILE
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                if getattr(args, f.name) is not None}
    try:
        if "times" in settings:
            settings["times"] = _times(settings["times"])
        cfg = RunConfig(**settings)
        if args.command == "trajectory":
            return cmd_trajectory(cfg)
        if args.command == "sweep-alpha":
            cmd_sweep_alpha(cfg)
            return 0
        if args.command == "sweep-temperature":
            return cmd_sweep_temperature(cfg)
        if args.command == "dump-kernels":
            return cmd_dump_kernels(cfg)
        # reproduce: a setting the figure would override with another value fails
        pins = _PINS[args.figure]
        clash = [f"{key} = {pins[key]!r} (got {val!r})"
                 for key, val in settings.items() if key in pins and val != pins[key]]
        if clash:
            raise ConfigurationError(f"reproduce {args.figure} pins " + ", ".join(clash))
        return cmd_reproduce(cfg, args.figure)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"qtherm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
