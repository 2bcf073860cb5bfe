"""Temperature sensitivity of the probe: quantum and classical Fisher information.

The temperature enters the dynamics only through the coth(w/2T) occupation
factors, so the Bloch vector's T-derivative is obtained by re-simulating at
T +- delta and T +- 2 delta (delta = 1e-7 T) and applying the five-point
stencil

    df/dT = [-f(T+2d) + 8 f(T+d) - 8 f(T-d) + f(T-2d)] / (12 d),

exact through quartic order.  The shifted R, K, X come from the base kernels'
quadrature pass, on its mesh and sin/cos(t w) arrays (see
``kernels.frequency_pass``).
For a qubit with Bloch vector D the quantum
Fisher information is

    F_Q = (dD/dT)^T . M^{-1} . (dD/dT),   M^{-1} = I_3 + D D^T / (1 - |D|^2),

with the pure-state limit F_Q = |dD/dT|^2 on the unit sphere.  Measuring
sigma_x (coherences) or sigma_z (populations) delivers the classical Fisher
information F_C = (d<O>/dT)^2 / (1 - <O>^2), never exceeding F_Q.  The
closed-form Born-Markov benchmark F_BM = eps^2 e^{-eps/T} / (2 T^4) serves
as the comparator that collapses exponentially at low temperature.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import ProbeConfig, check_shared_grid, integrate_lanes
from .errors import DomainError, NumericError
from .kernels import KernelParams, frequency_pass

__all__ = [
    "MetrologyResult",
    "qfi",
    "cfi",
    "markov_comparator",
    "stencil_scans",
    "loglog_slope",
]

# 1 - |D|^2 at or below this lies at the rounding floor of |D|^2 (a few
# ulp), where only the pure-state limit of the QFI can be evaluated
_PURE_GAP = 4.0 * np.finfo(float).eps
_CFI_SLACK = 1e-8
# Relative step of the temperature stencil, delta = _REL_STEP * T.  Much
# smaller steps lose significance in the shifted simulations, which the
# cross-check against a coarser Richardson derivative guards in the tests.
_REL_STEP = 1e-7


@dataclass
class MetrologyResult:
    """Fisher quantities of one (probing time, temperature, mixing) point;
    ``qcrb`` is the single-shot Cramer-Rao bound on the temperature
    deviation, 1/sqrt(qfi), and inf at qfi = 0."""

    t: float
    T: float
    alpha: float
    qfi: float
    cfi_x: float
    cfi_z: float
    markov_fisher: float

    def __post_init__(self):
        if self.qfi < 0.0 or self.cfi_x < 0.0 or self.cfi_z < 0.0:
            raise NumericError("Fisher information must be nonnegative")
        slack = _CFI_SLACK * self.qfi + 1e-300
        if self.cfi_x > self.qfi + slack or self.cfi_z > self.qfi + slack:
            raise NumericError(
                f"classical Fisher information exceeds the quantum bound: "
                f"qfi={self.qfi}, cfi_x={self.cfi_x}, cfi_z={self.cfi_z}")

    @property
    def qcrb(self) -> float:
        return math.inf if self.qfi == 0.0 else 1.0 / math.sqrt(self.qfi)


def _stencil_bundle(params: KernelParams, t_end: float, dt: float,
                    workers: int = 1) -> tuple:
    """Kernel sets at T, T-2d, T-d, T+d and T+2d from one frequency-domain
    pass; only R, K, X are evaluated at the shifted temperatures, on the
    mesh of the set at T.  A subnormal step delta overflows the quadrature's
    mesh arithmetic, so delta must be a normal float."""
    T = params.T
    delta = _REL_STEP * T
    if not (delta >= sys.float_info.min):
        raise DomainError(f"stencil needs T > 0 with a normal step {_REL_STEP:g} T "
                          f"(T >= {sys.float_info.min / _REL_STEP:.17g}), got T={T}")
    return frequency_pass(params, t_end, dt,
                          (T - 2.0 * delta, T - delta, T + delta, T + 2.0 * delta), workers)


def _stencil_derivative(cfg: ProbeConfig, shifted) -> np.ndarray:
    """dD/dT from the four trajectories of ``cfg`` on the shifted sets of
    its stencil bundle, at T-2d, T-d, T+d and T+2d, on the rows they kept
    (all four keep the same ones)."""
    m2, m1, p1, p2 = (traj.states for traj in shifted)
    delta = shifted[2].config.T - cfg.T
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * delta)


def qfi(delta, ddelta) -> float:
    """Quantum Fisher information from the Bloch vector and its T-derivative.

    Uses F_Q = |d|^2 + (D.d)^2 / (1 - |D|^2) wherever 1 - |D|^2 stands
    above the rounding floor of |D|^2, however close to the shell: a weakly
    coupled probe mixes slowly, and its (D.d)^2 / (1 - |D|^2) can exceed
    |d|^2 by orders of magnitude.  On the shell itself the derivative must
    stay tangent (|D.d| <= 1e-8 |d|) and the limit |d|^2 applies.
    """
    D = np.asarray(delta, dtype=float)
    d = np.asarray(ddelta, dtype=float)
    if D.shape != (3,) or d.shape != (3,):
        raise DomainError("qfi expects 3-component Bloch vectors")
    n2 = float(D @ D)
    if n2 > 1.0 + 1e-8:
        raise DomainError(f"Bloch vector leaves the unit ball: |D|^2 = {n2}")
    d2 = float(d @ d)
    Dd = float(D @ d)
    if 1.0 - n2 <= _PURE_GAP:
        if abs(Dd) > 1e-8 * math.sqrt(d2):
            raise NumericError(
                "temperature derivative is not tangent to the pure-state shell "
                f"(|D.d| = {abs(Dd):.3g}, |d| = {math.sqrt(d2):.3g})")
        return d2
    return d2 + Dd * Dd / (1.0 - n2)


def cfi(observable: str, delta, ddelta) -> float:
    """Classical Fisher information of a sigma_x or sigma_z measurement."""
    axes = {"x": 0, "z": 2}
    if observable not in axes:
        raise DomainError(f"observable must be 'x' or 'z', got {observable!r}")
    i = axes[observable]
    D = float(np.asarray(delta, dtype=float)[i])
    d = float(np.asarray(ddelta, dtype=float)[i])
    if abs(D) >= 1.0:
        if d == 0.0:
            return 0.0
        raise NumericError(
            f"measurement Fisher information diverges at |D_{observable}| = {abs(D)}")
    return d * d / (1.0 - D * D)


def markov_comparator(epsilon: float, T: float) -> float:
    """Born-Markov steady-state Fisher information F_BM = eps^2 e^{-eps/T} /
    (2 T^4); undefined for a gapless probe, and 0 where eps^2 or e^{-eps/T}
    underflows or T^4 overflows."""
    if epsilon <= 0.0:
        raise DomainError("the Markovian benchmark is undefined at epsilon = 0")
    if T <= 0.0:
        raise DomainError(f"temperature must be > 0, got {T}")
    boltzmann = math.exp(-epsilon / T)
    if boltzmann == 0.0:
        return 0.0
    try:
        quartic = T**4
    except OverflowError:
        return 0.0
    if quartic == 0.0:
        # T^4 underflows, and e^{-eps/T} does not: F_BM = r e^{-eps/T} r / 2
        # with r = eps / T^2 (inf where it overflows)
        r = epsilon / T / T
        return r * boltzmann * r / 2.0
    return epsilon**2 * boltzmann / (2.0 * quartic)


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def stencil_scans(probes, times, workers: int = 1) -> tuple:
    """Base trajectory and ``MetrologyResult`` at each probing time of every
    probe.

    Probes that share their kernel parameters and grid (e.g. differ only in
    alpha) share one stencil bundle.  With more than one bundle and
    ``workers`` > 1 the bundles are built in a pool of ``workers``
    processes; otherwise ``workers`` threads share each pass's chunks of
    times, ``workers`` first capped at the usable cores so that no pool
    outgrows them.  Either way the results do not depend on ``workers``.
    The five lanes of every probe are then integrated in one
    ``integrate_lanes`` call, laid out as [every probe at T | every probe
    at T - 2 delta | T - delta | T + delta | T + 2 delta], so that the
    probes of one bundle read each of its sets as one run of lanes.  The
    lanes at T keep every grid row (the returned trajectories) and the
    shifted lanes only the rows of the probing times, the only ones the
    derivative is read at.  Before any
    kernel is built, probes on different (dt, t_end) grids raise
    ConfigurationError, and a probing time below 0, beyond t_end or off the
    dt grid (``ProbeConfig.index_of``), or two probing times on one grid
    row, raise DomainError.
    """
    workers = min(workers, _usable_cores())
    check_shared_grid(probes)
    steps = [probes[0].index_of(t) for t in times] if probes else []
    for j, i in enumerate(steps):
        if i in steps[:j]:
            raise DomainError(f"probing times {times[steps.index(i)]} and {times[j]} "
                              f"share grid row {i}")
    keys = [(probe.kernel_params, probe.t_end, probe.dt) for probe in probes]
    uniq = list(dict.fromkeys(keys))
    if workers > 1 and len(uniq) > 1:
        # imported here: multiprocessing costs ~20 ms of every CLI start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(uniq))) as pool:
            bundles = list(pool.map(_stencil_bundle, *zip(*uniq)))
    else:
        bundles = [_stencil_bundle(*key, workers=workers) for key in uniq]
    bundle_of = dict(zip(uniq, bundles))
    n = len(probes)
    sets = [bundle_of[key][k] for k in range(5) for key in keys]
    cfgs = [*probes, *(replace(probe, T=ks.params.T) for probe, ks in zip(probes * 4, sets[n:]))]
    trajs = integrate_lanes(cfgs, sets, [None] * n + [steps] * (4 * n))
    scans = []
    for j, base in enumerate(trajs[:n]):
        cfg = base.config
        deriv = _stencil_derivative(cfg, trajs[n + j::n])
        try:
            mk_fisher = markov_comparator(cfg.epsilon, cfg.T)
        except DomainError:
            mk_fisher = math.nan
        scan = []
        for t, i, d in zip(times, steps, deriv):
            D = base.states[i]
            scan.append(MetrologyResult(
                t=float(t), T=cfg.T, alpha=cfg.alpha, qfi=qfi(D, d),
                cfi_x=cfi("x", D, d), cfi_z=cfi("z", D, d), markov_fisher=mk_fisher))
        scans.append(scan)
    return trajs[:n], scans


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("log-log fit needs at least two positive points")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
