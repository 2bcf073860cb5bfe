"""Generalized Bloch equations of the probe and their fixed-step integrator.

The probe couples to the bath through sigma_alpha = (1-alpha) sigma_z +
alpha sigma_x.  With D = (Dx, Dy, Dz) the Bloch vector and R, K, L, X, F, G
the bath kernels, the equations of motion are

    dDx/dt = -e Dy - 4 a(a-1) G - 4 a(a-1) Dz K - 4 (a-1)^2 Dx R
    dDy/dt = Dx (e + 4 a^2 X) + 4 (a-1) a (F - L)
             - 4 Dy (a^2 K + (a-1)^2 R) - 4 (a-1) a Dz X
    dDz/dt = -4 a^2 G - 4 a^2 Dz K - 4 (a-1) a Dx R

The a(1-a) cross terms couple populations and coherences; they vanish
identically at a = 0 (pure dephasing, Dz conserved) and a = 1 (pure
dissipation).  Time stepping is classical RK4 with the stage times pinned to
the kernel grid and its midpoints, so no kernel interpolation enters the
error budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, IntegrationError, NumericError
from .kernels import KernelParams, KernelSet, precompute
from .spectral import SpectralDensity

__all__ = [
    "ProbeConfig",
    "Trajectory",
    "rhs",
    "integrate",
    "kernels_for",
    "PHYSICALITY_SLACK",
]

PHYSICALITY_SLACK = 1e-8
# Weak-coupling envelope of the TCL2 equations; stronger baths warn.
_ETA_VALIDATED = 0.1


@dataclass(frozen=True)
class ProbeConfig:
    """Physical scenario plus integration controls.

    ``initial`` defaults to the |+> state (1, 0, 0), a pure state on the
    equator of the Bloch sphere.  A coupling eta above 0.1 lies outside the
    weak-coupling envelope of the TCL2 equations and issues a UserWarning.
    """

    epsilon: float
    alpha: float
    T: float
    sd: SpectralDensity
    initial: tuple = (1.0, 0.0, 0.0)
    t_end: float = 50.0
    dt: float = 1e-2

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (self.epsilon >= 0.0 and self.T >= 0.0):
            raise DomainError("epsilon and T must be >= 0")
        if len(self.initial) != 3:
            raise DomainError("initial Bloch vector needs three components")
        n2 = sum(c * c for c in self.initial)
        if n2 > 1.0 + PHYSICALITY_SLACK:
            raise DomainError(f"initial Bloch vector has norm^2 = {n2} > 1")
        if not (self.dt > 0.0 and self.t_end >= self.dt):
            raise DomainError("need dt > 0 and t_end >= dt")
        if self.sd.eta > _ETA_VALIDATED:
            warnings.warn(
                f"eta={self.sd.eta:g} exceeds {_ETA_VALIDATED:g}, the coupling up to "
                f"which the second-order (TCL2) equations are validated", UserWarning,
                stacklevel=3)

    @property
    def kernel_params(self) -> KernelParams:
        return KernelParams(sd=self.sd, epsilon=self.epsilon, T=self.T)


@dataclass
class Trajectory:
    """Bloch vector sampled on the integration grid; ``states[i]`` is
    (Dx, Dy, Dz) at ``grid[i]`` and ``states[0]`` equals the initial state."""

    grid: np.ndarray
    states: np.ndarray
    config: ProbeConfig = field(repr=False, default=None)

    @property
    def dx(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def dy(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def dz(self) -> np.ndarray:
        return self.states[:, 2]

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; rejects off-grid times."""
        dt = float(self.grid[1] - self.grid[0])
        i = int(round(t / dt))
        if i < 0 or i >= len(self.grid) or abs(self.grid[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"t={t} is not on the trajectory grid")
        return i


def rhs(state, kernels_at_t, epsilon: float, alpha: float) -> tuple:
    """Right-hand side of the Bloch equations at one time.

    ``state`` is the Bloch vector (Dx, Dy, Dz) and ``kernels_at_t`` the
    6-tuple (R, K, L, X, F, G).  Returns (dDx/dt, dDy/dt, dDz/dt).
    """
    dx, dy, dz = (float(v) for v in state)
    vals = tuple(float(v) for v in kernels_at_t)
    if len(vals) != 6:
        raise DomainError("kernels_at_t must supply the six values (R, K, L, X, F, G)")
    probe = (dx, dy, dz) + vals + (epsilon, alpha)
    if not all(math.isfinite(v) for v in probe):
        raise NumericError("non-finite input to the Bloch equations")
    R, K, L, X, F, G = vals
    aa = 4.0 * alpha * (alpha - 1.0)
    am2 = 4.0 * (alpha - 1.0) ** 2
    a2 = 4.0 * alpha * alpha
    fx = -epsilon * dy - aa * G - aa * dz * K - am2 * dx * R
    fy = dx * (epsilon + a2 * X) + aa * (F - L) - dy * (a2 * K + am2 * R) - aa * dz * X
    fz = -a2 * G - a2 * dz * K - aa * dx * R
    return fx, fy, fz


def _check_kernelset(cfg: ProbeConfig, ks: KernelSet):
    p = ks.params
    if p.sd != cfg.sd or p.epsilon != cfg.epsilon or p.T != cfg.T:
        raise ConfigurationError(
            f"kernel set built for (sd={p.sd}, eps={p.epsilon}, T={p.T}) does not "
            f"match probe (sd={cfg.sd}, eps={cfg.epsilon}, T={cfg.T})")
    if abs(ks.dt - cfg.dt) > 1e-12 * cfg.dt or abs(ks.t_end - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ConfigurationError(
            f"kernel grid (dt={ks.dt}, t_end={ks.t_end}) does not match probe "
            f"(dt={cfg.dt}, t_end={cfg.t_end})")


def _step_tables(values: dict, eps: float, aa: float, am2: float, a2: float) -> list:
    """Per-time kernel terms of ``rhs``, built in its association order so
    each entry is the float its scalar expression forms: rows of
    (R, K, X, aa*G, eps + a2*X, aa*(F - L), a2*K + am2*R, (-a2)*G)."""
    R, K, L, X, F, G = (values[name] for name in ("R", "K", "L", "X", "F", "G"))
    cols = (R, K, X, aa * G, eps + a2 * X, aa * (F - L), a2 * K + am2 * R, -a2 * G)
    return list(zip(*(c.tolist() for c in cols)))


def integrate(cfg: ProbeConfig, ks: KernelSet) -> Trajectory:
    """Classical fixed-step RK4 over the kernel grid.

    Each stage evaluates ``rhs``'s expressions inline, with their kernel-only
    terms read from tables built once per call (``_step_tables``).  The
    floating-point operations and their order are those of ``rhs``, so the
    states equal those of a stage-by-stage RK4 over ``rhs`` to the last bit.

    Raises IntegrationError at the first step whose Bloch norm exceeds
    1 + PHYSICALITY_SLACK (surfacing a weak-coupling breakdown rather than
    renormalizing it away); the message names alpha, T, epsilon, eta and dt.
    """
    _check_kernelset(cfg, ks)
    grid = ks.grid
    alpha = cfg.alpha
    eps = cfg.epsilon
    meps = -eps
    aa = 4.0 * alpha * (alpha - 1.0)
    am2 = 4.0 * (alpha - 1.0) ** 2
    a2 = 4.0 * alpha * alpha
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    limit = 1.0 + PHYSICALITY_SLACK
    on_grid = _step_tables(ks.values, eps, aa, am2, a2)
    on_half = _step_tables(ks.half_values, eps, aa, am2, a2)

    x, y, z = (float(c) for c in cfg.initial)
    rows = [(x, y, z)]
    for (R1, K1, X1, g1, e1, f1, q1, h1), (Rm, Km, Xm, gm, em, fm, qm, hm), \
            (R4, K4, X4, g4, e4, f4, q4, h4) in zip(on_grid, on_half, on_grid[1:]):
        # R, K, X and g = aa*G, e = eps + a2*X, f = aa*(F - L), q = a2*K + am2*R,
        # h = -a2*G at grid[i] (1), the midpoint (m) and grid[i+1] (4)
        k1x = meps * y - g1 - aa * z * K1 - am2 * x * R1
        k1y = x * e1 + f1 - y * q1 - aa * z * X1
        k1z = h1 - a2 * z * K1 - aa * x * R1
        u, v, w = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = meps * v - gm - aa * w * Km - am2 * u * Rm
        k2y = u * em + fm - v * qm - aa * w * Xm
        k2z = hm - a2 * w * Km - aa * u * Rm
        u, v, w = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = meps * v - gm - aa * w * Km - am2 * u * Rm
        k3y = u * em + fm - v * qm - aa * w * Xm
        k3z = hm - a2 * w * Km - aa * u * Rm
        u, v, w = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = meps * v - g4 - aa * w * K4 - am2 * u * R4
        k4y = u * e4 + f4 - v * q4 - aa * w * X4
        k4z = h4 - a2 * w * K4 - aa * u * R4
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        if not (x * x + y * y + z * z <= limit):
            t = float(grid[len(rows)])
            raise IntegrationError(
                f"Bloch norm left the unit ball at t={t:g} "
                f"(|D|^2 = {x*x + y*y + z*z:.6g}; alpha={alpha:g}, T={cfg.T:g}, "
                f"epsilon={eps:g}, eta={cfg.sd.eta:g}, dt={dt:g})", t=t)
        rows.append((x, y, z))
    return Trajectory(grid=grid, states=np.array(rows), config=cfg)


def kernels_for(cfg: ProbeConfig) -> KernelSet:
    """Precompute the kernel set matching ``cfg``'s grid and parameters."""
    return precompute(cfg.kernel_params, cfg.t_end, cfg.dt)

