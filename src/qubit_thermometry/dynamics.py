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
error budget.  ``integrate_lanes`` steps any number of trajectories on one
grid together (a sweep's alphas, or a stencil's temperatures), and each
equals bit for bit a stage-by-stage RK4 over ``rhs``, the right-hand side
above written out one time at a time (``tests/oracles.py``); ``integrate``
is its one-lane call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, IntegrationError
from .kernels import KernelParams, KernelSet, grid_steps, precompute
from .spectral import SpectralDensity

__all__ = [
    "ProbeConfig",
    "Trajectory",
    "integrate",
    "integrate_lanes",
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
        self.kernel_params  # raises DomainError naming a bad epsilon or T
        if len(self.initial) != 3:
            raise DomainError("initial Bloch vector needs three components")
        n2 = sum(c * c for c in self.initial)
        if n2 > 1.0 + PHYSICALITY_SLACK:
            raise DomainError(f"initial Bloch vector has norm^2 = {n2} > 1")
        grid_steps(self.t_end, self.dt)  # raises DomainError off the grid rule
        if self.sd.eta > _ETA_VALIDATED:
            warnings.warn(
                f"eta={self.sd.eta:g} exceeds {_ETA_VALIDATED:g}, the coupling up to "
                f"which the second-order (TCL2) equations are validated", UserWarning,
                stacklevel=3)

    @property
    def kernel_params(self) -> KernelParams:
        return KernelParams(sd=self.sd, epsilon=self.epsilon, T=self.T)

    def index_of(self, t: float) -> int:
        """Index of probing time ``t`` on the grid {0, dt, ..., t_end};
        raises DomainError for a time below 0, beyond t_end or off the grid."""
        if not (t >= 0.0):
            raise DomainError(f"probing time {t} must be >= 0")
        if t > self.t_end + 1e-9:
            raise DomainError(f"probing time {t} lies beyond t_end={self.t_end}")
        i = int(round(t / self.dt))
        if abs(i * self.dt - t) > 1e-9 * max(1.0, t):
            raise DomainError(f"probing time {t} is not on the dt={self.dt} grid")
        return i


@dataclass
class Trajectory:
    """Bloch vector sampled on the integration grid, or on the rows of it
    that ``integrate_lanes`` was asked to keep; ``states[i]`` is (Dx, Dy,
    Dz) at ``grid[i]``, and on the whole grid ``states[0]`` equals the
    initial state."""

    grid: np.ndarray
    states: np.ndarray
    config: ProbeConfig = field(repr=False)

    @property
    def dx(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def dy(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def dz(self) -> np.ndarray:
        return self.states[:, 2]


def _check_kernelset(cfg: ProbeConfig, ks: KernelSet):
    if ks.params != cfg.kernel_params:
        raise ConfigurationError(
            f"kernel set built for {ks.params} does not match probe {cfg.kernel_params}")
    if abs(ks.dt - cfg.dt) > 1e-12 * cfg.dt or abs(ks.t_end - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ConfigurationError(
            f"kernel grid (dt={ks.dt}, t_end={ks.t_end}) does not match probe "
            f"(dt={cfg.dt}, t_end={cfg.t_end})")


# ``rhs`` as one product table per stage: the state rows (x, y, z, 1) are
# gathered as [y, x, 1 | 1, 1, 1 | z, y, z | x, z, x] and multiplied by the
# coefficients [-eps, eps + a2*X, -a2*G | aa*G, -aa*(F - L), 0 | aa, 1, a2 |
# am2, aa, aa]; the last six products are then multiplied by the kernels
# [K, a2*K + am2*R, K | R, X, R].  The four row groups P0, off, P1, P2 are
# reduced as ((P0 - off) - P1) - P2: subtract is never reassociated, so an
# axis-0 ``subtract.reduce`` takes them in that order, as ``rhs`` does.
_GATHER = np.array([1, 0, 3, 3, 3, 3, 2, 1, 2, 0, 2, 0])
# lane-steps per block of kernel-term tables and of norm checks: one table
# of 2 * block + 1 grid points and midpoints, 18 rows each, ~0.5 MB whatever
# the lane count
_BLOCK_LANE_STEPS = 1792


def check_shared_grid(cfgs):
    """Raises ConfigurationError unless every probe has the same dt and t_end."""
    grids = {(cfg.dt, cfg.t_end) for cfg in cfgs}
    if len(grids) > 1:
        raise ConfigurationError(
            f"lanes must share one grid, got (dt, t_end) in {sorted(grids)}")


def _term_tables(coef, kern, sources, i0: int, eps, aa, am2, a2):
    """Fill the kernel terms of every lane at grid[i0], its midpoint,
    grid[i0 + 1], ..., grid[i0 + b] into the rows 0, 1, ..., 2b of the
    coefficient table ``coef`` (2b + 1, 12, lanes) and the kernel table
    ``kern`` (2b + 1, 6, lanes) of ``_GATHER``'s products that vary in
    time; the coefficient rows that do not keep what ``integrate_lanes``
    wrote there.  ``sources`` pairs each kernel set with a slice of lanes,
    one pair per run of adjacent lanes that read it.  Each entry is the
    float that ``rhs`` forms, from the same operands in the same order."""
    b = len(coef) // 2
    K, R, X = kern[:, 0], kern[:, 3], kern[:, 4]
    L, G, F = coef[:, 1], coef[:, 3], coef[:, 4]  # raw L, G, F until formed
    for ks, lanes in sources:
        for dst, name in ((K, "K"), (R, "R"), (X, "X"), (L, "L"), (G, "G"), (F, "F")):
            dst[0::2, lanes] = ks.values[name][i0:i0 + b + 1, None]
            dst[1::2, lanes] = ks.half_values[name][i0:i0 + b, None]
    F[...] = -(aa * (F - L))
    L[...] = eps + a2 * X
    coef[:, 2] = -a2 * G
    G[...] = aa * G
    kern[:, 1] = a2 * K + am2 * R
    kern[:, 2] = K
    kern[:, 5] = R


def integrate_lanes(cfgs, kernel_sets, rows=None) -> list:
    """Classical fixed-step RK4 of many lanes over one shared kernel grid.

    Lane ``j`` integrates ``cfgs[j]`` on ``kernel_sets[j]``; lanes may differ
    in alpha, epsilon, T, initial state and kernel set (a set is read once
    per block for each run of adjacent lanes that share it), but not in dt
    or t_end.  All lanes step together in 28 numpy calls per step, whatever
    their number.
    Each stage gathers the state into ``_GATHER``'s 12-row product table,
    multiplies it by the kernel-only terms of ``rhs`` (the one-time
    right-hand side in ``tests/oracles.py``), read from one table of the
    block's grid points and midpoints in stage order, which the call
    allocates once and refills in place, with one ``_term_tables`` call,
    for each block of about ``_BLOCK_LANE_STEPS`` lane-steps (nothing
    outlives the call), and reduces its four 3-row groups with one
    ``subtract.reduce``, which subtracts them left to right as ``rhs``
    does.  Each call performs, lane by lane, the floating-point operation
    of ``rhs`` on the same operands (the reordering uses only a*b = b*a,
    1*v = v, a - (-b) = a + b, h - 0 = h and 2*v = v + v), so every
    state equals that of a stage-by-stage RK4 over ``rhs``
    (``oracles.staged_rk4``) to the last bit, whatever the lanes, their
    order and the block size.

    A block's states go into one (steps + 1, 4, lanes) buffer, and only the
    rows each lane keeps are copied out of it.  ``rows`` has one entry per
    lane: None keeps every grid row, and the lanes that do not keep every
    row all keep one selection of grid indices, the states at those
    indices alone, in its order (their Trajectories then have the kernel
    grid at those indices as their ``grid``).  The lanes that keep every
    row come first.  The default None keeps every row of every lane.  Every
    step of every lane is taken and norm-checked, whichever rows it keeps.

    Raises IntegrationError if a lane's Bloch norm exceeds 1 +
    PHYSICALITY_SLACK (surfacing a weak-coupling breakdown rather than
    renormalizing it away): for the lowest-index such lane, at its first
    such step, with a message naming its alpha, T, epsilon, eta and dt.
    Raises ConfigurationError for a kernel set that does not match its lane,
    for lanes on different grids, for ``rows`` of another length than
    ``cfgs``, for a lane keeping every row after one that keeps a selection
    or for lanes keeping different selections, and DomainError for a kept
    row outside the grid.
    """
    cfgs, kernel_sets = list(cfgs), list(kernel_sets)
    rows = [None] * len(cfgs) if rows is None else list(rows)
    if not (len(cfgs) == len(kernel_sets) == len(rows)):
        raise ConfigurationError(
            f"{len(cfgs)} probe configs but {len(kernel_sets)} kernel sets "
            f"and {len(rows)} row selections")
    for cfg, ks in zip(cfgs, kernel_sets):
        _check_kernelset(cfg, ks)
    check_shared_grid(cfgs)
    if not cfgs:
        return []
    n_lanes, n_steps = len(cfgs), len(kernel_sets[0].grid) - 1
    # lanes [0, n_full) keep every row, the lanes after them one selection
    n_full = next((m for m, r in enumerate(rows) if r is not None), n_lanes)
    kept = rows[n_full:]
    other = [r for r in kept if r is None or not np.array_equal(r, kept[0])]
    if other:
        raise ConfigurationError(
            f"lanes that keep every row must come first, and lanes that keep rows must "
            f"keep one selection of them, got {kept[0]} and then {other[0]}")
    sel = np.asarray(kept[0] if kept else [], dtype=np.int64).reshape(-1)
    if sel.size and not (0 <= sel.min() and sel.max() <= n_steps):
        raise DomainError(f"kept rows must lie in [0, {n_steps}]")
    # each run of adjacent lanes on one kernel set, with its slice of lanes
    starts = [m for m in range(n_lanes) if m == 0 or kernel_sets[m] is not kernel_sets[m - 1]]
    sources = [(kernel_sets[m], slice(m, end)) for m, end in zip(starts, starts[1:] + [n_lanes])]
    # rhs's coefficients per lane, each formed as rhs forms it
    alpha = [cfg.alpha for cfg in cfgs]
    eps = np.array([cfg.epsilon for cfg in cfgs])
    aa = np.array([4.0 * a * (a - 1.0) for a in alpha])
    am2 = np.array([4.0 * (a - 1.0) ** 2 for a in alpha])
    a2 = np.array([4.0 * a * a for a in alpha])
    coefs = eps, aa, am2, a2

    dt = cfgs[0].dt
    # RK4's step factors as arrays: a ufunc takes them faster than floats
    half, step, sixth = (np.full((3, n_lanes), f) for f in (0.5 * dt, dt, dt / 6.0))
    limit = 1.0 + PHYSICALITY_SLACK
    states = np.empty((n_full, n_steps + 1, 3))
    picked = np.empty((sel.size, 3, n_lanes - n_full))  # picked[q]: grid row sel[q]
    block = min(max(1, _BLOCK_LANE_STEPS // n_lanes), n_steps)  # steps per block
    # buf[j]: the state at grid[i0 + j] over a row of ones, which _GATHER reads
    buf = np.ones((block + 1, 4, n_lanes))
    buf[0, :3] = np.array([[float(c) for c in cfg.initial] for cfg in cfgs]).T
    u = np.ones((4, n_lanes))
    mid = u[:3]  # a stage's input
    k1, k2, k3, k4, tmp = (np.empty((3, n_lanes)) for _ in range(5))
    p = np.empty((12, n_lanes))
    p_kern, groups = p[6:], p.reshape(4, 3, n_lanes)  # groups: P0, off, P1, P2
    mul, add, sub_reduce = np.multiply, np.add, np.subtract.reduce
    # one term table for every block, refilled in place: _GATHER's
    # coefficients and kernels at a block's 2b + 1 grid points and midpoints
    # in stage order; the rows that do not vary in time are written here
    coef, kern = (np.empty((2 * block + 1, n, n_lanes)) for n in (12, 6))
    for row, value in ((0, -eps), (5, 0.0), (6, aa), (7, 1.0), (8, a2), (9, am2),
                       (10, aa), (11, aa)):
        coef[:, row] = value
    terms = list(zip(coef, kern))

    failed = None  # (lane, step, |D|^2) of the lowest-index lane out of the ball
    with np.errstate(all="ignore"):
        for i0 in range(0, n_steps, block):
            b = min(block, n_steps - i0)
            _term_tables(coef[:2 * b + 1], kern[:2 * b + 1], sources, i0, *coefs)
            # terms at grid[i] (1), the midpoint (m) and grid[i+1] (4); each
            # stage gathers w's products into p and reduces them to k = rhs(w)
            for j in range(b):
                (c1, r1), (cm, rm), (c4, r4) = terms[2 * j:2 * j + 3]
                s, now = buf[j], buf[j, :3]
                s.take(_GATHER, 0, p, "clip")
                mul(p, c1, p)
                mul(p_kern, r1, p_kern)
                sub_reduce(groups, 0, None, k1)
                mul(k1, half, tmp)
                add(now, tmp, mid)
                u.take(_GATHER, 0, p, "clip")
                mul(p, cm, p)
                mul(p_kern, rm, p_kern)
                sub_reduce(groups, 0, None, k2)
                mul(k2, half, tmp)
                add(now, tmp, mid)
                u.take(_GATHER, 0, p, "clip")
                mul(p, cm, p)
                mul(p_kern, rm, p_kern)
                sub_reduce(groups, 0, None, k3)
                mul(k3, step, tmp)
                add(now, tmp, mid)
                u.take(_GATHER, 0, p, "clip")
                mul(p, c4, p)
                mul(p_kern, r4, p_kern)
                sub_reduce(groups, 0, None, k4)
                add(k2, k3, k2)
                add(k2, k2, k2)
                add(k1, k2, k1)
                add(k1, k4, k1)
                mul(k1, sixth, k1)
                add(now, k1, buf[j + 1, :3])
            # the states of grid rows i0 ... i0 + b, out to the lanes that keep them
            states[:, i0:i0 + b + 1] = buf[:b + 1, :3, :n_full].transpose(2, 0, 1)
            hit = (i0 <= sel) & (sel <= i0 + b)
            picked[hit] = buf[sel[hit] - i0, :3, n_full:]
            done = buf[1:b + 1]
            x, y, z = done[:, 0], done[:, 1], done[:, 2]
            n2 = x * x + y * y + z * z
            bad = ~(n2 <= limit)
            lanes = np.flatnonzero(bad.any(axis=0))
            if lanes.size and (failed is None or lanes[0] < failed[0]):
                # a lane below every earlier failure fails first in this block
                m = int(lanes[0])
                j = int(np.argmax(bad[:, m]))
                failed = (m, i0 + 1 + j, float(n2[j, m]))
                if m == 0:
                    break
            buf[0] = buf[b]
    if failed is not None:
        m, i, norm2 = failed
        cfg = cfgs[m]
        raise IntegrationError(
            f"Bloch norm left the unit ball at t={kernel_sets[m].grid[i]:g} "
            f"(|D|^2 = {norm2:.6g}; alpha={cfg.alpha:g}, T={cfg.T:g}, "
            f"epsilon={cfg.epsilon:g}, eta={cfg.sd.eta:g}, dt={dt:g})")
    outs = [*states, *picked.transpose(2, 0, 1)]
    return [Trajectory(grid=ks.grid if m < n_full else ks.grid[sel], states=out, config=cfg)
            for m, (cfg, ks, out) in enumerate(zip(cfgs, kernel_sets, outs))]


def integrate(cfg: ProbeConfig, ks: KernelSet) -> Trajectory:
    """Classical fixed-step RK4 of one probe over the kernel grid: the
    one-lane ``integrate_lanes``, with its bit-exactness and its errors."""
    return integrate_lanes([cfg], [ks])[0]


def kernels_for(cfg: ProbeConfig) -> KernelSet:
    """Precompute the kernel set matching ``cfg``'s grid and parameters."""
    return precompute(cfg.kernel_params, cfg.t_end, cfg.dt)

