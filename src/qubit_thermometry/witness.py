"""Re-coherence witness of non-Markovianity and steady-state coherence.

The l1-coherence of a qubit in Bloch form is C(t) = sqrt(Dx^2 + Dy^2).
Information backflow shows up as intervals with dC/dt > 0; accumulating the
positive increments,

    N_C = integral over {dC/dt > 0} of (dC/dt) dt,

gives the witness value.  On a discrete trajectory this becomes the sum of
positive forward differences above a jitter threshold of 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .errors import DomainError

__all__ = ["coherence", "non_markovianity", "steady_coherence"]

# the steady coherence averages this trailing share of a trajectory, set for
# fig1: at its t_end of 200 the window holds >= 10 precession periods of eps = 0.5
_WINDOW_FRAC = 0.65
# whole averaging blocks the trailing window must hold
_MIN_BLOCKS = 10
# coherence rises at or below this are floating-point jitter, not backflow
_RISE_TOL = 1e-10
# the steady coherence is converged when its block averages spread less
_CONV_TOL = 1e-4


def coherence(traj: Trajectory) -> np.ndarray:
    """C(t) = sqrt(Dx^2 + Dy^2) per sample."""
    return np.hypot(traj.dx, traj.dy)


def non_markovianity(C: np.ndarray) -> float:
    """Sum of coherence rises: sum_i max(C_{i+1} - C_i, 0) above 1e-10.

    Converges to the re-coherence integral as the grid is refined; the
    threshold suppresses floating-point jitter on flat stretches.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 1 or len(C) < 2:
        raise DomainError("need a series of at least 2 coherence samples")
    d = np.diff(C)
    return float(d[d > _RISE_TOL].sum())


def steady_coherence(traj: Trajectory) -> tuple:
    """Estimate |Dx(t -> infinity)| from the trailing 65% of a trajectory.

    For a splitting eps > 0 the tail of Dx oscillates at the precession
    frequency even when the envelope has settled, so |Dx| is averaged over
    whole precession periods (2 pi / eps) inside the window, or over tenths
    of the window at eps = 0; the estimate is the mean of the block averages
    and the convergence flag records whether their spread stays below 1e-4.
    Returns (|Dx(inf)| estimate, converged flag), and (nan, False) when the
    window holds fewer than 10 whole blocks, as when a period outlasts it.
    """
    n = len(traj.grid)
    dt = float(traj.grid[1] - traj.grid[0])
    win = int(math.floor(_WINDOW_FRAC * (n - 1)))
    eps = traj.config.epsilon
    if eps > 0.0:
        # a period of n samples or more (inf at a subnormal eps) fills no block
        m = max(1, round(min(2.0 * math.pi / eps / dt, n)))
    else:
        m = max(1, win // _MIN_BLOCKS)
    blocks = win // m
    if blocks < _MIN_BLOCKS:
        return math.nan, False
    tail = np.abs(traj.dx[n - blocks * m:])
    means = tail.reshape(blocks, m).mean(axis=1)
    spread = float(means.max() - means.min())
    return float(means.mean()), spread < _CONV_TOL
