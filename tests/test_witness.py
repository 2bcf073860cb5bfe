import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubit_thermometry import (
    DomainError,
    ProbeConfig,
    SpectralDensity,
    integrate_lanes,
)
from qubit_thermometry.dynamics import Trajectory
from qubit_thermometry.witness import _RISE_TOL, coherence, non_markovianity, steady_coherence

from oracles import dephasing_oracle


def _traj(grid, dx, dy=None, dz=None, eps=0.5):
    n = len(grid)
    states = np.zeros((n, 3))
    states[:, 0] = dx
    if dy is not None:
        states[:, 1] = dy
    if dz is not None:
        states[:, 2] = dz
    cfg = ProbeConfig(epsilon=eps, alpha=0.5, T=0.2, sd=SpectralDensity(eta=0.05),
                      t_end=float(grid[-1]), dt=float(grid[1] - grid[0]))
    return Trajectory(grid=np.asarray(grid, float), states=states, config=cfg)


# -- coherence -----------------------------------------------------------------

def test_coherence_values():
    grid = np.arange(3) * 1.0
    t = _traj(grid, dx=[1.0, 0.0, 0.6], dy=[0.0, 0.0, 0.8], dz=[0.0, 0.7, 0.0])
    C = coherence(t)
    assert C[0] == 1.0           # pure state on the equator
    assert C[1] == 0.0           # population only
    assert C[2] == pytest.approx(1.0, rel=1e-15)  # pythagorean


@given(st.floats(-1, 1), st.floats(-1, 1))
def test_coherence_is_transverse_norm(dx, dy):
    t = _traj([0.0, 1.0], dx=[dx, 0], dy=[dy, 0])
    assert coherence(t)[0] == pytest.approx(math.hypot(dx, dy), rel=1e-15)


# -- non-Markovianity ------------------------------------------------------------

def test_nc_zero_for_monotone_and_constant():
    assert non_markovianity(np.linspace(1.0, 0.0, 500)) == 0.0
    assert non_markovianity(np.full(100, 0.3)) == 0.0


def test_nc_requires_two_samples():
    with pytest.raises(DomainError):
        non_markovianity(np.array([1.0]))


def test_nc_simple_revival():
    C = np.array([1.0, 0.6, 0.8, 0.5, 0.55])
    assert non_markovianity(C) == pytest.approx(0.25, rel=1e-12)


def test_nc_dephasing_is_markovian(sd):
    # closed form C(t) = (1+t^2)^(-2 eta) decreases monotonically
    cfg = ProbeConfig(epsilon=0.5, alpha=0.0, T=0.0, sd=sd, t_end=50.0, dt=0.01)
    C = coherence(dephasing_oracle(cfg))
    assert non_markovianity(C) == 0.0


def test_nc_grid_refinement_stable_for_monotone():
    for n in (100, 1000, 10000):
        C = (1.0 + np.linspace(0, 50, n) ** 2) ** -0.1
        assert non_markovianity(C) <= 10 * 1e-10 * n


@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=60))
def test_nc_additive_over_concatenation(values):
    C = np.asarray(values)
    k = len(C) // 2
    whole = non_markovianity(C)
    left = non_markovianity(C[:k + 1])
    right = non_markovianity(C[k:])
    assert whole == pytest.approx(left + right, abs=1e-12)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60))
def test_nc_bounded_by_total_variation(values):
    C = np.asarray(values)
    nc = non_markovianity(C)
    d = np.diff(C)
    tv = float(np.abs(d).sum())
    assert nc <= tv + 1e-12
    if np.all(d >= 0.0):
        # every rise counts but the jitter at or below the fixed threshold
        assert nc == pytest.approx(tv - float(d[d <= _RISE_TOL].sum()), abs=1e-12)


# -- steady-state coherence ---------------------------------------------------------

def test_steady_free_precession():
    # |cos| averaged over whole periods equals 2/pi; eps chosen so the
    # period is an exact multiple of dt
    eps = 2.0 * math.pi / 10.0
    grid = np.arange(0, 100001) * 0.01
    t = _traj(grid, dx=np.cos(eps * grid), dy=np.sin(eps * grid), eps=eps)
    steady, converged = steady_coherence(t)
    assert steady == pytest.approx(2.0 / math.pi, abs=1e-3)
    assert converged


def test_steady_window_preconditions():
    eps = 0.5
    grid = np.arange(0, 1001) * 0.01  # window holds < 1 period
    t = _traj(grid, dx=np.cos(eps * grid), eps=eps)
    steady, converged = steady_coherence(t)
    assert math.isnan(steady) and converged is False
    # 10 whole periods of 1000 samples are enough, 9 are not: the trailing
    # 65% of 15385 steps is 10000 samples, of 15384 steps 9999
    eps = 2.0 * math.pi / 10.0
    for steps, blocks in ((15385, 10), (15384, 9)):
        grid = np.arange(0, steps + 1) * 0.01
        t = _traj(grid, dx=np.cos(eps * grid), eps=eps)
        assert math.isfinite(steady_coherence(t)[0]) == (blocks == 10)
    # a subnormal splitting: a period far beyond the window, not an OverflowError
    t = _traj(grid, dx=np.ones_like(grid), eps=5e-324)
    steady, converged = steady_coherence(t)
    assert math.isnan(steady) and converged is False


def test_steady_decaying_envelope_not_converged():
    eps = 2.0 * math.pi / 10.0
    grid = np.arange(0, 100001) * 0.01
    t = _traj(grid, dx=np.exp(-grid / 300.0) * np.cos(eps * grid), eps=eps)
    # block averages spread by ~2e-1, far above the 1e-4 convergence threshold
    steady, converged = steady_coherence(t)
    assert not converged


def test_steady_trapped_coherence(sd, ks_long):
    # interference of the two coupling channels leaves |Dx(inf)| pinned at a
    # nonzero value at alpha = 1/2, while either pure coupling erases it
    cfgs = [ProbeConfig(epsilon=0.5, alpha=alpha, T=0.2, sd=sd, t_end=200.0, dt=0.01)
            for alpha in (0.0, 0.5, 1.0)]
    vals = {traj.config.alpha: steady_coherence(traj)[0]
            for traj in integrate_lanes(cfgs, [ks_long] * 3)}
    assert vals[0.0] < 1e-2
    assert vals[1.0] < 1e-2
    assert vals[0.5] > 0.01

