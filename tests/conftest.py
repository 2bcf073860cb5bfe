import os
import sys
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from qubit_thermometry import (
    KERNEL_NAMES,
    KernelParams,
    ProbeConfig,
    SpectralDensity,
    precompute,
)
from qubit_thermometry import kernels
from qubit_thermometry.metrology import stencil_scans

# headline scenario of the figures: T = 0.2, eps = 0.5, eta = 0.05 (omega_c units)
EPS = 0.5
TEMP = 0.2
ETA = 0.05


@pytest.fixture(scope="session")
def sd():
    return SpectralDensity(eta=ETA, omega_c=1.0)


@pytest.fixture(scope="session")
def params(sd):
    return KernelParams(sd=sd, epsilon=EPS, T=TEMP)


@pytest.fixture(scope="session")
def ks_short(params):
    """Shared kernel set on a small grid for cheap integration tests."""
    return precompute(params, 10.0, 0.01)


@pytest.fixture(scope="session")
def ks_long(params):
    """Figure-scale kernel set (t_end = 200), shared by the steady-state,
    Markov fixed-point and witness-sweep tests."""
    return precompute(params, 200.0, 0.01)


@pytest.fixture(scope="session")
def traced_peak():
    """``peak(fn)``: the peak bytes that numpy and Python allocate while
    ``fn`` runs."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def engine_at():
    """The six kernels at one time alone from the frequency-domain pass that
    serves the temperature stencil (``kernels.frequency_pass``)."""

    def at(params, t):
        (vals,), _ = kernels._KernelEngine(params).evaluate([t])
        return {n: float(vals[n][0]) for n in KERNEL_NAMES}

    return at


def _fig2_scans(sd, t_end, times):
    """``MetrologyResult`` scans per alpha over Fig. 2's 21-point mixing grid
    at the headline parameters: one stencil bundle, its pass split over
    every core."""
    probes = [ProbeConfig(epsilon=EPS, alpha=float(a), T=TEMP, sd=sd, t_end=t_end, dt=0.01)
              for a in np.linspace(0.0, 1.0, 21)]
    _, scans = stencil_scans(probes, times, workers=os.cpu_count())
    return {probe.alpha: scan for probe, scan in zip(probes, scans)}


@pytest.fixture(scope="session")
def fig2_scans(sd):
    """Fig. 2's scans at t_end = 50, shared by the metrology and acceptance
    tests."""
    return _fig2_scans(sd, 50.0, (0.0, 1.0, 20.0, 50.0))


@pytest.fixture(scope="session")
def fig2_long_scans(sd):
    """Fig. 2's scans at t = 100 (t_end = 100), shared by the long-time fig2
    tests."""
    return _fig2_scans(sd, 100.0, (100.0,))
