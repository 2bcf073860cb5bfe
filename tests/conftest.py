import os
import sys

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
from qubit_thermometry.metrology import stencil_kernel_sets

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
def engine_at():
    """The six kernels at one time alone from the frequency-domain pass that
    serves the temperature stencil (``precompute`` with ``shifted_T``)."""

    def at(params, t):
        (vals,), _ = kernels._KernelEngine(params).evaluate([t])
        return {n: float(vals[n][0]) for n in KERNEL_NAMES}

    return at


@pytest.fixture(scope="session")
def sk_fig2(sd):
    """Stencil kernel bundle at t_end = 50 shared by the metrology tests."""
    probe = ProbeConfig(epsilon=EPS, alpha=0.0, T=TEMP, sd=sd, t_end=50.0, dt=0.01)
    return stencil_kernel_sets(probe, workers=os.cpu_count())


@pytest.fixture(scope="session")
def sk_fig2_long(sd):
    """Stencil kernel bundle at t_end = 100 shared by the long-time fig2 tests."""
    probe = ProbeConfig(epsilon=EPS, alpha=0.0, T=TEMP, sd=sd, t_end=100.0, dt=0.01)
    return stencil_kernel_sets(probe, workers=os.cpu_count())
