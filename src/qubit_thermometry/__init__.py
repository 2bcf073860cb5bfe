"""Nonequilibrium single-qubit thermometry of an Ohmic bosonic bath.

A qubit probe couples to the bath through (1-alpha)*sigma_z + alpha*sigma_x,
interpolating between pure dephasing and pure dissipation.  The package
integrates the resulting generalized Bloch equations with time-dependent
bath kernels, quantifies information backflow through re-coherence, and
computes the quantum/classical Fisher information of temperature estimates.
"""

import os

# numpy's OpenBLAS starts one thread per core as it loads, ~0.1 s of every
# start-up, and the package's largest BLAS calls (a small gemv per kernel
# chunk, (P, 8) @ (8, 8) band projections, 3-vector dots, a <= 15-point
# polyfit) are too small to use them.  Takes effect only before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .spectral import SpectralDensity
from .kernels import (
    KERNEL_NAMES,
    KernelParams,
    KernelSet,
    precompute,
)
from .dynamics import ProbeConfig, Trajectory, integrate, integrate_lanes
from .witness import coherence, non_markovianity, steady_coherence
from .metrology import (
    MetrologyResult,
    cfi,
    markov_comparator,
    qfi,
)
from .errors import (
    ConfigurationError,
    DomainError,
    IntegrationError,
    NumericError,
    QuadratureError,
)

__version__ = "0.1.0"
