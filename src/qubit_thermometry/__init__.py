"""Nonequilibrium single-qubit thermometry of an Ohmic bosonic bath.

A qubit probe couples to the bath through (1-alpha)*sigma_z + alpha*sigma_x,
interpolating between pure dephasing and pure dissipation.  The package
integrates the resulting generalized Bloch equations with time-dependent
bath kernels, quantifies information backflow through re-coherence, and
computes the quantum/classical Fisher information of temperature estimates.
"""

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
    qcrb,
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
