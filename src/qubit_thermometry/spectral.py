"""Ohmic bath spectral density.

Units: hbar = k_B = 1; frequencies, temperatures and times are measured in
units of the cutoff omega_c unless configured otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["SpectralDensity"]


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic spectral density J(w) = eta * w * exp(-w / omega_c).

    The exponential cutoff carries a negative exponent; the positive-exponent
    variant is not integrable and every bath integral built on it would
    diverge.
    """

    eta: float
    omega_c: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.eta < math.inf):
            raise DomainError(f"coupling strength eta must be finite and >= 0, got {self.eta}")
        if not (0.0 < self.omega_c < math.inf):
            raise DomainError(f"cutoff omega_c must be finite and > 0, got {self.omega_c}")
