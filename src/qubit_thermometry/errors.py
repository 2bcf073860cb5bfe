"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the physically or numerically valid domain."""


class ConfigurationError(ValueError):
    """Inconsistent configuration, e.g. a kernel table built for other parameters."""


class QuadratureError(RuntimeError):
    """A frequency integral did not converge within the panel budget; the
    message names the kernel, the time and the error estimate."""


class IntegrationError(RuntimeError):
    """The Bloch trajectory left the physical ball beyond the allowed slack;
    the message names the time, |D|^2, alpha, T, epsilon, eta and dt."""


class NumericError(RuntimeError):
    """A numerically inconsistent intermediate result (non-finite input,
    incompatible pure-state derivative, diverging Fisher ratio)."""
