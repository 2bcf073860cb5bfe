"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's quadrature machinery:
kernels come from raw midpoint Riemann sums over the printed integrands (with
the bare ratio over eps^2 - w^2), the dephasing exponent additionally from
scipy's adaptive QUADPACK, and closed forms are written out directly.  For
the Ohmic density J(w) = eta w exp(-w/omega_c), expanding coth x = 1 +
2 sum_n exp(-2 n x) termwise gives R, L and the dephasing exponent Gamma in
closed form at any T (e.g. Breuer & Petruccione, The Theory of Open Quantum
Systems, 2002); the exact alpha = 0 trajectory is built on that Gamma.  The
Bloch equations, written out one time at a time in ``rhs``, are checked
against the TCL2 generator acting on explicit 2x2 density matrices, and the
integrator against a textbook RK4 over ``rhs``.
"""

import math

import numpy as np
from scipy import integrate as sp_integrate
from scipy import special

from qubit_thermometry.dynamics import Trajectory
from qubit_thermometry.errors import DomainError, NumericError


def spectral_density(sd, omega):
    """Ohmic J(omega) = eta omega exp(-omega/omega_c) of ``sd``; a float for
    a scalar omega, else an array."""
    w = np.asarray(omega, dtype=float)
    out = sd.eta * w * np.exp(-w / sd.omega_c)
    return float(out) if w.ndim == 0 else out


def riemann_kernel(name, eta, omega_c, eps, T, t, n=2_000_000, wmax=80.0):
    """Midpoint Riemann sum of the raw kernel integrand."""
    w = (np.arange(n) + 0.5) * (wmax / n)
    J = eta * w * np.exp(-w / omega_c)
    coth = np.ones_like(w) if T == 0 else 1.0 / np.tanh(w / (2.0 * T))
    den = eps**2 - w**2
    se, ce = np.sin(eps * t), np.cos(eps * t)
    sw, cw = np.sin(t * w), np.cos(t * w)
    if name == "R":
        f = J * sw * coth / w
    elif name == "K":
        f = J * coth * (eps * se * cw - w * ce * sw) / den
    elif name == "L":
        f = J * (1.0 - cw) / w
    elif name == "X":
        f = J * coth * (-w * se * sw - eps * ce * cw + eps) / den
    elif name == "F":
        f = J * (eps * se * sw + w * ce * cw - w) / den
    elif name == "G":
        f = J * (w * se * cw - eps * ce * sw) / den
    else:
        raise ValueError(name)
    return float(np.sum(f) * (wmax / n))


def riemann_gamma(eta, omega_c, T, t, n=2_000_000, wmax=80.0):
    """Pure-dephasing exponent 4 int J coth (1-cos wt)/w^2 dw by Riemann sum."""
    w = (np.arange(n) + 0.5) * (wmax / n)
    J = eta * w * np.exp(-w / omega_c)
    coth = np.ones_like(w) if T == 0 else 1.0 / np.tanh(w / (2.0 * T))
    f = 4.0 * J * coth * (1.0 - np.cos(w * t)) / w**2
    return float(np.sum(f) * (wmax / n))


def quad_gamma(eta, omega_c, T, t):
    """Same exponent via scipy QUADPACK (second independent route)."""

    def f(w):
        coth = 1.0 if T == 0 else 1.0 / np.tanh(w / (2.0 * T))
        return 4.0 * eta * np.exp(-w / omega_c) * coth * (1.0 - np.cos(w * t)) / w

    val, _ = sp_integrate.quad(f, 0.0, 60.0 * omega_c, limit=400,
                               epsabs=1e-13, epsrel=1e-12)
    return val


def gamma_closed(eta, omega_c, T, t):
    """Dephasing exponent 4 int J coth(w/2T) (1 - cos wt)/w^2 dw in closed form:

        Gamma(t) = 2 eta [ln(1 + omega_c^2 t^2) + 4 ln Gamma_E(1 + T/omega_c)
                          - 4 Re ln Gamma_E(1 + T/omega_c + i T t)],

    Gamma_E being Euler's gamma function.  Accepts arrays of t.
    """
    t = np.asarray(t, dtype=float)
    x = T / omega_c
    thermal = special.loggamma(1.0 + x) - special.loggamma(1.0 + x + 1j * T * t).real
    return 2.0 * eta * (np.log1p((omega_c * t) ** 2) + 4.0 * thermal)


def kernel_R_closed(eta, omega_c, T, t):
    """R(t) = Gamma'(t)/4 = eta [omega_c^2 t/(1 + omega_c^2 t^2)
    + 2 T Im psi(1 + T/omega_c + i T t)], psi the digamma function."""
    wt = omega_c * t
    psi = special.psi(1.0 + T / omega_c + 1j * T * t)
    return eta * (omega_c * wt / (1.0 + wt * wt) + 2.0 * T * psi.imag)


def kernel_L_closed(eta, omega_c, t):
    """L(t) = eta omega_c^3 t^2 / (1 + omega_c^2 t^2), the same at every T."""
    wt = omega_c * t
    return eta * omega_c * wt * wt / (1.0 + wt * wt)


def dephasing_oracle(cfg):
    """Exact trajectory of the purely dephasing probe (alpha = 0).

    Dz is conserved; the transverse vector rotates by eps*t and is damped by
    exp(-Gamma(t)) with the closed-form ``gamma_closed``.
    """
    if cfg.alpha != 0.0:
        raise DomainError("the dephasing oracle applies only to alpha = 0")
    n = int(round(cfg.t_end / cfg.dt))
    grid = np.arange(n + 1) * cfg.dt
    damp = np.exp(-gamma_closed(cfg.sd.eta, cfg.sd.omega_c, cfg.T, grid))
    c = np.cos(cfg.epsilon * grid)
    s = np.sin(cfg.epsilon * grid)
    x0, y0, z0 = cfg.initial
    out = np.empty((n + 1, 3))
    out[:, 0] = damp * (x0 * c - y0 * s)
    out[:, 1] = damp * (x0 * s + y0 * c)
    out[:, 2] = z0
    out[0] = (x0, y0, z0)
    return Trajectory(grid=grid, states=out, config=cfg)


def five_point_derivative(f, x, delta):
    """Five-point central stencil (-f(x+2d) + 8f(x+d) - 8f(x-d) + f(x-2d)) / (12d).

    Grouped as differences of symmetric pairs, as ``metrology.stencil_scans``
    groups its shifted trajectories.
    """
    if not (delta > 0.0):
        raise DomainError(f"stencil step must be > 0, got {delta}")
    inner = f(x + delta) - f(x - delta)
    outer = f(x + 2.0 * delta) - f(x - 2.0 * delta)
    return (8.0 * inner - outer) / (12.0 * delta)


def dephasing_coherence_T0(eta, omega_c, t):
    """Closed form at T = 0: C(t) = (1 + omega_c^2 t^2)^(-2 eta)."""
    return (1.0 + (omega_c * t) ** 2) ** (-2.0 * eta)


def kernel_R_T0(eta, omega_c, t):
    """Closed form at T = 0: R(t) = eta t / (t^2 + 1/omega_c^2)."""
    return eta * t / (t * t + 1.0 / omega_c**2)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def tcl2_bloch_rhs(D, kernels, eps, alpha):
    """dD/dt from the TCL2 master equation on the 2x2 density matrix.

    With A = c sz + a sx (c = 1 - alpha, a = alpha) and H = (eps/2) sz,

        drho/dt = -i[H, rho] - [A, [c R sz + a K sx + a X sy, rho]]
                  + i[A, {c L sz + a F sx + a G sy, rho}],

    read back through D_k = Tr(rho sigma_k).
    """
    R, K, L, X, F, G = kernels
    c, a = 1.0 - alpha, alpha
    rho = 0.5 * (np.eye(2) + D[0] * _SX + D[1] * _SY + D[2] * _SZ)
    H = 0.5 * eps * _SZ
    A = c * _SZ + a * _SX
    B = c * R * _SZ + a * K * _SX + a * X * _SY
    C = c * L * _SZ + a * F * _SX + a * G * _SY

    def comm(p, q):
        return p @ q - q @ p

    drho = (-1.0j * comm(H, rho) - comm(A, comm(B, rho))
            + 1.0j * comm(A, C @ rho + rho @ C))
    return np.array([np.trace(drho @ s).real for s in (_SX, _SY, _SZ)])


def rhs(state, kernels_at_t, epsilon: float, alpha: float) -> tuple:
    """Right-hand side of the Bloch equations (``dynamics`` module docstring)
    at one time, one float operation at a time: the reference that
    ``dynamics.integrate_lanes`` reproduces bit for bit.

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


def staged_rk4(cfg, ks):
    """Classical RK4 over ``ks``'s grid, one ``rhs`` call per stage.

    ``rhs`` is tied to the TCL2 generator by ``test_rhs_matches_tcl2_generator``;
    stages 2 and 3 read the kernels at the midpoint, stage 4 at the next point.
    """
    names = ("R", "K", "L", "X", "F", "G")
    on_grid = np.stack([ks.values[n] for n in names], axis=1).tolist()
    on_half = np.stack([ks.half_values[n] for n in names], axis=1).tolist()
    dt, eps, alpha = cfg.dt, cfg.epsilon, cfg.alpha
    D = tuple(float(c) for c in cfg.initial)
    out = [D]
    for i in range(len(ks.grid) - 1):
        k1 = rhs(D, on_grid[i], eps, alpha)
        k2 = rhs([d + 0.5 * dt * k for d, k in zip(D, k1)], on_half[i], eps, alpha)
        k3 = rhs([d + 0.5 * dt * k for d, k in zip(D, k2)], on_half[i], eps, alpha)
        k4 = rhs([d + dt * k for d, k in zip(D, k3)], on_grid[i + 1], eps, alpha)
        D = tuple(d + dt / 6.0 * (a + 2.0 * (b + c) + e)
                  for d, a, b, c, e in zip(D, k1, k2, k3, k4))
        out.append(D)
    return np.array(out)


def gibbs_qfi(eps, T):
    """QFI about T of the Gibbs state of (eps/2) sz: (eps/2T^2)^2 sech^2(eps/2T)."""
    return (eps / (2.0 * T * T)) ** 2 / np.cosh(eps / (2.0 * T)) ** 2


def markov_K_limit(eta, omega_c, eps, T):
    """Long-time average of K: (pi/2) J(eps) coth(eps/2T)."""
    J = eta * eps * np.exp(-eps / omega_c)
    coth = 1.0 if T == 0 else 1.0 / np.tanh(eps / (2.0 * T))
    return 0.5 * np.pi * J * coth
