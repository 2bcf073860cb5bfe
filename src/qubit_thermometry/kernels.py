"""The six time-dependent kernels of the generalized Bloch equations.

    R(t) = int_0^inf J(w) coth(w/2T) sin(t w) / w dw
    K(t) = int_0^inf J(w) coth(w/2T) [e sin(e t) cos(t w) - w cos(e t) sin(t w)] / (e^2 - w^2) dw
    L(t) = int_0^inf J(w) (1 - cos(t w)) / w dw
    X(t) = int_0^inf J(w) coth(w/2T) [-w sin(e t) sin(t w) - e cos(e t) cos(t w) + e] / (e^2 - w^2) dw
    F(t) = int_0^inf J(w) [e sin(e t) sin(t w) + w cos(e t) cos(t w) - w] / (e^2 - w^2) dw
    G(t) = int_0^inf J(w) [w sin(e t) cos(t w) - e cos(e t) sin(t w)] / (e^2 - w^2) dw

with e the qubit splitting.  Two passes sample them on a uniform grid and
its midpoints.

Time-domain pass (``precompute``: every set that feeds no temperature
stencil).  Differentiated in t, each resonant denominator e^2 - w^2 cancels:

    R' = nu,  K' = cos(e t) nu,  X' = sin(e t) nu,
    L' = mu,  F' = cos(e t) mu,  G' = sin(e t) mu,

all six kernels vanishing at t = 0, where nu(s) = int J coth(w/2T) cos(w s)
dw and mu(s) = int J sin(w s) dw are the bath correlation functions.  For
the Ohmic J = eta w e^{-w/omega_c}, expanding coth = 1 + 2 sum_n e^{-n w/T}
termwise gives, with a = 1/omega_c (e.g. Weiss, Quantum Dissipative
Systems, 4th ed., 2012),

    mu(s) = eta Im (a - i s)^-2,
    nu(s) = eta Re [(a - i s)^-2 + 2 T^2 psi'(1 + T (a - i s))],

psi' being the trigamma function (``_trigamma``).  Each half step dt/2 is
integrated by 8-point Gauss-Legendre on panels no wider than
1/(2 max(omega_c, e)), which keeps the pole of (a - i s)^-2 at distance a
from the real axis far outside every panel's convergence ellipse, and one
cumulative sum per kernel gives the grid and midpoint values together.  The
cost is linear in t_end.

Frequency-domain pass (``frequency_pass``: the temperature stencil of
``metrology``).  Each kernel is a frequency integral at every
time, by composite 8-point Gauss-Legendre at one fixed configuration (the
``_REL_TOL`` ... ``_RESONANCE_GUARD`` constants below).  The stencil
divides kernel differences by a step of 1e-7 T, which magnifies any change
in the kernels' last bits: the time-domain pass's kernels, at most 3.2e-12
from this pass's (relative to each kernel's peak), move fig2's QFI by up to
5.0e-6 and fig3's by up to 1.34e-4, relative.  The stencil keeps this pass
until an exact temperature derivative replaces it and its reference
outputs are re-frozen.  Every resonant numerator vanishes at w = e, so
the singularity is removable.  We never evaluate the raw ratio:
product-to-sum identities reduce every resonant integrand to combinations
of

    g(v) = sin(v t) / (2 v),      h(v) = (1 - cos(v t)) / (2 v),

with v = e - w or v = e + w, and both g and h are entire in v:

    K-factor = g(e-w) + g(e+w)        X-factor = h(e-w) + h(e+w)
    G-factor = g(e-w) - g(e+w)        F-factor = h(e+w) - h(e-w)

Panel width is capped by min(omega_c/4, (2 pi / t) / 4), four panels per
oscillation, and halved in quantized steps as t grows so any time can be
re-evaluated bit-identically on its own; the first panel is geometrically
refined below the thermal scale min(T, omega_c); a boundary is pinned at
w = e; the exponential envelope bounds the neglected tail analytically, and
the range ends by 60 omega_c.  Away from the resonance window the g/h
factors are assembled from sin(t w), cos(t w) by angle addition, so all six
kernels share two trigonometric arrays per time point; panels inside the
window evaluate g/h directly in series-guarded form.

The error estimate splits per panel into (a) the Gauss error of the pure
oscillation exp(i kappa x), kappa = t * halfwidth, computed exactly from a
few scalars per time and multiplied by the panel's smooth-factor mass, and
(b) a static truncation term from the top Legendre coefficients of the
t-independent smooth factors.  If any kernel misses its tolerance the whole
mesh is bisected and the point re-evaluated (budget: 6 halvings).

R, K, X at each extra temperature are reduced in the same pass, against the
same trigonometric arrays and on the mesh accepted at the base temperature,
so the shifted kernels are smooth in T (as the stencil needs).  Each band
stacks its node coefficients, for every temperature, into one matrix paired
with sin(t w) and one paired with cos(t w).  The trigonometric arrays are
formed a sub-block of times at a time and reduced in cache-sized blocks of
time and coefficient rows, every entry a fixed-order length-N sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, QuadratureError
from .spectral import SpectralDensity

__all__ = [
    "KernelParams",
    "KernelSet",
    "KERNEL_NAMES",
    "precompute",
]

KERNEL_NAMES = ("R", "K", "L", "X", "F", "G")

# Kernels carrying the coth(w/2T) occupation factor; the rest are T-independent.
THERMAL_KERNELS = ("R", "K", "X")

# numpy.polynomial.legendre.leggauss(8), whose import costs ~1.7 MB and ~5 ms
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])


def _legendre(k: int, x: np.ndarray) -> np.ndarray:
    """P_k(x) by the Clenshaw recursion of numpy's ``legval`` on the
    coefficients [0] * k + [1], operation for operation."""
    c0, c1 = (0.0, 1.0) if k else (1.0, 0.0)
    for nd in range(k, 1, -1):
        c0, c1 = 0.0 - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


# Discrete Legendre projections c_k of the degree-7 interpolant on a panel.
_PROJ = np.stack([(k + 0.5) * _GL_W * _legendre(k, _GL_X) for k in range(8)])

# Per-kernel tolerance: err <= max(_ABS_TOL, _REL_TOL * |value|).
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
# Hard upper truncation of the frequency range, in units of omega_c.
_OMEGA_MAX_FACTOR = 60.0
# Minimum panels per period 2 pi / t of the integrand.
_PANELS_PER_OSCILLATION = 4
# Half-width around w = eps evaluated by the series-guarded direct path
# (floored at omega_c/16 so the partial-fraction coefficients stay well
# conditioned).
_RESONANCE_GUARD = 1e-4
_OSC_INFLATE = 8.0        # modulation allowance on the pure-oscillation error
_MAX_HALVINGS = 6
# times x nodes per chunk, the unit of the error estimate and assembly
_CHUNK_ELEMENTS = 262_144
# times x nodes per trigonometric sub-block of a chunk: the sin and cos work
# arrays of one thread take 128 kB each (at least one time row)
_TRIG_BLOCK_ELEMENTS = 16_384
# Gauss nodes per block of the time-domain pass: 64 kB per complex array
_STEP_BLOCK_NODES = 4_096
# time rows x coefficient rows x nodes per stacked reduction: the products
# go through a 256 kB buffer that stays in cache (at least one row of nodes)
_ROW_BLOCK_ELEMENTS = 32_768


@dataclass(frozen=True)
class KernelParams:
    """Physical inputs of the kernel integrals: bath, splitting, temperature."""

    sd: SpectralDensity
    epsilon: float
    T: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon < math.inf):
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (0.0 <= self.T < math.inf):
            raise DomainError(f"temperature must be finite and >= 0, got {self.T}")


@dataclass
class KernelSet:
    """Kernels sampled on a uniform time grid plus its midpoints.

    ``values[name][i]`` is the kernel at ``grid[i]``; ``half_values[name][i]``
    at ``grid[i] + dt/2``.  Arrays are read-only.
    """

    grid: np.ndarray
    values: dict
    half_values: dict
    params: KernelParams

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])


# B_2, B_4, ..., B_16: Bernoulli numbers of the asymptotic trigamma series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _trigamma(z) -> np.ndarray:
    """psi'(z) for complex ``z`` with Re z >= 1.

    The recurrence psi'(z) = psi'(z + 1) + 1/z^2 moves every argument to
    Re z >= 11, where the asymptotic series 1/z + 1/(2 z^2) + sum_k B_2k /
    z^(2k+1) (Abramowitz & Stegun 6.4.12), cut after B_16, is accurate to
    ~1e-17 relative.
    """
    z = np.array(z, dtype=complex)  # a copy, stepped in place
    out = np.zeros_like(z)
    work = np.empty_like(z)
    for _ in range(max(0, math.ceil(11.0 - float(z.real.min(initial=11.0))))):
        out += np.divide(1.0, np.multiply(z, z, out=work), out=work)
        z += 1.0
    # the series' own operations in its own operand order, each written into
    # z, work or tail: complex products need not commute to the bit
    iz = np.divide(1.0, z, out=z)
    iz2 = np.multiply(iz, iz, out=work)
    tail = np.zeros_like(z)
    for b in reversed(_BERNOULLI):
        np.add(b, np.multiply(iz2, tail, out=tail), out=tail)
    np.add(0.5, np.multiply(iz, tail, out=tail), out=tail)
    np.add(1.0, np.multiply(iz, tail, out=tail), out=tail)
    out += np.multiply(iz, tail, out=tail)
    return out


def _correlations(s: np.ndarray, sd: SpectralDensity, T: float) -> tuple:
    """(nu, mu) at times ``s``: the bath correlation functions
    nu = int J coth(w/2T) cos(w s) dw and mu = int J sin(w s) dw."""
    q = 1.0 / sd.omega_c - 1j * s
    c = 1.0 / (q * q)
    mu = sd.eta * c.imag
    if T > 0.0:
        c = c + 2.0 * T * T * _trigamma(1.0 + T * q)
    return sd.eta * c.real, mu


def _time_domain(params: KernelParams, n_half: int, h: float) -> dict:
    """Each kernel at the n_half + 1 times j*h, as the cumulative sum of its
    rate (nu or mu, times 1, cos(e s) or sin(e s)) integrated over every
    step [j h, (j + 1) h] by Gauss-Legendre on equal panels."""
    sd, eps = params.sd, params.epsilon
    # panels no wider than 1/(2 max(omega_c, e)); one panel per half step
    # misses by 3e-7 at dt = 5 and by 2.6e-3 at omega_c = 4, dt = 5
    panels = math.ceil(2.0 * max(sd.omega_c, eps) * h)
    width = h / panels
    # out[name][1:] takes the step sums, then their cumulative sum in place
    out = {name: np.zeros(n_half + 1) for name in KERNEL_NAMES}
    steps = {name: a[1:] for name, a in out.items()}
    # a step with more nodes than a block is summed in groups of whole
    # panels, the group sums added in order; a step that fits is one group
    group = min(panels, max(1, _STEP_BLOCK_NODES // _GL_X.size))
    for p0 in range(0, panels, group):
        idx = np.arange(p0, min(p0 + group, panels))
        offsets = ((idx[:, None] + 0.5 * (1.0 + _GL_X)) * width).ravel()
        weights = np.tile(0.5 * width * _GL_W, idx.size)
        # a block of steps at a time keeps the work arrays small; every
        # step's sum is the same whatever the block size
        block = max(1, _STEP_BLOCK_NODES // offsets.size)
        for lo in range(0, n_half, block):
            rows = slice(lo, min(lo + block, n_half))
            s = np.arange(rows.start, rows.stop)[:, None] * h + offsets
            nu, mu = (r * weights for r in _correlations(s, sd, params.T))
            c, sn = np.cos(eps * s), np.sin(eps * s)
            for name, rate in (("R", nu), ("K", c * nu), ("L", mu), ("X", sn * nu),
                               ("F", c * mu), ("G", sn * mu)):
                total = rate.sum(axis=1)
                steps[name][rows] = steps[name][rows] + total if p0 else total
    for name, acc in steps.items():
        np.cumsum(acc, out=acc)
        out[name].flags.writeable = False
    return out


def _thermal_weight(omega: np.ndarray, T: float, omega_c: float) -> np.ndarray:
    """coth(w/2T) on positive nodes, switching to the Laurent series
    coth(w/2T) = 2T/w + w/6T - w^3/360T^3 below 1e-3*min(T, omega_c); a T
    whose cube overflows (T > ~5.6e102) raises DomainError."""
    if T == 0.0:
        return np.ones_like(omega)
    coth = 1.0 / np.tanh(omega / (2.0 * T))
    w_small = 1e-3 * min(T, omega_c)
    small = omega < w_small
    if np.any(small):
        om = omega[small]
        try:
            coth[small] = 2.0 * T / om + om / (6.0 * T) - om**3 / (360.0 * T**3)
        except OverflowError:
            raise DomainError(f"thermal weight overflows at T={T}: T^3 > float max") from None
    return coth


def _sum_nodes(vec: np.ndarray, trig: np.ndarray) -> np.ndarray:
    # (N,) x (nt, N) -> (nt,); reduction order along the node axis is fixed,
    # so results do not depend on how times are batched.
    return (vec * trig).sum(axis=1)


def _line_aligned(n: int) -> np.ndarray:
    """n uninitialized floats from a 64-byte cache line: as the product buffer
    of ``_reduce_rows``, 12% faster than at malloc's 16-byte alignment."""
    raw = np.empty(n + 7)
    lo = -raw.ctypes.data % 64 // 8
    return raw[lo:lo + n]


def _reduce_rows(trig: np.ndarray, rows: np.ndarray, out: np.ndarray, buf: np.ndarray):
    """out[i, r] = sum_j rows[r, j] * trig[i, j] for (nt, N) ``trig`` and
    (m, N) ``rows``, a block of time and coefficient rows at a time through
    the flat ``buf`` of max(_ROW_BLOCK_ELEMENTS, N) elements; each entry is
    the same length-N sum as ``_sum_nodes`` gives."""
    m, n = rows.shape
    mr = min(m, max(1, _ROW_BLOCK_ELEMENTS // n))
    k = max(1, _ROW_BLOCK_ELEMENTS // (mr * n))
    for lo in range(0, trig.shape[0], k):
        blk = trig[lo:lo + k, None, :]
        for r in range(0, m, mr):
            sub = rows[r:r + mr]
            prod = buf[:blk.shape[0] * sub.size].reshape(blk.shape[0], len(sub), n)
            np.multiply(blk, sub[None], out=prod).sum(axis=2, out=out[lo:lo + k, r:r + mr])


class _Band:
    """Node set and folded coefficient data for one mesh-refinement level.

    ``rows_S`` holds the node coefficients reduced against sin(t w): R and the
    K/X cross term Q at each engine temperature (base first), then G.
    ``rows_C`` holds those reduced against cos(t w): the K/X term P at each
    temperature, then L and F.
    """

    __slots__ = (
        "omega", "rows_S", "rows_C", "const_X", "const_L", "const_F",
        "class_h", "mass_L", "mass_KX", "mass_FG",
        "mass_R_inv", "mass_R_flat",
        "stat_L", "stat_KX", "stat_FG", "stat_R_inv", "stat_R_flat",
        "p_wq", "p_jtil", "p_btil", "p_vm", "p_vp", "p_hmax",
    )


def _j0(k):
    small = np.abs(k) < 1e-4
    ks = np.where(small, 1.0, k)
    out = np.sin(ks) / ks
    k2 = k * k
    return np.where(small, 1.0 - k2 / 6.0 + k2 * k2 / 120.0, out)


def _j1(k):
    small = np.abs(k) < 1e-3
    ks = np.where(small, 1.0, k)
    out = np.sin(ks) / (ks * ks) - np.cos(ks) / ks
    k2 = k * k
    return np.where(small, k / 3.0 * (1.0 - k2 / 10.0 + k2 * k2 / 280.0), out)


def _osc_error(kappa: np.ndarray) -> np.ndarray:
    """Gauss-Legendre-8 error on the unit oscillation over one panel.

    kappa = t * halfwidth; compares the rule against the exact moments of
    cos(kappa x) and x sin(kappa x) on [-1, 1].  Below kappa = 0.5 the true
    error (~ 2 kappa^16/16!) sits under the floating-point noise of that
    difference, so the analytic bound is returned instead.
    """
    kappa = np.asarray(kappa, dtype=float)
    small = np.abs(kappa) <= 0.5
    bound = 3.1e-12 * np.abs(kappa) ** 15  # ~ 4 kappa^15 / 15!
    kx = kappa[..., None] * _GL_X
    cs = (_GL_W * np.cos(kx)).sum(axis=-1)
    s1 = (_GL_W * _GL_X * np.sin(kx)).sum(axis=-1)
    numeric = np.abs(cs - 2.0 * _j0(kappa)) + np.abs(s1 - 2.0 * _j1(kappa))
    return np.where(small, bound, numeric)


class _KernelEngine:
    """Evaluates the six kernels at arbitrary times for one ``params``, and
    R, K, X at each of the extra temperatures ``temps``.  Each ``evaluate``
    is one sweep that builds each mesh band once, shares its chunks of times
    among the threads and releases it before the next; no band outlives it."""

    def __init__(self, params: KernelParams, temps=()):
        self.params = params
        self.omega_c = params.sd.omega_c
        self.eta = params.sd.eta
        self.eps = params.epsilon
        self.T = params.T
        self.temps = tuple(float(T) for T in temps)
        for T in self.temps:
            if not (T > 0.0):
                raise DomainError(f"shifted temperature must be > 0, got {T}")
        self.w0 = self.omega_c / 4.0
        self.w_near = max(_RESONANCE_GUARD, self.omega_c / 16.0)
        self._cut, self.tail_bound = self._choose_cut()

    # -- mesh geometry -------------------------------------------------------

    def _choose_cut(self):
        """Truncation point a with analytic tail bound <= _ABS_TOL/4.

        Every integrand is bounded by 3 coth(a/2T) eta e^{-w/omega_c} for
        w >= a >= max(2 eps, 3 omega_c), which integrates to
        3 coth(a/2T) eta omega_c e^{-a/omega_c}.
        """
        oc = self.omega_c
        w_max = _OMEGA_MAX_FACTOR * oc
        j_min = max(3, math.ceil(2.0 * self.eps / oc) + 1)
        budget = 0.25 * _ABS_TOL
        for j in range(j_min, int(_OMEGA_MAX_FACTOR) + 1):
            a = j * oc
            coth_a = 1.0 if self.T == 0.0 else 1.0 / math.tanh(a / (2.0 * self.T))
            bound = 3.0 * coth_a * self.eta * oc * math.exp(-a / oc)
            if bound <= budget or a >= w_max:
                return min(a, w_max), bound
        coth_a = 1.0 if self.T == 0.0 else 1.0 / math.tanh(w_max / (2.0 * self.T))
        return w_max, 3.0 * coth_a * self.eta * oc * math.exp(-w_max / oc)

    def _width_exponent(self, t: float) -> int:
        if t <= 0.0:
            return 0
        need = (2.0 * math.pi / t) / _PANELS_PER_OSCILLATION
        if need >= self.w0:
            return 0
        return math.ceil(math.log2(self.w0 / need))

    def _bounds(self, k: int) -> np.ndarray:
        w = self.w0 / (2.0**k)
        n_uniform = int(math.ceil(self._cut / w - 1e-12))
        bounds = list(w * np.arange(1, n_uniform)) + [self._cut]
        first = [0.0]
        if self.T > 0.0:
            target = min(self.T, self.omega_c) / 4.0
            if w > target:
                m = math.ceil(math.log2(w / target))
                first += [w / (2.0**j) for j in range(m, 0, -1)]
        bounds = np.array(first + bounds)
        eps = self.eps
        if 0.0 < eps < self._cut and np.min(np.abs(bounds - eps)) > 1e-12 * self.omega_c:
            bounds = np.sort(np.append(bounds, eps))
        return bounds

    # -- band construction -----------------------------------------------------

    def _band(self, k: int) -> _Band:
        bounds = self._bounds(k)
        centers = 0.5 * (bounds[1:] + bounds[:-1])
        halfw = 0.5 * (bounds[1:] - bounds[:-1])
        P = len(centers)
        omega = (centers[:, None] + halfw[:, None] * _GL_X[None, :]).ravel()
        wq = (halfw[:, None] * _GL_W[None, :]).ravel()

        E = self.eta * np.exp(-omega / self.omega_c)
        jtil = E * omega                 # J
        eps = self.eps
        vm = eps - omega
        vp = eps + omega

        # panels meeting the resonance window use the direct g/h path
        patch_panel = (bounds[1:] > eps - self.w_near) & (bounds[:-1] < eps + self.w_near)
        patch_node = np.repeat(patch_panel, 8)
        main = ~patch_node

        i2vm = np.zeros_like(omega)
        i2vp = np.zeros_like(omega)
        i2vm[main] = 1.0 / (2.0 * vm[main])
        i2vp[main] = 1.0 / (2.0 * vp[main])
        i2_sum = i2vm + i2vp
        i2_dif = i2vp - i2vm
        idx = np.nonzero(patch_node)[0]

        b = _Band()
        b.omega = omega
        nT = 1 + len(self.temps)
        b.rows_S = rows_S = np.empty((2 * nT + 1, omega.size))
        b.rows_C = rows_C = np.empty((nT + 2, omega.size))
        b.p_btil = []
        # wq * E*coth, wq * (J*coth * i2_dif) and wq * (J*coth * i2_sum) at
        # the base temperature, then at each of ``temps``, one coth at a time
        for j, T in enumerate((self.T,) + self.temps):
            coth = _thermal_weight(omega, T, self.omega_c)
            np.multiply(E, coth, out=rows_S[2 * j])
            np.multiply(wq, rows_S[2 * j], out=rows_S[2 * j])
            bt = np.multiply(jtil, coth, out=coth)  # J * coth
            for row, i2 in ((rows_S[2 * j + 1], i2_dif), (rows_C[j], i2_sum)):
                np.multiply(bt, i2, out=row)
                np.multiply(wq, row, out=row)
            b.p_btil.append(bt[idx])
            if j == 0:
                btil = bt                # J * coth at T
        sL = E
        sF = jtil * (i2vm - i2vp)
        sG = jtil * i2_sum
        np.multiply(wq, sG, out=rows_S[2 * nT])
        np.multiply(wq, sL, out=rows_C[nT])
        np.multiply(wq, sF, out=rows_C[nT + 1])
        *b.const_X, b.const_L, sum_F = (float(c) for c in rows_C.sum(axis=1))
        b.const_F = -sum_F

        # per-panel Legendre projections of the smooth factors -> oscillation
        # masses per width class and static truncation terms
        class_h, class_id = np.unique(halfw, return_inverse=True)
        b.class_h = class_h

        def mass_stat(s, amp=None):
            # ``amp``: per-panel bound on the oscillatory basis paired with
            # ``s`` (1 for sin/cos; min(t, 1/w)-type factors enter here so the
            # modelled smooth factor stays bounded at w -> 0).
            coef = np.abs(s.reshape(P, 8) @ _PROJ.T)      # (P, 8), build-time only
            if amp is None:
                amp = np.ones(P)
            m = halfw * coef.sum(axis=1) * amp
            hi = coef[:, 6] + coef[:, 7]
            mid = coef[:, 4] + coef[:, 5]
            # geometric-decay extrapolation of the interpolation truncation
            decay = np.minimum(1.0, hi / (mid + 1e-300)) ** 4
            stat = float((halfw * hi * decay * amp).sum())
            per_class = np.zeros(len(class_h))
            np.add.at(per_class, class_id, m)
            return per_class, stat

        # R pairs E*w*coth with sin(t w)/w, |basis| <= min(t, 1/w); both caps
        # are kept as separate static masses and combined per time.
        inv_w = 1.0 / np.maximum(bounds[:-1], 0.5 * halfw)
        b.mass_R_inv, b.stat_R_inv = mass_stat(btil, amp=inv_w)
        b.mass_R_flat, b.stat_R_flat = mass_stat(btil)
        mL, sLst = mass_stat(sL)
        mP, sPst = mass_stat(btil * i2_sum)
        mQ, sQst = mass_stat(btil * i2_dif)
        mF, sFst = mass_stat(sF)
        mG, sGst = mass_stat(sG)
        b.mass_L, b.stat_L = mL, sLst
        b.mass_KX, b.stat_KX = mP + mQ, sPst + sQst
        b.mass_FG, b.stat_FG = mF + mG, sFst + sGst

        b.p_wq = wq[idx]
        b.p_jtil = jtil[idx]
        b.p_vm = vm[idx]
        b.p_vp = vp[idx]
        b.p_hmax = float(halfw[patch_panel].max()) if patch_panel.any() else 0.0
        return b

    # -- per-chunk evaluation ----------------------------------------------------

    @staticmethod
    def _g_h(v: np.ndarray, u: np.ndarray, t_col: np.ndarray):
        """Series-guarded g = sin(u)/(2v), h = (1-cos(u))/(2v) with u = v*t."""
        small = np.abs(u) < 1e-2
        vs = np.where(v == 0.0, 1.0, v)
        with np.errstate(invalid="ignore"):
            g = np.sin(u) / (2.0 * vs)
            h = (1.0 - np.cos(u)) / (2.0 * vs)
        if small.any():
            u2 = u * u
            gs = 0.5 * t_col * (1.0 - u2 / 6.0 + u2 * u2 / 120.0)
            hs = 0.5 * t_col * u * (0.5 - u2 / 24.0 + u2 * u2 / 720.0)
            g = np.where(small, gs, g)
            h = np.where(small, hs, h)
        return g, h

    def _eval_chunk(self, band: _Band, ts: np.ndarray, work):
        """(sets, errs, bad) for times sharing one band: ``sets`` holds the
        six kernel values, then R, K, X at each of ``temps``; ``errs`` the
        error estimates; ``bad`` the rejected rows.

        ``work`` holds two flat arrays of at least max(_TRIG_BLOCK_ELEMENTS,
        N) elements that receive sin(t w) and cos(t w) for a sub-block of
        max(1, _TRIG_BLOCK_ELEMENTS // N) times (t*w is written into the cos
        array first; each entry's reductions do not depend on the sub-block
        size), and the flat product buffer of the stacked reductions, of at
        least max(_ROW_BLOCK_ELEMENTS, N) elements.
        """
        n = band.omega.size
        red_S = np.empty((ts.size, len(band.rows_S)))
        red_C = np.empty((ts.size, len(band.rows_C)))
        step = max(1, _TRIG_BLOCK_ELEMENTS // n)
        for lo in range(0, ts.size, step):
            blk = ts[lo:lo + step]
            S, C = (w[:blk.size * n].reshape(blk.size, n) for w in work[:2])
            np.multiply(blk[:, None], band.omega[None, :], out=C)
            np.sin(C, out=S)
            np.cos(C, out=C)
            _reduce_rows(S, band.rows_S, red_S[lo:lo + step], work[2])
            _reduce_rows(C, band.rows_C, red_C[lo:lo + step], work[2])
        st = np.sin(self.eps * ts)
        ct = np.cos(self.eps * ts)
        # resonance-window factors: of J*coth for K, X and of J for F, G
        p_th, p_j = {}, {}
        if band.p_wq.size:
            t_col = ts[:, None]
            um = t_col * band.p_vm[None, :]
            up = t_col * band.p_vp[None, :]
            gm, hm = self._g_h(band.p_vm[None, :], um, t_col)
            gp, hp = self._g_h(band.p_vp[None, :], up, t_col)
            p_th = {"K": gm + gp, "X": hm + hp}
            p_j = {"F": hp - hm, "G": gm - gp}

        sets, pieces = [], {}
        for j, const_X in enumerate(band.const_X):
            rP, rQ = red_C[:, j], red_S[:, 2 * j + 1]
            vals = {"R": red_S[:, 2 * j],
                    "K": st * rP + ct * rQ,
                    "X": const_X - ct * rP + st * rQ}
            for name, fac in p_th.items():
                f = band.p_btil[j] * fac
                vals[name] = vals[name] + _sum_nodes(band.p_wq, f)
                if j == 0:
                    pieces[name] = f
            sets.append(vals)
        vals = sets[0]
        nT = len(band.const_X)
        vals["L"] = band.const_L - red_C[:, nT]
        rF, rG = red_C[:, nT + 1], red_S[:, 2 * nT]
        vals["F"] = band.const_F + ct * rF + st * rG
        vals["G"] = st * rF - ct * rG
        for name, fac in p_j.items():
            pieces[name] = f = band.p_jtil * fac
            vals[name] = vals[name] + _sum_nodes(band.p_wq, f)

        osc = _OSC_INFLATE * _osc_error(ts[:, None] * band.class_h[None, :])
        # every basis function is bounded by min(1, t*w) on the range
        amp_t = np.minimum(1.0, ts * self._cut)
        p_err = _OSC_INFLATE * _osc_error(ts * band.p_hmax) if pieces else None
        errs = {}
        # rows where any kernel misses max(_ABS_TOL, _REL_TOL*|value|)
        bad = np.zeros(ts.size, dtype=bool)
        for name in KERNEL_NAMES:
            if name == "R":
                mass = np.minimum(band.mass_R_inv[None, :],
                                  ts[:, None] * band.mass_R_flat[None, :])
                err = (osc * mass).sum(axis=1)
                err = err + np.minimum(band.stat_R_inv, ts * band.stat_R_flat)
            else:
                mass, stat = {"L": (band.mass_L, band.stat_L),
                              "K": (band.mass_KX, band.stat_KX),
                              "X": (band.mass_KX, band.stat_KX),
                              "F": (band.mass_FG, band.stat_FG),
                              "G": (band.mass_FG, band.stat_FG)}[name]
                err = osc @ mass + stat * amp_t
            err = err + self.tail_bound
            if name in pieces:
                err = err + p_err * (band.p_wq * np.abs(pieces[name])).sum(axis=1)
            errs[name] = err
            bad |= err > np.maximum(_ABS_TOL, _REL_TOL * np.abs(vals[name]))
        return sets, errs, bad

    # -- public evaluation ---------------------------------------------------------

    def evaluate(self, ts, workers: int = 1, map=map):
        """Evaluate at times ``ts``, bisecting the mesh until every kernel
        meets its tolerance.

        Returns (sets, levels): ``sets[0]`` maps each kernel to an array over
        ts, and ``sets[1 + j]`` maps R, K, X to arrays at ``temps[j]``,
        evaluated on the mesh accepted at the base temperature; ``levels``
        records the refinement depth used.  One ascending sweep over band
        keys: a time has key k from its base width exponent, or because
        band k - 1 rejected it, and is evaluated on band k.  Each band is
        built when the sweep first reaches it and released before the next,
        so one band is held at a time and each is built once per call.
        Its rows are cut, ascending, into near-equal chunks, a multiple of
        ``workers`` in number, and ``map`` runs sweep j over every
        ``workers``-th chunk from j on, on work arrays of its own.  Each
        value is a fixed-order sum over its band's nodes, so it depends
        neither on the other times or temperatures in the call nor on
        ``workers``.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size and (not np.all(np.isfinite(ts)) or np.any(ts < 0.0)):
            raise DomainError("kernel times must be finite and >= 0")
        out = [{n: np.empty(ts.shape) for n in names}
               for names in (KERNEL_NAMES,) + (THERMAL_KERNELS,) * len(self.temps)]
        base_k = np.array([self._width_exponent(t) for t in ts.tolist()], dtype=np.int64)
        keys = base_k.copy()  # a rejected row's key moves on to the next band
        k = 0
        while k <= keys.max(initial=-1):
            idx = np.flatnonzero(keys == k)
            k += 1
            if not idx.size:
                continue
            band = self._band(k - 1)
            nodes = len(band.omega)
            # near-equal chunks, a multiple of ``workers`` in number: sweeps end together
            chunk = max(1, _CHUNK_ELEMENTS // nodes)
            chunks = np.array_split(idx, min(idx.size, workers * -(-idx.size // (workers * chunk))))
            # each sweep's flat sin and cos arrays and product buffer serve
            # all its chunks: fresh ones per chunk were faulted in again, 38x
            # the minor page faults and 1.8 s of system time on two threads
            trig = max(nodes, _TRIG_BLOCK_ELEMENTS)
            works = [(np.empty(trig), np.empty(trig), _line_aligned(max(nodes, _ROW_BLOCK_ELEMENTS)))
                     for _ in range(min(workers, len(chunks)))]

            def sweep(j):
                for sel in chunks[j::len(works)]:
                    tsel = ts[sel]
                    sets, errs, bad = self._eval_chunk(band, tsel, works[j])
                    good = ~bad
                    for dst, src in zip(out, sets):
                        for n, arr in dst.items():
                            arr[sel[good]] = src[n][good]
                    if bad.any():
                        over = sel[bad]
                        exhausted = keys[over] - base_k[over] + 1 > _MAX_HALVINGS
                        if exhausted.any():
                            i0 = int(np.nonzero(bad)[0][np.argmax(exhausted)])
                            name = max(KERNEL_NAMES, key=lambda n: float(errs[n][i0]))
                            t, err = float(tsel[i0]), float(errs[name][i0])
                            raise QuadratureError(
                                f"kernel {name} did not reach tolerance at t={t:g} after "
                                f"{_MAX_HALVINGS} mesh halvings (epsilon={self.eps:g}, "
                                f"T={self.T:g}, eta={self.eta:g}, omega_c={self.omega_c:g}, "
                                f"rel_tol={_REL_TOL:g}, abs_tol={_ABS_TOL:g}; "
                                f"error estimate {err:.3g})")
                        keys[over] += 1

            list(map(sweep, range(len(works))))
            band = works = None  # neither outlives its rows
        return out, keys - base_k


def grid_steps(t_end: float, dt: float) -> int:
    """Steps of the grid {0, dt, ..., t_end}.  Raises DomainError unless
    t_end is finite and > 0, 0 < dt <= t_end, and t_end is an integer
    multiple of dt to within 1e-9 max(1, t_end)."""
    if not (0.0 < t_end < math.inf):
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    if not (0.0 < dt <= t_end):
        raise DomainError(f"dt must satisfy 0 < dt <= t_end, got {dt}")
    n = t_end / dt
    if not (n < math.inf and abs(round(n) * dt - t_end) <= 1e-9 * max(1.0, t_end)):
        raise DomainError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    return round(n)


def _uniform_grid(t_end: float, dt: float) -> np.ndarray:
    grid = np.arange(grid_steps(t_end, dt) + 1) * dt
    grid.flags.writeable = False
    return grid


def precompute(params: KernelParams, t_end: float, dt: float) -> KernelSet:
    """Sample all six kernels on the grid {0, dt, ..., t_end} and midpoints
    as time integrals of the closed-form bath correlation functions (the
    time-domain pass), at a cost linear in t_end.  Raises DomainError
    when a kernel overflows, as R, K and X do from T ~ 1e154 up."""
    grid = _uniform_grid(t_end, dt)
    vals = _time_domain(params, 2 * (grid.size - 1), 0.5 * dt)
    # a cumulative sum ends non-finite exactly when some step is
    bad = [n for n, a in vals.items() if not math.isfinite(a[-1])]
    if bad:
        raise DomainError(f"kernels {', '.join(bad)} overflow at T={params.T}")
    return KernelSet(grid=grid, values={n: a[0::2] for n, a in vals.items()},
                     half_values={n: a[1::2] for n, a in vals.items()}, params=params)


def frequency_pass(params: KernelParams, t_end: float, dt: float, temps,
                   workers: int = 1) -> tuple:
    """The six kernels on the grid {0, dt, ..., t_end} and midpoints by the
    frequency-domain pass, and R, K, X at each of ``temps`` (all > 0).

    Returns the set at ``params.T``, then one set per temperature in
    ``temps``, whose R, K, X use coth at that temperature on the mesh
    accepted at ``params.T`` and whose L, F, G are the first set's.  Their
    node coefficients are stacked with the base ones, so each trigonometric
    array is reduced once for all temperatures, and the first set does not
    depend on ``temps``.  Freezing the mesh keeps the kernels smooth in T,
    which the finite-difference temperature stencil relies on.
    Every value is bit-identical to a direct evaluation at its time alone.
    ``workers`` > 1 threads (numpy releases the GIL) share each band's chunks
    of times in the one sweep, so each band is built once; the output does
    not depend on the worker count.
    """
    grid = _uniform_grid(t_end, dt)
    # grid points and midpoints interleaved, evaluated in one pass
    ts = np.empty(2 * grid.size - 1)
    ts[0::2] = grid
    ts[1::2] = grid[:-1] + 0.5 * dt
    eng = _KernelEngine(params, temps)
    if workers > 1:
        # imported here: concurrent.futures costs ~5 ms of every CLI start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            sets, _ = eng.evaluate(ts, workers, ex.map)
    else:
        sets, _ = eng.evaluate(ts)
    for d in sets:
        for arr in d.values():
            arr.flags.writeable = False
    (g_vals, m_vals), *shifted = (
        ({n: a[0::2] for n, a in d.items()}, {n: a[1::2] for n, a in d.items()})
        for d in sets)
    return tuple(
        KernelSet(grid=grid, values={**g_vals, **gs}, half_values={**m_vals, **ms},
                  params=replace(params, T=T))
        for T, (gs, ms) in zip((params.T,) + eng.temps, [({}, {})] + shifted))
