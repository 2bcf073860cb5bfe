"""Frequency-integral coefficients of the generalized Bloch equations.

Six time-dependent kernels drive the probe dynamics:

    R(t) = int_0^inf J(w) coth(w/2T) sin(t w) / w dw
    K(t) = int_0^inf J(w) coth(w/2T) [e sin(e t) cos(t w) - w cos(e t) sin(t w)] / (e^2 - w^2) dw
    L(t) = int_0^inf J(w) (1 - cos(t w)) / w dw
    X(t) = int_0^inf J(w) coth(w/2T) [-w sin(e t) sin(t w) - e cos(e t) cos(t w) + e] / (e^2 - w^2) dw
    F(t) = int_0^inf J(w) [e sin(e t) sin(t w) + w cos(e t) cos(t w) - w] / (e^2 - w^2) dw
    G(t) = int_0^inf J(w) [w sin(e t) cos(t w) - e cos(e t) sin(t w)] / (e^2 - w^2) dw

with e the qubit splitting.  Each resonant numerator vanishes at w = e, so
the singularity is removable.  We never evaluate the raw ratio: product-to-sum
identities reduce every resonant integrand to combinations of

    g(v) = sin(v t) / (2 v),      h(v) = (1 - cos(v t)) / (2 v),

with v = e - w or v = e + w, and both g and h are entire in v:

    K-factor = g(e-w) + g(e+w)        X-factor = h(e-w) + h(e+w)
    G-factor = g(e-w) - g(e+w)        F-factor = h(e+w) - h(e-w)

Quadrature is composite 8-point Gauss-Legendre.  Panel width is capped by
min(omega_c/4, (2 pi / t) / panels_per_oscillation), halved in quantized
steps as t grows so any time can be re-evaluated bit-identically on its own;
the first panel is geometrically refined below the thermal scale min(T,
omega_c); a boundary is pinned at w = e; the exponential envelope bounds the
neglected tail analytically.  Away from the resonance window the g/h factors
are assembled from sin(t w), cos(t w) by angle addition, so all six kernels
share two trigonometric arrays per time point; panels inside the window
evaluate g/h directly in series-guarded form.

The error estimate splits per panel into (a) the Gauss error of the pure
oscillation exp(i kappa x), kappa = t * halfwidth, computed exactly from a
few scalars per time and multiplied by the panel's smooth-factor mass, and
(b) a static truncation term from the top Legendre coefficients of the
t-independent smooth factors.  If any kernel misses its tolerance the whole
mesh is bisected and the point re-evaluated (budget: 6 halvings).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError
from .spectral import SpectralDensity

__all__ = [
    "KernelParams",
    "QuadratureConfig",
    "KernelSet",
    "KERNEL_NAMES",
    "THERMAL_KERNELS",
    "kernels_at",
    "decoherence_exponent",
    "precompute",
    "rebuild_for_temperature",
]

KERNEL_NAMES = ("R", "K", "L", "X", "F", "G")

# Kernels carrying the coth(w/2T) occupation factor; the rest are T-independent.
THERMAL_KERNELS = ("R", "K", "X")

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
# Discrete Legendre projections c_k of the degree-7 interpolant on a panel.
_PROJ = np.stack([
    (k + 0.5) * _GL_W * np.polynomial.legendre.legval(_GL_X, [0.0] * k + [1.0])
    for k in range(8)
])

_OSC_INFLATE = 8.0        # modulation allowance on the pure-oscillation error
_MAX_HALVINGS = 6
_CHUNK_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the frequency integrals.

    rel_tol / abs_tol: per-kernel tolerance, err <= max(abs_tol, rel_tol*|value|).
    omega_max_factor: hard upper truncation at omega_max_factor * omega_c.
    panels_per_oscillation: minimum panels per period 2 pi / t of the integrand.
    resonance_guard: half-width around w = eps evaluated by the series-guarded
        direct path (floored internally at omega_c/16 so the partial-fraction
        coefficients stay well conditioned).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    omega_max_factor: float = 60.0
    panels_per_oscillation: int = 4
    resonance_guard: float = 1e-4

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if not (self.omega_max_factor >= 10.0):
            raise DomainError("omega_max_factor must be >= 10")
        if not (self.panels_per_oscillation >= 2):
            raise DomainError("panels_per_oscillation must be >= 2")
        if not (self.resonance_guard > 0.0):
            raise DomainError("resonance_guard must be positive")


@dataclass(frozen=True)
class KernelParams:
    """Physical inputs of the kernel integrals: bath, splitting, temperature."""

    sd: SpectralDensity
    epsilon: float
    T: float

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (self.T >= 0.0):
            raise DomainError(f"temperature must be >= 0, got {self.T}")


@dataclass
class KernelSet:
    """Kernels sampled on a uniform time grid plus its midpoints.

    ``values[name][i]`` is the kernel at ``grid[i]``; ``half_values[name][i]``
    at ``grid[i] + dt/2``.  Arrays are read-only.  ``levels``/``half_levels``
    record the mesh-refinement depth actually used per time so that rebuilding
    the thermal kernels at a stencil-shifted temperature reuses the identical
    mesh, keeping finite differences in T smooth.
    """

    grid: np.ndarray
    values: dict
    half_values: dict
    params: KernelParams
    quad: QuadratureConfig
    levels: np.ndarray = field(repr=False, default=None)
    half_levels: np.ndarray = field(repr=False, default=None)
    mesh_T: float = None

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,R,K,L,X,F,G\n")
            cols = [self.values[k] for k in KERNEL_NAMES]
            for i, t in enumerate(self.grid):
                row = ",".join(f"{c[i]:.17g}" for c in cols)
                fh.write(f"{t:.17g},{row}\n")


def _thermal_weight(omega: np.ndarray, T: float, omega_c: float) -> np.ndarray:
    """coth(w/2T) on positive nodes, switching to the Laurent series
    coth(w/2T) = 2T/w + w/6T - w^3/360T^3 below 1e-3*min(T, omega_c)."""
    if T == 0.0:
        return np.ones_like(omega)
    coth = 1.0 / np.tanh(omega / (2.0 * T))
    w_small = 1e-3 * min(T, omega_c)
    small = omega < w_small
    if np.any(small):
        om = omega[small]
        coth[small] = 2.0 * T / om + om / (6.0 * T) - om**3 / (360.0 * T**3)
    return coth


def _sum_nodes(vec: np.ndarray, trig: np.ndarray) -> np.ndarray:
    # (N,) x (nt, N) -> (nt,); reduction order along the node axis is fixed,
    # so results do not depend on how times are batched.
    return (vec * trig).sum(axis=1)


class _Band:
    """Node set and folded coefficient data for one mesh-refinement level."""

    __slots__ = (
        "n_panels", "omega", "vR", "vL", "vP", "vQ", "vF", "vG",
        "const_L", "const_X", "const_F",
        "class_h", "mass_L", "mass_KX", "mass_FG",
        "mass_R_inv", "mass_R_flat", "mass_Gam_inv", "mass_Gam_flat",
        "stat_L", "stat_KX", "stat_FG",
        "stat_R_inv", "stat_R_flat", "stat_Gam_inv", "stat_Gam_flat",
        "p_wq", "p_btil", "p_jtil", "p_vm", "p_vp", "p_hmax",
        "vGam",
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
    """Evaluates the six kernels (and the pure-dephasing exponent) at
    arbitrary times for one (params, quad) pair, caching per-band geometry.

    ``mesh_T`` decouples the mesh geometry from the occupation factors so a
    temperature-stencil rebuild can evaluate coth at a shifted T on the exact
    mesh of the base run.
    """

    def __init__(self, params: KernelParams, quad: QuadratureConfig, mesh_T: float = None):
        self.params = params
        self.quad = quad
        self.omega_c = params.sd.omega_c
        self.eta = params.sd.eta
        self.eps = params.epsilon
        self.T = params.T
        self.mesh_T = params.T if mesh_T is None else mesh_T
        self.w0 = self.omega_c / 4.0
        self.w_near = max(quad.resonance_guard, self.omega_c / 16.0)
        self._bands: dict = {}
        self._cut, self.tail_bound = self._choose_cut()

    # -- mesh geometry -------------------------------------------------------

    def _choose_cut(self):
        """Truncation point a with analytic tail bound <= abs_tol/4.

        Every integrand is bounded by 3 coth(a/2T) eta e^{-w/omega_c} for
        w >= a >= max(2 eps, 3 omega_c), which integrates to
        3 coth(a/2T) eta omega_c e^{-a/omega_c}.
        """
        oc = self.omega_c
        w_max = self.quad.omega_max_factor * oc
        j_min = max(3, math.ceil(2.0 * self.eps / oc) + 1)
        budget = 0.25 * self.quad.abs_tol
        for j in range(j_min, int(self.quad.omega_max_factor) + 1):
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
        need = (2.0 * math.pi / t) / self.quad.panels_per_oscillation
        if need >= self.w0:
            return 0
        return math.ceil(math.log2(self.w0 / need))

    def _bounds(self, k: int) -> np.ndarray:
        w = self.w0 / (2.0**k)
        n_uniform = int(math.ceil(self._cut / w - 1e-12))
        bounds = list(w * np.arange(1, n_uniform)) + [self._cut]
        first = [0.0]
        Tm = self.mesh_T
        if Tm > 0.0:
            target = min(Tm, self.omega_c) / 4.0
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
        band = self._bands.get(k)
        if band is not None:
            return band
        bounds = self._bounds(k)
        centers = 0.5 * (bounds[1:] + bounds[:-1])
        halfw = 0.5 * (bounds[1:] - bounds[:-1])
        P = len(centers)
        omega = (centers[:, None] + halfw[:, None] * _GL_X[None, :]).ravel()
        wq = (halfw[:, None] * _GL_W[None, :]).ravel()

        E = self.eta * np.exp(-omega / self.omega_c)
        coth = _thermal_weight(omega, self.T, self.omega_c)
        btil = E * omega * coth          # J * coth
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

        sR = E * coth
        sL = E
        sP = btil * (i2vm + i2vp)
        sQ = btil * (i2vp - i2vm)
        sF = jtil * (i2vm - i2vp)
        sG = jtil * (i2vm + i2vp)
        sGam = 8.0 * E * coth / omega

        b = _Band()
        b.n_panels = P
        b.omega = omega
        b.vR = wq * sR
        b.vL = wq * sL
        b.vP = wq * sP
        b.vQ = wq * sQ
        b.vF = wq * sF
        b.vG = wq * sG
        b.vGam = wq * sGam
        ones = np.ones((1, omega.size))
        b.const_L = float(_sum_nodes(b.vL, ones)[0])
        b.const_X = float(_sum_nodes(b.vP, ones)[0])
        b.const_F = -float(_sum_nodes(b.vF, ones)[0])

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

        # R pairs E*w*coth with sin(t w)/w, |basis| <= min(t, 1/w); Gamma
        # pairs 8*E*w*coth with sin^2(t w/2)/w^2, |basis| <= min(t^2/4, 1/w^2).
        # Both caps are kept as separate static masses and combined per time.
        inv_w = 1.0 / np.maximum(bounds[:-1], 0.5 * halfw)
        b.mass_R_inv, b.stat_R_inv = mass_stat(btil, amp=inv_w)
        b.mass_R_flat, b.stat_R_flat = mass_stat(btil)
        mL, sLst = mass_stat(sL)
        mP, sPst = mass_stat(sP)
        mQ, sQst = mass_stat(sQ)
        mF, sFst = mass_stat(sF)
        mG, sGst = mass_stat(sG)
        b.mass_Gam_inv, b.stat_Gam_inv = mass_stat(8.0 * btil, amp=inv_w**2)
        b.mass_Gam_flat, b.stat_Gam_flat = mass_stat(8.0 * btil)
        b.mass_L, b.stat_L = mL, sLst
        b.mass_KX, b.stat_KX = mP + mQ, sPst + sQst
        b.mass_FG, b.stat_FG = mF + mG, sFst + sGst

        idx = np.nonzero(patch_node)[0]
        b.p_wq = wq[idx]
        b.p_btil = btil[idx]
        b.p_jtil = jtil[idx]
        b.p_vm = vm[idx]
        b.p_vp = vp[idx]
        b.p_hmax = float(halfw[patch_panel].max()) if patch_panel.any() else 0.0

        self._bands[k] = b
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

    def _eval_chunk(self, band: _Band, ts: np.ndarray, want_err: bool,
                    which=KERNEL_NAMES):
        """Kernel values (and error estimates) for times sharing one band.

        Only the requested kernels are reduced; a kernel's value never
        depends on which others were requested alongside it.
        """
        tw = ts[:, None] * band.omega[None, :]
        S = np.sin(tw)
        C = np.cos(tw)
        del tw
        st = np.sin(self.eps * ts)
        ct = np.cos(self.eps * ts)
        which = frozenset(which)
        need_pq = which & {"K", "X"}
        need_fg = which & {"F", "G"}

        vals = {}
        if "R" in which:
            vals["R"] = _sum_nodes(band.vR, S)
        if "L" in which:
            vals["L"] = band.const_L - _sum_nodes(band.vL, C)
        if need_pq:
            rP = _sum_nodes(band.vP, C)
            rQ = _sum_nodes(band.vQ, S)
            if "K" in which:
                vals["K"] = st * rP + ct * rQ
            if "X" in which:
                vals["X"] = band.const_X - ct * rP + st * rQ
        if need_fg:
            rF = _sum_nodes(band.vF, C)
            rG = _sum_nodes(band.vG, S)
            if "F" in which:
                vals["F"] = band.const_F + ct * rF + st * rG
            if "G" in which:
                vals["G"] = st * rF - ct * rG

        patch_amp = {}
        if band.p_wq.size and (need_pq or need_fg):
            t_col = ts[:, None]
            um = t_col * band.p_vm[None, :]
            up = t_col * band.p_vp[None, :]
            gm, hm = self._g_h(band.p_vm[None, :], um, t_col)
            gp, hp = self._g_h(band.p_vp[None, :], up, t_col)
            pieces = {"K": lambda: band.p_btil * (gm + gp),
                      "X": lambda: band.p_btil * (hm + hp),
                      "F": lambda: band.p_jtil * (hp - hm),
                      "G": lambda: band.p_jtil * (gm - gp)}
            for name in ("K", "X", "F", "G"):
                if name in which:
                    f = pieces[name]()
                    vals[name] = vals[name] + _sum_nodes(band.p_wq, f)
                    if want_err:
                        patch_amp[name] = (band.p_wq * np.abs(f)).sum(axis=1)

        errs = None
        if want_err:
            osc = _OSC_INFLATE * _osc_error(ts[:, None] * band.class_h[None, :])
            # every basis function is bounded by min(1, t*w) on the range
            amp_t = np.minimum(1.0, ts * self._cut)
            t_col = ts[:, None]
            errs = {}
            p_err = None
            for name in which:
                if name == "R":
                    mass = np.minimum(band.mass_R_inv[None, :],
                                      t_col * band.mass_R_flat[None, :])
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
                if name in patch_amp:
                    if p_err is None:
                        p_err = _OSC_INFLATE * _osc_error(ts * band.p_hmax)
                    err = err + p_err * patch_amp[name]
                errs[name] = err
        return vals, errs

    def _gamma_chunk(self, band: _Band, ts: np.ndarray, want_err: bool):
        s2 = np.sin((0.5 * ts)[:, None] * band.omega[None, :]) ** 2
        val = _sum_nodes(band.vGam, s2)
        err = None
        if want_err:
            osc = _OSC_INFLATE * _osc_error(ts[:, None] * band.class_h[None, :])
            t2 = 0.25 * ts * ts
            mass = np.minimum(band.mass_Gam_inv[None, :],
                              t2[:, None] * band.mass_Gam_flat[None, :])
            err = (osc * mass).sum(axis=1)
            err = err + np.minimum(band.stat_Gam_inv, t2 * band.stat_Gam_flat)
            err = err + self.tail_bound
        return {"Gamma": val}, {"Gamma": err}

    # -- public evaluation ---------------------------------------------------------

    def _tol(self, value: np.ndarray) -> np.ndarray:
        return np.maximum(self.quad.abs_tol, self.quad.rel_tol * np.abs(value))

    def evaluate(self, ts, which=KERNEL_NAMES, fixed_levels=None, gamma=False):
        """Evaluate at times ``ts``.

        Returns (values, levels): ``values`` maps each requested kernel (or
        "Gamma") to an array over ts; ``levels`` records the refinement depth
        used.  With ``fixed_levels`` the adaptive loop is skipped and the given
        mesh depths are reused verbatim (no error control; used for
        temperature-stencil rebuilds on a frozen mesh).
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size and (not np.all(np.isfinite(ts)) or np.any(ts < 0.0)):
            raise DomainError("kernel times must be finite and >= 0")
        names = ("Gamma",) if gamma else tuple(which)
        out = {n: np.empty(ts.shape) for n in names}
        levels = np.zeros(ts.shape, dtype=np.int64)
        if fixed_levels is not None:
            levels[:] = fixed_levels
        adaptive = fixed_levels is None
        base_k = np.array([self._width_exponent(t) for t in ts], dtype=np.int64)
        pending = np.arange(ts.size)

        while pending.size:
            keys = base_k[pending] + levels[pending]
            still = []
            for k in np.unique(keys):
                idx = pending[keys == k]
                band = self._band(int(k))
                chunk = max(1, _CHUNK_ELEMENTS // len(band.omega))
                for lo in range(0, idx.size, chunk):
                    sel = idx[lo:lo + chunk]
                    tsel = ts[sel]
                    if gamma:
                        vals, errs = self._gamma_chunk(band, tsel, adaptive)
                    else:
                        vals, errs = self._eval_chunk(band, tsel, adaptive, which=names)
                    if adaptive:
                        bad = np.zeros(len(sel), dtype=bool)
                        for n in names:
                            bad |= errs[n] > self._tol(vals[n])
                    else:
                        bad = np.zeros(len(sel), dtype=bool)
                    good = ~bad
                    for n in names:
                        out[n][sel[good]] = vals[n][good]
                    if bad.any():
                        over = sel[bad]
                        exhausted = levels[over] + 1 > _MAX_HALVINGS
                        if exhausted.any():
                            i0 = int(np.nonzero(bad)[0][np.argmax(exhausted)])
                            name = max(names, key=lambda n: float(errs[n][i0]))
                            raise QuadratureError(
                                f"kernel {name} did not reach tolerance at "
                                f"t={tsel[i0]:g} after {_MAX_HALVINGS} mesh halvings",
                                achieved_error=float(errs[name][i0]),
                                kernel=name,
                                t=float(tsel[i0]),
                            )
                        levels[over] += 1
                        still.append(over)
            pending = np.concatenate(still) if still else np.empty(0, dtype=np.int64)
        return out, levels


def kernels_at(params, t, quad=QuadratureConfig()) -> dict:
    """All six kernels at one time (they share the quadrature mesh)."""
    if not (t >= 0.0):
        raise DomainError(f"kernel time must be >= 0, got {t}")
    vals, _ = _KernelEngine(params, quad).evaluate([t])
    return {n: float(vals[n][0]) for n in KERNEL_NAMES}


def decoherence_exponent(params, t, quad=QuadratureConfig()) -> float:
    """Pure-dephasing exponent Gamma(t) = 4 int_0^inf J coth(w/2T) (1-cos wt)/w^2 dw."""
    if not (t >= 0.0):
        raise DomainError(f"time must be >= 0, got {t}")
    vals, _ = _KernelEngine(params, quad).evaluate([t], gamma=True)
    return float(vals["Gamma"][0])


def _uniform_grid(t_end: float, dt: float) -> np.ndarray:
    if not (t_end > 0.0):
        raise DomainError(f"t_end must be > 0, got {t_end}")
    if not (0.0 < dt <= t_end):
        raise DomainError(f"dt must satisfy 0 < dt <= t_end, got {dt}")
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise DomainError(f"t_end={t_end} is not an integer multiple of dt={dt}")
    return np.arange(n + 1) * dt


def precompute(params: KernelParams, t_end: float, dt: float,
               quad: QuadratureConfig = QuadratureConfig(),
               workers: int = None) -> KernelSet:
    """Sample all six kernels on the grid {0, dt, ..., t_end} and midpoints.

    Grid entries are bit-identical to direct kernels_at calls at the same times.
    ``workers`` > 1 splits the time axis across threads (numpy releases the
    GIL); the output does not depend on the worker count.
    """
    grid = _uniform_grid(t_end, dt)
    mids = grid[:-1] + 0.5 * dt
    eng = _KernelEngine(params, quad)

    if workers and workers > 1 and grid.size > 64:
        n_chunks = min(workers * 4, grid.size)
        g_parts = np.array_split(np.arange(grid.size), n_chunks)
        m_parts = np.array_split(np.arange(mids.size), n_chunks)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            g_res = list(ex.map(lambda ix: eng.evaluate(grid[ix]), g_parts))
            m_res = list(ex.map(lambda ix: eng.evaluate(mids[ix]), m_parts))
        g_vals = {n: np.concatenate([r[0][n] for r in g_res]) for n in KERNEL_NAMES}
        g_lv = np.concatenate([r[1] for r in g_res])
        m_vals = {n: np.concatenate([r[0][n] for r in m_res]) for n in KERNEL_NAMES}
        m_lv = np.concatenate([r[1] for r in m_res])
    else:
        g_vals, g_lv = eng.evaluate(grid)
        m_vals, m_lv = eng.evaluate(mids)

    for d in (g_vals, m_vals):
        for arr in d.values():
            arr.flags.writeable = False
    grid.flags.writeable = False
    return KernelSet(grid=grid, values=g_vals, half_values=m_vals,
                     params=params, quad=quad, levels=g_lv, half_levels=m_lv,
                     mesh_T=params.T)


def rebuild_for_temperature(base: KernelSet, T: float) -> KernelSet:
    """Kernel set at a shifted temperature on the base set's frozen mesh.

    Only the coth-bearing kernels (R, K, X) are recomputed; L, F, G are
    temperature independent and shared with the base set.  Freezing the mesh
    (geometry and refinement depth) makes the kernels a smooth function of T,
    which the finite-difference temperature stencil relies on.
    """
    if not (T > 0.0):
        raise DomainError(f"shifted temperature must be > 0, got {T}")
    params = KernelParams(sd=base.params.sd, epsilon=base.params.epsilon, T=T)
    eng = _KernelEngine(params, base.quad, mesh_T=base.mesh_T)
    mids = base.grid[:-1] + 0.5 * base.dt
    g_vals, _ = eng.evaluate(base.grid, which=THERMAL_KERNELS, fixed_levels=base.levels)
    m_vals, _ = eng.evaluate(mids, which=THERMAL_KERNELS, fixed_levels=base.half_levels)
    for name in KERNEL_NAMES:
        if name not in THERMAL_KERNELS:
            g_vals[name] = base.values[name]
            m_vals[name] = base.half_values[name]
    for d in (g_vals, m_vals):
        for arr in d.values():
            if arr.flags.writeable:
                arr.flags.writeable = False
    return KernelSet(grid=base.grid, values=g_vals, half_values=m_vals,
                     params=params, quad=base.quad, levels=base.levels,
                     half_levels=base.half_levels, mesh_T=base.mesh_T)
