import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubit_thermometry import (
    DomainError,
    KERNEL_NAMES,
    KernelParams,
    QuadratureError,
    SpectralDensity,
    precompute,
)
from qubit_thermometry import kernels
from qubit_thermometry.cli import main
from qubit_thermometry.kernels import THERMAL_KERNELS, frequency_pass

from oracles import (
    gamma_closed,
    kernel_L_closed,
    kernel_R_closed,
    kernel_R_T0,
    markov_K_limit,
    quad_gamma,
    riemann_gamma,
    riemann_kernel,
)

# frozen midpoint-Riemann references (n = 2e7, wmax = 100, converged to ~1e-13)
# at eta=0.05, omega_c=1, eps=0.5, T=0.2
RIEMANN_T1 = {
    "R": 2.998512465733198e-02,
    "K": 2.934349991558519e-02,
    "L": 2.499999999999996e-02,
    "X": 5.005009001318693e-03,
    "F": 2.380754963723134e-02,
    "G": 6.986370853451937e-03,
}
RIEMANN_T27 = {
    "R": 2.853358815967843e-02,
    "K": 2.875839468327407e-02,
    "L": 4.396863691194207e-02,
    "X": 3.622380912105348e-03,
    "F": 3.674006799684664e-02,
    "G": 2.019813300200331e-02,
}
# Gamma(1) at the same point from QUADPACK (oracles.quad_gamma); the closed
# form sits 2.2e-15 below it
GAMMA_T1 = 7.936864476889256e-02


@pytest.fixture(scope="module")
def ks_1e3(params):
    """Time-domain set at the headline point out to t = 1000."""
    return precompute(params, 1000.0, 0.5)


def _at(ks, t):
    """The six kernels of ``ks`` at its grid time nearest ``t``, and that time."""
    i = int(round(t / ks.dt))
    return {n: float(ks.values[n][i]) for n in KERNEL_NAMES}, float(ks.grid[i])


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 5.0])
def test_all_kernels_vanish_then_match_oracle(ks_short, t):
    vals, t = _at(ks_short, t)
    if t == 0.0:
        for name in KERNEL_NAMES:
            assert abs(vals[name]) < 1e-12
    else:
        for name in KERNEL_NAMES:
            ref = riemann_kernel(name, 0.05, 1.0, 0.5, 0.2, t, n=500_000)
            assert vals[name] == pytest.approx(ref, rel=1e-7, abs=1e-9)


def test_frozen_oracle_values(ks_short):
    v1, t1 = _at(ks_short, 1.0)
    v2, t2 = _at(ks_short, 2.7)
    assert (t1, t2) == (1.0, 2.7)
    for name in KERNEL_NAMES:
        assert v1[name] == pytest.approx(RIEMANN_T1[name], rel=1e-9)
        assert v2[name] == pytest.approx(RIEMANN_T27[name], rel=1e-9)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_R_closed_form_at_T0(sd, t):
    ks = precompute(KernelParams(sd=sd, epsilon=0.5, T=0.0), 10.0, 0.1)
    vals, t = _at(ks, t)
    assert vals["R"] == pytest.approx(kernel_R_T0(0.05, 1.0, t), rel=1e-8)


def test_L_long_time_limit(ks_1e3):
    # L(t) -> eta * omega_c; the residual at t = 1e3 is ~ eta/t^2
    assert ks_1e3.values["L"][-1] == pytest.approx(0.05, abs=1e-4)


def test_R_long_time_vanishes_at_T0(sd):
    ks = precompute(KernelParams(sd=sd, epsilon=0.5, T=0.0), 1000.0, 0.5)
    assert abs(ks.values["R"][-1]) < 1e-4


def test_K_long_time_markov_average(params):
    # tail average over one precession period approaches (pi/2) J(eps) coth(eps/2T);
    # the residual oscillation decays like 1/t
    dt = 2.0 * math.pi / 0.5 / 40
    ks = precompute(params, 680 * dt, dt)
    ts, K = ks.grid[640:], ks.values["K"][640:]  # t in [201, 213.6]
    avg = float(np.trapezoid(K, ts) / (ts[-1] - ts[0]))
    assert avg == pytest.approx(markov_K_limit(0.05, 1.0, 0.5, 0.2), rel=2e-2)


def test_eta_linearity(sd):
    p1 = KernelParams(sd=sd, epsilon=0.5, T=0.2)
    p2 = KernelParams(sd=SpectralDensity(eta=0.1), epsilon=0.5, T=0.2)
    k1 = precompute(p1, 17.0, 0.1)
    k2 = precompute(p2, 17.0, 0.1)
    for t in (0.4, 3.1, 17.0):
        v1, _ = _at(k1, t)
        v2, _ = _at(k2, t)
        for name in KERNEL_NAMES:
            assert v2[name] == pytest.approx(2.0 * v1[name], rel=1e-13, abs=1e-300)


def test_zero_coupling():
    p = KernelParams(sd=SpectralDensity(eta=0.0), epsilon=0.5, T=0.2)
    ks = precompute(p, 3.0, 0.1)
    for name in KERNEL_NAMES:
        assert np.all(ks.values[name] == 0.0) and np.all(ks.half_values[name] == 0.0)


def test_gapless_probe(sd):
    # eps = 0: denominators become -w^2; X and G vanish identically, F = L
    p = KernelParams(sd=sd, epsilon=0.0, T=0.2)
    vals, t = _at(precompute(p, 2.0, 0.1), 2.0)
    assert t == 2.0
    assert vals["X"] == 0.0
    assert vals["G"] == 0.0
    assert vals["F"] == pytest.approx(vals["L"], rel=1e-13)
    ref = riemann_kernel("K", 0.05, 1.0, 0.0, 0.2, 2.0, n=500_000)
    assert vals["K"] == pytest.approx(ref, rel=1e-7)


# -- the frequency-domain pass behind the temperature stencil ----------------------

def _kernels_with(monkeypatch, engine_at, params, t, **constants):
    """``engine_at`` with the named ``kernels`` module constants patched for
    this one call."""
    with monkeypatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(kernels, name, value)
        return engine_at(params, t)


def test_resonance_guard_insensitive(sd, monkeypatch, engine_at):
    # widening the direct-evaluation window 3x above the omega_c/16 floor
    # changes which panels take the direct path but must not move the values
    p = KernelParams(sd=sd, epsilon=0.5, T=0.2)
    for t in (1.0, 20.0):
        va = _kernels_with(monkeypatch, engine_at, p, t, _RESONANCE_GUARD=0.1)
        vb = _kernels_with(monkeypatch, engine_at, p, t, _RESONANCE_GUARD=0.3)
        for name in KERNEL_NAMES:
            assert abs(va[name] - vb[name]) <= 10.0 * kernels._REL_TOL * max(1.0, abs(va[name]))
        # any guard below the floor gives the default engine, bit for bit
        below = _kernels_with(monkeypatch, engine_at, p, t, _RESONANCE_GUARD=1e-5)
        assert below == engine_at(p, t)


def test_resonance_window_wider(sd, monkeypatch, engine_at):
    # a much wider direct window changes the path but not the value
    p = KernelParams(sd=sd, epsilon=0.5, T=0.2)
    for t in (1.0, 7.7):
        va = engine_at(p, t)
        vb = _kernels_with(monkeypatch, engine_at, p, t, _RESONANCE_GUARD=0.3)
        for name in KERNEL_NAMES:
            assert vb[name] == pytest.approx(va[name], rel=1e-9, abs=1e-12)


def test_truncation_consistency(params, monkeypatch, engine_at):
    for t in (1.0, 30.0):
        va = _kernels_with(monkeypatch, engine_at, params, t, _OMEGA_MAX_FACTOR=60.0)
        vb = _kernels_with(monkeypatch, engine_at, params, t, _OMEGA_MAX_FACTOR=120.0)
        for name in KERNEL_NAMES:
            assert abs(va[name] - vb[name]) < kernels._ABS_TOL


def test_panel_density_consistency(params, monkeypatch, engine_at):
    # doubling the panels-per-oscillation floor must not move the values
    for t in (5.0, 40.0):
        va = engine_at(params, t)
        vb = _kernels_with(monkeypatch, engine_at, params, t, _PANELS_PER_OSCILLATION=8)
        for name in KERNEL_NAMES:
            assert vb[name] == pytest.approx(va[name], rel=1e-8, abs=1e-11)


def test_negative_time_rejected(params, engine_at):
    with pytest.raises(DomainError):
        engine_at(params, -1.0)
    with pytest.raises(DomainError):
        kernels._KernelEngine(params).evaluate([-0.5])


def test_subnormal_time_evaluates_without_warning(params, engine_at):
    # 2 pi / t overflows to inf there; the mesh choice must still be silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = engine_at(params, 5e-324)
    assert abs(vals["R"]) <= kernels._ABS_TOL


def test_config_validation():
    with pytest.raises(DomainError):
        KernelParams(sd=SpectralDensity(eta=0.1), epsilon=-0.5, T=0.2)
    with pytest.raises(DomainError):
        KernelParams(sd=SpectralDensity(eta=0.1), epsilon=0.5, T=-0.1)


def test_decoherence_exponent_against_oracles():
    # the closed-form Gamma that the alpha = 0 trajectory oracle is built on
    got = gamma_closed(0.05, 1.0, 0.2, 1.0)
    assert got == pytest.approx(GAMMA_T1, rel=1e-12)
    assert got == pytest.approx(riemann_gamma(0.05, 1.0, 0.2, 1.0, n=500_000), rel=1e-7)
    # closed form at T = 0: Gamma = 2 eta ln(1 + t^2)
    for t in (0.5, 3.0, 20.0):
        assert gamma_closed(0.05, 1.0, 0.0, t) == pytest.approx(
            2 * 0.05 * math.log1p(t * t), rel=1e-9)
    assert gamma_closed(0.05, 1.0, 0.2, 0.0) == 0.0


def test_closed_form_gamma_against_quadpack():
    for T in (0.01, 0.2, 0.5):
        for t in (0.5, 1.0, 5.0, 20.0, 50.0):
            assert gamma_closed(0.05, 1.0, T, t) == pytest.approx(
                quad_gamma(0.05, 1.0, T, t), rel=1e-12)


# -- closed-form R and L ------------------------------------------------------------

def _within_engine_tolerance(got, want):
    return np.all(np.abs(got - want) <= np.maximum(kernels._ABS_TOL,
                                                   kernels._REL_TOL * np.abs(got)))


def test_R_L_closed_forms_at_headline(ks_1e3):
    # R = Gamma'/4 and L at T = 0.2, eta = 0.05, far tighter than the
    # 2M-point Riemann oracle (7e-13 to 3e-11 at these t)
    for t in (0.5, 1.0, 5.0, 20.0, 50.0, 200.0, 1000.0):
        vals, t = _at(ks_1e3, t)
        assert abs(vals["R"] - kernel_R_closed(0.05, 1.0, 0.2, t)) <= 1e-13
        assert abs(vals["L"] - kernel_L_closed(0.05, 1.0, t)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(t_end=st.floats(1e-6, 200.0), steps=st.integers(1, 400),
       T=st.floats(0.01, 0.5), eta=st.floats(0.0, 0.1), eps=st.floats(0.0, 2.0))
def test_R_L_match_closed_forms(t_end, steps, T, eta, eps):
    # every grid and midpoint value of a drawn grid
    dt = t_end / steps
    ks = precompute(KernelParams(sd=SpectralDensity(eta=eta), epsilon=eps, T=T), t_end, dt)
    mid = ks.grid[:-1] + 0.5 * dt
    for ts, vals in ((ks.grid, ks.values), (mid, ks.half_values)):
        assert _within_engine_tolerance(vals["R"], kernel_R_closed(eta, 1.0, T, ts))
        assert _within_engine_tolerance(vals["L"], kernel_L_closed(eta, 1.0, ts))


@pytest.mark.parametrize("T", [0.01, 0.2, 0.5])
def test_long_horizon_meets_closed_forms(T):
    p = KernelParams(sd=SpectralDensity(eta=0.1), epsilon=0.5, T=T)
    ks = precompute(p, 1e3, 0.5)
    assert ks.grid[-1] == 1e3
    assert _within_engine_tolerance(ks.values["R"][-1], kernel_R_closed(0.1, 1.0, T, 1e3))
    assert _within_engine_tolerance(ks.values["L"][-1], kernel_L_closed(0.1, 1.0, 1e3))


# -- the time-domain pass -------------------------------------------------------

def test_trigamma_against_mpmath():
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.uniform(1.0, 30.0, 200) + 1j * rng.uniform(-100.0, 100.0, 200),
                        [1.0, 1.0 + 100j, 1.0 - 100j, 1.01 + 0.5j, 11.0, 10.99 + 3j]])
    arg = z.copy()
    got = kernels._trigamma(arg)
    assert np.array_equal(arg, z)  # stepped in a copy, not in the argument
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.psi(1, complex(v))) for v in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    # one argument at a time takes the same path
    assert complex(kernels._trigamma(z[3])) == pytest.approx(want[3], rel=1e-15)


def _interleaved(ks, name):
    """``name`` at grid[0], grid[0] + dt/2, grid[1], ..., grid[-1]."""
    out = np.empty(2 * ks.grid.size - 1)
    out[0::2] = ks.values[name]
    out[1::2] = ks.half_values[name]
    return out


@pytest.mark.parametrize("omega_c,eps,T,dt", [
    (1.0, 0.5, 0.2, 0.01), (1.0, 2.0, 0.01, 1.0), (4.0, 0.5, 0.5, 5.0), (1.0, 0.0, 0.0, 0.2)])
def test_gauss_legendre_8_against_16(monkeypatch, omega_c, eps, T, dt):
    # the same panels under the 16-point rule: every half-step increment agrees
    p = KernelParams(sd=SpectralDensity(eta=0.05, omega_c=omega_c), epsilon=eps, T=T)
    a = precompute(p, 20.0, dt)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(kernels, "_GL_X", x16)
    monkeypatch.setattr(kernels, "_GL_W", w16)
    b = precompute(p, 20.0, dt)
    for name in KERNEL_NAMES:
        gap = np.diff(_interleaved(a, name)) - np.diff(_interleaved(b, name))
        assert np.max(np.abs(gap)) <= 1e-14


def test_quadrature_constants_match_numpy_polynomial():
    # the literals and the Clenshaw recursion against numpy.polynomial, 0 ulp
    x, w = np.polynomial.legendre.leggauss(8)
    proj = np.stack([(k + 0.5) * w * np.polynomial.legendre.legval(x, [0.0] * k + [1.0])
                     for k in range(8)])
    for got, want in ((kernels._GL_X, x), (kernels._GL_W, w), (kernels._PROJ, proj)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_step_block_does_not_change_values(params, monkeypatch):
    # one half step per block, then every step in one block, against the
    # default blocking, 0 ulp
    a = precompute(params, 50.0, 0.01)
    for nodes in (1, 10**9):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_STEP_BLOCK_NODES", nodes)
            b = precompute(params, 50.0, 0.01)
        for name in KERNEL_NAMES:
            assert np.array_equal(a.values[name], b.values[name])
            assert np.array_equal(a.half_values[name], b.half_values[name])


def test_wide_step_summed_in_panel_groups(sd, monkeypatch):
    # at eps = 1e4 a half step of 0.25 has 40,000 Gauss nodes, ~10 blocks:
    # the group sums agree with the unsplit sum to rounding
    p = KernelParams(sd=sd, epsilon=1e4, T=0.2)
    a = precompute(p, 1.0, 0.5)
    monkeypatch.setattr(kernels, "_STEP_BLOCK_NODES", 10**9)
    b = precompute(p, 1.0, 0.5)
    for name in KERNEL_NAMES:
        want = _interleaved(b, name)
        gap = np.abs(_interleaved(a, name) - want)
        assert np.max(gap) <= 1e-13 * np.max(np.abs(want))


def test_wide_step_work_arrays_stay_bounded(sd, traced_peak):
    # a half step of 400,000 nodes (eps = 1e5, dt = 0.5): measured 0.90 MB
    # in groups of whole panels, 76 MB as one block
    p = KernelParams(sd=sd, epsilon=1e5, T=0.2)
    assert traced_peak(lambda: precompute(p, 1.0, 0.5)) < 1.2e6


def test_time_domain_pass_work_arrays_stay_bounded(params, traced_peak):
    # fig1's pass (t_end 200) at the benchmark's dt 0.05 and the default
    # 0.01: measured 1.05 and 2.71 MB with 4,096-node blocks, each step sum
    # written into the returned set and summed there in place (0.42 and
    # 2.08 MB of it the returned set); 1.24 and 4.03 MB with the step sums
    # in arrays of their own; 32,768-node blocks reach 6.2 MB at dt 0.05
    assert traced_peak(lambda: precompute(params, 200.0, 0.05)) < 1.2e6
    assert traced_peak(lambda: precompute(params, 200.0, 0.01)) < 3.0e6


def test_frequency_pass_work_arrays_stay_bounded(params, traced_peak):
    # fig2's stencil pass (t_end 50, dt 0.05, four shifted temperatures):
    # measured 2.45 MB holding one mesh band at a time, its coefficient
    # stacks filled in place, with 16,384-element trig sub-blocks; 2.96 MB
    # with 65,536-element ones, 5.56 MB with every band cached, 8.70 MB with
    # whole-chunk trig arrays (the product buffer is bounded by the test below)
    temps = _stencil_temps(params.T)
    assert traced_peak(lambda: frequency_pass(params, 50.0, 0.05, temps)) < 2.8e6


def test_threaded_frequency_pass_work_arrays_stay_bounded(params, traced_peak):
    # the same pass on two threads: measured 3.44 MB with the threads sharing
    # each band's chunks, 4.72 MB with each thread sweeping its own share of
    # the times and building every band it reached
    temps = _stencil_temps(params.T)
    assert traced_peak(lambda: frequency_pass(params, 50.0, 0.05, temps, workers=2)) < 4.0e6


@pytest.mark.parametrize("m,n", [(11, 40_000), (11, 7_168), (7, 920), (1, 3)])
def test_reduce_rows_products_fit_the_block(m, n):
    # a buffer of max(_ROW_BLOCK_ELEMENTS, N) elements holds every block of
    # products, and each entry is the single-row sum, 0 ulp
    rng = np.random.default_rng(7)
    trig, rows = rng.standard_normal((5, n)), rng.standard_normal((m, n))
    out = np.empty((5, m))
    kernels._reduce_rows(trig, rows, out, np.empty(max(kernels._ROW_BLOCK_ELEMENTS, n)))
    for r in range(m):
        assert np.array_equal(out[:, r], kernels._sum_nodes(rows[r], trig))


@pytest.mark.parametrize("omega_c,eps,T", [(1.0, 0.5, 0.2), (4.0, 2.0, 0.01), (1.0, 0.0, 0.5)])
def test_dt_halving_invariance(omega_c, eps, T):
    p = KernelParams(sd=SpectralDensity(eta=0.05, omega_c=omega_c), epsilon=eps, T=T)
    for dt in (0.01, 0.05, 0.2, 1.0, 5.0):
        a = precompute(p, 50.0, dt)
        b = precompute(p, 50.0, dt / 2)
        for name in KERNEL_NAMES:
            assert np.max(np.abs(a.values[name] - b.values[name][::2])) <= 1e-13
            assert np.max(np.abs(a.half_values[name] - b.values[name][1::2])) <= 1e-13


@pytest.mark.parametrize("omega_c", [1.0, 4.0])
@pytest.mark.parametrize("eps", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("T", [0.0, 0.01, 0.2, 0.5])
def test_time_domain_matches_stencil_base_set(T, eps, omega_c):
    # the base set of the stencil pass does not depend on its companion
    # temperatures (checked to 0 ulp below), so one companion stands in
    p = KernelParams(sd=SpectralDensity(eta=0.05, omega_c=omega_c), epsilon=eps, T=T)
    for dt in (0.01, 0.05, 0.2, 1.0, 5.0):
        a = precompute(p, 5.0, dt)
        b = frequency_pass(p, 5.0, dt, (0.2,))[0]
        for name in KERNEL_NAMES:
            assert np.max(np.abs(a.values[name] - b.values[name])) <= 1e-12
            assert np.max(np.abs(a.half_values[name] - b.half_values[name])) <= 1e-12


# -- precompute ---------------------------------------------------------------

def test_precompute_grid_shape(params):
    ks = precompute(params, 5.0, 0.01)
    assert len(ks.grid) == 501
    assert len(ks.half_values["R"]) == 500
    assert ks.grid[0] == 0.0
    for name in KERNEL_NAMES:
        assert ks.values[name][0] == 0.0
        assert len(ks.values[name]) == 501


def _stencil_temps(T):
    return tuple(T * (1.0 + r) for r in (-2e-7, -1e-7, 1e-7, 2e-7))


@pytest.fixture(scope="module")
def ks_stencil_short(params):
    """Stencil-pass sets on ks_short's grid: the base set, then the four
    shifted ones."""
    return frequency_pass(params, 10.0, 0.01, _stencil_temps(params.T))


def test_precompute_matches_direct_calls_exactly(params, ks_stencil_short, engine_at):
    # the stencil pass evaluates every time on its own: batched == direct, 0 ulp
    ks = ks_stencil_short[0]
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(ks.grid), 20):
        direct = engine_at(params, float(ks.grid[i]))
        for name in KERNEL_NAMES:
            assert direct[name] == ks.values[name][i]  # same code path, 0 ulp
    for i in rng.integers(0, len(ks.grid) - 1, 5):
        direct = engine_at(params, float(ks.grid[i] + 0.005))
        for name in KERNEL_NAMES:
            assert direct[name] == ks.half_values[name][i]


def test_precompute_worker_count_invariance(params):
    # the stencil pass alone, then with a shifted temperature; the time-domain
    # pass has no workers
    for temps in ((), (0.2,)):
        a = frequency_pass(params, 3.0, 0.01, temps)
        b = frequency_pass(params, 3.0, 0.01, temps, workers=4)
        assert len(a) == len(b) == 1 + len(temps)
        for sa, sb in zip(a, b):
            for name in KERNEL_NAMES:
                assert np.array_equal(sa.values[name], sb.values[name])
                assert np.array_equal(sa.half_values[name], sb.half_values[name])


def test_precompute_validation(params):
    with pytest.raises(DomainError):
        precompute(params, 0.0, 0.01)
    with pytest.raises(DomainError):
        precompute(params, 1.0, 0.3)  # not an integer multiple
    for t_end in (math.inf, math.nan):
        with pytest.raises(DomainError, match="t_end must be finite and > 0"):
            precompute(params, t_end, 0.1)
    # R, K and X overflow from T = 1e154 up and fail naming T; below, the
    # thermal term's ~T^2 psi' is still finite
    hot = KernelParams(sd=params.sd, epsilon=params.epsilon, T=1e153)
    assert precompute(hot, 1.0, 0.5).values["R"][-1] == 7.853981633974485e151
    for T in (1e154, 1e160):
        hot = KernelParams(sd=params.sd, epsilon=params.epsilon, T=T)
        with pytest.raises(DomainError, match=re.escape(f"kernels R, K, X overflow at T={T}")):
            precompute(hot, 1.0, 0.5)


def test_thermal_kernels_only_depend_on_T(sd):
    pa = KernelParams(sd=sd, epsilon=0.5, T=0.1)
    pb = KernelParams(sd=sd, epsilon=0.5, T=0.3)
    ka = precompute(pa, 2.0, 0.05)
    kb = precompute(pb, 2.0, 0.05)
    for name in ("L", "F", "G"):
        # time integrals of mu, which does not depend on T
        np.testing.assert_allclose(ka.values[name], kb.values[name],
                                   rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(ka.values["R"] - kb.values["R"])) > 1e-4


def test_rebuild_for_temperature(params):
    # thermal kernels at a shifted temperature, from the base pass on its mesh
    ks, kr = frequency_pass(params, 10.0, 0.01, (0.3,))
    assert kr.params.T == 0.3
    for name in ("L", "F", "G"):
        assert kr.values[name] is ks.values[name]
    fresh = precompute(KernelParams(sd=params.sd, epsilon=0.5, T=0.3),
                       10.0, 0.01)
    for name in ("R", "K", "X"):
        np.testing.assert_allclose(kr.values[name], fresh.values[name],
                                   rtol=1e-9, atol=1e-12)
    for bad_T in (0.0, -0.1):
        with pytest.raises(DomainError):
            frequency_pass(params, 10.0, 0.01, (0.3, bad_T))


def _pass_levels(params, t_end, dt, temps):
    """The frequency-domain pass's refinement depth on its grid
    {0, dt, ..., t_end} and on the midpoints, as ``frequency_pass`` orders
    its times."""
    grid = kernels._uniform_grid(t_end, dt)
    ts = np.empty(2 * grid.size - 1)
    ts[0::2] = grid
    ts[1::2] = grid[:-1] + 0.5 * dt
    levels = kernels._KernelEngine(params, temps).evaluate(ts)[1]
    return levels[0::2], levels[1::2]


def test_shift_at_base_temperature_is_bit_identical(params):
    ks, same = frequency_pass(params, 10.0, 0.01, (params.T,))
    g_lv, m_lv = _pass_levels(params, 10.0, 0.01, (params.T,))
    assert g_lv.max() > 0 and m_lv.max() > 0  # refined rows covered
    for name in THERMAL_KERNELS:
        assert np.array_equal(same.values[name], ks.values[name])
        assert np.array_equal(same.half_values[name], ks.half_values[name])


def test_shifted_sets_independent_of_worker_count(params):
    temps = _stencil_temps(params.T)
    a = frequency_pass(params, 10.0, 0.01, temps, workers=1)
    b = frequency_pass(params, 10.0, 0.01, temps, workers=4)
    for sa, sb in zip(a[1:], b[1:]):
        assert sa.params == sb.params
        for name in KERNEL_NAMES:
            assert np.array_equal(sa.values[name], sb.values[name])
            assert np.array_equal(sa.half_values[name], sb.half_values[name])


def test_chunk_size_does_not_change_values(params, monkeypatch):
    # one time row per chunk, then per trig sub-block, then one time row and
    # one coefficient row per reduction block, against the default, 0 ulp
    temps = _stencil_temps(params.T)
    a = frequency_pass(params, 10.0, 0.05, temps)
    a_lv = _pass_levels(params, 10.0, 0.05, temps)
    assert a_lv[0].max() > 0 and a_lv[1].max() > 0  # refined rows covered
    for constant in ("_CHUNK_ELEMENTS", "_TRIG_BLOCK_ELEMENTS", "_ROW_BLOCK_ELEMENTS"):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, constant, 1)
            b = frequency_pass(params, 10.0, 0.05, temps)
            b_lv = _pass_levels(params, 10.0, 0.05, temps)
        assert np.array_equal(a_lv[0], b_lv[0])
        assert np.array_equal(a_lv[1], b_lv[1])
        for sa, sb in zip(a, b):
            assert sa.params == sb.params
            for name in KERNEL_NAMES:
                assert np.array_equal(sa.values[name], sb.values[name])
                assert np.array_equal(sa.half_values[name], sb.half_values[name])


def test_each_band_built_once_per_pass(params, monkeypatch):
    # one ascending sweep over band keys builds each band its times reach
    # exactly once, on one thread and on four sharing its chunks
    temps = _stencil_temps(params.T)
    eng = kernels._KernelEngine(params, temps)
    grid = kernels._uniform_grid(10.0, 0.05)
    base = [eng._width_exponent(t) for t in np.concatenate((grid, grid[:-1] + 0.025))]
    levels = np.concatenate(_pass_levels(params, 10.0, 0.05, temps))
    assert levels.max() > 0  # refined rows covered
    bands = {b + j for b, lv in zip(base, levels.tolist()) for j in range(lv + 1)}
    built, build = [], kernels._KernelEngine._band

    def counting_band(self, k):
        built.append(k)
        return build(self, k)

    monkeypatch.setattr(kernels._KernelEngine, "_band", counting_band)
    frequency_pass(params, 10.0, 0.05, temps, workers=1)
    assert sorted(built) == sorted(bands)
    built.clear()
    frequency_pass(params, 10.0, 0.05, temps, workers=4)
    assert sorted(built) == sorted(bands)


def test_base_set_independent_of_shifted_temperatures(params, ks_stencil_short):
    # stacking more shifted rows into the reductions never changes a base sum
    one = frequency_pass(params, 10.0, 0.01, (params.T,))[0]
    stencil = ks_stencil_short[0]
    one_lv = _pass_levels(params, 10.0, 0.01, (params.T,))
    stencil_lv = _pass_levels(params, 10.0, 0.01, _stencil_temps(params.T))
    assert one_lv[0].max() > 0 and one_lv[1].max() > 0  # refined rows covered
    assert np.array_equal(one_lv[0], stencil_lv[0])
    assert np.array_equal(one_lv[1], stencil_lv[1])
    for name in KERNEL_NAMES:
        assert np.array_equal(one.values[name], stencil.values[name])
        assert np.array_equal(one.half_values[name], stencil.half_values[name])


def test_shifted_value_independent_of_companion_temperatures(params):
    temps = _stencil_temps(params.T)
    among = frequency_pass(params, 10.0, 0.01, temps)[3]
    alone = frequency_pass(params, 10.0, 0.01, temps[2:3])[1]
    for name in THERMAL_KERNELS:
        assert np.array_equal(alone.values[name], among.values[name])
        assert np.array_equal(alone.half_values[name], among.half_values[name])


def test_quadrature_error_names_parameters(params, monkeypatch, engine_at):
    monkeypatch.setattr(kernels, "_REL_TOL", 1e-30)
    monkeypatch.setattr(kernels, "_ABS_TOL", 1e-30)
    with pytest.raises(QuadratureError) as info:
        engine_at(params, 1.0)
    msg = str(info.value)
    name = msg.split()[1]
    assert name in KERNEL_NAMES
    assert msg.startswith(f"kernel {name} did not reach tolerance at t=1 after 6 mesh halvings")
    assert "error estimate " in msg
    assert "(epsilon=0.5, T=0.2, eta=0.05, omega_c=1, rel_tol=1e-30, abs_tol=1e-30;" in msg


def test_quadrature_error_raised_in_a_worker_thread(params, monkeypatch):
    # the threaded sweep re-raises a chunk's error in the calling thread
    monkeypatch.setattr(kernels, "_REL_TOL", 1e-30)
    monkeypatch.setattr(kernels, "_ABS_TOL", 1e-30)
    with pytest.raises(QuadratureError) as info:
        frequency_pass(params, 2.0, 0.05, (), workers=4)
    msg = str(info.value)
    name = msg.split()[1]
    assert name in KERNEL_NAMES
    assert re.match(rf"kernel {name} did not reach tolerance at t=\S+ after 6 mesh halvings ", msg)
    assert "(epsilon=0.5, T=0.2, eta=0.05, omega_c=1, " in msg


def test_kernelset_csv(tmp_path, ks_short):
    # dump-kernels at the defaults (eps=0.5, T=0.2, eta=0.05) on ks_short's grid
    assert main(["dump-kernels", "--t-end", "10", "--dt", "0.01",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "kernels.csv").read_text().splitlines()
    assert lines[0] == "t,R,K,L,X,F,G"
    assert len(lines) == len(ks_short.grid) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0] * 7
    row = [float(v) for v in lines[101].split(",")]
    assert row[0] == 1.0
    assert row[1] == ks_short.values["R"][100]  # 17 significant digits round-trip
