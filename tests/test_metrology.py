import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qubit_thermometry import (
    KERNEL_NAMES,
    ConfigurationError,
    DomainError,
    NumericError,
    ProbeConfig,
    QuadratureError,
    SpectralDensity,
    cfi,
    integrate,
    integrate_lanes,
    markov_comparator,
    qfi,
)
from qubit_thermometry import kernels, metrology
from qubit_thermometry.dynamics import PHYSICALITY_SLACK
from qubit_thermometry.kernels import frequency_pass
from qubit_thermometry.metrology import (
    MetrologyResult,
    _stencil_bundle,
    _stencil_derivative,
    loglog_slope,
    stencil_scans,
)

from oracles import five_point_derivative


# -- stencil ---------------------------------------------------------------------

def test_stencil_exact_on_quartic():
    d = five_point_derivative(lambda x: x**4, 1.0, 1e-3)
    assert d == pytest.approx(4.0, rel=1e-10)
    d = five_point_derivative(lambda x: 2 * x**4 - 3 * x**2 + x, 0.7, 1e-3)
    assert d == pytest.approx(8 * 0.7**3 - 6 * 0.7 + 1, rel=1e-10)


@pytest.mark.parametrize("f,df", [
    (math.sin, math.cos(1.3)),
    (math.exp, math.exp(1.3)),
    (lambda x: x**3, 3 * 1.3**2),
])
def test_stencil_on_analytic_functions(f, df):
    assert five_point_derivative(f, 1.3, 1e-3) == pytest.approx(df, rel=1e-10)


def test_stencil_config_bounds():
    with pytest.raises(DomainError):
        five_point_derivative(math.sin, 0.0, 0.0)


# -- qfi / cfi ---------------------------------------------------------------------

def test_qfi_zero_derivative():
    assert qfi((0.3, 0.2, 0.1), (0.0, 0.0, 0.0)) == 0.0


def test_qfi_identity_metric_at_origin():
    assert qfi((0.0, 0.0, 0.0), (0.1, 0.2, 0.3)) == pytest.approx(0.14, rel=1e-14)


def test_qfi_rank_one_correction():
    assert qfi((0.6, 0.0, 0.0), (0.1, 0.0, 0.0)) == pytest.approx(0.015625, rel=1e-12)


def test_qfi_pure_state_paths():
    # tangent derivative on the shell uses the pure-state limit
    assert qfi((1.0, 0.0, 0.0), (0.0, 0.2, 0.0)) == pytest.approx(0.04, rel=1e-14)
    assert qfi((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(NumericError):
        qfi((1.0, 0.0, 0.0), (0.1, 0.0, 0.0))  # radial derivative is inconsistent
    with pytest.raises(DomainError):
        qfi((1.1, 0.0, 0.0), (0.1, 0.0, 0.0))


def test_qfi_just_inside_the_shell_keeps_the_mixed_term():
    # 1 - |D|^2 = 1e-12 stands far above the rounding floor of |D|^2, so a
    # radial derivative is physical there and dominates the QFI
    D = (math.sqrt(1.0 - 1e-12), 0.0, 0.0)
    d = (1e-10, 1e-10, 0.0)
    want = 2e-20 + (D[0] * 1e-10) ** 2 / (1.0 - D[0] * D[0])
    assert want > 1e-9
    assert qfi(D, d) == pytest.approx(want, rel=1e-12)


def test_cfi_values_and_errors():
    assert cfi("x", (0.5, 0, 0), (0.0, 1, 1)) == 0.0
    assert cfi("x", (0.0, 0, 0), (0.2, 0, 0)) == pytest.approx(0.04, rel=1e-14)
    assert cfi("z", (0, 0, 0.6), (0, 0, 0.1)) == pytest.approx(0.01 / 0.64, rel=1e-14)
    assert cfi("z", (0, 0, 1.0), (0, 0, 0.0)) == 0.0
    with pytest.raises(NumericError):
        cfi("x", (1.0, 0, 0), (0.1, 0, 0))
    with pytest.raises(DomainError):
        cfi("y", (0, 0, 0), (0, 0, 0))


@given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-0.5, 0.5),
       st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_cfi_never_exceeds_qfi(dx, dy, dz, gx, gy, gz):
    D = np.array([dx, dy, dz])
    if D @ D > 0.96:
        D = 0.9 * D / math.sqrt(D @ D)
    g = (gx, gy, gz)
    f_q = qfi(D, g)
    assert cfi("x", D, g) <= f_q * (1 + 1e-8) + 1e-15
    assert cfi("z", D, g) <= f_q * (1 + 1e-8) + 1e-15


def test_qcrb():
    # negative qfi is rejected on construction (test_metrology_result_invariants)
    def bound(f):
        return MetrologyResult(t=1.0, T=0.2, alpha=0.5, qfi=f, cfi_x=0.0, cfi_z=0.0,
                               markov_fisher=0.0).qcrb
    assert bound(4.0) == 0.5
    assert bound(100.0) == pytest.approx(0.1, rel=1e-15)
    assert bound(0.0) == math.inf


def test_markov_comparator():
    # F_BM = eps^2 e^{-eps/T} / (2 T^4) = 1 / (0.5 e) at eps = T = 0.5
    assert markov_comparator(0.5, 0.5) == pytest.approx(1.0 / (0.5 * math.e), rel=1e-12)
    # exponential suppression toward T = 0
    assert markov_comparator(0.5, 0.01) < 1e-14
    # eps^2 underflowing, and eps/T beyond exp's range: no information, no crash
    assert markov_comparator(5e-324, 0.5) == 0.0
    assert markov_comparator(2.0, 1e-3) == 0.0
    # T^4 beyond float range: the T -> inf limit, not an OverflowError
    assert markov_comparator(0.5, 1e100) == 0.0
    # T^4 underflowing: 0 where e^{-eps/T} does too, else the closed form
    # rearranged, not a ZeroDivisionError
    assert markov_comparator(0.5, 1e-150) == 0.0
    assert markov_comparator(1e-100, 1e-90) == pytest.approx(0.5e160, rel=1e-9)
    assert markov_comparator(5e-324, 5e-324) == math.inf
    # the same bits as the closed form wherever it is finite
    assert markov_comparator(0.5, 0.2) == 0.5**2 * math.exp(-0.5 / 0.2) / (2.0 * 0.2**4)
    with pytest.raises(DomainError):
        markov_comparator(0.0, 0.2)
    with pytest.raises(DomainError):
        markov_comparator(0.5, 0.0)


def test_metrology_result_invariants():
    with pytest.raises(NumericError):
        MetrologyResult(t=1, T=0.2, alpha=0.5, qfi=1.0, cfi_x=1.1, cfi_z=0.0,
                        markov_fisher=0.0)
    with pytest.raises(NumericError):
        MetrologyResult(t=1, T=0.2, alpha=0.5, qfi=-1.0, cfi_x=0.0, cfi_z=0.0,
                        markov_fisher=0.0)
    r = MetrologyResult(t=1, T=0.2, alpha=0.5, qfi=4.0, cfi_x=0.1, cfi_z=0.0,
                        markov_fisher=0.3)  # consistent: accepted
    assert r.qcrb == 0.5  # derived from qfi


# -- temperature derivative -----------------------------------------------------------

def _bundle(cfg):
    """``cfg``'s stencil bundle: kernel sets at T, T-2d, T-d, T+d and T+2d."""
    return _stencil_bundle(cfg.kernel_params, cfg.t_end, cfg.dt)


def _stencil_lanes(cfg, bundle):
    """Configs and kernel sets of the five lanes that ``stencil_scans``
    integrates for ``cfg``: at T, T-2d, T-d, T+d and T+2d."""
    return [cfg] + [replace(cfg, T=s.params.T) for s in bundle[1:]], list(bundle)


def test_derivative_vanishes_without_coupling():
    sd0 = SpectralDensity(eta=0.0)
    cfg = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd0, t_end=2.0, dt=0.01)
    base, *shifted = integrate_lanes(*_stencil_lanes(cfg, _bundle(cfg)))
    d = _stencil_derivative(cfg, shifted)[base.config.index_of(1.0)]
    assert np.allclose(d, 0.0, atol=1e-9)


def test_derivative_grid_and_temperature_guards(sd):
    cfg = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=2.0, dt=0.01)
    with pytest.raises(DomainError):
        integrate(cfg, _bundle(cfg)[0]).config.index_of(0.005)  # off the grid
    with pytest.raises(DomainError, match="probing time 0.005 is not on the dt=0.01 grid"):
        stencil_scans([cfg], (0.005,))
    # T = 0, and temperatures whose step 1e-7 T is subnormal or zero
    for T in (0.0, 1e-310, 5e-324):
        cfg0 = ProbeConfig(epsilon=0.5, alpha=0.5, T=T, sd=sd, t_end=2.0, dt=0.01)
        with pytest.raises(DomainError, match="stencil needs T > 0") as info:
            stencil_scans([cfg0], (1.0,))
        assert f"got T={T}" in str(info.value)


def test_derivative_against_richardson_oracle(sd):
    # independent route: coarser step delta' = 1e-5 T, two central differences
    # Richardson-combined; both must agree to 1e-4 relative
    cfg = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=20.0, dt=0.01)
    _, *shifted = integrate_lanes(*_stencil_lanes(cfg, _bundle(cfg)))
    deriv = _stencil_derivative(cfg, shifted)

    h = 1e-5 * cfg.T
    temps = (cfg.T - 2 * h, cfg.T - h, cfg.T + h, cfg.T + 2 * h)
    _, *oracle = frequency_pass(cfg.kernel_params, 20.0, 0.01, temps)
    m2, m1, p1, p2 = (traj.states for traj in integrate_lanes(
        [replace(cfg, T=T) for T in temps], oracle))
    c1 = (p1 - m1) / (2 * h)
    c2 = (p2 - m2) / (4 * h)
    richardson = (4.0 * c1 - c2) / 3.0
    i = 2000  # t = 20
    assert np.linalg.norm(deriv[i] - richardson[i]) <= 1e-4 * np.linalg.norm(richardson[i])


def test_stencil_raises_quadrature_error(sd, monkeypatch):
    # an unreachable tolerance fails the fused pass instead of returning shifted sets
    monkeypatch.setattr(kernels, "_REL_TOL", 1e-30)
    monkeypatch.setattr(kernels, "_ABS_TOL", 1e-30)
    cfg = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=1.0, dt=0.5)
    with pytest.raises(QuadratureError) as info:
        stencil_scans([cfg], (1.0,))
    assert ("after 6 mesh halvings (epsilon=0.5, T=0.2, eta=0.05, omega_c=1, "
            "rel_tol=1e-30, abs_tol=1e-30;") in str(info.value)


def test_metrology_scan_structure(fig2_scans):
    # Fig. 2's alpha = 0.5 lane at t_end = 50
    results = [r for r in fig2_scans[0.5] if r.t in (0.0, 1.0, 20.0)]
    assert [r.t for r in results] == [0.0, 1.0, 20.0]
    assert results[0].qfi == 0.0  # initial state carries no information yet
    assert results[0].qcrb == math.inf
    for r in results[1:]:
        assert r.qfi > 0.0
        assert r.cfi_x <= r.qfi * (1 + 1e-8)
        assert r.cfi_z <= r.qfi * (1 + 1e-8)
        assert r.qcrb == pytest.approx(1.0 / math.sqrt(r.qfi), rel=1e-12)


def test_stencil_scans_one_pass_per_bundle(sd, monkeypatch):
    # probes that differ only in alpha share one frequency-domain pass; each
    # temperature needs its own.  Every probe's results equal those of a scan
    # of that probe alone.
    calls = []

    def counting_pass(params, t_end, dt, temps, workers):
        calls.append((params.T, t_end, dt))
        return frequency_pass(params, t_end, dt, temps, workers)

    def probe(alpha=0.5, T=0.2):
        return ProbeConfig(epsilon=0.5, alpha=alpha, T=T, sd=sd, t_end=1.0, dt=0.05)

    monkeypatch.setattr(metrology, "frequency_pass", counting_pass)
    alphas = [probe(alpha=a) for a in (0.0, 0.25, 1.0)]
    _, by_alpha = stencil_scans(alphas, (0.5, 1.0))
    assert calls == [(0.2, 1.0, 0.05)]
    calls.clear()
    mixed = [probe(T=0.1), probe(alpha=0.0, T=0.3), probe(alpha=1.0, T=0.1), probe()]
    _, by_T = stencil_scans(mixed, (0.5, 1.0))
    assert calls == [(0.1, 1.0, 0.05), (0.3, 1.0, 0.05), (0.2, 1.0, 0.05)]
    for cfg, scan in zip(alphas + mixed, by_alpha + by_T):
        assert scan == stencil_scans([cfg], (0.5, 1.0))[1][0]


def test_stencil_scans_work_arrays_stay_bounded(sd, traced_peak):
    # fig2's scans (21 alphas, t_end 50, dt 0.05, times 1, 5, 20 and 50):
    # measured 2.45 MB with the shifted lanes keeping only the probing-time
    # rows, the lanes refilling one set of term tables, and the pass holding
    # one mesh band at a time with 16,384-element trig sub-blocks; 3.35 MB
    # with fresh tables per block and 65,536-element sub-blocks, 5.32 MB when
    # every lane also keeps every row, 5.56 MB when the pass also caches its
    # bands
    probes = [ProbeConfig(epsilon=0.5, alpha=float(a), T=0.2, sd=sd, t_end=50.0, dt=0.05)
              for a in np.linspace(0.0, 1.0, 21)]
    assert traced_peak(lambda: stencil_scans(probes, (1.0, 5.0, 20.0, 50.0))) < 2.8e6


def test_stencil_scans_rejects_mixed_grids_before_any_pass(sd, monkeypatch):
    # probes on different (dt, t_end) grids fail before a frequency-domain
    # pass is paid for any of them
    calls = []

    def counting_pass(*args, **kwargs):
        calls.append(args)
        return frequency_pass(*args, **kwargs)

    monkeypatch.setattr(metrology, "frequency_pass", counting_pass)
    probe = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=1.0, dt=0.05)
    for other in (replace(probe, t_end=2.0), replace(probe, alpha=0.0, T=0.3, dt=0.1)):
        with pytest.raises(ConfigurationError, match="lanes must share one grid"):
            stencil_scans([probe, other], (0.5,))
    assert calls == []


def test_stencil_scans_rejects_bad_times_before_any_pass(sd, monkeypatch):
    # a negative, a past-t_end and an off-grid probing time each fail, naming
    # the time, before a frequency-domain pass is paid for
    calls = []

    def counting_pass(*args, **kwargs):
        calls.append(args)
        return frequency_pass(*args, **kwargs)

    monkeypatch.setattr(metrology, "frequency_pass", counting_pass)
    probe = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=5.0, dt=0.01)
    for t, named in ((-1.0, "probing time -1.0 must be >= 0"),
                     (10.0, "probing time 10.0 lies beyond t_end=5.0"),
                     (1.005, "probing time 1.005 is not on the dt=0.01 grid")):
        with pytest.raises(DomainError) as info:
            stencil_scans([probe, replace(probe, T=0.3)], (1.0, t))
        assert str(info.value) == named
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.0, 2.0), T=st.floats(0.01, 0.5), eta=st.floats(0.0, 0.1),
       alpha=st.floats(0.0, 1.0), steps=st.integers(3, 40))
# a weakly coupled probe 7.4e-13 inside the pure-state shell, where the
# mixed-state QFI term exceeds |dD/dT|^2 by nine orders of magnitude
@example(eps=0.28255745495205314, T=0.1875, eta=5.960464477539063e-08, alpha=1.0, steps=3)
def test_stencil_pipeline_properties(engine_at, eps, T, eta, alpha, steps):
    # across the validated envelope at short horizons: every stencil
    # trajectory stays in the unit ball (``integrate_lanes`` raises for a
    # shifted lane that leaves it), no measurement beats the QFI, and the
    # batched stencil set equals direct kernel calls to 0 ulp
    cfg = ProbeConfig(epsilon=eps, alpha=alpha, T=T, sd=SpectralDensity(eta=eta),
                      t_end=steps * 0.05, dt=0.05)
    ks = _bundle(cfg)[0]
    idx = (steps // 3, (2 * steps) // 3, steps)
    (base,), (scan,) = stencil_scans([cfg], [ks.grid[i] for i in idx])
    assert np.max(np.sum(base.states**2, axis=1)) <= 1.0 + PHYSICALITY_SLACK
    for i, r in zip(idx, scan):
        assert r.cfi_x <= r.qfi * (1 + 1e-8)
        assert r.cfi_z <= r.qfi * (1 + 1e-8)
        direct = engine_at(ks.params, float(ks.grid[i]))
        for name in KERNEL_NAMES:
            assert direct[name] == ks.values[name][i]


def test_loglog_slope():
    T = np.array([0.01, 0.02, 0.04])
    assert loglog_slope(T, 3.0 * T**2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        loglog_slope([0.1], [1.0])
