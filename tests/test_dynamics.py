import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubit_thermometry import (
    ConfigurationError,
    DomainError,
    IntegrationError,
    KERNEL_NAMES,
    KernelParams,
    KernelSet,
    NumericError,
    ProbeConfig,
    SpectralDensity,
    integrate,
    integrate_lanes,
)
from qubit_thermometry import dynamics
from qubit_thermometry.cli import main
from qubit_thermometry.dynamics import kernels_for
from qubit_thermometry.kernels import frequency_pass, precompute
from qubit_thermometry.witness import coherence

from oracles import (
    dephasing_coherence_T0,
    dephasing_oracle,
    quad_gamma,
    rhs,
    staged_rk4,
    tcl2_bloch_rhs,
)


def _probe(sd, alpha, T=0.2, eps=0.5, t_end=10.0, dt=0.01, initial=(1.0, 0.0, 0.0)):
    return ProbeConfig(epsilon=eps, alpha=alpha, T=T, sd=sd, initial=initial,
                       t_end=t_end, dt=dt)


def _failure_time(err):
    """The time an IntegrationError names, read from its message's "at t=<t> "."""
    return float(re.search(r" at t=(\S+) ", str(err.value)).group(1))


# -- rhs ------------------------------------------------------------------------

def test_rhs_pure_dephasing_conserves_population():
    state = (0.3, -0.2, 0.7)
    fx, fy, fz = rhs(state, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), epsilon=0.5, alpha=0.0)
    assert fz == 0.0  # every Dz term carries alpha


def test_rhs_closed_system_precession():
    assert rhs((1.0, 0.0, 0.0), (0.0,) * 6, epsilon=0.7, alpha=0.6) == (0.0, 0.7, 0.0)


def test_rhs_half_mixing_coefficient():
    # at alpha = 1/2 the cross coefficient -4 a (a-1) equals +1, so from
    # D = (0, 0, 1) the x-equation reads G + K
    r, k, l, x, f, g = 0.11, 0.23, 0.31, 0.41, 0.53, 0.61
    fx, fy, fz = rhs((0.0, 0.0, 1.0), (r, k, l, x, f, g), epsilon=0.5, alpha=0.5)
    assert fx == pytest.approx(g + k, rel=1e-15)
    assert fz == pytest.approx(-g - k, rel=1e-15)


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
       st.sampled_from([0.0, 1.0]))
def test_rhs_cross_terms_vanish_at_endpoints(dx, dy, dz, alpha):
    # the interference terms carry alpha*(1-alpha) and must be exactly zero
    kernels = (0.3, 0.5, 0.7, 0.11, 0.13, 0.17)
    fx, fy, fz = rhs((dx, dy, dz), kernels, epsilon=0.5, alpha=alpha)
    if alpha == 0.0:
        # pure dephasing never moves the population
        assert fz == 0.0
    else:
        # pure dissipation: no population-coherence feedback terms in dx, dz
        assert fx == -0.5 * dy
        assert fz == -4.0 * kernels[5] - 4.0 * dz * kernels[1]


_unit = st.floats(-1.0, 1.0)


@given(st.tuples(_unit, _unit, _unit), st.tuples(*[_unit] * 6),
       st.floats(0.0, 5.0), st.floats(0.0, 1.0))
def test_rhs_matches_tcl2_generator(v, kernels, eps, alpha):
    # the printed Bloch equations are the TCL2 generator in the Pauli basis
    D = np.array(v) / max(1.0, float(np.linalg.norm(v)))
    deriv = rhs(D, kernels, epsilon=eps, alpha=alpha)
    ref = tcl2_bloch_rhs(D, kernels, eps, alpha)
    assert np.max(np.abs(np.array(deriv) - ref)) <= 1e-14


def test_rhs_rejects_non_finite():
    with pytest.raises(NumericError):
        rhs((math.nan, 0.0, 0.0), (0.0,) * 6, 0.5, 0.5)
    with pytest.raises(NumericError):
        rhs((0.0, 0.0, 0.0), (math.inf, 0, 0, 0, 0, 0), 0.5, 0.5)


# -- integrate --------------------------------------------------------------------

def test_free_precession():
    sd0 = SpectralDensity(eta=0.0)
    cfg = _probe(sd0, alpha=0.5, T=0.2, eps=0.5, t_end=10.0, dt=1e-3)
    ks = kernels_for(cfg)
    traj = integrate(cfg, ks)
    expect = np.stack([np.cos(0.5 * traj.grid), np.sin(0.5 * traj.grid),
                       np.zeros_like(traj.grid)], axis=1)
    assert np.max(np.abs(traj.states - expect)) < 1e-8
    assert abs(np.linalg.norm(traj.states[-1]) - 1.0) < 1e-8


def test_initial_state_exact(sd, ks_short):
    cfg = _probe(sd, alpha=0.3, initial=(0.4, 0.1, -0.5))
    traj = integrate(cfg, ks_short)
    assert tuple(traj.states[0]) == (0.4, 0.1, -0.5)


def test_dephasing_against_oracle_T0(sd):
    # exact solution C(t) = (1 + t^2)^(-2 eta) at T = 0
    cfg = ProbeConfig(epsilon=0.5, alpha=0.0, T=0.0, sd=sd, t_end=10.0, dt=1e-2)
    traj = integrate(cfg, kernels_for(cfg))
    C = coherence(traj)
    ref = dephasing_coherence_T0(0.05, 1.0, traj.grid)
    assert np.max(np.abs(C - ref)) < 1e-6
    i3 = traj.config.index_of(3.0)
    assert C[i3] == pytest.approx(10.0 ** -0.1, abs=1e-7)


def test_dephasing_against_oracle_finite_T(sd, ks_short):
    # ODE vs the analytic damping exp(-Gamma(t)) at T = 0.2
    cfg = _probe(sd, alpha=0.0, t_end=10.0)
    traj = integrate(cfg, ks_short)
    oracle = dephasing_oracle(cfg)
    assert np.array_equal(traj.grid, oracle.grid)
    dC = np.abs(coherence(traj) - coherence(oracle))
    assert np.max(dC) < 1e-6
    assert np.max(np.abs(traj.dz - oracle.dz)) < 1e-12


@pytest.mark.parametrize("T,eta", [(0.0, 0.1), (0.4, 0.02)])
def test_oracle_agreement_full_window(T, eta):
    # alpha = 0 ODE vs the frequency-space oracle over the figure window
    sd_ = SpectralDensity(eta=eta)
    cfg = ProbeConfig(epsilon=0.5, alpha=0.0, T=T, sd=sd_, t_end=50.0, dt=1e-2)
    traj = integrate(cfg, kernels_for(cfg))
    oracle = dephasing_oracle(cfg)
    assert np.max(np.abs(coherence(traj) - coherence(oracle))) <= 1e-6


def test_step_halving_fourth_order(sd):
    # NOTE: error differences between dt and dt/2 shrink 16x per halving
    ends = []
    for dt in (0.2, 0.1, 0.05):
        cfg = _probe(sd, alpha=0.5, t_end=8.0, dt=dt)
        traj = integrate(cfg, kernels_for(cfg))
        ends.append(traj.states[-1])
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    order = math.log2(d1 / d2)
    assert 3.5 <= order <= 4.5


def test_mismatched_kernelset_rejected(sd, ks_short):
    cfg = _probe(sd, alpha=0.5, T=0.3)  # kernel set was built at T=0.2
    with pytest.raises(ConfigurationError):
        integrate(cfg, ks_short)
    cfg2 = _probe(sd, alpha=0.5, t_end=5.0)  # wrong horizon
    with pytest.raises(ConfigurationError):
        integrate(cfg2, ks_short)


def test_physicality_breach_detected(sd, ks_short):
    # negative dephasing rate feeds coherence growth beyond the unit ball
    bad = KernelSet(
        grid=ks_short.grid,
        values={n: (-0.1 * np.ones_like(ks_short.grid) if n == "R" else
                    np.zeros_like(ks_short.grid)) for n in ("R", "K", "L", "X", "F", "G")},
        half_values={n: (-0.1 * np.ones(len(ks_short.grid) - 1) if n == "R" else
                         np.zeros(len(ks_short.grid) - 1)) for n in ("R", "K", "L", "X", "F", "G")},
        params=ks_short.params)
    cfg = _probe(ks_short.params.sd, alpha=0.0)
    with pytest.raises(IntegrationError) as err:
        integrate(cfg, bad)
    msg = str(err.value)
    assert msg.startswith("Bloch norm left the unit ball at t=") and _failure_time(err) > 0.0
    assert "alpha=0, T=0.2, epsilon=0.5, eta=0.05, dt=0.01)" in msg


@pytest.fixture(scope="module")
def ks_stencil(params):
    """Base set plus one stencil-shifted set on a short grid."""
    return frequency_pass(params, 10.0, 0.01, (params.T * (1.0 + 1e-7),))


@pytest.mark.parametrize("shifted", [False, True], ids=["base", "shifted"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_integrate_matches_staged_rk4_bit_for_bit(sd, ks_stencil, alpha, shifted):
    ks = ks_stencil[1 if shifted else 0]
    cfg = _probe(sd, alpha=alpha, T=ks.params.T, initial=(0.6, 0.0, 0.8))
    assert np.array_equal(integrate(cfg, ks).states, staged_rk4(cfg, ks))


@pytest.fixture(scope="module")
def lane_sets(sd):
    """Kernel sets on one 40-step grid (one table block at the default block
    size; ``test_lane_block_does_not_change_values`` splits it): a stencil
    bundle at eps = 0.5, T = 0.2 with its two shifted sets, and plain sets at
    (eps, T) = (0, 0.3) and (1.3, 0)."""
    return (*frequency_pass(KernelParams(sd=sd, epsilon=0.5, T=0.2), 2.0, 0.05,
                            (0.2 - 2e-8, 0.2 + 2e-8)),
            precompute(KernelParams(sd=sd, epsilon=0.0, T=0.3), 2.0, 0.05),
            precompute(KernelParams(sd=sd, epsilon=1.3, T=0.0), 2.0, 0.05))


@settings(max_examples=25, deadline=None)
@given(lanes=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0),
                                st.tuples(_unit, _unit, _unit)), min_size=1, max_size=6),
       data=st.data())
def test_integrate_lanes_matches_staged_rk4_bit_for_bit(lane_sets, lanes, data):
    # mixed alpha, eps, T, initial states and shared or shifted sets in one
    # batch: every lane equals its own staged RK4, and any permutation or
    # split of the lanes gives the same bits
    cfgs, sets = [], []
    for j, alpha, v in lanes:
        ks = lane_sets[j]
        D = 0.9 * np.array(v) / max(1.0, float(np.linalg.norm(v)))
        cfgs.append(ProbeConfig(epsilon=ks.params.epsilon, alpha=alpha, T=ks.params.T,
                                sd=ks.params.sd, initial=tuple(D), t_end=2.0, dt=0.05))
        sets.append(ks)
    trajs = integrate_lanes(cfgs, sets)
    for cfg, ks, traj in zip(cfgs, sets, trajs):
        assert traj.config is cfg and traj.grid is ks.grid
        assert np.array_equal(traj.states, staged_rk4(cfg, ks))
    order = data.draw(st.permutations(range(len(lanes))))
    cut = data.draw(st.integers(0, len(lanes)))
    for part in (order[:cut], order[cut:]):
        again = integrate_lanes([cfgs[m] for m in part], [sets[m] for m in part])
        for m, traj in zip(part, again):
            assert np.array_equal(traj.states, trajs[m].states)


def test_lane_block_does_not_change_values(lane_sets, monkeypatch):
    # 64 lanes that share and shift kernel sets, the first two at alpha 0
    # and 1 (where the aa, a2 and am2 rows are exactly zero): the default
    # block takes 28 of the 40 steps, then a ragged 12 shorter than the
    # tables it refills; one step per block, three (a last block of one) and
    # the whole run in one block as well.  Each lane equals the
    # stage-by-stage RK4 over rhs, 0 ulp, whatever the blocking.
    rng = np.random.default_rng(5)
    sets = [lane_sets[j] for j in rng.integers(0, len(lane_sets), 64)]
    alphas = rng.uniform(0.0, 1.0, len(sets))
    alphas[:2] = 0.0, 1.0
    cfgs = [ProbeConfig(epsilon=ks.params.epsilon, alpha=float(alpha), T=ks.params.T,
                        sd=ks.params.sd, initial=(0.6, 0.05 * ks.params.T, 0.7),
                        t_end=2.0, dt=0.05)
            for ks, alpha in zip(sets, alphas)]
    assert dynamics._BLOCK_LANE_STEPS // len(cfgs) == 28
    want = [staged_rk4(cfg, ks) for cfg, ks in zip(cfgs, sets)]
    for lane_steps in (None, 1, 3 * len(cfgs), 10**9):
        with monkeypatch.context() as patch:
            if lane_steps is not None:
                patch.setattr(dynamics, "_BLOCK_LANE_STEPS", lane_steps)
            blocked = integrate_lanes(cfgs, sets)
        for a, b in zip(want, blocked):
            assert np.array_equal(a, b.states)


def test_back_to_back_calls_carry_no_tables(lane_sets, ks_short, sd):
    # calls on 3 lanes of a 1,000-step grid (two blocks) and on 5 lanes of a
    # 40-step one (one block; a set read by three of them), in turn:
    # each call equals the stage-by-stage RK4 over rhs, 0 ulp, whatever came
    # before it
    long_run = ([_probe(sd, alpha=a) for a in (0.2, 0.5, 0.9)], [ks_short] * 3)
    sets = [lane_sets[0], lane_sets[3], lane_sets[0], lane_sets[4], lane_sets[0]]
    short_run = ([_probe(sd, alpha=a, T=ks.params.T, eps=ks.params.epsilon, t_end=2.0,
                         dt=0.05, initial=(0.6, 0.1, 0.7))
                  for ks, a in zip(sets, (0.1, 0.3, 0.5, 0.7, 0.9))], sets)
    runs = (long_run, short_run)
    want = [[staged_rk4(cfg, ks) for cfg, ks in zip(*run)] for run in runs]
    for k in (0, 1, 0, 1):
        for a, b in zip(want[k], integrate_lanes(*runs[k])):
            assert np.array_equal(a, b.states)


def test_integrate_lanes_work_arrays_stay_bounded(params, traced_peak):
    # fig1's 21 lanes (t_end 200, dt 0.05): measured 2.71 MB with one set of
    # term tables refilled in place, 2.02 MB of it the returned states;
    # 4.46 MB with fresh tables for every block
    ks = precompute(params, 200.0, 0.05)
    probes = [ProbeConfig(epsilon=params.epsilon, alpha=float(a), T=params.T, sd=params.sd,
                          t_end=200.0, dt=0.05) for a in np.linspace(0.0, 1.0, 21)]
    assert traced_peak(lambda: integrate_lanes(probes, [ks] * len(probes))) < 3.1e6


def test_kept_rows_equal_full_rows(lane_sets, monkeypatch):
    # lanes keeping one shared selection of rows (out of order, repeated,
    # the first and the last; or none) after lanes keeping every row: each
    # kept row equals that row of the lane kept in full, 0 ulp, whatever the
    # blocking
    picks = [(0, 0.5), (3, 0.0), (1, 0.3), (2, 1.0), (4, 0.7)]
    cfgs = [ProbeConfig(epsilon=lane_sets[j].params.epsilon, alpha=alpha,
                        T=lane_sets[j].params.T, sd=lane_sets[j].params.sd,
                        initial=(0.6, 0.05 * j, 0.7), t_end=2.0, dt=0.05)
            for j, alpha in picks]
    sets = [lane_sets[j] for j, _ in picks]
    full = integrate_lanes(cfgs, sets)
    for sel, lane_steps in itertools.product(([20, 0, 40, 40, 1, 39, 2], []),
                                             (1, 3 * len(cfgs), 10**9)):
        rows = [None, None, sel, sel, sel]
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_BLOCK_LANE_STEPS", lane_steps)
            kept = integrate_lanes(cfgs, sets, rows)
        for a, b, r in zip(full, kept, rows):
            assert b.config is a.config
            r = slice(None) if r is None else r
            assert np.array_equal(b.states, a.states[r])
            assert np.array_equal(b.grid, a.grid[r])


def test_kept_rows_validated(sd, ks_short):
    cfg = _probe(sd, alpha=0.5)
    for rows in ([[-1]], [[0, 1001]]):
        with pytest.raises(DomainError, match=re.escape("must lie in [0, 1000]")):
            integrate_lanes([cfg], [ks_short], rows)
    with pytest.raises(ConfigurationError, match="1 row selections"):
        integrate_lanes([cfg, cfg], [ks_short, ks_short], [None])
    for rows in ([[0], None], [None, [0], None]):
        with pytest.raises(ConfigurationError, match="must come first"):
            integrate_lanes([cfg] * len(rows), [ks_short] * len(rows), rows)


def test_kept_rows_differing_between_lanes_rejected(sd, ks_short):
    cfg = _probe(sd, alpha=0.5)
    for rows in ([[0, 5], [5, 0]], [[0, 5], [0]], [[0], []], [None, [1], [2]]):
        with pytest.raises(ConfigurationError, match="must keep one selection of them"):
            integrate_lanes([cfg] * len(rows), [ks_short] * len(rows), rows)


def _growing_set(ks, T, rate):
    """Kernel set on ``ks``'s grid at temperature T whose only kernel is a
    constant R = rate; rate < 0 makes the coherences grow as e^(-4 rate t)."""
    n = len(ks.grid)
    return KernelSet(
        grid=ks.grid,
        values={name: np.full(n, rate if name == "R" else 0.0) for name in KERNEL_NAMES},
        half_values={name: np.full(n - 1, rate if name == "R" else 0.0)
                     for name in KERNEL_NAMES},
        params=KernelParams(sd=ks.params.sd, epsilon=0.5, T=T))


def test_integrate_lanes_reports_lowest_failing_lane(sd, ks_short, monkeypatch):
    # with 32 steps per block of three lanes, lane 1 leaves the unit ball at
    # t = ln 2 / 0.4 ~ 1.73 (in its sixth block of steps); lane 2 leaves it at
    # t = dt (in the first block) and then overflows to inf and nan.  The
    # error is lane 1's, as if the lanes were integrated one by one, and no
    # floating-point warning escapes.  The same holds when the failing lanes
    # keep only rows before their failure: every step is norm-checked.
    monkeypatch.setattr(dynamics, "_BLOCK_LANE_STEPS", 3 * 32)
    sets = [ks_short, _growing_set(ks_short, 0.3, -0.1), _growing_set(ks_short, 0.2, -100.0)]
    cfgs = [_probe(sd, alpha=0.5), _probe(sd, alpha=0.0, T=0.3, initial=(0.5, 0.0, 0.0)),
            _probe(sd, alpha=0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate_lanes(cfgs, sets)
        with pytest.raises(IntegrationError) as kept:
            integrate_lanes(cfgs, sets, [None, [0, 5], [0, 5]])
        with pytest.raises(IntegrationError) as alone:
            integrate(cfgs[1], sets[1])
        with pytest.raises(IntegrationError) as last:
            integrate(cfgs[2], sets[2])
    assert 1.7 < _failure_time(err) < 1.8
    assert _failure_time(err) == _failure_time(alone) and str(err.value) == str(alone.value)
    assert _failure_time(kept) == _failure_time(err) and str(kept.value) == str(err.value)
    assert "alpha=0, T=0.3, epsilon=0.5, eta=0.05, dt=0.01)" in str(err.value)
    assert _failure_time(last) == 0.01


def test_integrate_lanes_on_different_grids_rejected(sd, ks_short):
    for other in (_probe(sd, alpha=0.5, t_end=5.0), _probe(sd, alpha=0.5, dt=0.02)):
        ks = precompute(ks_short.params, other.t_end, other.dt)
        assert integrate_lanes([other], [ks])[0].config is other  # fine alone
        with pytest.raises(ConfigurationError, match="lanes must share one grid"):
            integrate_lanes([_probe(sd, alpha=0.5), other], [ks_short, ks])
    with pytest.raises(ConfigurationError):
        integrate_lanes([_probe(sd, alpha=0.5)], [])
    assert integrate_lanes([], []) == []


def test_markov_fixed_point(sd, ks_long):
    # weak-coupling steady state of the dissipative probe: Dz -> -tanh(eps/2T)
    cfg = _probe(sd, alpha=1.0, t_end=200.0, dt=0.01)
    traj = integrate(cfg, ks_long)
    assert traj.dz[-1] == pytest.approx(-math.tanh(0.5 / 0.4), abs=5 * 0.05)
    assert abs(traj.dz[-1] + math.tanh(0.5 / 0.4)) < 1e-4  # actually much tighter


def test_probe_config_validation(sd):
    with pytest.raises(DomainError):
        _probe(sd, alpha=1.2)
    with pytest.raises(DomainError):
        _probe(sd, alpha=0.5, initial=(1.0, 0.5, 0.0))
    with pytest.raises(DomainError):
        ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=1.0, dt=0.0)
    # the kernel grid's rule, at construction rather than at the kernel build
    with pytest.raises(DomainError, match="t_end=1.005 is not an integer multiple of dt=0.01"):
        ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, sd=sd, t_end=1.005, dt=0.01)


def test_coupling_beyond_validated_envelope_warns(sd):
    with pytest.warns(UserWarning, match=r"eta=0\.2 exceeds 0\.1"):
        _probe(SpectralDensity(eta=0.2), alpha=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _probe(SpectralDensity(eta=0.1), alpha=0.5)  # edge of the envelope
        _probe(sd, alpha=0.5)  # the figures' eta = 0.05


# -- dephasing oracle ----------------------------------------------------------------

def test_oracle_requires_alpha_zero(sd):
    with pytest.raises(DomainError):
        dephasing_oracle(_probe(sd, alpha=0.5))


def test_oracle_t0_and_zero_coupling(sd):
    cfg = _probe(sd, alpha=0.0, initial=(0.6, 0.0, 0.8), t_end=1.0, dt=0.5)
    traj = dephasing_oracle(cfg)
    assert tuple(traj.states[0]) == (0.6, 0.0, 0.8)
    free = ProbeConfig(epsilon=0.5, alpha=0.0, T=0.2, sd=SpectralDensity(eta=0.0),
                       t_end=10.0, dt=0.1)
    traj0 = dephasing_oracle(free)
    norms = np.hypot(traj0.dx, traj0.dy)
    assert np.max(np.abs(norms - 1.0)) < 1e-12  # pure rotation


def test_oracle_gamma_against_scipy(sd):
    cfg = _probe(sd, alpha=0.0, t_end=4.0, dt=1.0)
    traj = dephasing_oracle(cfg)
    for i, t in enumerate(traj.grid[1:], start=1):
        gamma_ref = quad_gamma(0.05, 1.0, 0.2, float(t))
        assert np.hypot(traj.dx[i], traj.dy[i]) == pytest.approx(
            math.exp(-gamma_ref), rel=1e-8)


def test_trajectory_csv(tmp_path, sd, ks_short):
    cfg = _probe(sd, alpha=0.5)
    traj = integrate(cfg, ks_short)
    # the trajectory command at the defaults (eps=0.5, T=0.2, eta=0.05, alpha=0.5)
    assert main(["trajectory", "--t-end", "10", "--dt", "0.01",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,dx,dy,dz"
    assert len(lines) == len(traj.grid) + 1
    row = lines[1].split(",")
    assert [float(v) for v in row] == [0.0, 1.0, 0.0, 0.0]
    assert float(lines[-1].split(",")[1]) == traj.dx[-1]
