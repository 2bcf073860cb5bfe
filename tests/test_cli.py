import concurrent.futures
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qubit_thermometry
from qubit_thermometry import ConfigurationError
from qubit_thermometry import cli, metrology
from qubit_thermometry.cli import RunConfig, main

from oracles import kernel_R_T0


def run_cli(*args):
    return main(list(args))


def _args_file(tmp_path, *lines):
    """An @FILE argument naming a file of ``lines``, one argument each."""
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def _captured_config(monkeypatch, *args):
    """The RunConfig that ``trajectory`` would run with ``args``."""
    seen = []
    monkeypatch.setattr(cli, "cmd_trajectory", lambda cfg: seen.append(cfg) or 0)
    assert run_cli("trajectory", *args) == 0
    return seen[0]


# -- configuration ----------------------------------------------------------------

def test_load_config_file_and_overrides(tmp_path, monkeypatch):
    # a saved run is an @FILE of flags; a flag typed after it wins
    saved = _args_file(tmp_path, "--epsilon=0.7", "--svg", "--times=1, 2",
                       "--alpha-count=5", "--eta=0.03")
    cfg = _captured_config(monkeypatch, saved, "--eta", "0.02")
    assert cfg == RunConfig(epsilon=0.7, emit_svg=True, times=(1.0, 2.0), alpha_count=5,
                            eta=0.02)


def test_load_config_rejects_unknown_and_malformed(tmp_path, capsys):
    # an @FILE line is parsed as the same flag typed: an unknown or malformed
    # one fails naming it.  The quadrature and witness tolerances and window,
    # the sweep ranges' fixed ends, the fig3 slope window and the old
    # key=value file are not settings
    for line, named in (("--not-a-flag=1", "--not-a-flag=1"),
                        ("--alpha-count=x", "--alpha-count: invalid int value: 'x'")):
        with pytest.raises(SystemExit):
            run_cli("trajectory", _args_file(tmp_path, line))
        assert named in capsys.readouterr().err
    for key in ("rel_tol", "abs_tol", "omega_max_factor", "panels_per_oscillation",
                "resonance_guard", "rise_tol", "conv_tol", "window_frac", "alpha_min",
                "alpha_max", "temp_log", "slope_fit_tmax", "config"):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit):
            run_cli("trajectory", flag, "1")
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_runconfig_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(workers=0)
    with pytest.raises(ConfigurationError):
        RunConfig(temp_min=-0.1, temp_max=0.5)
    # a single-point sweep reads temp_max too, so it must be a temperature
    for temp_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="temp_max must be finite and > 0"):
            RunConfig(temp_count=1, temp_max=temp_max)
    # a NaN bound of a sweep is named, not taken for a range out of order
    for key in ("temp_min", "temp_max"):
        with pytest.raises(ConfigurationError, match=f"{key} must be finite and > 0, got nan"):
            RunConfig(**{key: math.nan})


def test_single_point_sweeps():
    # one point sits at the start of each range, to the bit
    assert RunConfig(alpha_count=1).alphas().tolist() == [0.0]
    assert RunConfig(temp_count=1, temp_min=0.03).temperatures().tolist() == [0.03]
    # the start need not lie below temp_max when it is the only point
    assert RunConfig(temp_count=1, temp_min=0.7).temperatures().tolist() == [0.7]


# -- trajectory -----------------------------------------------------------------------

def test_trajectory_command(tmp_path):
    out = str(tmp_path)
    assert run_cli("trajectory", "--t-end", "2", "--dt", "0.01", "--out", out,
                   "--svg") == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,dx,dy,dz"
    assert len(lines) == 202
    first = [float(v) for v in lines[1].split(",")]
    assert math.hypot(first[1], first[2]) == 1.0  # C(0) = 1
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert (tmp_path / "trajectory_equator.svg").exists()


def test_trajectory_default_config_shape_and_trapping(tmp_path):
    # default resolution: 5001 samples; the half-mixed probe keeps a visible
    # period-averaged coherence in the tail
    out = str(tmp_path)
    assert run_cli("trajectory", "--out", out) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 5002
    dx = np.array([float(r.split(",")[1]) for r in lines[1:]])
    period_samples = round(2 * math.pi / 0.5 / 0.01)
    assert np.mean(np.abs(dx[-period_samples:])) > 0.01


def test_trajectory_closed_system_stays_on_sphere(tmp_path):
    out = str(tmp_path)
    assert run_cli("trajectory", "--eta", "0", "--t-end", "2", "--dt", "0.01",
                   "--out", out) == 0
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")
    norm = math.sqrt(sum(float(v) ** 2 for v in last[1:]))
    assert abs(norm - 1.0) < 1e-8


# -- dump-kernels ----------------------------------------------------------------------

def test_dump_kernels_first_row_and_closed_form(tmp_path):
    out = str(tmp_path)
    assert run_cli("dump-kernels", "--temp", "0", "--t-end", "1", "--dt", "0.05",
                   "--out", out) == 0
    lines = (tmp_path / "kernels.csv").read_text().splitlines()
    assert lines[0] == "t,R,K,L,X,F,G"
    assert all(float(v) == 0.0 for v in lines[1].split(","))
    for row in lines[2:]:
        vals = [float(v) for v in row.split(",")]
        assert vals[1] == pytest.approx(kernel_R_T0(0.05, 1.0, vals[0]), rel=1e-8)


def test_dump_kernels_T_independent_columns(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_cli("dump-kernels", "--temp", "0.1", "--t-end", "1", "--dt", "0.1",
            "--out", str(a_dir))
    run_cli("dump-kernels", "--temp", "0.3", "--t-end", "1", "--dt", "0.1",
            "--out", str(b_dir))
    a = np.genfromtxt(a_dir / "kernels.csv", delimiter=",", names=True)
    b = np.genfromtxt(b_dir / "kernels.csv", delimiter=",", names=True)
    for col in ("L", "F", "G"):
        np.testing.assert_allclose(a[col], b[col], rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(a["R"] - b["R"])) > 1e-4


# -- sweeps ------------------------------------------------------------------------------

SWEEPS = {
    "sweep-alpha": ["sweep-alpha", "--t-end", "5", "--dt", "0.01",
                    "--alpha-count", "4", "--times", "1"],
    "sweep-temperature": ["sweep-temperature", "--t-end", "2", "--dt", "0.01",
                          "--times", "1,2", "--temp-count", "3",
                          "--temp-min", "0.02", "--temp-max", "0.2"],
}


def _sweep_csv(out_dir, command):
    return open(os.path.join(out_dir, command.replace("-", "_") + ".csv"), "rb").read()


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_sweep_deterministic_across_workers(tmp_path, command):
    args = SWEEPS[command]
    d1, d2, d3 = (str(tmp_path / s) for s in "abc")
    assert run_cli(*args, "--out", d1, "--workers", "1") == 0
    assert run_cli(*args, "--out", d2, "--workers", "2") == 0
    assert run_cli(*args, "--out", d3, "--workers", "1") == 0
    b1, b2, b3 = (_sweep_csv(d, command) for d in (d1, d2, d3))
    assert b1 == b2 == b3


def _package_env():
    """Environment in which a fresh interpreter imports this package."""
    src = os.path.dirname(os.path.dirname(qubit_thermometry.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# Runs the CLI with a forced start method and reports how many process pools
# it opened, so a sweep that silently stays sequential is caught.
_START_METHOD_SCRIPT = """\
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from qubit_thermometry.cli import main

pools = []
_init = ProcessPoolExecutor.__init__


def _counting_init(self, *args, **kwargs):
    pools.append(1)
    _init(self, *args, **kwargs)


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    ProcessPoolExecutor.__init__ = _counting_init
    rc = main(sys.argv[2:])
    print(f"pools={len(pools)}")
    sys.exit(rc)
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_workers_byte_identical_under_start_method(tmp_path, command, method):
    script = tmp_path / "run_sweep.py"
    script.write_text(_START_METHOD_SCRIPT)
    seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
    assert run_cli(*SWEEPS[command], "--out", seq, "--workers", "1") == 0
    proc = subprocess.run(
        [sys.executable, str(script), method, *SWEEPS[command], "--out", par,
         "--workers", "2"],
        env=_package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the alpha sweep steps its lanes in one process; the temperature sweep
    # builds each temperature's stencil bundle in the pool, which needs two
    # usable cores: --workers is capped at them
    pools = 1 if command == "sweep-temperature" and metrology._usable_cores() > 1 else 0
    assert f"pools={pools}" in proc.stdout
    assert _sweep_csv(par, command) == _sweep_csv(seq, command)


def _stand_in_pool(kind, opened):
    """An executor class that records ``(kind, max_workers)`` in ``opened``
    and maps in the calling thread, starting no thread or process."""
    class Pool:
        def __init__(self, max_workers=None):
            opened.append((kind, max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    return Pool


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_pools_capped_at_usable_cores(tmp_path, monkeypatch, command):
    # --workers 10000 opens one pool no wider than the usable cores: the
    # alpha sweep's lone stencil pass splits over threads, the temperature
    # sweep builds its 3 bundles in processes; with one core neither opens
    opened = []
    for kind in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, kind, _stand_in_pool(kind, opened))
    big, one = str(tmp_path / "big"), str(tmp_path / "one")
    assert run_cli(*SWEEPS[command], "--out", big, "--workers", "10000") == 0
    cores = metrology._usable_cores()
    pool = (("ThreadPoolExecutor", cores) if command == "sweep-alpha"
            else ("ProcessPoolExecutor", min(cores, 3)))
    assert opened == ([pool] if cores > 1 else [])
    assert run_cli(*SWEEPS[command], "--out", one, "--workers", "1") == 0
    assert _sweep_csv(big, command) == _sweep_csv(one, command)


def _python(code, env=None):
    """Stripped stdout of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=env or _package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_slow_stdlib_modules():
    # multiprocessing and concurrent.futures load only when a pool opens;
    # xml.sax and urllib.request (with http.client) would add 60-100 ms to
    # every start-up, numpy.ma ~9 ms, numpy.polynomial ~5 ms and ~1.7 MB
    code = ("import sys, qubit_thermometry.cli; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures', 'xml.sax', 'urllib.request', "
            "'numpy.ma', 'numpy.polynomial') if m in sys.modules))")
    assert _python(code) == "[]"


def test_stencil_scans_leaves_out_numpy_ma():
    code = ("import sys\n"
            "from qubit_thermometry import ProbeConfig, SpectralDensity\n"
            "from qubit_thermometry.metrology import stencil_scans\n"
            "probe = ProbeConfig(epsilon=0.5, alpha=0.5, T=0.2, "
            "sd=SpectralDensity(eta=0.05), t_end=1.0, dt=0.05)\n"
            "stencil_scans([probe], (1.0,))\n"
            "print('numpy.ma' in sys.modules)")
    assert _python(code) == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_import_starts_openblas_on_one_thread():
    # one OpenBLAS thread per core would cost ~0.1 s of every start-up
    env = _package_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = "import os, qubit_thermometry.cli; print(len(os.listdir('/proc/self/task')))"
    assert _python(code, env) == "1"


def test_cli_import_keeps_caller_openblas_threads():
    env = dict(_package_env(), OPENBLAS_NUM_THREADS="2")
    code = "import os, qubit_thermometry.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, env) == "2"


@pytest.mark.parametrize("args,drawn", [
    (("--t-end", "5"), False),
    (("--epsilon", "2", "--t-end", "60"), True),
], ids=["short-window", "steady"])
def test_sweep_alpha_witness_plots_steady_series_only_when_finite(tmp_path, args, drawn):
    # a trailing window under 10 precession periods leaves every alpha's
    # steady value nan; the plot then carries no |Dx(inf)| entry
    assert run_cli("sweep-alpha", *args, "--dt", "0.1", "--alpha-count", "2", "--times=",
                   "--svg", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "sweep_alpha.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(row.split(",")[2])) == drawn for row in rows)
    svg = (tmp_path / "sweep_alpha_witness.svg").read_text()
    assert "N_C" in svg
    assert ("|Dx(inf)|" in svg) == drawn


def test_sweep_alpha_zero_coupling(tmp_path):
    out = str(tmp_path)
    assert run_cli("sweep-alpha", "--eta", "0", "--t-end", "5", "--dt", "0.01",
                   "--alpha-count", "3", "--times", "1,5", "--out", out) == 0
    lines = (tmp_path / "sweep_alpha.csv").read_text().splitlines()
    assert lines[0] == "alpha,N_C,steady_dx_abs,converged,qfi_t_1,qfi_t_5"
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[1]) == 0.0      # no re-coherence
        assert float(vals[4]) == 0.0      # no temperature information
        assert float(vals[5]) == 0.0


def test_sweep_alpha_short_steady_window_writes_nan(tmp_path):
    # the trailing 65% of t_end = 193.5 spans just over 10 precession periods
    # of 4 pi but only 9 whole periods of 126 samples at dt = 0.1: no
    # steady-state estimate, written as nan / 0, and the sweep succeeds
    assert run_cli("sweep-alpha", "--t-end", "193.5", "--dt", "0.1",
                   "--alpha-count", "1", "--times=", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "sweep_alpha.csv").read_text().splitlines()
    assert lines[0] == "alpha,N_C,steady_dx_abs,converged"
    _, _, steady, converged = lines[1].split(",")
    assert steady == "nan" and converged == "0"


def test_sweep_alpha_subnormal_splitting_writes_nan(tmp_path):
    # a precession period of 2 pi / 5e-324 overflows to inf: no steady-state
    # estimate rather than an OverflowError
    assert run_cli("sweep-alpha", "--epsilon", "5e-324", "--t-end", "1", "--dt", "0.05",
                   "--alpha-count", "2", "--times", "", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "sweep_alpha.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["nan", "0"]] * 2


def test_sweep_temperature_output(tmp_path):
    out = str(tmp_path)
    assert run_cli("sweep-temperature", "--t-end", "2", "--dt", "0.01",
                   "--times", "1,2", "--temp-count", "3", "--temp-min", "0.02",
                   "--temp-max", "0.2", "--out", out, "--svg") == 0
    lines = (tmp_path / "sweep_temperature.csv").read_text().splitlines()
    assert lines[0] == "t,T,alpha,qfi,cfi_x,cfi_z,qcrb,markov_fisher"
    data = [r for r in lines[1:] if not r.startswith("#")]
    assert len(data) == 6  # 3 temperatures x 2 probing times
    row = [float(v) for v in data[0].split(",")]
    assert row[3] > 0 and row[4] <= row[3] * (1 + 1e-8)
    assert (tmp_path / "sweep_temperature_qfi.svg").exists()
    assert (tmp_path / "sweep_temperature_measurements.svg").exists()


def test_sweep_temperature_zero_coupling(tmp_path):
    out = str(tmp_path)
    assert run_cli("sweep-temperature", "--eta", "0", "--t-end", "2", "--dt", "0.01",
                   "--times", "1", "--temp-count", "2", "--temp-min", "0.1",
                   "--temp-max", "0.3", "--out", out) == 0
    lines = (tmp_path / "sweep_temperature.csv").read_text().splitlines()
    for row in lines[1:]:
        if row.startswith("#"):
            continue
        vals = [float(v) for v in row.split(",")]
        assert vals[3] == vals[4] == vals[5] == 0.0  # no information without coupling
        assert math.isinf(vals[6])


@pytest.mark.parametrize("args,rows,footer", [
    (("--epsilon", "0", "--times", "1,2"), 6, False),
    (("--times", "0,1"), 6, False),
    (("--times", "2,1", "--temp-max", "0.05"), 6, True),
    (("--times", "0", "--t-end", "1", "--temp-count", "2"), 2, False),
], ids=["gapless", "first-time-zero", "unsorted-times", "only-time-zero"])
def test_sweep_temperature_degenerate_inputs_write_both_svgs(tmp_path, args, rows, footer):
    # a NaN Born-Markov series, a probing time without information, the
    # earliest probing time listed last (the slope is fitted at it, one
    # point per temperature), and plots with no drawable point at all
    import xml.etree.ElementTree as ET

    assert run_cli("sweep-temperature", "--t-end", "2", "--dt", "0.01", "--temp-count", "3",
                   *args, "--svg", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "sweep_temperature.csv").read_text().splitlines()
    assert len(lines) == 1 + rows + footer
    assert lines[-1].startswith("# low_T_slope_qfi = ") == footer
    assert not footer or "(log-log fit at t=1 over T <= 0.05)" in lines[-1]
    for name in ("sweep_temperature_qfi.svg", "sweep_temperature_measurements.svg"):
        assert ET.fromstring((tmp_path / name).read_text()).tag.endswith("svg")


def test_sweep_temperature_where_T4_underflows(tmp_path):
    # T^4 and e^{-eps/T} both underflow at T = 1e-150: no information, no
    # ZeroDivisionError
    assert run_cli("sweep-temperature", "--temp-min", "1e-150", "--temp-max", "1e-149",
                   "--temp-count", "2", "--t-end", "1", "--dt", "0.05", "--times", "1",
                   "--out", str(tmp_path)) == 0
    rows = [row.split(",") for row in
            (tmp_path / "sweep_temperature.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(float(row[3]) == 0.0 and float(row[7]) == 0.0 for row in rows)


@pytest.mark.parametrize("temp_min", ["1e-310", "5e-324"])
def test_sweep_temperature_with_subnormal_step_fails(tmp_path, capsys, temp_min):
    # the stencil step 1e-7 T is subnormal or zero: an error line naming T,
    # where the quadrature's mesh arithmetic used to overflow
    assert run_cli("sweep-temperature", "--temp-min", temp_min, "--temp-max", "1e-299",
                   "--temp-count", "2", "--t-end", "1", "--dt", "0.05", "--times", "1",
                   "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("qtherm: error: stencil needs T > 0") and err.count("\n") == 1
    assert f"got T={float(temp_min)}" in err and "Traceback" not in err


@pytest.mark.parametrize("command,args,T", [
    ("sweep-alpha", ("--temp", "6e102", "--alpha-count", "2"), "6e+102"),
    ("sweep-temperature", ("--temp-min", "1e110", "--temp-max", "2e110", "--temp-count", "2"),
     "1e+110"),
], ids=["sweep-alpha", "sweep-temperature"])
def test_stencil_temperature_whose_cube_overflows_fails(tmp_path, capsys, command, args, T):
    # T**3 in the thermal weight's series term w^3/360T^3 overflows a float:
    # one error line naming T, no traceback
    assert run_cli(command, *args, "--times", "1", "--t-end", "1", "--dt", "0.5",
                   "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"qtherm: error: thermal weight overflows at T={T}: T^3 > float max\n"


def test_fig3_single_temperature(tmp_path):
    # one temperature puts a single value on both log axes of the SVGs
    assert run_cli("reproduce", "fig3", "--temp-count", "1", "--temp-min", "0.03",
                   "--dt", "0.05", "--out", str(tmp_path)) == 0
    for name in ("fig3_sweep_qfi.svg", "fig3_sweep_measurements.svg"):
        assert "<circle" in (tmp_path / name).read_text()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag,named", [
    ("--t-end", "t_end"), ("--epsilon", "epsilon"), ("--omega-c", "omega_c"),
    ("--temp", "temperature"), ("--eta", "eta"),
])
def test_non_finite_physical_input_fails_naming_it(tmp_path, capsys, flag, named, value):
    assert run_cli("trajectory", flag, value, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("qtherm: error: ") and err.count("\n") == 1
    assert "finite" in err and named in err and value in err


@pytest.mark.parametrize("command", ["dump-kernels", "trajectory"])
def test_overflowing_kernels_fail_naming_temperature(tmp_path, capsys, command):
    # R, K and X overflow at T = 1e160: one error naming T, not an
    # integrator failure or a kernels.csv of inf
    assert run_cli(command, "--temp", "1e160", "--t-end", "1", "--dt", "0.5",
                   "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "qtherm: error: kernels R, K, X overflow at T=1e+160\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,named", [
    (("sweep-temperature", "--t-end", "2", "--times", "1.005", "--temp-count", "2"),
     "probing time 1.005 is not on the dt=0.01 grid"),
    (("sweep-alpha", "--t-end", "5", "--times", "1,10"),
     "probing time 10.0 lies beyond t_end=5.0"),
], ids=["off-grid", "beyond-t_end"])
def test_off_grid_probing_time_fails(tmp_path, capsys, args, named):
    rc = run_cli(*args, "--dt", "0.01", "--out", str(tmp_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err and named in err


@pytest.mark.parametrize("command", ["sweep-alpha", "sweep-temperature"])
def test_negative_probing_time_fails_before_kernels(tmp_path, capsys, monkeypatch, command):
    def no_kernels(*args, **kwargs):
        pytest.fail("kernels built for a negative probing time")

    monkeypatch.setattr(cli, "kernels_for", no_kernels)
    monkeypatch.setattr(metrology, "frequency_pass", no_kernels)
    rc = run_cli(command, "--t-end", "2", "--dt", "0.01", "--times=1,-1",
                 "--temp-count", "2", "--out", str(tmp_path))
    assert rc == 1
    assert "probing time -1.0 must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-alpha", "sweep-temperature"])
def test_probing_times_on_one_grid_row_fail_before_kernels(tmp_path, capsys, monkeypatch,
                                                           command):
    # let through, they wrote two qfi_t_1 columns or duplicate rows
    def no_kernels(*args, **kwargs):
        pytest.fail("kernels built for two probing times on one grid row")

    monkeypatch.setattr(cli, "kernels_for", no_kernels)
    monkeypatch.setattr(metrology, "frequency_pass", no_kernels)
    rc = run_cli(command, "--t-end", "2", "--dt", "0.05", "--times=1,2,1.0",
                 "--temp-count", "2", "--alpha-count", "2", "--out", str(tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == (
        "qtherm: error: probing times 1.0 and 1.0 share grid row 20\n")
    assert not list(tmp_path.iterdir())


def test_missing_config_file_fails(tmp_path, capsys):
    missing = tmp_path / "missing.args"
    with pytest.raises(SystemExit) as exc:
        run_cli("trajectory", f"@{missing}", "--out", str(tmp_path))
    assert exc.value.code != 0
    assert f"qtherm: error: [Errno 2] No such file or directory: '{missing}'" in (
        capsys.readouterr().err)


def test_args_file_writes_what_typed_flags_write(tmp_path):
    flags = ("--t-end=5", "--dt=0.1", "--alpha-count=3", "--times=1,5", "--epsilon=0.7")
    assert run_cli("sweep-alpha", *flags, "--out", str(tmp_path / "typed")) == 0
    assert run_cli("sweep-alpha", _args_file(tmp_path, *flags),
                   "--out", str(tmp_path / "saved")) == 0
    typed = (tmp_path / "typed" / "sweep_alpha.csv").read_bytes()
    assert (tmp_path / "saved" / "sweep_alpha.csv").read_bytes() == typed


@pytest.mark.parametrize("figure,lines,args,named", [
    ("fig2", (), ("--t-end", "100", "--times", "3"),
     "reproduce fig2 pins t_end = 50.0 (got 100.0), times = (1.0, 5.0, 20.0, 50.0) "
     "(got (3.0,))"),
    ("fig1", ("--times=1", "--t-end=200"), (), "reproduce fig1 pins times = () (got (1.0,))"),
    ("fig3", (), ("--alpha", "0.25", "--t-end", "20"),
     "reproduce fig3 pins alpha = 0.5 (got 0.25)"),
], ids=["flags", "config-file", "one-of-two"])
def test_reproduce_rejects_settings_it_pins(tmp_path, capsys, monkeypatch, figure, lines,
                                            args, named):
    # a set key that differs from the figure's pin fails before any kernel
    # is built; a set key equal to its pin is no conflict
    def no_kernels(*args, **kwargs):
        pytest.fail("kernels built for a conflicting setting")

    monkeypatch.setattr(cli, "kernels_for", no_kernels)
    monkeypatch.setattr(metrology, "frequency_pass", no_kernels)
    rc = run_cli("reproduce", figure, _args_file(tmp_path, *lines), *args, "--dt", "0.05",
                 "--out", str(tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == f"qtherm: error: {named}\n"


def test_times_parsed_by_one_rule(tmp_path, capsys, monkeypatch):
    # --times typed and an @FILE's --times line split alike: an empty item
    # fails naming times before any kernel is built, and an empty list is
    # no probing time
    def no_kernels(*args, **kwargs):
        pytest.fail("kernels built for a malformed times list")

    monkeypatch.setattr(cli, "kernels_for", no_kernels)
    for args in (("--times", "1,,2"), (_args_file(tmp_path, "--times=1,,2"),)):
        assert run_cli("sweep-alpha", *args, "--out", str(tmp_path)) == 1
        assert "bad number list for times: '1,,2'" in capsys.readouterr().err
    saved = _args_file(tmp_path, "--times=1, 2")
    assert _captured_config(monkeypatch, saved).times == (1.0, 2.0)
    assert _captured_config(monkeypatch, "--times", " 1, 2 ").times == (1.0, 2.0)
    assert _captured_config(monkeypatch, "--times=").times == ()


def test_bad_figure_name_rejected():
    with pytest.raises(SystemExit):
        run_cli("reproduce", "fig9")


def test_fig1_equator_off_the_alpha_grid(tmp_path):
    # the equator plot shows alpha = 0, 0.5 and 1 from the sweep's own lanes;
    # a 4-point sweep lacks 0.5, which is then integrated on its own, to the
    # same bytes
    for count in ("21", "4"):
        assert run_cli("reproduce", "fig1", "--dt", "0.5", "--alpha-count", count,
                       "--out", str(tmp_path / count)) == 0
    assert ((tmp_path / "21" / "fig1_equator.svg").read_bytes()
            == (tmp_path / "4" / "fig1_equator.svg").read_bytes())


def test_fig1_equator_at_a_dt_off_its_horizon(tmp_path):
    # dt = 0.8 divides fig1's t_end of 200 but not the equator plot's 50:
    # each path runs through the last grid time <= 50, t = 49.6 (63 points)
    assert run_cli("reproduce", "fig1", "--dt", "0.8", "--out", str(tmp_path)) == 0
    svg = (tmp_path / "fig1_equator.svg").read_text()
    paths = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(p.split()) for p in paths] == [63, 63, 63]


@pytest.mark.parametrize("command,args", [
    ("sweep-alpha", ("--alpha-count", "2")),
    ("sweep-temperature", ("--temp-count", "2")),
])
def test_sweep_svg_into_new_nested_dir_reports_each_file_once(tmp_path, capsys, command,
                                                               args):
    # the writers make the output directory; every file in it is reported
    # by exactly one "wrote" line, and nothing else is printed
    out = tmp_path / "a" / "b"
    assert run_cli(command, *args, "--svg", "--times", "1", "--t-end", "1", "--dt", "0.05",
                   "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert sorted(lines) == sorted(f"wrote {out / name}" for name in os.listdir(out))


def test_empty_out_writes_into_current_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("trajectory", "--t-end", "1", "--dt", "0.5", "--svg", "--out", "") == 0
    assert sorted(os.listdir(tmp_path)) == ["trajectory.csv", "trajectory.svg",
                                            "trajectory_equator.svg"]
    assert sorted(capsys.readouterr().out.splitlines()) == [
        "wrote trajectory.csv", "wrote trajectory.svg", "wrote trajectory_equator.svg"]


def test_svg_output_is_valid_xml(tmp_path):
    import xml.etree.ElementTree as ET

    out = str(tmp_path)
    run_cli("trajectory", "--t-end", "1", "--dt", "0.05", "--out", out, "--svg")
    for name in ("trajectory.svg", "trajectory_equator.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")


def test_svg_escapes_markup_in_text():
    import xml.etree.ElementTree as ET

    from qubit_thermometry.svg import LinePlot

    text = "F_Q <T> & <alpha>"
    plot = LinePlot(title=text, xlabel=text, ylabel=text)
    plot.add([0.0, 1.0], [0.0, 1.0], label=text)
    svg = plot.render()
    assert "F_Q &lt;T&gt; &amp; &lt;alpha&gt;" in svg
    labels = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
    assert labels.count(text) == 4


def test_svg_log_axes_without_points_or_spread():
    # an empty log plot spans one decade per axis; a single value is padded
    # by half a decade either side and drawn at the centre
    import xml.etree.ElementTree as ET

    from qubit_thermometry.svg import LinePlot

    empty = LinePlot(xlog=True, ylog=True)
    empty.add([0.0, -1.0, 2.0], [1.0, 2.0, 0.0], label="nothing drawable")
    svg = empty.render()
    labels = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
    assert labels.count("1") == 2 and labels.count("10") == 2
    single = LinePlot(xlog=True, ylog=True)
    single.add([0.3], [2e-3], label="one point")
    svg = single.render()
    ET.fromstring(svg)
    assert '<circle cx="343.0" cy="204.0"' in svg
    assert ">0.1<" in svg and ">0.001<" in svg


def test_repeated_run_byte_identical(tmp_path):
    args = ["dump-kernels", "--t-end", "1", "--dt", "0.05"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli(*args, "--out", d1)
    run_cli(*args, "--out", d2)
    assert (open(os.path.join(d1, "kernels.csv"), "rb").read()
            == open(os.path.join(d2, "kernels.csv"), "rb").read())
