"""Figure pipelines against the frozen reference CSVs in ``bench/reference``.

The benchmark harness ``bench/run.py`` is loaded read-only and its own
workloads, ``COMMON`` settings and ``check_csv`` comparer are applied here,
so the benchmark and this suite share one gate: a change that re-freezes the
references or moves ``COMMON`` moves both.  The comparer's tolerance does
not admit re-meshed kernels under the temperature stencil: swapping the
stencil's kernels for the time-domain pass's kernels, at most 3.2e-12 apart
(relative to each kernel's peak), moves 7 fig2 cells (by up to 5.0e-6,
relative) and 44 fig3 cells (by up to 1.34e-4) past it, and fig3's footer
slope from 1.90244 to 1.90238.  The references carry the delta = 1e-7 T
stencil, so a kernel change or a more exact temperature derivative lands
together with references re-frozen from an independent oracle.
"""

import importlib.util
import os
import warnings

import pytest

from qubit_thermometry.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_run",
                                               os.path.join(ROOT, "bench", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _at_two_workers(name):
    """Workload ``name``'s CLI arguments with ``--workers 2``."""
    args = list(run.WORKLOADS[name][0])
    args[args.index("--workers") + 1] = "2"
    return tuple(args), run.WORKLOADS[name][1]


def test_comparer_rejects_drift(tmp_path):
    ref = ["alpha,N_C,converged", "0.5,0.25,1", "1,nan,0", "# slope = 2.00000 (fit)"]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    want.write_text("".join(line + "\n" for line in ref))

    def mismatch(lines):
        got.write_text("".join(line + "\n" for line in lines))
        return run.check_csv(str(got), str(want))

    assert mismatch(ref) is None
    assert mismatch(["alpha,N_C,converged", "0.5,0.2500001,1", *ref[2:]]) is None
    for line, where in ((1, "0.5,0.2500010,1"), (1, "0.5,0.25,0"), (2, "1,0.5,0"),
                        (3, "# slope = 2.00003 (fit)")):
        drifted = list(ref)
        drifted[line] = where
        assert mismatch(drifted) is not None
    assert mismatch(["alpha,N_C,converged_x", *ref[1:]]) is not None
    assert mismatch(ref[:-1]) is not None


# Every benchmark workload, plus fig2 and fig3 at 2 workers: fig2 through the
# threads of its stencil kernel pass, fig3 through the process pool over its
# temperatures' kernel builds, pool paths that no benchmark workload runs.
CASES = {**run.WORKLOADS, "fig2-w2": _at_two_workers("fig2"),
         "fig3-w2": _at_two_workers("fig3")}


@pytest.mark.parametrize("case", list(CASES))
def test_figure_matches_frozen_reference(tmp_path, case):
    args, reference = CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*args, *run.COMMON, "--out", str(tmp_path)]) == 0
    # eta = 0.05 lies inside the validated envelope
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []
    assert run.check_csv(str(tmp_path / reference),
                         os.path.join(run.REFERENCE, reference)) is None
