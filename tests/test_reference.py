"""Figure pipelines against the frozen reference CSVs in ``bench/reference``.

The comparison follows the benchmark's output check: same line count, exact
header, exact integer columns, NaN equal to NaN, numeric fields within
rel 1e-6 / abs 1e-9 and the fig3 footer within rel 1e-5.  The tolerance admits
re-meshed kernels (~1e-13), and a wrong result still fails.  It does not admit
an exact temperature derivative: the references carry the delta = 1e-7 T
stencil, which is 1.7e-8 to 4.8e-7 off in |dD/dT| against a complex-step
oracle, and 4 fig2 QFI cells sit 1.2e-6 to 1.8e-6 from that oracle.  A more
exact derivative lands together with references re-frozen from an
independent oracle.
"""

import math
import os
import warnings

import pytest

from qubit_thermometry.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench", "reference")
REL_TOL = 1e-6
ABS_TOL = 1e-9
FOOTER_REL_TOL = 1e-5
INT_COLUMNS = {"converged"}


def _same_token(got: str, want: str, rel_tol: float) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(ABS_TOL, rel_tol * abs(w))


def csv_mismatch(lines, ref):
    """None when the CSV ``lines`` match the reference ``ref``, else the reason."""
    if len(lines) != len(ref):
        return f"{len(lines)} lines, reference has {len(ref)}"
    if lines[0] != ref[0]:
        return f"header {lines[0]!r} differs from {ref[0]!r}"
    header = ref[0].split(",")
    for n, (got, want) in enumerate(zip(lines[1:], ref[1:]), 2):
        footer = want.startswith("#")
        g, w = (got.split(), want.split()) if footer else (got.split(","), want.split(","))
        if len(g) != len(w):
            return f"line {n}: {len(g)} fields, reference has {len(w)}"
        for i, (a, b) in enumerate(zip(g, w)):
            if footer:
                ok = _same_token(a, b, FOOTER_REL_TOL)
            elif header[i] in INT_COLUMNS:
                ok = a == b
            else:
                ok = _same_token(a, b, REL_TOL)
            if not ok:
                return f"line {n} field {i + 1}: {a} vs reference {b}"
    return None


def _reference(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return fh.read().splitlines()


def test_comparer_rejects_drift():
    ref = ["alpha,N_C,converged", "0.5,0.25,1", "1,nan,0", "# slope = 2.00000 (fit)"]
    assert csv_mismatch(list(ref), ref) is None
    assert csv_mismatch(["alpha,N_C,converged", "0.5,0.2500001,1", *ref[2:]], ref) is None
    for line, where in ((1, "0.5,0.2500010,1"), (1, "0.5,0.25,0"), (2, "1,0.5,0"),
                        (3, "# slope = 2.00003 (fit)")):
        drifted = list(ref)
        drifted[line] = where
        assert csv_mismatch(drifted, ref) is not None
    assert csv_mismatch(["alpha,N_C,converged_x", *ref[1:]], ref) is not None
    assert csv_mismatch(ref[:-1], ref) is not None


# fig1 builds no stencil and runs in one process at any worker count.  fig2
# and fig3 also run at 2 workers: fig2 through the threads of its stencil
# kernel pass, fig3 through the process pool over its temperatures' kernel
# builds.
@pytest.mark.parametrize("figure,workers",
                         [("fig1", 1), ("fig2", 1), ("fig3", 1), ("fig2", 2), ("fig3", 2)],
                         ids=["fig1", "fig2", "fig3", "fig2-w2", "fig3-w2"])
def test_figure_matches_frozen_reference(tmp_path, figure, workers):
    argv = ["reproduce", figure, "--dt", "0.05", "--workers", str(workers),
            "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    # eta = 0.05 lies inside the validated envelope
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []
    name = f"{figure}_sweep.csv"
    lines = (tmp_path / name).read_text().splitlines()
    assert csv_mismatch(lines, _reference(name)) is None
