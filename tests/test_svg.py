"""LinePlot's point rules, checked against the per-point loop they replace."""

import math
import re

import numpy as np
import pytest

from qubit_thermometry.svg import LinePlot

NAN, INF = math.nan, math.inf


def _kept(x, y, xlog, ylog):
    """Reference: the points a plot draws, in its plotted coordinate, paired
    as zip pairs them."""
    pts = []
    for xi, yi in zip(x, y):
        xi, yi = float(xi), float(yi)
        if not (math.isfinite(xi) and math.isfinite(yi)):
            continue
        if (xlog and xi <= 0.0) or (ylog and yi <= 0.0):
            continue
        pts.append((math.log10(xi) if xlog else xi, math.log10(yi) if ylog else yi))
    return pts


def _drawn(svg):
    """Number of points each series draws: a polyline's pairs, or 1 for a
    circle."""
    counts = [len(m.split()) for m in re.findall(r'<polyline points="([^"]*)"', svg)]
    return counts + [1] * svg.count("<circle")


CASES = {
    "nan-and-inf": ({}, [0.0, 1.0, NAN, 2.0, INF, 3.0, -INF],
                    [0.0, 1.0, 2.0, NAN, 4.0, -INF, 5.0]),
    "xlog-nonpositive": ({"xlog": True}, [-1.0, 0.0, 1e-3, 2.0, -0.0, 5.0],
                         [1.0, 2.0, 3.0, -4.0, 5.0, 0.0]),
    "ylog-nonpositive": ({"ylog": True}, [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, -2.0, 3e-5, 4.0, -0.0]),
    "both-log": ({"xlog": True, "ylog": True}, [0.3, -1.0, 2.0, 7.0], [2e-3, 1.0, 0.0, INF]),
    "x-longer": ({}, [0.0, 1.0, 2.0, 3.0], [5.0, 6.0]),
    "y-longer": ({}, [0.0, 1.0], [5.0, 6.0, 7.0, 8.0]),
    "y-empty": ({"xlog": True, "ylog": True}, [0.01, 0.1, 1.0], []),
    "one-point": ({}, [NAN, 2.0, 3.0], [1.0, 4.0, NAN]),
    "none-drawable": ({"xlog": True}, [0.0, -1.0, NAN], [1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("case", CASES)
def test_add_keeps_the_points_the_loop_keeps(case):
    kw, x, y = CASES[case]
    want = _kept(x, y, kw.get("xlog", False), kw.get("ylog", False))
    plot = LinePlot(**kw)
    plot.add(x, y, label=case)
    u, w, label, dashed = plot.series[0]
    assert u.dtype == w.dtype == np.float64
    assert u.tolist() == [p[0] for p in want] and w.tolist() == [p[1] for p in want]
    assert (label, dashed) == (case, False)
    svg = plot.render()
    # one point is a circle, several a polyline; a series without points
    # draws nothing and keeps its legend entry
    assert _drawn(svg) == ([len(want)] if want else [])
    assert ('<circle' in svg) == (len(want) == 1)
    assert f">{case}</text>" in svg


@pytest.mark.parametrize("case", CASES)
def test_list_and_array_inputs_render_the_same_bytes(case):
    kw, x, y = CASES[case]
    svgs = set()
    for conv in (list, tuple, np.array):
        plot = LinePlot(**kw)
        plot.add(conv(x), conv(y), label="a")
        plot.add(conv(x[::-1]), conv(y[::-1]), label="b", dashed=True)
        svgs.add(plot.render())
    assert len(svgs) == 1


def test_long_paths_hold_no_per_point_objects(traced_peak):
    # fig1's equator plot at the default dt 0.01: three 5,001-point paths.
    # Measured 1.14 MB added and rendered from float64 arrays; 2.39 MB when
    # each series was a list of per-point float tuples
    t = np.linspace(0.0, 50.0, 5001)
    paths = [(np.exp(-a * t) * np.cos(t), np.exp(-a * t) * np.sin(t)) for a in (0.01, 0.02, 0.05)]

    def draw():
        plot = LinePlot(title="equatorial Bloch path", xlabel="Dx", ylabel="Dy")
        for j, (x, y) in enumerate(paths):
            plot.add(x, y, label=f"alpha={j}")
        return plot.render()

    assert traced_peak(draw) < 1.6e6
