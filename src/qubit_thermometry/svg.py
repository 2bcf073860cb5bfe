"""Minimal self-contained SVG line plots: axes, ticks, log scales, legends.

Enough to visualize trajectories and sweep results without a plotting
dependency; styling is intentionally plain.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LinePlot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")
_WIDTH, _HEIGHT = 640, 420


def _escape(text: str) -> str:
    # XML character data; & goes first so the entities added after it stay
    # intact.  Same output as xml.sax.saxutils.escape, whose import pulls in
    # urllib.request and http.client (40-75 ms of every CLI start-up).
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            return m * mag
    return 10.0 * mag


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.6g}"


def _plotted(vals: np.ndarray, log: bool) -> np.ndarray:
    """``vals`` in the plotted coordinate.  A log axis takes math.log10 of
    each value: np.log10 need not round the same way."""
    return np.fromiter(map(math.log10, vals.tolist()), float, vals.size) if log else vals


class LinePlot:
    """Accumulates (x, y) series and renders one 640 x 420 SVG file.

    ``series`` holds each series as its x and y float64 arrays in the plotted
    coordinate (log10 on a log axis), then its label and dash flag.
    """

    def __init__(self, title="", xlabel="", ylabel="", xlog=False, ylog=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlog = xlog
        self.ylog = ylog
        self.series = []

    def add(self, x, y, label=None, dashed=False):
        """Add a series.  x and y pair up to the shorter of the two, as zip
        pairs them; non-finite points, and points <= 0 on a log axis, are
        skipped; a series left without points keeps its legend entry."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = min(x.size, y.size)
        x, y = x[:n], y[:n]
        keep = np.isfinite(x) & np.isfinite(y)
        if self.xlog:
            keep &= x > 0.0
        if self.ylog:
            keep &= y > 0.0
        self.series.append((_plotted(x[keep], self.xlog), _plotted(y[keep], self.ylog),
                            label, dashed))

    @staticmethod
    def _span(arrays) -> tuple:
        """(low, high) over the arrays of one axis in its plotted coordinate
        (log10 on a log axis): a single value is padded by 0.5 either side,
        and an axis without points spans (0, 1)."""
        drawn = [a for a in arrays if a.size]
        if not drawn:
            return 0.0, 1.0
        lo, hi = min(float(a.min()) for a in drawn), max(float(a.max()) for a in drawn)
        return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)

    def _ticks(self, lo: float, hi: float, log: bool):
        """Tick values between ``lo`` and ``hi``, given in the plotted
        coordinate."""
        if log:
            d0 = math.ceil(lo - 1e-9)
            d1 = math.floor(hi + 1e-9)
            return [10.0**d for d in range(d0, d1 + 1)]
        step = _nice_step(hi - lo)
        first = math.ceil(lo / step - 1e-9) * step
        ticks = []
        v = first
        while v <= hi + 1e-9 * step:
            ticks.append(0.0 if abs(v) < 1e-12 * step else v)
            v += step
        return ticks

    def render(self) -> str:
        tx = math.log10 if self.xlog else (lambda v: v)
        ty = math.log10 if self.ylog else (lambda v: v)
        fx0, fx1 = self._span([u for u, _, _, _ in self.series])
        fy0, fy1 = self._span([w for _, w, _, _ in self.series])
        pad_y = 0.05 * (fy1 - fy0)
        fy0, fy1 = fy0 - pad_y, fy1 + pad_y

        ml, mr, mt, mb = 62, 16, 34, 46
        W, H = _WIDTH, _HEIGHT
        ax_w, ax_h = W - ml - mr, H - mt - mb

        # pixel position of a plotted coordinate (a number or an array)
        def sx(u):
            return ml + (u - fx0) / (fx1 - fx0) * ax_w

        def sy(u):
            return H - mb - (u - fy0) / (fy1 - fy0) * ax_h

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
               f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="11">',
               f'<rect width="{W}" height="{H}" fill="white"/>',
               f'<rect x="{ml}" y="{mt}" width="{ax_w}" height="{ax_h}" '
               f'fill="none" stroke="black"/>']
        if self.title:
            out.append(f'<text x="{W/2:.1f}" y="20" text-anchor="middle" '
                       f'font-size="13">{_escape(self.title)}</text>')

        for v in self._ticks(fx0, fx1, self.xlog):
            px = sx(tx(v))
            if ml - 1 <= px <= W - mr + 1:
                out.append(f'<line x1="{px:.1f}" y1="{H-mb}" x2="{px:.1f}" '
                           f'y2="{H-mb+4}" stroke="black"/>')
                out.append(f'<text x="{px:.1f}" y="{H-mb+16}" '
                           f'text-anchor="middle">{_fmt(v)}</text>')
        for v in self._ticks(fy0, fy1, self.ylog):
            py = sy(ty(v))
            if mt - 1 <= py <= H - mb + 1:
                out.append(f'<line x1="{ml-4}" y1="{py:.1f}" x2="{ml}" '
                           f'y2="{py:.1f}" stroke="black"/>')
                out.append(f'<text x="{ml-7}" y="{py+3:.1f}" '
                           f'text-anchor="end">{_fmt(v)}</text>')
        if self.xlabel:
            out.append(f'<text x="{ml + ax_w/2:.1f}" y="{H-10}" '
                       f'text-anchor="middle">{_escape(self.xlabel)}</text>')
        if self.ylabel:
            out.append(f'<text x="16" y="{mt + ax_h/2:.1f}" text-anchor="middle" '
                       f'transform="rotate(-90 16 {mt + ax_h/2:.1f})">{_escape(self.ylabel)}</text>')

        legend_y = mt + 14
        for i, (u, w, label, dashed) in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            px, py = sx(u).tolist(), sy(w).tolist()
            if len(px) == 1:
                out.append(f'<circle cx="{px[0]:.1f}" cy="{py[0]:.1f}" r="2.5" fill="{color}"/>')
            elif px:
                coords = " ".join(map("{:.1f},{:.1f}".format, px, py))
                out.append(f'<polyline points="{coords}" fill="none" '
                           f'stroke="{color}" stroke-width="1.4"{dash}/>')
            if label:
                lx = W - mr - 120
                out.append(f'<line x1="{lx}" y1="{legend_y-4}" x2="{lx+22}" '
                           f'y2="{legend_y-4}" stroke="{color}" stroke-width="2"{dash}/>')
                out.append(f'<text x="{lx+27}" y="{legend_y}">{_escape(label)}</text>')
                legend_y += 15
        out.append("</svg>")
        return "\n".join(out)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())
