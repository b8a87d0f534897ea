"""Minimal SVG emission for the study plots: percentile bands, log-log MSE
curves with the squared rate reference, and standardized-residual histograms.

Hand-rolled on purpose: the plots are diagnostics, the CSV/JSON artifacts are
the source of truth, and no plotting dependency is worth pinning for axes,
polylines, a band polygon and histogram rectangles.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56.0, 16.0, 28.0, 40.0


class _Panel:
    """Maps data coordinates onto one SVG viewport and draws primitives."""

    def __init__(self, x0, y0, width, height, xlim, ylim, log_x=False, log_y=False):
        self.x0, self.y0 = x0, y0
        self.width, self.height = width, height
        self.log_x, self.log_y = log_x, log_y
        self.xlim = self._tf_lim(xlim, log_x)
        self.ylim = self._tf_lim(ylim, log_y)
        self.elements: list[str] = []

    @staticmethod
    def _tf_lim(lim, log):
        lo, hi = lim
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if not math.isfinite(hi - lo):  # a limit or the span outside the float range
            lo, hi = 0.0, 1.0
        elif hi - lo <= 1e-9 * abs(lo):  # empty, or too narrow for a tick step to advance
            hi = lo + max(1.0, 1e-9 * abs(lo))
        return lo, hi

    def _tx(self, x):
        if self.log_x:
            x = math.log10(x)
        lo, hi = self.xlim
        return self.x0 + _MARGIN_L + (x - lo) / (hi - lo) * (
            self.width - _MARGIN_L - _MARGIN_R
        )

    def _ty(self, y):
        if self.log_y:
            y = math.log10(y)
        lo, hi = self.ylim
        return self.y0 + self.height - _MARGIN_B - (y - lo) / (hi - lo) * (
            self.height - _MARGIN_T - _MARGIN_B
        )

    def frame(self, title="", xlabel="", ylabel=""):
        x_left = self.x0 + _MARGIN_L
        x_right = self.x0 + self.width - _MARGIN_R
        y_top = self.y0 + _MARGIN_T
        y_bot = self.y0 + self.height - _MARGIN_B
        self.elements.append(
            f'<rect x="{x_left:.1f}" y="{y_top:.1f}" width="{x_right - x_left:.1f}" '
            f'height="{y_bot - y_top:.1f}" fill="none" stroke="#333"/>'
        )
        if title:
            self.elements.append(
                f'<text x="{(x_left + x_right) / 2:.1f}" y="{self.y0 + 18:.1f}" '
                f'text-anchor="middle" font-size="13">{title}</text>'
            )
        if xlabel:
            self.elements.append(
                f'<text x="{(x_left + x_right) / 2:.1f}" '
                f'y="{self.y0 + self.height - 8:.1f}" text-anchor="middle" '
                f'font-size="11">{xlabel}</text>'
            )
        if ylabel:
            cx, cy = self.x0 + 14, (y_top + y_bot) / 2
            self.elements.append(
                f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
                f'font-size="11" transform="rotate(-90 {cx:.1f} {cy:.1f})">{ylabel}</text>'
            )
        self._ticks()

    def _tick_values(self, lim, log):
        lo, hi = lim
        if log:
            lo_i, hi_i = math.floor(lo), math.ceil(hi)
            return [10.0**p for p in range(lo_i, hi_i + 1) if lo <= p <= hi]
        span = hi - lo
        step = 10.0 ** math.floor(math.log10(span / 4)) if span > 0 else 1.0
        for mult in (1.0, 2.0, 5.0, 10.0):
            if span / (step * mult) <= 6:
                step *= mult
                break
        first = math.ceil(lo / step) * step
        vals, v = [], first
        while v <= hi + 1e-12 * abs(step):
            vals.append(v)
            v += step
        return vals

    def _fmt(self, v):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-3:
            return f"{v:.0e}"
        return f"{v:.4g}"

    def _ticks(self):
        y_bot = self.y0 + self.height - _MARGIN_B
        x_left = self.x0 + _MARGIN_L
        for v in self._tick_values(self.xlim, self.log_x):
            px = self._tx(v)
            self.elements.append(
                f'<line x1="{px:.1f}" y1="{y_bot:.1f}" x2="{px:.1f}" '
                f'y2="{y_bot + 4:.1f}" stroke="#333"/>'
                f'<text x="{px:.1f}" y="{y_bot + 16:.1f}" text-anchor="middle" '
                f'font-size="10">{self._fmt(v)}</text>'
            )
        for v in self._tick_values(self.ylim, self.log_y):
            py = self._ty(v)
            self.elements.append(
                f'<line x1="{x_left - 4:.1f}" y1="{py:.1f}" x2="{x_left:.1f}" '
                f'y2="{py:.1f}" stroke="#333"/>'
                f'<text x="{x_left - 6:.1f}" y="{py + 3:.1f}" text-anchor="end" '
                f'font-size="10">{self._fmt(v)}</text>'
            )

    def _points(self, xs, ys) -> str:
        """The SVG points of the data points with a finite position: a
        non-finite value, or one <= 0 on a log axis, is left out."""
        pts = []
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)  # Python floats overflow to inf silently
            if (self.log_x and x <= 0) or (self.log_y and y <= 0):
                continue
            px, py = self._tx(x), self._ty(y)
            if math.isfinite(px) and math.isfinite(py):
                pts.append(f"{px:.2f},{py:.2f}")
        return " ".join(pts)

    def polyline(self, xs, ys, color, width=1.5, dash=None):
        pts = self._points(xs, ys)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def band(self, xs, lo_ys, hi_ys, color, opacity=0.25):
        pts = self._points(list(xs) + list(reversed(xs)),
                           list(hi_ys) + list(reversed(lo_ys)))
        self.elements.append(
            f'<polygon points="{pts}" fill="{color}" opacity="{opacity}" stroke="none"/>'
        )

    def bars(self, edges, counts, color):
        base = self._ty(max(self.ylim[0], 0.0) if not self.log_y else 10 ** self.ylim[0])
        for left, right, c in zip(edges[:-1], edges[1:], counts):
            if c <= 0:
                continue
            x1, x2 = self._tx(left), self._tx(right)
            y = self._ty(c)
            self.elements.append(
                f'<rect x="{x1:.2f}" y="{y:.2f}" width="{x2 - x1:.2f}" '
                f'height="{base - y:.2f}" fill="{color}" opacity="0.7" '
                f'stroke="#333" stroke-width="0.5"/>'
            )

    def label(self, text, idx, color):
        self.elements.append(
            f'<text x="{self.x0 + _MARGIN_L + 8:.1f}" '
            f'y="{self.y0 + _MARGIN_T + 14 + 13 * idx:.1f}" font-size="11" '
            f'fill="{color}">{text}</text>'
        )


def _document(panels, width, height) -> str:
    body = "\n".join(el for p in panels for el in p.elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_band_plot(n_values, summaries, theta_true) -> str:
    """One panel per variant: median curve with the 2.5/97.5 percentile band
    and a horizontal line at the true parameter.

    ``summaries`` maps variant -> dict with 'median', 'p2_5', 'p97_5' arrays
    aligned with n_values.
    """
    panel_w, panel_h = 320.0, 260.0
    variants = list(summaries)
    panels = []
    for i, variant in enumerate(variants):
        s = summaries[variant]
        # the axis spans the finite percentiles and the true parameter
        lo = min([float(v) for v in s["p2_5"] if math.isfinite(v)] + [theta_true])
        hi = max([float(v) for v in s["p97_5"] if math.isfinite(v)] + [theta_true])
        pad = 0.08 * (hi - lo) or 0.01
        panel = _Panel(i * panel_w, 0, panel_w, panel_h,
                       (min(n_values), max(n_values)), (lo - pad, hi + pad))
        panel.frame(title=variant, xlabel="N", ylabel="estimate")
        panel.band(n_values, s["p2_5"], s["p97_5"], _COLORS[1])
        panel.polyline(n_values, s["median"], _COLORS[0])
        panel.polyline([min(n_values), max(n_values)], [theta_true] * 2,
                       "#000", width=1.0)
        panel.polyline([min(n_values), max(n_values)], [0.0, 0.0],
                       "#000", width=0.8, dash="4,3")
        panels.append(panel)
    return _document(panels, panel_w * len(variants), panel_h)


def render_mse_plot(n_values, mse_by_variant, reference) -> str:
    """Log-log MSE per variant with the squared rate reference curve."""
    panel_w, panel_h = 420.0, 300.0
    # the axis spans the finite positive values; others are left out
    all_vals = [v for vals in [*mse_by_variant.values(), reference] for v in vals
                if 0 < v < math.inf]
    lo, hi = (min(all_vals), max(all_vals)) if all_vals else (1.0, 1.0)
    panel = _Panel(0, 0, panel_w, panel_h, (min(n_values), max(n_values)),
                   (lo * 0.5, hi * 2.0), log_x=True, log_y=True)
    panel.frame(title="mean squared error vs N", xlabel="N", ylabel="MSE")
    panel.polyline(n_values, reference, "#000", width=1.0, dash="5,3")
    panel.label("squared rate reference", 0, "#000")
    for i, (variant, vals) in enumerate(mse_by_variant.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = [(n, v) for n, v in zip(n_values, vals) if 0 < v < math.inf]
        if pts:
            panel.polyline([p[0] for p in pts], [p[1] for p in pts], color)
            panel.label(variant, i + 1, color)
    return _document([panel], panel_w, panel_h)


def render_histogram_plot(bin_edges, counts_by_variant, n_label) -> str:
    """Standardized-residual histograms with the N(0,1) density overlay."""
    panel_w, panel_h = 320.0, 260.0
    variants = list(counts_by_variant)
    panels = []
    for i, variant in enumerate(variants):
        counts = np.asarray(counts_by_variant[variant], dtype=float)
        total = counts.sum()
        width = bin_edges[1] - bin_edges[0]
        y_max = max(counts.max() if len(counts) else 1.0, 1.0)
        panel = _Panel(i * panel_w, 0, panel_w, panel_h,
                       (bin_edges[0], bin_edges[-1]), (0.0, 1.15 * y_max))
        panel.frame(title=f"{variant}, N={n_label}", xlabel="z", ylabel="count")
        panel.bars(bin_edges, counts, _COLORS[1])
        if total > 0:
            xs = np.linspace(bin_edges[0], bin_edges[-1], 121)
            dens = total * width * np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
            panel.polyline(xs, dens, _COLORS[0], width=1.2)
        panels.append(panel)
    return _document(panels, panel_w * len(variants), panel_h)
