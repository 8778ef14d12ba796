"""Tiny self-contained SVG line charts: axes, ticks, polylines, legend.

No plotting dependency — the experiment commands only need a handful of
mean-accuracy curves, and a few hundred lines of SVG text cover that.
Output is deterministic for identical input.
"""

import math
import sys
from dataclasses import dataclass

from .atomic import atomic_open
from .calculus import cast_fields

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    dashed: bool = False

    def __post_init__(self):
        cast_fields(self)
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("a series needs matching, non-empty xs and ys")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi / 2 - lo / 2) / target * 2  # halves: the span of two large values overflows
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if not t < t + step < math.inf:  # a step below half an ulp of t, or past the largest float
            break
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Powers of ten in [lo, hi]; where fewer than two fit, 2x and 5x too, then every mantissa."""
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    for mantissas in ((1,), (1, 2, 5), range(1, 10)):
        ticks = [m * 10.0 ** e for e in range(lo_e, hi_e + 1) for m in mantissas
                 if lo <= m * 10.0 ** e <= hi * (1 + 1e-9)]
        if len(ticks) >= 2:
            break
    return ticks


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


def _axis_range(lo: float, hi: float, half: float, pad: float) -> tuple[float, float]:
    """lo..hi widened by pad times its width; one value v spans v +- half first, or v +- 4 ulps."""
    top = sys.float_info.max
    if hi == lo:  # 4 ulps where rounding loses half: 1e300 +- 0.5 is 1e300
        half = half if lo - half < lo < lo + half else 4 * math.ulp(lo)
        lo, hi = max(lo - half, -top), min(hi + half, top)
    pad *= hi / 2 - lo / 2  # half the width, which is finite
    return max(lo - 2 * pad, -top), min(hi + 2 * pad, top)  # kept inside the finite floats


def render_line_chart(series: list[Series], *, title: str, x_label: str, y_label: str,
                      x_log: bool = False, width: int = 720, height: int = 480) -> str:
    if not series:
        raise ValueError("need at least one series")
    left, right, top, bottom = 72, 180, 48, 58
    px, py = width - left - right, height - top - bottom

    all_x = [v for s in series for v in s.xs]
    all_y = [v for s in series for v in s.ys]
    if x_log and min(all_x) <= 0:
        raise ValueError("log-scaled x axis needs positive x values")

    def xt(v: float) -> float:
        return math.log10(v) if x_log else v

    x_lo, x_hi = _axis_range(min(xt(v) for v in all_x), max(xt(v) for v in all_x), 0.5, 0.04)
    y_lo, y_hi = _axis_range(min(all_y), max(all_y), 0.05, 0.06)

    def sx(v: float) -> float:
        return left + (xt(v) / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * px  # halves, as in _axis_range

    def sy(v: float) -> float:
        return top + py - (v / 2 - y_lo / 2) / (y_hi / 2 - y_lo / 2) * py

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + px / 2:.1f}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>',
    ]

    x_ticks = (_log_ticks(10 ** x_lo, 10 ** x_hi) if x_log else _nice_ticks(x_lo, x_hi))
    y_ticks = _nice_ticks(y_lo, y_hi)
    for v in x_ticks:
        gx = sx(v)
        out.append(f'<line x1="{gx:.1f}" y1="{top}" x2="{gx:.1f}" y2="{top + py}" stroke="#dddddd"/>')
        out.append(f'<line x1="{gx:.1f}" y1="{top + py}" x2="{gx:.1f}" y2="{top + py + 5}" stroke="black"/>')
        out.append(f'<text x="{gx:.1f}" y="{top + py + 20}" text-anchor="middle" font-size="12">{_fmt_tick(v)}</text>')
    for v in y_ticks:
        gy = sy(v)
        out.append(f'<line x1="{left}" y1="{gy:.1f}" x2="{left + px}" y2="{gy:.1f}" stroke="#dddddd"/>')
        out.append(f'<line x1="{left - 5}" y1="{gy:.1f}" x2="{left}" y2="{gy:.1f}" stroke="black"/>')
        out.append(f'<text x="{left - 9}" y="{gy + 4:.1f}" text-anchor="end" font-size="12">{_fmt_tick(v)}</text>')

    out.append(f'<rect x="{left}" y="{top}" width="{px}" height="{py}" fill="none" stroke="black"/>')
    out.append(f'<text x="{left + px / 2:.1f}" y="{height - 14}" text-anchor="middle" font-size="13">{_escape(x_label)}</text>')
    out.append(f'<text x="20" y="{top + py / 2:.1f}" text-anchor="middle" font-size="13" '
               f'transform="rotate(-90 20 {top + py / 2:.1f})">{_escape(y_label)}</text>')

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.xs, s.ys))
        dash = ' stroke-dasharray="7,5"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"{dash}/>')
        for x, y in zip(s.xs, s.ys):
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = top + 16 + 20 * i
        lx = left + px + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{lx + 32}" y="{ly}" font-size="12">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_line_chart(path, series: list[Series], **kwargs) -> None:
    with atomic_open(path) as fh:
        fh.write(render_line_chart(series, **kwargs))
