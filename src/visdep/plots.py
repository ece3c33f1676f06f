"""Deterministic SVG charts (no imaging dependency, no timestamps).

Charts are emitted as plain SVG text so that re-running a pipeline stage
reproduces artifacts byte for byte and diffs stay readable.
"""

from __future__ import annotations

import os
from xml.sax.saxutils import escape

import numpy as np

from .dependence import CLASS_BY_CODE, TokenClass, classify_array
from .trace import TokenTrace

CLASS_COLORS = {
    TokenClass.IMAGE_POSITIVE: "#c0392b",
    TokenClass.IMAGE_INVARIANT: "#2c3e50",
    TokenClass.IMAGE_NEGATIVE: "#27ae60",
}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def trace_bars_svg(trace: TokenTrace, d) -> str:
    """Paired clean/noisy probability bars per token, colored by the class of its ``d``.

    Every token contributes two ``class="bar"`` rects: a solid one for
    the clean probability and a translucent one for the noisy one.
    """
    if np.shape(d) != (len(trace),):
        raise ValueError("trace and d must cover the same tokens")
    codes = classify_array(d).tolist()
    d = np.asarray(d).tolist()
    n = len(trace)
    bar_w = 14.0
    gap = 16.0
    margin_l, margin_r, top, plot_h = 46.0, 14.0, 16.0, 160.0
    group_w = 2 * bar_w + gap
    width = margin_l + n * group_w + margin_r
    height = top + plot_h + 64.0
    base = top + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" font-family="monospace" font-size="10">',
        f'<title>{escape(trace.sample_id)}</title>',
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(base)}" x2="{_fmt(width - margin_r)}" y2="{_fmt(base)}" stroke="#888"/>',
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(top)}" x2="{_fmt(margin_l)}" y2="{_fmt(base)}" stroke="#888"/>',
        f'<text x="{_fmt(margin_l - 4)}" y="{_fmt(top + 4)}" text-anchor="end">1.0</text>',
        f'<text x="{_fmt(margin_l - 4)}" y="{_fmt(base + 4)}" text-anchor="end">0.0</text>',
    ]
    for i in range(n):
        color = CLASS_COLORS[CLASS_BY_CODE[codes[i]]]
        x0 = margin_l + i * group_w
        for j, p in enumerate((trace.p_clean[i], trace.p_noisy[i])):
            h = p * plot_h
            x = x0 + j * bar_w
            opacity = "1.0" if j == 0 else "0.45"
            parts.append(
                f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(base - h)}" width="{_fmt(bar_w - 2)}" '
                f'height="{_fmt(h)}" fill="{color}" fill-opacity="{opacity}"/>'
            )
        label_x = x0 + bar_w
        parts.append(
            f'<text x="{_fmt(label_x)}" y="{_fmt(base + 12)}" text-anchor="middle">'
            f"{escape(trace.surfaces[i])}</text>"
        )
        parts.append(
            f'<text x="{_fmt(label_x)}" y="{_fmt(base + 24)}" text-anchor="middle">'
            f"d={d[i]:+.2f}</text>"
        )
    ly = base + 40.0
    lx = margin_l
    for cls, color in CLASS_COLORS.items():
        parts.append(
            f'<rect class="legend" x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}">{cls.value}</text>')
        lx += 110.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def score_histogram_svg(scores: list[float], bins: int = 30) -> tuple[str, np.ndarray, np.ndarray]:
    """Histogram of sequence-level dependence scores.

    The bins exactly cover the observed range, so every score lands in
    some bar.  Returns the SVG text plus the bin counts and edges so the
    same numbers can be written alongside as CSV.
    """
    if len(scores) == 0:
        raise ValueError("no scores to plot")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    values = np.asarray(scores, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    top_count = int(counts.max())

    bar_w = 18.0
    margin_l, margin_r, top, plot_h = 46.0, 14.0, 16.0, 180.0
    width = margin_l + bins * bar_w + margin_r
    height = top + plot_h + 40.0
    base = top + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" font-family="monospace" font-size="10">',
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(base)}" x2="{_fmt(width - margin_r)}" y2="{_fmt(base)}" stroke="#888"/>',
        f'<text x="{_fmt(margin_l - 4)}" y="{_fmt(top + 4)}" text-anchor="end">{top_count}</text>',
        f'<text x="{_fmt(margin_l)}" y="{_fmt(base + 14)}" text-anchor="middle">{_fmt(lo)}</text>',
        f'<text x="{_fmt(width - margin_r)}" y="{_fmt(base + 14)}" text-anchor="middle">{_fmt(hi)}</text>',
    ]
    for i, count in enumerate(counts):
        h = (plot_h * count / top_count) if top_count else 0.0
        x = margin_l + i * bar_w
        parts.append(
            f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(base - h)}" width="{_fmt(bar_w - 2)}" '
            f'height="{_fmt(h)}" fill="#2980b9"/>'
        )
    parts.append(
        f'<text x="{_fmt((margin_l + width - margin_r) / 2)}" y="{_fmt(base + 28)}" '
        f'text-anchor="middle">sequence dependence score</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", counts, edges


def write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
