"""Deterministic CSV and SVG emission for experiment outputs.

Report CSVs open with a comment line naming the tool version and the config
hash so outputs are traceable; rows contain no timing or other
non-reproducible data, making reruns with a fixed seed byte-identical.
SVG plots are plain polylines emitted directly, no plotting dependency.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

from . import __version__


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def write_csv(path, columns, rows, cfg_hash: str = "none") -> None:
    """Write a report CSV; a cell holding a comma, quote or newline is quoted."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# tool=pseudoplap-{__version__} config_hash={cfg_hash}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_cell(v) for v in row] for row in rows)


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_line_plot(path, series: dict, xlabel: str, ylabel: str, title: str) -> None:
    """Write a minimal log-log line plot; series maps label -> (xs, ys), with
    every x > 0 and every y nonzero (|y| is plotted)."""
    width, height = 640, 420

    pts = [(math.log10(x), math.log10(abs(y)))
           for xs, ys in series.values() for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    xs, ys = zip(*pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    margin = 60

    def px(v):
        return margin + (math.log10(v) - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(v):
        return height - margin - (math.log10(abs(v)) - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">{ylabel}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        out.append(
            f'<text x="{margin + (t - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.1f}" '
            f'y="{height - margin + 16}" text-anchor="middle" font-size="10">'
            f'{10.0**t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        out.append(
            f'<text x="{margin - 6}" '
            f'y="{height - margin - (t - y_lo) / (y_hi - y_lo) * (height - 2 * margin):.1f}" '
            f'text-anchor="end" font-size="10">{10.0**t:.3g}</text>'
        )
    for k, (label, (sx, sy)) in enumerate(series.items()):
        color = colors[k % len(colors)]
        path_pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
        out.append(f'<polyline points="{path_pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" '
                   f'font-size="10" fill="{color}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
