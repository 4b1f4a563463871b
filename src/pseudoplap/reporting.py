"""Deterministic CSV and SVG emission for experiment outputs.

Report CSVs open with a comment line naming the tool version and the config
hash so outputs are traceable; rows contain no timing or other
non-reproducible data, making reruns with a fixed seed byte-identical.
SVG plots are plain polylines emitted directly, no plotting dependency.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain, groupby, islice

import numpy as np

from . import __version__


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


_BLOCK_ROWS = 128  # rows per `%` call; larger blocks build larger transient strings and lists
_BOOL_TEXT = {True: "true", False: "false"}  # np.bool_ hashes and compares as bool
_QUOTED = (",", '"', "\n")  # what makes csv's QUOTE_MINIMAL quote a cell, at "\n" line ends


def _bool_cells(column, single: bool) -> list:
    return [_BOOL_TEXT[v] for v in column]


def _text_cells(column, single: bool):
    """The csv cells of a column of str, as csv's QUOTE_MINIMAL writes them:
    a cell that holds a comma, a quote or a newline is quoted with its quotes
    doubled, and so is an empty cell that is its row's only one (`single`).
    A column with no such cell is returned as it is, at no call per cell."""
    text = "".join(column)
    if not any(c in text for c in _QUOTED) and not (single and "" in column):
        return column
    return ['"%s"' % v.replace('"', '""') if any(c in v for c in _QUOTED) or (single and not v)
            else v for v in column]


def _str_cells(column, single: bool):
    return _text_cells([str(v) for v in column], single)


def _lines(rows, single: bool) -> str:
    """The csv lines of rows whose cells have the types of rows[0], as one
    `%` call on the row template.

    A float is `%.17g`, the text of f"{v:.17g}"; a bool or np.bool_ is true
    or false; None is an empty cell; an int is its str; a str, or a cell of
    any other type, is its str, quoted as _text_cells says.  `single` says
    a row has one cell.
    """
    specs, fixes = [], {}
    for j, kind in enumerate(map(type, rows[0])):
        if kind is type(None):
            specs.append('%.0s""' if single else "%.0s")  # prints nothing of the None
        elif issubclass(kind, (bool, np.bool_)):
            specs.append("%s")
            fixes[j] = _bool_cells
        elif issubclass(kind, float):
            specs.append("%.17g")
        elif issubclass(kind, (int, np.integer)):
            specs.append("%s")
        else:
            specs.append("%s")
            fixes[j] = _text_cells if kind is str else _str_cells
    if fixes:
        columns = list(zip(*rows))
        changed = False
        for j, fix in fixes.items():
            cells = fix(columns[j], single)
            changed |= cells is not columns[j]
            columns[j] = cells
        if changed:  # else every cell is written as it is
            rows = list(zip(*columns))
    return (",".join(specs) + "\n") * len(rows) % tuple(chain.from_iterable(rows))


def write_csv(path, columns, rows, cfg_hash: str = "none") -> None:
    """Write a report CSV: the comment line, the header, then each row.

    Each run of consecutive rows whose cells share their types is written
    in blocks of _BLOCK_ROWS rows, each block one `%` call on the row
    template (_lines), so no Python call is made per cell.  The bytes are
    those of csv.writer with QUOTE_MINIMAL and "\n" line ends over the cells
    formatted one by one (tests/csv_writer_reference.py).
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# tool=pseudoplap-{__version__} config_hash={cfg_hash}\n")
        fh.write(_lines([list(columns)], len(columns) == 1))
        for kinds, run in groupby(rows, key=lambda row: tuple(map(type, row))):
            while block := list(islice(run, _BLOCK_ROWS)):
                fh.write(_lines(block, len(kinds) == 1))


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_line_plot(path, series: dict, xlabel: str, ylabel: str, title: str) -> None:
    """Write a minimal log-log line plot; series maps label -> (xs, ys), with
    every x > 0 and every y nonzero (|y| is plotted)."""
    width, height = 640, 420

    logged = {label: [(math.log10(x), math.log10(abs(y))) for x, y in zip(xs, ys)]
              for label, (xs, ys) in series.items()}
    pts = [pt for line in logged.values() for pt in line]
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

    # pixel positions of log10 x and log10 |y|
    def px(lx):
        return margin + (lx - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(ly):
        return height - margin - (ly - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

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
            f'<text x="{px(t):.1f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-size="10">{10.0**t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        out.append(
            f'<text x="{margin - 6}" y="{py(t):.1f}" '
            f'text-anchor="end" font-size="10">{10.0**t:.3g}</text>'
        )
    for k, (label, line) in enumerate(logged.items()):
        color = colors[k % len(colors)]
        path_pts = " ".join(f"{px(lx):.2f},{py(ly):.2f}" for lx, ly in line)
        out.append(f'<polyline points="{path_pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" '
                   f'font-size="10" fill="{color}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
