"""Minimal hand-emitted SVG charts: diagram scatter, quiver, line chart.

No plotting dependency; output is deterministic, self-contained XML with
nothing external referenced, so files diff cleanly across runs.

Every coordinate (and every other float the charts print) is written by
the package's one number renderer, ``_render``, which also writes every
CSV cell: ``_render._rows`` fills ``%.2f`` templates from whole float64
columns with the bytes of ``"%.2f" %``. It prints rint(|v| * 100) from byte
tables; a value whose |v| * 100 lies within 1e-6 of a half (exact ties
such as 0.125 included) or whose |v| is not below 9999.995 (inf and nan
included) is printed by ``"%.2f" %`` itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._render import _rows

WIDTH = 560
HEIGHT = 560
MARGIN = 60

HARD_COLOR = "#d62728"
EASY_COLOR = "#1f77b4"
SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# quiver cells: a shaft and a two-stroke head, or a dot
_ARROW = ('<path d="M%.2f %.2f L%.2f %.2f M%.2f %.2f L%.2f %.2f L%.2f %.2f" '
          f'stroke="{EASY_COLOR}" fill="none" stroke-width="1"/>')
_DOT = '<circle cx="%.2f" cy="%.2f" r="0.8" fill="gray"/>'
_POINTS = tuple(f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" '
                'fill-opacity="0.6"/>' for color in (EASY_COLOR, HARD_COLOR))
_ENDS = ('<circle cx="%.2f" cy="%.2f" r="4" fill="#2ca02c"/>\n'
         f'<circle cx="%.2f" cy="%.2f" r="4" fill="{HARD_COLOR}"/>')


def _sq_x(v: float) -> float:
    """Diagram coordinate in [-1, 1] to pixel x."""
    return MARGIN + (v + 1.0) / 2.0 * (WIDTH - 2 * MARGIN)


def _sq_y(v: float) -> float:
    return HEIGHT - MARGIN - (v + 1.0) / 2.0 * (HEIGHT - 2 * MARGIN)


def _pixels(s_ap, s_an) -> np.ndarray:
    """Diagram points as rows of (x, y) pixels."""
    return np.column_stack([_sq_x(np.asarray(s_ap, dtype=np.float64)),
                            _sq_y(np.asarray(s_an, dtype=np.float64))])


def _document(body: list[str], title: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="{MARGIN // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _square_axes(x_label: str, y_label: str) -> list[str]:
    x0, x1 = _sq_x(-1.0), _sq_x(1.0)
    y0, y1 = _sq_y(-1.0), _sq_y(1.0)
    parts = ['<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
             'fill="none" stroke="black"/>']
    values = [x0, y1, x1 - x0, y0 - y1]
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        parts += [
            '<text x="%.2f" y="%.2f" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{v:g}</text>',
            '<text x="%.2f" y="%.2f" text-anchor="end" '
            f'font-family="monospace" font-size="11">{v:g}</text>',
        ]
        values += [_sq_x(v), y0 + 18, x0 - 8, _sq_y(v) + 4]
    parts += [
        f'<text x="{(WIDTH) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label}</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>',
        # the s_an = s_ap diagonal separating hard from easy triplets
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
        'stroke="gray" stroke-dasharray="5,4"/>',
    ]
    values += [x0, y0, x1, y1]
    return _rows(["\n".join(parts)], [values])


def diagram_scatter(s_ap: Sequence[float], s_an: Sequence[float],
                    hard: Sequence[bool], title: str) -> str:
    """Scatter of diagram points (s_ap, s_an); hard ones drawn in red."""
    body = _square_axes("s_ap", "s_an")
    body += _rows(_POINTS, _pixels(s_ap, s_an), hard)
    return _document(body, title)


def field_quiver(
    s_ap: Sequence[float],
    s_an: Sequence[float],
    d_sap: Sequence[float],
    d_san: Sequence[float],
    title: str,
) -> str:
    """Arrow per cell, length scaled by delta magnitude; an arrow shorter
    than 0.15 px is drawn as a gray dot."""
    body = _square_axes("s_ap", "s_an")
    return _document(body + _quiver_cells(s_ap, s_an, d_sap, d_san), title)


def _quiver_cells(s_ap, s_an, d_sap, d_san) -> list[str]:
    """One arrow or dot per cell; its arrays are freed on return, before
    the document's cells are joined."""
    d = np.array([d_sap, d_san], dtype=np.float64)
    # a power-of-two rescale draws the same bytes, and the rescaled
    # magnitudes cannot overflow
    d = np.ldexp(d, -np.frexp(np.abs(d).max(initial=0.0))[1])
    mags = np.hypot(*d)
    max_mag = mags.max(initial=0.0)
    cell_px = (WIDTH - 2 * MARGIN) / max(mags.size ** 0.5 - 1, 1)
    scale = 0.0 if max_mag == 0 else 0.9 * cell_px / max_mag
    cells = np.zeros((mags.size, 10))
    cells[:, :2] = _pixels(s_ap, s_an)
    arrow = mags * scale >= 0.15
    (dx, dy), mags, (x0, y0) = d[:, arrow], mags[arrow], cells[arrow, :2].T
    qx, qy = x0 + dx * scale, y0 - dy * scale
    ux, uy = (qx - x0) / (mags * scale), (qy - y0) / (mags * scale)
    head = np.where(mags * scale < 10, 0.3 * mags * scale, 3.0)
    lx, ly = qx - head * (ux - 0.5 * uy), qy - head * (uy + 0.5 * ux)
    rx, ry = qx - head * (ux + 0.5 * uy), qy - head * (uy - 0.5 * ux)
    cells[arrow, 2:] = np.column_stack([qx, qy, lx, ly, qx, qy, rx, ry])
    return _rows((_DOT, _ARROW), cells, arrow)


def trajectory_path(s_ap: Sequence[float], s_an: Sequence[float],
                    title: str) -> str:
    """Polyline through diagram points; start marked green, end red."""
    xy = _pixels(s_ap, s_an)
    coords = " ".join(_rows(["%.2f,%.2f"], xy, sep=" "))
    body = _square_axes("s_ap", "s_an")
    body.append(
        f'<polyline points="{coords}" fill="none" stroke="{EASY_COLOR}" '
        f'stroke-width="1.5"/>'
    )
    if len(xy):
        body += _rows([_ENDS], xy[[0, -1]].reshape(1, 4))
    return _document(body, title)


def line_chart(series: Sequence[tuple[str, Sequence[float]]],
               title: str) -> str:
    """One polyline per (label, values) series over an integer x axis and
    a fixed [0, 1] y axis: every charted series is a fraction."""
    n = max((len(vals) for _, vals in series), default=1)

    def py(v):
        return HEIGHT - MARGIN - v * (HEIGHT - 2 * MARGIN)

    body = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>'
    ]
    ticks = np.arange(5) / 4
    body += _rows([f'<text x="{MARGIN - 8}" y="%.2f" text-anchor="end" '
                   'font-family="monospace" font-size="11">%.2f</text>'],
                  np.column_stack([py(ticks) + 4, ticks]))
    body.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">epoch</text>'
    )
    for idx, (label, values) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        values = np.asarray(values, dtype=np.float64)
        px = MARGIN + (np.arange(len(values)) / max(n - 1, 1)) * (
            WIDTH - 2 * MARGIN)
        coords = " ".join(_rows(["%.2f,%.2f"],
                                np.column_stack([px, py(values)]), sep=" "))
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{MARGIN + 10}" y="{MARGIN + 18 + 16 * idx}" '
            f'font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    return _document(body, title)
